"""Support graphs: construction, recovery, predicates, decomposition."""

import random

import pytest

from cyclefactor.bijection import psi, unique_labeling
from cyclefactor.factorization import (
    Factorization,
    enumerate_factorizations,
    factorization_from_json,
    factorization_to_json,
)
from cyclefactor.graph import (
    FactorizationGraph,
    characterization_failure,
    decompose_at_last,
    default_svertices,
    enumerate_degree_graphs,
    factorization_of,
    gate_failure,
    graph_from_json,
    graph_of,
    graph_to_dot,
    graph_to_json,
    has_cicpp,
    has_cpp,
    is_factorization_graph,
)
from cyclefactor.perm import Cycle, compose, product, standard_cycle
from cyclefactor.trees import PruferMatrix, mnr_decode
from cyclefactor.worked_example import factorization as worked_factorization


def genus0_types(d):
    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    for comp in compositions(d - 1):
        yield tuple(c + 1 for c in comp)


def star_graph(d):
    tau = standard_cycle(d)
    f = Factorization(tau, (tau,))
    return graph_of(f)


WORKED_EDGES = {
    (21, 10), (21, 11),
    (22, 14), (22, 15), (22, 19),
    (23, 1), (23, 19),
    (24, 3), (24, 4), (24, 5),
    (25, 1), (25, 2), (25, 13),
    (26, 15), (26, 16), (26, 17), (26, 18),
    (27, 7), (27, 8), (27, 9), (27, 11),
    (28, 19), (28, 20),
    (29, 2), (29, 5), (29, 6), (29, 11), (29, 12),
}


OTHER_TAUS = [
    Cycle(4, (1, 3, 2, 4)),
    # seeded random d-cycles that start at 1 and end at d
    *(Cycle(d, (1, *random.Random(0).sample(range(2, d), d - 2), d)) for d in (5, 6)),
]


def genus0_graphs(taus):
    """The graph of every genus-0 factorization of each tau."""
    for tau in taus:
        for e in genus0_types(tau.length):
            for f in enumerate_factorizations(tau.length, tau, e):
                yield graph_of(f)


def subtrees_below(g):
    """Every multi-vertex subtree of repeated ``decompose_at_last``, g excluded."""
    dec = decompose_at_last(g)
    for sub in dec.subtrees[: dec.k]:
        yield sub
        yield from subtrees_below(sub)


def with_negative_svertices(g):
    """g with its first half of S moved below 0, the order of S kept."""
    low = (len(g.svertices) + 1) // 2
    shift = {s: s - 3 * (g.d + len(g.svertices)) if i < low else s for i, s in enumerate(g.svertices)}
    edges = frozenset((shift[s], v) for s, v in g.edges)
    return FactorizationGraph(tuple(shift.values()), edges, g.tau)


class TestGraphOf:
    def test_worked_edge_set(self):
        g = graph_of(worked_factorization())
        assert set(g.edges) == WORKED_EDGES
        assert g.degrees == (2, 3, 2, 3, 3, 4, 4, 2, 5)

    def test_star(self):
        g = star_graph(3)
        assert set(g.edges) == {(4, 1), (4, 2), (4, 3)}

    def test_path_for_two_transpositions(self):
        tau = standard_cycle(3)
        f = Factorization(tau, (Cycle(3, (1, 2)), Cycle(3, (2, 3))))
        g = graph_of(f)
        assert set(g.edges) == {(4, 1), (4, 2), (5, 2), (5, 3)}
        assert g.is_tree()

    def test_invalid_factorization_rejected(self, assert_gate_rejects):
        # graph_of checks nothing; the reader and the gate reject the input
        tau = standard_cycle(3)
        bad = Factorization(tau, (Cycle(3, (1, 2)), Cycle(3, (1, 3))))
        with pytest.raises(ValueError, match="^not a factorization: the ordered product is not tau$"):
            factorization_from_json(factorization_to_json(bad))
        assert_gate_rejects(graph_of(bad), "the clockwise reading does not multiply to tau")


def sorted_adjacency(g):
    """Both adjacency maps, read off the sorted edge list."""
    s_adj = {s: [] for s in g.svertices}
    v_adj = {v: [] for v in g.tau.elements}
    for s, v in sorted(g.edges):
        s_adj[s].append(v)
        v_adj[v].append(s)
    return (
        {s: tuple(vs) for s, vs in s_adj.items()},
        {v: tuple(ss) for v, ss in v_adj.items()},
    )


class TestAdjacency:
    """Each S-vertex lists its [d]-neighbors increasing, each [d]-vertex its S-neighbors."""

    @staticmethod
    def assert_sorted(g):
        s_adj, v_adj = sorted_adjacency(g)
        assert {s: g.neighbors_of_s(s) for s in g.svertices} == s_adj
        assert {v: g.neighbors_of_v(v) for v in g.tau.elements} == v_adj

    def test_genus0_graphs(self):
        for g in genus0_graphs(standard_cycle(d) for d in range(2, 7)):
            self.assert_sorted(g)
            self.assert_sorted(with_negative_svertices(g))

    def test_decomposition_subtrees(self):
        for g in genus0_graphs([*(standard_cycle(d) for d in range(2, 7)), *OTHER_TAUS]):
            for sub in subtrees_below(g):
                self.assert_sorted(sub)

    @pytest.mark.parametrize(
        "d,e", [(4, (2, 2, 2)), (5, (3, 2, 2)), (6, (4, 3)), (6, (3, 3, 2))], ids=str
    )
    def test_random_degree_graphs(self, d, e):
        graphs = list(enumerate_degree_graphs(d, e))
        for g in random.Random(f"adjacency-{d}-{e}").sample(graphs, 50):
            self.assert_sorted(g)
            self.assert_sorted(with_negative_svertices(g))

    def test_random_graph_at_d_300(self):
        # long adjacency lists, half of S below 0
        d = 300
        rng = random.Random(f"adjacency-{d}")
        svertices = (*range(-200, -100), *range(d + 1, d + 101))
        edges = frozenset(
            (s, v) for s in svertices for v in rng.sample(range(1, d + 1), rng.randint(1, 9))
        )
        self.assert_sorted(FactorizationGraph(svertices, edges, standard_cycle(d)))


def clockwise_reading(g):
    """Each S-vertex's neighbors, sorted clockwise round g's circle."""
    position = g.tau.elements.index
    return tuple(
        Cycle(g.tau.degree, tuple(sorted(g.neighbors_of_s(s), key=position)))
        for s in g.svertices
    )


class TestFactorizationOf:
    def test_worked_recovery(self):
        g = graph_of(worked_factorization())
        f = factorization_of(g)
        assert f == worked_factorization()
        assert f.sigmas[8] == Cycle(20, (2, 5, 6, 11, 12))

    def test_star_recovers_tau(self):
        f = factorization_of(star_graph(5))
        assert f.sigmas == (standard_cycle(5),)

    def test_round_trip_exhaustive(self):
        for d in range(2, 7):
            tau = standard_cycle(d)
            for e in genus0_types(d):
                for f in enumerate_factorizations(d, tau, e):
                    g = graph_of(f)
                    assert factorization_of(g) == f
                    assert graph_of(factorization_of(g)) == g

    @pytest.mark.parametrize("tau", OTHER_TAUS, ids=str)
    def test_round_trip_on_other_base_cycles(self, tau):
        # a shortcut that reads a graph clockwise as if tau were (1 2 ... d)
        # whenever tau runs from 1 to d would misread these
        d = tau.length
        assert tau != standard_cycle(d)
        for e in genus0_types(d):
            for f in enumerate_factorizations(d, tau, e):
                assert factorization_of(graph_of(f)) == f

    @pytest.mark.parametrize(
        "taus", [[standard_cycle(d) for d in range(2, 7)], OTHER_TAUS], ids=["standard", "other"]
    )
    def test_equals_clockwise_reading(self, taus):
        # on every graph and every sub-circle of its repeated decomposition
        for g in genus0_graphs(taus):
            for h in (g, *subtrees_below(g)):
                assert factorization_of(h).sigmas == clockwise_reading(h)

    def test_error_names_condition(self, assert_gate_rejects):
        g = FactorizationGraph(
            (5, 6),
            frozenset({(5, 1), (5, 2), (6, 3), (6, 4)}),
            standard_cycle(4),
        )
        assert_gate_rejects(g, "not a tree")


class TestCpp:
    def test_worked_s9(self):
        g = graph_of(worked_factorization())
        assert has_cpp(g, 29)

    def test_star_vertices(self):
        g = star_graph(4)
        assert has_cpp(g, 5)

    def test_nonconsecutive_subtree(self):
        # subtree {1,3} is not an arc of (1 2 3 4)
        g = FactorizationGraph(
            (5, 6),
            frozenset({(5, 1), (5, 3), (6, 1), (6, 2), (6, 4)}),
            standard_cycle(4),
        )
        assert not has_cpp(g, 6)

    def test_missing_vertex(self):
        with pytest.raises(ValueError):
            has_cpp(star_graph(3), 99)

    def test_degree_one_rejected(self):
        g = FactorizationGraph(
            (4, 5),
            frozenset({(4, 1), (4, 2), (4, 3), (5, 2)}),
            standard_cycle(3),
        )
        with pytest.raises(ValueError, match="degree"):
            has_cpp(g, 4)


class TestCicpp:
    def test_worked_vertex_19(self):
        g = graph_of(worked_factorization())
        assert has_cicpp(g, 19)

    def test_leaf_vertices(self):
        g = graph_of(worked_factorization())
        for v in (3, 4, 6, 7, 8, 9, 10, 12, 14, 16, 17, 18, 20):
            assert has_cicpp(g, v)

    def test_swapped_attachments_break_it(self):
        # swap the neighborhoods of the 2nd and 8th factor vertices
        edges = {(s, v) for s, v in WORKED_EDGES if s not in (22, 28)}
        edges |= {(22, 19), (22, 20), (28, 14), (28, 15), (28, 19)}
        g = FactorizationGraph(
            default_svertices(20, 9), frozenset(edges), standard_cycle(20)
        )
        assert not has_cicpp(g, 19)

    def test_component_wrapping_across_the_vertex_fails(self, assert_gate_rejects):
        # deleting 1 leaves {5, 2, 4} and {6, 3}: the arc 4, 2 runs through 1,
        # so the walk 4, 3, 2 meets the first component twice
        g = FactorizationGraph(
            (5, 6),
            frozenset({(5, 1), (5, 2), (5, 4), (6, 1), (6, 3)}),
            standard_cycle(4),
        )
        assert not has_cicpp(g, 1)
        assert characterization_failure(g) == "[d]-vertex 1 lacks CICPP"
        # the gate agrees: the tree's clockwise reading (1 2 4)(1 3) is not tau
        assert_gate_rejects(g, "the clockwise reading does not multiply to tau")

    def test_neighbors_sharing_a_component_fail(self):
        # not a tree: deleting 3 leaves 10 and 12 in one component A, so the
        # counterclockwise runs from 3 read A, B, A, which is the neighbor
        # list 10, 11, 12 component by component, yet A is met twice
        edges = [(7, 2), (7, 6), (8, 1), (8, 4), (9, 1), (9, 6), (10, 2), (10, 3),
                 (10, 6), (11, 3), (11, 5), (12, 2), (12, 3)]
        g = FactorizationGraph(
            tuple(range(7, 13)), frozenset(edges), Cycle(6, (1, 3, 4, 6, 5, 2))
        )
        assert g.neighbors_of_v(3) == (10, 11, 12)
        assert not has_cicpp(g, 3)

    def test_missing_vertex(self):
        with pytest.raises(ValueError):
            has_cicpp(star_graph(3), 99)

    def test_degree_one_rejected(self):
        g = FactorizationGraph(
            (4, 5),
            frozenset({(4, 1), (4, 2), (4, 3), (5, 2)}),
            standard_cycle(3),
        )
        with pytest.raises(ValueError, match=r"^S-vertex 5 has degree < 2; predicates undefined$"):
            has_cicpp(g, 2)


class TestCharacterization:
    def test_worked_graph_passes(self):
        assert is_factorization_graph(graph_of(worked_factorization()))

    def test_disconnected_fails(self):
        g = FactorizationGraph(
            (5, 6),
            frozenset({(5, 1), (5, 2), (6, 3), (6, 4)}),
            standard_cycle(4),
        )
        assert characterization_failure(g) == "not a tree"

    def test_failure_names_first_bad_vertex(self):
        edges = {(s, v) for s, v in WORKED_EDGES if s not in (22, 28)}
        edges |= {(22, 19), (22, 20), (28, 14), (28, 15), (28, 19)}
        g = FactorizationGraph(
            default_svertices(20, 9), frozenset(edges), standard_cycle(20)
        )
        failure = characterization_failure(g)
        assert failure is not None and "CICPP" in failure

    def test_predicate_carves_out_exactly_the_images_d4(self):
        for e in genus0_types(4):
            passing = {
                g.edges for g in enumerate_degree_graphs(4, e) if is_factorization_graph(g)
            }
            gated = {g.edges for g in enumerate_degree_graphs(4, e) if gate_failure(g) is None}
            images = {
                graph_of(f).edges
                for f in enumerate_factorizations(4, standard_cycle(4), e)
            }
            assert passing == images
            assert gated == images
        assert len({
            g.edges for g in enumerate_degree_graphs(4, (2, 2, 2)) if is_factorization_graph(g)
        }) == 16


class TestTreeCondition:
    def test_connected_iff_sum_matches(self):
        # over the ambient family: connected graphs are trees iff the factor
        # lengths balance the degree
        for e in [(2, 2, 2), (2, 3), (4,), (3, 3), (2, 2, 3)]:
            d = 4
            for g in enumerate_degree_graphs(d, e):
                if not g.is_connected():
                    continue
                balanced = sum(x - 1 for x in e) == d - 1
                assert g.is_tree() == balanced


class TestLastVertexCpp:
    def test_largest_s_vertex_always_has_cpp(self):
        for d in range(2, 7):
            tau = standard_cycle(d)
            for e in genus0_types(d):
                for f in enumerate_factorizations(d, tau, e):
                    g = graph_of(f)
                    assert has_cpp(g, max(g.svertices))


class TestDecomposeAtLast:
    def test_worked_example(self):
        g = graph_of(worked_factorization())
        dec = decompose_at_last(g)
        assert dec.k == 3
        assert dec.sizes == (3, 5, 10, 1, 1)
        assert [sorted(b) for b in dec.bsets] == [[4], [1, 7], [2, 3, 5, 6, 8], [], []]
        assert [c.elements for c in dec.gammas[:3]] == [
            (3, 4, 5),
            (7, 8, 9, 10, 11),
            (1, 2) + tuple(range(13, 21)),
        ]
        assert {c.elements for c in dec.gammas[3:]} == {(6,), (12,)}

    def test_star_has_only_singletons(self):
        dec = decompose_at_last(star_graph(4))
        assert dec.k == 0
        assert dec.sizes == (1, 1, 1, 1)

    def test_identities_on_enumerated_graphs(self):
        for d in range(2, 6):
            tau = standard_cycle(d)
            for e in genus0_types(d):
                for f in enumerate_factorizations(d, tau, e):
                    g = graph_of(f)
                    dec = decompose_at_last(g)
                    # pieces multiply to tau * sigma_last^{-1}
                    lhs = product((c.images() for c in dec.gammas), d)
                    rhs = compose(tau.images(), f.sigmas[-1].inverse().images())
                    assert lhs == rhs
                    # each multi-vertex subtree is the graph of its factors
                    for i in range(dec.k):
                        assert gate_failure(dec.subtrees[i]) is None
                        sub_f = factorization_of(dec.subtrees[i])
                        assert sub_f.sigmas == tuple(
                            f.sigmas[j - 1] for j in sorted(dec.bsets[i])
                        )
                        assert sum(
                            len(f.sigmas[j - 1].elements) - 1 for j in dec.bsets[i]
                        ) == dec.sizes[i] - 1

    # far past enumeration range; the last factor is a transposition, or
    # has length d/2 and so leaves d/2 pieces
    @pytest.mark.parametrize("last", [2, 5000], ids=["transpositions", "long-last"])
    def test_at_d_10000(self, last):
        d = 10_000
        e = (2,) * (d - last) + (last,)
        sv = tuple(range(d + 1, d + len(e) + 1))
        vd = (1,) + tuple(ei - 1 for ei in e)
        rng = random.Random(f"decompose-{last}-{d}")
        alphabet = [(w, b) for w, f in zip((0,) + sv, vd) for b in range(1, f + 1)]
        cols = [rng.choice(alphabet) for _ in e[1:]] + [(0, 1)]
        h = PruferMatrix(tuple(w for w, _ in cols), tuple(b for _, b in cols))
        dec = decompose_at_last(psi(unique_labeling(mnr_decode(h, sv, vd))[0]))
        assert sorted(j for bset in dec.bsets for j in bset) == list(range(1, len(e)))
        assert sum(dec.sizes) == d
        assert dec.k >= 1
        for sub in dec.subtrees[: dec.k]:
            assert gate_failure(sub) is None


class TestSerialization:
    def test_json_round_trip(self):
        g = graph_of(worked_factorization())
        assert graph_from_json(graph_to_json(g)) == g

    def test_nondefault_svertices_round_trip(self):
        tau = standard_cycle(3)
        g = FactorizationGraph((-7,), frozenset((-7, v) for v in tau.elements), tau)
        assert graph_from_json(graph_to_json(g)) == g

    def test_dot_node_count(self):
        dot = graph_to_dot(graph_of(worked_factorization()))
        assert dot.count("shape=point") == 20
        assert dot.count("shape=circle") == 9
        assert dot.count(" -- ") == 28  # a 29-vertex tree

    def test_dot_star(self):
        dot = graph_to_dot(star_graph(3))
        assert dot.count("shape=") == 4
