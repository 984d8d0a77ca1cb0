"""Support graphs: construction, recovery, predicates, decomposition."""


import pytest

from cyclefactor.factorization import (
    Factorization,
    FactorizationType,
    enumerate_factorizations,
)
from cyclefactor.graph import (
    FactorizationGraph,
    SVertexSet,
    characterization_failure,
    collapse_transposition_graph,
    decompose_at_last,
    default_svertices,
    enumerate_degree_graphs,
    factorization_of,
    graph_from_json,
    graph_of,
    graph_to_dot,
    graph_to_json,
    has_cicpp,
    has_cpp,
    is_factorization_graph,
)
from cyclefactor.perm import Cycle, compose, product, standard_cycle
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
    f = Factorization(FactorizationType(d, (d,)), tau, (tau,))
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
        f = Factorization(
            FactorizationType(3, (2, 2)), tau, (Cycle(3, (1, 2)), Cycle(3, (2, 3)))
        )
        g = graph_of(f)
        assert set(g.edges) == {(4, 1), (4, 2), (5, 2), (5, 3)}
        assert g.is_tree()

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            graph_of(worked_factorization(), SVertexSet((21, 22)))

    def test_invalid_factorization_rejected(self):
        tau = standard_cycle(3)
        bad = Factorization(
            FactorizationType(3, (2, 2)), tau, (Cycle(3, (1, 2)), Cycle(3, (1, 3)))
        )
        with pytest.raises(ValueError):
            graph_of(bad)


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

    def test_error_names_condition(self):
        g = FactorizationGraph(
            4,
            SVertexSet((5, 6)),
            frozenset({(5, 1), (5, 2), (6, 3), (6, 4)}),
            standard_cycle(4),
        )
        with pytest.raises(ValueError, match="not a tree"):
            factorization_of(g)


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
            4,
            SVertexSet((5, 6)),
            frozenset({(5, 1), (5, 3), (6, 1), (6, 2), (6, 4)}),
            standard_cycle(4),
        )
        assert not has_cpp(g, 6)

    def test_missing_vertex(self):
        with pytest.raises(ValueError):
            has_cpp(star_graph(3), 99)

    def test_degree_one_rejected(self):
        g = FactorizationGraph(
            3,
            SVertexSet((4, 5)),
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
            20, default_svertices(20, 9), frozenset(edges), standard_cycle(20)
        )
        assert not has_cicpp(g, 19)

    def test_component_wrapping_across_the_vertex_fails(self):
        # deleting 1 leaves {5, 2, 4} and {6, 3}: the arc 4, 2 runs through 1,
        # so the walk 4, 3, 2 meets the first component twice
        g = FactorizationGraph(
            4,
            SVertexSet((5, 6)),
            frozenset({(5, 1), (5, 2), (5, 4), (6, 1), (6, 3)}),
            standard_cycle(4),
        )
        assert not has_cicpp(g, 1)
        assert characterization_failure(g) == "[d]-vertex 1 lacks CICPP"
        # the gate agrees: the tree's clockwise reading (1 2 4)(1 3) is not tau
        for gated in (factorization_of, decompose_at_last):
            with pytest.raises(ValueError, match="^not a factorization graph"):
                gated(g)

    def test_missing_vertex(self):
        with pytest.raises(ValueError):
            has_cicpp(star_graph(3), 99)


class TestCharacterization:
    def test_worked_graph_passes(self):
        assert is_factorization_graph(graph_of(worked_factorization()))

    def test_disconnected_fails(self):
        g = FactorizationGraph(
            4,
            SVertexSet((5, 6)),
            frozenset({(5, 1), (5, 2), (6, 3), (6, 4)}),
            standard_cycle(4),
        )
        assert characterization_failure(g) == "not a tree"

    def test_failure_names_first_bad_vertex(self):
        edges = {(s, v) for s, v in WORKED_EDGES if s not in (22, 28)}
        edges |= {(22, 19), (22, 20), (28, 14), (28, 15), (28, 19)}
        g = FactorizationGraph(
            20, default_svertices(20, 9), frozenset(edges), standard_cycle(20)
        )
        failure = characterization_failure(g)
        assert failure is not None and "CICPP" in failure

    def test_predicate_carves_out_exactly_the_images_d4(self):
        def gate_passes(g):
            try:
                factorization_of(g)
            except ValueError:
                return False
            return True

        for e in genus0_types(4):
            passing = {
                g.edges for g in enumerate_degree_graphs(4, e) if is_factorization_graph(g)
            }
            gated = {g.edges for g in enumerate_degree_graphs(4, e) if gate_passes(g)}
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
                    lhs = product((c.to_permutation() for c in dec.gammas), d)
                    rhs = compose(
                        tau.to_permutation(), f.sigmas[-1].inverse().to_permutation()
                    )
                    assert lhs == rhs
                    # each multi-vertex subtree is the graph of its factors
                    for i in range(dec.k):
                        sub_f = factorization_of(dec.subtrees[i])
                        assert sub_f.sigmas == tuple(
                            f.sigmas[j - 1] for j in sorted(dec.bsets[i])
                        )
                        assert sum(
                            len(f.sigmas[j - 1].elements) - 1 for j in dec.bsets[i]
                        ) == dec.sizes[i] - 1


class TestCollapse:
    def test_d2(self):
        tau = standard_cycle(2)
        f = Factorization(FactorizationType(2, (2,)), tau, (tau,))
        assert collapse_transposition_graph(graph_of(f)) == ((1, 2),)

    def test_d3_gives_all_labeled_trees(self):
        trees = {
            collapse_transposition_graph(graph_of(f))
            for f in enumerate_factorizations(3, standard_cycle(3), (2, 2))
        }
        assert trees == {((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))}

    def test_d4_collapse_multiplicities(self):
        # The collapse forgets the factor order, so commuting disjoint
        # transpositions merge: 16 factorizations land on 12 distinct trees
        # (orderings of e.g. {12, 34, 24} collide).  The count identity with
        # labeled trees lives in the counting layer, not in this map.
        from collections import Counter

        trees = Counter(
            collapse_transposition_graph(graph_of(f))
            for f in enumerate_factorizations(4, standard_cycle(4), (2, 2, 2))
        )
        assert sum(trees.values()) == 16 == 4**2
        assert len(trees) == 12
        assert trees[((1, 2), (2, 4), (3, 4))] == 2

    def test_rejects_long_factors(self):
        with pytest.raises(ValueError):
            collapse_transposition_graph(star_graph(3))


class TestSerialization:
    def test_json_round_trip(self):
        g = graph_of(worked_factorization())
        assert graph_from_json(graph_to_json(g)) == g

    def test_nondefault_svertices_round_trip(self):
        tau = standard_cycle(3)
        f = Factorization(FactorizationType(3, (3,)), tau, (tau,))
        g = graph_of(f, SVertexSet((-7,)))
        assert graph_from_json(graph_to_json(g)) == g

    def test_dot_node_count(self):
        dot = graph_to_dot(graph_of(worked_factorization()))
        assert dot.count("shape=point") == 20
        assert dot.count("shape=circle") == 9
        assert dot.count(" -- ") == 28  # a 29-vertex tree

    def test_dot_star(self):
        dot = graph_to_dot(star_graph(3))
        assert dot.count("shape=") == 4
