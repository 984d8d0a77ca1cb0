"""Folding graphs to labeled trees and back; the unique labeling."""

import itertools
import random

import pytest

from cyclefactor.bijection import (
    phi_labeled,
    psi,
    unique_labeling,
)
from cyclefactor.cli import _to_standard_circle
from cyclefactor.factorization import (
    Factorization,
    FactorizationType,
    enumerate_factorizations,
    validate,
)
from cyclefactor.graph import (
    FactorizationGraph,
    characterization_failure,
    decompose_at_last,
    factorization_of,
    gate_failure,
    graph_from_json,
    graph_of,
    graph_to_json,
    is_factorization_graph,
)
from cyclefactor.perm import Cycle, product, standard_cycle
from cyclefactor.trees import (
    LabeledMNR,
    MultiNodedRootedTree,
    PruferMatrix,
    RootedTree,
    enumerate_mnr,
    mnr_decode,
    mnr_encode,
)
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
    return graph_of(Factorization(FactorizationType(d, (d,)), tau, (tau,)))


def assert_reads_back(g):
    """An arrow-built graph equals the graph read from its JSON, adjacency included."""
    read = graph_from_json(graph_to_json(g))
    assert read == g
    assert all(read.neighbors_of_s(s) == g.neighbors_of_s(s) for s in g.svertices)
    assert all(read.neighbors_of_v(v) == g.neighbors_of_v(v) for v in g.tau.elements)


def label_spans(lm):
    """(least, greatest) label of every vertex- and node-rooted subtree, bottom up."""
    m = lm.mnr
    children = m.tree.children_of()
    order = [0]
    for v in order:
        order.extend(children[v])
    attached = {}
    for c in m.tree.svertices:
        attached.setdefault((m.tree.parent_of(c), m.beta_of(c)), []).append(c)
    vertex_spans, node_spans = {}, {}
    for v in reversed(order):
        for pos in range(1, m.f_of(v) + 1):
            node = (v, pos)
            labs = [lm.label_of(node)]
            labs += [x for c in attached.get(node, ()) for x in vertex_spans[c]]
            node_spans[node] = (min(labs), max(labs))
        labs = [x for pos in range(1, m.f_of(v) + 1) for x in node_spans[(v, pos)]]
        vertex_spans[v] = (min(labs), max(labs))
    return vertex_spans, node_spans


WORKED_LABELS = {
    (0, 1): 1,
    (21, 1): 10,
    (22, 1): 14, (22, 2): 15,
    (23, 1): 19,
    (24, 1): 3, (24, 2): 4,
    (25, 1): 2, (25, 2): 13,
    (26, 1): 16, (26, 2): 17, (26, 3): 18,
    (27, 1): 7, (27, 2): 8, (27, 3): 9,
    (28, 1): 20,
    (29, 1): 5, (29, 2): 6, (29, 3): 11, (29, 4): 12,
}


class TestPhiLabeled:
    def test_worked_labels(self):
        lm = phi_labeled(graph_of(worked_factorization()))
        assert dict(lm.labels) == WORKED_LABELS
        # the largest factor vertex hangs from its parent's first node
        assert lm.mnr.tree.parent_of(29) == 25
        assert lm.mnr.beta_of(29) == 1

    def test_star(self):
        lm = phi_labeled(star_graph(3))
        assert lm.mnr.vertex_data == (1, 2)
        assert dict(lm.labels) == {(0, 1): 1, (4, 1): 2, (4, 2): 3}

    def test_rejects_non_factorization_graph(self, assert_gate_rejects):
        g = FactorizationGraph(
            4,
            (5, 6),
            frozenset({(5, 1), (5, 2), (6, 3), (6, 4)}),
            standard_cycle(4),
        )
        assert_gate_rejects(g, "not a tree")

    def test_graph_without_factor_vertices(self, assert_gate_rejects):
        # one vertex is the graph of the empty factorization of a 1-cycle;
        # on more vertices an edgeless graph is no tree
        one = FactorizationGraph(1, (), frozenset(), standard_cycle(1))
        assert gate_failure(one) is None
        assert phi_labeled(one).mnr.vertex_data == (1,)
        three = FactorizationGraph(3, (), frozenset(), standard_cycle(3))
        assert_gate_rejects(three, "not a tree")

    def test_nonstandard_tau_is_relabeled(self):
        # convert moves a graph onto (1 2 ... d) before the fold, which trusts it
        tau = Cycle(4, (1, 3, 2, 4))
        f = next(iter(enumerate_factorizations(4, tau, (2, 2, 2))))
        g = graph_of(f)
        std, place = _to_standard_circle(g)
        assert (std.d, std.tau, std.svertices) == (4, standard_cycle(4), g.svertices)
        assert gate_failure(std) is None
        assert place == {1: 1, 3: 2, 2: 3, 4: 4}
        assert phi_labeled(std) == phi_labeled(graph_of(_to_standard_circle(f)[0]))

    def test_psi_inverts_exhaustive(self):
        for d in range(2, 7):
            tau = standard_cycle(d)
            for e in genus0_types(d):
                for f in enumerate_factorizations(d, tau, e):
                    g = graph_of(f)
                    assert psi(phi_labeled(g)) == g

    def test_arrow_graphs_read_back_exhaustive(self):
        # the arrows build graphs unchecked; each must be what the reader builds
        for d in range(2, 6):
            tau = standard_cycle(d)
            for e in genus0_types(d):
                for f in enumerate_factorizations(d, tau, e):
                    g = graph_of(f)
                    assert_reads_back(g)
                    assert_reads_back(psi(phi_labeled(g)))


class TestPhi:
    def test_worked_tree(self):
        m = phi_labeled(graph_of(worked_factorization())).mnr
        assert m.vertex_data == (1, 1, 2, 1, 2, 2, 3, 3, 1, 4)
        assert mnr_encode(m).bottom == (1, 3, 2, 1, 1, 1, 3, 1, 1)

    def test_star_tree(self):
        m = phi_labeled(star_graph(5)).mnr
        assert m.vertex_data == (1, 4)
        assert m.beta_of(6) == 1

    def test_image_is_whole_family(self):
        for d in range(2, 6):
            tau = standard_cycle(d)
            for e in genus0_types(d):
                vd = (1,) + tuple(ei - 1 for ei in e)
                svertices = tuple(range(d + 1, d + len(e) + 1))
                images = {
                    phi_labeled(graph_of(f)).mnr for f in enumerate_factorizations(d, tau, e)
                }
                assert images == set(enumerate_mnr(svertices, vd))


class TestUniqueLabeling:
    def test_worked_example(self):
        g = graph_of(worked_factorization())
        lm = phi_labeled(g)
        got, ranges = unique_labeling(lm.mnr)
        assert got == lm
        assert ranges.vertex_ranges[29] == (3, 12)
        assert ranges.vertex_ranges[23] == (14, 20)
        assert ranges.node_ranges[(25, 1)] == (2, 12)

    def test_single_edge_tree(self):
        m = MultiNodedRootedTree(RootedTree((9,), ((9, 0),)), (1, 4), ((9, 1),))
        lm, _ = unique_labeling(m)
        assert dict(lm.labels) == {
            (0, 1): 1, (9, 1): 2, (9, 2): 3, (9, 3): 4, (9, 4): 5,
        }

    def test_matches_phi_exhaustive(self):
        for d in range(2, 7):
            tau = standard_cycle(d)
            for e in genus0_types(d):
                for f in enumerate_factorizations(d, tau, e):
                    g = graph_of(f)
                    lm = phi_labeled(g)
                    got, _ = unique_labeling(lm.mnr)
                    assert got == lm

    def test_image_passes_predicate(self):
        for total in range(2, 8):
            for n in range(1, total):
                # vertex data (1, f_1, ..., f_n) summing to `total`
                def comps(s, parts):
                    if parts == 0:
                        if s == 0:
                            yield ()
                        return
                    for first in range(1, s - parts + 2):
                        for rest in comps(s - first, parts - 1):
                            yield (first,) + rest

                for fs in comps(total - 1, n):
                    vd = (1,) + fs
                    svertices = tuple(range(total + 1, total + 1 + n))
                    for m in enumerate_mnr(svertices, vd):
                        lm, _ = unique_labeling(m)
                        g = psi(lm)
                        assert is_factorization_graph(g)
                        assert phi_labeled(g).mnr == m

    @pytest.mark.parametrize("sign", ["negative", "mixed", "above-d"])
    def test_any_s_outside_root_and_d_round_trips(self, sign):
        # the root 0 sorts below every S-vertex, negative ones included: each
        # tree's unique labeling unfolds to a factorization graph that folds
        # back to it; n <= 3 S-vertices of 1 to 3 nodes, 1,425 trees per sign
        failures = 0
        for n in range(1, 4):
            negatives = {"negative": n, "mixed": (n + 1) // 2, "above-d": 0}[sign]
            svertices = tuple(range(-2 * negatives, 0, 2)) + tuple(range(50, 50 + n - negatives))
            for fs in itertools.product((1, 2, 3), repeat=n):
                for m in enumerate_mnr(svertices, (1,) + fs):
                    lm, _ = unique_labeling(m)
                    g = psi(lm)
                    failures += gate_failure(g) is not None or phi_labeled(g) != lm
        assert failures == 0

    def test_deep_chain_has_no_depth_limit(self):
        # d - 1 single-node vertices, each hanging from the previous one
        d = 5000
        sv = tuple(range(d + 1, 2 * d))
        parents = tuple(zip(sv, (0,) + sv[:-1]))
        m = MultiNodedRootedTree(RootedTree(sv, parents), (1,) * d, tuple((s, 1) for s in sv))
        lm, ranges = unique_labeling(m)
        assert unique_labeling(lm.mnr)[0] == lm
        assert (ranges.vertex_ranges, ranges.node_ranges) == label_spans(lm)
        assert ranges.vertex_ranges[sv[-1]] == (d, d)

    def test_rejects_multi_node_root(self):
        m = MultiNodedRootedTree(RootedTree((9,), ((9, 0),)), (2, 1), ((9, 1),))
        with pytest.raises(ValueError):
            unique_labeling(m)


class TestCheckLabelRanges:
    # A labeling is a fold image iff it equals the tree's unique labeling;
    # the ranges unique_labeling returns are the subtrees' label intervals.

    def test_worked_example_witness(self):
        lm = phi_labeled(graph_of(worked_factorization()))
        got, ranges = unique_labeling(lm.mnr)
        assert got == lm
        assert ranges.vertex_ranges[29] == (3, 12)
        vertex_spans, node_spans = label_spans(lm)
        assert ranges.node_ranges == node_spans
        assert ranges.vertex_ranges == vertex_spans

    def test_swapped_labels_fail(self):
        lm = phi_labeled(graph_of(worked_factorization()))
        swapped = {
            node: {5: 6, 6: 5}.get(x, x) for node, x in lm.labels
        }
        bad = LabeledMNR(lm.mnr, tuple(swapped.items()))
        got, ranges = unique_labeling(bad.mnr)
        assert got != bad
        assert ranges.node_ranges != label_spans(bad)[1]

    def test_minimal_case(self):
        m = MultiNodedRootedTree(RootedTree((9,), ((9, 0),)), (1, 1), ((9, 1),))
        lm = LabeledMNR(m, (((0, 1), 1), ((9, 1), 2)))
        got, ranges = unique_labeling(m)
        assert got == lm
        assert ranges.vertex_ranges == {0: (1, 2), 9: (2, 2)}

    def test_multi_node_root_fails(self):
        # unique_labeling has no answer here, and the unfolding is no tree
        m = MultiNodedRootedTree(RootedTree((5,), ((5, 0),)), (2, 1), ((5, 1),))
        lm = LabeledMNR(m, (((0, 1), 1), ((0, 2), 3), ((5, 1), 2)))
        with pytest.raises(ValueError, match="single-noded"):
            unique_labeling(m)
        assert characterization_failure(psi(lm)) == "not a tree"

    def test_agrees_with_fold_image_over_all_labelings(self):
        # A labeling is its tree's unique labeling iff it is a fold image:
        # its unfolding must pass the predicate AND fold back to the same
        # labeled tree.  (psi alone is weaker: a chain labeled (2,3,4,1)
        # unfolds to a genuine factorization graph that refolds to a
        # different tree.)
        import itertools

        for d, e in [(4, (2, 2, 2)), (4, (2, 3)), (5, (3, 3)), (5, (2, 2, 3))]:
            tau = standard_cycle(d)
            f = next(iter(enumerate_factorizations(d, tau, e)))
            m = phi_labeled(graph_of(f)).mnr
            nodes = m.nodes()
            unique, _ = unique_labeling(m)
            for values in itertools.permutations(range(1, d + 1)):
                lm = LabeledMNR(m, tuple(zip(nodes, values)))
                g = psi(lm)
                in_image = is_factorization_graph(g) and phi_labeled(g) == lm
                assert (lm == unique) == in_image

    def test_weaker_psi_predicate_is_not_equivalent(self):
        # the counterexample pinning the distinction above
        chain = MultiNodedRootedTree(
            RootedTree((5, 6, 7), ((5, 0), (6, 5), (7, 6))),
            (1, 1, 1, 1),
            ((5, 1), (6, 1), (7, 1)),
        )
        lm = LabeledMNR(
            chain, (((0, 1), 2), ((5, 1), 3), ((6, 1), 4), ((7, 1), 1))
        )
        assert is_factorization_graph(psi(lm))
        assert unique_labeling(chain)[0] != lm
        assert phi_labeled(psi(lm)) != lm


def random_codec_matrix(rng, d, e, negatives=0):
    """A uniform random codec matrix of type e, with S = {d+1, ..., d+r-1}.

    With `negatives`, that many S-vertices are -negatives, ..., -1 instead,
    and the rest start at d+1.
    """
    sv = tuple(range(-negatives, 0)) + tuple(range(d + 1, d + len(e) + 1 - negatives))
    vd = (1,) + tuple(ei - 1 for ei in e)
    alphabet = [(w, b) for w, f in zip((0,) + sv, vd) for b in range(1, f + 1)]
    cols = [rng.choice(alphabet) for _ in e[1:]] + [(0, 1)]
    return PruferMatrix(tuple(w for w, _ in cols), tuple(b for _, b in cols)), sv, vd


def multiplies_to_standard_cycle(d, sigmas):
    # the ordered product, right factor acting first, by a plain image loop
    images = list(range(d + 1))
    for sigma in sigmas:
        elems = sigma.elements
        moved = [images[elems[(i + 1) % len(elems)]] for i in range(len(elems))]
        for x, y in zip(elems, moved):
            images[x] = y
    return all(images[x] == x % d + 1 for x in range(1, d + 1))


def random_type(rng, d, factors):
    """A uniform random genus-0 type of d with the given number of factors."""
    cuts = sorted(rng.sample(range(1, d - 1), factors - 1))
    bounds = [0] + cuts + [d - 1]
    return tuple(b - a + 1 for a, b in zip(bounds, bounds[1:]))


def assert_chain_round_trip(rng, d, e):
    """Decode, label, unfold, read, rebuild, fold and encode a random matrix of type e."""
    h, sv, vd = random_codec_matrix(rng, d, e)
    lm, _ = unique_labeling(mnr_decode(h, sv, vd))
    g = psi(lm)
    assert_reads_back(g)
    f = factorization_of(g)
    assert tuple(s.length for s in f.sigmas) == e
    assert multiplies_to_standard_cycle(d, f.sigmas)
    g_back = graph_of(f)
    assert_reads_back(g_back)
    lm_back = phi_labeled(g_back)
    assert lm_back == lm
    assert mnr_encode(lm_back.mnr) == h


class TestLargeRoundTrip:
    # the whole chain far past enumeration range: decode, label, unfold,
    # read, rebuild, fold and encode must give back the same matrix
    @pytest.mark.parametrize("kind", ["transpositions", "mixed"])
    def test_chain_at_d_1000(self, kind):
        d = 1000
        rng = random.Random(f"{kind}-{d}")
        e = (2,) * (d - 1) if kind == "transpositions" else random_type(rng, d, 500)
        assert len(e) == (d - 1 if kind == "transpositions" else 500)
        assert_chain_round_trip(rng, d, e)

    # the north star's size: the whole chain at d = 10,000; the arrows trust
    # their graphs, and an independent product checks the reading
    def test_chain_at_d_10000(self):
        d = 10_000
        assert_chain_round_trip(random.Random(f"transpositions-{d}"), d, (2,) * (d - 1))

    # the tree half alone at d = 10,000: decode, label, unfold and encode
    # each take one pass, so a deep path costs no more than a random tree
    @pytest.mark.parametrize("kind", ["transpositions", "path", "mixed"])
    def test_tree_half_at_d_10000(self, kind):
        d = 10_000
        e = (2,) * (d - 1)
        if kind == "transpositions":
            h, sv, vd = random_codec_matrix(random.Random(f"{kind}-{d}"), d, e)
        elif kind == "path":  # d+1 under the root, each next S-vertex under the one before
            sv, vd = tuple(range(d + 1, 2 * d)), (1,) * d
            h = PruferMatrix(tuple(range(d + 2, 2 * d)) + (0,), (1,) * (d - 1))
        else:  # half of S below the root 0 and half above d, so nodes carry
            # attached vertices on both sides of their own vertex
            rng = random.Random(f"{kind}-{d}")
            e = random_type(rng, d, 3333)
            h, sv, vd = random_codec_matrix(rng, d, e, negatives=len(e) // 2)
        lm, ranges = unique_labeling(mnr_decode(h, sv, vd))
        assert mnr_encode(lm.mnr) == h
        g = psi(lm)
        assert g.is_tree()
        assert gate_failure(g) is None and phi_labeled(g) == lm
        assert (ranges.vertex_ranges, ranges.node_ranges) == label_spans(lm)


def full_product_matches(f):
    """The independent oracle: the ordered product of full permutations equals tau."""
    return product((s.images() for s in f.sigmas), f.tau.degree) == f.tau.images()


def perturbations(rng, f):
    """f with two adjacent factors swapped, with one factor inverted, and with another tau.

    Each keeps the factor lengths matching the type and the factors inside
    supp(tau), so only the product can tell it from a factorization.
    """
    sigmas, tau = f.sigmas, f.tau
    if len(sigmas) > 1:
        i = rng.randrange(len(sigmas) - 1)
        swapped = sigmas[:i] + (sigmas[i + 1], sigmas[i]) + sigmas[i + 2:]
        yield Factorization(FactorizationType(f.d, tuple(s.length for s in swapped)), tau, swapped)
    i = max(range(len(sigmas)), key=lambda j: sigmas[j].length)
    yield Factorization(f.ftype, tau, sigmas[:i] + (sigmas[i].inverse(),) + sigmas[i + 1:])
    if tau.length > 2:  # a 2-cycle is the only cycle on its support
        elems = list(tau.elements)
        while Cycle(tau.degree, tuple(elems)) == tau:
            rng.shuffle(elems)
        yield Factorization(f.ftype, Cycle(tau.degree, tuple(elems)), sigmas)


class TestValidateOracle:
    # validate applies each factor on its own support; the full-permutation
    # product must give the same answer on factorizations and near misses
    @pytest.mark.parametrize("d", [6, 50, 300])
    def test_random_codec_factorizations(self, d):
        rng = random.Random(f"validate-{d}")
        types = [(2,) * (d - 1), (d,)] + [random_type(rng, d, rng.randint(2, d - 2)) for _ in range(4)]
        rejected = 0
        for e in types:
            h, sv, vd = random_codec_matrix(rng, d, e)
            f = factorization_of(psi(unique_labeling(mnr_decode(h, sv, vd))[0]))
            assert validate(f) and full_product_matches(f)
            for g in perturbations(rng, f):
                assert validate(g) == full_product_matches(g)
                rejected += not validate(g)
        assert rejected >= len(types)

    def test_decompose_at_last_sub_factorizations(self):
        # sub-circle taus live in the ambient degree d, fixing every point off them
        rng = random.Random("validate-sub-circles")
        checked = rejected = 0
        for d in range(2, 6):
            tau = standard_cycle(d)
            for e in genus0_types(d):
                for f in enumerate_factorizations(d, tau, e):
                    dec = decompose_at_last(graph_of(f))
                    for sub in dec.subtrees[: dec.k]:
                        assert gate_failure(sub) is None
                        sub_f = factorization_of(sub)
                        assert sub_f.tau.degree == d
                        for g in (sub_f, *perturbations(rng, sub_f)):
                            assert validate(g) == full_product_matches(g)
                            checked += 1
                            rejected += not validate(g)
        assert checked > rejected > 0
