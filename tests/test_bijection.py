"""Folding graphs to labeled trees and back; the unique labeling."""

import pytest

from cyclefactor.bijection import (
    check_label_ranges,
    phi,
    phi_labeled,
    psi,
    standardize_graph,
    unique_labeling,
)
from cyclefactor.factorization import (
    Factorization,
    FactorizationType,
    enumerate_factorizations,
)
from cyclefactor.graph import characterization_failure, graph_of, is_factorization_graph
from cyclefactor.perm import Cycle, standard_cycle
from cyclefactor.trees import (
    LabeledMNR,
    MultiNodedRootedTree,
    RootedTree,
    enumerate_mnr,
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

    def test_rejects_non_factorization_graph(self):
        from cyclefactor.graph import FactorizationGraph, SVertexSet

        g = FactorizationGraph(
            4,
            SVertexSet((5, 6)),
            frozenset({(5, 1), (5, 2), (6, 3), (6, 4)}),
            standard_cycle(4),
        )
        with pytest.raises(ValueError, match="not a factorization graph"):
            phi_labeled(g)

    def test_nonstandard_tau_is_relabeled(self):
        tau = Cycle(4, (1, 3, 2, 4))
        f = next(iter(enumerate_factorizations(4, tau, (2, 2, 2))))
        g = graph_of(f)
        lm = phi_labeled(g)
        std, relabel = standardize_graph(g)
        assert lm == phi_labeled(std)
        assert relabel[1] == 1

    def test_psi_inverts_exhaustive(self):
        for d in range(2, 7):
            tau = standard_cycle(d)
            for e in genus0_types(d):
                for f in enumerate_factorizations(d, tau, e):
                    g = graph_of(f)
                    assert psi(phi_labeled(g)) == g


class TestPhi:
    def test_worked_tree(self):
        m = phi(graph_of(worked_factorization()))
        assert m.vertex_data == (1, 1, 2, 1, 2, 2, 3, 3, 1, 4)
        assert mnr_encode(m).bottom == (1, 3, 2, 1, 1, 1, 3, 1, 1)

    def test_star_tree(self):
        m = phi(star_graph(5))
        assert m.vertex_data == (1, 4)
        assert m.beta_of(6) == 1

    def test_image_is_whole_family(self):
        for d in range(2, 6):
            tau = standard_cycle(d)
            for e in genus0_types(d):
                vd = (1,) + tuple(ei - 1 for ei in e)
                svertices = tuple(range(d + 1, d + len(e) + 1))
                images = {
                    phi(graph_of(f)) for f in enumerate_factorizations(d, tau, e)
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
                        assert phi(g) == m

    def test_deep_chain_has_no_depth_limit(self):
        # d - 1 single-node vertices, each hanging from the previous one
        d = 5000
        sv = tuple(range(d + 1, 2 * d))
        parents = tuple(zip(sv, (0,) + sv[:-1]))
        m = MultiNodedRootedTree(RootedTree(sv, parents), (1,) * d, tuple((s, 1) for s in sv))
        lm, ranges = unique_labeling(m)
        ok, witness = check_label_ranges(lm)
        assert ok and witness.vertex_ranges == ranges.vertex_ranges
        assert witness.node_ranges == ranges.node_ranges
        assert ranges.vertex_ranges[sv[-1]] == (d, d)

    def test_rejects_multi_node_root(self):
        m = MultiNodedRootedTree(RootedTree((9,), ((9, 0),)), (2, 1), ((9, 1),))
        with pytest.raises(ValueError):
            unique_labeling(m)


class TestCheckLabelRanges:
    def test_worked_example_witness(self):
        lm = phi_labeled(graph_of(worked_factorization()))
        ok, ranges = check_label_ranges(lm)
        assert ok
        assert ranges.vertex_ranges[29] == (3, 12)
        _, computed = unique_labeling(lm.mnr)
        assert ranges.node_ranges == computed.node_ranges
        assert ranges.vertex_ranges == computed.vertex_ranges

    def test_swapped_labels_fail(self):
        lm = phi_labeled(graph_of(worked_factorization()))
        swapped = {
            node: {5: 6, 6: 5}.get(x, x) for node, x in lm.labels
        }
        bad = LabeledMNR(lm.mnr, tuple(swapped.items()))
        ok, witness = check_label_ranges(bad)
        assert not ok and witness is None

    def test_minimal_case(self):
        m = MultiNodedRootedTree(RootedTree((9,), ((9, 0),)), (1, 1), ((9, 1),))
        lm = LabeledMNR(m, (((0, 1), 1), ((9, 1), 2)))
        ok, _ = check_label_ranges(lm)
        assert ok

    def test_multi_node_root_fails(self):
        # unique_labeling has no answer here, and the unfolding is no tree
        m = MultiNodedRootedTree(RootedTree((5,), ((5, 0),)), (2, 1), ((5, 1),))
        lm = LabeledMNR(m, (((0, 1), 1), ((0, 2), 3), ((5, 1), 2)))
        assert check_label_ranges(lm) == (False, None)
        assert characterization_failure(psi(lm)) == "not a tree"

    def test_agrees_with_fold_image_over_all_labelings(self):
        # The witness exists iff the labeling is a fold image: its unfolding
        # must pass the predicate AND fold back to the same labeled tree.
        # (psi alone is weaker: a chain labeled (2,3,4,1) unfolds to a genuine
        # factorization graph that refolds to a different tree.)
        import itertools

        for d, e in [(4, (2, 2, 2)), (4, (2, 3)), (5, (3, 3)), (5, (2, 2, 3))]:
            tau = standard_cycle(d)
            f = next(iter(enumerate_factorizations(d, tau, e)))
            m = phi(graph_of(f))
            nodes = m.nodes()
            for values in itertools.permutations(range(1, d + 1)):
                lm = LabeledMNR(m, tuple(zip(nodes, values)))
                ok, _ = check_label_ranges(lm)
                g = psi(lm)
                in_image = is_factorization_graph(g) and phi_labeled(g) == lm
                assert ok == in_image

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
        ok, _ = check_label_ranges(lm)
        assert not ok
        assert phi_labeled(psi(lm)) != lm
