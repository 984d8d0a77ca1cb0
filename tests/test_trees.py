"""Rooted trees, multi-noded rooted trees, and the codec matrices."""

import itertools
import random

import pytest

from cyclefactor.trees import (
    LabeledMNR,
    MultiNodedRootedTree,
    PruferMatrix,
    RootedTree,
    TrivialTreeError,
    check_mnr,
    check_tree,
    enumerate_mnr,
    labeled_mnr_from_json,
    labeled_mnr_to_json,
    matrix_from_json,
    matrix_to_json,
    mnr_cardinality,
    mnr_decode,
    mnr_encode,
    mnr_from_json,
    mnr_to_dot,
    mnr_to_json,
    prufer_decode,
    prufer_encode,
    tree_from_json,
    tree_to_json,
)

# the running example's tree shape over S = {1, ..., 9}: children of the root
# are 3 and 5, with 8, 2 under 3; 6 under 2; 9 under 5; 4, 1, 7 under 9
EXAMPLE_PARENTS = ((3, 0), (5, 0), (8, 3), (2, 3), (6, 2), (9, 5), (4, 9), (1, 9), (7, 9))
EXAMPLE_VD = (1, 1, 2, 1, 2, 2, 3, 3, 1, 4)
EXAMPLE_BETA = ((3, 1), (5, 1), (8, 1), (2, 1), (6, 2), (9, 1), (4, 1), (1, 3), (7, 3))


def example_tree():
    return RootedTree(tuple(range(1, 10)), EXAMPLE_PARENTS)


def example_mnr():
    return MultiNodedRootedTree(example_tree(), EXAMPLE_VD, EXAMPLE_BETA)


class TestRootedTree:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            tree_from_json({"S": [1, 2], "edges": [[2, 1], [1, 2]]})

    def test_cycle_error_names_a_vertex_it_cuts_off(self):
        # 2 and 3 point at each other and 4 hangs below them; 1 is fine
        with pytest.raises(ValueError, match="vertex 2 is not reached from the root"):
            check_tree(RootedTree((1, 2, 3, 4), ((1, 0), (2, 3), (3, 2), (4, 3))))

    def test_rejects_incomplete_parent_map(self):
        with pytest.raises(ValueError):
            check_tree(RootedTree((1, 2), ((1, 0),)))
        with pytest.raises(ValueError):
            tree_from_json({"S": [1, 2], "edges": [[0, 1]]})

    def test_children(self):
        t = example_tree()
        assert t.children_of()[0] == [3, 5]
        assert t.children_of()[9] == [1, 4, 7]


class TestClassicPrufer:
    def test_paper_style_sequence(self):
        assert prufer_encode(example_tree()) == (3, 9, 2, 9, 3, 0, 9, 5, 0)

    def test_single_edge(self):
        t = RootedTree((7,), ((7, 0),))
        assert prufer_encode(t) == (0,)
        assert prufer_decode((0,), (7,)) == t

    def test_root_star(self):
        t = RootedTree((4, 5, 6), ((4, 0), (5, 0), (6, 0)))
        assert prufer_encode(t) == (0, 0, 0)

    def test_trivial_tree_rejected(self):
        with pytest.raises(TrivialTreeError):
            prufer_encode(RootedTree((), ()))

    def test_bijection_exhaustive(self):
        for n in range(1, 6):
            svertices = tuple(range(21, 21 + n))
            alphabet = svertices + (0,)
            trees = set()
            for prefix in itertools.product(alphabet, repeat=n - 1):
                seq = prefix + (0,)
                t = prufer_decode(seq, svertices)
                assert prufer_encode(t) == seq
                trees.add(t)
            assert len(trees) == (n + 1) ** (n - 1)

    def test_random_round_trip(self):
        rng = random.Random(7)
        for n in range(2, 13):
            svertices = tuple(sorted(rng.sample(range(50, 200), n)))
            for _ in range(25):
                seq = tuple(rng.choice(svertices + (0,)) for _ in range(n - 1)) + (0,)
                assert prufer_encode(prufer_decode(seq, svertices)) == seq

    def test_malformed_sequences(self):
        with pytest.raises(ValueError):
            prufer_decode((5,), (5, 7))  # wrong length
        with pytest.raises(ValueError):
            prufer_decode((5, 5), (5, 7))  # does not end in 0
        with pytest.raises(ValueError):
            prufer_decode((9, 0), (5, 7))  # entry outside S


def reference_deletion_steps(pmap):
    """(leaf, parent) pairs by a plain scan: delete the largest leaf, n times."""
    child_count = {v: 0 for v in pmap}
    for p in pmap.values():
        child_count[p] = child_count.get(p, 0) + 1
    alive = set(pmap)
    steps = []
    while alive:
        v = max(x for x in alive if not child_count[x])
        alive.remove(v)
        steps.append((v, pmap[v]))
        child_count[pmap[v]] -= 1
    return steps


def reference_decode(seq, svertices):
    """(leaf, parent) pairs by a plain scan: the largest vertex not yet deleted
    and absent from the rest of the sequence hangs from the next entry."""
    alive = set(svertices)
    steps = []
    for i, w in enumerate(seq):
        rest = set(seq[i:])
        v = max(x for x in alive if x not in rest)
        alive.remove(v)
        steps.append((v, w))
    return steps


def random_parent_maps(rng):
    """Seeded random trees up to 300 vertices, with a star and a path of each size."""
    for n in (1, 2, 3, 5, 8, 13, 40, 100, 300):
        svertices = sorted(rng.sample(range(1, 4 * n + 1), n))
        yield {s: 0 for s in svertices}
        yield dict(zip(svertices, [0] + svertices[:-1]))
        for _ in range(4):
            order = rng.sample(svertices, n)
            yield {v: rng.choice([0] + order[:i]) for i, v in enumerate(order)}


class TestHeapCodecAgainstScan:
    # encode then decode would pass if both directions changed order
    # together, so each is compared with the plain largest-leaf scan
    def test_encode_matches_scan(self):
        rng = random.Random("encode-scan")
        for pmap in random_parent_maps(rng):
            tree = RootedTree(tuple(sorted(pmap)), tuple(pmap.items()))
            steps = reference_deletion_steps(pmap)
            assert prufer_encode(tree) == tuple(w for _, w in steps)
            beta = {c: rng.randint(1, 3) for c in pmap}
            vd = (3,) * (len(pmap) + 1)
            h = mnr_encode(MultiNodedRootedTree(tree, vd, tuple(beta.items())))
            assert h.bottom == tuple(beta[v] for v, _ in steps)

    def test_decode_matches_scan(self):
        rng = random.Random("decode-scan")
        for pmap in random_parent_maps(rng):
            svertices = tuple(sorted(pmap))
            alphabet = (0,) + svertices
            seqs = [tuple(pmap[v] for v, _ in reference_deletion_steps(pmap))]
            seqs.append(tuple(rng.choice(alphabet) for _ in svertices[1:]) + (0,))
            for seq in seqs:
                steps = reference_decode(seq, svertices)
                assert prufer_decode(seq, svertices).parents == tuple(sorted(steps))


class TestMnrCodec:
    def test_example_matrix(self):
        h = mnr_encode(example_mnr())
        assert h.top == (3, 9, 2, 9, 3, 0, 9, 5, 0)
        assert h.bottom == (1, 3, 2, 1, 1, 1, 3, 1, 1)

    def test_all_ones_degenerates_to_classic(self):
        t = example_tree()
        m = MultiNodedRootedTree(t, (1,) * 10, tuple((c, 1) for c in t.svertices))
        h = mnr_encode(m)
        assert h.top == prufer_encode(t)
        assert set(h.bottom) == {1}

    def test_decode_inverts_encode(self):
        m = example_mnr()
        assert mnr_decode(mnr_encode(m), m.tree.svertices, m.vertex_data) == m

    def test_bound_violation(self):
        h = PruferMatrix((3, 0), (2, 1))  # vertex 3 has a single node
        with pytest.raises(ValueError):
            mnr_decode(h, (3, 5), (1, 1, 1))

    @pytest.mark.parametrize("bottom", [(1,), (1, 1, 1)], ids=["short", "long"])
    def test_bottom_row_length_must_match_top(self, bottom):
        # a hand-built matrix skips matrix_from_json, so the decoder refuses it
        with pytest.raises(ValueError, match="^matrix rows must be nonempty and of equal length$"):
            mnr_decode(PruferMatrix((6, 0), bottom), (5, 6), (1, 1, 1))

    def test_beta_validation_at_construction(self):
        # the constructor trusts its input; check_mnr proves a hand-built tree
        m = MultiNodedRootedTree(RootedTree((4, 5), ((4, 0), (5, 4))), (1, 1, 1), ((4, 1), (5, 2)))
        with pytest.raises(ValueError):
            check_mnr(m)

    def test_decode_total_and_injective_on_small_family(self):
        svertices = (11, 12, 13)
        vd = (1, 2, 1, 2)
        seen = {}
        alphabet = [(w, b) for w, f in zip((0, 11, 12, 13), vd) for b in range(1, f + 1)]
        count = 0
        for prefix in itertools.product(alphabet, repeat=2):
            for last_b in range(1, vd[0] + 1):
                cols = prefix + ((0, last_b),)
                h = PruferMatrix(
                    tuple(w for w, _ in cols), tuple(b for _, b in cols)
                )
                m = mnr_decode(h, svertices, vd)
                assert mnr_encode(m) == h
                seen[m] = h
                count += 1
        assert count == len(seen) == mnr_cardinality(vd)


class TestEnumerationAndCardinality:
    def test_minimal_family(self):
        assert mnr_cardinality((1, 1, 1)) == 3
        assert len(list(enumerate_mnr((8, 9), (1, 1, 1)))) == 3

    def test_mixed_family(self):
        assert mnr_cardinality((1, 1, 2)) == 4
        items = list(enumerate_mnr((8, 9), (1, 1, 2)))
        assert len(items) == len(set(items)) == 4

    def test_single_svertex(self):
        assert mnr_cardinality((3, 2)) == 3
        items = list(enumerate_mnr((5,), (3, 2)))
        assert [m.beta_of(5) for m in items] == [1, 2, 3]

    @pytest.mark.parametrize("vd", [(0, 1), (1, 0), (-1, 2)])
    def test_nonpositive_node_counts_rejected(self, vd):
        with pytest.raises(ValueError, match="positive"):
            mnr_cardinality(vd)
        with pytest.raises(ValueError, match="positive"):
            list(enumerate_mnr((5,), vd))

    def test_factorization_shape(self):
        e = (2, 3, 2, 3, 3, 4, 4, 2, 5)
        vd = (1,) + tuple(x - 1 for x in e)
        assert mnr_cardinality(vd) == 20**8

    def test_all_ones_matches_tree_count(self):
        for n in range(1, 5):
            vd = (1,) * (n + 1)
            assert mnr_cardinality(vd) == (n + 1) ** (n - 1)
            assert len(list(enumerate_mnr(tuple(range(31, 31 + n)), vd))) == (n + 1) ** (n - 1)

    def test_stream_matches_formula_up_to_seven_nodes(self):
        def compositions(total):
            if total == 0:
                yield ()
                return
            for first in range(1, total + 1):
                for rest in compositions(total - first):
                    yield (first,) + rest

        for total in range(2, 8):
            for vd in compositions(total):
                if len(vd) < 2:
                    continue
                svertices = tuple(range(total + 1, total + len(vd)))
                items = list(enumerate_mnr(svertices, vd))
                assert len(items) == len(set(items)) == mnr_cardinality(vd)


class TestAllOnesCorrespondence:
    def test_order_preserving_with_classic_codec(self):
        # with every node count 1, the stream runs in step with the classic
        # sequences in lexicographic order
        for n in range(1, 5):
            svertices = tuple(range(41, 41 + n))
            vd = (1,) * (n + 1)
            sequences = [
                prefix + (0,)
                for prefix in itertools.product((0,) + svertices, repeat=n - 1)
            ]
            stream = list(enumerate_mnr(svertices, vd))
            assert len(stream) == len(sequences)
            for m, seq in zip(stream, sequences):
                assert m.tree == prufer_decode(seq, svertices)
                assert all(b == 1 for _, b in m.beta)


class TestSerialization:
    def test_mnr_json_round_trip(self):
        m = example_mnr()
        assert mnr_from_json(mnr_to_json(m)) == m

    def test_labeled_json_round_trip(self):
        m = MultiNodedRootedTree(
            RootedTree((4,), ((4, 0),)), (1, 2), ((4, 1),)
        )
        lm = LabeledMNR(m, (((0, 1), 1), ((4, 1), 2), ((4, 2), 3)))
        assert labeled_mnr_from_json(labeled_mnr_to_json(lm)) == lm

    def test_matrix_json_round_trip(self):
        m = example_mnr()
        h = mnr_encode(m)
        data = matrix_to_json(h, m.tree.svertices, m.vertex_data)
        h2, svertices, vd = matrix_from_json(data)
        assert (h2, svertices, vd) == (h, m.tree.svertices, m.vertex_data)

    def test_tree_json_round_trip(self):
        t = example_tree()
        assert tree_from_json(tree_to_json(t)) == t

    def test_dot_ported_boxes(self):
        dot = mnr_to_dot(example_mnr())
        assert dot.count("shape=record") == 1  # one global node default
        assert dot.count("label=") == 10
        assert dot.count(" -- ") == 9
        assert ":p1 -- s9;" in dot
