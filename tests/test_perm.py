"""Image-tuple, cycle, and circle-reading arithmetic."""

import itertools
import random

import pytest

from cyclefactor.factorization import HurwitzDatum
from cyclefactor.perm import (
    Cycle,
    NotMaximal,
    check_cycle,
    clockwise_reading,
    compose,
    cycles_of,
    index,
    is_clockwise_on,
    is_counterclockwise_on,
    product,
    split_circle_product,
    standard_cycle,
)


def perm(d, *cycles):
    """The image tuple of disjoint cycles, written out point by point."""
    images = list(range(1, d + 1))
    for c in cycles:
        for i, x in enumerate(c):
            images[x - 1] = c[(i + 1) % len(c)]
    return tuple(images)


def identity(d):
    return tuple(range(1, d + 1))


class TestCompose:
    def test_identity_case(self):
        p = perm(3, (1, 2, 3))
        assert p == (2, 3, 1)
        assert compose(p, identity(3)) == p
        assert compose(identity(3), p) == p

    def test_worked_product(self):
        # (1 2 ... 20)(12 11 6 5 2) with the right factor acting first
        mu = standard_cycle(20).images()
        eta = perm(20, (12, 11, 6, 5, 2))
        got = compose(mu, eta)
        expected = perm(20, (3, 4, 5), (7, 8, 9, 10, 11), tuple(range(13, 21)) + (1, 2))
        assert got == expected

    def test_involution(self):
        t = perm(2, (1, 2))
        assert compose(t, t) == identity(2)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="^degree mismatch: 2 != 3$"):
            compose(identity(2), identity(3))

    def test_inverse_exhaustive(self):
        # every cycle at d <= 6 against its reversed cycle
        for d in range(1, 7):
            for k in range(1, d + 1):
                for support in itertools.combinations(range(1, d + 1), k):
                    for rest in itertools.permutations(support[1:]):
                        c = Cycle(d, (support[0],) + rest)
                        assert compose(c.images(), c.inverse().images()) == identity(d)
                        assert compose(c.inverse().images(), c.images()) == identity(d)

    def test_associative(self):
        # exhaustive at d <= 3, stride-sampled triples at d = 6
        for d in range(1, 4):
            perms = list(itertools.permutations(range(1, d + 1)))
            for p, q, r in itertools.product(perms, repeat=3):
                assert compose(compose(p, q), r) == compose(p, compose(q, r))
        perms6 = list(itertools.islice(itertools.permutations(range(1, 7)), 0, 720, 37))
        for p, q, r in itertools.product(perms6, repeat=3):
            assert compose(compose(p, q), r) == compose(p, compose(q, r))

    def test_empty_product_is_identity(self):
        assert product((), 4) == identity(4)


class TestCycleImages:
    def test_fixed_points_kept(self):
        assert Cycle(5, (4, 2)).images() == (1, 4, 3, 2, 5)
        assert Cycle(3, (2,)).images() == identity(3)


class TestCycleDecomposition:
    def test_identity(self):
        assert cycles_of(identity(3)) == [(1,), (2,), (3,)]

    def test_worked_product_has_five_cycles(self):
        mu = standard_cycle(20).images()
        eta = perm(20, (12, 11, 6, 5, 2))
        cycles = cycles_of(compose(mu, eta))
        assert len(cycles) == 5
        assert (6,) in cycles
        assert (12,) in cycles

    def test_fixed_point_listed(self):
        assert cycles_of(perm(5, (1, 3), (2, 4))) == [(1, 3), (2, 4), (5,)]

    def test_partition_and_product_exhaustive(self):
        for d in range(1, 7):
            for images in itertools.permutations(range(1, d + 1)):
                cycles = cycles_of(images)
                assert all(Cycle(d, c).elements == c for c in cycles)  # canonical
                assert sorted(x for c in cycles for x in c) == list(identity(d))
                assert product((Cycle(d, c).images() for c in cycles), d) == images

    def test_index_counts_missing_cycles(self):
        for d in range(1, 6):
            for images in itertools.permutations(range(1, d + 1)):
                cycles = cycles_of(images)
                t = tuple(sorted(map(len, cycles), reverse=True))
                assert index(t) == d - len(cycles)


class TestCycleType:
    def test_single_cycle(self):
        assert index((5,)) == 4

    def test_transposition_type(self):
        assert index((2, 1, 1)) == 1

    def test_pure_cycle_indices(self):
        for e in (2, 3, 2, 3, 3, 4, 4, 2, 5):
            lengths = sorted(map(len, cycles_of(perm(20, tuple(range(1, e + 1))))), reverse=True)
            assert index(tuple(lengths)) == e - 1

    def test_rejects_increasing(self):
        # a cycle type is its partition, which the datum proves weakly decreasing
        with pytest.raises(ValueError, match="^partition must be weakly decreasing$"):
            HurwitzDatum(((2, 1), (1, 2), (3,)))


class TestCycleCanonicalForm:
    def test_rotation_to_minimum(self):
        assert Cycle(5, (3, 1, 4)).elements == (1, 4, 3)
        assert Cycle(5, (3, 1, 4)) == Cycle(5, (1, 4, 3))

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(ValueError, match="^a cycle needs at least one element$"):
            check_cycle(3, ())
        with pytest.raises(ValueError, match=r"^repeated element in cycle \(4, 4\)$"):
            check_cycle(3, (4, 4))
        with pytest.raises(ValueError, match=r"^cycle \(4,\) leaves \[1, 3\]$"):
            check_cycle(3, (4,))
        assert check_cycle(3, (3, 1)) == Cycle(3, (1, 3))

    def test_one_cycle_support(self):
        assert Cycle(4, (3,)).support == frozenset({3})

    def test_text_form(self):
        assert str(Cycle(20, (1, 19))) == "(1 19)"


class TestCounterclockwise:
    def test_worked_example(self):
        circle = standard_cycle(20)
        assert is_counterclockwise_on(Cycle(20, (12, 11, 6, 5, 2)), circle)

    def test_reversal_is_clockwise(self):
        circle = standard_cycle(20)
        eta = Cycle(20, (2, 5, 6, 11, 12))
        assert not is_counterclockwise_on(eta, circle)
        assert is_clockwise_on(eta, circle)

    def test_short_cycles_read_both_ways(self):
        circle = standard_cycle(9)
        assert is_counterclockwise_on(Cycle(9, (7,)), circle)
        assert is_counterclockwise_on(Cycle(9, (2, 6)), circle)
        assert is_clockwise_on(Cycle(9, (2, 6)), circle)

    def test_support_violation(self):
        circle = Cycle(9, (1, 2, 3))
        with pytest.raises(ValueError):
            is_counterclockwise_on(Cycle(9, (4,)), circle)


class TestSplitCircleProduct:
    def test_worked_example(self):
        pieces = split_circle_product(standard_cycle(20), Cycle(20, (12, 11, 6, 5, 2)))
        assert [c.elements for c in pieces] == [
            (3, 4, 5),
            (6,),
            (7, 8, 9, 10, 11),
            (12,),
            (1, 2) + tuple(range(13, 21)),
        ]

    def test_two_point_cut(self):
        pieces = split_circle_product(Cycle(3, (1, 2, 3)), Cycle(3, (3, 1)))
        assert [c.elements for c in pieces] == [(2, 3), (1,)]
        # oracle: the pieces are the cycles of the product
        prod = compose(perm(3, (1, 2, 3)), perm(3, (3, 1)))
        assert set(pieces) == {Cycle(3, c) for c in cycles_of(prod)}

    def test_clockwise_cut_is_not_maximal(self):
        res = split_circle_product(Cycle(3, (1, 2, 3)), Cycle(3, (1, 2, 3)))
        assert res == NotMaximal(cycle_count=1)

    def test_single_point(self):
        mu = Cycle(5, (2, 4, 5))
        assert split_circle_product(mu, Cycle(5, (4,))) == [mu]

    def test_support_violation(self):
        with pytest.raises(ValueError):
            split_circle_product(Cycle(5, (1, 2)), Cycle(5, (3,)))

    def test_three_way_equivalence_small(self):
        # full d' <= 7 sweep lives in the acceptance suite
        for dp in range(1, 6):
            base = tuple(range(1, dp + 1))
            for rest in itertools.permutations(base[1:]):
                mu = Cycle(dp, (1,) + rest)
                for psize in range(1, dp + 1):
                    for support in itertools.combinations(base, psize):
                        for arr in itertools.permutations(support[1:]):
                            eta = Cycle(dp, (support[0],) + arr)
                            res = split_circle_product(mu, eta)
                            maximal = not isinstance(res, NotMaximal)
                            assert maximal == is_counterclockwise_on(eta, mu)
                            prod = compose(mu.images(), eta.images())
                            in_supp = [Cycle(dp, c) for c in cycles_of(prod, mu.elements)]
                            assert maximal == (len(in_supp) == psize)
                            if maximal:
                                assert set(res) == set(in_supp)


class TestClockwiseReading:
    def test_matches_sort_by_position(self):
        # oracle: sort the values by their index on the circle
        rng = random.Random("clockwise-reading")
        for d in range(1, 9):
            for _ in range(40):
                circle = Cycle(d, tuple(rng.sample(range(1, d + 1), rng.randint(1, d))))
                values = rng.sample(circle.elements, rng.randint(1, circle.length))
                expected = tuple(sorted(values, key=circle.elements.index))
                assert clockwise_reading(circle, values) == Cycle(d, expected)
