"""Factorization enumeration, validation, and the exact count formulas."""

import itertools
import random
from fractions import Fraction

import pytest

from cyclefactor.factorization import (
    CapExceededError,
    Factorization,
    HurwitzDatum,
    count_by_cycle_index,
    count_factorizations,
    enumerate_factorizations,
    factorization_from_json,
    factorization_to_json,
    formula_hurwitz_4point,
    formula_hurwitz_simple,
    genus,
    hurwitz_count_bruteforce,
    pure_cycle_datum,
    validate,
)
from cyclefactor.perm import Cycle, positions, product, pure_cycle_type, standard_cycle
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


def factor_elements(d, tau, e, stats=None):
    """The element tuples of every ``enumerate_factorizations`` record, in order."""
    return [tuple(s.elements for s in f.sigmas) for f in enumerate_factorizations(d, tau, e, stats)]


def by_position(tau):
    """Sort key of a stream: each factor read as positions round tau, from its minimum."""
    pos = {x: i for i, x in enumerate(tau.elements, 1)}
    return lambda fs: tuple(Cycle(tau.degree, tuple(pos[x] for x in c)).elements for c in fs)


# (nodes, candidates, dead ends) of the genus-0 walker on (1 2 ... 7), per type,
# and its totals over the 64 genus-0 types at d = 8
WALKER_STATS_D7 = {
    (2, 2, 2, 2, 2, 2): (9185, 25991, 0),
    (2, 2, 2, 2, 3): (1639, 4382, 343),
    (2, 2, 2, 3, 2): (1639, 4382, 343),
    (2, 2, 2, 4): (169, 511, 0),
    (2, 2, 3, 2, 2): (1296, 3696, 0),
    (2, 2, 3, 3): (120, 462, 0),
    (2, 2, 4, 2): (169, 511, 0),
    (2, 2, 5): (15, 63, 0),
    (2, 3, 2, 2, 2): (1296, 3696, 0),
    (2, 3, 2, 3): (218, 609, 49),
    (2, 3, 3, 2): (218, 609, 49),
    (2, 3, 4): (15, 63, 0),
    (2, 4, 2, 2): (169, 511, 0),
    (2, 4, 3): (15, 63, 0),
    (2, 5, 2): (15, 63, 0),
    (2, 6): (1, 7, 0),
    (3, 2, 2, 2, 2): (1310, 3710, 0),
    (3, 2, 2, 3): (232, 623, 49),
    (3, 2, 3, 2): (232, 623, 49),
    (3, 2, 4): (22, 70, 0),
    (3, 3, 2, 2): (183, 525, 0),
    (3, 3, 3): (15, 63, 0),
    (3, 4, 2): (22, 70, 0),
    (3, 5): (1, 7, 0),
    (4, 2, 2, 2): (183, 525, 0),
    (4, 2, 3): (29, 84, 7),
    (4, 3, 2): (29, 84, 7),
    (4, 4): (1, 7, 0),
    (5, 2, 2): (22, 70, 0),
    (5, 3): (1, 7, 0),
    (6, 2): (1, 7, 0),
    (7,): (0, 0, 0),
}
WALKER_TOTALS_D8 = (318669, 872420, 22374)


class TestFactorizationType:
    """A type (d; e_1, ..., e_{r-1}) is checked, and its genus read, by ``genus``."""

    def test_genus(self):
        assert genus(4, (2, 2, 2)) == 0
        assert genus(3, (3, 3)) == 1

    def test_rejects_half_integer_genus(self):
        with pytest.raises(ValueError):
            genus(3, (2, 2, 2))

    def test_rejects_short_factors(self):
        with pytest.raises(ValueError):
            genus(3, (1, 3))


class TestValidate:
    def test_worked_example(self):
        assert validate(worked_factorization())

    def test_single_factor(self):
        tau = standard_cycle(4)
        f = Factorization(tau, (tau,))
        assert validate(f)

    def test_swap_breaks_product(self):
        f = worked_factorization()
        # (14 15 19) and (1 19) share 19, so they do not commute
        sigmas = (f.sigmas[0], f.sigmas[2], f.sigmas[1]) + f.sigmas[3:]
        swapped = Factorization(f.tau, sigmas)
        # oracle: direct product evaluation says the swap changes the product
        assert product((s.images() for s in sigmas), 20) != f.tau.images()
        assert not validate(swapped)

    @pytest.mark.parametrize(
        "f",
        [
            Factorization(standard_cycle(3), (Cycle(3, (2,)), standard_cycle(3))),
            Factorization(standard_cycle(1), ()),
        ],
        ids=["1-cycle-factor", "no-factors"],
    )
    def test_refuses_short_or_missing_factors(self, f):
        # each product is tau, but a factor must move at least two points
        assert product((s.images() for s in f.sigmas), f.tau.degree) == f.tau.images()
        assert not validate(f)


class TestEnumeration:
    @pytest.mark.parametrize("tau", [Cycle(4, (1, 2, 3)), Cycle(3, (1, 2))], ids=["degree", "length"])
    def test_tau_must_be_a_full_cycle(self, tau):
        with pytest.raises(ValueError, match=r"^tau must be a 3-cycle of degree 3$"):
            enumerate_factorizations(3, tau, (2, 2))

    def test_d3_pairs_frozen(self):
        # oracle: exhaustive search over all 3x3 transposition pairs
        got = [
            tuple(s.elements for s in f.sigmas)
            for f in enumerate_factorizations(3, standard_cycle(3), (2, 2))
        ]
        assert got == [
            ((1, 2), (2, 3)),
            ((1, 3), (1, 2)),
            ((2, 3), (1, 3)),
        ]

    def test_oracle_pair_enumeration(self):
        tau = standard_cycle(3).images()
        transpositions = [(1, 2), (1, 3), (2, 3)]
        oracle = []
        for a in transpositions:
            for b in transpositions:
                pa = {1: 1, 2: 2, 3: 3}
                pa[a[0]], pa[a[1]] = a[1], a[0]
                pb = {1: 1, 2: 2, 3: 3}
                pb[b[0]], pb[b[1]] = b[1], b[0]
                if all(pa[pb[x]] == tau[x - 1] for x in (1, 2, 3)):
                    oracle.append((a, b))
        assert len(oracle) == 3 == count_factorizations(3, (2, 2))

    def test_single_factor_stream(self):
        fs = list(enumerate_factorizations(4, standard_cycle(4), (4,)))
        assert len(fs) == 1 and fs[0].sigmas == (standard_cycle(4),)

    def test_worked_example_reachable_in_stream(self):
        # The full d=20 stream has 20^8 entries, so instead of walking it we
        # run the search with each position's candidate table narrowed to the
        # worked factor: the prune and the solved last factor must still let
        # the tuple through, which is exactly the stream's yield condition.
        from cyclefactor.factorization import _search, _single_cycle

        target = worked_factorization()
        e = tuple(s.length for s in target.sigmas)
        tables = []
        for sigma in target.sigmas[:-1]:
            inv = list(range(1, 21))
            for i, x in enumerate(sigma.elements):
                inv[x - 1] = sigma.elements[i - 1]
            tables.append([(sigma.elements, tuple(inv))])
        budgets = [sum(ei - 1 for ei in e[k:]) for k in range(len(e))]
        start = standard_cycle(20).images()
        batches = _search(start, tables, budgets, _single_cycle(e[-1]))
        got = [prefix + pair for prefix, found in batches for pair in found]
        assert got == [tuple(s.elements for s in target.sigmas)]

    def test_search_has_no_depth_limit(self):
        # (1 2)(2 3)...(1999 2000) through 1,998 one-entry tables: one level
        # per factor, far past the interpreter's recursion limit
        from cyclefactor.factorization import _search, _single_cycle

        d = 2000
        path = [(i, i + 1) for i in range(1, d)]
        tables = []
        for a, b in path[:-1]:
            inv = list(range(1, d + 1))
            inv[a - 1], inv[b - 1] = b, a
            tables.append([((a, b), tuple(inv))])
        start = standard_cycle(d).images()
        batches = _search(start, tables, list(range(d - 1, 0, -1)), _single_cycle(2))
        got = [prefix + pair for prefix, found in batches for pair in found]
        assert got == [tuple(path)]

    def test_stream_validates_and_is_duplicate_free(self):
        for d in range(2, 7):
            for e in genus0_types(d):
                seen = set()
                for f in enumerate_factorizations(d, standard_cycle(d), e):
                    assert validate(f)
                    seen.add(f)
                assert len(seen) == count_factorizations(d, e, "formula")

    def test_positive_genus_stream(self):
        fs = list(enumerate_factorizations(3, standard_cycle(3), (3, 3)))
        assert [tuple(str(s) for s in f.sigmas) for f in fs] == [("(1 3 2)", "(1 3 2)")]

    def test_positive_genus_stream_matches_product_oracle(self):
        # oracle: every tuple of cycles of the given lengths whose product is tau, sorted;
        # every genus-1 type at d <= 4, and those with at most three factors at d = 5.
        # The search core on tau gives them by value, the records by position round tau
        from cyclefactor.factorization import _cayley_stream
        from cyclefactor.verify import compositions

        rng = random.Random(5)
        total = 0
        for d in range(2, 6):
            rest = list(range(2, d + 1))
            rng.shuffle(rest)
            types = [tuple(c + 1 for c in comp) for comp in compositions(d + 1) if max(comp) < d]
            for e in types if d < 5 else [e for e in types if len(e) <= 3]:
                images = {
                    ei: {c: Cycle(d, c).images() for c in itertools.permutations(range(1, d + 1), ei) if c[0] == min(c)}
                    for ei in set(e)
                }
                for tau in (standard_cycle(d), Cycle(d, (1, *rest))):
                    expected = sorted(
                        fs
                        for fs in itertools.product(*(images[ei] for ei in e))
                        if product([images[ei][c] for ei, c in zip(e, fs)], d) == tau.images()
                    )
                    assert list(_cayley_stream(d, tau, e)) == expected, (d, e, tau)
                    assert factor_elements(d, tau, e) == sorted(expected, key=by_position(tau)), (d, e, tau)
                    total += len(expected)
        assert total > 0

    def test_genus0_walker_matches_cayley_search(self):
        # oracle: the Cayley-prune search on tau itself, which tries every e-cycle of S_d;
        # the walker runs on (1 2 ... d), so its stream is in order of position round tau
        from cyclefactor.factorization import _cayley_stream

        rng = random.Random(3)
        for d in range(2, 8):
            rest = list(range(2, d + 1))
            rng.shuffle(rest)
            for tau in (standard_cycle(d), Cycle(d, (1, *rest))):
                for e in genus0_types(d):
                    expected = sorted(_cayley_stream(d, tau, e), key=by_position(tau))
                    assert factor_elements(d, tau, e) == expected

    @pytest.mark.parametrize(
        "d, outputs, expected",
        [
            (6, 1296, {"nodes": 136, "targets": 239, "reuses": 1561}),
            (7, 16807, {"nodes": 1982, "targets": 1239, "reuses": 34776}),
        ],
    )
    def test_cayley_search_stats_pinned(self, d, outputs, expected):
        # genus 0, so the Cayley prune cuts at every level: the search must enter
        # exactly these nodes and solve exactly these targets
        from cyclefactor.factorization import _cayley_stream

        stats = {}
        assert sum(1 for _ in _cayley_stream(d, standard_cycle(d), (2,) * (d - 1), stats)) == outputs
        assert stats == expected

    def test_cayley_search_walks_each_target_once(self, monkeypatch):
        # the prune reads a target's Cayley distance off one whole cycle walk per search,
        # however often the target is met: all 120 permutations of S_5, once each
        # (the leaf's own walks start from one point)
        from cyclefactor import factorization

        walks = {}
        cycles_of = factorization.cycles_of

        def counted(images, points=None):
            if points is None:
                walks[images] = walks.get(images, 0) + 1
            return cycles_of(images, points)

        monkeypatch.setattr(factorization, "cycles_of", counted)
        assert count_factorizations(5, (2,) * 6, "bruteforce") == 15625
        assert (len(walks), max(walks.values())) == (120, 1)

    def test_emitted_factors_equal_validated_cycles(self):
        for d in range(2, 7):
            for e in genus0_types(d):
                for f in enumerate_factorizations(d, standard_cycle(d), e):
                    for s in f.sigmas:
                        assert s == Cycle(d, s.elements)

    def test_genus0_walker_nodes_per_output(self):
        from cyclefactor.factorization import factor_batches

        totals = [0, 0, 0]
        for d in range(2, 9):
            for e in genus0_types(d):
                stats = {}
                outputs = sum(1 for _, tails in factor_batches(d, e, stats) for _ in tails)
                assert outputs == d ** (len(e) - 1)
                assert stats["nodes"] <= 3 * outputs, (d, e, stats, outputs)
                assert stats["candidates"] < d * outputs, (d, e, stats, outputs)
                # every candidate is a dead end, enters a node, or is an output
                assert stats["candidates"] == stats["nodes"] - 1 + stats["dead_ends"] + outputs
                # the exact counts, which a closed form must reproduce node for node
                counts = (stats["nodes"], stats["candidates"], stats["dead_ends"])
                if d == 7:
                    assert counts == WALKER_STATS_D7[e], (e, counts)
                if d == 8:
                    totals = [t + c for t, c in zip(totals, counts)]
        assert tuple(totals) == WALKER_TOTALS_D8

    def test_two_factor_type_at_d_100(self):
        # listing the candidates first would mean all C(100, 51) subsets of the 100-cycle
        fs = list(enumerate_factorizations(100, standard_cycle(100), (51, 50)))
        assert len(set(fs)) == len(fs) == count_factorizations(100, (51, 50), "formula")
        assert all(validate(f) for f in fs)
        keys = [tuple(s.elements for s in f.sigmas) for f in fs]
        assert keys == sorted(keys)

    def test_batches_flatten_to_the_stream_and_count_it(self):
        # every type of genus <= 1 at d <= 5 and every genus-0 type at d = 6 and 7: the
        # batches flattened are the records, both sharing exactly the factors before the
        # first one that changed, and the count reads them with the records' stats
        from cyclefactor.factorization import factor_batches, first_change
        from cyclefactor.verify import compositions

        cases = [
            (d, tuple(c + 1 for c in comp))
            for d in range(2, 6)
            for genus in (0, 1)
            for comp in compositions(d - 1 + 2 * genus)
            if max(comp) < d
        ]
        cases += [(d, e) for d in (6, 7) for e in genus0_types(d)]
        assert len(cases) == 111
        for d, e in cases:
            batch_stats, record_stats, count_stats = {}, {}, {}
            flat = [prefix + tail for prefix, tails in factor_batches(d, e, batch_stats) for tail in tails]
            records = [f.sigmas for f in enumerate_factorizations(d, standard_cycle(d), e, record_stats)]
            stream = [tuple(s.elements for s in sigmas) for sigmas in records]
            assert flat == stream, (d, e)
            for outs in flat, records:
                for previous, elems in zip(outs, outs[1:]):
                    i = first_change(previous, elems)
                    assert i < len(elems) and elems[:i] == previous[:i] and elems[i] != previous[i], (d, e)
            assert count_factorizations(d, e, "bruteforce", count_stats) == len(stream) > 0, (d, e)
            assert batch_stats == record_stats == count_stats, (d, e)

    def test_batches_read_after_the_walk_moved_on(self):
        # the walker shares lists between candidates and keeps closed arcs from one
        # candidate to the next: tails read only once every batch has been made must
        # still be the stream read in order, with the same stats
        from cyclefactor.factorization import factor_batches

        for d in range(2, 8):
            for e in genus0_types(d):
                in_order, late = {}, {}
                flat = [prefix + tail for prefix, tails in factor_batches(d, e, in_order) for tail in tails]
                batches = list(factor_batches(d, e, late))
                assert [prefix + tail for prefix, tails in batches for tail in tails] == flat, (d, e)
                assert late == in_order, (d, e)

    def test_first_change_goes_by_identity(self):
        from cyclefactor.factorization import first_change

        a, b = (1, 2), (2, 3)
        assert first_change((), (a, b)) == 0
        assert first_change((a, b), (a, (2, 4))) == 1
        assert first_change((a, b), (a, b)) == 2
        assert first_change((a, b), (tuple([1, 2]), b)) == 0  # equal but not shared
        # consecutive records share every Cycle before the first factor that changed,
        # on (1 2 ... d) and relabeled onto another circle
        for tau in (standard_cycle(6), Cycle(6, (1, 4, 2, 6, 3, 5))):
            outs = [f.sigmas for f in enumerate_factorizations(6, tau, (2, 3, 2, 2))]
            shared = 0
            for previous, elems in zip(outs, outs[1:]):
                i = first_change(previous, elems)
                assert i < len(elems) and elems[i] != previous[i]
                shared += i
            assert shared > 0, tau

    @pytest.mark.parametrize("e", [(2, 50, 50), (50, 51)])
    def test_closed_form_last_level_at_d_100(self, e):
        # the last two factors of a one-cycle target come in closed form; a shuffled
        # tau is the same walk relabeled, so it must give the standard stream with
        # point i renamed tau[i - 1], in the same order, with the same stats
        from cyclefactor.factorization import factor_batches

        d = 100
        stats = {}
        got = [prefix + tail for prefix, tails in factor_batches(d, e, stats) for tail in tails]
        assert len(got) == d ** (len(e) - 1)
        assert all(a < b for a, b in zip(got, got[1:]))
        assert all(validate(Factorization(standard_cycle(d), tuple(Cycle(d, x) for x in f))) for f in got)
        assert stats["candidates"] == stats["nodes"] - 1 + stats["dead_ends"] + len(got)
        rest = list(range(2, d + 1))
        random.Random(d).shuffle(rest)
        at = (None, 1, *rest)
        expected = [tuple(Cycle(d, tuple(at[x] for x in c)).elements for c in f) for f in got]
        shuffled_stats = {}
        fs = enumerate_factorizations(d, Cycle(d, (1, *rest)), e, shuffled_stats)
        assert [tuple(s.elements for s in f.sigmas) for f in fs] == expected
        assert shuffled_stats == stats

    def test_first_transposition_factorization_at_d_1100(self):
        # 1,099 factors: deeper than the interpreter's recursion limit
        f = next(iter(enumerate_factorizations(1100, standard_cycle(1100), (2,) * 1099)))
        assert validate(f)
        assert f.sigmas[0].elements == (1, 2)

    def test_invalid_type_errors_before_streaming(self):
        with pytest.raises(ValueError):
            enumerate_factorizations(3, standard_cycle(3), (2, 2, 2))


class TestPacks:
    def test_matches_brute_force(self):
        # oracle: try every assignment of the items to the bins
        from cyclefactor.factorization import _packs

        def brute(items, bins):
            for where in itertools.product(range(len(bins)), repeat=len(items)):
                filled = [0] * len(bins)
                for item, b in zip(items, where):
                    filled[b] += item
                if filled == list(bins):
                    return True
            return False

        for n in range(1, 6):
            for items in itertools.combinations_with_replacement(range(4, 0, -1), n):
                total = sum(items)
                for bins in itertools.product(range(1, total + 1), repeat=3):
                    if sum(bins) == total:
                        assert _packs(items, bins) == brute(items, bins), (items, bins)

    def test_more_items_than_the_recursion_limit(self):
        from cyclefactor.factorization import _packs

        assert _packs((2,) * 1101, (1100, 1102))
        assert not _packs((2,) * 1101, (1, 2201))
        assert _packs((3,) + (1,) * 1200, (600, 603))


class TestCounts:
    def test_methods_agree(self):
        for d in range(2, 6):
            for e in genus0_types(d):
                r = len(e) + 1
                assert (
                    count_factorizations(d, e, "bruteforce")
                    == count_factorizations(d, e, "formula")
                    == count_factorizations(d, e, "bijection")
                    == d ** (r - 2)
                )

    def test_transposition_count_is_tree_count(self):
        assert count_factorizations(4, (2, 2, 2)) == 16

    def test_single_factor(self):
        assert count_factorizations(5, (5,)) == 1

    def test_formula_requires_genus0(self):
        with pytest.raises(ValueError):
            count_factorizations(3, (3, 3), "formula")

    def test_order_invariance_over_all_multisets(self):
        def partitions(total, largest=None):
            largest = total if largest is None else largest
            if total == 0:
                yield ()
                return
            for first in range(min(total, largest), 0, -1):
                for rest in partitions(total - first, first):
                    yield (first,) + rest

        for d in range(2, 7):
            for parts in partitions(d - 1):
                e_multiset = tuple(p + 1 for p in parts)
                counts = {
                    count_factorizations(d, perm_e, "bruteforce")
                    for perm_e in set(itertools.permutations(e_multiset))
                }
                assert len(counts) == 1

    def test_tau_independence(self):
        for d in range(2, 6):
            for e in genus0_types(d):
                expected = count_factorizations(d, e)
                for rest in itertools.permutations(range(2, d + 1)):
                    tau = Cycle(d, (1,) + rest)
                    got = sum(1 for _ in enumerate_factorizations(d, tau, e))
                    assert got == expected


class TestCycleIndex:
    def test_all_transpositions(self):
        assert count_by_cycle_index(4, {2: 3}) == 16

    def test_single_full_cycle(self):
        assert count_by_cycle_index(3, {3: 1}) == 1

    def test_mixed_lengths_vs_bruteforce(self):
        # oracle: 3 orderings of (2,2,3), each counted by brute force
        orderings = {(2, 2, 3), (2, 3, 2), (3, 2, 2)}
        total = sum(count_factorizations(5, e, "bruteforce") for e in orderings)
        assert total == 75 == count_by_cycle_index(5, {2: 2, 3: 1})

    def test_requirement_violation(self):
        with pytest.raises(ValueError):
            count_by_cycle_index(5, {2: 1})

    def test_zero_multiplicity(self):
        # a length of multiplicity 0 counts nothing, but is range-checked like any other
        assert count_by_cycle_index(3, {2: 2, 3: 0}) == 3
        with pytest.raises(ValueError, match="bad cycle index"):
            count_by_cycle_index(1, {2: 0})
        with pytest.raises(ValueError, match=r"bad cycle index \{2: 2, 9: 0\} for degree 3"):
            count_by_cycle_index(3, {2: 2, 9: 0})

    @pytest.mark.parametrize("d, n", [(1, {}), (3, {2: 0})])
    def test_no_factor(self, d, n):
        # r - 1 = 0 would make d^(r-2) the float 1/d
        with pytest.raises(ValueError, match="cycle index must list at least one factor"):
            count_by_cycle_index(d, n)


class TestHurwitzBruteforce:
    def test_three_sheets(self):
        h = HurwitzDatum(((2, 1), (2, 1), (3,)))
        assert hurwitz_count_bruteforce(h) == 1

    def test_two_sheets(self):
        h = HurwitzDatum(((2,), (2,)))
        assert hurwitz_count_bruteforce(h) == Fraction(1, 2)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_one_sheet(self, r):
        # every target is the one point's identity, one image long
        h = HurwitzDatum(((1,),) * r)
        assert hurwitz_count_bruteforce(h) == 1

    def test_riemann_hurwitz_filter(self):
        with pytest.raises(ValueError, match="^Riemann-Hurwitz violated: sum of indices 2 "):
            HurwitzDatum(((2, 1), (2, 1)))

    @pytest.mark.parametrize("lambdas", [(), ((2,), (2, 1))], ids=["empty", "two-degrees"])
    def test_one_degree(self, lambdas):
        # d is read off the partitions, so they must exist and agree
        with pytest.raises(ValueError, match="^need one or more cycle types, all partitions of one degree d$"):
            HurwitzDatum(lambdas)

    def test_disconnected_tuples_are_dropped(self):
        # many tuples multiply to the identity without joining [4], (1 2) six times among them
        h = HurwitzDatum(((2, 1, 1),) * 6)
        assert hurwitz_count_bruteforce(h) == formula_hurwitz_simple((2, 1, 1)) == 120

    def test_cap(self):
        datum = pure_cycle_datum((2,) * 6 + (7,))
        with pytest.raises(CapExceededError):
            hurwitz_count_bruteforce(datum)

    def test_identity_with_factorizations(self):
        for d in range(2, 5):
            for e in genus0_types(d):
                datum = pure_cycle_datum(e + (d,))
                h = hurwitz_count_bruteforce(datum)
                assert h * d == count_factorizations(d, e)


class TestClosedFormulas:
    def test_simple_full_cycle_is_power(self):
        for d in range(2, 6):
            assert formula_hurwitz_simple((d,)) == d ** (d - 3)

    def test_simple_d3(self):
        assert formula_hurwitz_simple((3,)) == 1

    def test_simple_vs_bruteforce_two_two(self):
        value = formula_hurwitz_simple((2, 2))
        lambdas = (pure_cycle_type(4, 2),) * 4 + ((2, 2),)
        assert value == hurwitz_count_bruteforce(HurwitzDatum(lambdas)) == 12

    def test_simple_rejects_wrong_r(self):
        # r - 1 is read off the partition, so only a non-partition is refused
        refusals = [((2, 3), "partition must be weakly decreasing"), ((2, 0), "partition parts must be positive")]
        for parts, message in refusals:
            with pytest.raises(ValueError, match=f"^{message}$"):
                formula_hurwitz_simple(parts)

    def test_4point(self):
        assert formula_hurwitz_4point((2, 2, 3, 5)) == 5
        assert formula_hurwitz_4point((2, 2, 2, 4)) == 4
        assert formula_hurwitz_4point((2, 2, 2, 4)) * 4 == count_factorizations(4, (2, 2, 2))

    def test_4point_last_index_full(self):
        for d in range(3, 7):
            for e123 in itertools.combinations_with_replacement(range(2, d + 1), 3):
                if sum(x - 1 for x in e123) != d - 1:
                    continue
                assert formula_hurwitz_4point(e123 + (d,)) == d

    def test_4point_rejects_bad_data(self):
        with pytest.raises(ValueError):
            formula_hurwitz_4point((2, 2, 2, 5))


class TestJsonAndStandardize:
    def test_json_round_trip(self):
        f = worked_factorization()
        assert factorization_from_json(factorization_to_json(f)) == f

    def test_standardize_conjugates(self):
        # convert carries a factorization onto (1 2 ... m) by the position map of tau
        from cyclefactor.cli import _to_standard_circle

        tau = Cycle(4, (1, 3, 2, 4))
        f = next(iter(enumerate_factorizations(4, tau, (2, 2, 2))))
        std, place = _to_standard_circle(f)
        assert std.tau == standard_cycle(4)
        assert validate(std)
        assert place == positions(tau) == {1: 1, 3: 2, 2: 3, 4: 4}
        # a sub-circle of a larger degree lands on its own length, on a map of its points only
        sub = Cycle(10**15, (7, 2, 5))
        std, place = _to_standard_circle(Factorization(sub, (sub,)))
        assert (std.tau, std.sigmas) == (standard_cycle(3), (standard_cycle(3),))
        assert place == {2: 1, 5: 2, 7: 3}
