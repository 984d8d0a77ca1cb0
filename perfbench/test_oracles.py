"""Brute-force tests of the benchmark's oracles over all of S_d, small d.

Run from the repository root with ``python3 -m pytest perfbench``.
Permutations here are image tuples: p[x - 1] is the image of x.
"""

import itertools

import pytest

from oracles import (
    genus0_count,
    genus0_total,
    genus0_types,
    is_cycle,
    is_standard_cycle,
    product_of_cycles,
    transposition_count,
)


def perm_of_cycle(d, cycle):
    images = list(range(1, d + 1))
    for i, x in enumerate(cycle):
        images[x - 1] = cycle[(i + 1) % len(cycle)]
    return tuple(images)


def compose(p, q):
    """(p q)(x) = p(q(x))."""
    return tuple(p[y - 1] for y in q)


def cycles_in(d, length):
    """Every length-cycle of S_d, as (element tuple, image tuple), one per permutation."""
    seen = {}
    for elems in itertools.permutations(range(1, d + 1), length):
        seen.setdefault(perm_of_cycle(d, elems), elems)
    return [(elems, p) for p, elems in seen.items()]


def brute_count(d, e):
    """Tuples of cycles of lengths e, searched over S_d, multiplying to (1 2 ... d)."""
    tau = tuple(x % d + 1 for x in range(1, d + 1))
    pools = [[p for _, p in cycles_in(d, ei)] for ei in e]
    identity = tuple(range(1, d + 1))
    count = 0
    for factors in itertools.product(*pools):
        p = identity
        for q in factors:
            p = compose(p, q)
        count += p == tau
    return count


@pytest.mark.parametrize("d", [2, 3, 4])
def test_product_of_cycles_matches_composition(d):
    cycles = [c for k in range(2, d + 1) for c, _ in cycles_in(d, k)]
    for a, b, c in itertools.product(cycles, repeat=3):
        expected = compose(compose(perm_of_cycle(d, a), perm_of_cycle(d, b)), perm_of_cycle(d, c))
        assert tuple(product_of_cycles(d, [a, b, c])[1:]) == expected


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_is_standard_cycle(d):
    tau = tuple(x % d + 1 for x in range(1, d + 1))
    for p in itertools.permutations(range(1, d + 1)):
        assert is_standard_cycle((0,) + p) == (p == tau)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_is_cycle(d):
    for k in range(1, d + 2):
        valid = set(itertools.permutations(range(1, d + 1), k))
        for t in itertools.product(range(0, d + 2), repeat=k):
            assert is_cycle(d, t) == (t in valid)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_genus0_types_are_all_balanced_types(d):
    brute = sorted(
        e
        for r1 in range(1, d)
        for e in itertools.product(range(2, d + 1), repeat=r1)
        if sum(ei - 1 for ei in e) == d - 1
    )
    assert genus0_types(d) == brute
    assert len(brute) == 2 ** (d - 2)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_genus0_counts_by_brute_force(d):
    counts = {e: brute_count(d, e) for e in genus0_types(d)}
    for e, n in counts.items():
        assert n == genus0_count(d, e), e
    assert sum(counts.values()) == genus0_total(d)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_transposition_count_by_walks_over_s_d(d):
    # ways[p] = number of m-tuples of transpositions with product p
    transpositions = [p for _, p in cycles_in(d, 2)]
    tau = tuple(x % d + 1 for x in range(1, d + 1))
    ways = {tuple(range(1, d + 1)): 1}
    for m in range(1, d + 4):
        nxt = {}
        for p, n in ways.items():
            for t in transpositions:
                q = compose(p, t)
                nxt[q] = nxt.get(q, 0) + n
        ways = nxt
        assert transposition_count(d, m) == ways.get(tau, 0), m


def test_transposition_count_reference_values():
    assert transposition_count(5, 6) == 15625
    assert transposition_count(6, 7) == 408240
