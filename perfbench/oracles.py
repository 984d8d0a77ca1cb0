"""Reference values for the benchmark, written without importing cyclefactor.

Cycles are element tuples (c_0, c_1, ...) mapping c_i to c_{i+1}.  Products
compose right to left, as in the package: (s_1 s_2)(x) = s_1(s_2(x)).
"""

from __future__ import annotations

from math import comb, factorial


def product_of_cycles(d: int, cycles) -> list[int]:
    """Images of s_1 s_2 ... s_m on [1, d]; index 0 is unused.

    Each cycle only changes the images on its own support, so the cost is
    the total cycle length plus d.
    """
    images = list(range(d + 1))
    for cycle in cycles:
        n = len(cycle)
        # p <- p o s: on supp(s), p'(x) = p(s(x)); read before writing
        new = [images[cycle[(i + 1) % n]] for i in range(n)]
        for x, y in zip(cycle, new):
            images[x] = y
    return images


def is_cycle(d: int, cycle) -> bool:
    """Whether the tuple names a cycle: distinct elements of [1, d]."""
    return len(set(cycle)) == len(cycle) and all(1 <= x <= d for x in cycle)


def is_standard_cycle(images) -> bool:
    """Whether images (index 0 unused) is tau = (1 2 ... d)."""
    d = len(images) - 1
    return all(images[x] == x % d + 1 for x in range(1, d + 1))


def genus0_types(d: int) -> list[tuple[int, ...]]:
    """Every ordered type (e_1, ..., e_{r-1}) with sum(e_i - 1) = d - 1.

    These are the compositions of d - 1 shifted by one, 2^(d-2) in all,
    listed in lexicographic order.
    """
    out = []

    def extend(prefix, left):
        if left == 0:
            out.append(tuple(prefix))
            return
        for part in range(1, left + 1):
            extend(prefix + [part + 1], left - part)

    extend([], d - 1)
    return sorted(out)


def genus0_count(d: int, e) -> int:
    """d^(r-2) factorizations of a d-cycle of genus-0 type e (r - 1 = len(e))."""
    return d ** (len(e) - 1)


def genus0_total(d: int) -> int:
    """Sum of d^(r-2) over all genus-0 types of degree d, which is (d+1)^(d-2)."""
    return (d + 1) ** (d - 2)


def transposition_count(d: int, m: int) -> int:
    """m-tuples of transpositions in S_d whose product is a fixed d-cycle.

    Frobenius's formula restricted to the hook characters, the only ones
    that do not vanish on a d-cycle:
    N = (1/d!) sum_k (-1)^k C(d-1, k) (d(d-1-2k)/2)^m.
    """
    total = sum(
        (-1) ** k * comb(d - 1, k) * (d * (d - 1 - 2 * k) // 2) ** m
        for k in range(d)
    )
    count, rest = divmod(total, factorial(d))
    if rest:
        raise ArithmeticError(f"character sum {total} not divisible by {d}!")
    return count
