#!/usr/bin/env python3
"""Counting factorizations of a long cycle, three ways.

A factorization of the d-cycle (1 2 ... d) of type (e_1, ..., e_{r-1}) is an
ordered tuple of cycles with those lengths whose product is the d-cycle.
When sum(e_i - 1) = d - 1 the count is d^(r-2), independent of which lengths
appear.  This script compares exhaustive search, the closed formula, and the
tree-family cardinality the bijection maps onto.
"""

from fractions import Fraction

from cyclefactor import (
    count_by_cycle_index,
    count_factorizations,
    formula_hurwitz_4point,
    formula_hurwitz_simple,
    hurwitz_count_bruteforce,
    pure_cycle_datum,
)

print("Three routes to the same count")
print("=" * 50)
for d, e in [(3, (2, 2)), (4, (2, 2, 2)), (5, (2, 2, 3)), (6, (3, 4)), (6, (2,) * 5)]:
    routes = {m: count_factorizations(d, e, m) for m in ("bruteforce", "formula", "bijection")}
    assert len(set(routes.values())) == 1
    print(f"  d={d} e={e}: {routes['bruteforce']}  (= {d}^{len(e) - 1})")

print()
print("All-transposition counts are labeled-tree counts: d^(d-2)")
for d in range(2, 7):
    n = count_factorizations(d, (2,) * (d - 1))
    print(f"  d={d}: {n} = {d}^{d - 2}")

print()
print("Counting by cycle index (how many factors of each length)")
print(f"  d=5, two 2-cycles and one 3-cycle, any order: {count_by_cycle_index(5, {2: 2, 3: 1})}")
orderings = [(2, 2, 3), (2, 3, 2), (3, 2, 2)]
total = sum(count_factorizations(5, e) for e in orderings)
print(f"  sum over the {len(orderings)} orderings: {total}")

print()
print("Branched-cover normalization: divide by d")
for d, e in [(4, (2, 2, 2)), (5, (2, 2, 3))]:
    h = hurwitz_count_bruteforce(pure_cycle_datum(e + (d,)))
    print(f"  d={d} e={e + (d,)}: cover count {h} = {Fraction(count_factorizations(d, e), d)}")

print()
print("Classical formulas recovered as special cases")
print(f"  four branch points, d=5, (2,2,3,5): min e(d+1-e) = {formula_hurwitz_4point((2, 2, 3, 5))}")
print(f"  simple branch points, full cycle, d=6: {formula_hurwitz_simple((6,))} = 6^3")
