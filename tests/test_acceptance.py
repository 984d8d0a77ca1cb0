"""Acceptance criteria, one test per criterion, at their stated caps.

Every comparison is exact (integers and rationals only).  Each test prints a
single PASS line with the sweep it covered; run with ``pytest -s`` to see
them.
"""

from pathlib import Path

from cyclefactor import verify as V
from cyclefactor import worked_example as we
from cyclefactor.factorization import count_factorizations

FIXTURES = Path(__file__).parent / "fixtures"


def report(name: str, result: V.CheckResult) -> None:
    assert result.passed, f"{name}: {result.detail}"
    print(f"PASS {name}: {result.detail}")


def test_criterion_1_main_count():
    # brute-force count == d^(r-2) for every genus-0 type, 2 <= d <= 6, and
    # the pruned d=7 all-transposition search hits 7^5 = 16807
    result = V.check_main_count(7)
    report("main count", result)
    assert "16807" in result.detail


def test_criterion_2_hurwitz_identity():
    # d * h(d, r, 0; e, d) == fac(d, r; e) exactly, d <= 5
    report("hurwitz identity", V.check_hurwitz_identity(5))


def test_criterion_3_cross_formulas():
    # min e_i(d+1-e_i) vs brute force (d <= 5); the simple-branch product
    # formula vs brute force (d <= 4); the cycle-index count vs the sum over
    # orderings (d <= 6)
    report("cross formulas", V.check_cross_formulas(6))


def test_criterion_4_prufer_bijectivity():
    # stream length == (sum f)^(n-1) f_0 and decode inverts encode, sum f <= 7
    result = V.check_prufer(seed=0)
    report("prufer bijectivity", result)
    assert result.detail.startswith("46420 trees, node total <= 7")


def test_criterion_5_bijection_pipeline():
    # the fold is injective, onto the tree family, and inverted objectwise
    # by unique labeling + unfold, d <= 6
    report("bijection pipeline", V.check_bijection_pipeline(6))


def test_criterion_6_characterization():
    # predicate-passing degree graphs == factorization images, d <= 5
    report("characterization", V.check_characterization(5))


def test_criterion_7_golden_files():
    # the worked example reproduces the committed fixtures byte-exactly
    expected = {
        "factorization.json": we.FACTORIZATION_JSON,
        "graph.json": we.GRAPH_JSON,
        "mnr.json": we.MNR_JSON,
        "labeled_mnr.json": we.LABELED_MNR_JSON,
        "matrix.json": we.MATRIX_JSON,
    }
    for name, text in expected.items():
        committed = (FIXTURES / name).read_bytes()
        assert committed == text.encode(), f"fixture {name} drifted"
    report("golden files", V.check_golden())
    # the codec matrix fixture carries the expected rows verbatim
    assert '"top":[23,29,22,29,23,0,29,25,0]' in we.MATRIX_JSON
    assert '"bottom":[1,3,2,1,1,1,3,1,1]' in we.MATRIX_JSON


def test_criterion_8a_circle_splitting():
    # three-way equivalence of the splitting lemma, all cycles up to length 7
    report("circle splitting", V.check_circle_splitting(7))


def test_criterion_8b_decomposition_identities():
    # deleting the largest S-vertex: partition, products, sizes, sub-graphs
    report("decomposition identities", V.check_decomposition(5))


def test_criterion_8c_clockwise_reading():
    # every factor of every genus-0 factorization reads clockwise, d <= 6
    report("clockwise reading", V.check_clockwise_reading(6))


def test_criterion_8d_partition_properties():
    # CICPP at every [d]-vertex and CPP at every S-vertex (the implication's
    # strongest form), d <= 5
    report("partition properties", V.check_circle_partition_properties(5))


def test_headline_formula_at_large_degree():
    # the closed forms stay usable far beyond enumeration range
    assert count_factorizations(50, (2,) * 49, "formula") == 50**48
    assert count_factorizations(50, (2,) * 49, "bijection") == 50**48
    assert count_factorizations(12, (3, 4, 5, 3), "formula") == 12**3
