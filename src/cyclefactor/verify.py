"""Exhaustive small-degree verification suites behind ``verify`` and the tests.

Each check compares an implementation route against an independent one
(brute-force enumeration vs. closed formulas, predicates vs. image sets,
codecs vs. direct counts) over every instance up to a degree cap.  All
comparisons are exact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import worked_example
from .bijection import phi, phi_labeled, psi, unique_labeling
from .factorization import (
    HurwitzDatum,
    _cayley_stream,
    count_by_cycle_index,
    count_factorizations,
    enumerate_factorizations,
    formula_hurwitz_4point,
    formula_hurwitz_simple,
    hurwitz_count_bruteforce,
    pure_cycle_datum,
    pure_cycle_type,
)
from .graph import (
    decompose_at_last,
    default_svertices,
    enumerate_degree_graphs,
    factorization_of,
    graph_of,
    graph_to_json,
    has_cicpp,
    has_cpp,
    is_factorization_graph,
)
from .perm import (
    Cycle,
    CircleOrder,
    CycleType,
    NotMaximal,
    compose,
    cycle_decomposition,
    is_clockwise_on,
    is_counterclockwise_on,
    product,
    split_circle_product,
    standard_cycle,
)
from .trees import (
    enumerate_mnr,
    labeled_mnr_to_json,
    matrix_to_json,
    mnr_cardinality,
    mnr_decode,
    mnr_encode,
    mnr_to_json,
    prufer_decode,
    prufer_encode,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def compositions(total: int):
    """All ordered tuples of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def genus0_types(d: int):
    """All factor-length tuples (e_1, ..., e_{r-1}) with sum(e_i - 1) = d - 1."""
    for comp in compositions(d - 1):
        yield tuple(c + 1 for c in comp)


def partitions(total: int, largest: int | None = None):
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def _cayley_count(d: int, e) -> int:
    # the general Cayley-prune search, as an oracle for the genus-0 walker
    return sum(1 for _ in _cayley_stream(d, standard_cycle(d), tuple(e)))


def check_main_count(max_d: int) -> CheckResult:
    """Both searches count d^(r-2) for every genus-0 type, d <= cap."""
    cases = 0
    for d in range(2, min(max_d, 6) + 1):
        for e in genus0_types(d):
            r = len(e) + 1
            brute = count_factorizations(d, e, "bruteforce")
            cayley = _cayley_count(d, e)
            if brute != d ** (r - 2) or cayley != brute:
                return CheckResult(
                    "main-count",
                    False,
                    f"d={d} e={e}: walker {brute}, Cayley prune {cayley}, "
                    f"expected {d ** (r - 2)}",
                )
            if count_factorizations(d, e, "bijection") != brute:
                return CheckResult("main-count", False, f"d={d} e={e}: bijection route")
            cases += 1
    detail = f"{cases} genus-0 types by walker and Cayley prune, d <= {min(max_d, 6)}"
    if max_d >= 7:
        brute = count_factorizations(7, (2,) * 6, "bruteforce")
        cayley = _cayley_count(7, (2,) * 6)
        if brute != 7**5 or cayley != 7**5:
            return CheckResult(
                "main-count", False, f"d=7 transpositions: walker {brute}, Cayley prune {cayley}"
            )
        detail += "; d=7 transpositions = 16807"
    return CheckResult("main-count", True, detail)


def check_hurwitz_identity(max_d: int) -> CheckResult:
    """d * (brute-force Hurwitz count) equals the factorization count."""
    cases = 0
    for d in range(2, min(max_d, 5) + 1):
        for e in genus0_types(d):
            datum = pure_cycle_datum(d, e + (d,))
            h = hurwitz_count_bruteforce(datum)
            fac = count_factorizations(d, e, "bruteforce")
            if h * d != fac:
                return CheckResult(
                    "hurwitz-identity", False, f"d={d} e={e}: {h} * {d} != {fac}"
                )
            cases += 1
    return CheckResult("hurwitz-identity", True, f"{cases} types, d <= {min(max_d, 5)}")


def check_cross_formulas(max_d: int) -> CheckResult:
    """Closed formulas against brute force: 4-point, simple-branch, cycle index."""
    # four branch points, genus 0
    for d in range(2, min(max_d, 5) + 1):
        for e in itertools.combinations_with_replacement(range(2, d + 1), 4):
            if sum(ei - 1 for ei in e) != 2 * d - 2:
                continue
            formula = formula_hurwitz_4point(d, e)
            brute = hurwitz_count_bruteforce(pure_cycle_datum(d, e))
            if brute != formula:
                return CheckResult("cross-formulas", False, f"4pt d={d} e={e}")
    # simple branch points with one arbitrary type
    for d in range(2, min(max_d, 4) + 1):
        for parts in partitions(d):
            tau_type = CycleType(parts)
            r = 2 * d - 1 - sum(p - 1 for p in parts)
            formula = formula_hurwitz_simple(d, r, tau_type)
            lambdas = (pure_cycle_type(d, 2),) * (r - 1) + (tau_type,)
            brute = hurwitz_count_bruteforce(HurwitzDatum(d, r, 0, lambdas))
            if brute != formula:
                return CheckResult(
                    "cross-formulas", False, f"simple d={d} type={parts}: {brute} != {formula}"
                )
    # cycle index count vs. the sum over orderings
    for d in range(2, min(max_d, 6) + 1):
        for parts in partitions(d - 1):
            e_multiset = tuple(p + 1 for p in parts)
            n = {m: e_multiset.count(m) for m in set(e_multiset)}
            formula = count_by_cycle_index(d, n)
            total = sum(
                count_factorizations(d, e, "bruteforce")
                for e in set(itertools.permutations(e_multiset))
            )
            if total != formula:
                return CheckResult(
                    "cross-formulas", False, f"index d={d} n={n}: {total} != {formula}"
                )
    return CheckResult("cross-formulas", True, f"4pt/simple/index up to d={min(max_d, 6)}")


def check_prufer(seed: int, max_d: int = 6) -> CheckResult:
    """Codec bijectivity: stream sizes match the cardinality formula exactly.

    The exhaustive sweep covers vertex data summing to at most
    min(max_d + 1, 7): a degree-d factorization's tree has d + 1 nodes.
    """
    cases = 0
    top = min(max_d + 1, 7)
    for total in range(2, top + 1):
        for vd in compositions(total):
            if len(vd) < 2:
                continue
            svertices = tuple(range(total + 1, total + len(vd)))
            items = list(enumerate_mnr(svertices, vd))
            if len(items) != mnr_cardinality(vd) or len(set(items)) != len(items):
                return CheckResult("prufer-bijectivity", False, f"vertex_data={vd}")
            for m in items:
                if mnr_decode(mnr_encode(m), svertices, vd) != m:
                    return CheckResult("prufer-bijectivity", False, f"roundtrip {vd}")
            cases += len(items)
    rng = random.Random(seed)
    for n in range(2, 13):
        svertices = tuple(range(101, 101 + n))
        for _ in range(20):
            seq = tuple(rng.choice(svertices + (0,)) for _ in range(n - 1)) + (0,)
            tree = prufer_decode(seq, svertices)
            if prufer_encode(tree) != seq:
                return CheckResult("prufer-bijectivity", False, f"random seq {seq}")
    return CheckResult(
        "prufer-bijectivity", True, f"{cases} trees, node total <= {top}, plus random |S| <= 12"
    )


def check_bijection_pipeline(max_d: int) -> CheckResult:
    """phi is injective, lands exactly on the tree family, and psi inverts it."""
    cases = 0
    for d in range(2, min(max_d, 6) + 1):
        tau = standard_cycle(d)
        for e in genus0_types(d):
            svertices = tuple(default_svertices(d, len(e)))
            images = []
            for f in enumerate_factorizations(d, tau, e):
                g = graph_of(f)
                m = phi(g)
                lm, _ = unique_labeling(m)
                if psi(lm) != g:
                    return CheckResult("bijection-pipeline", False, f"inverse d={d} e={e}")
                images.append(m)
                cases += 1
            if len(set(images)) != len(images):
                return CheckResult("bijection-pipeline", False, f"injectivity d={d} e={e}")
            family = set(enumerate_mnr(svertices, (1,) + tuple(ei - 1 for ei in e)))
            if set(images) != family:
                return CheckResult("bijection-pipeline", False, f"image d={d} e={e}")
    return CheckResult("bijection-pipeline", True, f"{cases} objects, d <= {min(max_d, 6)}")


def _gate_passes(g) -> bool:
    try:
        factorization_of(g)
    except ValueError:
        return False
    return True


def check_characterization(max_d: int) -> CheckResult:
    """Gate-passing, CICPP-passing and image degree graphs are the same set.

    The gate is ``factorization_of`` (the clockwise reading multiplies to
    tau); CICPP is the paper's characterization.
    """
    count = 0
    for d in range(2, min(max_d, 5) + 1):
        tau = standard_cycle(d)
        for e in genus0_types(d):
            graphs = list(enumerate_degree_graphs(d, e))
            count += len(graphs)
            gated = {g.edges for g in graphs if _gate_passes(g)}
            cicpp = {g.edges for g in graphs if is_factorization_graph(g)}
            images = {graph_of(f).edges for f in enumerate_factorizations(d, tau, e)}
            if not gated == cicpp == images:
                sizes = f"gate {len(gated)}, CICPP {len(cicpp)}, images {len(images)}"
                return CheckResult("characterization", False, f"d={d} e={e}: {sizes}")
    detail = f"{count} degree graphs: gate = CICPP = images, d <= {min(max_d, 5)}"
    return CheckResult("characterization", True, detail)


def check_golden() -> CheckResult:
    """The worked example reproduces its committed serializations byte-exactly."""
    we = worked_example
    f = we.factorization()
    g = graph_of(f)
    if we.dumps(graph_to_json(g)) != we.GRAPH_JSON:
        return CheckResult("golden-files", False, "graph JSON differs")
    lm = phi_labeled(g)
    if we.dumps(mnr_to_json(lm.mnr)) != we.MNR_JSON:
        return CheckResult("golden-files", False, "tree JSON differs")
    if we.dumps(labeled_mnr_to_json(lm)) != we.LABELED_MNR_JSON:
        return CheckResult("golden-files", False, "labeled tree JSON differs")
    h = mnr_encode(lm.mnr)
    got = we.dumps(matrix_to_json(h, lm.mnr.tree.svertices, lm.mnr.vertex_data))
    if got != we.MATRIX_JSON:
        return CheckResult("golden-files", False, "codec matrix differs")
    return CheckResult("golden-files", True, "graph, tree, labeling, matrix")


def _independent_cycle_count(mu: Cycle, eta: Cycle) -> int:
    # cycles of mu*eta covering supp(mu), via plain dict walking
    mu_next = {x: mu.elements[(i + 1) % mu.length] for i, x in enumerate(mu.elements)}
    eta_next = {x: eta.elements[(i + 1) % eta.length] for i, x in enumerate(eta.elements)}
    seen: set[int] = set()
    count = 0
    for start in mu.elements:
        if start in seen:
            continue
        count += 1
        x = start
        while x not in seen:
            seen.add(x)
            x = mu_next[eta_next.get(x, x)]
    return count


def check_circle_splitting(max_d: int) -> CheckResult:
    """Three-way equivalence: maximal split <=> counterclockwise <=> count = p."""
    pairs = 0
    for dp in range(1, min(max_d, 7) + 1):
        base = tuple(range(1, dp + 1))
        for rest in itertools.permutations(base[1:]):
            mu = Cycle(dp, (1,) + rest)
            circle = CircleOrder(mu)
            for psize in range(1, dp + 1):
                for support in itertools.combinations(base, psize):
                    for arrangement in itertools.permutations(support[1:]):
                        eta = Cycle(dp, (support[0],) + arrangement)
                        pairs += 1
                        res = split_circle_product(mu, eta)
                        ccw = is_counterclockwise_on(eta, circle)
                        s = _independent_cycle_count(mu, eta)
                        maximal = not isinstance(res, NotMaximal)
                        if maximal != ccw or maximal != (s == psize):
                            return CheckResult(
                                "circle-splitting", False, f"mu={mu} eta={eta}"
                            )
                        if not maximal and res.cycle_count != s:
                            return CheckResult(
                                "circle-splitting", False, f"count mu={mu} eta={eta}"
                            )
                        if maximal:
                            prod = compose(mu.to_permutation(), eta.to_permutation())
                            cycles = {
                                c
                                for c in cycle_decomposition(prod)
                                if c.support <= mu.support
                            }
                            if set(res) != cycles:
                                return CheckResult(
                                    "circle-splitting", False, f"pieces mu={mu} eta={eta}"
                                )
    return CheckResult("circle-splitting", True, f"{pairs} pairs, cycles up to {min(max_d, 7)}")


def check_decomposition(max_d: int) -> CheckResult:
    """Deleting the largest S-vertex splits graphs per the sub-circle identities."""
    cases = 0
    for d in range(2, min(max_d, 5) + 1):
        tau = standard_cycle(d)
        for e in genus0_types(d):
            for f in enumerate_factorizations(d, tau, e):
                g = graph_of(f)
                dec = decompose_at_last(g)
                if sorted(x for b in dec.bsets for x in b) != list(range(1, len(e))):
                    return CheckResult("decomposition", False, f"partition d={d} e={e}")
                # the pieces multiply to tau * sigma_last^{-1}
                rest = compose(tau.to_permutation(), f.sigmas[-1].inverse().to_permutation())
                if product((c.to_permutation() for c in dec.gammas), d) != rest:
                    return CheckResult("decomposition", False, f"pieces d={d} e={e}")
                for i in range(dec.k):
                    gamma, bset, sub = dec.gammas[i], dec.bsets[i], dec.subtrees[i]
                    prod = product((f.sigmas[j - 1].to_permutation() for j in sorted(bset)), d)
                    if prod != gamma.to_permutation():
                        return CheckResult("decomposition", False, f"gamma d={d} e={e}")
                    if gamma.length != dec.sizes[i]:
                        return CheckResult("decomposition", False, f"size d={d} e={e}")
                    if sum(f.sigmas[j - 1].length - 1 for j in bset) != gamma.length - 1:
                        return CheckResult("decomposition", False, f"balance d={d} e={e}")
                    sub_f = factorization_of(sub)
                    expected = tuple(f.sigmas[j - 1] for j in sorted(bset))
                    if sub_f.sigmas != expected:
                        return CheckResult("decomposition", False, f"subgraph d={d} e={e}")
                cases += 1
    return CheckResult("decomposition", True, f"{cases} graphs, d <= {min(max_d, 5)}")


def check_clockwise_reading(max_d: int) -> CheckResult:
    """Every factor of every genus-0 factorization reads clockwise on the circle."""
    cases = 0
    for d in range(2, min(max_d, 6) + 1):
        tau = standard_cycle(d)
        circle = CircleOrder(tau)
        for e in genus0_types(d):
            for f in enumerate_factorizations(d, tau, e):
                for sigma in f.sigmas:
                    if not is_clockwise_on(sigma, circle):
                        return CheckResult(
                            "clockwise-reading", False, f"d={d} e={e} sigma={sigma}"
                        )
                cases += 1
    return CheckResult("clockwise-reading", True, f"{cases} factorizations, d <= {min(max_d, 6)}")


def check_circle_partition_properties(max_d: int) -> CheckResult:
    """On factorization graphs every [d]-vertex has CICPP and every S-vertex CPP."""
    cases = 0
    for d in range(2, min(max_d, 5) + 1):
        tau = standard_cycle(d)
        for e in genus0_types(d):
            for f in enumerate_factorizations(d, tau, e):
                g = graph_of(f)
                if not all(has_cicpp(g, v) for v in range(1, d + 1)):
                    return CheckResult("partition-properties", False, f"CICPP d={d} e={e}")
                if not all(has_cpp(g, s) for s in g.svertices):
                    return CheckResult("partition-properties", False, f"CPP d={d} e={e}")
                cases += 1
    return CheckResult("partition-properties", True, f"{cases} graphs, d <= {min(max_d, 5)}")


def check_transpositions(max_d: int) -> CheckResult:
    """All-transposition counts match the labeled-tree count d^(d-2)."""
    for d in range(2, max_d + 1):
        brute = count_factorizations(d, (2,) * (d - 1), "bruteforce")
        if brute != d ** (d - 2):
            return CheckResult("transpositions", False, f"d={d}: {brute} != {d ** (d - 2)}")
    return CheckResult("transpositions", True, f"d <= {max_d}")


def run_checks(max_d: int = 6, seed: int = 0, only: str | None = None) -> list[CheckResult]:
    """Run every suite (or those whose name contains ``only``) up to the cap."""
    suites = [
        ("main-count", lambda: check_main_count(max_d)),
        ("transpositions", lambda: check_transpositions(max_d)),
        ("hurwitz-identity", lambda: check_hurwitz_identity(max_d)),
        ("cross-formulas", lambda: check_cross_formulas(max_d)),
        ("prufer-bijectivity", lambda: check_prufer(seed, max_d)),
        ("bijection-pipeline", lambda: check_bijection_pipeline(max_d)),
        ("characterization", lambda: check_characterization(max_d)),
        ("golden-files", lambda: check_golden()),
        ("circle-splitting", lambda: check_circle_splitting(max_d)),
        ("decomposition", lambda: check_decomposition(max_d)),
        ("clockwise-reading", lambda: check_clockwise_reading(max_d)),
        ("partition-properties", lambda: check_circle_partition_properties(max_d)),
    ]
    results = []
    for name, run in suites:
        if name == "transpositions" and only is None:
            continue  # covered by main-count unless asked for by name
        if only is not None and only not in name:
            continue
        result = run()
        result.name = name
        results.append(result)
    return results
