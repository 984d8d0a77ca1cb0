"""The benchmark's four workloads: inputs, one round of operations, output checks.

A workload is built from the freshly imported package and a seeded
``random.Random``; building it is part of the set-up time.  ``round(i)``
yields the operations of round i as (operation, check) pairs.  The runner
times each operation alone and calls its check afterwards, outside the
timed region; a check returns (objects completed, outputs correct).
``end_round`` runs the checks that need the whole round.  Every check
compares against ``oracles``, never against the package or a stored copy
of its output.
"""

from __future__ import annotations

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout

from oracles import (
    genus0_count,
    genus0_total,
    genus0_types,
    is_cycle,
    is_standard_cycle,
    product_of_cycles,
    transposition_count,
)


def codec_columns(d: int, e):
    """S-vertices, vertex data and column alphabet of the codec for type e.

    S = {d+1, ..., d+r-1} as ``graph_of`` chooses it, vertex data
    (1, e_1 - 1, ...), and the alphabet of (parent, beta) columns; the last
    column is always (0, 1) because the root holds one node.
    """
    sv = tuple(range(d + 1, d + len(e) + 1))
    vd = (1,) + tuple(ei - 1 for ei in e)
    alphabet = [(w, b) for w, f in zip((0,) + sv, vd) for b in range(1, f + 1)]
    return sv, vd, alphabet


def factors_ok(d: int, e, sigmas) -> bool:
    """Factor lengths are e, each factor a cycle, and the product is (1 2 ... d)."""
    return (
        len(sigmas) == len(e)
        and all(len(c) == ei and is_cycle(d, c) for c, ei in zip(sigmas, e))
        and is_standard_cycle(product_of_cycles(d, sigmas))
    )


class Workload:
    """A workload whose checks are all per operation."""

    def end_round(self) -> bool:
        return True


class SearchGenus0(Workload):
    """``cyclefactor enumerate --kind factorization --d 6 --e <type>`` for all 16 types.

    One operation is a sweep: one in-process ``cli.main`` call per type,
    stdout captured to memory, 7^4 = 2,401 lines in all.  Per-call times
    would not give a steady median, because the types' output sizes jump
    from 36 to 216 lines at the middle of the list.  d = 6 keeps a sweep
    near 0.2 s, so a run holds over a hundred of them; at d = 7 a sweep
    takes about 4 s and a run holds too few for a steady median.  The seed
    only shuffles the order of the types.
    """

    name = "search-genus0"
    d = 6

    def __init__(self, cf, rng) -> None:
        self.cf = cf
        self.types = genus0_types(self.d)
        rng.shuffle(self.types)

    def round(self, i):
        yield self.sweep, self.check

    def sweep(self):
        return [(e, *self.enumerate(e)) for e in self.types]

    def enumerate(self, e):
        out, err = io.StringIO(), io.StringIO()
        argv = ["enumerate", "--kind", "factorization", "--d", str(self.d),
                "--e", ",".join(map(str, e))]
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cf.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, results):
        tau = list(range(1, self.d + 1))
        total = 0
        ok = True
        for e, code, text, err in results:
            lines = text.splitlines()
            ok = ok and code == 0 and err == f"count: {len(lines)}\n"
            ok = ok and len(lines) == genus0_count(self.d, e)
            previous = ()
            for line in lines:
                record = json.loads(line)
                sigmas = tuple(tuple(c) for c in record["sigmas"])
                ok = ok and record["d"] == self.d and record["tau"] == tau
                ok = ok and all(c[0] == min(c) for c in sigmas) and sigmas > previous
                ok = ok and factors_ok(self.d, e, sigmas)
                previous = sigmas
            total += len(lines)
        return total, ok and total == genus0_total(self.d)


class SearchGenus1(Workload):
    """``count_factorizations(5, (2,)*6, "bruteforce")``: genus 1, count route.

    15,625 factorizations, about 0.17 s per count.  At d = 6 (408,240
    factorizations, about 10 s per count) a run holds two or three counts,
    too few for a steady median.  The input is fixed; the seed does not
    change it.
    """

    name = "search-genus1"
    d, m = 5, 6

    def __init__(self, cf, rng) -> None:
        self.cf = cf
        self.e = (2,) * self.m

    def round(self, i):
        yield (
            lambda: self.cf.factorization.count_factorizations(self.d, self.e, "bruteforce"),
            lambda n: (n, n == transposition_count(self.d, self.m)),
        )


class RoundTrip(Workload):
    """Codec matrices carried around the whole chain and back.

    matrix -> mnr_decode -> unique_labeling -> psi -> factorization_of
    -> graph_of -> phi_labeled -> mnr_encode.  An object is
    (e, S-vertices, vertex data, top row, bottom row).
    """

    def __init__(self, cf) -> None:
        self.cf = cf
        self.recovered: dict[tuple[int, ...], set] = {}

    def trip(self, e, sv, vd, top, bottom):
        cf = self.cf
        m = cf.trees.mnr_decode(cf.trees.PruferMatrix(top, bottom), sv, vd)
        lm, _ = cf.bijection.unique_labeling(m)
        f = cf.graph.factorization_of(cf.bijection.psi(lm))
        lm_back = cf.bijection.phi_labeled(cf.graph.graph_of(f))
        return f, lm, lm_back, cf.trees.mnr_encode(lm_back.mnr)

    def check(self, obj, result):
        e, _, _, top, bottom = obj
        f, lm, lm_back, h = result
        sigmas = tuple(s.elements for s in f.sigmas)
        self.recovered.setdefault(e, set()).add(sigmas)
        ok = factors_ok(self.d, e, sigmas) and h.top == top and h.bottom == bottom
        return 1, ok and lm_back == lm

    def codec_object(self, e, cols):
        sv, vd, _ = codec_columns(self.d, e)
        return e, sv, vd, tuple(w for w, _ in cols), tuple(b for _, b in cols)


class RoundTripSmall(RoundTrip):
    """Every codec matrix of every genus-0 type at d = 6: 7^4 = 2,401 objects.

    The benchmark lists the matrices itself from the codec alphabet.  The
    seed only shuffles their order.
    """

    name = "roundtrip-small"
    d = 6

    def __init__(self, cf, rng) -> None:
        super().__init__(cf)
        self.matrices = [
            self.codec_object(e, prefix + ((0, 1),))
            for e in genus0_types(self.d)
            for prefix in itertools.product(codec_columns(self.d, e)[2], repeat=len(e) - 1)
        ]
        rng.shuffle(self.matrices)

    def round(self, i):
        self.recovered = {}
        for obj in self.matrices:
            yield (lambda obj=obj: self.trip(*obj)), (lambda out, obj=obj: self.check(obj, out))

    def end_round(self) -> bool:
        # d^(r-2) distinct factorizations of every type: the chain is a
        # bijection onto all factorizations, not just a round trip
        types = genus0_types(self.d)
        return sorted(self.recovered) == types and all(
            len(self.recovered[e]) == genus0_count(self.d, e) for e in types
        )


class RoundTripLarge(RoundTrip):
    """Uniform random objects at d = 300; one round is one pair of objects.

    Each pair holds one all-transposition object (299 factors) and one of a
    random mixed type with 150 factors.  Fixing the factor count keeps the
    cost of an object nearly the same across seeds.  A uniform random codec
    matrix gives a uniform random factorization of its type.

    One operation is the whole pair, both round trips.  The two kinds of
    object cost about 650 and 510 ms, so a median over single round trips
    would fall in the gap between them.
    """

    name = "roundtrip-large"
    d = 300
    mixed_factors = 150
    pool_pairs = 64

    def __init__(self, cf, rng) -> None:
        super().__init__(cf)
        self.pairs = [
            (self.random_object(rng, (2,) * (self.d - 1)),
             self.random_object(rng, self.random_type(rng)))
            for _ in range(self.pool_pairs)
        ]

    def random_type(self, rng):
        cuts = sorted(rng.sample(range(1, self.d - 1), self.mixed_factors - 1))
        bounds = [0] + cuts + [self.d - 1]
        return tuple(b - a + 1 for a, b in zip(bounds, bounds[1:]))

    def random_object(self, rng, e):
        alphabet = codec_columns(self.d, e)[2]
        return self.codec_object(e, [rng.choice(alphabet) for _ in e[1:]] + [(0, 1)])

    def round(self, i):
        self.recovered = {}
        pair = self.pairs[i % len(self.pairs)]
        yield (lambda: [self.trip(*obj) for obj in pair]), (lambda out: self.check_pair(pair, out))

    def check_pair(self, pair, results):
        checks = [self.check(obj, out) for obj, out in zip(pair, results)]
        return sum(n for n, _ in checks), len(checks) == len(pair) and all(ok for _, ok in checks)


WORKLOADS = {w.name: w for w in (SearchGenus0, SearchGenus1, RoundTripSmall, RoundTripLarge)}
