"""A fixed slice of pure-Python work that tells how fast the host runs right now.

The host's speed moves by a third within minutes, with no change in the code
being run, and slowly enough that a median over one run does not hide it.
The runner therefore runs ``reference_seconds`` between stretches of timed
work and scales each stretch to the speed at which the slice takes
``REFERENCE_S`` seconds.  The slice is what the workloads do most: JSON
dumps and loads of short records of cycles, tuple building and sparse
permutation products.  It calls nothing in ``cyclefactor`` and its input is
fixed, so a change to the package cannot move it.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

from oracles import is_cycle, product_of_cycles

# Duration of one slice at the nominal speed; scaled times read as seconds
# at that speed.  About the slice's median on a 2.0 GHz Xeon vCPU.
REFERENCE_S = 0.006
RECORDS = 60
REPEATS = 4
D = 7


def _records():
    rng = random.Random(0)
    out = []
    for _ in range(RECORDS):
        perm = list(range(1, D + 1))
        rng.shuffle(perm)
        a, b = sorted(rng.sample(range(1, D), 2))
        out.append({"d": D, "sigmas": [perm[:a], perm[a:b], perm[b:]]})
    return out


_RECORDS = _records()


def reference_seconds() -> float:
    """Wall time of one slice of the fixed reference work."""
    start = perf_counter()
    acc = 0
    for _ in range(REPEATS):
        for record in _RECORDS:
            back = json.loads(json.dumps(record))
            sigmas = tuple(tuple(c) for c in back["sigmas"])
            acc += sum(product_of_cycles(D, sigmas)) + all(is_cycle(D, c) for c in sigmas)
    elapsed = perf_counter() - start
    if acc != REPEATS * RECORDS * (D * (D + 1) // 2 + 1):
        raise AssertionError("reference work computed a wrong sum")
    return elapsed


def scale(before: float, after: float) -> float:
    """Factor that turns wall time between two slices into nominal-speed time."""
    return REFERENCE_S / ((before + after) / 2)
