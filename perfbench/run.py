"""Run one workload of the cyclefactor benchmark and print its metrics as JSON.

From the repository root:

    python3 perfbench/run.py --workload search-genus0 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory.  Set-up
(import plus input generation) is repeated ``SETUPS`` times and its median
reported.  The run then measures whole rounds of operations until
``--seconds`` have passed, timing each operation alone and checking its
output against the oracles outside the timed region.  Every timed
stretch is scaled to a nominal host speed measured by a fixed reference
slice (see ``calibrate.py``), run between stretches.  Throughput is the
median over rounds of each round's objects per scaled second.  With
``--trace 1`` rounds alternate between untraced and traced, so the
per-layer figures and the tracing overhead come from the same process.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a copy goes to ``perfbench/out/``
together with the span dump of a traced run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import reference_seconds, scale
from spans import NAMES, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
LAYERS = ("perm", "factorization", "graph", "bijection", "trees", "cli")
SETUPS = 11
SEGMENT_S = 0.15  # timed wall seconds between two reference slices
ENUMERATE = NAMES.index("factorization.enumerate_factorizations")


def import_package():
    """Import cyclefactor and its layer modules afresh from ``src/``."""
    for name in [n for n in sys.modules if n == "cyclefactor" or n.startswith("cyclefactor.")]:
        del sys.modules[name]
    cf = importlib.import_module("cyclefactor")
    if Path(cf.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cyclefactor imported from {cf.__file__}, not from {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"cyclefactor.{layer}")
    return cf


def set_up(workload_cls, seed: int):
    """Set up ``SETUPS`` times; return the last set-up and the median scaled time."""
    times = []
    before = reference_seconds()
    for _ in range(SETUPS):
        start = perf_counter()
        cf = import_package()
        workload = workload_cls(cf, random.Random(seed))
        elapsed = perf_counter() - start
        after = reference_seconds()
        times.append(elapsed * scale(before, after))
        before = after
    return cf, workload, statistics.median(times)


class Tally:
    """Objects completed, scaled timed seconds and rounds of one kind of round."""

    def __init__(self) -> None:
        self.objects = 0
        self.seconds = 0.0
        self.rounds = 0

    @property
    def rate(self) -> float:
        return self.objects / self.seconds if self.seconds else 0.0


def measure(cf, workload, seconds: float, tracer: Tracer | None) -> dict:
    """Run whole rounds until ``seconds`` have passed; time, check and count.

    A reference slice runs before the first operation and again whenever
    ``SEGMENT_S`` of timed work have passed since the last one.  Each
    operation's wall time is scaled by the slices on either side of its
    segment once the run is over.
    """
    ops = []  # [round, traced, wall seconds, objects, segment]
    refs = [reference_seconds()]
    since_ref = 0.0
    attempted = failed = 0
    correct = True
    deadline = perf_counter() + seconds
    i = 0
    while i < (2 if tracer else 1) or perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(cf)
        try:
            for op, check in workload.round(i):
                attempted += 1
                start = perf_counter()
                try:
                    result = op()
                except Exception:
                    # a failing operation is counted and the run goes on
                    elapsed = perf_counter() - start
                    if not failed:
                        traceback.print_exc()
                    failed += 1
                    objects = 0
                else:
                    elapsed = perf_counter() - start
                    objects, ok = check(result)
                    correct = correct and ok
                ops.append((i, traced, elapsed, objects, len(refs) - 1))
                since_ref += elapsed
                if since_ref >= SEGMENT_S:
                    refs.append(reference_seconds())
                    since_ref = 0.0
        finally:
            if traced:
                tracer.uninstall()
        correct = correct and workload.end_round()
        i += 1
    if since_ref:
        refs.append(reference_seconds())

    tallies = {False: Tally(), True: Tally()}
    op_seconds: list[float] = []  # scaled, untraced operations that did not fail
    rounds: dict[int, list] = {}  # untraced round -> [objects, scaled seconds]
    for r, traced, elapsed, objects, segment in ops:
        scaled = elapsed * scale(refs[segment], refs[segment + 1])
        tally = tallies[traced]
        tally.objects += objects
        tally.seconds += scaled
        if not traced:
            if objects:
                op_seconds.append(scaled)
            per_round = rounds.setdefault(r, [0, 0.0])
            per_round[0] += objects
            per_round[1] += scaled
    for r in range(i):
        tallies[tracer is not None and r % 2 == 1].rounds += 1
    return {
        "tallies": tallies,
        "op_seconds": op_seconds,
        "round_rates": [n / t for n, t in rounds.values() if t],
        "wall_seconds": sum(elapsed for _, traced, elapsed, _, _ in ops if not traced),
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
    }


def end_to_end(run: dict, setup_s: float) -> dict:
    return {
        "objects_per_s": {
            "value": statistics.median(run["round_rates"]) if run["round_rates"] else 0.0,
            "unit": "objects/s",
        },
        "op_ms_p50": {
            "value": statistics.median(run["op_seconds"]) * 1e3 if run["op_seconds"] else 0.0,
            "unit": "ms",
        },
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def per_layer(run: dict, tracer: Tracer) -> dict:
    rounds = run["tallies"][True].rounds
    metrics = {}
    for index, name in enumerate(NAMES):
        metrics[f"{name}.calls"] = {"value": tracer.calls[index] / rounds, "unit": "calls/round"}
        metrics[f"{name}.self_ms"] = {"value": tracer.self_ns[index] / 1e6 / rounds, "unit": "ms/round"}
    items = tracer.items[ENUMERATE]
    metrics["factorization.enumerate_factorizations.us_per_object"] = {
        "value": tracer.self_ns[ENUMERATE] / 1e3 / items if items else 0.0,
        "unit": "us/object",
    }
    untraced, traced = run["tallies"][False].rate, run["tallies"][True].rate
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (1.0 - traced / untraced) if untraced else 0.0,
        "unit": "%",
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        cf, workload, setup_s = set_up(WORKLOADS[args.workload], args.seed)
    except ImportError as exc:
        print(f"error: cannot import cyclefactor from {SRC}: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    run = measure(cf, workload, args.seconds, tracer)
    metrics = per_layer(run, tracer) if tracer else end_to_end(run, setup_s)
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.tsv")
    for traced, t in run["tallies"].items():
        print(f"traced={traced}: {t.rounds} rounds, {t.objects} objects, {t.seconds:.3f} s scaled",
              file=sys.stderr)
    print(f"untraced wall time {run['wall_seconds']:.3f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
