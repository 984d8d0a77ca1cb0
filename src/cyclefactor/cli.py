"""Command-line surface: count, enumerate, convert, verify, export, prufer.

Exit codes: 0 success, 1 verification failure (or roundtrip/method
mismatch), 2 invalid input, 3 brute-force cap exceeded.  A reader that
closes stdout early (``| head``) ends the command quietly with exit 0.

The parser is built on the first ``main`` call and reused by every later
call in the process.  Every JSON line goes through one compact encoder,
except the lines of ``enumerate --kind factorization``, which reads the
search one batch per last-level node (``factor_batches``): it renders the
part of a line that does not change, ``{"d":...,"tau":[...],"sigmas":``,
once per call, each factor above the node once while consecutive batches
share it, through one ``%`` format per factor length, and then each of the
node's lines through one ``%`` format for its last two factors.  ``--kind
graph`` reads ``enumerate_factorizations``, records over the same batches.
``convert`` moves a circle onto (1 2 ... m) only in
``_to_standard_circle``, and only for the two folds, ``fac2mnr`` and
``graph2mnr``; the other directions take any circle.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import sys
import time
from fractions import Fraction
from math import comb, factorial

from ._json import fields, integers, mapping
from .bijection import phi_labeled, psi, unique_labeling
from .factorization import (
    CapExceededError,
    Factorization,
    count_by_cycle_index,
    count_factorizations,
    enumerate_factorizations,
    factor_batches,
    factorization_from_json,
    factorization_to_json,
    first_change,
    genus,
)
from .graph import (
    FactorizationGraph,
    check_svertices,
    default_svertices,
    factorization_of,
    gate_failure,
    graph_from_json,
    graph_of,
    graph_to_dot,
    graph_to_json,
)
from .perm import Cycle, positions, standard_cycle
from .trees import (
    MultiNodedRootedTree,
    RootedTree,
    enumerate_mnr,
    labeled_mnr_from_json,
    labeled_mnr_to_json,
    labels_from_json,
    matrix_from_json,
    matrix_to_json,
    mnr_encode,
    mnr_decode,
    mnr_from_json,
    mnr_to_dot,
    mnr_to_json,
    prufer_decode,
    prufer_encode,
    tree_from_json,
    tree_to_json,
)
from .verify import run_checks, selected

ENV_CAP = "CYCLEFACTOR_MAX_D"
DEFAULT_CAP = 7
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))  # int("") refuses an empty item
    except ValueError:
        raise ValueError(
            f"{flag} must be comma-separated integers such as 2,2,3, got {text!r}"
        ) from None


def _parse_cycle_index(text: str) -> dict[int, int]:
    try:
        pairs = [(int(m), int(nm)) for m, nm in (item.split(":") for item in text.split(","))]
    except ValueError:
        raise ValueError(
            f"--cycle-index must list length:multiplicity pairs such as 2:2,3:1, got {text!r}"
        ) from None
    n: dict[int, int] = {}
    for m, nm in pairs:
        if m in n:
            raise ValueError(f"--cycle-index repeats length {m}")
        n[m] = nm
    return n


def _emit(data: dict, stream) -> None:
    stream.write(_encode(data) + "\n")


def _read_json(args) -> dict:
    if args.input:
        with open(args.input) as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("input nests too deeply to parse") from None
    return mapping(data, "input")


def _default_cap() -> int:
    text = os.environ.get(ENV_CAP, str(DEFAULT_CAP))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{ENV_CAP} must be an integer, got {text!r}") from None


def _check_cap(d: int, args) -> None:
    """Refuse a brute-force route past --cap, or past the default cap."""
    cap = args.cap if args.cap is not None else _default_cap()
    if d > cap:
        raise CapExceededError(f"degree {d} exceeds the cap {cap}; pass --cap to override")


def cmd_count(args) -> int:
    if args.stats and args.method not in ("bruteforce", "all"):
        raise ValueError("--stats reports the brute-force search: use --method bruteforce or all")
    if (args.e is None) == (args.cycle_index is None):
        raise ValueError("give exactly one of --e or --cycle-index")
    if args.cycle_index is not None:
        if args.method != "formula":
            raise ValueError(f"--cycle-index counts by formula only, not --method {args.method}")
        value = count_by_cycle_index(args.d, _parse_cycle_index(args.cycle_index))
        if args.hurwitz:
            value = Fraction(value, args.d)
        if args.format == "json":
            _emit({"count": str(value)}, sys.stdout)
        else:
            print(value)
        return 0
    e = _parse_int_list(args.e, "--e")
    d = args.d
    if args.method == "all" and (g := genus(d, e)):
        # refused before the search, which the formula would refuse after it
        raise ValueError(f"--method all compares with the formula, which requires genus 0, got genus {g}")
    methods = ["bruteforce", "formula", "bijection"] if args.method == "all" else [args.method]
    stats: dict = {}

    def one(method: str):
        if method == "bruteforce":
            _check_cap(d, args)
            genus(d, e)  # reports a bad type before the estimate
            if args.cap is not None and d > DEFAULT_CAP:
                prefixes = 1
                for ei in e[:-1]:
                    prefixes *= comb(d, ei) * factorial(ei - 1)
                print(f"search space: up to {prefixes} factor prefixes", file=sys.stderr)
        start = time.perf_counter()
        value = count_factorizations(d, e, method, stats)
        if method == "bruteforce":
            stats.update(outputs=value, seconds=round(time.perf_counter() - start, 6))
        return Fraction(value, d) if args.hurwitz else value

    values = [one(m) for m in methods]
    verdict = "MATCH" if len(set(values)) == 1 else "MISMATCH"
    if args.format == "json":
        record = {m: str(v) for m, v in zip(methods, values)}
        if args.method == "all":
            record["verdict"] = verdict
        _emit(record, sys.stdout)
    else:
        for v in values:
            print(v)
        if args.method == "all":
            print(verdict)
    if args.stats:
        _emit(stats, sys.stderr)
    return 0 if args.method != "all" or verdict == "MATCH" else 1


def cmd_enumerate(args) -> int:
    """Stream JSON lines, then ``count: N`` (and the --stats line) on stderr.

    A factorization line is written from ``factor_batches``, with no record built.
    """
    count = 0
    stats: dict = {}
    start = time.perf_counter()
    foreign = ("vertex_data", "s") if args.kind in ("factorization", "graph") else ("d", "e")
    for name in foreign:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to kind {args.kind}")
    if args.kind in ("factorization", "graph"):
        if args.d is None or args.e is None:
            raise ValueError("--d and --e are required for this kind")
        e = _parse_int_list(args.e, "--e")
        _check_cap(args.d, args)
        genus(args.d, e)  # reports a bad degree before tau is built
        tau = standard_cycle(args.d)
        if args.kind == "factorization":
            # factorization_to_json(f), with its fixed d and tau rendered once; each
            # prefix factor is rendered once while its tuple lasts, by one format per
            # length, and each tail through the batch's one format for its line
            formats = {n: ",".join(["%d"] * n) for n in e}
            head = f'{{"d":{args.d},"tau":{_encode(tau.elements)},"sigmas":[['
            tail = "],[".join(formats[n] for n in e[-2:]) + "]]}\n"
            # the values of a tail's format: its two factors joined (one factor of one-factor types)
            if len(e) > 1:
                values = functools.partial(itertools.starmap, operator.add)
            else:
                values = functools.partial(map, operator.itemgetter(0))
            write = sys.stdout.write
            previous, parts = (), []
            for prefix, tails in factor_batches(args.d, e, stats):
                i = first_change(previous, prefix)
                parts[i:] = [formats[len(x)] % x + "],[" for x in prefix[i:]]
                previous = prefix
                line = head + "".join(parts) + tail  # a % format: the rendered parts hold no %
                for v in values(tails):
                    write(line % v)
                    count += 1
        else:
            for f in enumerate_factorizations(args.d, tau, e, stats):
                _emit(graph_to_json(graph_of(f)), sys.stdout)
                count += 1
    else:  # mnr, the one kind left among the parser's choices
        if args.vertex_data is None:
            raise ValueError("--vertex-data is required for kind mnr")
        vd = _parse_int_list(args.vertex_data, "--vertex-data")
        _check_cap(sum(vd), args)  # the node counts sum to the degree
        if args.s is not None:
            svertices = _parse_int_list(args.s, "--s")
        else:
            svertices = default_svertices(sum(vd), len(vd) - 1)
        for m in enumerate_mnr(svertices, vd):
            _emit(mnr_to_json(m), sys.stdout)
            count += 1
    print(f"count: {count}", file=sys.stderr)
    if args.stats:
        stats.update(outputs=count, seconds=round(time.perf_counter() - start, 6))
        _emit(stats, sys.stderr)
    return 0


# The kinds along the chain, and between each neighbouring pair its arrow
# (forward, backward).  A tree is labeled next to the graph and bare next to
# the codec.
_CHAIN = ("fac", "graph", "labeled", "mnr", "prufer")
_ARROWS = (
    (graph_of, factorization_of),
    (phi_labeled, psi),
    (lambda lm: lm.mnr, lambda m: unique_labeling(m)[0]),
    (lambda m: (mnr_encode(m), m.tree.svertices, m.vertex_data), lambda hsv: mnr_decode(*hsv)),
)
# (read, write) of each kind's JSON form
_KINDS = {
    "fac": (factorization_from_json, factorization_to_json),
    "graph": (graph_from_json, graph_to_json),
    "labeled": (labeled_mnr_from_json, labeled_mnr_to_json),
    "mnr": (mnr_from_json, mnr_to_json),
    "prufer": (matrix_from_json, lambda hsv: matrix_to_json(*hsv)),
}
# (source kind, target kind) of every direction.  fac2mnr prints the bare tree,
# and mnr2prufer reads one, so a tree with a multi-node root encodes.
_DIRECTIONS = {
    "fac2graph": ("fac", "graph"),
    "graph2fac": ("graph", "fac"),
    "graph2mnr": ("graph", "labeled"),
    "mnr2graph": ("labeled", "graph"),
    "fac2mnr": ("fac", "mnr"),
    "mnr2fac": ("labeled", "fac"),
    "mnr2prufer": ("mnr", "prufer"),
    "prufer2mnr": ("prufer", "mnr"),
}
_INVERSE_DIRECTION = {name: "2".join(reversed(name.split("2"))) for name in _DIRECTIONS}


def _arrows(source: str, target: str) -> list:
    i, j = _CHAIN.index(source), _CHAIN.index(target)
    if i < j:
        return [forward for forward, _ in _ARROWS[i:j]]
    return [backward for _, backward in reversed(_ARROWS[j:i])]


def _read(kind: str, data: dict):
    """The JSON data as a value of the kind; a graph must pass the gate, and a
    labeled tree must carry its unique labeling and S-vertices outside [0, d]."""
    if kind == "graph":
        g = graph_from_json(data)
        if failure := gate_failure(g):
            raise ValueError(f"not a factorization graph: {failure}")
        return g
    if kind != "labeled":
        return _KINDS[kind][0](data)
    m = mnr_from_json(data)
    lm = unique_labeling(m)[0]
    if "labels" in data:
        for (node, x), (_, y) in zip(labels_from_json(m, data).labels, lm.labels):
            if x != y:
                raise ValueError(f"node {node} is labeled {x}; the tree's unique labeling gives {y}")
    check_svertices(m.total_nodes, m.tree.svertices)
    return lm


def _to_standard_circle(value):
    """The factorization or graph moved onto (1 2 ... m), m = |tau|, and the position map."""
    place = positions(value.tau)
    m = len(place)
    if isinstance(value, FactorizationGraph):
        edges = frozenset((s, place[v]) for s, v in value.edges)
        return FactorizationGraph(value.svertices, edges, standard_cycle(m)), place
    sigmas = tuple(Cycle(m, tuple(map(place.__getitem__, s.elements))) for s in value.sigmas)
    return Factorization(standard_cycle(m), sigmas), place


def _convert(direction: str, data: dict):
    """The value read as the direction's source, moved onto (1 2 ... m) for a fold, and its JSON output."""
    source, target = _DIRECTIONS[direction]
    value = _read(source, data)
    if direction == "fac2mnr" and (g := genus(value.d, [s.length for s in value.sigmas])):
        raise ValueError(f"a genus-{g} factorization has no multi-noded tree: only genus 0 folds")
    if direction in ("fac2mnr", "graph2mnr"):
        value, place = _to_standard_circle(value)
    out = value
    for arrow in _arrows(source, target):
        out = arrow(out)
    out = _KINDS[target][1](out)
    if direction == "fac2mnr" and any(k != v for k, v in place.items()):
        out["relabeling"] = {str(k): v for k, v in sorted(place.items())}
    return value, out


def _default_s(value):
    """A graph or bare tree with its j-th S-vertex renamed d + j, as graph_of names it."""
    if isinstance(value, FactorizationGraph):
        svertices = default_svertices(value.d, len(value.svertices))
        name = dict(zip(value.svertices, svertices))
        edges = frozenset((name[s], v) for s, v in value.edges)
        return FactorizationGraph(svertices, edges, value.tau)
    svertices = default_svertices(value.total_nodes, len(value.tree.svertices))
    name = {0: 0, **dict(zip(value.tree.svertices, svertices))}
    tree = RootedTree(svertices, tuple((name[c], name[p]) for c, p in value.tree.parents))
    return MultiNodedRootedTree(tree, value.vertex_data, tuple((name[c], b) for c, b in value.beta))


def _roundtrip_reference(direction: str, value) -> dict:
    """The canonical form the inverse conversion must land back on, from the value converted."""
    kind = _DIRECTIONS[_INVERSE_DIRECTION[direction]][1]
    if direction == "mnr2fac":  # read labeled, compared bare
        value = value.mnr
    if _DIRECTIONS[direction][1] == "fac":  # a factorization carries no S
        value = _default_s(value)
    return _KINDS[kind][1](value)


def cmd_convert(args) -> int:
    value, out = _convert(args.direction, _read_json(args))
    _emit(out, sys.stdout)
    if args.roundtrip:
        _, back = _convert(_INVERSE_DIRECTION[args.direction], out)
        reference = _roundtrip_reference(args.direction, value)
        if back != reference:
            key = next(k for k in (*reference, *back) if back.get(k) != reference.get(k))
            print(f"roundtrip mismatch: field {key!r} differs", file=sys.stderr)
            return 1
    return 0


def cmd_verify(args) -> int:
    # the transpositions check brute-forces every degree up to --max-d
    if "transpositions" in selected(args.only) and args.max_d > (cap := _default_cap()):
        raise CapExceededError(f"verify brute-forces degree {args.max_d}, past the cap {cap}; set {ENV_CAP} to override")
    results = run_checks(max_d=args.max_d, seed=args.seed, only=args.only)
    if not results:
        print(f"no checks match --only {args.only!r}", file=sys.stderr)
        return 2
    width = max(len(name) for name, _ in results)
    for name, r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {name.ljust(width)}  {r.detail}")
    passed = sum(r.passed for _, r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def cmd_export(args) -> int:
    data = _read_json(args)
    if "vertex_data" in data:
        m = mnr_from_json(data)
        labels = dict(labels_from_json(m, data).labels) if "labels" in data else None
        sys.stdout.write(mnr_to_dot(m, labels))
    elif "tau" in data and "S" in data:
        sys.stdout.write(graph_to_dot(graph_from_json(data)))
    else:
        raise ValueError("input is neither a graph nor a multi-noded tree")
    return 0


def cmd_prufer(args) -> int:
    data = _read_json(args)
    if args.mode == "encode":
        tree = tree_from_json(data)
        _emit({"S": list(tree.svertices), "sequence": list(prufer_encode(tree))}, sys.stdout)
    else:
        seq, svertices = fields(data, "sequence", "S")
        tree = prufer_decode(integers(seq, "sequence"), integers(svertices, "S"))
        _emit(tree_to_json(tree), sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclefactor",
        description="Count, enumerate, and convert cycle factorizations of a long cycle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count factorizations (exact)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", help="comma-separated factor lengths, e.g. 2,2,3")
    p.add_argument("--cycle-index", help="length:multiplicity pairs, e.g. 2:2,3:1")
    p.add_argument("--method", choices=["bruteforce", "formula", "bijection", "all"], default="formula")
    p.add_argument("--hurwitz", action="store_true", help="divide by d (Hurwitz normalization)")
    p.add_argument("--cap", type=int, help=f"brute-force degree cap (default ${ENV_CAP} or {DEFAULT_CAP})")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--stats", action="store_true", help="after the result, one JSON line of search statistics on stderr")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="stream objects as JSON lines")
    p.add_argument("--kind", choices=["factorization", "graph", "mnr"], required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--e")
    p.add_argument("--vertex-data")
    p.add_argument("--s", help="comma-separated S-vertex values")
    p.add_argument("--cap", type=int, help=f"degree cap, on --d or the sum of --vertex-data (default ${ENV_CAP} or {DEFAULT_CAP})")
    p.add_argument("--stats", action="store_true", help="after the count, one JSON line of search statistics on stderr")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("convert", help="map an object across the bijections")
    p.add_argument("--direction", required=True, choices=sorted(_DIRECTIONS))
    p.add_argument("--roundtrip", action="store_true", help="convert back and compare")
    p.add_argument("--input", help="read JSON from a file instead of stdin")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("verify", help="run the exhaustive verification suites")
    p.add_argument("--max-d", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", help="run only checks whose name contains this string")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="emit DOT for a graph or multi-noded tree")
    p.add_argument("--input", help="read JSON from a file instead of stdin")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("prufer", help="classic rooted-tree codec")
    p.add_argument("--mode", choices=["encode", "decode"], required=True)
    p.add_argument("--input", help="read JSON from a file instead of stdin")
    p.set_defaults(func=cmd_prufer)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, with stdout on devnull so
        # that the interpreter's last flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
