"""Command-line surface: count, enumerate, convert, verify, export, prufer.

Exit codes: 0 success, 1 verification failure (or roundtrip/method
mismatch), 2 invalid input, 3 brute-force cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import comb, factorial

from ._json import fields, integers, mapping
from .bijection import phi_labeled, psi, standardize_graph, unique_labeling
from .factorization import (
    CapExceededError,
    count_by_cycle_index,
    count_factorizations,
    enumerate_factorizations,
    factorization_from_json,
    factorization_to_json,
    standardize,
)
from .graph import (
    FactorizationGraph,
    default_svertices,
    factorization_of,
    graph_from_json,
    graph_of,
    graph_to_dot,
    graph_to_json,
)
from .perm import standard_cycle
from .trees import (
    MultiNodedRootedTree,
    RootedTree,
    enumerate_mnr,
    labeled_mnr_from_json,
    labeled_mnr_to_json,
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
from .verify import run_checks

ENV_CAP = "CYCLEFACTOR_MAX_D"


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_cycle_index(text: str) -> dict[int, int]:
    out = {}
    for item in text.split(","):
        m, _, nm = item.partition(":")
        out[int(m)] = int(nm)
    return out


def _emit(data: dict, stream) -> None:
    stream.write(json.dumps(data, separators=(",", ":")) + "\n")


def _read_json(args) -> dict:
    if args.input:
        with open(args.input) as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    return mapping(json.loads(text), "input")


def _default_cap() -> int:
    return int(os.environ.get(ENV_CAP, "7"))


def cmd_count(args) -> int:
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
    e = _parse_int_list(args.e)
    d = args.d
    cap = args.cap if args.cap is not None else _default_cap()
    methods = ["bruteforce", "formula", "bijection"] if args.method == "all" else [args.method]

    def one(method: str):
        if method == "bruteforce":
            if d > cap:
                raise CapExceededError(
                    f"degree {d} exceeds the cap {cap}; pass --cap to override"
                )
            if d > _default_cap():
                prefixes = 1
                for ei in e[:-1]:
                    prefixes *= comb(d, ei) * factorial(ei - 1)
                print(f"search space: up to {prefixes} factor prefixes", file=sys.stderr)
        value = count_factorizations(d, e, method)
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
    return 0 if args.method != "all" or verdict == "MATCH" else 1


def cmd_enumerate(args) -> int:
    count = 0
    if args.kind in ("factorization", "graph"):
        if args.d is None or args.e is None:
            raise ValueError("--d and --e are required for this kind")
        e = _parse_int_list(args.e)
        tau = standard_cycle(args.d)
        for f in enumerate_factorizations(args.d, tau, e):
            record = factorization_to_json(f) if args.kind == "factorization" else graph_to_json(graph_of(f))
            _emit(record, sys.stdout)
            count += 1
    elif args.kind == "mnr":
        if args.vertex_data is None:
            raise ValueError("--vertex-data is required for kind mnr")
        vd = _parse_int_list(args.vertex_data)
        if args.s is not None:
            svertices = _parse_int_list(args.s)
        else:
            total = sum(vd)
            svertices = tuple(range(total + 1, total + len(vd)))
        for m in enumerate_mnr(svertices, vd):
            _emit(mnr_to_json(m), sys.stdout)
            count += 1
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    print(f"count: {count}", file=sys.stderr)
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
    """The JSON data as a value of the kind; a labeled tree must carry its unique labeling."""
    if kind != "labeled":
        return _KINDS[kind][0](data)
    lm = unique_labeling(mnr_from_json(data))[0]
    if "labels" in data:
        for (node, x), (_, y) in zip(labeled_mnr_from_json(data).labels, lm.labels):
            if x != y:
                raise ValueError(f"node {node} is labeled {x}; the tree's unique labeling gives {y}")
    return lm


def _convert(direction: str, data: dict) -> dict:
    source, target = _DIRECTIONS[direction]
    value = _read(source, data)
    if direction == "fac2mnr":
        value, relabel = standardize(value)
    for arrow in _arrows(source, target):
        value = arrow(value)
    out = _KINDS[target][1](value)
    if direction == "fac2mnr" and any(k != v for k, v in relabel.items()):
        out["relabeling"] = {str(k): v for k, v in sorted(relabel.items())}
    return out


def _default_s(value):
    """A graph or bare tree with its j-th S-vertex renamed d + j, as graph_of names it."""
    if isinstance(value, FactorizationGraph):
        svertices = default_svertices(value.d, len(value.svertices))
        name = dict(zip(value.svertices, svertices))
        edges = frozenset((name[s], v) for s, v in value.edges)
        return FactorizationGraph(value.d, svertices, edges, value.tau)
    d, svertices = value.total_nodes, value.tree.svertices
    name = {0: 0, **{s: d + j for j, s in enumerate(svertices, start=1)}}
    tree = RootedTree(
        tuple(name[s] for s in svertices),
        tuple((name[c], name[p]) for c, p in value.tree.parents),
    )
    return MultiNodedRootedTree(tree, value.vertex_data, tuple((name[c], b) for c, b in value.beta))


def _roundtrip_reference(direction: str, data: dict) -> dict:
    """The canonical form the inverse conversion must land back on."""
    kind = _DIRECTIONS[_INVERSE_DIRECTION[direction]][1]
    value = _read(kind, data)
    if direction == "fac2mnr":
        value = standardize(value)[0]
    elif direction == "graph2mnr":  # phi_labeled relabels tau to (1 2 ... d)
        value = standardize_graph(value)[0]
    if _DIRECTIONS[direction][1] == "fac":  # a factorization carries no S
        value = _default_s(value)
    return _KINDS[kind][1](value)


def cmd_convert(args) -> int:
    data = _read_json(args)
    out = _convert(args.direction, data)
    _emit(out, sys.stdout)
    if args.roundtrip:
        back = _convert(_INVERSE_DIRECTION[args.direction], dict(out))
        back.pop("relabeling", None)
        if back != _roundtrip_reference(args.direction, data):
            print("roundtrip mismatch", file=sys.stderr)
            return 1
    return 0


def cmd_verify(args) -> int:
    results = run_checks(max_d=args.max_d, seed=args.seed, only=args.only)
    if not results:
        print(f"no checks match --only {args.only!r}", file=sys.stderr)
        return 2
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{tag}  {r.name.ljust(width)}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_export(args) -> int:
    data = _read_json(args)
    if "vertex_data" in data:
        m = mnr_from_json(data)
        labels = None
        if "labels" in data:
            lm = labeled_mnr_from_json(data)
            labels = dict(lm.labels)
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
    p.add_argument("--cap", type=int, help=f"brute-force degree cap (default ${ENV_CAP} or 7)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="stream objects as JSON lines")
    p.add_argument("--kind", choices=["factorization", "graph", "mnr"], required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--e")
    p.add_argument("--vertex-data")
    p.add_argument("--s", help="comma-separated S-vertex values")
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
    p.add_argument("--format", choices=["dot"], default="dot")
    p.add_argument("--input", help="read JSON from a file instead of stdin")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("prufer", help="classic rooted-tree codec")
    p.add_argument("--mode", choices=["encode", "decode"], required=True)
    p.add_argument("--input", help="read JSON from a file instead of stdin")
    p.set_defaults(func=cmd_prufer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
