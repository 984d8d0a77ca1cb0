"""The command-line surface: flags, formats, exit codes."""

import collections
import dataclasses
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from cyclefactor import cli, factorization, graph, verify
from cyclefactor import worked_example as we
from cyclefactor.bijection import phi_labeled, psi, unique_labeling
from cyclefactor.cli import main
from cyclefactor.factorization import enumerate_factorizations, factorization_to_json
from cyclefactor.graph import Decomposition, factorization_of, graph_of, graph_to_json
from cyclefactor.perm import standard_cycle
from cyclefactor.trees import PruferMatrix, mnr_decode, mnr_from_json, mnr_to_json
from cyclefactor.verify import compositions, genus0_types

FIXTURES = Path(__file__).parent / "fixtures"

# (direction, input fixture, fixture its output must equal byte for byte)
PINNED = [
    ("fac2graph", "factorization", "graph"),
    ("graph2fac", "graph", "factorization"),
    ("graph2mnr", "graph", "labeled_mnr"),
    ("mnr2graph", "mnr", "graph"),
    ("mnr2graph", "labeled_mnr", "graph"),
    ("fac2mnr", "factorization", "mnr"),
    ("mnr2fac", "mnr", "factorization"),
    ("mnr2fac", "labeled_mnr", "factorization"),
    ("mnr2prufer", "mnr", "matrix"),
    ("mnr2prufer", "labeled_mnr", "matrix"),
    ("prufer2mnr", "matrix", "mnr"),
]

# Labelings that unfold to a factorization graph that does not fold back to
# them: a star and a chain, each carrying labels other than its unique labeling
NON_UNIQUE_LABELINGS = [
    '{"S":[5],"vertex_data":[1,3],"edges":[{"parent":0,"child":5,"beta":1}],'
    '"labels":{"(0,1)":2,"(5,1)":1,"(5,2)":3,"(5,3)":4}}',
    '{"S":[5,6,7],"vertex_data":[1,1,1,1],"edges":[{"parent":0,"child":5,"beta":1},'
    '{"parent":5,"child":6,"beta":1},{"parent":6,"child":7,"beta":1}],'
    '"labels":{"(0,1)":2,"(5,1)":3,"(6,1)":4,"(7,1)":1}}',
]


def _fixture_factorization(change):
    data = json.loads((FIXTURES / "factorization.json").read_text())
    change(data["sigmas"])
    return json.dumps(data)


def _swap_adjacent(sigmas):
    sigmas[1], sigmas[2] = sigmas[2], sigmas[1]  # (14 15 19) and (1 19) share 19


def _invert_one(sigmas):
    sigmas[1].reverse()


# Factorizations whose ordered product is not tau; the reader rejects each
NOT_FACTORIZATIONS = [
    _fixture_factorization(_swap_adjacent),
    _fixture_factorization(_invert_one),
    '{"d":4,"tau":[1,2,3],"sigmas":[[1,4],[2,3]]}',  # (1 4) leaves supp(tau)
]

# SHA-256 of `enumerate` stdout, stderr and exit code over every genus-0 type
# at d <= 6, both kinds, in the order of stream_digest; computed before the
# line writer rendered the constant head of a factorization once per call
ENUMERATE_DIGEST_D6 = "eef0b51b63019c3c0971cee7e4eb06754cdcf72dddfb3d5dad7284e4e229577e"

# SHA-256 of `convert` exit code, stdout and stderr in four directions, once
# and with --roundtrip, over the inputs of off_circle_inputs, in its order;
# read before the circle was moved onto (1 2 ... m) at one place, the
# boundary of convert
CONVERT_DIGEST_OFF_CIRCLE = "b7575eb47b2905f3b35d1f0887dd2117b154196e93656c287b6e94b5b1edd57f"

# (d, type) pairs whose numbers run to two digits, compared line by line
# with the library stream; the last is genus 1
WIDE_TYPES = [
    (10, (5, 6)), (10, (2, 9)), (10, (4, 4, 4)), (10, (10,)),
    (12, (6, 7)), (12, (3, 5, 6)), (12, (12,)),
    (5, (2, 2, 2, 2, 2, 2)),
]

# The graph of the empty factorization of a 1-cycle
LONE_VERTEX = '{"d":1,"S":[],"edges":[],"tau":[1]}'

# A tree whose clockwise reading (1 2)(1 3) does not multiply to tau
READING_NOT_TAU = '{"d":3,"S":[4,5],"edges":[[4,1],[4,2],[5,1],[5,3]],"tau":[1,2,3]}'

# (direction, input fixture, gate runs, validate runs), each once and with
# --roundtrip: the gate runs where convert reads a graph, validate inside it
# and where convert reads a factorization, and nowhere else
PROOFS = [
    ("fac2graph", "factorization", (0, 1), (1, 2)),
    ("graph2fac", "graph", (1, 1), (1, 2)),
    ("graph2mnr", "graph", (1, 1), (1, 1)),
    ("mnr2graph", "labeled_mnr", (0, 1), (0, 1)),
    ("fac2mnr", "factorization", (0, 0), (1, 1)),
    ("mnr2fac", "labeled_mnr", (0, 0), (0, 1)),
    ("mnr2prufer", "mnr", (0, 0), (0, 0)),
    ("prufer2mnr", "matrix", (0, 0), (0, 0)),
]

# (factorization, genus) of positive genus: valid, but no tree folds from them
POSITIVE_GENUS = [
    ('{"d":2,"tau":[1,2],"sigmas":[[1,2],[1,2],[1,2]]}', 1),
    ('{"d":3,"tau":[1,2,3],"sigmas":[[1,3,2],[1,3,2]]}', 1),
    ('{"d":5,"tau":[1,2,3,4,5],"sigmas":[[1,2,3],[1,2,3],[1,3,2],[3,4,5]]}', 2),
]

# A graph with the S-vertex 2 inside [0, d], and one with several bad edges,
# listed out of order; the first in sorted order, (4, 9), is the one named
S_INSIDE_D = '{"d":3,"S":[2,5],"edges":[[2,1],[2,3],[5,1],[5,2]],"tau":[1,2,3]}'
BAD_EDGES = '{"d":3,"S":[4,5],"edges":[[5,7],[6,1],[4,1],[4,2],[4,9],[5,3]],"tau":[1,2,3]}'
# A tree with the S-vertex 2 inside [0, 3]: the unfolded graph has no room for it
TREE_S_INSIDE_D = '{"S":[2],"vertex_data":[1,2],"edges":[{"parent":0,"child":2,"beta":1}]}'
# A codec matrix that would give vertex 5 two nodes and vertex -3 one
UNSORTED_S_MATRIX = '{"S":[5,-3],"vertex_data":[1,2,1],"top":[0,0],"bottom":[1,1]}'


def _tree_json(s, vertex_data, edges, labels=None):
    """A tree's JSON text from its S, vertex data and (parent, child, beta) edges."""
    data = {
        "S": s,
        "vertex_data": vertex_data,
        "edges": [{"parent": p, "child": c, "beta": b} for p, c, b in edges],
    }
    if labels is not None:
        data["labels"] = labels
    return json.dumps(data)


# (id, direction, input, message): one input for every check that the tree
# readers and mnr_decode run on outside data
BAD_TREES = [
    ("zero-in-s", "mnr2prufer", _tree_json([0, 5], [1, 1, 1], [(0, 5, 1)]), "0 is reserved for the root"),
    ("repeated-s", "mnr2prufer", _tree_json([5, 5], [1, 1, 1], [(0, 5, 1)]), "vertex set must be strictly increasing"),
    (
        "incomplete-parents",
        "mnr2prufer",
        _tree_json([5, 6], [1, 1, 1], [(0, 5, 1)]),
        "parent map must cover every non-root vertex once",
    ),
    ("unknown-parent", "mnr2prufer", _tree_json([5], [1, 1], [(7, 5, 1)]), "unknown parent 7"),
    (
        "cycle",
        "mnr2graph",
        _tree_json([5, 6, 7], [1, 1, 1, 1], [(0, 5, 1), (7, 6, 1), (6, 7, 1)]),
        "vertex 6 is not reached from the root: it lies on or below a cycle",
    ),
    (
        "vertex-data-length",
        "mnr2prufer",
        _tree_json([5], [1], [(0, 5, 1)]),
        "vertex data must list the root and every S-vertex",
    ),
    ("zero-nodes", "mnr2prufer", _tree_json([5], [1, 0], [(0, 5, 1)]), "node counts must be positive"),
    (
        "matrix-leaf-zero-nodes",
        "prufer2mnr",
        '{"S":[5],"vertex_data":[1,0],"top":[0],"bottom":[1]}',
        "node counts must be positive",
    ),
    ("beta-range", "mnr2prufer", _tree_json([5], [1, 1], [(0, 5, 2)]), "beta(5) = 2 exceeds the parent's 1 nodes"),
    (
        "labels-cover",
        "mnr2graph",
        _tree_json([5], [1, 1], [(0, 5, 1)], {"(0,1)": 1, "(5,2)": 2}),
        "labels must cover every node exactly once",
    ),
    (
        "labels-bijection",
        "mnr2graph",
        _tree_json([5], [1, 1], [(0, 5, 1)], {"(0,1)": 1, "(5,1)": 3}),
        "labels must be a bijection onto [1, 2]",
    ),
    (
        "edge-not-object",
        "mnr2graph",
        '{"S":[5],"vertex_data":[1,1],"edges":[[0,5]]}',
        "edges must hold objects with parent, child and beta, got [0, 5]",
    ),
    (
        "edge-missing-field",
        "mnr2graph",
        '{"S":[5],"vertex_data":[1,1],"edges":[{"parent":0,"child":5}]}',
        "edges must hold objects with parent, child and beta, got {'parent': 0, 'child': 5}",
    ),
]

def _plus_one(name):
    real = getattr(verify, name)
    return lambda *args: real(*args) + 1


# (check, collaborator in cyclefactor.verify, its stand-in, the FAIL line at --max-d 3):
# one for every check but main-count, which test_failing_check reaches
FAILING_CHECKS = [
    ("transpositions", "count_factorizations", lambda: _plus_one("count_factorizations"), "d=2: 2 != 1"),
    (
        "hurwitz-identity",
        "hurwitz_count_bruteforce",
        lambda: _plus_one("hurwitz_count_bruteforce"),
        "d=2 e=(2,): 3/2 * 2 != 1",
    ),
    (
        "cross-formulas",
        "formula_hurwitz_4point",
        lambda: _plus_one("formula_hurwitz_4point"),
        "4pt d=3 e=(2, 2, 2, 2)",
    ),
    ("prufer-bijectivity", "mnr_cardinality", lambda: _plus_one("mnr_cardinality"), "vertex_data=(1, 1)"),
    ("bijection-pipeline", "psi", lambda: lambda lm: None, "inverse d=2 e=(2,)"),
    ("characterization", "gate_failure", lambda: lambda g: None, "d=3 e=(2, 2): gate 9, CICPP 3, images 3"),
    ("golden-files", "graph_to_json", lambda: lambda g: {}, "graph JSON differs"),
    ("circle-splitting", "is_counterclockwise_on", lambda: lambda eta, mu: False, "mu=(1) eta=(1)"),
    (
        "decomposition",
        "decompose_at_last",
        lambda: lambda g: Decomposition(0, (), (), (), ()),
        "partition d=3 e=(2, 2)",
    ),
    ("clockwise-reading", "is_clockwise_on", lambda: lambda eta, tau: False, "d=2 e=(2,) sigma=(1 2)"),
    ("partition-properties", "has_cpp", lambda: lambda g, s: False, "CPP d=2 e=(2,)"),
]

# the whole table of verify --max-d 4
VERIFY_D4 = """\
PASS  main-count            7 genus-0 types by walker and Cayley prune, d <= 4
PASS  hurwitz-identity      7 types, d <= 4
PASS  cross-formulas        4pt d <= 4, simple d <= 4, index d <= 4
PASS  prufer-bijectivity    355 trees, node total <= 5, plus random |S| <= 12
PASS  bijection-pipeline    30 objects, d <= 4
PASS  characterization      276 degree graphs: gate = CICPP = images, d <= 4
PASS  golden-files          graph, tree, labeling, matrix
PASS  circle-splitting      164 pairs, cycles up to 4
PASS  decomposition         30 graphs, d <= 4
PASS  clockwise-reading     30 factorizations, d <= 4
PASS  partition-properties  30 graphs, d <= 4
11/11 checks passed
"""

# (id, input, message): one codec matrix for every check that the matrix
# reader runs on the two rows and the decoder on the vertex data, and inputs
# that break several, for their order
BAD_MATRICES = [
    ("unequal-rows", '{"S":[5],"vertex_data":[1,1],"top":[0],"bottom":[1,1]}', "matrix rows must be nonempty and of equal length"),
    ("empty-rows", '{"S":[],"vertex_data":[1],"top":[],"bottom":[]}', "matrix rows must be nonempty and of equal length"),
    ("top-not-root", '{"S":[5,6],"vertex_data":[1,1,1],"top":[0,5],"bottom":[1,1]}', "last top entry must be the root 0"),
    ("bottom-zero", '{"S":[5],"vertex_data":[1,1],"top":[0],"bottom":[0]}', "bottom entries must be positive"),
    # rows of unequal length, whose top ends off the root and whose bottom holds 0
    ("rows-first", '{"S":[5],"vertex_data":[1,1],"top":[5],"bottom":[0,1]}', "matrix rows must be nonempty and of equal length"),
    ("top-before-bottom", '{"S":[5],"vertex_data":[1,1],"top":[5],"bottom":[0]}', "last top entry must be the root 0"),
    ("vertex-data-length", '{"S":[5],"vertex_data":[1],"top":[0],"bottom":[1]}', "vertex data must list the root and every S-vertex"),
    # a negative node count is named before the bottom entry that it leaves no room for
    ("negative-count", '{"S":[5,6],"vertex_data":[1,-2,1],"top":[5,0],"bottom":[1,1]}', "node counts must be positive"),
]

# (id, direction, input, message): one input for every check that the
# factorization and graph readers run on a cycle, on S or on the edges, and for their order
BAD_CYCLES = [
    (
        "repeated-factor-element",
        "fac2graph",
        '{"d":3,"tau":[1,2,3],"sigmas":[[1,1],[1,2,3]]}',
        "repeated element in cycle (1, 1)",
    ),
    ("empty-factor", "fac2graph", '{"d":3,"tau":[1,2,3],"sigmas":[[],[1,2,3]]}', "a cycle needs at least one element"),
    ("factor-out-of-range", "fac2graph", '{"d":3,"tau":[1,2,3],"sigmas":[[1,4],[1,2]]}', "cycle (1, 4) leaves [1, 3]"),
    # a repeat is named before the range, and tau before the factors
    ("repeat-before-range", "fac2graph", '{"d":3,"tau":[1,2,3],"sigmas":[[4,4]]}', "repeated element in cycle (4, 4)"),
    ("tau-before-factors", "fac2graph", '{"d":3,"tau":[1,2,2],"sigmas":[[]]}', "repeated element in cycle (1, 2, 2)"),
    (
        "repeated-tau-element",
        "graph2fac",
        '{"d":3,"S":[4],"edges":[[4,1],[4,2]],"tau":[1,2,2]}',
        "repeated element in cycle (1, 2, 2)",
    ),
    ("empty-tau", "graph2fac", '{"d":3,"S":[4],"edges":[[4,1],[4,2]],"tau":[]}', "a cycle needs at least one element"),
    (
        "repeated-s",
        "graph2fac",
        '{"d":3,"S":[4,4],"edges":[[4,1],[4,2],[4,3]],"tau":[1,2,3]}',
        "S-vertex values must be strictly increasing",
    ),
    # S is checked as soon as it is sorted, before tau and the edges
    (
        "s-before-tau-and-edges",
        "graph2fac",
        '{"d":3,"S":[5,4,5],"edges":[[9,1]],"tau":[1,1]}',
        "S-vertex values must be strictly increasing",
    ),
    (
        "repeated-edge",
        "graph2fac",
        '{"d":3,"S":[4],"edges":[[4,1],[4,2],[4,3],[4,3]],"tau":[1,2,3]}',
        "repeated edge (4, 3)",
    ),
]

# A valid graph and tree whose S-vertices are not {d+1, ..., d+r-1}
GRAPH_OWN_S = '{"d":3,"S":[10,20],"edges":[[10,1],[10,2],[20,2],[20,3]],"tau":[1,2,3]}'
TREE_OWN_S = (
    '{"S":[10,20],"vertex_data":[1,1,1],"edges":[{"parent":0,"child":10,"beta":1},'
    '{"parent":10,"child":20,"beta":1}]}'
)

# (direction, input, output): valid inputs whose S-vertices lie below the
# root 0, which sorts below every S-vertex; a graph, a one-vertex tree and
# both two-vertex paths
NEGATIVE_S = [
    (
        "graph2mnr",
        '{"d":3,"S":[-5],"edges":[[-5,1],[-5,2],[-5,3]],"tau":[1,2,3]}',
        '{"S":[-5],"vertex_data":[1,2],"edges":[{"parent":0,"child":-5,"beta":1}],'
        '"labels":{"(-5,1)":2,"(-5,2)":3,"(0,1)":1}}',
    ),
    (
        "mnr2graph",
        '{"S":[-1],"vertex_data":[1,1],"edges":[{"parent":0,"child":-1,"beta":1}]}',
        '{"d":2,"S":[-1],"edges":[[-1,1],[-1,2]],"tau":[1,2]}',
    ),
    (
        "mnr2fac",
        '{"S":[-2,-1],"vertex_data":[1,1,1],"edges":[{"parent":0,"child":-1,"beta":1},'
        '{"parent":-1,"child":-2,"beta":1}]}',
        '{"d":3,"tau":[1,2,3],"sigmas":[[2,3],[1,3]]}',
    ),
    (
        "mnr2fac",
        '{"S":[-2,-1],"vertex_data":[1,1,1],"edges":[{"parent":0,"child":-2,"beta":1},'
        '{"parent":-2,"child":-1,"beta":1}]}',
        '{"d":3,"tau":[1,2,3],"sigmas":[[1,2],[2,3]]}',
    ),
]

# (direction, input, output): a transposition on {1, 2} in the ambient degree
# 10^15, where one list or cycle over [d] would need petabytes; the arrows
# work on supp(tau) only
HUGE_D_FAC = '{"d":1000000000000000,"tau":[1,2],"sigmas":[[1,2]]}'
HUGE_D_GRAPH = (
    '{"d":1000000000000000,"S":[1000000000000001],'
    '"edges":[[1000000000000001,1],[1000000000000001,2]],"tau":[1,2]}'
)
HUGE_D = [
    ("fac2graph", HUGE_D_FAC, HUGE_D_GRAPH),
    ("fac2mnr", HUGE_D_FAC, '{"S":[3],"vertex_data":[1,1],"edges":[{"parent":0,"child":3,"beta":1}]}'),
    ("graph2fac", HUGE_D_GRAPH, HUGE_D_FAC),
    (
        "graph2mnr",
        HUGE_D_GRAPH,
        '{"S":[1000000000000001],"vertex_data":[1,1],"edges":[{"parent":0,"child":1000000000000001,"beta":1}],'
        '"labels":{"(0,1)":1,"(1000000000000001,1)":2}}',
    ),
]


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stream_digest(capsys, max_d):
    h = hashlib.sha256()
    for d in range(2, max_d + 1):
        for e in genus0_types(d):
            for kind in ("factorization", "graph"):
                argv = ("enumerate", "--kind", kind, "--d", str(d), "--e", ",".join(map(str, e)))
                code, out, err = run(capsys, *argv)
                h.update(f"{out}{err}exit {code}\n".encode())
    return h.hexdigest()


def off_circle_inputs():
    """(factorization, graph) JSON of every genus-0 factorization at 2 <= d <= 4
    on (1 2 ... d), on two seeded shuffled d-cycles and on two seeded
    sub-circles of degree d + 2; each graph has seeded S-vertices of its own."""
    rng = random.Random("convert-off-circle")
    for d in range(2, 5):
        circles = [(d, list(range(1, d + 1)))]
        circles += [(n, rng.sample(range(1, n + 1), d)) for n in (d, d, d + 2, d + 2)]
        for n, tau in circles:
            pool = [*range(-9, 0), *range(n + 1, n + 10)]
            for e in genus0_types(d):
                for f in enumerate_factorizations(d, standard_cycle(d), e):
                    sigmas = [[tau[x - 1] for x in c.elements] for c in f.sigmas]
                    s = sorted(rng.sample(pool, len(e)))  # the j-th S-vertex holds sigma_j
                    edges = [[sj, x] for sj, c in zip(s, sigmas) for x in c]
                    rng.shuffle(edges)
                    fac = json.dumps({"d": n, "tau": tau, "sigmas": sigmas})
                    yield fac, json.dumps({"d": n, "S": s, "edges": edges, "tau": tau})


def convert_digest(capsys, monkeypatch):
    h = hashlib.sha256()
    for fac, g in off_circle_inputs():
        for direction, stdin in (("fac2mnr", fac), ("fac2graph", fac), ("graph2mnr", g), ("graph2fac", g)):
            for extra in ((), ("--roundtrip",)):
                code, out, err = run(capsys, "convert", "--direction", direction, *extra,
                                     stdin=stdin, monkeypatch=monkeypatch)
                h.update(f"{direction}{extra} exit {code}\n{out}{err}".encode())
    return h.hexdigest()


def library_lines(d, e, kind, stats=None):
    """The JSON lines of the library stream, each written by json.dumps."""
    record = factorization_to_json if kind == "factorization" else lambda f: graph_to_json(graph_of(f))
    return [
        json.dumps(record(f), separators=(",", ":"))
        for f in enumerate_factorizations(d, standard_cycle(d), e, stats)
    ]


# Every genus-0 type at d <= 6 and every genus-1 type at d <= 5, the latter
# being every type with sum(e_i - 1) = d + 1 and each e_i <= d
STREAM_TYPES = [(d, e) for d in range(2, 7) for e in genus0_types(d)] + [
    (d, tuple(c + 1 for c in comp)) for d in range(2, 6) for comp in compositions(d + 1) if max(comp) < d
]


class TestOneParser:
    @pytest.fixture(autouse=True)
    def fresh_parser(self, monkeypatch):
        monkeypatch.delenv("CYCLEFACTOR_MAX_D", raising=False)
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_built_once_per_process(self, capsys, monkeypatch):
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        for argv in (
            ("count", "--d", "4", "--e", "2,2,2"),
            ("enumerate", "--kind", "factorization", "--d", "3", "--e", "2,2"),
            ("enumerate", "--kind", "mnr", "--vertex-data", "1,1"),
        ):
            assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1

    def test_stats_does_not_carry_over(self, capsys):
        argv = ("enumerate", "--kind", "factorization", "--d", "4", "--e", "2,2,2")
        assert len(run(capsys, *argv, "--stats")[2].splitlines()) == 2
        code, out, err = run(capsys, *argv)
        assert (code, len(out.splitlines()), err) == (0, 16, "count: 16\n")

    def test_cap_does_not_carry_over(self, capsys):
        argv = ("count", "--method", "bruteforce", "--d", "8", "--e", "8")
        assert run(capsys, *argv, "--cap", "8")[:2] == (0, "1\n")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: degree 8 exceeds the cap 7; pass --cap to override\n"

    def test_parse_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--kind", "tree"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert run(capsys, "count", "--d", "4", "--e", "2,2,2") == (0, "16\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--d", "4", "--e", "2,2,2", "--method", "bruteforce"),
        ("enumerate", "--kind", "factorization", "--d", "4", "--e", "2,2,2"),
    ],
    ids=["count", "enumerate"],
)
def test_non_integer_env_cap_names_the_variable(capsys, monkeypatch, argv):
    monkeypatch.setenv("CYCLEFACTOR_MAX_D", "abc")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: CYCLEFACTOR_MAX_D must be an integer, got 'abc'\n"


class TestCount:
    def test_all_methods_match(self, capsys):
        code, out, _ = run(capsys, "count", "--d", "4", "--e", "2,2,2", "--method", "all")
        assert code == 0
        assert out == "16\n16\n16\nMATCH\n"

    def test_single_factor(self, capsys):
        code, out, _ = run(capsys, "count", "--d", "5", "--e", "5", "--method", "bruteforce")
        assert (code, out) == (0, "1\n")

    def test_cycle_index(self, capsys):
        code, out, _ = run(capsys, "count", "--d", "5", "--cycle-index", "2:2,3:1")
        assert (code, out) == (0, "75\n")

    def test_cycle_index_hurwitz(self, capsys):
        code, out, _ = run(capsys, "count", "--d", "5", "--cycle-index", "2:4", "--hurwitz")
        assert (code, out) == (0, "25\n")

    @pytest.mark.parametrize("method", ["bruteforce", "bijection", "all"])
    def test_cycle_index_rejects_other_methods(self, capsys, method):
        code, out, err = run(
            capsys, "count", "--d", "5", "--cycle-index", "2:4",
            "--method", method, "--cap", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "formula" in err

    def test_hurwitz_flag(self, capsys):
        code, out, _ = run(capsys, "count", "--d", "5", "--e", "2,2,3", "--hurwitz")
        assert (code, out) == (0, "5\n")

    def test_hurwitz_fraction(self, capsys):
        code, out, _ = run(capsys, "count", "--d", "5", "--e", "5", "--hurwitz")
        assert (code, out) == (0, "1/5\n")

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "count", "--d", "9", "--e", "2,2,2,2,2,2,2,2", "--method", "bruteforce")
        assert code == 3
        assert "cap" in err

    def test_cap_override_prints_estimate(self, capsys):
        code, out, err = run(
            capsys, "count", "--d", "8", "--e", "2,2,2,2,2,2,2",
            "--method", "bruteforce", "--cap", "8",
        )
        assert (code, out) == (0, f"{8**6}\n")
        assert "search space" in err

    def test_cap_given_leaves_env_cap_unread(self, capsys, monkeypatch):
        # as in enumerate, an explicit --cap is the whole cap
        monkeypatch.setenv("CYCLEFACTOR_MAX_D", "abc")
        argv = ("count", "--method", "bruteforce", "--d", "4", "--e", "2,2,2", "--cap", "8")
        assert run(capsys, *argv) == (0, "16\n", "")

    def test_bad_type_errors_before_estimate(self, capsys):
        code, out, err = run(
            capsys, "count", "--method", "bruteforce", "--d", "8", "--e", "7,7", "--cap", "8"
        )
        assert (code, out) == (2, "")
        assert err == "error: sum(e_i - 1) = 12 is not d-1+2g for a nonnegative integer g (d = 8)\n"

    def test_invalid_params(self, capsys):
        code, _, err = run(capsys, "count", "--d", "3", "--e", "2,2,2")
        assert code == 2 and err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "count", "--d", "4", "--e", "2,2,2", "--method", "all", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "bruteforce": "16", "formula": "16", "bijection": "16", "verdict": "MATCH",
        }

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLEFACTOR_MAX_D", "5")
        code, _, err = run(capsys, "count", "--d", "6", "--e", "2,2,2,2,2", "--method", "bruteforce")
        assert code == 3 and "cap" in err

    def test_stats(self, capsys):
        argv = ("count", "--d", "5", "--e", "2,2,2,2", "--method", "bruteforce")
        assert run(capsys, *argv) == (0, "125\n", "")
        code, out, err = run(capsys, *argv, "--stats")
        stats = json.loads(err)
        assert (code, out, list(stats)) == (0, "125\n", ["nodes", "candidates", "dead_ends", "outputs", "seconds"])
        assert stats["candidates"] == stats["nodes"] - 1 + stats["dead_ends"] + stats["outputs"]
        assert stats["outputs"] == 125 and stats["seconds"] >= 0

    def test_stats_positive_genus(self, capsys):
        code, out, err = run(capsys, "count", "--d", "5", "--e", "2,2,2,2,2,2", "--method", "bruteforce", "--stats")
        stats = json.loads(err)
        assert (code, out, list(stats)) == (0, "15625\n", ["nodes", "targets", "reuses", "outputs", "seconds"])
        # 1 + 10 + 100 + 1000 nodes; their 10,000 children are the 60 even permutations of S_5,
        # each solved once
        assert (stats["nodes"], stats["targets"], stats["outputs"]) == (1111, 60, 15625)
        assert stats["reuses"] == 9940 == 10000 - stats["targets"]

    def test_all_methods_refuse_positive_genus_before_searching(self, capsys, monkeypatch):
        # the formula only holds in genus 0, so --method all stops before the brute-force search
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(cli, "count_factorizations", no_search)
        code, out, err = run(capsys, "count", "--d", "7", "--e", "2,2,2,2,2,2,2,2", "--method", "all")
        assert (code, out) == (2, "")
        assert err == "error: --method all compares with the formula, which requires genus 0, got genus 1\n"

    def test_stats_with_all_methods(self, capsys):
        code, out, err = run(capsys, "count", "--d", "4", "--e", "2,2,2", "--method", "all", "--hurwitz", "--stats")
        assert (code, out, json.loads(err)["outputs"]) == (0, "4\n4\n4\nMATCH\n", 16)

    @pytest.mark.parametrize("argv", [("--e", "2,2,2,2"), ("--cycle-index", "2:4")], ids=["e", "cycle-index"])
    def test_stats_needs_bruteforce(self, capsys, argv):
        code, out, err = run(capsys, "count", "--d", "5", *argv, "--stats")
        assert (code, out) == (2, "")
        assert err == "error: --stats reports the brute-force search: use --method bruteforce or all\n"

    @pytest.mark.parametrize(
        "argv,flag,text",
        [
            (("count", "--d", "5", "--e", "2,x"), "--e", "2,x"),
            (("enumerate", "--kind", "mnr", "--vertex-data", "1,a"), "--vertex-data", "1,a"),
            (("enumerate", "--kind", "mnr", "--vertex-data", "1,1", "--s", "3;4"), "--s", "3;4"),
            # an empty item is refused, not dropped
            (("enumerate", "--kind", "factorization", "--d", "6", "--e", "2,,5"), "--e", "2,,5"),
            (("enumerate", "--kind", "factorization", "--d", "6", "--e", "2,5,"), "--e", "2,5,"),
            (("enumerate", "--kind", "mnr", "--vertex-data", "1,,2"), "--vertex-data", "1,,2"),
            (("enumerate", "--kind", "mnr", "--vertex-data", "1,1,1", "--s", "5,,6"), "--s", "5,,6"),
        ],
        ids=["e", "vertex-data", "s", "e-empty-item", "e-trailing-comma", "vertex-data-empty-item", "s-empty-item"],
    )
    def test_bad_integer_list_names_flag(self, capsys, argv, flag, text):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be comma-separated integers such as 2,2,3, got {text!r}\n"


class TestEnumerate:
    def test_factorizations(self, capsys):
        code, out, err = run(capsys, "enumerate", "--kind", "factorization", "--d", "3", "--e", "2,2")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert json.loads(lines[0]) == {"d": 3, "tau": [1, 2, 3], "sigmas": [[1, 2], [2, 3]]}
        assert "count: 3" in err

    def test_graphs(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "graph", "--d", "4", "--e", "2,2,2")
        assert code == 0
        assert len(out.strip().split("\n")) == 16

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("--kind", "mnr", "--vertex-data", "1,1", "--d", "9", "--e", "3"), "--d"),
            (("--kind", "mnr", "--vertex-data", "1,1", "--e", "3"), "--e"),
            (("--kind", "factorization", "--d", "3", "--e", "2,2", "--vertex-data", "1,1", "--s", "4"), "--vertex-data"),
            (("--kind", "graph", "--d", "3", "--e", "2,2", "--s", "4"), "--s"),
        ],
        ids=["mnr-d", "mnr-e", "factorization-vertex-data", "graph-s"],
    )
    def test_options_of_the_other_kind_are_refused(self, capsys, argv, flag):
        # an option the kind does not read is named, never dropped silently
        code, out, err = run(capsys, "enumerate", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} does not apply to kind {argv[1]}\n"

    def test_mnr_default_s(self, capsys):
        code, out, err = run(capsys, "enumerate", "--kind", "mnr", "--vertex-data", "1,1")
        assert code == 0
        assert json.loads(out) == {
            "S": [3],
            "vertex_data": [1, 1],
            "edges": [{"parent": 0, "child": 3, "beta": 1}],
        }
        assert "count: 1" in err

    @pytest.mark.parametrize("kind", ["factorization", "graph"])
    def test_cap_exceeded(self, capsys, monkeypatch, kind):
        monkeypatch.delenv("CYCLEFACTOR_MAX_D", raising=False)
        e = ",".join(["2"] * 1099)
        code, out, err = run(capsys, "enumerate", "--kind", kind, "--d", "1100", "--e", e)
        assert (code, out) == (3, "")
        assert err == "error: degree 1100 exceeds the cap 7; pass --cap to override\n"

    def test_mnr_cap_exceeded(self, capsys, monkeypatch):
        # the node counts sum to the degree: 10^8 + 1 here, about 10^8 codec letters
        monkeypatch.delenv("CYCLEFACTOR_MAX_D", raising=False)
        code, out, err = run(capsys, "enumerate", "--kind", "mnr", "--vertex-data", "1,100000000")
        assert (code, out) == (3, "")
        assert err == "error: degree 100000001 exceeds the cap 7; pass --cap to override\n"

    @pytest.mark.parametrize("kind", ["factorization", "graph"])
    def test_cap_override(self, capsys, monkeypatch, kind):
        monkeypatch.setenv("CYCLEFACTOR_MAX_D", "3")
        argv = ("enumerate", "--kind", kind, "--d", "4", "--e", "2,2,2")
        assert run(capsys, *argv)[0] == 3
        code, out, _ = run(capsys, *argv, "--cap", "4")
        assert code == 0 and len(out.strip().split("\n")) == 16

    @pytest.mark.parametrize("d", ["0", "-1"])
    @pytest.mark.parametrize("kind", ["factorization", "graph"])
    def test_nonpositive_degree(self, capsys, kind, d):
        code, out, err = run(capsys, "enumerate", "--kind", kind, "--d", d, "--e", "2")
        assert (code, out, err) == (2, "", "error: degree must be positive\n")

    def test_mnr_nonpositive_node_count(self, capsys):
        code, out, err = run(capsys, "enumerate", "--kind", "mnr", "--vertex-data", "0,1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "positive" in err

    def test_stats(self, capsys):
        argv = ("enumerate", "--kind", "factorization", "--d", "4", "--e", "2,2,2")
        assert run(capsys, *argv)[2] == "count: 16\n"
        code, out, err = run(capsys, *argv, "--stats")
        count, line = err.splitlines()
        stats = json.loads(line)
        assert (code, count, len(out.splitlines())) == (0, "count: 16", 16)
        assert list(stats) == ["nodes", "candidates", "dead_ends", "outputs", "seconds"]
        # every candidate is a dead end, enters a node, or is an output
        assert stats["candidates"] == stats["nodes"] - 1 + stats["dead_ends"] + stats["outputs"]
        assert stats["outputs"] == 16 and stats["seconds"] >= 0

    @pytest.mark.parametrize(
        "argv,counts",
        [
            (("--kind", "factorization", "--d", "3", "--e", "3,3"), {"nodes": 1, "targets": 1, "reuses": 0}),
            (("--kind", "mnr", "--vertex-data", "1,1"), {}),
        ],
        ids=["genus-1", "mnr"],
    )
    def test_stats_without_walker(self, capsys, argv, counts):
        code, _, err = run(capsys, "enumerate", *argv, "--stats")
        count, line = err.splitlines()
        stats = json.loads(line)
        assert (code, count, list(stats)) == (0, "count: 1", [*counts, "outputs", "seconds"])
        assert {k: stats[k] for k in counts} == counts and stats["outputs"] == 1

    def test_genus2_stream_pinned(self, capsys):
        # the fixture is the stream of the recursive search core, one factorization per line
        lines = (FIXTURES / "enumerate_d5_3333.txt").read_text().splitlines()
        expected = [
            json.dumps({"d": 5, "tau": [1, 2, 3, 4, 5], "sigmas": [list(map(int, s)) for s in line.split()]},
                       separators=(",", ":"))
            for line in lines
        ]
        code, out, err = run(capsys, "enumerate", "--kind", "factorization", "--d", "5", "--e", "3,3,3,3")
        assert (code, err, len(lines)) == (0, "count: 2625\n", 2625)
        assert out.splitlines() == expected

    def test_stream_bytes_pinned(self, capsys):
        assert stream_digest(capsys, 6) == ENUMERATE_DIGEST_D6

    @pytest.mark.parametrize("kind", ["factorization", "graph"])
    @pytest.mark.parametrize("d,e", WIDE_TYPES, ids=[f"{d}-{e}" for d, e in WIDE_TYPES])
    def test_wide_numbers_match_library_stream(self, capsys, d, e, kind):
        argv = ("--kind", kind, "--d", str(d), "--e", ",".join(map(str, e)), "--cap", str(d))
        code, out, err = run(capsys, "enumerate", *argv)
        lines = library_lines(d, e, kind)
        assert (code, err) == (0, f"count: {len(lines)}\n")
        assert out.splitlines() == lines

    @pytest.mark.parametrize("d,e", STREAM_TYPES, ids=[f"{d}-{e}" for d, e in STREAM_TYPES])
    def test_stream_equals_library_stream(self, capsys, d, e):
        code, out, err = run(capsys, "enumerate", "--kind", "factorization", "--d", str(d),
                             "--e", ",".join(map(str, e)), "--stats")
        stats: dict = {}
        lines = library_lines(d, e, "factorization", stats)
        count, line = err.splitlines()
        got = json.loads(line)
        assert (code, count, out.splitlines()) == (0, f"count: {len(lines)}", lines)
        assert got.pop("seconds") >= 0
        assert list(got.items()) == [*stats.items(), ("outputs", len(lines))]

    def test_closed_stdout_ends_quietly(self):
        # the reader keeps one line of 16,807 and closes the pipe, as `| head -1` does
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = ["enumerate", "--kind", "factorization", "--d", "7", "--e", "2,2,2,2,2,2", "--stats"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "cyclefactor.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert (proc.wait(timeout=60), err) == (0, b"")
        finally:
            proc.kill()
        assert json.loads(first)["sigmas"][0] == [1, 2]


class TestConvert:
    @pytest.mark.parametrize("roundtrip", [False, True], ids=["once", "roundtrip"])
    @pytest.mark.parametrize(
        "direction,source,expected", PINNED, ids=[f"{d}-{s}" for d, s, _ in PINNED]
    )
    def test_every_direction_on_fixtures(self, capsys, direction, source, expected, roundtrip):
        argv = ["convert", "--direction", direction, "--input", str(FIXTURES / f"{source}.json")]
        code, out, err = run(capsys, *argv, *(["--roundtrip"] if roundtrip else []))
        assert (code, out, err) == (0, (FIXTURES / f"{expected}.json").read_text(), "")

    @pytest.mark.parametrize(
        "direction,stdin,expected",
        [
            ("graph2fac", GRAPH_OWN_S, '{"d":3,"tau":[1,2,3],"sigmas":[[1,2],[2,3]]}'),
            ("mnr2fac", TREE_OWN_S, '{"d":3,"tau":[1,2,3],"sigmas":[[1,2],[2,3]]}'),
            ("mnr2graph", TREE_OWN_S, GRAPH_OWN_S),
            ("graph2mnr", GRAPH_OWN_S, TREE_OWN_S[:-1] + ',"labels":{"(0,1)":1,"(10,1)":2,"(20,1)":3}}'),
            (
                "fac2mnr",
                '{"d":3,"tau":[1,3,2],"sigmas":[[1,3,2]]}',
                '{"S":[4],"vertex_data":[1,2],"edges":[{"parent":0,"child":4,"beta":1}],'
                '"relabeling":{"1":1,"2":3,"3":2}}',
            ),
            (
                "mnr2prufer",
                '{"S":[3],"vertex_data":[2,1],"edges":[{"parent":0,"child":3,"beta":2}]}',
                '{"S":[3],"vertex_data":[2,1],"top":[0],"bottom":[2]}',
            ),
            (
                "graph2mnr",
                '{"d":3,"S":[4,5],"edges":[[4,1],[4,3],[5,2],[5,3]],"tau":[1,3,2]}',
                '{"S":[4,5],"vertex_data":[1,1,1],"edges":[{"parent":0,"child":4,"beta":1},'
                '{"parent":4,"child":5,"beta":1}],"labels":{"(0,1)":1,"(4,1)":2,"(5,1)":3}}',
            ),
        ],
        ids=["graph-own-s", "tree-own-s", "tree-keeps-s", "graph-keeps-s",
             "nonstandard-tau", "multi-node-root", "graph-nonstandard-tau"],
    )
    def test_roundtrip_edge_cases(self, capsys, monkeypatch, direction, stdin, expected):
        # A factorization carries no S, so the way back through one names S as
        # graph_of does, and the comparison allows for that; a round trip that
        # avoids factorizations keeps S.  fac2mnr and graph2mnr relabel tau to
        # (1 2 ... d), and mnr2prufer reads the bare tree, so a multi-node root
        # encodes.
        code, out, err = run(
            capsys, "convert", "--direction", direction, "--roundtrip",
            stdin=stdin, monkeypatch=monkeypatch,
        )
        assert (code, out, err) == (0, expected + "\n", "")

    @pytest.mark.parametrize("roundtrip", [False, True], ids=["once", "roundtrip"])
    @pytest.mark.parametrize(
        "direction, stdin, expected", NEGATIVE_S, ids=["graph2mnr", "mnr2graph", "mnr2fac-down", "mnr2fac-up"]
    )
    def test_negative_s_round_trips(self, capsys, monkeypatch, direction, stdin, expected, roundtrip):
        argv = ["convert", "--direction", direction, *(["--roundtrip"] if roundtrip else [])]
        assert run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch) == (0, expected + "\n", "")

    @pytest.mark.parametrize("roundtrip", [False, True], ids=["once", "roundtrip"])
    @pytest.mark.parametrize("direction, stdin, expected", HUGE_D, ids=[d for d, _, _ in HUGE_D])
    def test_small_support_in_huge_degree(self, capsys, monkeypatch, direction, stdin, expected, roundtrip):
        argv = ["convert", "--direction", direction, *(["--roundtrip"] if roundtrip else [])]
        assert run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch) == (0, expected + "\n", "")

    @pytest.mark.parametrize("roundtrip", [False, True], ids=["once", "roundtrip"])
    @pytest.mark.parametrize("stdin", NON_UNIQUE_LABELINGS, ids=["star", "chain"])
    @pytest.mark.parametrize("direction", ["mnr2graph", "mnr2fac"])
    def test_non_unique_labeling_rejected(self, capsys, monkeypatch, direction, stdin, roundtrip):
        code, out, err = run(
            capsys, "convert", "--direction", direction, *(["--roundtrip"] if roundtrip else []),
            stdin=stdin, monkeypatch=monkeypatch,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "unique labeling" in err

    def test_off_circle_bytes_pinned(self, capsys, monkeypatch):
        # every genus-0 factorization at d <= 4, and its graph, on five circles each
        assert convert_digest(capsys, monkeypatch) == CONVERT_DIGEST_OFF_CIRCLE

    def test_input_file_is_closed(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run(
                capsys, "convert", "--direction", "fac2graph",
                "--input", str(FIXTURES / "factorization.json"),
            )
            gc.collect()
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_fac2graph_golden(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "convert", "--direction", "fac2graph", "--roundtrip",
            stdin=we.FACTORIZATION_JSON, monkeypatch=monkeypatch,
        )
        assert code == 0 and out == we.GRAPH_JSON

    def test_fac2mnr_golden(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "convert", "--direction", "fac2mnr", "--roundtrip",
            stdin=we.FACTORIZATION_JSON, monkeypatch=monkeypatch,
        )
        assert code == 0 and out == we.MNR_JSON

    def test_mnr2prufer_golden(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "convert", "--direction", "mnr2prufer", "--roundtrip",
            stdin=we.MNR_JSON, monkeypatch=monkeypatch,
        )
        assert code == 0 and out == we.MATRIX_JSON

    def test_prufer2mnr_inverts(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "convert", "--direction", "prufer2mnr", "--roundtrip",
            stdin=we.MATRIX_JSON, monkeypatch=monkeypatch,
        )
        assert code == 0 and out == we.MNR_JSON

    def test_graph2mnr_keeps_labels(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "convert", "--direction", "graph2mnr", "--roundtrip",
            stdin=we.GRAPH_JSON, monkeypatch=monkeypatch,
        )
        assert code == 0 and out == we.LABELED_MNR_JSON

    def test_mnr2fac_via_unique_labeling(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "convert", "--direction", "mnr2fac",
            stdin=we.MNR_JSON, monkeypatch=monkeypatch,
        )
        assert code == 0 and out == we.FACTORIZATION_JSON

    def test_star_roundtrip(self, capsys, monkeypatch):
        star = '{"d":3,"tau":[1,2,3],"sigmas":[[1,2,3]]}'
        code, out, _ = run(
            capsys, "convert", "--direction", "fac2graph", "--roundtrip",
            stdin=star, monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["edges"] == [[4, 1], [4, 2], [4, 3]]

    def test_nonstandard_tau_records_relabeling(self, capsys, monkeypatch):
        fac = '{"d":3,"tau":[1,3,2],"sigmas":[[1,3,2]]}'
        code, out, _ = run(
            capsys, "convert", "--direction", "fac2mnr",
            stdin=fac, monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["relabeling"] == {"1": 1, "2": 3, "3": 2}

    def test_predicate_failure_names_condition(self, capsys, monkeypatch):
        bad = '{"d":4,"S":[5,6],"edges":[[5,1],[5,2],[6,3],[6,4]],"tau":[1,2,3,4]}'
        code, _, err = run(
            capsys, "convert", "--direction", "graph2fac",
            stdin=bad, monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "not a tree" in err

    def test_roundtrip_mismatch_names_field(self, capsys, monkeypatch):
        # a way back that reverses the factors lands on other sigmas
        def reversed_factors(g):
            f = factorization_of(g)
            return dataclasses.replace(f, sigmas=f.sigmas[::-1])

        monkeypatch.setattr(cli, "_ARROWS", ((cli.graph_of, reversed_factors),) + cli._ARROWS[1:])
        code, _, err = run(
            capsys, "convert", "--direction", "fac2graph", "--roundtrip",
            "--input", str(FIXTURES / "factorization.json"),
        )
        assert (code, err) == (1, "roundtrip mismatch: field 'sigmas' differs\n")

    def test_roundtrip_at_d_10000(self, capsys, tmp_path):
        # a random bare tree of transpositions through the whole chain and back
        d = 10_000
        rng = random.Random(f"mnr2fac-{d}")
        sv = tuple(range(d + 1, 2 * d))
        top = tuple(rng.choice((0,) + sv) for _ in range(d - 2)) + (0,)
        tree = mnr_decode(PruferMatrix(top, (1,) * (d - 1)), sv, (1,) * d)
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(mnr_to_json(tree)))
        code, out, err = run(
            capsys, "convert", "--direction", "mnr2fac", "--roundtrip", "--input", str(path)
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["sigmas"]) == d - 1

    @pytest.mark.parametrize(
        "stdin", NOT_FACTORIZATIONS, ids=["swapped", "inverted", "outside-tau"]
    )
    @pytest.mark.parametrize("direction", ["fac2graph", "fac2mnr"])
    def test_not_a_factorization(self, capsys, monkeypatch, direction, stdin):
        code, out, err = run(
            capsys, "convert", "--direction", direction, stdin=stdin, monkeypatch=monkeypatch
        )
        assert (code, out) == (2, "")
        assert err == "error: not a factorization: the ordered product is not tau\n"

    @pytest.mark.parametrize(
        "sigmas, message",
        [
            ("[]", "need at least one factor length (r >= 2)"),
            ("[[1],[1,2,3]]", "factor lengths must lie in [2, 3]: (1, 3)"),
            ("[[1,2],[2,3],[1,3]]", "sum(e_i - 1) = 3 is not d-1+2g for a nonnegative integer g (d = 3)"),
        ],
        ids=["no-factors", "1-cycle", "half-integer-genus"],
    )
    def test_bad_type_is_refused_by_the_reader(self, capsys, monkeypatch, sigmas, message):
        stdin = f'{{"d":3,"tau":[1,2,3],"sigmas":{sigmas}}}'
        code, out, err = run(capsys, "convert", "--direction", "fac2graph", stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("roundtrip", [False, True], ids=["once", "roundtrip"])
    @pytest.mark.parametrize("stdin, genus", POSITIVE_GENUS, ids=["transpositions", "3-cycles", "genus-2"])
    def test_positive_genus_has_no_tree(self, capsys, monkeypatch, stdin, genus, roundtrip):
        argv = ["convert", "--direction", "fac2mnr", *(["--roundtrip"] if roundtrip else [])]
        code, out, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == f"error: a genus-{genus} factorization has no multi-noded tree: only genus 0 folds\n"

    @pytest.mark.parametrize(
        "direction,stdin",
        [("graph2fac", LONE_VERTEX), ("mnr2fac", '{"S":[],"vertex_data":[1],"edges":[]}')],
        ids=["graph", "tree"],
    )
    def test_lone_vertex_has_no_factorization(self, capsys, monkeypatch, direction, stdin):
        code, out, err = run(capsys, "convert", "--direction", direction, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == (
            "error: the lone vertex is the graph of the empty factorization, "
            "which a Factorization cannot hold\n"
        )
        code, out, _ = run(capsys, "convert", "--direction", "graph2mnr", stdin=LONE_VERTEX, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["vertex_data"] == [1]

    def test_bad_json(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, "convert", "--direction", "fac2graph",
            stdin="not json", monkeypatch=monkeypatch,
        )
        assert code == 2 and err

    @pytest.mark.parametrize(
        "stdin",
        ["[1,2]", '{"d":3,"tau":[1,2,3],"sigmas":[["a",2],[2,3]]}'],
        ids=["top-level-array", "string-element"],
    )
    def test_malformed_json_shape(self, capsys, monkeypatch, stdin):
        code, out, err = run(
            capsys, "convert", "--direction", "fac2graph",
            stdin=stdin, monkeypatch=monkeypatch,
        )
        assert code == 2 and not out
        assert err.startswith("error: ") and "Traceback" not in err


class TestOneProofPerGraph:
    @pytest.fixture
    def proofs(self, monkeypatch):
        """Counts of gate and validate calls, through every module that binds them."""
        counts = collections.Counter()

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)

            return call

        for name, fn in (("gate_failure", graph.gate_failure), ("validate", factorization.validate)):
            for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "cyclefactor"]:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted(name, fn))
        return counts

    def test_arrows_trust_their_graph(self, proofs):
        lm = unique_labeling(mnr_from_json(json.loads(we.MNR_JSON)))[0]
        f = factorization_of(psi(lm))
        assert phi_labeled(graph.graph_of(f)) == lm
        graph.decompose_at_last(graph.graph_of(f))
        assert proofs == {}

    @pytest.mark.parametrize("roundtrip", [False, True], ids=["once", "roundtrip"])
    @pytest.mark.parametrize(
        "direction,source,gates,validates", PROOFS, ids=[d for d, *_ in PROOFS]
    )
    def test_convert_proves_each_input_once(
        self, capsys, proofs, direction, source, gates, validates, roundtrip
    ):
        argv = ["convert", "--direction", direction, "--input", str(FIXTURES / f"{source}.json")]
        code, _, _ = run(capsys, *argv, *(["--roundtrip"] if roundtrip else []))
        assert code == 0
        assert (proofs["gate_failure"], proofs["validate"]) == (gates[roundtrip], validates[roundtrip])


class TestVerify:
    def test_small_cap_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-d", "3")
        assert code == 0
        assert "11/11 checks passed" in out
        assert "FAIL" not in out

    def test_prufer_sweep_follows_max_d(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-d", "3", "--only", "prufer")
        assert code == 0 and "node total <= 4" in out

    def test_cross_formulas_names_each_reach(self, capsys):
        # each closed formula is checked against brute force to its own degree, whatever --max-d
        code, out, _ = run(capsys, "verify", "--only", "cross-formulas", "--max-d", "9")
        assert (code, out) == (
            0,
            "PASS  cross-formulas  4pt d <= 5, simple d <= 4, index d <= 6\n1/1 checks passed\n",
        )

    def test_only_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-d", "3", "--only", "golden")
        assert code == 0
        assert "golden-files" in out and "main-count" not in out

    def test_only_transpositions(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-d", "5", "--only", "transpositions")
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("only", ["transpositions", "i"])
    def test_transpositions_past_the_cap(self, capsys, monkeypatch, only):
        # the transpositions check brute-forces every degree up to --max-d
        monkeypatch.delenv("CYCLEFACTOR_MAX_D", raising=False)
        code, out, err = run(capsys, "verify", "--max-d", "10", "--only", only)
        assert (code, out) == (3, "")
        assert err == (
            "error: verify brute-forces degree 10, past the cap 7; "
            "set CYCLEFACTOR_MAX_D to override\n"
        )

    def test_env_cap_bounds_transpositions(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLEFACTOR_MAX_D", "4")
        argv = ("verify", "--max-d", "5", "--only", "transpositions")
        code, _, err = run(capsys, *argv)
        assert code == 3 and "past the cap 4" in err
        monkeypatch.setenv("CYCLEFACTOR_MAX_D", "5")
        assert run(capsys, *argv)[:2] == (0, "PASS  transpositions  d <= 5\n1/1 checks passed\n")

    def test_cap_spares_checks_without_brute_force(self, capsys, monkeypatch):
        monkeypatch.delenv("CYCLEFACTOR_MAX_D", raising=False)
        code, out, _ = run(capsys, "verify", "--max-d", "10", "--only", "golden")
        assert code == 0 and "1/1 checks passed" in out

    @pytest.mark.parametrize(
        "argv", [("--max-d", "1"), ("--max-d", "-3", "--only", "prufer")], ids=["1", "-3"]
    )
    def test_degree_cap_below_two(self, capsys, argv):
        # no degree below 2 has a factorization, so nothing would be tested
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: --max-d must be at least 2")

    def test_unknown_filter(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "nonexistent-check")
        assert code == 2 and "no checks match" in err

    def test_failing_check(self, capsys, monkeypatch):
        # a walker count one too many fails main-count on its first type
        real = verify.count_factorizations

        def one_too_many(d, e, method="bruteforce", stats=None):
            return real(d, e, method, stats) + (method == "bruteforce")

        monkeypatch.setattr(verify, "count_factorizations", one_too_many)
        code, out, _ = run(capsys, "verify", "--only", "main-count", "--max-d", "3")
        assert (code, out) == (
            1,
            "FAIL  main-count  d=2 e=(2,): walker 2, Cayley prune 1, expected 1\n0/1 checks passed\n",
        )


    def test_whole_table(self, capsys):
        assert run(capsys, "verify", "--max-d", "4")[:2] == (0, VERIFY_D4)

    @pytest.mark.parametrize(
        "check, name, fake, detail", FAILING_CHECKS, ids=[case[0] for case in FAILING_CHECKS]
    )
    def test_each_check_fails(self, capsys, monkeypatch, check, name, fake, detail):
        monkeypatch.setattr(verify, name, fake())
        code, out, _ = run(capsys, "verify", "--max-d", "3", "--only", check)
        assert (code, out) == (1, f"FAIL  {check}  {detail}\n0/1 checks passed\n")

class TestExport:
    def test_graph_dot(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "export", stdin=we.GRAPH_JSON, monkeypatch=monkeypatch)
        assert code == 0
        assert out.startswith("graph factorization {")
        assert out.count("shape=point") == 20
        assert out.count("shape=circle") == 9

    def test_mnr_dot(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "export", stdin=we.MNR_JSON, monkeypatch=monkeypatch)
        assert code == 0
        assert out.count("label=") == 10
        assert out.count(" -- ") == 9

    def test_labeled_mnr_dot_shows_labels(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "export", stdin=we.LABELED_MNR_JSON, monkeypatch=monkeypatch)
        assert code == 0
        assert "<p4> 12" in out

    def test_unrecognized_input(self, capsys, monkeypatch):
        code, _, err = run(capsys, "export", stdin='{"x":1}', monkeypatch=monkeypatch)
        assert code == 2 and err

    def test_non_factorization_graph_dot(self, capsys, monkeypatch):
        # the gate sits in convert's reader, so export draws any S-[d] bipartite graph
        code, out, err = run(capsys, "export", stdin=READING_NOT_TAU, monkeypatch=monkeypatch)
        assert (code, err) == (0, "")
        assert out.startswith("graph factorization {")
        assert out.count(" -- ") == 4


class TestPrufer:
    def test_encode(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "prufer", "--mode", "encode",
            stdin='{"S":[5,7],"edges":[[0,5],[5,7]]}', monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {"S": [5, 7], "sequence": [5, 0]}

    def test_decode(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "prufer", "--mode", "decode",
            stdin='{"S":[5,7],"sequence":[5,0]}', monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {"S": [5, 7], "edges": [[0, 5], [5, 7]]}

    def test_trivial_tree(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, "prufer", "--mode", "encode",
            stdin='{"S":[],"edges":[]}', monkeypatch=monkeypatch,
        )
        assert code == 2 and err

    def test_decode_trivial_tree(self, capsys, monkeypatch):
        argv = ("prufer", "--mode", "decode")
        code, out, err = run(capsys, *argv, stdin='{"S":[],"sequence":[]}', monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", "error: the trivial tree has no codec\n")


class TestInputErrorsNameTheField:
    # codec input whose S repeats a value or holds 0 has no tree
    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (("prufer", "--mode", "decode"), '{"sequence":[5,0],"S":[5,5]}'),
            (
                ("convert", "--direction", "prufer2mnr"),
                '{"S":[0],"vertex_data":[1,1],"top":[0],"bottom":[1]}',
            ),
            (
                ("convert", "--direction", "prufer2mnr"),
                '{"S":[5,5],"vertex_data":[1,1,1],"top":[5,0],"bottom":[1,1]}',
            ),
            (("enumerate", "--kind", "mnr", "--vertex-data", "1,1,1", "--s", "5,5"), None),
        ],
        ids=["prufer-repeated", "prufer2mnr-zero", "prufer2mnr-repeated", "enumerate-repeated"],
    )
    def test_bad_s(self, capsys, monkeypatch, argv, stdin):
        code, out, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert err.startswith("error: S must hold distinct nonzero values")

    # vertex_data follows the order of S, so an S out of order has no reading
    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (("convert", "--direction", "prufer2mnr"), UNSORTED_S_MATRIX),
            (("convert", "--direction", "prufer2mnr", "--roundtrip"), UNSORTED_S_MATRIX),
            (("enumerate", "--kind", "mnr", "--vertex-data", "1,2,1", "--s", "5,-3"), None),
        ],
        ids=["prufer2mnr", "prufer2mnr-roundtrip", "enumerate"],
    )
    def test_s_out_of_order(self, capsys, monkeypatch, argv, stdin):
        code, out, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
        message = "S must be strictly increasing, since vertex_data follows its order, got [5, -3]"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "direction, stdin, message", [case[1:] for case in BAD_TREES], ids=[case[0] for case in BAD_TREES]
    )
    def test_bad_tree(self, capsys, monkeypatch, direction, stdin, message):
        argv = ("convert", "--direction", direction)
        assert run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "stdin, message", [case[1:] for case in BAD_MATRICES], ids=[case[0] for case in BAD_MATRICES]
    )
    def test_bad_matrix(self, capsys, monkeypatch, stdin, message):
        argv = ("convert", "--direction", "prufer2mnr")
        assert run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "direction, stdin, message", [case[1:] for case in BAD_CYCLES], ids=[case[0] for case in BAD_CYCLES]
    )
    def test_bad_cycle_or_s(self, capsys, monkeypatch, direction, stdin, message):
        argv = ("convert", "--direction", direction)
        assert run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "stdin, message",
        [(S_INSIDE_D, "S-vertices must avoid [0, 3]"), (BAD_EDGES, "edge (4, 9) is not S-to-[d]")],
        ids=["s-inside-d", "bad-edges"],
    )
    @pytest.mark.parametrize(
        "argv",
        [("convert", "--direction", "graph2fac"), ("convert", "--direction", "graph2mnr"), ("export",)],
        ids=["graph2fac", "graph2mnr", "export"],
    )
    def test_bad_graph(self, capsys, monkeypatch, argv, stdin, message):
        assert run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("roundtrip", [False, True], ids=["once", "roundtrip"])
    @pytest.mark.parametrize("direction", ["mnr2graph", "mnr2fac"])
    def test_tree_s_inside_d(self, capsys, monkeypatch, direction, roundtrip):
        argv = ["convert", "--direction", direction, *(["--roundtrip"] if roundtrip else [])]
        code, out, err = run(capsys, *argv, stdin=TREE_S_INSIDE_D, monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", "error: S-vertices must avoid [0, 3]\n")

    @pytest.mark.parametrize(
        "argv",
        [("convert", "--direction", "fac2graph"), ("export",), ("prufer", "--mode", "encode")],
        ids=["convert", "export", "prufer"],
    )
    def test_deep_nesting(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out, err) == (2, "", "error: input nests too deeply to parse\n")

    def test_label_key_without_position(self, capsys, monkeypatch):
        tree = (
            '{"S":[5],"vertex_data":[1,1],"edges":[{"parent":0,"child":5,"beta":1}],'
            '"labels":{"(0,1)":1,"(5)":2}}'
        )
        code, out, err = run(
            capsys, "convert", "--direction", "mnr2graph", stdin=tree, monkeypatch=monkeypatch
        )
        assert code == 2 and not out
        assert err.startswith("error: labels keys must read \"(vertex,position)\", got '(5)'")

    def test_cycle_index_without_multiplicity(self, capsys):
        code, out, err = run(capsys, "count", "--d", "3", "--cycle-index", "2")
        assert code == 2 and not out
        assert err.startswith("error: --cycle-index must list length:multiplicity pairs")

    def test_cycle_index_repeated_length(self, capsys):
        # a later pair must not overwrite an earlier one of the same length
        code, out, err = run(capsys, "count", "--d", "3", "--cycle-index", "2:5,2:2")
        assert (code, out, err) == (2, "", "error: --cycle-index repeats length 2\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--d", "1", "--cycle-index", "2:0"), "bad cycle index {2: 0} for degree 1"),
            (("--d", "1", "--cycle-index", "2:0", "--hurwitz"), "bad cycle index {2: 0} for degree 1"),
            (("--d", "3", "--cycle-index", "2:2,9:0"), "bad cycle index {2: 2, 9: 0} for degree 3"),
            (("--d", "3", "--cycle-index", "2:0"), "cycle index must list at least one factor"),
        ],
        ids=["d1", "d1-hurwitz", "length-9", "no-factor"],
    )
    def test_cycle_index_zero_multiplicity(self, capsys, argv, message):
        # a length listed with multiplicity 0 is range-checked too, and an index needs a factor
        code, out, err = run(capsys, "count", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
