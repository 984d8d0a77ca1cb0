"""The command-line surface: flags, formats, exit codes."""

import gc
import json
import warnings
from pathlib import Path

import pytest

from cyclefactor import worked_example as we
from cyclefactor.cli import main

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

# A valid graph and tree whose S-vertices are not {d+1, ..., d+r-1}
GRAPH_OWN_S = '{"d":3,"S":[10,20],"edges":[[10,1],[10,2],[20,2],[20,3]],"tau":[1,2,3]}'
TREE_OWN_S = (
    '{"S":[10,20],"vertex_data":[1,1,1],"edges":[{"parent":0,"child":10,"beta":1},'
    '{"parent":10,"child":20,"beta":1}]}'
)


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_mnr_default_s(self, capsys):
        code, out, err = run(capsys, "enumerate", "--kind", "mnr", "--vertex-data", "1,1")
        assert code == 0
        assert json.loads(out) == {
            "S": [3],
            "vertex_data": [1, 1],
            "edges": [{"parent": 0, "child": 3, "beta": 1}],
        }
        assert "count: 1" in err

    def test_mnr_nonpositive_node_count(self, capsys):
        code, out, err = run(capsys, "enumerate", "--kind", "mnr", "--vertex-data", "0,1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "positive" in err


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
    @pytest.mark.parametrize("stdin", NON_UNIQUE_LABELINGS, ids=["star", "chain"])
    @pytest.mark.parametrize("direction", ["mnr2graph", "mnr2fac"])
    def test_non_unique_labeling_rejected(self, capsys, monkeypatch, direction, stdin, roundtrip):
        code, out, err = run(
            capsys, "convert", "--direction", direction, *(["--roundtrip"] if roundtrip else []),
            stdin=stdin, monkeypatch=monkeypatch,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "unique labeling" in err

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


class TestVerify:
    def test_small_cap_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-d", "3")
        assert code == 0
        assert "11/11 checks passed" in out
        assert "FAIL" not in out

    def test_prufer_sweep_follows_max_d(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-d", "3", "--only", "prufer")
        assert code == 0 and "node total <= 4" in out

    def test_only_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-d", "3", "--only", "golden")
        assert code == 0
        assert "golden-files" in out and "main-count" not in out

    def test_only_transpositions(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-d", "5", "--only", "transpositions")
        assert code == 0 and "PASS" in out

    def test_unknown_filter(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "nonexistent-check")
        assert code == 2 and "no checks match" in err


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
