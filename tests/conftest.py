"""Fixtures shared by the test modules."""

import io
import json
import sys

import pytest

from cyclefactor import cli
from cyclefactor.graph import gate_failure, graph_to_json


@pytest.fixture
def assert_gate_rejects(capsys, monkeypatch):
    """Assert that the gate gives a graph this reason, and that ``convert`` exits 2 with it."""

    def check(g, reason):
        assert gate_failure(g) == reason
        text = json.dumps(graph_to_json(g))
        for direction in ("graph2fac", "graph2mnr"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code = cli.main(["convert", "--direction", direction])
            out, err = capsys.readouterr()
            assert (code, out, err) == (2, "", f"error: not a factorization graph: {reason}\n")

    return check
