"""Each benchmark workload runs one operation against the library and passes its oracle check."""

import importlib.util
import random
from pathlib import Path

import pytest

import cyclefactor
import cyclefactor.cli  # search-genus0 calls cyclefactor.cli.main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads(monkeypatch):
    # loaded by path, as perfbench is not a package; workloads.py imports
    # its oracles as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


@pytest.mark.parametrize(
    "name", ["search-genus0", "search-genus1", "roundtrip-small", "roundtrip-large"]
)
def test_one_operation_passes_its_check(monkeypatch, name):
    workload = _workloads(monkeypatch)[name](cyclefactor, random.Random(1))
    op, check = next(iter(workload.round(0)))
    objects, ok = check(op())
    assert ok and objects > 0
