"""Every layer the benchmark's tracer wraps must exist under its traced name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import cyclefactor

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    # loaded by path, as perfbench is not a package
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module,attr", _traced(), ids=lambda part: part)
def test_traced_name_resolves(module, attr):
    importlib.import_module(f"cyclefactor.{module}")
    owner = getattr(cyclefactor, module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
