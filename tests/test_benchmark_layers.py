"""The benchmark tracer wraps package functions by name: every name it
lists must still exist, or its per-layer metrics silently read 0."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LAYERS = sorted(set(_tracing().SPANNED) | set(_tracing().COUNTED)) + [
    ("montecarlo", "_marginal_grid"), ("montecarlo", "SimConfig")]


@pytest.mark.parametrize("module, attr", _LAYERS)
def test_traced_layer_resolves(module, attr):
    owner = importlib.import_module(f"levy_transience.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
