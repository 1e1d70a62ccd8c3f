"""The benchmark tracer finds every function it wraps under the name it uses."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # stdlib imports only; installs nothing
    return sorted(set(tracer.SPANNED) | set(tracer.COUNTED))


@pytest.mark.parametrize("module, function", _traced_names())
def test_traced_name_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"holoest.{module}"), function, None))
