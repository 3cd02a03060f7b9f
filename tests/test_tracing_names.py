"""The benchmark's tracer looks up library names with ``getattr``; every
name it wraps must exist, or a traced benchmark run fails at start-up."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(span, module_name, attr) for span, refs in module.WRAPPED.items()
            for module_name, attr in refs]


@pytest.mark.parametrize("span,module_name,attr", _wrapped())
def test_wrapped_name_resolves(span, module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
