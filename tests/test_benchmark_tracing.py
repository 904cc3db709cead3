import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _, _ in load_tracing().BOUNDARIES],
    ids=lambda v: getattr(v, "__name__", v))
def test_traced_boundary_is_a_module_callable(module, attr):
    # the benchmark tracer wraps these attributes by name; a refactor that
    # drops or renames one fails here, not only in a traced benchmark run
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
