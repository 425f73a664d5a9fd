"""The benchmark's tracer finds every glppm attribute it wraps."""

import importlib.util
from pathlib import Path


def test_every_traced_hook_resolves():
    # a refactor that drops or renames a traced name fails here, not only
    # in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
