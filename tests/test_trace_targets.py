"""Every library function the benchmark traces still exists.

The benchmark's tracer skips a target that no longer resolves and only
reports it as absent, so a rename would silently empty a per-layer span.
This test turns such a rename into a failure.
"""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load_tracing()
    assert tracing.SPAN_TARGETS and tracing.COUNT_TARGETS
    tracer = tracing.Tracer()
    tracer.install()  # as a traced benchmark run does
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
