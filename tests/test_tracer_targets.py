"""The benchmark's tracer wraps tansec functions by name; a rename or deletion
in tansec must fail here, not only in the slow benchmark smoke test."""

import importlib.util
from pathlib import Path

from tansec.newton import NewtonConfig

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _tracer()
    resolved = tracer.originals()
    for name, (_, _, original) in resolved.items():
        assert callable(original), name


def test_newton_hook_reads_max_iters():
    # the Newton hook tells an iteration cap from exhausted halvings by it
    assert NewtonConfig().max_iters > 0
