"""The benchmark's hooks into the package. perfbench/tracing.py wraps
module attributes by name and skips the ones it cannot find, and
perfbench/run.py times each estimator at ``cli._risk_files``; a rename or a
deletion on the package side would silently blind either one."""

import inspect
import types
from pathlib import Path

from sparse_minimax import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # executed from source, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_site_exists():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_the_per_estimator_timing_boundary_exists():
    # RiskFilesTimer calls it as original(mapping, threads)
    assert list(inspect.signature(cli._risk_files).parameters) == ["mapping", "threads"]
