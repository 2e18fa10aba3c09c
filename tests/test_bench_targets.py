"""The names the benchmark's tracer patches stay in the package, and
the benchmark's own tests pass against it.

`perfbench/spans.py` wraps package functions by name to time each layer;
a target it cannot find is skipped with a note and records 0 calls, so a
rename would quietly empty a per-layer metric.  This reads `perfbench/`
and changes nothing there."""

import os
import subprocess
import sys
from pathlib import Path

import fracnls.dependence
import fracnls.grid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_found(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer(spans.SpanRecorder())
    try:
        tracer.install()
        assert tracer.notes == []
    finally:
        tracer.uninstall()


def test_dependence_measures_with_the_grid_lebesgue_norm():
    # the tracer times grid.lebesgue_norm through this imported name
    assert fracnls.dependence.lebesgue_norm is fracnls.grid.lebesgue_norm


def test_perfbench_suite_passes():
    # its conftest clashes with this suite's in one pytest session, so it
    # runs in a child process from the repo root
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/tests"],
        cwd=PERFBENCH.parent, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr
