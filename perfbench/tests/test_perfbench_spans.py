"""Span arithmetic, pool attribution and wrapper installation."""

import concurrent.futures
import time

import numpy as np
import pytest

import fracnls.dependence
import fracnls.grid
import fracnls.nonlinearity
import fracnls.solver
import spans as spanlib
from spans import Span, SpanRecorder, Tracer, layer_metrics, self_times


def _tree():
    # main thread 1 runs cli.main, the experiment and the base solve;
    # worker threads 2 and 3 run one row each, in parallel
    return [
        Span(1, "cli.main", 0.0, 10.0, 0, 1),
        Span(2, "dependence.run", 1.0, 9.0, 1, 1, {"rows": 2}),
        Span(3, "solver.picard", 1.0, 3.0, 2, 1, {"sweeps": 4}),
        Span(4, "solver.picard", 3.0, 8.0, 2, 2, {"sweeps": 5}),
        Span(5, "solver.picard", 3.0, 7.0, 2, 3,
             {"sweeps": 6, "nonconverged": 1}),
        Span(6, "grid.fft", 4.0, 5.0, 4, 2, {"points": 64, "flops": 1.0}),
        Span(7, "grid.fft", 4.5, 6.0, 5, 3, {"points": 64, "flops": 1.0}),
        Span(8, "spaces.spacetime_norm", 0.1, 0.9, 1, 1),
        Span(9, "spaces.spacetime_norm", 0.2, 0.5, 8, 1),
    ]


def test_self_time_nested_and_threaded():
    own = self_times(_tree())
    assert own[1] == pytest.approx(10.0 - 8.0 - 0.8)
    # the two rows overlap in time; covered time is counted once
    assert own[2] == pytest.approx(8.0 - 7.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(5.0 - 1.0)
    assert own[5] == pytest.approx(4.0 - 1.5)
    assert own[8] == pytest.approx(0.8 - 0.3)
    assert all(value >= 0.0 for value in own.values())


def test_layer_metrics_on_synthetic_tree():
    m = layer_metrics(_tree(), threads=2)
    assert m["cli.main_s"] == pytest.approx(10.0)
    assert m["cli.self_s"] == pytest.approx(1.2)
    assert m["dependence.run_s"] == pytest.approx(8.0)
    assert m["dependence.self_s"] == pytest.approx(1.0)
    assert m["dependence.busy_ratio"] == pytest.approx((2 + 5 + 4) / 16)
    assert m["dependence.rows"] == 2
    assert m["solver.picard_calls"] == 3
    assert m["solver.picard_s"] == pytest.approx(11.0)
    assert m["solver.picard_self_s"] == pytest.approx(2 + 4 + 2.5)
    assert m["solver.picard_sweeps"] == 15
    assert m["solver.picard_nonconverged"] == 1
    assert m["grid.fft_calls"] == 2 and m["grid.fft_points"] == 128
    assert m["grid.fft_s"] == pytest.approx(2.5)
    # nested same-name spans: inclusive time counts the outer one only
    assert m["spaces.spacetime_norm_calls"] == 2
    assert m["spaces.spacetime_norm_s"] == pytest.approx(0.8)
    assert m["spaces.spacetime_norm_self_s"] == pytest.approx(0.8)
    assert m["nonlinearity.remainder_K_calls"] == 0
    assert m["nonlinearity.remainder_K_s"] == 0


def test_pool_work_is_attributed_to_the_submitting_span():
    recorder = SpanRecorder()
    pool_type = type("Pool", (spanlib._PoolWithParent,),
                     {"recorder": recorder})

    def row(k):
        with recorder.span("solver.picard"):
            time.sleep(0.02)
        return k

    with recorder.span("dependence.run") as attrs:
        with pool_type(max_workers=2) as pool:
            assert list(pool.map(row, range(4))) == [0, 1, 2, 3]
        attrs["rows"] = 4
    run = next(s for s in recorder.spans if s.name == "dependence.run")
    rows = [s for s in recorder.spans if s.name == "solver.picard"]
    assert len(rows) == 4
    assert all(s.parent == run.id for s in rows)
    assert all(s.thread != run.thread for s in rows)
    m = layer_metrics(recorder.spans, threads=2)
    assert 0.0 < m["dependence.busy_ratio"] <= 1.0
    assert m["dependence.self_s"] >= 0.0


def _original_targets():
    return (fracnls.grid.lebesgue_norm, fracnls.dependence.lebesgue_norm,
            fracnls.grid.Field.__post_init__, np.fft.fftn,
            fracnls.dependence.ThreadPoolExecutor)


def test_install_wraps_every_namespace_and_uninstall_restores():
    before = _original_targets()
    tracer = Tracer(SpanRecorder()).install()
    try:
        assert fracnls.dependence.lebesgue_norm is fracnls.grid.lebesgue_norm
        assert fracnls.grid.lebesgue_norm is not before[0]
        assert np.fft.fftn is not before[3]
        assert fracnls.dependence.ThreadPoolExecutor is not before[4]
        assert tracer.notes == []
    finally:
        tracer.uninstall()
    assert _original_targets() == before
    assert (fracnls.dependence.ThreadPoolExecutor
            is concurrent.futures.ThreadPoolExecutor)


def test_fft_counts_points_bytes_and_flops():
    recorder = SpanRecorder()
    with Tracer(recorder):
        np.fft.fftn(np.zeros((3, 8, 8), dtype=complex), axes=(1, 2))
        np.fft.ifft(np.zeros(16, dtype=complex))
    ffts = [s.attrs for s in recorder.spans if s.name == "grid.fft"]
    assert len(ffts) == 2
    assert ffts[0]["points"] == 192
    assert ffts[0]["flops"] == pytest.approx(5 * 192 * 6)
    assert ffts[0]["bytes"] == 2 * 192 * 16
    assert ffts[1]["points"] == 16
    assert ffts[1]["flops"] == pytest.approx(5 * 16 * 4)
    assert spanlib.fft_backends(recorder.spans) == {"numpy.fft": 2}


def test_scipy_fft_is_counted_as_its_own_backend():
    scipy_fft = pytest.importorskip("scipy.fft")
    recorder = SpanRecorder()
    with Tracer(recorder):
        scipy_fft.fftn(np.zeros((2, 4, 4), dtype=complex), axes=(1, 2),
                       workers=1)
    (span,) = [s for s in recorder.spans if s.name == "grid.fft"]
    assert span.attrs["backend"] == "scipy.fft"
    assert span.attrs["points"] == 32
    assert span.attrs["flops"] == pytest.approx(5 * 32 * 4)


def test_missing_public_name_gives_zero_calls_and_a_note(monkeypatch):
    # as if a later version renamed smallness_check and dropped the pool
    monkeypatch.delattr(fracnls.solver, "smallness_check")
    monkeypatch.delattr(fracnls.dependence, "ThreadPoolExecutor")
    recorder = SpanRecorder()
    with Tracer(recorder) as tracer:
        fracnls.grid.lebesgue_norm(
            fracnls.grid.gaussian(fracnls.grid.Grid(1, 16, 8.0)), 2.0)
    assert any("smallness_check" in note for note in tracer.notes)
    assert any("ThreadPoolExecutor" in note for note in tracer.notes)
    m = layer_metrics(recorder.spans, threads=1)
    assert m["solver.smallness_calls"] == 0
    assert m["grid.lebesgue_norm_calls"] == 1
    assert m["grid.field_calls"] == 1


def test_failing_result_hook_is_noted_not_raised(monkeypatch):
    def broken(out, attrs, args, kwargs):
        raise AttributeError("no iterations")

    targets = tuple(
        t if t[0] != "solver.picard" else t[:3] + (broken, t[4])
        for t in spanlib.LAYER_TARGETS)
    monkeypatch.setattr(spanlib, "LAYER_TARGETS", targets)
    params = fracnls.solver.PicardConfig(metric_pair=(40.0, 20.0 / 9.0))
    grid = fracnls.grid.Grid(1, 16, 8.0)
    with Tracer(SpanRecorder()) as tracer:
        _, report = fracnls.solver.picard_duhamel(
            fracnls.grid.gaussian(grid, 0.05),
            fracnls.nonlinearity.PowerNonlinearity(1.0, 2.0),
            fracnls.solver.TimeGrid(0.1, 4), params)
    assert report.converged
    assert any("broken failed" in note for note in tracer.notes)
