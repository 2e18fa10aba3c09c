"""Dependence-lab tests: family plumbing, fits, decay experiments."""

import dataclasses
import json
import math
import threading
import warnings
from functools import partial

import numpy as np
import pytest

import fracnls.dependence as dep
from fracnls.dependence import (DependenceReport, DependenceRow,
                                PerturbationFamily, choose_horizon,
                                default_direction, fit_slope,
                                lipschitz_constant, loglog_fit,
                                remainder_decay_experiment, run_dependence,
                                static_remainder_decay)
from fracnls.exponents import ProblemParams, canonical_pair, sigma
from fracnls.grid import (Field, Grid, gaussian, inner_product, lebesgue_norm,
                          lp_norm)
from fracnls.nonlinearity import PowerNonlinearity, remainder_K
from fracnls.solver import (IterationReport, NonConvergenceError,
                            PicardConfig, TimeGrid, picard_duhamel,
                            smallness_check, split_step)
from fracnls.spaces import (besov_norm_lp, offsets_kernel, sobolev_norm,
                            trapezoid_norm)
from trajectories import free_trajectory, stack_bytes, traced_peak

PARAMS = ProblemParams(dimension=1, regularity=0.4, power=2.0)
FREE = ProblemParams(dimension=1, regularity=0.4, power=2.0, coupling=0.0)
PAIR = canonical_pair(PARAMS)
CUBIC = PowerNonlinearity(1.0, 2.0)
GRID = Grid(1, 128, 32.0)
BASE = gaussian(GRID, 0.08, 2.0)
LIGHT_SHELLS = 12


def _config(**kw):
    return PicardConfig(metric_pair=PAIR, **kw)


@pytest.fixture(scope="module")
def direction():
    return default_direction(BASE, 0.4)


@pytest.fixture(scope="module")
def family(direction):
    return PerturbationFamily(BASE, direction, 0.01, 8, 0.4)


@pytest.fixture(scope="module")
def subcritical_report(family):
    return run_dependence(PARAMS, family, _config(), TimeGrid(0.25, 32))


@pytest.fixture(scope="module")
def free_report(family):
    return run_dependence(FREE, family, _config(), TimeGrid(0.25, 32))


# ------------------------------------------------------------------ family


def test_default_direction_is_unit_and_transverse(direction):
    assert sobolev_norm(direction, 0.4) == pytest.approx(1.0, rel=1e-12)
    assert abs(inner_product(BASE, direction)) < 1e-14


def test_family_validation(direction):
    other = Grid(1, 64, 32.0)
    with pytest.raises(ValueError, match="different grids"):
        PerturbationFamily(gaussian(other, 0.1, 2.0), direction, 0.01, 4, 0.4)
    with pytest.raises(ValueError, match="unit Sobolev"):
        PerturbationFamily(BASE, 2.0 * direction, 0.01, 4, 0.4)
    with pytest.raises(ValueError, match="initial_scale"):
        PerturbationFamily(BASE, direction, -1.0, 4, 0.4)
    with pytest.raises(ValueError, match="depth"):
        PerturbationFamily(BASE, direction, 0.01, -1, 0.4)


def test_family_scales_and_data(direction):
    fam = PerturbationFamily(BASE, direction, 0.01, 3, 0.4)
    assert fam.scales == (0.01, 0.005, 0.0025, 0.00125)
    assert fam.scales is fam.scales  # built once, not per datum(k)
    expected = BASE + 0.005 * direction
    assert np.array_equal(fam.datum(1).values, expected.values)


def test_family_zero_scale_allowed(direction):
    fam = PerturbationFamily(BASE, direction, 0.0, 2, 0.4)
    assert fam.scales == (0.0, 0.0, 0.0)


# ----------------------------------------------------------------- horizon


def test_choose_horizon_keeps_passing_grid(family):
    tg, _ = choose_horizon(PARAMS, family, _config(), 0.25, 32)
    assert tg.horizon == 0.25 and tg.slices == 32


def test_choose_horizon_shrinks_marginal_datum(direction):
    base = gaussian(GRID, 0.11, 2.0)
    fam = PerturbationFamily(base, default_direction(base, 0.4),
                             0.005, 4, 0.4)
    cfg = _config()
    tg, _ = choose_horizon(PARAMS, fam, cfg, 1.0, 128)
    assert tg.horizon < 1.0
    assert smallness_check(fam.datum(0), tg, cfg, PARAMS) < 0.1
    assert smallness_check(base, tg, cfg, PARAMS) < 0.1


def test_choose_horizon_gives_up_on_large_datum(direction):
    fam = PerturbationFamily(gaussian(GRID, 0.5, 2.0), direction,
                             0.005, 4, 0.4)
    with pytest.raises(RuntimeError, match="too large"):
        choose_horizon(PARAMS, fam, _config(), 1.0, 128)


# -------------------------------------------------------------- experiment


def test_run_dependence_enforces_smallness(direction):
    fam = PerturbationFamily(gaussian(GRID, 0.5, 2.0), direction,
                             0.01, 4, 0.4)
    with pytest.raises(ValueError, match="shrink"):
        run_dependence(PARAMS, fam, _config(), TimeGrid(0.25, 16))


def test_run_dependence_zero_family(direction):
    fam = PerturbationFamily(BASE, direction, 0.0, 4, 0.4)
    report = run_dependence(PARAMS, fam, _config(), TimeGrid(0.25, 16))
    assert len(report.rows) == 5
    for row in report.rows:
        assert row.converged
        assert row.input_distance == 0.0
        assert row.sup_sobolev == 0.0
        assert row.spacetime_besov == 0.0
        assert row.spacetime_lebesgue == 0.0
    assert report.slope is None


def test_run_dependence_free_flow_is_isometry(free_report):
    for row in free_report.rows:
        assert row.sup_sobolev == pytest.approx(row.input_distance,
                                                rel=1e-10)
    slope, r2 = fit_slope(free_report)
    assert slope == pytest.approx(1.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-10)
    assert lipschitz_constant(free_report) == pytest.approx(1.0, abs=1e-10)


def test_run_dependence_columns_monotone(subcritical_report):
    rows = subcritical_report.rows
    assert all(row.converged for row in rows)
    for column in ("sup_sobolev", "spacetime_besov", "spacetime_lebesgue"):
        values = [getattr(row, column) for row in rows]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_run_dependence_slopes_near_lipschitz(subcritical_report):
    assert subcritical_report.slope == pytest.approx(
        fit_slope(subcritical_report)[0])
    for column in ("sup_sobolev", "spacetime_besov", "spacetime_lebesgue"):
        slope, r2 = fit_slope(subcritical_report, column)
        assert 0.85 <= slope <= 1.15
        assert r2 >= 0.99


def test_run_dependence_ratios_bounded(subcritical_report):
    # power >= 1: no upward trend in output/input as the scale shrinks
    for column in ("sup_sobolev", "spacetime_besov", "spacetime_lebesgue"):
        ratios = [getattr(row, column) / row.input_distance
                  for row in subcritical_report.rows]
        half = len(ratios) // 2
        assert max(ratios[half:]) <= 1.25 * max(ratios[:half])


def test_run_dependence_cross_check_agrees(direction):
    fam = PerturbationFamily(BASE, direction, 0.01, 3, 0.4)
    report = run_dependence(PARAMS, fam, _config(), TimeGrid(0.25, 32),
                            cross_check=True)
    for row in report.rows:
        assert row.oracle_agrees is True
        assert row.oracle_gap < 1e-4
    assert report.slope is not None


def test_run_dependence_cross_check_can_flag(direction):
    fam = PerturbationFamily(BASE, direction, 0.01, 3, 0.4)
    report = run_dependence(PARAMS, fam, _config(), TimeGrid(0.25, 32),
                            cross_check=True, cross_tol=0.0)
    assert all(row.oracle_agrees is False for row in report.rows)
    assert report.slope is None
    with pytest.raises(ValueError, match="valid rows"):
        fit_slope(report)


def _force_row_2_nonconvergence(monkeypatch):
    calls = {"n": 0}
    real = picard_duhamel

    def flaky(phi, nl, tg, cfg):
        calls["n"] += 1
        if calls["n"] == 4:  # base solve is call 1, so this is row k = 2
            raise NonConvergenceError(
                "forced", IterationReport((1.0,), False),
                free_trajectory(phi, tg))
        return real(phi, nl, tg, cfg)

    monkeypatch.setattr(dep, "picard_duhamel", flaky)


def test_run_dependence_flags_forced_nonconvergence(family, monkeypatch):
    _force_row_2_nonconvergence(monkeypatch)
    report = run_dependence(PARAMS, family, _config(), TimeGrid(0.25, 16))
    flagged = [row for row in report.rows if not row.converged]
    assert len(flagged) == 1
    assert len(report.rows) == 9
    assert len(report.valid_rows()) == 8
    assert report.slope is not None


def test_remainder_flags_forced_nonconvergence(family, monkeypatch):
    _force_row_2_nonconvergence(monkeypatch)
    rows = remainder_decay_experiment(PARAMS, family, _config(),
                                      TimeGrid(0.25, 4), theta_nodes=8,
                                      shells=LIGHT_SHELLS)
    assert len(rows) == 9
    assert [row.converged for row in rows] == [k != 2 for k in range(9)]


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_raises_before_any_solve(family, monkeypatch,
                                                        threads):
    def solve(*args):
        raise AssertionError("solved with a bad thread count")

    monkeypatch.setattr(dep, "picard_duhamel", solve)
    monkeypatch.setattr(dep, "smallness_check", solve)
    tg = TimeGrid(0.25, 8)
    message = f"thread count must be >= 1, got {threads}"
    with pytest.raises(ValueError, match=message):
        run_dependence(PARAMS, family, _config(), tg, threads=threads)
    with pytest.raises(ValueError, match=message):
        remainder_decay_experiment(PARAMS, family, _config(), tg,
                                   theta_nodes=8, shells=LIGHT_SHELLS,
                                   threads=threads)
    with pytest.raises(ValueError, match=message):
        choose_horizon(PARAMS, family, _config(), 0.25, 8, threads=threads)


@pytest.mark.parametrize("shells, theta_nodes", [(1, 8), (LIGHT_SHELLS, 1)])
def test_remainder_counts_below_two_raise_before_any_solve(
        family, monkeypatch, shells, theta_nodes):
    def solve(*args):
        raise AssertionError("solved with a bad shell or node count")

    monkeypatch.setattr(dep, "picard_duhamel", solve)
    monkeypatch.setattr(dep, "smallness_check", solve)
    message = (f"need at least 2 radial shells and 2 quadrature nodes, "
               f"got {shells} and {theta_nodes}")
    with pytest.raises(ValueError, match=message):
        remainder_decay_experiment(PARAMS, family, _config(),
                                   TimeGrid(0.25, 8), theta_nodes=theta_nodes,
                                   shells=shells)


def test_run_dependence_threads_match_serial(direction):
    fam = PerturbationFamily(BASE, direction, 0.01, 4, 0.4)
    tg = TimeGrid(0.25, 32)
    serial = run_dependence(PARAMS, fam, _config(), tg, threads=1)
    parallel = run_dependence(PARAMS, fam, _config(), tg, threads=3)
    assert serial.rows == parallel.rows
    assert serial.slope == parallel.slope


def test_run_dependence_cross_check_report_independent_of_threads(direction):
    fam = PerturbationFamily(BASE, direction, 0.01, 3, 0.4)
    tg = TimeGrid(0.25, 16)
    reports = [run_dependence(PARAMS, fam, _config(), tg, cross_check=True,
                              threads=threads).to_dict()
               for threads in (1, 2, 3)]
    assert reports[0]["base_smallness"] > 0.0
    assert reports[0]["worst_smallness"] > 0.0
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def _count_picard(monkeypatch) -> dict:
    calls = {"n": 0}
    real = picard_duhamel

    def counted(phi, nl, tg, cfg):
        calls["n"] += 1
        return real(phi, nl, tg, cfg)

    monkeypatch.setattr(dep, "picard_duhamel", counted)
    return calls


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_gate_raises_before_any_solve(direction, monkeypatch,
                                             threads):
    fam = PerturbationFamily(gaussian(GRID, 0.5, 2.0), direction,
                             0.01, 4, 0.4)
    tg = TimeGrid(0.25, 16)
    calls = _count_picard(monkeypatch)
    with pytest.raises(ValueError, match="shrink"):
        run_dependence(PARAMS, fam, _config(), tg, threads=threads)
    with pytest.raises(ValueError, match="shrink"):
        remainder_decay_experiment(PARAMS, fam, _config(), tg,
                                   theta_nodes=8, shells=LIGHT_SHELLS,
                                   threads=threads)
    assert calls["n"] == 0


@pytest.mark.parametrize("threads", [1, 2])
def test_nan_gate_norm_fails_the_gate(monkeypatch, threads):
    # the largest datum's transform overflows, so its gate norm is NaN
    # beside a finite base norm; the NaN fails the gate
    grid = Grid(1, 16, 32.0)
    base = gaussian(grid, 0.08, 2.0)
    fam = PerturbationFamily(base, default_direction(base, 0.4), 1e308, 2,
                             0.4)
    tg = TimeGrid(0.25, 4)
    gate = [smallness_check(phi, tg, _config(), PARAMS)
            for phi in (fam.base, fam.datum(0))]
    assert gate[0] < 0.1 and math.isnan(gate[1])
    calls = _count_picard(monkeypatch)
    with pytest.raises(ValueError, match="reaches nan"):
        run_dependence(PARAMS, fam, _config(), tg, threads=threads)
    assert calls["n"] == 0
    with pytest.raises(RuntimeError, match="smallness nan"):
        choose_horizon(PARAMS, fam, _config(), 0.25, 4, threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_nonconverging_base_solve_raises(family, threads):
    # every solve stops at the cap; rows are flagged, the base raises
    tg = TimeGrid(0.25, 8)
    cfg = _config(max_iter=1)
    with pytest.raises(NonConvergenceError):
        run_dependence(PARAMS, family, cfg, tg, threads=threads)
    with pytest.raises(NonConvergenceError):
        remainder_decay_experiment(PARAMS, family, cfg, tg, theta_nodes=8,
                                   shells=LIGHT_SHELLS, threads=threads)


def test_task_runner_first_error_cancels_pending_tasks():
    go, release = threading.Event(), threading.Event()
    ran = []

    def fail():
        go.wait(30.0)
        raise RuntimeError("first")

    with pytest.raises(RuntimeError, match="first"):
        with dep._task_runner(2) as submit:
            submit(release.wait, 30.0)  # keeps the other worker busy
            failing = submit(fail)
            later = [submit(ran.append, k) for k in range(3)]
            go.set()
            try:
                failing.result()
            finally:
                release.set()
    assert ran == []
    assert all(future.cancelled() for future in later)


@pytest.fixture(scope="module")
def row_peak_stacks():
    """tracemalloc peak of a cross-checked 2D 64^2, 32-slice, depth-2
    run on one thread, in trajectory stacks."""
    params = ProblemParams(dimension=2, regularity=0.4, power=2.0)
    grid = Grid(2, 64, 32.0)
    base = gaussian(grid, 0.08, 2.0)
    fam = PerturbationFamily(base, default_direction(base, 0.4),
                             0.01, 2, 0.4)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    tg = TimeGrid(0.25, 32)
    # fill the grid caches and the annulus multipliers first
    run_dependence(params, fam, cfg, TimeGrid(0.25, 2), cross_check=True)
    peak = traced_peak(run_dependence, params, fam, cfg, tg,
                       cross_check=True, threads=1)
    return peak / stack_bytes(grid, tg)


def test_run_dependence_row_peak_memory(row_peak_stacks):
    # the base stack, one row's stack and its slice buffers
    assert row_peak_stacks <= 3.5


def test_run_dependence_row_holds_one_stack(row_peak_stacks):
    # the oracle and the differences stream through slice buffers, so
    # beside the base a row holds only its own trajectory stack
    assert row_peak_stacks <= 2.6


def _stacked_rows(params, family, cfg, tg, cross_tol):
    """Rows measured as they were before streaming: a whole oracle stack,
    a whole difference stack, and each column a trapezoid_norm of the
    separate single-field norms, kept here as the bitwise reference."""
    nl = PowerNonlinearity.from_params(params)
    s = float(params.regularity)
    gamma, rho = cfg.metric_pair
    grid = family.base.grid
    base, _ = picard_duhamel(family.base, nl, tg, cfg)
    pairs = ((math.inf, partial(sobolev_norm, s=s)),
             (gamma, partial(besov_norm_lp, s=s, p=rho, homogeneous=True)),
             (gamma, partial(lebesgue_norm, p=sigma(params))))
    rows = []
    for k in range(family.depth + 1):
        datum = family.datum(k)
        traj, rep = picard_duhamel(datum, nl, tg, cfg)
        oracle = split_step(datum, nl, tg)
        gap = max(lp_norm(a - b, 2.0, grid.cell_volume)
                  for a, b in zip(traj.values, oracle.values))
        diff = traj.values - base.values
        columns = [trapezoid_norm([norm(Field(grid, v)) for v in diff],
                                  tg.dt, q) for q, norm in pairs]
        rows.append(DependenceRow(
            family.scales[k], sobolev_norm(datum - family.base, s),
            *columns, converged=True, iterations=rep.iterations,
            oracle_gap=gap, oracle_agrees=gap <= cross_tol).to_dict())
    return rows


@pytest.mark.parametrize("dim, points, coupling", [(1, 128, 1.0),
                                                   (2, 32, 0.8 + 0.3j)])
def test_run_dependence_rows_bitwise_the_stacked_measurement(dim, points,
                                                             coupling):
    params = ProblemParams(dimension=dim, regularity=0.4, power=2.0,
                           coupling=coupling)
    grid = Grid(dim, points, 32.0)
    base = gaussian(grid, 0.08, 2.0)
    fam = PerturbationFamily(base, default_direction(base, 0.4),
                             0.01, 2, 0.4)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    tg = TimeGrid(0.25, 16)
    expected = _stacked_rows(params, fam, cfg, tg, 1e-4)
    assert all(row["oracle_gap"] > 0.0 for row in expected)
    for threads in (1, 2, 3):
        report = run_dependence(params, fam, cfg, tg, cross_check=True,
                                threads=threads).to_dict()
        assert report["rows"] == expected


@pytest.mark.parametrize("poison", [math.nan, math.inf])
def test_non_finite_oracle_fails_the_cross_check(monkeypatch, poison):
    # an oracle that goes non-finite from slice 2 on gives a NaN gap
    # (Python's max would skip a NaN after a number), so no row agrees
    # and every row is flagged, with no numpy warning on the way
    grid = Grid(1, 64, 32.0)
    base = gaussian(grid, 0.08, 2.0)
    fam = PerturbationFamily(base, default_direction(base, 0.4),
                             0.01, 1, 0.4)
    split_slices = dep._split_slices

    def poisoned(phi, nl, tg):
        for m, values in enumerate(split_slices(phi, nl, tg)):
            yield values if m < 2 else np.full_like(values, poison)

    monkeypatch.setattr(dep, "_split_slices", poisoned)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_dependence(PARAMS, fam, _config(), TimeGrid(0.25, 8),
                                cross_check=True)
    assert caught == []
    assert all(math.isnan(row.oracle_gap) and row.oracle_agrees is False
               for row in report.rows)
    assert report.to_dict()["flags"] == [0, 1]


def test_run_dependence_takes_sobolev_norm_only_for_input_distances(
        family, monkeypatch):
    # the sup-Sobolev column comes from the slice stream, whose one
    # transform per slice also gives the Besov value; sobolev_norm is
    # called once per row, for its input distance
    calls = {"n": 0}

    def counted(*args, **kwargs):
        calls["n"] += 1
        return sobolev_norm(*args, **kwargs)

    monkeypatch.setattr(dep, "sobolev_norm", counted)
    tg = TimeGrid(0.25, 8)
    report = run_dependence(PARAMS, family, _config(), tg)
    assert calls["n"] == len(report.rows) == family.depth + 1


def test_given_smallness_is_checked_not_recomputed(family, monkeypatch):
    def recomputed(*args):
        raise AssertionError("gate norms computed again")

    monkeypatch.setattr(dep, "smallness_check", recomputed)
    tg = TimeGrid(0.25, 8)
    report = run_dependence(PARAMS, family, _config(), tg,
                            smallness=(0.01, 0.02))
    assert (report.base_smallness, report.worst_smallness) == (0.01, 0.02)
    calls = _count_picard(monkeypatch)
    with pytest.raises(ValueError, match="shrink"):
        run_dependence(PARAMS, family, _config(), tg, smallness=(0.01, 0.5))
    assert calls["n"] == 0


# -------------------------------------------------------------------- fits


def _synthetic_report(exponent):
    rows = []
    for k in range(9):
        eps = 0.01 * 0.5 ** k
        out = eps ** exponent
        rows.append(DependenceRow(scale=eps, input_distance=eps,
                                  sup_sobolev=out, spacetime_besov=out,
                                  spacetime_lebesgue=out, converged=True,
                                  iterations=1))
    return DependenceReport(timegrid=TimeGrid(0.25, 16), rows=tuple(rows))


def test_fit_slope_recovers_synthetic_exponent():
    report = _synthetic_report(0.5)
    for column in ("sup_sobolev", "spacetime_besov", "spacetime_lebesgue"):
        slope, r2 = fit_slope(report, column)
        assert slope == pytest.approx(0.5, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-10)


def test_fit_slope_needs_four_valid_rows():
    report = _synthetic_report(1.0)
    short = DependenceReport(timegrid=report.timegrid, rows=report.rows[:3])
    with pytest.raises(ValueError, match="4 valid rows"):
        fit_slope(short)
    with pytest.raises(ValueError, match="column"):
        fit_slope(report, "no_such_column")


def test_lipschitz_constant_validation():
    report = _synthetic_report(1.0)
    assert lipschitz_constant(report) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="column"):
        lipschitz_constant(report, "no_such_column")
    empty = DependenceReport(timegrid=report.timegrid, rows=())
    with pytest.raises(ValueError, match="no valid rows"):
        lipschitz_constant(empty)


def test_running_slopes_fit_each_prefix_of_its_valid_rows():
    # outputs off a straight line, so each prefix has its own slope; row 1
    # is flagged by its oracle, with an output that would move any fit
    # it entered
    rows = [dataclasses.replace(row, sup_sobolev=row.sup_sobolev
                                * (1.0 + 0.1 * (-1) ** k * k))
            for k, row in enumerate(_synthetic_report(1.0).rows)]
    rows[1] = dataclasses.replace(rows[1], sup_sobolev=50.0,
                                  oracle_agrees=False)
    report = DependenceReport(timegrid=TimeGrid(0.25, 16), rows=rows)
    slopes = report.running_slopes()
    assert slopes[:2] == [None, None]  # 1 valid row, then still 1
    for i in range(2, len(rows)):
        usable = [row for row in rows[:i + 1] if row.valid]
        assert slopes[i] == loglog_fit([row.input_distance for row in usable],
                                       [row.sup_sobolev for row in usable])[0]
    assert len(set(slopes[2:])) == len(rows) - 2
    summary = report.to_dict()
    assert summary["flags"] == [1]
    assert summary["lipschitz_constant"] == lipschitz_constant(report)
    assert summary["slope"] == report.slope == fit_slope(report)[0]


def test_loglog_fit_validation():
    with pytest.raises(ValueError, match="2 points"):
        loglog_fit([1.0], [1.0])
    with pytest.raises(ValueError, match="degenerate"):
        loglog_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_report_rows_must_be_sorted():
    rows = _synthetic_report(1.0).rows
    with pytest.raises(ValueError, match="decreasing"):
        DependenceReport(timegrid=TimeGrid(0.25, 16), rows=rows[::-1])


def test_report_serializes_to_json(subcritical_report):
    blob = json.dumps(subcritical_report.to_dict())
    back = json.loads(blob)
    assert len(back["rows"]) == 9
    assert back["slices"] == 32
    assert 0.85 <= back["slope"] <= 1.15


# --------------------------------------------------------- remainder decay


def test_remainder_decay_identical_trajectories(direction):
    fam = PerturbationFamily(BASE, direction, 0.0, 3, 0.4)
    rows = remainder_decay_experiment(PARAMS, fam, _config(),
                                      TimeGrid(0.25, 8), theta_nodes=8,
                                      shells=8)
    assert all(row.integrated == 0.0 for row in rows)


def test_remainder_decay_threads_match_serial(direction, multiplier_builds):
    # each pool task takes a contiguous block of slices in one offset
    # loop, so each block builds every multiplier once
    fam = PerturbationFamily(BASE, direction, 0.01, 3, 0.4)
    tg = TimeGrid(0.25, 8)
    offsets, _ = offsets_kernel(GRID, 0.4, shells=8)
    runs = []
    for threads in (1, 2, 3):
        multiplier_builds.clear()
        runs.append(remainder_decay_experiment(
            PARAMS, fam, _config(), tg, threads=threads, theta_nodes=8,
            shells=8))
        assert len(multiplier_builds) == threads * len(offsets)
    assert runs[0] == runs[1] == runs[2]


def test_remainder_phase_peak_memory():
    # 2D 32^2, 5 slices and 5 rows, the remainder-2d benchmark's shape:
    # the all-slices call holds each slice's stack transform, one
    # increments buffer and one slice's row scratch (the theta paths,
    # their derivatives and the row magnitudes); beside them run one
    # multiplier, one conjugate increment, the derivative's magnitudes
    # and numpy's two 8192-element iteration buffers
    grid, tg = Grid(2, 32, 32.0), TimeGrid(0.25, 4)
    base = gaussian(grid, 0.08, 2.0)
    bump = gaussian(grid, 0.05, 1.5, center=[3.0, 3.0])
    trajs = [free_trajectory(base + (0.01 * 0.5 ** k) * bump, tg)
             for k in range(6)]
    bases = [trajs[0].field(m) for m in range(tg.slices + 1)]
    rows = [[traj.field(m) for traj in trajs[1:]]
            for m in range(tg.slices + 1)]
    kwargs = dict(s=0.4, p=2.0, r=6.0, shells=12)
    remainder_K(bases[:1], rows[:1], CUBIC, **kwargs)  # warm grid caches
    stack, n_theta = 1 + len(rows[0]), 2  # the cubic map's exact nodes
    held = len(bases) * stack + stack + 2 * stack * n_theta + stack / 2
    beside = 2 + stack * n_theta / 2
    peak = traced_peak(remainder_K, bases, rows, CUBIC, **kwargs)
    assert peak <= (held + beside) * grid.size * 16 + 2 * 8192 * 16


def test_remainder_row_scratch_stays_two_columns():
    # alpha = 3 takes all 32 theta nodes, so each row past the first is
    # a chunk of its own: it adds its transform and its increments, not
    # 2 x 32 theta paths
    grid = Grid(2, 32, 16.0)
    base = gaussian(grid, 1.0, 2.0)
    bump = gaussian(grid, 0.5 - 0.2j, 1.5, center=[3.0, 3.0])
    rows = [base + (2.0 ** -k) * bump for k in range(9)]
    nl = PowerNonlinearity(0.7 - 0.3j, 3.0)
    kwargs = dict(s=0.5, p=2.0, r=6.0, shells=2)
    remainder_K([base], [rows[:1]], nl, **kwargs)  # warm grid caches
    one, nine = (traced_peak(remainder_K, [base], [rows[:n]], nl, **kwargs)
                 for n in (1, 9))
    assert nine - one <= (2 * 8 + 1) * grid.size * 16


def test_remainder_decay_along_solved_trajectories(direction):
    fam = PerturbationFamily(BASE, direction, 0.01, 6, 0.4)
    rows = remainder_decay_experiment(PARAMS, fam, _config(),
                                      TimeGrid(0.25, 8), theta_nodes=16,
                                      shells=LIGHT_SHELLS, threads=2)
    values = [row.integrated for row in rows]
    assert all(row.converged for row in rows)
    assert all(v > 0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.05 * values[0]


def test_static_remainder_decay(direction):
    base = gaussian(GRID, 1.0, 2.0)
    fam = PerturbationFamily(base, direction, 0.5, 8, 0.4)
    rows = static_remainder_decay(PARAMS, fam, _config(),
                                  theta_nodes=16, shells=LIGHT_SHELLS)
    values = [row.integrated for row in rows]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-2 * values[0]
    assert rows[0].scale == 0.5
