"""Acceptance gate: the eight headline checks, one test each (criteria 2
and 5 have further tests in 2D and 3D, criterion 6 in 2D), each at its
stated tolerance and time budget.  Every test prints a single pass line;
a failure anywhere here means the build does not meet its contract."""

import json
import time
from fractions import Fraction

import numpy as np

from conftest import (band_limited_random_field, free_propagate,
                      smooth_random_field, translate)
from fracnls.cli import main as cli_main
from fracnls.dependence import (PerturbationFamily, default_direction,
                                fit_slope, lipschitz_constant,
                                remainder_decay_experiment,
                                static_remainder_decay)
from fracnls.exponents import (ProblemParams, canonical_pair, critical_pair,
                               is_admissible, max_power, nu)
from fracnls.grid import Field, Grid, gaussian, lebesgue_norm, plane_wave
from fracnls.nonlinearity import (PowerNonlinearity, besov_difference_report,
                                  count_pointwise_violations)
from fracnls.solver import PicardConfig, TimeGrid, picard_duhamel, split_step
from fracnls.spaces import besov_norm_fd, besov_norm_lp, sobolev_norm

CUBIC = PowerNonlinearity(coupling=1.0, power=2.0)


def _pass_line(number, name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, (
        f"criterion {number} overran its budget: {elapsed:.1f}s >= {budget}s")
    print(f"criterion {number} ({name}): PASS in {elapsed:.2f}s "
          f"(budget {budget:.0f}s)")


def _random_valid_tuple(rng, force_critical):
    n = int(rng.integers(1, 4))
    s_top = min(Fraction(1), Fraction(n, 2))
    s = s_top * Fraction(int(rng.integers(1, 100)), 100)
    a_top = max_power(n, s)
    a = a_top if force_critical else a_top * Fraction(
        int(rng.integers(1, 100)), 100)
    return n, s, a


def test_criterion_1_exponent_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    criticals = 0
    for _ in range(1000):
        force = bool(rng.integers(0, 2))
        n, s, a = _random_valid_tuple(rng, force)
        params = ProblemParams(n, float(s), float(a))
        gamma, rho = canonical_pair(params)
        assert abs(2.0 / gamma - n * (0.5 - 1.0 / rho)) < 1e-12
        assert rho >= 2.0 - 1e-12 and gamma >= 2.0 - 1e-12
        if n >= 3:
            assert rho < 2.0 * n / (n - 2.0) + 1e-12
        assert is_admissible(gamma, rho, n)
        if force:
            criticals += 1
            q0, r0 = critical_pair(params)
            target = float(a) + 2.0
            assert abs(nu(r0, n, float(s)) - target) < 1e-12 * target
            assert is_admissible(q0, r0, n)
    assert criticals >= 400
    _pass_line(1, "exponent identities", started, 1.0)


def _norm_toolkit(grid):
    """Criterion 2 on one grid: Sobolev against dyadic Besov against
    finite-difference Besov, and the invariances of the Sobolev norm."""
    rng = np.random.default_rng(202)

    for _ in range(20):
        f = band_limited_random_field(grid, rng)
        l2 = lebesgue_norm(f, 2.0)
        assert abs(sobolev_norm(f, 0.0, homogeneous=True) - l2) <= 1e-12 * l2

    ratios = np.array([
        besov_norm_lp(f, 0.5, 2.0, homogeneous=True)
        / sobolev_norm(f, 0.5, homogeneous=True)
        for f in (band_limited_random_field(grid, rng) for _ in range(100))])
    assert ratios.std() / ratios.mean() < 0.05

    fd_ratios = [besov_norm_fd(gaussian(grid, width=w), 0.5, 2.0)
                 / besov_norm_lp(gaussian(grid, width=w), 0.5, 2.0,
                                 homogeneous=True)
                 for w in (1.0, 2.0, 4.0)]
    assert max(fd_ratios) / min(fd_ratios) < 1.5

    f = band_limited_random_field(grid, rng)
    for s in (0.25, 0.4, 0.9):
        for homogeneous in (False, True):
            base = sobolev_norm(f, s, homogeneous=homogeneous)
            moved = sobolev_norm(free_propagate(f, 0.37), s,
                                 homogeneous=homogeneous)
            shifted = sobolev_norm(translate(f, [1.7] * grid.dim), s,
                                   homogeneous=homogeneous)
            assert abs(moved - base) <= 1e-10 * base
            assert abs(shifted - base) <= 1e-10 * base


def test_criterion_2_norm_toolkit():
    started = time.perf_counter()
    _norm_toolkit(Grid(1, 256, 32.0))
    _pass_line(2, "norm toolkit", started, 30.0)


def test_criterion_2_norm_toolkit_2d():
    started = time.perf_counter()
    _norm_toolkit(Grid(2, 64, 32.0))
    _pass_line(2, "norm toolkit, 2D", started, 30.0)


def test_criterion_2_norm_toolkit_3d():
    started = time.perf_counter()
    _norm_toolkit(Grid(3, 32, 32.0))
    _pass_line(2, "norm toolkit, 3D", started, 60.0)


def test_criterion_3_pointwise_inequalities():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    n = 1_000_000
    for alpha in (0.5, 1.0, 2.0, 3.0):
        mag1 = rng.lognormal(0.0, 1.5, n)
        mag2 = rng.lognormal(0.0, 1.5, n)
        z1 = mag1 * np.exp(2j * np.pi * rng.uniform(size=n))
        z2 = mag2 * np.exp(2j * np.pi * rng.uniform(size=n))
        # stress slices: segments through the origin, and exact zeros
        t = rng.uniform(0.5, 2.0, n // 5)
        z2[:n // 5] = -t * z1[:n // 5]
        z2[n // 5:n // 4] = 0.0
        assert count_pointwise_violations(z1, z2, alpha) == (0, 0)
    _pass_line(3, "pointwise inequalities", started, 30.0)


def test_criterion_4_integrator_correctness():
    started = time.perf_counter()
    grid = Grid(1, 256, 32.0)
    amp, mode, horizon = 0.5, 3, 1.0
    phi = plane_wave(grid, mode, amp)
    k0 = 2.0 * np.pi * mode / grid.period
    exact = (amp * np.exp(1j * k0 * grid.axis_coordinates)
             * np.exp(-1j * k0 ** 2 * horizon)
             * np.exp(1j * amp ** 2 * horizon))

    straj = split_step(phi, CUBIC, TimeGrid(horizon, 256))
    assert np.abs(straj.field(256).values - exact).max() < 1e-8

    params = ProblemParams(1, 0.4, 2.0)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    ptraj, report = picard_duhamel(phi, CUBIC, TimeGrid(horizon, 256), cfg)
    assert report.converged
    assert np.abs(ptraj.field(256).values - exact).max() < 1e-6

    bump = gaussian(Grid(1, 128, 32.0), 0.5, 2.0)
    runs = [split_step(bump, CUBIC, TimeGrid(0.5, n)) for n in (125, 250, 500)]
    ends = [r.field(r.timegrid.slices) for r in runs]
    order = np.log2(lebesgue_norm(ends[0] - ends[1], 2.0)
                    / lebesgue_norm(ends[1] - ends[2], 2.0))
    assert abs(order - 2.0) <= 0.1

    mass_run = split_step(bump, PowerNonlinearity(-1.0, 2.0),
                          TimeGrid(1.0, 1000))
    m0 = lebesgue_norm(mass_run.field(0), 2.0)
    m1 = lebesgue_norm(mass_run.field(mass_run.timegrid.slices), 2.0)
    assert abs(m1 - m0) <= 1e-7 * m0

    small = gaussian(Grid(1, 128, 32.0), 0.3, 2.0)
    ptraj2, _ = picard_duhamel(small, CUBIC, TimeGrid(0.5, 500), cfg)
    straj2 = split_step(small, CUBIC, TimeGrid(0.5, 500))
    gap = max(lebesgue_norm(ptraj2.field(m) - straj2.field(m), 2.0)
              for m in range(501))
    assert gap <= 1e-5
    _pass_line(4, "integrator correctness", started, 300.0)


def test_criterion_5_remainder_decay():
    started = time.perf_counter()
    params = ProblemParams(1, 0.4, 2.0)
    grid = Grid(1, 128, 32.0)
    shells = 12

    base = gaussian(grid, 1.0, 2.0)
    static_rows = static_remainder_decay(
        params, PerturbationFamily(base, default_direction(base, 0.4),
                                   0.5, 8, 0.4),
        PicardConfig(metric_pair=canonical_pair(params)),
        theta_nodes=16, shells=shells)
    static_vals = [row.integrated for row in static_rows]
    assert all(a > b for a, b in zip(static_vals, static_vals[1:]))
    assert static_vals[8] < 1e-2 * static_vals[0]

    small = gaussian(grid, 0.08, 2.0)
    family = PerturbationFamily(small, default_direction(small, 0.4),
                                0.01, 8, 0.4)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    solved_rows = remainder_decay_experiment(params, family, cfg,
                                             TimeGrid(0.25, 16),
                                             theta_nodes=16, shells=shells)
    solved_vals = [row.integrated for row in solved_rows]
    assert all(row.converged for row in solved_rows)
    assert all(a > b for a, b in zip(solved_vals, solved_vals[1:]))
    assert solved_vals[8] < 1e-2 * solved_vals[0]
    _pass_line(5, "remainder decay", started, 300.0)


def test_criterion_5_remainder_decay_2d():
    started = time.perf_counter()
    params = ProblemParams(2, 0.4, 2.0)
    grid = Grid(2, 32, 32.0)
    shells = 12

    base = gaussian(grid, 1.0, 2.0)
    static_rows = static_remainder_decay(
        params, PerturbationFamily(base, default_direction(base, 0.4),
                                   0.5, 8, 0.4),
        PicardConfig(metric_pair=canonical_pair(params)),
        theta_nodes=16, shells=shells)
    static_vals = [row.integrated for row in static_rows]
    assert all(a > b for a, b in zip(static_vals, static_vals[1:]))
    assert static_vals[8] <= 1e-2 * static_vals[0]

    small = gaussian(grid, 0.08, 2.0)
    family = PerturbationFamily(small, default_direction(small, 0.4),
                                0.01, 8, 0.4)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    solved_rows = remainder_decay_experiment(params, family, cfg,
                                             TimeGrid(0.25, 4),
                                             theta_nodes=16, shells=shells)
    solved_vals = [row.integrated for row in solved_rows]
    assert all(row.converged for row in solved_rows)
    assert all(a > b for a, b in zip(solved_vals, solved_vals[1:]))
    assert solved_vals[8] <= 1e-2 * solved_vals[0]
    _pass_line(5, "remainder decay, 2D", started, 300.0)


def test_criterion_5_remainder_decay_3d():
    # s = 1/2 makes the cubic map H^(1/2)-critical in 3D, inside the
    # admissible range alpha <= 4/(N - 2s)
    started = time.perf_counter()
    params = ProblemParams(3, 0.5, 2.0)
    grid = Grid(3, 16, 32.0)
    shells = 12

    base = gaussian(grid, 1.0, 2.0)
    static_rows = static_remainder_decay(
        params, PerturbationFamily(base, default_direction(base, 0.5),
                                   0.5, 8, 0.5),
        PicardConfig(metric_pair=canonical_pair(params)),
        theta_nodes=16, shells=shells)
    static_vals = [row.integrated for row in static_rows]
    assert all(a > b for a, b in zip(static_vals, static_vals[1:]))
    assert static_vals[8] <= 1e-2 * static_vals[0]

    small = gaussian(grid, 0.08, 2.0)
    family = PerturbationFamily(small, default_direction(small, 0.5),
                                0.01, 8, 0.5)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    solved_rows = remainder_decay_experiment(params, family, cfg,
                                             TimeGrid(0.25, 4),
                                             theta_nodes=16, shells=shells)
    solved_vals = [row.integrated for row in solved_rows]
    assert all(row.converged for row in solved_rows)
    assert all(a > b for a, b in zip(solved_vals, solved_vals[1:]))
    assert solved_vals[8] <= 1e-2 * solved_vals[0]
    _pass_line(5, "remainder decay, 3D", started, 300.0)


def _difference_bound(grid):
    """Criterion 6 on one grid: one calibrated constant of the difference
    bound holds on held-out pairs, and the Lipschitz ratio stays bounded
    as the gap closes."""
    shells = 16
    rng = np.random.default_rng(606)

    # pair ensemble mixes gap direction continuously between a fresh
    # field and the base itself; the collinear end attains the largest
    # constant, so both halves see the extremal configuration
    reports = []
    for _ in range(50):
        u = smooth_random_field(grid, rng)
        w = smooth_random_field(grid, rng)
        c = float(rng.uniform(0.0, 1.0))
        delta = float(rng.uniform(0.05, 0.6))
        v = u + delta * (c * u + (1.0 - c) * w)
        reports.append(besov_difference_report(u, v, CUBIC, 0.4, 2.0, 2.0,
                                               6.0, theta_nodes=16,
                                               shells=shells))
    calibration, held_out = reports[:25], reports[25:]
    constant = max((r.lhs - r.k_term) / r.lipschitz_term
                   for r in calibration)
    assert constant > 0.0
    violations = sum(
        1 for r in held_out
        if r.lhs > 1.2 * constant * r.lipschitz_term + r.k_term)
    assert violations == 0

    # power >= 1: the ratio to the gap norm stays bounded as the gap
    # closes; compare the small-gap half against the large-gap half
    u = gaussian(grid, 1.0, 2.0)
    psi = gaussian(grid, 1.0, 1.5, center=2.0)
    ratios = []
    for k in range(8):
        v = u + (2.0 ** -k) * psi
        report = besov_difference_report(u, v, CUBIC, 0.4, 2.0, 2.0, 6.0,
                                         theta_nodes=16, shells=shells)
        ratios.append(report.lhs / besov_norm_fd(v - u, 0.4, 6.0, 2.0,
                                                 shells))
    assert max(ratios[4:]) <= 1.25 * max(ratios[:4])


def test_criterion_6_difference_bound():
    started = time.perf_counter()
    _difference_bound(Grid(1, 128, 32.0))
    _pass_line(6, "difference bound", started, 300.0)


def test_criterion_6_difference_bound_2d():
    started = time.perf_counter()
    _difference_bound(Grid(2, 32, 32.0))
    _pass_line(6, "difference bound, 2D", started, 300.0)


def test_criterion_7_flow_map_dependence():
    started = time.perf_counter()
    from fracnls.dependence import run_dependence
    params = ProblemParams(1, 0.4, 2.0, 1.0)
    grid = Grid(1, 128, 32.0)
    base = gaussian(grid, 0.08, 2.0)
    family = PerturbationFamily(base, default_direction(base, 0.4),
                                0.01, 8, 0.4)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    tg = TimeGrid(0.25, 32)

    report = run_dependence(params, family, cfg, tg)
    assert all(row.converged for row in report.rows)
    for column in ("sup_sobolev", "spacetime_besov", "spacetime_lebesgue"):
        values = [getattr(row, column) for row in report.rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        slope, r_squared = fit_slope(report, column)
        assert 0.85 <= slope <= 1.15
        assert r_squared >= 0.99

    free = ProblemParams(1, 0.4, 2.0, 0.0)
    control = run_dependence(free, family, cfg, tg)
    for column in ("sup_sobolev", "spacetime_besov", "spacetime_lebesgue"):
        slope, _ = fit_slope(control, column)
        assert abs(slope - 1.0) <= 1e-10
    assert abs(lipschitz_constant(control) - 1.0) <= 1e-10
    _pass_line(7, "flow map dependence", started, 900.0)


def test_criterion_8_cli_determinism(tmp_path):
    started = time.perf_counter()
    config = {
        "problem": {"dimension": 1, "regularity": 0.4, "power": 2.0,
                    "coupling": 1.0},
        "grid": {"points": 64, "period": 32.0},
        "datum": {"kind": "gaussian", "amplitude": 0.08, "width": 2.0},
        "family": {"initial_scale": 0.01, "depth": 4},
        "time": {"horizon": 0.25, "slices": 16},
        "seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli_main(["dependence", "--config", str(path),
                         "--output", str(out)]) == 0
        outputs.append((out / "dependence.csv").read_bytes())
    assert outputs[0] == outputs[1]

    random_cfg = dict(config, datum={"kind": "random", "band": 4},
                      time={"horizon": 0.05, "slices": 8})
    rpath = tmp_path / "random.json"
    rpath.write_text(json.dumps(random_cfg))
    solves = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert cli_main(["solve", "--config", str(rpath),
                         "--output", str(out)]) == 0
        solves.append((out / "solve.csv").read_bytes())
    assert solves[0] == solves[1]
    _pass_line(8, "run determinism", started, 300.0)
