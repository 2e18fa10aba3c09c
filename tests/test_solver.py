"""Integrator tests: free-flow exactness, oracle cross-checks, failure modes."""

import tracemalloc

import numpy as np
import pytest

from fracnls.exponents import ProblemParams, canonical_pair
from fracnls.grid import (Field, Grid, free_propagate, gaussian,
                          lebesgue_norm, plane_wave)
from fracnls.nonlinearity import (GeneralNonlinearity, PowerNonlinearity,
                                  as_general)
from fracnls.solver import (BlowUpError, NonConvergenceError, PicardConfig,
                            TimeGrid, Trajectory, contraction_distance,
                            free_trajectory, picard_duhamel,
                            smallness_check, split_step)
from fracnls.spaces import NormSpec, spacetime_norm

PARAMS = ProblemParams(dimension=1, regularity=0.4, power=2.0)
PAIR = canonical_pair(PARAMS)
CUBIC = PowerNonlinearity(1.0, 2.0)


def _config(**kw):
    return PicardConfig(metric_pair=PAIR, **kw)


# ------------------------------------------------------------ time lattice


def test_timegrid_validation():
    with pytest.raises(ValueError, match="horizon"):
        TimeGrid(-1.0, 8)
    with pytest.raises(ValueError, match="slice count"):
        TimeGrid(1.0, 1)
    with pytest.raises(ValueError, match="slice count"):
        TimeGrid(1.0, 2.5)
    tg = TimeGrid(2.0, 8)
    assert tg.dt == 0.25
    assert tg.times[0] == 0.0 and tg.times[-1] == 2.0
    assert len(tg.times) == 9


def test_trajectory_slice_count_checked(line_grid):
    phi = gaussian(line_grid, 1.0, 2.0)
    with pytest.raises(ValueError, match="slices"):
        Trajectory(TimeGrid(1.0, 4), line_grid, np.stack([phi.values] * 2))


def test_trajectory_rejects_wrong_spatial_shape(line_grid):
    with pytest.raises(ValueError, match="shape"):
        Trajectory(TimeGrid(1.0, 4), line_grid,
                   np.zeros((5, line_grid.points // 2), dtype=complex))


def test_trajectory_rejects_nan(line_grid):
    values = np.zeros((5,) + line_grid.shape, dtype=complex)
    values[3, 7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Trajectory(TimeGrid(1.0, 4), line_grid, values)


def test_trajectory_field_is_read_only_view(line_grid):
    traj = free_trajectory(gaussian(line_grid, 1.0, 2.0), TimeGrid(1.0, 4))
    f = traj.field(2)
    assert not f.values.flags.writeable
    assert np.shares_memory(f.values, traj.values)
    assert np.array_equal(f.values, traj.values[2])


def test_trajectory_owns_its_values(line_grid):
    source = np.ones((5,) + line_grid.shape, dtype=complex)
    traj = Trajectory(TimeGrid(1.0, 4), line_grid, source)
    source[2] = 7.0
    assert np.all(traj.values == 1.0)


def test_trajectory_subtraction_needs_matching_grid(line_grid):
    tg = TimeGrid(1.0, 4)
    other = Grid(1, line_grid.points, 2.0 * line_grid.period)
    a = free_trajectory(gaussian(line_grid, 1.0, 2.0), tg)
    b = free_trajectory(gaussian(other, 1.0, 2.0), tg)
    with pytest.raises(ValueError,
                       match="trajectories live on different grids"):
        a - b


def test_trajectory_subtraction_needs_matching_timegrid(line_grid):
    phi = gaussian(line_grid, 1.0, 2.0)
    a = free_trajectory(phi, TimeGrid(1.0, 4))
    b = free_trajectory(phi, TimeGrid(1.0, 8))
    with pytest.raises(ValueError, match="time grids"):
        a - b


def test_free_trajectory_initial_slice_bit_exact(line_grid):
    phi = gaussian(line_grid, 0.7, 1.5, center=2.0)
    traj = free_trajectory(phi, TimeGrid(1.0, 16))
    assert np.array_equal(traj.field(0).values, phi.values)


def test_free_trajectory_matches_pointwise_propagator(line_grid):
    phi = gaussian(line_grid, 1.0, 2.0)
    tg = TimeGrid(0.8, 16)
    traj = free_trajectory(phi, tg)
    for m in (1, 7, 16):
        ref = free_propagate(phi, tg.times[m])
        assert np.abs(traj.field(m).values - ref.values).max() < 1e-13


def test_free_trajectory_conserves_mass(line_grid):
    phi = gaussian(line_grid, 1.0, 2.0)
    traj = free_trajectory(phi, TimeGrid(1.0, 32))
    base = lebesgue_norm(phi, 2.0)
    for m in range(33):
        assert lebesgue_norm(traj.field(m), 2.0) == pytest.approx(
            base, rel=1e-12)


def test_trajectory_stack_shape(line_grid):
    traj = free_trajectory(gaussian(line_grid, 1.0, 2.0), TimeGrid(1.0, 4))
    assert traj.values.shape == (5,) + line_grid.shape


# -------------------------------------------------------------- fixed point


def test_picard_config_validation():
    with pytest.raises(ValueError, match="tol"):
        _config(tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        _config(max_iter=0)
    with pytest.raises(ValueError, match="metric pair"):
        PicardConfig(metric_pair=(1.5, 2.0))


def test_picard_free_case_converges_in_one_sweep(line_grid):
    phi = gaussian(line_grid, 1.0, 2.0)
    tg = TimeGrid(1.0, 32)
    traj, report = picard_duhamel(phi, PowerNonlinearity(0.0, 2.0), tg,
                                  _config())
    assert report.converged
    assert report.distances == (0.0,)
    ref = free_trajectory(phi, tg)
    for m in range(33):
        assert np.abs(traj.field(m).values - ref.field(m).values).max() < 1e-14


def test_picard_plane_wave_phase(line_grid):
    # single mode: exact solution is a pure phase rotation of the datum
    amp, mode = 0.5, 3
    phi = plane_wave(line_grid, mode, amp)
    horizon = 1.0
    traj, report = picard_duhamel(phi, CUBIC, TimeGrid(horizon, 256),
                                  _config())
    assert report.converged
    k0 = 2.0 * np.pi * mode / line_grid.period
    exact = (amp * np.exp(1j * k0 * line_grid.axis_coordinates)
             * np.exp(-1j * k0 ** 2 * horizon)
             * np.exp(1j * amp ** 2 * horizon))
    assert np.abs(traj.field(256).values - exact).max() < 1e-6


def test_picard_initial_slice_bit_exact(line_grid):
    phi = gaussian(line_grid, 0.3, 2.0)
    traj, _ = picard_duhamel(phi, CUBIC, TimeGrid(0.5, 64), _config())
    assert np.array_equal(traj.field(0).values, phi.values)


def test_picard_rejects_inadmissible_metric(line_grid):
    phi = gaussian(line_grid, 0.1, 2.0)
    cfg = PicardConfig(metric_pair=(8.0, 3.0))
    with pytest.raises(ValueError, match="admissible"):
        picard_duhamel(phi, CUBIC, TimeGrid(0.5, 16), cfg)


def test_picard_matches_split_step_oracle():
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 0.3, 2.0)
    horizon = 0.5
    traj, report = picard_duhamel(phi, CUBIC, TimeGrid(horizon, 500),
                                  _config())
    assert report.converged
    oracle = split_step(phi, CUBIC, horizon, 1e-3)
    assert oracle.timegrid == traj.timegrid
    sup = max(lebesgue_norm(traj.field(m) - oracle.field(m), 2.0)
              for m in range(501))
    assert sup < 1e-5


def test_picard_general_map_accepted():
    # the sweep only needs g pointwise, not the power structure
    grid = Grid(1, 128, 32.0)
    nl = GeneralNonlinearity(
        gfun=lambda z: z * np.abs(z) ** 2 / (1.0 + np.abs(z) ** 2),
        dzfun=lambda z: (np.abs(z) ** 4 + 2 * np.abs(z) ** 2)
        / (1.0 + np.abs(z) ** 2) ** 2 + 0.0j,
        dzbarfun=lambda z: z ** 2 / (1.0 + np.abs(z) ** 2) ** 2,
        power=2.0, growth_const=1.0, growth_coeff=3.0)
    phi = gaussian(grid, 0.3, 2.0)
    traj, report = picard_duhamel(phi, nl, TimeGrid(0.5, 128), _config())
    assert report.converged
    assert len(traj.values) == 129


def test_picard_general_view_matches_power_map(line_grid):
    # g is applied slice by slice; the callable view must see the same slices
    phi = gaussian(line_grid, 0.3, 2.0)
    tg = TimeGrid(0.5, 64)
    ref, ref_report = picard_duhamel(phi, CUBIC, tg, _config())
    traj, report = picard_duhamel(phi, as_general(CUBIC), tg, _config())
    assert report.iterations == ref_report.iterations
    assert np.abs(traj.values - ref.values).max() < 1e-14


def test_picard_peak_memory_three_stacks():
    # a sweep streams over the slices: phases plus two iterates stay live
    params = ProblemParams(dimension=2, regularity=0.4, power=2.0)
    grid = Grid(2, 64, 32.0)
    grid.wavenumber_square, grid.dealias_mask  # warm the cached arrays
    phi = gaussian(grid, 0.08, 2.0)
    tg = TimeGrid(0.25, 32)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    stack = (tg.slices + 1) * grid.size * 16
    tracemalloc.start()
    try:
        picard_duhamel(phi, PowerNonlinearity(1.0, 2.0), tg, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * stack


def test_picard_report_contracts(line_grid):
    phi = plane_wave(line_grid, 3, 0.5)
    _, report = picard_duhamel(phi, CUBIC, TimeGrid(1.0, 256), _config())
    assert report.iterations >= 3
    assert all(r < 1.0 for r in report.ratios)
    assert report.distances[-1] <= 1e-10 * max(1.0, report.distances[0])


def test_picard_deterministic_across_runs(line_grid):
    phi = gaussian(line_grid, 0.3, 2.0)
    a, ra = picard_duhamel(phi, CUBIC, TimeGrid(0.5, 64), _config())
    b, rb = picard_duhamel(phi, CUBIC, TimeGrid(0.5, 64), _config())
    assert ra.distances == rb.distances
    assert np.array_equal(a.field(64).values, b.field(64).values)


def test_picard_metric_controls_slicewise_l2():
    # tightening the contraction tolerance moves every slice in L^2
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 0.3, 2.0)
    tg = TimeGrid(0.5, 128)
    loose, _ = picard_duhamel(phi, CUBIC, tg, _config(tol=1e-6))
    tight, _ = picard_duhamel(phi, CUBIC, tg, _config(tol=1e-12))
    sup = max(lebesgue_norm(loose.field(m) - tight.field(m), 2.0)
              for m in range(129))
    assert sup < 1e-6


def test_picard_nonconvergence_carries_report():
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 1.0, 2.0)
    with pytest.raises(NonConvergenceError) as err:
        picard_duhamel(phi, CUBIC, TimeGrid(1.0, 128),
                       _config(max_iter=3, tol=1e-12))
    report = err.value.report
    assert not report.converged
    assert report.iterations == 3
    assert len(err.value.trajectory.values) == 129


def test_picard_overflow_raises_blowup():
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 40.0, 2.0)
    with pytest.raises(BlowUpError):
        picard_duhamel(phi, CUBIC, TimeGrid(1.0, 64), _config())


def test_contraction_distance_matches_spacetime_norm(line_grid):
    tg = TimeGrid(1.0, 16)
    u = free_trajectory(gaussian(line_grid, 1.0, 2.0), tg)
    v = free_trajectory(gaussian(line_grid, 0.5, 1.0), tg)
    direct = spacetime_norm(u - v, PAIR[0], NormSpec("lebesgue", p=PAIR[1]))
    assert contraction_distance(u, v, PAIR) == pytest.approx(direct,
                                                             rel=1e-14)
    assert contraction_distance(u, u, PAIR) == 0.0


def test_contraction_distance_needs_matching_timegrid(line_grid):
    phi = gaussian(line_grid, 1.0, 2.0)
    with pytest.raises(ValueError, match="time"):
        contraction_distance(free_trajectory(phi, TimeGrid(1.0, 4)),
                             free_trajectory(phi, TimeGrid(1.0, 8)), PAIR)


# --------------------------------------------------------------- split step


def test_split_step_free_case_exact(line_grid):
    phi = gaussian(line_grid, 1.0, 2.0)
    traj = split_step(phi, PowerNonlinearity(0.0, 2.0), 1.0, 1e-2)
    for m in (0, 50, 100):
        ref = free_propagate(phi, traj.timegrid.times[m])
        assert np.abs(traj.field(m).values - ref.values).max() < 1e-12


def test_split_step_plane_wave_exact(line_grid):
    amp, mode = 0.5, 3
    phi = plane_wave(line_grid, mode, amp)
    traj = split_step(phi, CUBIC, 1.0, 1e-3)
    k0 = 2.0 * np.pi * mode / line_grid.period
    exact = (amp * np.exp(1j * k0 * line_grid.axis_coordinates)
             * np.exp(-1j * k0 ** 2) * np.exp(1j * amp ** 2))
    assert np.abs(traj.field(1000).values - exact).max() < 1e-8


def test_split_step_self_convergence_order_two():
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 1.0, 2.0)
    final = {}
    for dt in (2e-3, 1e-3, 5e-4):
        traj = split_step(phi, CUBIC, 0.25, dt)
        final[dt] = traj.field(traj.timegrid.slices)
    coarse = lebesgue_norm(final[2e-3] - final[1e-3], 2.0)
    fine = lebesgue_norm(final[1e-3] - final[5e-4], 2.0)
    order = np.log2(coarse / fine)
    assert abs(order - 2.0) < 0.1


def test_split_step_mass_conserved_for_real_coupling():
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 1.0, 2.0)
    traj = split_step(phi, PowerNonlinearity(-1.0, 2.0), 1.0, 1e-3)
    masses = np.array([lebesgue_norm(traj.field(m), 2.0)
                       for m in range(traj.timegrid.slices + 1)])
    assert abs(masses[-1] - masses[0]) < 1e-7
    assert np.abs(np.diff(masses)).max() < 1e-10


def test_split_step_absorbing_coupling_decays():
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 1.0, 2.0)
    traj = split_step(phi, PowerNonlinearity(0.5 + 1.0j, 2.0), 0.5, 1e-3)
    start = lebesgue_norm(traj.field(0), 2.0)
    end = lebesgue_norm(traj.field(traj.timegrid.slices), 2.0)
    assert end < start


def test_split_step_pumping_coupling_blows_up():
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 8.0, 2.0)
    with pytest.raises(BlowUpError) as err:
        split_step(phi, PowerNonlinearity(-1.0j, 2.0), 0.1, 0.01)
    assert err.value.time == pytest.approx(0.005)


def test_split_step_rejects_general_map():
    grid = Grid(1, 128, 32.0)
    nl = GeneralNonlinearity(gfun=lambda z: 0.0 * z,
                             dzfun=lambda z: 0.0 * z,
                             dzbarfun=lambda z: 0.0 * z, power=1.0)
    with pytest.raises(TypeError, match="power map"):
        split_step(gaussian(grid, 1.0, 2.0), nl, 1.0, 0.1)


def test_split_step_rounds_slice_count():
    grid = Grid(1, 128, 32.0)
    traj = split_step(gaussian(grid, 0.1, 2.0), CUBIC, 1.0, 0.3)
    assert traj.timegrid.slices == 3
    assert traj.timegrid.dt == pytest.approx(1.0 / 3.0)


def test_split_step_initial_slice_bit_exact(line_grid):
    phi = gaussian(line_grid, 0.7, 1.5)
    traj = split_step(phi, CUBIC, 0.1, 1e-2)
    assert np.array_equal(traj.field(0).values, phi.values)


# ---------------------------------------------------------------- heuristics


def test_smallness_zero_datum(line_grid):
    zero = line_grid.sample(lambda x: np.zeros_like(x))
    assert smallness_check(zero, TimeGrid(1.0, 16), _config(), PARAMS) == 0.0


def test_smallness_monotone_in_horizon(line_grid):
    phi = gaussian(line_grid, 0.2, 2.0)
    half = smallness_check(phi, TimeGrid(0.5, 64), _config(), PARAMS)
    full = smallness_check(phi, TimeGrid(1.0, 128), _config(), PARAMS)
    assert half <= full


def test_smallness_degree_one_homogeneous(line_grid):
    phi = gaussian(line_grid, 0.2, 2.0)
    tg = TimeGrid(1.0, 64)
    one = smallness_check(phi, tg, _config(), PARAMS)
    three = smallness_check(3.0 * phi, tg, _config(), PARAMS)
    assert three == pytest.approx(3.0 * one, rel=1e-12)

