"""Integrator tests: free-flow exactness, oracle cross-checks, failure modes."""

import warnings

import numpy as np
import pytest

from fracnls import spaces
from fracnls.exponents import ProblemParams, canonical_pair
from fracnls.grid import (Field, Grid, gaussian, lebesgue_norm, lp_norm,
                          plane_wave)
from fracnls.nonlinearity import PowerNonlinearity
from fracnls.solver import (BlowUpError, NonConvergenceError, PicardConfig,
                            TimeGrid, Trajectory, _phase_row, _power_substep,
                            _split_slices, picard_duhamel, smallness_check,
                            split_step)
from fracnls.spaces import besov_norm_lp, sobolev_norm, trapezoid_norm
from conftest import free_propagate, full_mesh_wavenumber_square
from trajectories import (fields, free_trajectory, stack_bytes, traced_memory,
                          traced_peak, warm)

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


def test_trajectory_copies_a_solver_stack(line_grid):
    traj = free_trajectory(gaussian(line_grid, 1.0, 2.0), TimeGrid(1.0, 4))
    again = Trajectory(traj.timegrid, line_grid, traj.values)
    assert not np.shares_memory(again.values, traj.values)
    assert np.array_equal(again.values, traj.values)


def test_solver_results_are_read_only(line_grid):
    phi = gaussian(line_grid, 0.3, 2.0)
    tg = TimeGrid(0.5, 16)
    picard, _ = picard_duhamel(phi, CUBIC, tg, _config())
    with pytest.raises(NonConvergenceError) as err:
        picard_duhamel(phi, CUBIC, tg, _config(max_iter=1))
    results = (picard, free_trajectory(phi, tg),
               split_step(phi, CUBIC, tg), err.value.trajectory)
    for traj in results:
        assert not traj.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            traj.values[1, 0] = 0.0


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


@pytest.mark.parametrize("dim, points",
                         [(1, 64), (2, 32), (3, 16), (2, 128), (3, 32)])
def test_phase_table_gathers_the_mesh_phases(dim, points):
    # each slice's phase row over the |k|^2 levels, built alone, gathers
    # to the mesh phase bit for bit; 2D 128^2 and 3D 32^3 slices reach
    # numpy's 256 KiB temporary-elision size
    grid = Grid(dim, points, 32.0)
    tg = TimeGrid(0.7, 12)
    tcol = tg.times.reshape((-1,) + (1,) * dim)
    levels, index = grid.wavenumber_levels
    row = np.empty(levels.shape, dtype=complex)
    for unit in (1j, -1j):
        mesh = np.exp(unit * tcol * full_mesh_wavenumber_square(grid))
        for m in range(tg.slices + 1):
            gathered = np.take(_phase_row(unit, tg.times[m], levels, row),
                               index, mode="wrap")
            assert np.array_equal(gathered.view(np.uint64),
                                  mesh[m].view(np.uint64))


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 32), (3, 16)])
def test_free_trajectory_bitwise_stacked_formula(dim, points):
    grid = Grid(dim, points, 32.0)
    phi = gaussian(grid, 0.7 - 0.2j, 1.5)
    tg = TimeGrid(0.6, 10)
    tcol = tg.times.reshape((-1,) + (1,) * dim)
    phases = np.exp(-1j * tcol * full_mesh_wavenumber_square(grid))
    axes = tuple(range(1, dim + 1))
    ref = np.fft.ifftn(phases * np.fft.fftn(phi.values), axes=axes)
    ref[0] = phi.values
    traj = free_trajectory(phi, tg)
    assert np.array_equal(traj.values.view(np.uint64), ref.view(np.uint64))


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


@pytest.mark.parametrize("dim, points", [(2, 128), (3, 32)])
def test_picard_zero_coupling_is_exact_on_elision_sized_slices(dim, points):
    # slices of 256 KiB, numpy's temporary-elision size: the first iterate
    # is built in the sweep's operand order, phihat * rewind, so the one
    # sweep at zero coupling reproduces it bit for bit
    grid = Grid(dim, points, 32.0)
    params = ProblemParams(dimension=dim, regularity=0.4, power=2.0)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    _, report = picard_duhamel(gaussian(grid, 0.08, 2.0),
                               PowerNonlinearity(0.0, 2.0),
                               TimeGrid(0.25, 8), cfg)
    assert report.distances == (0.0,)


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
    oracle = split_step(phi, CUBIC, TimeGrid(horizon, 500))
    assert oracle.timegrid == traj.timegrid
    sup = max(lebesgue_norm(traj.field(m) - oracle.field(m), 2.0)
              for m in range(501))
    assert sup < 1e-5


def test_picard_peak_memory_one_stack():
    # the sweep overwrites one stack in place and hands it over; beside
    # it a sweep holds phihat, two scratch slices, one row block, the
    # slice's phase rows over the |k|^2 levels and the transforms' own
    # buffers
    params = ProblemParams(dimension=2, regularity=0.4, power=2.0)
    grid = Grid(2, 64, 32.0)
    warm(grid)
    phi = gaussian(grid, 0.08, 2.0)
    tg = TimeGrid(0.25, 32)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    peak = traced_peak(picard_duhamel, phi, CUBIC, tg, cfg)
    assert peak <= 1.5 * stack_bytes(grid, tg)
    assert peak <= stack_bytes(grid, tg) + 12 * grid.size * 16


def test_picard_peak_memory_multi_block_slices():
    # a 256^2 slice spans eight row blocks, and the new slice is built in
    # place in the integrand's slice: beside the stack the trace sees the
    # caller's datum, phihat, two scratch slices and one row block
    params = ProblemParams(dimension=2, regularity=0.4, power=2.0)
    grid = Grid(2, 256, 32.0)
    warm(grid)
    phi = gaussian(grid, 0.08, 2.0)
    tg = TimeGrid(0.25, 8)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    peak = traced_peak(picard_duhamel, phi, CUBIC, tg, cfg)
    assert peak <= stack_bytes(grid, tg) + 6.5 * grid.size * 16


@pytest.mark.parametrize("points, slices, beside", [(128, 32, 6.0),
                                                    (256, 8, 5.0)])
def test_picard_peak_memory_no_phase_table_or_increment_mesh(points, slices,
                                                              beside):
    # beside the stack and the caller's datum: phihat, two scratch
    # slices, one row block and the transforms' buffers.  A phase table
    # over every slice time (nearly four slices at 128^2 with 32 slices)
    # or a float mesh of increment magnitudes (half a slice) would not fit
    params = ProblemParams(dimension=2, regularity=0.4, power=2.0)
    grid = Grid(2, points, 32.0)
    warm(grid)
    phi = gaussian(grid, 0.08, 2.0)
    tg = TimeGrid(0.25, slices)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    peak = traced_peak(picard_duhamel, phi, CUBIC, tg, cfg)
    assert peak <= stack_bytes(grid, tg) + beside * grid.size * 16


def test_picard_peak_memory_two_scratch_slices():
    # beside the stack and the caller's datum: phihat, the integrand and
    # the running sum, one row block and the transforms' buffers (3.62
    # slices measured); a mesh for the running sum's first half term, or
    # a temporary for the first iterate's product, would exceed 4
    params = ProblemParams(dimension=3, regularity=0.4, power=2.0)
    grid = Grid(3, 32, 32.0)
    warm(grid)
    phi = gaussian(grid, 0.08, 2.0)
    tg = TimeGrid(0.25, 16)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    peak = traced_peak(picard_duhamel, phi, CUBIC, tg, cfg)
    assert peak <= stack_bytes(grid, tg) + 4.0 * grid.size * 16


def _datum_solve_and_norms(grid):
    params = ProblemParams(dimension=grid.dim, regularity=0.4, power=2.0)
    phi = gaussian(grid, 0.1, 2.0)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    traj, _ = picard_duhamel(phi, CUBIC, TimeGrid(0.25, 4), cfg)
    sobolev_norm(traj.field(4), 0.4)
    besov_norm_lp(traj.field(4), 0.4, 3.0)


def test_grid_and_norm_caches_retain_few_fields():
    # what a solve and its norms leave cached: the narrow |k|^2 level
    # index is the one mesh-sized array; |k|^2, the mask and the Sobolev
    # weight are not kept, and the coordinates, wavenumbers and Besov
    # multipliers are axis vectors and level tables
    grid = Grid(3, 32, 32.0)
    spaces._annulus_multipliers.cache_clear()  # the trace counts the tables
    retained, _ = traced_memory(_datum_solve_and_norms, grid)
    assert retained <= 3 * grid.size * 16


def test_free_trajectory_peak_memory_one_stack():
    grid = Grid(2, 64, 32.0)
    warm(grid)
    phi = gaussian(grid, 0.08, 2.0)
    tg = TimeGrid(0.25, 32)
    peak = traced_peak(free_trajectory, phi, tg)
    assert peak <= 1.5 * stack_bytes(grid, tg)


def _three_stack_picard(phi, nl, tg, cfg):
    """The Picard sweep as it was written with a phase stack and two
    iterate stacks, in the operand order of the one-stack sweep, kept
    here as the bitwise reference."""
    grid = phi.grid
    tcol = tg.times.reshape((-1,) + (1,) * grid.dim)
    unwind = np.exp(1j * tcol * full_mesh_wavenumber_square(grid))
    keep = grid.dealias_mask
    phihat = np.fft.fftn(phi.values)
    current, new = np.empty_like(unwind), np.empty_like(unwind)
    current[0] = new[0] = phi.values
    for m in range(1, tg.slices + 1):
        np.fft.ifftn(np.multiply(phihat, np.conj(unwind[m])), out=current[m])
    ghat, integrand, running = (np.empty(grid.shape, dtype=complex)
                                for _ in range(3))
    distances = []
    for _ in range(cfg.max_iter):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for m in range(tg.slices + 1):
                np.fft.fftn(nl.g(current[m]), out=ghat)
                ghat *= keep
                np.multiply(unwind[m], ghat, out=integrand)
                if m == 0:
                    # the running sum starts at half the first integrand
                    np.multiply(0.5, integrand, out=running)
                    continue
                running += integrand
                buf = new[m]
                np.subtract(running, np.multiply(0.5, integrand, out=ghat),
                            out=buf)
                buf *= tg.dt
                buf *= 1j
                buf += phihat
                buf *= np.conjugate(unwind[m], out=ghat)
                np.fft.ifftn(buf, out=buf)
        dist = trapezoid_norm([lp_norm(a - b, cfg.metric_pair[1],
                                       grid.cell_volume)
                               for a, b in zip(new, current)],
                              tg.dt, cfg.metric_pair[0])
        distances.append(dist)
        current, new = new, current
        if dist <= cfg.tol * max(1.0, distances[0]):
            break
    return current, tuple(distances)


# 2D 128^2 and 3D 32^3 slices reach numpy's 256 KiB temporary-elision
# threshold, 1D and 3D 16^3 stay below it; the sweep's row blocks split
# a 2D 128^2 slice in two, a 3D 32^3 slice in four and a 2D 256^2 slice
# in eight, the others not; the 1D amplitude-1 case stops at its
# iteration cap
PICARD_BITWISE_CASES = [
    (1, 128, 0.3, 1.0, 2.0, 40),
    (1, 128, 0.3, 0.5 - 0.25j, 4.0 / 3.0, 40),
    (1, 128, 1.0, 1.0, 2.0, 3),
    (2, 128, 0.1, 1.0, 1.0, 40),
    (2, 32, 0.3, -1.0 + 0.5j, 2.0, 40),
    (3, 16, 0.2, 1.0, 2.0, 40),
    (3, 32, 0.1, 0.8 + 0.3j, 1.0, 40),
    (2, 256, 0.3, 0.5 - 0.25j, 4.0 / 3.0, 40),
]


@pytest.mark.parametrize(
    "dim, points, amplitude, coupling, power, max_iter", PICARD_BITWISE_CASES,
    ids=[f"{c[0]}d{c[1]}-{c[3]}-a{c[4]:.2f}-it{c[5]}"
         for c in PICARD_BITWISE_CASES])
def test_picard_bitwise_three_stack_sweep(dim, points, amplitude, coupling,
                                          power, max_iter):
    grid = Grid(dim, points, 32.0)
    params = ProblemParams(dimension=dim, regularity=0.4, power=power)
    cfg = PicardConfig(metric_pair=canonical_pair(params), tol=1e-12,
                       max_iter=max_iter)
    phi = gaussian(grid, amplitude, 2.0)
    tg = TimeGrid(0.5, 8)
    nl = PowerNonlinearity(coupling, power)
    ref, ref_distances = _three_stack_picard(phi, nl, tg, cfg)
    if max_iter == 3:
        with pytest.raises(NonConvergenceError) as err:
            picard_duhamel(phi, nl, tg, cfg)
        traj, report = err.value.trajectory, err.value.report
        assert len(ref_distances) == max_iter and not report.converged
    else:
        traj, report = picard_duhamel(phi, nl, tg, cfg)
    assert report.distances == ref_distances
    assert np.array_equal(traj.values.view(np.uint64), ref.view(np.uint64))


def test_picard_report_contracts(line_grid):
    phi = plane_wave(line_grid, 3, 0.5)
    _, report = picard_duhamel(phi, CUBIC, TimeGrid(1.0, 256), _config())
    assert report.iterations >= 3
    d = report.distances
    assert all(b / a < 1.0 for a, b in zip(d, d[1:]) if a > 0.0)
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


def test_picard_overflowing_datum_raises_blowup_without_warning():
    # the datum's transform overflows before the first sweep; the first
    # iterate and the sweep go NaN without a warning, and the sweep's
    # distance raises
    grid = Grid(1, 64, 32.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError):
            picard_duhamel(gaussian(grid, 1e308, 2.0), CUBIC,
                           TimeGrid(0.25, 8), _config())


def test_picard_overflow_in_multi_block_slice_raises_blowup():
    # a 3D 32^3 slice is four row blocks; a non-finite element in any of
    # them makes the slice's gap, and so the sweep's distance, NaN
    grid = Grid(3, 32, 32.0)
    params = ProblemParams(dimension=3, regularity=0.4, power=2.0)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    with pytest.raises(BlowUpError) as err:
        picard_duhamel(gaussian(grid, 40.0, 2.0), CUBIC, TimeGrid(1.0, 8),
                       cfg)
    assert str(err.value) == ("fixed-point iterate overflowed; the datum or "
                              "horizon is outside the contraction regime")
    assert err.value.time is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_picard_non_finite_element_in_a_new_slice_raises_blowup(monkeypatch,
                                                                bad):
    # the sweep scans no slice for finiteness: one non-finite element
    # written into slice 3 of the first sweep is caught by its distance
    grid = Grid(1, 64, 32.0)
    tg = TimeGrid(0.25, 8)
    real, calls = np.fft.ifftn, []

    def ifftn(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        calls.append(out)
        if len(calls) == tg.slices + 3:  # the first iterate takes slices
            out[5] = bad
        return out

    monkeypatch.setattr(np.fft, "ifftn", ifftn)
    with pytest.raises(BlowUpError) as err:
        picard_duhamel(gaussian(grid, 0.1, 2.0), CUBIC, tg, _config())
    assert err.value.time is None


# --------------------------------------------------------------- split step


def test_split_step_free_case_exact(line_grid):
    phi = gaussian(line_grid, 1.0, 2.0)
    traj = split_step(phi, PowerNonlinearity(0.0, 2.0), TimeGrid(1.0, 100))
    for m in (0, 50, 100):
        ref = free_propagate(phi, traj.timegrid.times[m])
        assert np.abs(traj.field(m).values - ref.values).max() < 1e-12


def test_split_step_plane_wave_exact(line_grid):
    amp, mode = 0.5, 3
    phi = plane_wave(line_grid, mode, amp)
    traj = split_step(phi, CUBIC, TimeGrid(1.0, 1000))
    k0 = 2.0 * np.pi * mode / line_grid.period
    exact = (amp * np.exp(1j * k0 * line_grid.axis_coordinates)
             * np.exp(-1j * k0 ** 2) * np.exp(1j * amp ** 2))
    assert np.abs(traj.field(1000).values - exact).max() < 1e-8


def test_split_step_self_convergence_order_two():
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 1.0, 2.0)
    final = {}
    for slices in (125, 250, 500):
        traj = split_step(phi, CUBIC, TimeGrid(0.25, slices))
        final[slices] = traj.field(slices)
    coarse = lebesgue_norm(final[125] - final[250], 2.0)
    fine = lebesgue_norm(final[250] - final[500], 2.0)
    order = np.log2(coarse / fine)
    assert abs(order - 2.0) < 0.1


def test_split_step_mass_conserved_for_real_coupling():
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 1.0, 2.0)
    traj = split_step(phi, PowerNonlinearity(-1.0, 2.0), TimeGrid(1.0, 1000))
    masses = np.array([lebesgue_norm(traj.field(m), 2.0)
                       for m in range(traj.timegrid.slices + 1)])
    assert abs(masses[-1] - masses[0]) < 1e-7
    assert np.abs(np.diff(masses)).max() < 1e-10


def test_split_step_absorbing_coupling_decays():
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 1.0, 2.0)
    traj = split_step(phi, PowerNonlinearity(0.5 + 1.0j, 2.0),
                      TimeGrid(0.5, 500))
    start = lebesgue_norm(traj.field(0), 2.0)
    end = lebesgue_norm(traj.field(traj.timegrid.slices), 2.0)
    assert end < start


def test_split_step_pumping_coupling_blows_up():
    grid = Grid(1, 128, 32.0)
    phi = gaussian(grid, 8.0, 2.0)
    with pytest.raises(BlowUpError) as err:
        split_step(phi, PowerNonlinearity(-1.0j, 2.0), TimeGrid(0.1, 10))
    assert err.value.time == pytest.approx(0.005)


def test_split_step_overflow_raises_blowup_at_its_slice_time():
    # |u|^2 overflows in the first power substep, so slice 1 is the first
    # non-finite slice; no numpy warning is emitted on the way
    grid = Grid(1, 64, 32.0)
    tg = TimeGrid(0.25, 8)
    with pytest.raises(BlowUpError) as err:
        split_step(gaussian(grid, 1e200, 2.0), CUBIC, tg)
    assert err.value.time == tg.times[1]


def test_split_step_initial_slice_bit_exact(line_grid):
    phi = gaussian(line_grid, 0.7, 1.5)
    traj = split_step(phi, CUBIC, TimeGrid(0.1, 10))
    assert np.array_equal(traj.field(0).values, phi.values)


def _stacked_split_step(phi, nl, tg):
    """The split-step loop as it was written, filling its stack as it
    goes, kept here as the bitwise reference."""
    h = tg.dt
    half = np.exp(-0.5j * h * full_mesh_wavenumber_square(phi.grid))
    lam, alpha = complex(nl.coupling), float(nl.power)
    out = np.empty((tg.slices + 1,) + phi.grid.shape, dtype=complex)
    out[0] = work = phi.values
    for m in range(tg.slices):
        work = np.fft.ifftn(half * np.fft.fftn(work))
        work = _power_substep(work, lam, alpha, h, (m + 0.5) * h)
        work = np.fft.ifftn(half * np.fft.fftn(work))
        out[m + 1] = work
    return out


# 2D 128^2 and 3D 32^3 slices reach numpy's 256 KiB temporary-elision
# threshold, where half * fftn(work) is evaluated as fftn(work) * half;
# 1D, 2D 32^2 and 3D 16^3 stay below it
SPLIT_BITWISE_CASES = [
    (1, 128, 1.0, 2.0),
    (1, 128, 0.5 - 0.25j, 4.0 / 3.0),
    (2, 32, -1.0 + 0.5j, 2.0),
    (2, 128, 1.0, 2.0),
    (2, 128, 0.8 + 0.3j, 1.0),
    (3, 16, 1.0, 2.0),
    (3, 32, -1.0, 2.0),
    (3, 32, 0.8 + 0.3j, 1.0),
]


@pytest.mark.parametrize("dim, points, coupling, power", SPLIT_BITWISE_CASES,
                         ids=[f"{c[0]}d{c[1]}-{c[2]}-a{c[3]:.2f}"
                              for c in SPLIT_BITWISE_CASES])
def test_split_step_streamed_and_stacked_bitwise(dim, points, coupling,
                                                 power):
    grid = Grid(dim, points, 32.0)
    phi = gaussian(grid, 0.3, 2.0)
    nl = PowerNonlinearity(coupling, power)
    tg = TimeGrid(0.25, 4)
    ref = _stacked_split_step(phi, nl, tg)
    stacked = split_step(phi, nl, tg)
    assert stacked.timegrid == tg
    assert np.array_equal(stacked.values.view(np.uint64), ref.view(np.uint64))
    streamed = [v.copy() for v in _split_slices(phi, nl, tg)]
    assert len(streamed) == tg.slices + 1
    for values, row in zip(streamed, ref):
        assert np.array_equal(values.view(np.uint64), row.view(np.uint64))


def _allocating_power_substep(values, lam, alpha, dt):
    """The power substep as it was written, a new array per product,
    kept here as the bitwise reference of the in-place one."""
    mag = np.abs(values) ** alpha
    if lam.imag == 0.0:
        return values * np.exp(1j * (lam.real * dt) * mag)
    w = (alpha * lam.imag * dt) * mag
    floor = 1.0 + w
    out = values * floor ** (-1.0 / alpha)
    if lam.real != 0.0:
        safe = np.where(w == 0.0, 1.0, w)
        ramp = np.where(w == 0.0, 1.0, np.log1p(w) / safe)
        out = out * np.exp(1j * (lam.real * dt) * mag * ramp)
    return out


@pytest.mark.parametrize("coupling, power", [(1.0, 2.0), (-1.0, 4.0 / 3.0),
                                             (0.8 + 0.3j, 1.0),
                                             (-1.0 + 0.5j, 2.0),
                                             (0.5j, 2.0)])
@pytest.mark.parametrize("dim, points", [(1, 128), (2, 32), (2, 128),
                                         (3, 32)])
def test_power_substep_in_place_is_the_allocating_substep_bitwise(
        dim, points, coupling, power):
    # on both sides of numpy's 256 KiB elision size, with exact zeros in
    # the slice so that the ramp's w == 0 branch is taken
    grid = Grid(dim, points, 32.0)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(
        grid.shape)
    values.reshape(-1)[::7] = 0.0
    lam = complex(coupling)
    ref = _allocating_power_substep(values, lam, power, 0.05)
    mag, spec = np.empty(grid.shape), np.empty(grid.shape, dtype=complex)
    for scratch in ((), (mag, spec)):
        work = values.copy()
        out = _power_substep(work, lam, power, 0.05, 0.025, *scratch)
        assert out is work
        assert np.array_equal(work.view(np.uint64), ref.view(np.uint64))


def test_power_substep_blow_up_leaves_the_slice_unwritten():
    values = np.full(16, 2.0 + 0.0j)
    with pytest.raises(BlowUpError) as err:
        _power_substep(values, -1.0j, 2.0, 1.0, 0.5)
    assert err.value.time == 0.5
    assert np.array_equal(values, np.full(16, 2.0 + 0.0j))


def _drain_split_slices(phi, nl, tg):
    for values in _split_slices(phi, nl, tg):
        pass


@pytest.mark.parametrize("coupling, power, beside", [(1.0, 2.0, 4.5),
                                                     (0.8 + 0.3j, 1.0, 5.5)])
@pytest.mark.parametrize("dim, points", [(2, 128), (3, 32)])
def test_split_stream_holds_a_fixed_number_of_slices(dim, points, coupling,
                                                     power, beside):
    # the stream steps in one slice buffer, one spectral buffer and one
    # float buffer beside the half-step multiplier, so its peak does not
    # grow with the step count beyond a few KiB of Python objects (real
    # coupling 4.0 slices at 2D 128^2 and 3.8 at 3D 32^3, complex 5.1 and
    # 4.8; fresh meshes per half step and substep gave 6.0 and 8.5)
    grid = Grid(dim, points, 32.0)
    warm(grid)
    phi = gaussian(grid, 0.3, 2.0)
    nl = PowerNonlinearity(coupling, power)
    peaks = [traced_peak(_drain_split_slices, phi, nl, TimeGrid(0.25, n))
             for n in (4, 32)]
    assert abs(peaks[1] - peaks[0]) <= 0.05 * grid.size * 16
    assert max(peaks) <= beside * grid.size * 16
    stream = _split_slices(phi, nl, TimeGrid(0.25, 4))
    assert next(stream) is phi.values
    assert not any(values.flags.writeable for values in stream)


# ---------------------------------------------------------------- heuristics


def test_smallness_zero_datum(line_grid):
    zero = Field(line_grid, np.zeros(line_grid.shape, dtype=complex))
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


@pytest.mark.parametrize("dim, points", [(1, 128), (2, 32), (3, 16)])
def test_smallness_streamed_is_bitwise_the_stacked_norm(dim, points):
    params = ProblemParams(dimension=dim, regularity=0.4, power=2.0)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    gamma, rho = cfg.metric_pair
    grid = Grid(dim, points, 16.0)
    phi = gaussian(grid, 0.2, 2.0, center=[1.0] * dim)
    tg = TimeGrid(0.5, 8)
    stacked = trapezoid_norm([besov_norm_lp(f, 0.4, rho)
                              for f in fields(free_trajectory(phi, tg))],
                             tg.dt, gamma)
    assert smallness_check(phi, tg, cfg, params) == stacked


def test_smallness_peak_memory_no_stack():
    # the free-flow slices stream through the norm; no stack is built
    params = ProblemParams(dimension=2, regularity=0.4, power=2.0)
    grid = Grid(2, 64, 32.0)
    warm(grid)
    phi = gaussian(grid, 0.08, 2.0)
    tg = TimeGrid(0.25, 32)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    smallness_check(phi, tg, cfg, params)  # builds the annulus multipliers
    peak = traced_peak(smallness_check, phi, tg, cfg, params)
    assert peak <= 0.5 * stack_bytes(grid, tg)


def test_smallness_peak_memory_at_dependence_shape():
    # 2D 128^2 with 32 slices: the free-flow stream builds each slice's
    # phase row alone, so no phase table over all slice times is held
    params = ProblemParams(dimension=2, regularity=0.4, power=2.0)
    grid = Grid(2, 128, 32.0)
    warm(grid)
    phi = gaussian(grid, 0.08, 2.0)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    tg = TimeGrid(0.25, 32)
    smallness_check(phi, tg, cfg, params)  # builds the annulus multipliers
    peak = traced_peak(smallness_check, phi, tg, cfg, params)
    assert peak <= 6 * grid.size * 16
