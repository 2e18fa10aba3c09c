"""Time integrators for the periodic model problem.

Two routes to a numerical solution of i u_t + Lap u + g(u) = 0:

* `picard_duhamel` iterates the integral form u = e^{itLap} phi
  + i int_0^t e^{i(t-s)Lap} g(u(s)) ds to a fixed point, measuring
  successive iterates in the mixed space-time metric L^gamma L^rho that
  the contraction argument is phrased in.  It converges only while the
  free evolution of the datum is small over the horizon, which is the
  regime the well-posedness theory covers; outside it the iteration
  diverges and says so.

* `split_step` is an independent reference integrator: Strang
  composition of the exact free flow with an exact closed-form solution
  of i u_t + g(u) = 0 for the power map.  It has no smallness
  restriction and serves as the oracle the fixed point is checked
  against.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .exponents import is_admissible
from .grid import Field, Grid, _row_blocks, peak_factored_norms
from .nonlinearity import PowerNonlinearity
from .spaces import spacetime_norm, trapezoid_norm

__all__ = [
    "TimeGrid", "Trajectory", "PicardConfig", "IterationReport",
    "BlowUpError", "NonConvergenceError", "picard_duhamel", "split_step",
    "smallness_check",
]


class BlowUpError(RuntimeError):
    """An integrator left the finite range.

    `time` is the substep or slice time at which a split-step run left
    the finite range; None for a sweep whose distance is not finite.
    """

    def __init__(self, message: str, time: Optional[float] = None):
        super().__init__(message)
        self.time = time


class NonConvergenceError(RuntimeError):
    """The fixed-point iteration hit its cap before the tolerance.

    Carries the per-iteration `report` and the last iterate as
    `trajectory` so callers can inspect or flag the run.
    """

    def __init__(self, message: str, report: "IterationReport",
                 trajectory: "Trajectory"):
        super().__init__(message)
        self.report = report
        self.trajectory = trajectory


# ------------------------------------------------------------ time lattice


@dataclass(frozen=True)
class TimeGrid:
    """Uniform slices of [0, horizon]: t_m = m * dt, m = 0 .. slices."""

    horizon: float
    slices: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not isinstance(self.slices, (int, np.integer)) or self.slices < 2:
            raise ValueError(
                f"need an integer slice count >= 2, got {self.slices!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.slices

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.slices + 1)


@dataclass(frozen=True)
class Trajectory:
    """Samples of a solution at every slice time, one read-only array.

    values has shape (slices + 1,) + grid.shape; row 0 is the initial
    datum, bit for bit.  Like Field, the constructor checks the shape and
    finiteness and keeps its own copy.
    """

    timegrid: TimeGrid
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        # the public constructor copies and checks; a solver hands its own
        # checked stack over through _adopt, held and scanned once
        self._keep(np.array(self.values, dtype=complex, order="C"))
        # slice by slice, so no stack-sized mask is built
        if not all(np.isfinite(row.view(float)).all() for row in self.values):
            raise ValueError("trajectory values must be finite")

    @classmethod
    def _adopt(cls, timegrid: TimeGrid, grid: Grid,
               values: np.ndarray) -> "Trajectory":
        """Keep a fresh complex C-ordered stack without copying it.

        The shape is checked and the stack marked read-only, but not
        scanned: the integrators check each slice as they build it.  The
        caller must hold no other reference it writes through."""
        traj = object.__new__(cls)
        object.__setattr__(traj, "timegrid", timegrid)
        object.__setattr__(traj, "grid", grid)
        traj._keep(values)
        return traj

    def _keep(self, vals: np.ndarray):
        expected = (self.timegrid.slices + 1,) + self.grid.shape
        if vals.shape != expected:
            raise ValueError(
                f"expected values of shape (slices + 1,) + grid.shape = "
                f"{expected}, got {vals.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def field(self, m: int) -> Field:
        """Slice m as a Field: a read-only view of row m, not a copy."""
        return Field._view(self.grid, self.values[m])


def _phase_row(unit: complex, t: float, levels: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """exp(unit t level) for every |k|^2 level, into out.  Gathered
    through grid.wavenumber_levels, it is bitwise exp(unit t |k|^2) on
    the mesh (unit t is exact for unit = +-1j, t level rounded once), at
    one exponential per distinct level instead of one per mesh point."""
    return np.exp(np.multiply(unit * t, levels, out=out), out=out)


def _free_slices(phi: Field, tg: TimeGrid):
    """Yield the slices of e^{itLap} phi at t_0, ..., t_slices, read-only.

    Slice 0 is the datum itself; slice m is ifftn(exp(-i t_m |k|^2)
    fftn(phi)), with the phase row of t_m alone, computed in place in
    one slice buffer that the next slice overwrites, so a consumer is
    done with a slice before it asks for the next one."""
    grid = phi.grid
    levels = grid.wavenumber_levels[0]
    row = np.empty(levels.shape, dtype=complex)
    phihat = np.fft.fftn(phi.values)
    yield phi.values
    buf = np.empty(grid.shape, dtype=complex)
    view = buf.view()
    view.setflags(write=False)
    for m in range(1, tg.slices + 1):
        grid.gather(_phase_row(-1j, tg.times[m], levels, row), buf)
        buf *= phihat
        np.fft.ifftn(buf, out=buf)
        yield view


# -------------------------------------------------------------- fixed point


@dataclass(frozen=True)
class PicardConfig:
    """Knobs of the fixed-point iteration.

    metric_pair is the (gamma, rho) of the contraction metric
    L^gamma((0,T), L^rho); it must be admissible in the grid dimension.
    The stopping rule is relative to the first increment: iterate until
    d(u^{k+1}, u^k) <= tol * max(1, d(u^1, u^0)).  smallness_delta is the
    free-evolution threshold callers compare `smallness_check` against
    before trusting the iteration with a horizon.
    """

    metric_pair: tuple
    tol: float = 1e-10
    max_iter: int = 40
    smallness_delta: float = 0.1

    def __post_init__(self):
        gamma, rho = self.metric_pair
        object.__setattr__(self, "metric_pair", (float(gamma), float(rho)))
        if not (gamma >= 2 and rho >= 2):
            raise ValueError(
                f"metric pair must sit in [2, inf), got {self.metric_pair}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.smallness_delta > 0:
            raise ValueError("smallness_delta must be positive, "
                             f"got {self.smallness_delta}")


@dataclass(frozen=True)
class IterationReport:
    """Per-iteration contraction distances d(u^{k+1}, u^k)."""

    distances: tuple
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "distances", tuple(self.distances))

    @property
    def iterations(self) -> int:
        return len(self.distances)


def picard_duhamel(phi: Field, nl: PowerNonlinearity, tg: TimeGrid,
                   cfg: PicardConfig):
    """Fixed point of the integral form, iterated from the free evolution.

    Each sweep evaluates u^{k+1}(t_m) = e^{i t_m Lap} phi
    + i int_0^{t_m} e^{i (t_m - s) Lap} g(u^k(s)) ds with trapezoidal
    quadrature over the stored slices; the running sums share one set of
    spectral multipliers, so a sweep costs O(slices) transforms.  The
    two-thirds rule is applied to g(u^k) to keep the quadratic and
    higher interactions from aliasing back into the resolved band.
    The map is causal: slice m of the new iterate reads the old one at
    slices 0..m only, so a sweep overwrites one trajectory stack in
    place.  The new slice is built in the integrand's slice, over axis-0
    row blocks of at most grid._BLOCK_BYTES; each block is copied into
    the stack, and the increment's magnitudes go over the integrand's
    bytes.  Beside the stack a sweep holds phihat, three scratch slices
    (the integrand, the running sum and its first half term), one row
    block, the |k|^2 level index (an eighth of a slice at uint16) and the
    slice's phases exp(+-i t_m |k|^2) on the |k|^2 levels.  The first
    iterate is built before the running sum and its half term exist, and
    phi is dropped once slice 0 and phihat are taken, so a caller that
    does not keep the datum holds none during the sweeps.  The stack is
    handed to the returned trajectory without a copy.

    Returns (trajectory, report).  Raises NonConvergenceError when
    max_iter sweeps do not reach the relative tolerance (the usual cause
    is a horizon too large for the contraction regime) and BlowUpError
    when an iterate overflows into non-finite values.
    """
    grid = phi.grid
    gamma, rho = cfg.metric_pair
    if not is_admissible(gamma, rho, grid.dim):
        raise ValueError(
            f"metric pair {cfg.metric_pair} is not admissible in "
            f"dimension {grid.dim}")
    levels, index = grid.wavenumber_levels
    unwind, rewind = np.empty((2,) + levels.shape, dtype=complex)
    keep = grid.dealias_mask
    # no warnings: a non-finite transform or slice gives a NaN distance
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        phihat = np.fft.fftn(phi.values)
        ghat = np.empty(grid.shape, dtype=complex)

        # the iterate; slice 0 is the datum and is never written again, so
        # phi is not held through the sweeps
        u = np.empty((tg.slices + 1,) + grid.shape, dtype=complex)
        u[0] = phi.values
        del phi
        # complex multiply is not bitwise commutative, and for slices of
        # 256 KiB and up numpy evaluates this product in its temporary, as
        # conj * phihat; the expression stays as it is to keep those bits
        for m in range(1, tg.slices + 1):
            _phase_row(1j, tg.times[m], levels, unwind)
            np.fft.ifftn(phihat * np.conj(grid.gather(unwind, ghat)), out=u[m])
        # each block is written in place, in the operand order of
        #   new = ifftn(rewind * (phihat + 1j dt (running - half0 - g / 2)))
        # with the integrand g in ghat and the bracket in the block buffer,
        # whose product with the rewind phase, conj(unwind), lands in ghat
        running = np.empty(grid.shape, dtype=complex)
        half0 = np.empty(grid.shape, dtype=complex)
        blocks = _row_blocks(grid.shape)
        buf = np.empty((blocks[0].stop,) + grid.shape[1:], dtype=complex)
        blocks = [(b, buf[:b.stop - b.start]) for b in blocks]
        # the increment's magnitudes, over the first half of ghat's bytes:
        # float rows [start, stop) lie in complex rows [start/2, stop/2),
        # copied into u[m] by then, as the blocks run in ascending order
        mags = ghat.reshape(-1).view(float)[:grid.size].reshape(grid.shape)
        cell = grid.cell_volume
        distances = []
        for _ in range(cfg.max_iter):
            gaps = [0.0]  # slice 0 is the datum in both iterates
            for m in range(tg.slices + 1):
                for b, _ in blocks:
                    nl.g(u[m][b], out=ghat[b])
                np.fft.fftn(ghat, out=ghat)
                _phase_row(1j, tg.times[m], levels, unwind)
                np.conj(unwind, out=rewind)
                for b, a in blocks:
                    g = ghat[b]
                    g *= keep[b]
                    np.multiply(np.take(unwind, index[b], out=a,
                                        mode="wrap"), g, out=g)
                    if m == 0:
                        continue
                    running[b] += g
                    np.subtract(running[b], half0[b], out=a)
                    a -= np.multiply(0.5, g, out=g)
                    a *= tg.dt
                    a *= 1j
                    a += phihat[b]
                    np.multiply(a, np.take(rewind, index[b], out=g,
                                           mode="wrap"), out=g)
                if m == 0:
                    np.copyto(running, ghat)
                    np.multiply(0.5, running, out=half0)
                    continue
                np.fft.ifftn(ghat, out=ghat)
                for b, a in blocks:
                    np.subtract(ghat[b], u[m][b], out=a)
                    u[m][b] = ghat[b]
                    np.abs(a, out=mags[b])
                gaps.append(peak_factored_norms(mags[None], rho,
                                                scale=cell)[0])
            distances.append(trapezoid_norm(gaps, tg.dt, gamma))
            if not np.isfinite(distances[-1]):
                raise BlowUpError("fixed-point iterate overflowed; the "
                                  "datum or horizon is outside the "
                                  "contraction regime")
            converged = distances[-1] <= cfg.tol * max(1.0, distances[0])
            if converged:
                break
    report = IterationReport(tuple(distances), converged)
    trajectory = Trajectory._adopt(tg, grid, u)
    if not converged:
        raise NonConvergenceError(
            f"no contraction after {cfg.max_iter} sweeps "
            f"(last increment {distances[-1]:.3e}); shrink the horizon",
            report, trajectory)
    return trajectory, report


# --------------------------------------------------------------- split step


def _power_substep(values: np.ndarray, lam: complex, alpha: float,
                   dt: float, at_time: float) -> np.ndarray:
    """Exact solution of i u_t + lam |u|^alpha u = 0 over one substep.

    The modulus obeys d|u|^2/dt = -2 Im(lam) |u|^(alpha+2), a separable
    equation with closed form |u(dt)| = |u0| (1 + w)^(-1/alpha) for
    w = alpha Im(lam) |u0|^alpha dt; the phase advances by
    Re(lam) |u0|^alpha dt * log1p(w)/w.  Im(lam) < 0 pumps the modulus
    and reaches the pole when 1 + w <= 0.
    """
    mag = np.abs(values) ** alpha
    if lam.imag == 0.0:
        return values * np.exp(1j * (lam.real * dt) * mag)
    w = (alpha * lam.imag * dt) * mag
    floor = 1.0 + w
    if np.any(floor <= 0.0):
        raise BlowUpError("modulus equation blew up inside a substep",
                          time=at_time)
    out = values * floor ** (-1.0 / alpha)
    if lam.real != 0.0:
        safe = np.where(w == 0.0, 1.0, w)
        ramp = np.where(w == 0.0, 1.0, np.log1p(w) / safe)
        out = out * np.exp(1j * (lam.real * dt) * mag * ramp)
    return out


def _split_slices(phi: Field, nl: PowerNonlinearity, tg: TimeGrid):
    """Yield the Strang split-step slices at t_0, ..., t_slices.

    Slice 0 is the datum itself; each later slice is a new array from
    which the next step starts, so no stack is held."""
    h = tg.dt
    half = phi.grid.gather(np.exp(-0.5j * h * phi.grid.wavenumber_levels[0]))
    lam = complex(nl.coupling)
    alpha = float(nl.power)
    work = phi.values
    yield work
    for m in range(tg.slices):
        work = np.fft.ifftn(half * np.fft.fftn(work))
        work = _power_substep(work, lam, alpha, h, (m + 0.5) * h)
        work = np.fft.ifftn(half * np.fft.fftn(work))
        yield work


def split_step(phi: Field, nl: PowerNonlinearity,
               tg: TimeGrid) -> Trajectory:
    """Strang splitting: half free flow, exact power substep, half free flow.

    Both substeps are exact, so the only error is the order-2 splitting
    error; for a single Fourier mode the two flows commute and the
    composition is exact.  One step spans one slice of tg.  For real
    coupling the power substep leaves the modulus untouched pointwise and
    the free flow is unitary, so the L^2 norm is conserved to rounding.
    The stack holds the slices of `_split_slices`, which callers may
    stream instead; a non-finite slice raises BlowUpError at its time.
    """
    out = np.empty((tg.slices + 1,) + phi.grid.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for m, values in enumerate(_split_slices(phi, nl, tg)):
            if not np.isfinite(values.view(float)).all():
                raise BlowUpError("split step overflowed", time=tg.times[m])
            out[m] = values
    return Trajectory._adopt(tg, phi.grid, out)


# ---------------------------------------------------------------- heuristics


def smallness_check(phi: Field, tg: TimeGrid, cfg: PicardConfig,
                    params) -> float:
    """Size of the free evolution in L^gamma((0, T), B^s_{rho, 2}).

    The fixed point is guaranteed on [0, T] only while this stays below
    the configured smallness threshold; the value is monotone
    nondecreasing in T and exactly degree-1 homogeneous in phi.  params
    supplies the smoothness order s (ProblemParams.regularity).  The
    free-flow slices of `_free_slices` are streamed through
    `spacetime_norm` one at a time, so no trajectory stack is built.
    """
    gamma, rho = cfg.metric_pair
    # no warnings: a slice that is not finite gives a NaN norm
    with np.errstate(over="ignore", invalid="ignore"):
        return spacetime_norm(phi.grid, _free_slices(phi, tg), tg.dt,
                              float(params.regularity), rho, gamma)[1]
