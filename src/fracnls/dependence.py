"""Dependence of the numerical flow map on its initial datum.

The headline experiment perturbs one datum along a fixed direction at
geometrically shrinking scales, solves every perturbed problem on a
shared horizon, and measures how far each solution drifts from the base
solution in three norms: the supremum-in-time Sobolev norm, the mixed
space-time norm built on the homogeneous Besov scale, and the mixed
Lebesgue norm at the companion integrability order.  Log-log fits of
output distance against input distance estimate the modulus of
continuity; for powers at least one the theory predicts slope one
(Lipschitz), below one it only guarantees continuity and the lab
reports what it sees without asserting a law.

A second experiment integrates the lower-order remainder functional
along the solved trajectories and watches it vanish as the perturbation
scale shrinks, which is the mechanism that upgrades weak-norm
convergence to convergence with derivatives.

Both experiments run as tasks of one thread pool: the two smallness
gate norms side by side, then the base solve and the row solves beside
it.  With one thread the same tasks run inline in the same order.
"""

import math
from contextlib import contextmanager
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponents import ProblemParams, dual, sigma
from .grid import Field, gaussian, inner_product, lp_norm
from .grid import lebesgue_norm  # noqa: F401  perfbench/tests patch it here
from .nonlinearity import (THETA_NODES, Nonlinearity, PowerNonlinearity,
                           remainder_K)
from .solver import (NonConvergenceError, PicardConfig, TimeGrid,
                     _split_slices, picard_duhamel, smallness_check)
from .spaces import (NormSpec, ShellQuadrature, sobolev_norm, spacetime_norm,
                     trapezoid_norm)

__all__ = [
    "PerturbationFamily", "DependenceRow", "DependenceReport",
    "RemainderDecayRow", "default_direction", "choose_horizon",
    "run_dependence", "fit_slope", "lipschitz_constant", "loglog_fit",
    "remainder_decay_experiment", "static_remainder_decay",
]


# ------------------------------------------------------------------ family


def default_direction(base: Field, regularity: float,
                      center: float = 3.0, width: float = 1.5) -> Field:
    """Unit-Sobolev-norm perturbation direction transverse to the base.

    A Gaussian bump shifted away from the origin, made orthogonal to the
    base in L^2 so that no part of the perturbation is a plain amplitude
    rescaling, then normalized in H^regularity.
    """
    grid = base.grid
    raw = gaussian(grid, 1.0, width, center=[center] * grid.dim)
    weight = inner_product(base, base).real
    if weight > 0.0:
        raw = raw - (inner_product(base, raw) / weight) * base
    size = sobolev_norm(raw, regularity)
    if size == 0.0:
        raise ValueError("direction collapsed to zero after projection")
    return (1.0 / size) * raw


@dataclass(frozen=True)
class PerturbationFamily:
    """Perturbed data base + eps_k * direction, eps_k = initial_scale / 2^k.

    The direction must be normalized in H^regularity so the scale IS the
    input distance; k runs from 0 to depth.
    """

    base: Field
    direction: Field
    initial_scale: float
    depth: int
    regularity: float

    def __post_init__(self):
        if self.direction.grid != self.base.grid:
            raise ValueError("base and direction live on different grids")
        if self.initial_scale < 0:
            raise ValueError(
                f"initial_scale must be >= 0, got {self.initial_scale}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        size = sobolev_norm(self.direction, self.regularity)
        if abs(size - 1.0) > 1e-8:
            raise ValueError(
                f"direction must have unit Sobolev norm, got {size!r}")

    @property
    def scales(self) -> tuple:
        return tuple(self.initial_scale * 0.5 ** k
                     for k in range(self.depth + 1))

    def datum(self, k: int) -> Field:
        return self.base + self.scales[k] * self.direction


def _run_inline(fn, *args) -> Future:
    """Run fn(*args) now and hand back its result as a done future; an
    exception propagates at once."""
    future = Future()
    future.set_result(fn(*args))
    return future


def _endpoint_smallness(submit, family: PerturbationFamily, tg: TimeGrid,
                        cfg: PicardConfig, params: ProblemParams) -> tuple:
    # the free-evolution norm is convex along the affine family, so the
    # base and the largest perturbation bound every intermediate scale
    pending = [submit(smallness_check, phi, tg, cfg, params)
               for phi in (family.base, family.datum(0))]
    return tuple(future.result() for future in pending)


def choose_horizon(params: ProblemParams, family: PerturbationFamily,
                   cfg: PicardConfig, horizon: float, slices: int,
                   max_halvings: int = 60, threads: int = 1) -> tuple:
    """Shrink the horizon until the whole family passes the smallness gate.

    Halves T (and the slice count with it, keeping dt) until the free
    evolution of the worst datum stays below the configured threshold.
    With a large time exponent each halving only shaves a few percent
    off the norm, so a datum well above the threshold cannot be rescued
    by any reasonable horizon; that case raises rather than looping.
    Returns the accepted grid and its (base, worst) gate norms, which
    `run_dependence` takes as `smallness` rather than recomputing them.
    With threads > 1 the two gate norms of each horizon run side by
    side in one pool; the result does not depend on threads.
    """
    tg = TimeGrid(horizon, slices)
    with _task_runner(threads) as submit:
        for _ in range(max_halvings + 1):
            smallness = _endpoint_smallness(submit, family, tg, cfg, params)
            if max(smallness) < cfg.smallness_delta:
                return tg, smallness
            tg = TimeGrid(0.5 * tg.horizon, max(2, tg.slices // 2))
    raise RuntimeError(
        f"smallness {max(smallness):.4f} still >= {cfg.smallness_delta} "
        f"after {max_halvings} halvings; the datum itself is too large "
        "for the threshold")


# ------------------------------------------------------------- measurements


@dataclass(frozen=True)
class DependenceRow:
    """One perturbation scale: input distance and the three output norms."""

    scale: float
    input_distance: float
    sup_sobolev: float
    spacetime_besov: float
    spacetime_lebesgue: float
    converged: bool
    iterations: int
    oracle_gap: Optional[float] = None
    oracle_agrees: Optional[bool] = None

    @property
    def valid(self) -> bool:
        """Usable for fits: solver trusted and every distance positive."""
        return (self.converged and self.oracle_agrees is not False
                and self.input_distance > 0.0 and self.sup_sobolev > 0.0
                and self.spacetime_besov > 0.0
                and self.spacetime_lebesgue > 0.0)

    def to_dict(self) -> dict:
        return {"scale": self.scale, "input_distance": self.input_distance,
                "sup_sobolev": self.sup_sobolev,
                "spacetime_besov": self.spacetime_besov,
                "spacetime_lebesgue": self.spacetime_lebesgue,
                "converged": self.converged, "iterations": self.iterations,
                "oracle_gap": self.oracle_gap,
                "oracle_agrees": self.oracle_agrees}


_COLUMNS = ("sup_sobolev", "spacetime_besov", "spacetime_lebesgue")


@dataclass(frozen=True)
class DependenceReport:
    """All rows of one experiment plus the headline log-log fit."""

    timegrid: TimeGrid
    rows: tuple
    slope: Optional[float] = None
    intercept: Optional[float] = None
    r_squared: Optional[float] = None
    base_smallness: float = 0.0
    worst_smallness: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        scales = [row.scale for row in self.rows]
        if any(b > a for a, b in zip(scales, scales[1:])):
            raise ValueError("rows must be sorted by decreasing scale")

    def valid_rows(self) -> tuple:
        return tuple(row for row in self.rows if row.valid)

    def to_dict(self) -> dict:
        return {"horizon": self.timegrid.horizon,
                "slices": self.timegrid.slices,
                "slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared,
                "base_smallness": self.base_smallness,
                "worst_smallness": self.worst_smallness,
                "rows": [row.to_dict() for row in self.rows]}


def loglog_fit(inputs, outputs):
    """Least squares of log(output) on log(input): (slope, intercept, r2)."""
    x = np.log(np.asarray(inputs, dtype=float))
    y = np.log(np.asarray(outputs, dtype=float))
    if x.size < 2:
        raise ValueError("need at least 2 points to fit a line")
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate fit: all inputs equal")
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    residual = y - (slope * x + intercept)
    total = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if total == 0.0 else 1.0 - float(np.sum(residual ** 2)) / total
    return slope, float(intercept), r2


def fit_slope(report: DependenceReport,
              column: str = "sup_sobolev") -> tuple:
    """Fitted modulus-of-continuity exponent for one output column."""
    if column not in _COLUMNS:
        raise ValueError(f"column must be one of {_COLUMNS}, got {column!r}")
    rows = report.valid_rows()
    if len(rows) < 4:
        raise ValueError(f"need at least 4 valid rows, have {len(rows)}")
    slope, _, r2 = loglog_fit([row.input_distance for row in rows],
                              [getattr(row, column) for row in rows])
    return slope, r2


def lipschitz_constant(report: DependenceReport,
                       column: str = "sup_sobolev") -> float:
    """Largest output/input ratio over the valid rows of one column."""
    if column not in _COLUMNS:
        raise ValueError(f"column must be one of {_COLUMNS}, got {column!r}")
    rows = report.valid_rows()
    if not rows:
        raise ValueError("no valid rows")
    return max(getattr(row, column) / row.input_distance for row in rows)


# -------------------------------------------------------------- experiments


@contextmanager
def _task_runner(threads: int):
    """Yield submit(fn, *args) -> a future of fn(*args).

    With threads > 1 every task goes to one thread pool, which starts
    them in submission order, and the first task to raise cancels every
    task not yet started, as does an exception leaving the block.  With
    one thread submit runs the task inline, so tasks run one after
    another in submission order.  Callers assemble results by index,
    so output does not depend on the thread count."""
    if threads <= 1:
        yield _run_inline
        return
    futures = []

    def cancel_pending():
        for future in list(futures):
            future.cancel()

    def on_done(future):
        if not future.cancelled() and future.exception() is not None:
            cancel_pending()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        def submit(fn, *args) -> Future:
            future = pool.submit(fn, *args)
            futures.append(future)
            future.add_done_callback(on_done)
            return future

        try:
            yield submit
        except BaseException:
            cancel_pending()
            raise


def _gate_smallness(submit, family, tg, cfg, params, smallness=None):
    if smallness is None:
        smallness = _endpoint_smallness(submit, family, tg, cfg, params)
    if max(smallness) >= cfg.smallness_delta:
        raise ValueError(
            f"free evolution reaches {max(smallness):.4f} "
            f">= {cfg.smallness_delta} over the horizon; shrink it "
            "(see choose_horizon)")
    return smallness


def run_dependence(params: ProblemParams, family: PerturbationFamily,
                   cfg: PicardConfig, tg: TimeGrid, *,
                   cross_check: bool = False, cross_tol: float = 1e-4,
                   threads: int = 1,
                   smallness: Optional[tuple] = None) -> DependenceReport:
    """Solve the family and measure all three output-distance columns.

    One solve per scale plus the base solve, all on the shared time
    grid, which must pass the smallness gate for the base and the worst
    perturbation.  A row whose solve stops at the iteration cap keeps
    its partial trajectory and is flagged rather than aborting the
    experiment; with cross_check each row is also integrated by the
    split-step oracle and flagged when the two disagree beyond
    cross_tol in supremum-in-time L^2.  A given smallness, the (base,
    worst) gate norms on tg from `choose_horizon`, is checked as is.

    The two gate norms, the base solve and the rows are tasks of one
    pool when threads > 1: the gate norms run side by side and are
    checked before any solve starts; then the base solve goes first and
    the rows after it.  Beside the shared base a row holds only its own
    trajectory stack: it streams the oracle slices for its gap, then
    forms traj[m] - base[m] in one slice buffer and feeds each slice to
    all three norms.  Rows are assembled by index, so output does not
    depend on threads.
    """
    nl = PowerNonlinearity.from_params(params)
    s = float(params.regularity)
    gamma, rho = cfg.metric_pair
    sup_spec = NormSpec("sobolev_multiplier", s=s)
    besov_spec = NormSpec("besov_lp", s=s, p=rho, q=2.0, homogeneous=True)
    lebesgue_spec = NormSpec("lebesgue", p=sigma(params))

    def solve_row(k: int, base: Future) -> DependenceRow:
        datum, grid = family.datum(k), family.base.grid
        converged = True
        try:
            traj, rep = picard_duhamel(datum, nl, tg, cfg)
        except NonConvergenceError as err:
            traj, rep, converged = err.trajectory, err.report, False
        buf = np.empty(grid.shape, dtype=complex)
        gap = agrees = None
        if cross_check:
            oracle = _split_slices(datum, nl, tg)
            gap = max(lp_norm(np.subtract(a, b, out=buf), 2.0,
                              grid.cell_volume)
                      for a, b in zip(traj.values, oracle))
            agrees = gap <= cross_tol

        def diffs():
            view = buf.view()  # Field._view takes read-only arrays only
            view.setflags(write=False)
            for a, b in zip(traj.values, base.result()[0].values):
                np.subtract(a, b, out=buf)
                yield Field._view(grid, view)

        return DependenceRow(
            family.scales[k], sobolev_norm(datum - family.base, s),
            *spacetime_norm(diffs(), tg.dt, (math.inf, sup_spec),
                            (gamma, besov_spec), (gamma, lebesgue_spec)),
            converged=converged, iterations=rep.iterations,
            oracle_gap=gap, oracle_agrees=agrees)

    with _task_runner(threads) as submit:
        base_small, worst_small = _gate_smallness(submit, family, tg, cfg,
                                                  params, smallness)
        base = submit(picard_duhamel, family.base, nl, tg, cfg)
        pending = [submit(solve_row, k, base)
                   for k in range(family.depth + 1)]
        # a failed base solve fails the rows waiting on it; raise its own
        base.result()
        rows = tuple(future.result() for future in pending)
    slope = intercept = r2 = None
    usable = [row for row in rows if row.valid]
    if len(usable) >= 4:
        slope, intercept, r2 = loglog_fit(
            [row.input_distance for row in usable],
            [row.sup_sobolev for row in usable])
    return DependenceReport(timegrid=tg, rows=rows, slope=slope,
                            intercept=intercept, r_squared=r2,
                            base_smallness=base_small,
                            worst_smallness=worst_small)


@dataclass(frozen=True)
class RemainderDecayRow:
    """Time-integrated remainder against one perturbation scale."""

    scale: float
    integrated: float
    converged: bool = True


def remainder_decay_experiment(params: ProblemParams,
                               family: PerturbationFamily,
                               cfg: PicardConfig, tg: TimeGrid, *,
                               remainder_map: Optional[Nonlinearity] = None,
                               theta_nodes: int = THETA_NODES,
                               quad: Optional[ShellQuadrature] = None,
                               threads: int = 1) -> tuple:
    """Integrated remainder along solved trajectories, one row per scale.

    Each row solves the perturbed problem, evaluates the remainder
    functional slice by slice against the base solution at the standard
    exponent bundle (p the dual of rho, q = 2, r = rho), and integrates
    in time at the dual of the metric's time exponent.  remainder_map
    overrides the map inside the functional only, so the decay can be
    probed along linear flows where the model map is switched off.
    With threads > 1 the two gate norms run side by side in one pool,
    checked before any solve starts; then the base solve and the row
    solves, and then the remainder evaluations, share that pool.  The
    slices are split into one contiguous block per thread, and one
    remainder_K call takes a block: the base slice against every row's
    slice, for every slice of the block, in one offset loop.  Each value
    is bitwise that of its own slice's call, and everything is assembled
    by index, so the output does not depend on the thread count.
    """
    nl = PowerNonlinearity.from_params(params)
    rmap = nl if remainder_map is None else remainder_map
    s = float(params.regularity)
    gamma, rho = cfg.metric_pair
    time_exponent = dual(gamma)

    def solve_row(k: int):
        try:
            return picard_duhamel(family.datum(k), nl, tg, cfg)[0], True
        except NonConvergenceError as err:
            return err.trajectory, False

    def block_remainders(block) -> tuple:
        return remainder_K([base_traj.field(m) for m in block],
                           [[traj.field(m) for traj, _ in solved]
                            for m in block], rmap,
                           s, dual(rho), 2.0, rho, theta_nodes, quad)

    with _task_runner(threads) as submit:
        _gate_smallness(submit, family, tg, cfg, params)
        base = submit(picard_duhamel, family.base, nl, tg, cfg)
        pending = [submit(solve_row, k) for k in range(family.depth + 1)]
        base_traj = base.result()[0]
        solved = tuple(future.result() for future in pending)
        blocks = np.array_split(np.arange(tg.slices + 1),
                                min(threads, tg.slices + 1))
        pending = [submit(block_remainders, block) for block in blocks]
        by_slice = [values for future in pending
                    for values in future.result()]
    by_row = np.array(by_slice).T
    return tuple(RemainderDecayRow(family.scales[k],
                                   trapezoid_norm(by_row[k], tg.dt,
                                                  time_exponent), converged)
                 for k, (_, converged) in enumerate(solved))


def static_remainder_decay(base: Field, direction: Field, scales,
                           nl: Nonlinearity, s: float, p: float, q: float,
                           r: float, theta_nodes: int = THETA_NODES,
                           quad: Optional[ShellQuadrature] = None) -> tuple:
    """Remainder of base against base + eps * direction, no dynamics."""
    (values,) = remainder_K([base],
                            [[base + eps * direction for eps in scales]],
                            nl, s, p, q, r, theta_nodes, quad)
    return tuple(RemainderDecayRow(float(eps), value)
                 for eps, value in zip(scales, values))
