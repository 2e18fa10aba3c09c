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

Both experiments solve the family through one driver, as tasks of one
thread pool at every thread count: the two smallness gate norms side by
side, then the base solve and the row solves beside it.  One worker
runs the same tasks one after another in submission order.
"""

from contextlib import contextmanager
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .exponents import ProblemParams, dual, sigma
from .grid import Field, gaussian, inner_product, lebesgue_norm, lp_norm
from .nonlinearity import THETA_NODES, PowerNonlinearity, remainder_K
from .solver import (NonConvergenceError, PicardConfig, TimeGrid,
                     _split_slices, picard_duhamel, smallness_check)
from .spaces import sobolev_norm, spacetime_norm, trapezoid_norm

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

    @cached_property
    def scales(self) -> tuple:
        return tuple(self.initial_scale * 0.5 ** k
                     for k in range(self.depth + 1))

    def datum(self, k: int) -> Field:
        return self.base + self.scales[k] * self.direction


def _endpoint_smallness(submit, family: PerturbationFamily, tg: TimeGrid,
                        cfg: PicardConfig, params: ProblemParams) -> tuple:
    # the free-evolution norm is convex along the affine family, so the
    # base and the largest perturbation bound every intermediate scale
    pending = [submit(smallness_check, phi, tg, cfg, params)
               for phi in (family.base, family.datum(0))]
    return tuple(future.result() for future in pending)


def choose_horizon(params: ProblemParams, family: PerturbationFamily,
                   cfg: PicardConfig, horizon: float, slices: int,
                   threads: int = 1) -> tuple:
    """Shrink the horizon until the whole family passes the smallness gate.

    Halves T and the slice count, which stops at 2 (so dt changes at an
    odd count and at that floor), until the free evolution of the worst
    datum stays below the configured threshold.  With a large time
    exponent each halving only shaves a few percent off the norm, so a
    datum well above the threshold cannot be rescued by any reasonable
    horizon; after 60 halvings that case raises rather than looping.  A
    NaN gate norm fails the gate too, and so goes on halving.
    Returns the accepted grid and its (base, worst) gate norms, which
    `run_dependence` takes as `smallness` rather than recomputing them.
    The two gate norms of each horizon are tasks of one pool of
    `threads` workers; the result does not depend on threads.
    """
    tg = TimeGrid(horizon, slices)
    with _task_runner(threads) as submit:
        for _ in range(61):
            smallness = _endpoint_smallness(submit, family, tg, cfg, params)
            worst = float(np.max(smallness))  # NaN if either norm is
            if worst < cfg.smallness_delta:
                return tg, smallness
            tg = TimeGrid(0.5 * tg.horizon, max(2, tg.slices // 2))
    raise RuntimeError(
        f"smallness {worst:.4f} still >= {cfg.smallness_delta} "
        "after 60 halvings; the datum itself is too large "
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
        return asdict(self)


_COLUMNS = ("sup_sobolev", "spacetime_besov", "spacetime_lebesgue")


@dataclass(frozen=True)
class DependenceReport:
    """All rows of one experiment; the headline log-log fit (sup-Sobolev
    over the valid rows, None below 4) is derived from them."""

    timegrid: TimeGrid
    rows: tuple
    base_smallness: float = 0.0
    worst_smallness: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        scales = [row.scale for row in self.rows]
        if any(b > a for a, b in zip(scales, scales[1:])):
            raise ValueError("rows must be sorted by decreasing scale")

    def valid_rows(self) -> tuple:
        return tuple(row for row in self.rows if row.valid)

    def _headline(self) -> tuple:
        return _fit(self.rows) or (None, None, None)

    slope = property(lambda self: self._headline()[0])
    intercept = property(lambda self: self._headline()[1])
    r_squared = property(lambda self: self._headline()[2])

    def running_slopes(self) -> list:
        """Headline slope over each prefix of the rows, from 2 valid rows
        on; None before that and where the prefix's fit is degenerate."""
        slopes = []
        for i in range(len(self.rows)):
            try:
                slopes.append((_fit(self.rows[:i + 1], minimum=2)
                               or (None,))[0])
            except ValueError:
                slopes.append(None)
        return slopes

    def to_dict(self) -> dict:
        return {"horizon": self.timegrid.horizon,
                "slices": self.timegrid.slices,
                "slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared,
                "base_smallness": self.base_smallness,
                "worst_smallness": self.worst_smallness,
                "rows": [row.to_dict() for row in self.rows],
                "flags": [k for k, row in enumerate(self.rows)
                          if not row.valid],
                "lipschitz_constant": (lipschitz_constant(self)
                                       if self.valid_rows() else None)}


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


def _valid_columns(rows, column: str) -> tuple:
    """Input distances and one output column over the valid rows."""
    if column not in _COLUMNS:
        raise ValueError(f"column must be one of {_COLUMNS}, got {column!r}")
    usable = [row for row in rows if row.valid]
    return ([row.input_distance for row in usable],
            [getattr(row, column) for row in usable])


def _fit(rows, column: str = "sup_sobolev",
         minimum: int = 4) -> Optional[tuple]:
    """Log-log fit of one column over the valid rows; None below minimum."""
    inputs, outputs = _valid_columns(rows, column)
    return loglog_fit(inputs, outputs) if len(inputs) >= minimum else None


def fit_slope(report: DependenceReport,
              column: str = "sup_sobolev") -> tuple:
    """Fitted modulus-of-continuity exponent for one output column."""
    fit = _fit(report.rows, column)
    if fit is None:
        raise ValueError("need at least 4 valid rows, "
                         f"have {len(report.valid_rows())}")
    return fit[0], fit[2]


def lipschitz_constant(report: DependenceReport,
                       column: str = "sup_sobolev") -> float:
    """Largest output/input ratio over the valid rows of one column."""
    inputs, outputs = _valid_columns(report.rows, column)
    if not inputs:
        raise ValueError("no valid rows")
    return max(y / x for x, y in zip(inputs, outputs))


# -------------------------------------------------------------- experiments


@contextmanager
def _task_runner(threads: int):
    """Yield submit(fn, *args) -> a future of fn(*args).

    Every task goes to one pool of `threads` workers, which starts them
    in submission order, so one worker runs them one after another.  The
    first task to raise cancels every task not yet started, as does an
    exception leaving the block.  Callers assemble results by index, so
    output does not depend on the thread count."""
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
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


def _solve(datum: Field, nl: PowerNonlinearity, tg: TimeGrid,
           cfg: PicardConfig) -> tuple:
    """(trajectory, report) of one row; a solve that stops at the
    iteration cap keeps its partial trajectory, its report unconverged."""
    try:
        return picard_duhamel(datum, nl, tg, cfg)
    except NonConvergenceError as err:
        return err.trajectory, err.report


def _solve_family(submit, params: ProblemParams, family: PerturbationFamily,
                  cfg: PicardConfig, tg: TimeGrid, nl: PowerNonlinearity,
                  row_step, smallness: Optional[tuple] = None) -> tuple:
    """Gate the family on tg, then solve the base and one task per row.

    A given (base, worst) smallness pair is checked as is.  Row k's task
    returns row_step(k, datum, _solve(datum, ...), base future).  Returns
    the gate norms, the base trajectory and the row results by index."""
    if smallness is None:
        smallness = _endpoint_smallness(submit, family, tg, cfg, params)
    worst = float(np.max(smallness))  # NaN if either norm is, and fails
    if not worst < cfg.smallness_delta:
        raise ValueError(f"free evolution reaches {worst:.4f} >= "
                         f"{cfg.smallness_delta} over the horizon; shrink "
                         "it (see choose_horizon)")
    base = submit(picard_duhamel, family.base, nl, tg, cfg)

    def row(k: int):
        datum = family.datum(k)
        return row_step(k, datum, _solve(datum, nl, tg, cfg), base)

    pending = [submit(row, k) for k in range(family.depth + 1)]
    # a failed base solve fails the rows waiting on it; raise its own
    return smallness, base.result()[0], tuple(f.result() for f in pending)


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

    The family is solved on one pool of `threads` workers (see
    `_solve_family`).  Beside the shared base a row holds only its own
    trajectory stack, dropped when its task ends: it streams the oracle
    slices for its gap, then forms traj[m] - base[m] in one slice
    buffer, takes its Lebesgue norm and hands it to `spacetime_norm`,
    whose one forward transform per slice gives the sup-Sobolev and
    Besov values, before the next slice is formed.
    """
    nl = PowerNonlinearity.from_params(params)
    s = float(params.regularity)
    gamma, rho = cfg.metric_pair
    p_sigma = sigma(params)
    grid = family.base.grid

    def measure_row(k, datum, solved, base) -> DependenceRow:
        traj, rep = solved
        buf = np.empty(grid.shape, dtype=complex)
        gap = agrees = None
        if cross_check:
            # an oracle that overflows gives a NaN gap, which never agrees
            with np.errstate(over="ignore", invalid="ignore"):
                gaps = [lp_norm(np.subtract(a, b, out=buf), 2.0,
                                grid.cell_volume)
                        for a, b in zip(traj.values,
                                        _split_slices(datum, nl, tg))]
            gap = trapezoid_norm(gaps, tg.dt, np.inf)
            agrees = gap <= cross_tol
        lebesgue = []

        def diffs():
            view = buf.view()  # Field._view takes read-only arrays only
            view.setflags(write=False)
            for a, b in zip(traj.values, base.result()[0].values):
                np.subtract(a, b, out=buf)
                lebesgue.append(lebesgue_norm(Field._view(grid, view),
                                              p_sigma))
                yield buf

        sup, besov = spacetime_norm(grid, diffs(), tg.dt, s, rho, gamma,
                                    homogeneous=True)
        return DependenceRow(
            family.scales[k], sobolev_norm(datum - family.base, s),
            sup, besov, trapezoid_norm(lebesgue, tg.dt, gamma),
            converged=rep.converged, iterations=rep.iterations,
            oracle_gap=gap, oracle_agrees=agrees)

    with _task_runner(threads) as submit:
        (base_small, worst_small), _, rows = _solve_family(
            submit, params, family, cfg, tg, nl, measure_row, smallness)
    return DependenceReport(timegrid=tg, rows=rows,
                            base_smallness=base_small,
                            worst_smallness=worst_small)


@dataclass(frozen=True)
class RemainderDecayRow:
    """Time-integrated remainder against one perturbation scale."""

    scale: float
    integrated: float
    converged: bool = True


def _remainder_exponents(params: ProblemParams, cfg: PicardConfig) -> tuple:
    """(s, p, r) of the standard bundle: p = rho', r = rho."""
    rho = cfg.metric_pair[1]
    return float(params.regularity), dual(rho), rho


def remainder_decay_experiment(params: ProblemParams,
                               family: PerturbationFamily,
                               cfg: PicardConfig, tg: TimeGrid, *,
                               theta_nodes: int = THETA_NODES,
                               shells: int = 32,
                               threads: int = 1) -> tuple:
    """Integrated remainder along solved trajectories, one row per scale.

    Each row solves the perturbed problem, evaluates the remainder
    functional slice by slice against the base solution at the standard
    exponent bundle (p the dual of rho, r = rho), and integrates in
    time at the dual of the metric's time exponent.  The remainder
    evaluations share the pool that solves the family (see
    `_solve_family`): the slices are split into one contiguous block per
    thread, and one remainder_K call takes a block, the base slice
    against every row's slice for every slice of the block, in one
    offset loop.  Each value is bitwise that of its own slice's call,
    and all is assembled by index, so output does not depend on threads.
    """
    if shells < 2 or theta_nodes < 2:
        raise ValueError("need at least 2 radial shells and 2 quadrature "
                         f"nodes, got {shells} and {theta_nodes}")
    nl = PowerNonlinearity.from_params(params)
    exponents = _remainder_exponents(params, cfg)
    time_exponent = dual(cfg.metric_pair[0])

    def block_remainders(block) -> tuple:
        return remainder_K([base_traj.field(m) for m in block],
                           [[traj.field(m) for traj, _ in solved]
                            for m in block], nl, *exponents,
                           theta_nodes=theta_nodes, shells=shells)

    with _task_runner(threads) as submit:
        _, base_traj, solved = _solve_family(  # keep (trajectory, converged)
            submit, params, family, cfg, tg, nl,
            lambda k, datum, row, base: (row[0], row[1].converged))
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


def static_remainder_decay(params: ProblemParams, family: PerturbationFamily,
                           cfg: PicardConfig, *,
                           theta_nodes: int = THETA_NODES,
                           shells: int = 32) -> tuple:
    """Remainder of the base against each datum of the family, no
    dynamics, at the exponents of `remainder_decay_experiment`."""
    data = [family.datum(k) for k in range(family.depth + 1)]
    nl = PowerNonlinearity.from_params(params)
    (values,) = remainder_K([family.base], [data], nl,
                            *_remainder_exponents(params, cfg),
                            theta_nodes=theta_nodes, shells=shells)
    return tuple(RemainderDecayRow(eps, value)
                 for eps, value in zip(family.scales, values))
