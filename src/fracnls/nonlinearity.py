"""Pointwise nonlinear maps and their fractional-smoothness differences.

The model map is the power nonlinearity g(u) = coupling |u|^power u;
general C1 maps enter through sampled callables under the growth envelope
|g'(u)| <= A + B |u|^power.  The derivative of a C -> C map is carried as
the pair of its Wirtinger derivatives, and |g'| below always means
|dz g| + |dzbar g|, which majorizes the Jacobian operator norm.

Differences g(z1) - g(z2) are reconstructed by integrating the derivative
pair along the straight segment between the points.  Applying the same
segment integral to translation increments of two fields isolates the
lower-order remainder of the difference bound in the finite-difference
Besov norm; the remainder vanishes identically on the diagonal and decays
as the two fields approach each other in the companion Lebesgue norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .grid import Field, lebesgue_norm, lp_norm, magnitude_lp_norms
from .spaces import (ShellQuadrature, fd_quadrature, peak_factored_norm,
                     translation_increments)


def _phase_square(values: np.ndarray, power: float,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """|z|^(power-2) z^2 = (z/|z|)^2 |z|^power, extended by 0 at z = 0,
    written into out (which may be values itself) when given."""
    values = np.asarray(values, dtype=complex)
    if power == 2.0:
        # |z|^0 = 1, and z^2 already vanishes at 0
        return np.multiply(values, values, out=out)
    mag = np.abs(values)
    scale = np.power(mag, power - 2.0, out=np.zeros_like(mag),
                     where=mag > 0.0)
    out = np.multiply(values, values, out=out)
    out *= scale
    return out


@dataclass(frozen=True)
class PowerNonlinearity:
    """g(u) = coupling |u|^power u.

    The derivative pair is dz g = coupling (1 + power/2) |u|^power and
    dzbar g = coupling (power/2) |u|^(power-2) u^2, both extended by zero
    at the origin, so |g'(u)| = |coupling| (1 + power) |u|^power exactly.
    """

    coupling: complex = 1.0
    power: float = 2.0

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError(f"power must be positive, got {self.power}")

    @classmethod
    def from_params(cls, params) -> "PowerNonlinearity":
        return cls(coupling=complex(params.coupling),
                   power=float(params.power))

    @property
    def growth_const(self) -> float:
        return 0.0

    @property
    def growth_coeff(self) -> float:
        return abs(complex(self.coupling)) * (1.0 + self.power)

    def g(self, values, out=None):
        """coupling |values|^power values, written into out (a complex
        array of the same shape; a fresh one if None) with one real
        temporary."""
        values = np.asarray(values, dtype=complex)
        if out is None:
            out = np.empty(values.shape, dtype=complex)
        mag = np.abs(values)
        mag **= self.power  # the scalar-power fast paths of ** apply
        np.multiply(self.coupling, mag, out=out)
        out *= values
        return out

    def dz(self, values, out=None):
        """coupling (1 + power/2) |values|^power, written into out (a
        complex array of the same shape, which may be values itself; a
        fresh one if None)."""
        values = np.asarray(values, dtype=complex)
        if out is None:
            out = np.empty(values.shape, dtype=complex)
        scale = self.coupling * (1.0 + 0.5 * self.power)
        mag = np.abs(values)
        mag **= self.power
        np.multiply(scale, mag, out=out)
        out += 0.0j
        return out

    def dzbar(self, values, out=None):
        """coupling (power/2) |values|^(power-2) values^2, written into
        out like `dz`."""
        scale = self.coupling * 0.5 * self.power
        out = _phase_square(values, self.power, out)
        return np.multiply(scale, out, out=out)


@dataclass(frozen=True)
class GeneralNonlinearity:
    """C1 map C -> C with g(0) = 0, given by sampled callables.

    gfun, dzfun and dzbarfun evaluate the map and its Wirtinger derivative
    pair on complex arrays.  growth_const and growth_coeff are the envelope
    constants A and B in |g'(u)| <= A + B |u|^power; they are stored claims,
    checked by sampling (`check_growth`), not derived from the callables.
    """

    gfun: Callable
    dzfun: Callable
    dzbarfun: Callable
    power: float
    growth_const: float = 0.0
    growth_coeff: float = 1.0

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError(f"power must be positive, got {self.power}")
        if self.growth_const < 0 or self.growth_coeff < 0:
            raise ValueError("envelope constants must be nonnegative")
        origin = np.abs(np.asarray(self.gfun(np.zeros(1, dtype=complex))))
        if not float(origin[0]) <= 1e-12:
            raise ValueError("the map must vanish at the origin")

    def g(self, values, out=None):
        values = np.asarray(values, dtype=complex)
        if out is None:
            out = np.empty(values.shape, dtype=complex)
        out[...] = self.gfun(values)
        return out

    def dz(self, values, out=None):
        values = np.asarray(values, dtype=complex)
        if out is None:
            out = np.empty(values.shape, dtype=complex)
        out[...] = self.dzfun(values)
        return out

    def dzbar(self, values, out=None):
        values = np.asarray(values, dtype=complex)
        if out is None:
            out = np.empty(values.shape, dtype=complex)
        out[...] = self.dzbarfun(values)
        return out

    def check_growth(self, samples, slack: float = 1e-12) -> int:
        """Number of samples where |g'| exceeds the stored envelope."""
        z = np.asarray(samples, dtype=complex)
        bound = self.growth_const + self.growth_coeff * np.abs(z) ** self.power
        return int(np.count_nonzero(
            derivative_envelope(self, z) > bound * (1.0 + slack)))


Nonlinearity = Union[PowerNonlinearity, GeneralNonlinearity]


def as_general(nl: Nonlinearity) -> GeneralNonlinearity:
    """View any nonlinearity through the sampled-callable interface."""
    if isinstance(nl, GeneralNonlinearity):
        return nl
    return GeneralNonlinearity(gfun=nl.g, dzfun=nl.dz, dzbarfun=nl.dzbar,
                               power=nl.power,
                               growth_const=nl.growth_const,
                               growth_coeff=nl.growth_coeff)


def apply_g(f: Field, nl: Nonlinearity) -> Field:
    """Pointwise image of a field under the nonlinearity."""
    return Field(f.grid, nl.g(f.values))


def derivative_envelope(nl, values) -> np.ndarray:
    """|dz g| + |dzbar g| pointwise: the derivative magnitude that the
    growth hypothesis bounds."""
    return np.abs(nl.dz(values)) + np.abs(nl.dzbar(values))


@lru_cache(maxsize=8)
def _gauss_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], read-only."""
    if n < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# -------------------------------------------------- pointwise power bounds

def _pointwise_sides(z1, z2, alpha: float):
    """Left sides and bounds of the two pointwise power inequalities.

    modulus part:  | |z1|^a - |z2|^a |
    phase part:    | |z1|^(a-2) z1^2 - |z2|^(a-2) z2^2 |
    against |z1-z2|^a with constants 1 and 9 for a <= 1, and against
    (|z1|^(a-1) + |z2|^(a-1)) |z1-z2| with constants a and 5 for a >= 1.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    m1 = np.abs(z1)
    m2 = np.abs(z2)
    modulus_lhs = np.abs(m1 ** alpha - m2 ** alpha)
    phase_lhs = np.abs(_phase_square(z1, alpha) - _phase_square(z2, alpha))
    gap = np.abs(z1 - z2)
    if alpha <= 1.0:
        base = gap ** alpha
        return modulus_lhs, base, phase_lhs, 9.0 * base
    base = (m1 ** (alpha - 1.0) + m2 ** (alpha - 1.0)) * gap
    return modulus_lhs, alpha * base, phase_lhs, 5.0 * base


def count_pointwise_violations(z1, z2, alpha: float,
                               slack: float = 1e-12) -> tuple[int, int]:
    """Violation counts (modulus part, phase part) over paired samples."""
    if not alpha > 0:
        raise ValueError(f"power must be positive, got {alpha}")
    ml, mb, pl, pb = _pointwise_sides(z1, z2, alpha)
    return (int(np.count_nonzero(ml > mb * (1.0 + slack))),
            int(np.count_nonzero(pl > pb * (1.0 + slack))))


# ------------------------------------------------------ remainder functional

def _check_difference_exponents(s: float, p: float, q: float, r: float,
                                power: float) -> float:
    """Validate the exponent quadruple and return the companion Lebesgue
    order sigma defined by power/sigma = 1/p - 1/r."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"difference smoothness needs 0 < s < 1, got {s}")
    if not 1.0 <= q < np.inf:
        raise ValueError(f"summability needs 1 <= q < inf, got {q}")
    if not 1.0 <= p < np.inf:
        raise ValueError(f"inner exponent needs 1 <= p < inf, got {p}")
    if not p < r:
        raise ValueError(
            f"need p < r so the companion order is positive, got ({p}, {r})")
    inv_gap = 1.0 / p - (0.0 if np.isinf(r) else 1.0 / r)
    return power / inv_gap


# Gauss-Legendre nodes of the segment average, the default of every caller
THETA_NODES = 32


# the rows of one slice go through the remainder integrand in chunks of
# at most this many theta paths (one row at least), so a map that takes
# many nodes keeps its scratch near the one-row form's
ROW_SCRATCH_PATHS = 32


def _remainder_rows(nl: Nonlinearity, grid, rows: int, theta_nodes: int,
                    p: float):
    """fill(stack, incs, out) for a base stack[0] and up to `rows` rows
    stack[1:]: out[j] becomes the L^p norm, at one offset, of the
    remainder integrand of the base against stack[1 + j], where incs[j]
    is the increment of stack[j] at that offset.

    The integrand is the base increment times the gap between the
    segment-averaged derivative pairs of the row and of the base.  The
    rows go through each step a chunk at a time, over scratch allocated
    here once: column 0 holds the base's path and derivative pair, laid
    out with the first chunk and kept for the others, and the columns
    after it the chunk's rows.  A chunk has at most
    ROW_SCRATCH_PATHS // nodes rows, so the scratch holds about
    2 (ROW_SCRATCH_PATHS + nodes) meshes for any row count.  Each element
    takes the same operations as the single-pair integrand, so each norm
    is bitwise that of the row on its own."""
    n_theta = theta_nodes
    if isinstance(nl, PowerNonlinearity) and nl.power % 2 == 0:
        # for power 2m both derivatives along u + theta inc are polynomials
        # of degree 2m in theta, and m + 1 Gauss nodes are exact to 2m + 1
        n_theta = min(theta_nodes, int(nl.power) // 2 + 1)
    nodes, wts = _gauss_unit(n_theta)
    # complex nodes and weights spare the real-to-complex cast in every
    # broadcast
    theta = nodes.astype(complex).reshape((-1, 1) + (1,) * grid.dim)
    weights = wts.astype(complex).reshape(theta.shape)
    chunk = max(1, min(rows, ROW_SCRATCH_PATHS // n_theta))
    # path[i, j] = stack[j] + theta_i incs[j], node-major so that each
    # node's rows are one block and no step adds interleaved views; its
    # dz goes to deriv and its dzbar back into path
    path = np.empty((n_theta, chunk + 1) + grid.shape, dtype=complex)
    deriv = np.empty_like(path)
    mag = np.empty((chunk,) + grid.shape)

    def averaged_gap(along):
        # node-wise difference before the theta sum, so a row equal to the
        # base gives 0; the weighted terms are summed in node order, in
        # place, without a BLAS call; column 0 is left as it was
        gap = along[:, 1:]
        gap -= along[:, :1]
        gap *= weights
        for i in range(1, n_theta):
            gap[0] += gap[i]
        return gap[0]

    def fill(stack, incs, out):
        inc_u = incs[0]
        for start in range(1, len(stack), chunk):
            stop = min(start + chunk, len(stack))
            # stack[first:stop] goes to columns cols: the first chunk
            # takes the base along into column 0
            first = 0 if start == 1 else start
            cols = slice(first + 1 - start, stop + 1 - start)
            along = np.multiply(theta, incs[first:stop], out=path[:, cols])
            for j, f in enumerate(stack[first:stop]):
                np.add(f, along[:, j], out=along[:, j])
            nl.dz(along, out=deriv[:, cols])
            nl.dzbar(along, out=along)
            n = cols.stop
            residual = np.multiply(inc_u, averaged_gap(deriv[:, :n]),
                                   out=deriv[0, 1:n])
            conj_part = averaged_gap(path[:, :n])
            np.multiply(np.conj(inc_u), conj_part, out=conj_part)
            residual += conj_part
            out[start - 1:stop - 1] = magnitude_lp_norms(
                np.abs(residual, out=mag[:n - 1]), p, grid.cell_volume)

    return fill


def remainder_K(u: Union[Field, Sequence[Field]],
                v: Union[Field, Sequence[Sequence[Field]]],
                nl: Nonlinearity, s: float, p: float, q: float, r: float,
                theta_nodes: int = THETA_NODES,
                quad: Optional[ShellQuadrature] = None
                ) -> Union[float, tuple]:
    """Lower-order remainder of the Besov difference bound.

    For each offset y, the integrand is u's translation increment times
    the gap between the segment-averaged derivative pairs of v and of u;
    its L^p norms are combined across offsets with the |y|^(-N-sq) kernel
    exactly like the finite-difference norm of smoothness s.  The result
    is zero when v = u (the gap vanishes identically) and also when u = 0
    (the increment does), and it decays as v -> u in the companion
    Lebesgue norm of order power/(1/p - 1/r).

    u and v are one Field each, giving a float, or a sequence of base
    Fields (say the slices of a trajectory) and as many sequences of
    Fields, giving one tuple per base with one value per entry.  One
    offset loop serves every base and every entry: each field is
    transformed once, each offset's multiplier is built once, and the
    base side is shared by its entries.  Each value equals the
    single-pair call's bit for bit.

    theta_nodes is the Gauss-Legendre node count of the segment average;
    for the power map with an even integer power 2m it is an upper bound,
    since m + 1 nodes already integrate that map's derivatives exactly."""
    single = isinstance(u, Field)
    if single != isinstance(v, Field):
        raise TypeError("u and v must both be Fields or both sequences")
    bases = (u,) if single else tuple(u)
    row_sets = ((v,),) if single else tuple(tuple(rows) for rows in v)
    if len(bases) != len(row_sets):
        raise ValueError(f"{len(bases)} bases but {len(row_sets)} "
                         "row sequences")
    grid = bases[0].grid
    fields = bases + tuple(w for rows in row_sets for w in rows)
    if any(w.grid is not grid and w.grid != grid for w in fields):
        raise ValueError("fields live on different grids")
    _check_difference_exponents(s, p, q, r, nl.power)
    offsets, kernel = fd_quadrature(grid, quad, s, q)
    fill = _remainder_rows(nl, grid, max(map(len, row_sets)), theta_nodes,
                           p)
    # row 0 of each stack is its base and row 1 + j its entry j
    stacks = [[b.values] + [w.values for w in rows]
              for b, rows in zip(bases, row_sets)]
    norms = [np.empty((len(rows), len(offsets))) for rows in row_sets]
    for i, j, incs in translation_increments(stacks, grid, offsets):
        fill(stacks[j], incs, norms[j][:, i])
    values = tuple(tuple(peak_factored_norm(row, q, kernel) for row in block)
                   for block in norms)
    return values[0][0] if single else values


@dataclass(frozen=True)
class DifferenceExponents:
    """Exponent bundle (s, p, q, r) for the difference bound.

    p < r is required; the companion Lebesgue order for a map of a given
    power is sigma(power) = power / (1/p - 1/r), possibly below one (the
    quasi-norm convention applies there).
    """

    s: float
    p: float
    q: float
    r: float

    def sigma(self, power: float) -> float:
        return _check_difference_exponents(self.s, self.p, self.q, self.r,
                                           power)


@dataclass(frozen=True)
class DifferenceReport:
    """Both sides of the difference bound in the finite-difference norm.

    lhs is the smoothness norm of g(v) - g(u) at integrability p; the
    bound's shape is C * lipschitz_term + k_term with a single calibrated
    constant C (the coupling and derivative constants are absorbed by C).
    refined_term carries the sharper power-map right-hand side when it
    applies, without its own constant.
    """

    lhs: float
    lipschitz_term: float
    k_term: float
    sigma: float
    refined_term: Optional[float] = None


def besov_difference_report(u: Field, v: Field, nl: Nonlinearity,
                            exps: DifferenceExponents,
                            theta_nodes: int = THETA_NODES,
                            quad: Optional[ShellQuadrature] = None
                            ) -> DifferenceReport:
    """Evaluate the difference bound's pieces on one pair of fields:

        lhs            = || g(v) - g(u) ||  at (s, p, q),
        lipschitz_term = ||v||_sigma^power * || v - u ||  at (s, r, q),
        k_term         = the remainder functional.

    All smoothness norms are finite-difference norms sharing one offset
    quadrature, so the three numbers are directly comparable.  For the
    power map the refined right-hand side is evaluated too: the extra
    term is ||u|| at (s, r, q) times ||v - u||_sigma^power for power <= 1,
    and times (||u||_sigma^(power-1) + ||v||_sigma^(power-1)) ||v - u||_sigma
    for power >= 1."""
    sigma = exps.sigma(nl.power)
    grid = u.grid
    image_gap = apply_g(v, nl) - apply_g(u, nl)
    gap = v - u
    offsets, kernel = fd_quadrature(grid, quad, exps.s, exps.q)
    fill = _remainder_rows(nl, grid, 1, theta_nodes, exps.p)
    power_map = isinstance(nl, PowerNonlinearity)
    # one offset loop: row 0 of norms is the remainder of u against v,
    # then the difference norms of g(v) - g(u) at p and of v - u at r,
    # and for the power map's refined term that of u at r
    stack = [u.values, v.values, image_gap.values, gap.values]
    norms = np.empty((3 + power_map, len(offsets)))
    cell = grid.cell_volume
    for i, _, incs in translation_increments([stack], grid, offsets):
        fill(stack[:2], incs, norms[:1, i])
        norms[1, i] = lp_norm(incs[2], exps.p, cell)
        norms[2, i] = lp_norm(incs[3], exps.r, cell)
        if power_map:
            norms[3, i] = lp_norm(incs[0], exps.r, cell)
    k_term, lhs, gap_smooth = (peak_factored_norm(row, exps.q, kernel)
                               for row in norms[:3])
    v_sigma = lebesgue_norm(v, sigma)
    lipschitz_term = v_sigma ** nl.power * gap_smooth
    refined = None
    if power_map:
        u_smooth = peak_factored_norm(norms[3], exps.q, kernel)
        gap_sigma = lebesgue_norm(gap, sigma)
        if nl.power <= 1.0:
            extra = u_smooth * gap_sigma ** nl.power
        else:
            u_sigma = lebesgue_norm(u, sigma)
            extra = u_smooth * (u_sigma ** (nl.power - 1.0)
                                + v_sigma ** (nl.power - 1.0)) * gap_sigma
        refined = lipschitz_term + extra
    return DifferenceReport(lhs=lhs, lipschitz_term=lipschitz_term,
                            k_term=k_term, sigma=sigma, refined_term=refined)
