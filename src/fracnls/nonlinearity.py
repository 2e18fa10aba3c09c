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

from .grid import Field, lebesgue_norm, lp_norm
from .spaces import (NormSpec, ShellQuadrature, besov_norm_fd, fd_quadrature,
                     peak_factored_norm, translation_increments)


def _phase_square(values: np.ndarray, power: float) -> np.ndarray:
    """|z|^(power-2) z^2 = (z/|z|)^2 |z|^power, extended by 0 at z = 0."""
    values = np.asarray(values, dtype=complex)
    if power == 2.0:
        return values * values  # |z|^0 = 1, and z^2 already vanishes at 0
    mag = np.abs(values)
    scale = np.power(mag, power - 2.0, out=np.zeros_like(mag),
                     where=mag > 0.0)
    return values * values * scale


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

    def dz(self, values):
        values = np.asarray(values, dtype=complex)
        scale = self.coupling * (1.0 + 0.5 * self.power)
        return scale * np.abs(values) ** self.power + 0.0j

    def dzbar(self, values):
        scale = self.coupling * 0.5 * self.power
        return scale * _phase_square(values, self.power)


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

    def dz(self, values):
        values = np.asarray(values, dtype=complex)
        return np.asarray(self.dzfun(values), dtype=complex)

    def dzbar(self, values):
        values = np.asarray(values, dtype=complex)
        return np.asarray(self.dzbarfun(values), dtype=complex)

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


def remainder_K(u: Field, v: Union[Field, Sequence[Field]],
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

    v is one Field, giving a float, or a sequence of Fields, giving a
    tuple with one value per entry.  The base side (u's increments and its
    derivative pair along each segment) is computed once per offset and
    shared by every entry; each value equals the single-pair call's bit
    for bit.

    theta_nodes is the Gauss-Legendre node count of the segment average;
    for the power map with an even integer power 2m it is an upper bound,
    since m + 1 nodes already integrate that map's derivatives exactly."""
    single = isinstance(v, Field)
    others = (v,) if single else tuple(v)
    for w in others:
        if u.grid is not w.grid and u.grid != w.grid:
            raise ValueError("fields live on different grids")
    _check_difference_exponents(s, p, q, r, nl.power)
    grid = u.grid
    offsets, kernel = fd_quadrature(grid, quad, s, q)
    n_theta = theta_nodes
    if isinstance(nl, PowerNonlinearity) and nl.power % 2 == 0:
        # for power 2m both derivatives along u + theta inc are polynomials
        # of degree 2m in theta, and m + 1 Gauss nodes are exact to 2m + 1
        n_theta = min(theta_nodes, int(nl.power) // 2 + 1)
    nodes, wts = _gauss_unit(n_theta)
    # complex nodes spare the real-to-complex cast in every broadcast
    theta = nodes.astype(complex).reshape((-1,) + (1,) * grid.dim)

    def averaged_gap(along_v, along_u):
        # node-wise difference before the theta sum, so v = u gives 0
        gap = (along_v - along_u).reshape(n_theta, -1)
        return (wts @ gap).reshape(grid.shape)

    # row 0 is u and row 1 + j is others[j]: one inverse transform per
    # offset serves every row
    stack = np.stack([u.values] + [w.values for w in others])
    norms = np.empty((len(others), len(offsets)))
    for i, incs in enumerate(translation_increments(stack, grid, offsets)):
        inc_u = incs[0]
        path_u = u.values[None] + theta * inc_u[None]
        dz_u = nl.dz(path_u)
        dzbar_u = nl.dzbar(path_u)
        conj_inc_u = np.conj(inc_u)
        for j, w in enumerate(others):
            inc_w = incs[1 + j]
            path_w = w.values[None] + theta * inc_w[None]
            residual = (inc_u * averaged_gap(nl.dz(path_w), dz_u)
                        + conj_inc_u * averaged_gap(nl.dzbar(path_w),
                                                    dzbar_u))
            norms[j, i] = lp_norm(residual, p, grid.cell_volume)
    values = tuple(peak_factored_norm(row, q, kernel) for row in norms)
    return values[0] if single else values


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
    spec_p = NormSpec("besov_fd", s=exps.s, p=exps.p, q=exps.q,
                      homogeneous=True)
    spec_r = NormSpec("besov_fd", s=exps.s, p=exps.r, q=exps.q,
                      homogeneous=True)
    image_gap = apply_g(v, nl) - apply_g(u, nl)
    lhs = besov_norm_fd(image_gap, spec_p, quad)
    gap_smooth = besov_norm_fd(v - u, spec_r, quad)
    v_sigma = lebesgue_norm(v, sigma)
    lipschitz_term = v_sigma ** nl.power * gap_smooth
    k_term = remainder_K(u, v, nl, exps.s, exps.p, exps.q, exps.r,
                         theta_nodes=theta_nodes, quad=quad)
    refined = None
    if isinstance(nl, PowerNonlinearity):
        u_smooth = besov_norm_fd(u, spec_r, quad)
        gap_sigma = lebesgue_norm(v - u, sigma)
        if nl.power <= 1.0:
            extra = u_smooth * gap_sigma ** nl.power
        else:
            u_sigma = lebesgue_norm(u, sigma)
            extra = u_smooth * (u_sigma ** (nl.power - 1.0)
                                + v_sigma ** (nl.power - 1.0)) * gap_sigma
        refined = lipschitz_term + extra
    return DifferenceReport(lhs=lhs, lipschitz_term=lipschitz_term,
                            k_term=k_term, sigma=sigma, refined_term=refined)
