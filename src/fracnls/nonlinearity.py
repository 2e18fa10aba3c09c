"""Pointwise nonlinear maps and their fractional-smoothness differences.

The map is the power nonlinearity g(u) = coupling |u|^power u, the one
the continuity theorem covers.  Its derivative is carried as the pair of
Wirtinger derivatives, and |g'| below always means |dz g| + |dzbar g|,
which majorizes the Jacobian operator norm.

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
from typing import Optional, Sequence

import numpy as np

from .grid import Field, lebesgue_norm, lp_norm, peak_factored_norms
from .spaces import offsets_kernel, translation_increments


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


def count_pointwise_violations(z1, z2, alpha: float) -> tuple[int, int]:
    """Violation counts (modulus part, phase part) over paired samples."""
    if not alpha > 0:
        raise ValueError(f"power must be positive, got {alpha}")
    ml, mb, pl, pb = _pointwise_sides(z1, z2, alpha)
    slack = 1.0 + 1e-12  # equality cases up to roundoff
    return (int(np.count_nonzero(ml > mb * slack)),
            int(np.count_nonzero(pl > pb * slack)))


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
# at most this many theta paths (one row at least), so a call that takes
# many nodes keeps its scratch near the one-row form's
ROW_SCRATCH_PATHS = 32


def _remainder_rows(nl: PowerNonlinearity, grid, rows: int,
                    theta_nodes: int, p: float):
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
    if nl.power % 2 == 0:
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
            out[start - 1:stop - 1] = peak_factored_norms(
                np.abs(residual, out=mag[:n - 1]), p,
                scale=grid.cell_volume)

    return fill


def remainder_K(u: Sequence[Field], v: Sequence[Sequence[Field]],
                nl: PowerNonlinearity, s: float, p: float, q: float,
                r: float, theta_nodes: int = THETA_NODES,
                shells: int = 32) -> tuple:
    """Lower-order remainder of the Besov difference bound.

    For each offset y, the integrand is u's translation increment times
    the gap between the segment-averaged derivative pairs of v and of u;
    its L^p norms are combined across offsets with the |y|^(-N-sq) kernel
    exactly like the finite-difference norm of smoothness s.  The result
    is zero when v = u (the gap vanishes identically) and also when u = 0
    (the increment does), and it decays as v -> u in the companion
    Lebesgue norm of order power/(1/p - 1/r).

    u is a sequence of base Fields (say the slices of a trajectory) and
    v holds one sequence of Fields per base; the result holds one tuple
    per base with one value per entry, so one pair's value is
    remainder_K([u], [[v]], ...)[0][0].  One offset loop serves every
    base and every entry: each field is transformed once, each offset's
    multiplier is built once, and the base side is shared by its
    entries.  Each value equals the one-pair call's bit for bit.

    theta_nodes is the Gauss-Legendre node count of the segment average;
    for an even integer power 2m it is an upper bound, since m + 1 nodes
    already integrate the map's derivatives exactly.  shells is the radius
    count of the offset quadrature (see `spaces.offsets_kernel`)."""
    bases = tuple(u)
    row_sets = tuple(tuple(rows) for rows in v)
    if len(bases) != len(row_sets):
        raise ValueError(f"{len(bases)} bases but {len(row_sets)} "
                         "row sequences")
    grid = bases[0].grid
    fields = bases + tuple(w for rows in row_sets for w in rows)
    if any(w.grid is not grid and w.grid != grid for w in fields):
        raise ValueError("fields live on different grids")
    _check_difference_exponents(s, p, q, r, nl.power)
    offsets, kernel = offsets_kernel(grid, s, q, shells)
    fill = _remainder_rows(nl, grid, max(map(len, row_sets)), theta_nodes,
                           p)
    # row 0 of each stack is its base and row 1 + j its entry j
    stacks = [[b.values] + [w.values for w in rows]
              for b, rows in zip(bases, row_sets)]
    norms = [np.empty((len(rows), len(offsets))) for rows in row_sets]
    for i, j, incs in translation_increments(stacks, grid, offsets):
        fill(stacks[j], incs, norms[j][:, i])
    return tuple(tuple(peak_factored_norms(block, q, kernel))
                 for block in norms)


@dataclass(frozen=True)
class DifferenceReport:
    """Both sides of the difference bound in the finite-difference norm.

    lhs is the smoothness norm of g(v) - g(u) at integrability p; the
    bound's shape is C * lipschitz_term + k_term with a single calibrated
    constant C (the coupling and derivative constants are absorbed by C).
    refined_term carries the sharper power-map right-hand side, without
    its own constant.
    """

    lhs: float
    lipschitz_term: float
    k_term: float
    sigma: float
    refined_term: float


def besov_difference_report(u: Field, v: Field, nl: PowerNonlinearity,
                            s: float, p: float, q: float, r: float,
                            theta_nodes: int = THETA_NODES,
                            shells: int = 32) -> DifferenceReport:
    """Evaluate the difference bound's pieces on one pair of fields, with
    the exponents of `remainder_K` (p < r, and the companion Lebesgue
    order sigma = power / (1/p - 1/r), possibly below one, where the
    quasi-norm convention applies):

        lhs            = || g(v) - g(u) ||  at (s, p, q),
        lipschitz_term = ||v||_sigma^power * || v - u ||  at (s, r, q),
        k_term         = remainder_K([u], [[v]], ...)[0][0].

    All smoothness norms are finite-difference norms sharing one offset
    quadrature, so the three numbers are directly comparable.  The
    refined right-hand side is evaluated too: the extra term is ||u|| at
    (s, r, q) times ||v - u||_sigma^power for power <= 1, and times
    (||u||_sigma^(power-1) + ||v||_sigma^(power-1)) ||v - u||_sigma for
    power >= 1."""
    sigma = _check_difference_exponents(s, p, q, r, nl.power)
    grid = u.grid
    gap = v - u
    offsets, kernel = offsets_kernel(grid, s, q, shells)
    fill = _remainder_rows(nl, grid, 1, theta_nodes, p)
    # one offset loop: row 0 of norms is the remainder of u against v,
    # then the difference norms of g(v) - g(u) at p and of v - u at r,
    # and for the refined term that of u at r
    stack = [u.values, v.values, nl.g(v.values) - nl.g(u.values),
             gap.values]
    norms = np.empty((4, len(offsets)))
    cell = grid.cell_volume
    for i, _, incs in translation_increments([stack], grid, offsets):
        fill(stack[:2], incs, norms[:1, i])
        norms[1, i] = lp_norm(incs[2], p, cell)
        norms[2, i] = lp_norm(incs[3], r, cell)
        norms[3, i] = lp_norm(incs[0], r, cell)
    k_term, lhs, gap_smooth, u_smooth = peak_factored_norms(norms, q,
                                                            kernel)
    v_sigma = lebesgue_norm(v, sigma)
    lipschitz_term = v_sigma ** nl.power * gap_smooth
    gap_sigma = lebesgue_norm(gap, sigma)
    if nl.power <= 1.0:
        extra = u_smooth * gap_sigma ** nl.power
    else:
        u_sigma = lebesgue_norm(u, sigma)
        extra = u_smooth * (u_sigma ** (nl.power - 1.0)
                            + v_sigma ** (nl.power - 1.0)) * gap_sigma
    return DifferenceReport(lhs=lhs, lipschitz_term=lipschitz_term,
                            k_term=k_term, sigma=sigma,
                            refined_term=lipschitz_term + extra)
