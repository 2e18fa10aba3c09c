"""Fractional-order function-space norms on the torus.

Three realizations of smoothness-s norms are provided and kept strictly
separate so they can cross-check each other:

  * sobolev_norm      -- Fourier multiplier |k|^s or (1+|k|^2)^(s/2),
  * besov_norm_lp     -- dyadic (Littlewood-Paley) block sums,
  * besov_norm_fd     -- finite-difference characterization
                         ( integral ||f(.-y) - f||_Lp^q |y|^(-N-sq) dy )^(1/q),
                         valid for 0 < s < 1.

Each is a plain function of a Field and its exponents, and so is
`grid.lebesgue_norm`; `spacetime_norm` takes any of them, closed over
its exponents, as the spatial norm of a mixed L^q-in-time norm.  Every
L^q sum, over a mesh, across scales or offsets, or in time, is
`grid.peak_factored_norms`.

The dyadic partition is built from a C-infinity radial transition profile,
so block multipliers overlap only between neighbours and telescope to one
on the resolvable band.  The finite-difference integral is truncated to
radii [h/2, L/2].  `ShellQuadrature.offsets_kernel` and
`translation_increments` are the one engine for that integral, shared
with the remainder functional.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, lp_norm, peak_factored_norms


# ------------------------------------------------------------- dyadic blocks

def transition_profile(r):
    """C-infinity radial cutoff: 1 on [0, 1/2], 0 on [1, inf), monotone.

    Built from the standard exp(-1/x) bump, so all derivatives vanish at
    both ends of the transition interval.
    """
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    out[r >= 1.0] = 0.0
    mid = (r > 0.5) & (r < 1.0)
    if np.any(mid):
        rm = r[mid]
        a = np.exp(-1.0 / (1.0 - rm))
        b = np.exp(-1.0 / (rm - 0.5))
        out[mid] = a / (a + b)
    return out


def default_band(grid: Grid) -> tuple[int, int]:
    """Dyadic index range covering every nonzero lattice wavenumber.

    2^jmin sits at or below the smallest nonzero |k| and 2^jmax at or above
    the largest (corner) |k|, so the annuli telescope to one across the
    whole resolvable band.
    """
    kmin = 2.0 * np.pi / grid.period
    kmax = math.sqrt(grid.dim) * np.pi * grid.points / grid.period
    jmin = math.floor(math.log2(kmin))
    jmax = math.ceil(math.log2(kmax))
    return jmin, jmax


def _support_runs(mult: np.ndarray) -> tuple:
    """Per leading axis, the index runs (slices) where mult is nonzero."""
    runs = []
    for a in range(mult.ndim - 1):
        other = tuple(b for b in range(mult.ndim) if b != a)
        hit = np.any(mult != 0, axis=other).astype(np.int8)
        edges = np.flatnonzero(np.diff(hit, prepend=0, append=0))
        runs.append(tuple(slice(int(lo), int(hi))
                          for lo, hi in zip(edges[::2], edges[1::2])))
    return tuple(runs)


@functools.lru_cache(maxsize=64)
def _annulus_multipliers(grid: Grid):
    """Low block and annuli of default_band(grid), each a (table, support
    runs) pair: the multiplier on the |k|^2 levels of
    grid.wavenumber_levels, so that table[index] is bitwise the mesh
    multiplier, and its mesh support."""
    jmin, jmax = default_band(grid)
    kmag = np.sqrt(grid.wavenumber_levels[0])
    low = transition_profile(kmag / 2.0 ** jmin)
    annuli = [transition_profile(kmag / 2.0 ** (j + 1))
              - transition_profile(kmag / 2.0 ** j)
              for j in range(jmin, jmax + 1)]
    return ((low, _support_runs(grid.gather(low))),
            [(m, _support_runs(grid.gather(m))) for m in annuli])


def _inverse_on_support(buf: np.ndarray, runs) -> np.ndarray:
    """np.fft.ifftn(buf), in place, for buf that vanishes off `runs`.

    The passes run last axis first, as in ifftn.  The pass along axis a
    transforms only the lines whose indices on axes 0..a-1 lie in the
    support runs; the other lines are all zero, so the result is
    bitwise that of ifftn.
    """
    for a in range(buf.ndim - 1, -1, -1):
        for block in itertools.product(*runs[:a]):
            lines = buf[block]
            np.fft.ifft(lines, axis=a, out=lines)
    return buf


def besov_norm_lp(f: Field, s: float, p: float, q: float = 2.0,
                  homogeneous: bool = False) -> float:
    """Dyadic-block Besov norm ( sum_j (2^(js) ||block_j||_Lp)^q )^(1/q).

    homogeneous=True uses annuli only (constants get norm zero);
    otherwise the low-frequency block enters the scale sum with weight one.
    """
    return next(sobolev_besov_norms([f], s, p, q, homogeneous, False))[1]


def sobolev_besov_norms(fields, s: float, p: float, q: float = 2.0,
                        homogeneous: bool = False, sobolev: bool = True):
    """Yield (sobolev_norm(f, s), besov_norm_lp(f, s, p, q, homogeneous))
    for each Field f of the sequence `fields`, all on one grid, from one
    forward transform per field, in one Besov scratch for all fields, in
    which the Sobolev sum runs too; sobolev=False yields None for it."""
    grid = fields[0].grid
    jmin, jmax = default_band(grid)
    low, annuli = _annulus_multipliers(grid)
    weight = grid.sobolev_weight(s, False) if sobolev else None
    # gather each table into mult; fhat * mult is inverted in piece, and
    # the block's magnitudes go back into mult
    fhat = np.empty(grid.shape, dtype=complex)
    piece = np.empty_like(fhat)
    mult = np.empty(grid.shape)

    def block_norm(table, runs):
        grid.gather(table, mult)
        np.multiply(fhat, mult, out=piece)
        np.abs(_inverse_on_support(piece, runs), out=mult)
        return peak_factored_norms(mult[None], p, scale=grid.cell_volume)[0]

    for f in fields:
        fields[0]._check_same_grid(f)
        np.fft.fftn(f.values, out=fhat)
        norm = None if weight is None else _sobolev_sum(grid, fhat, weight,
                                                        piece, mult)
        terms = [2.0 ** (j * s) * block_norm(*block)
                 for j, block in zip(range(jmin, jmax + 1), annuli)]
        if not homogeneous:
            terms.append(block_norm(*low))
        yield norm, peak_factored_norms([terms], q)[0]


def sobolev_norm(f: Field, s: float, homogeneous: bool = False) -> float:
    """Multiplier norm: weights |k|^(2s) (homogeneous, mean dropped for
    s > 0) or (1+|k|^2)^s on the magnitudes of the Plancherel-normalized
    coefficients (see `grid`), scaled in the transform's own array."""
    weight = f.grid.sobolev_weight(s, homogeneous)
    fhat = np.fft.fftn(f.values)
    return _sobolev_sum(f.grid, fhat, weight, fhat, np.empty(f.grid.shape))


def _sobolev_sum(grid: Grid, fhat, weight, scaled, mags) -> float:
    """sqrt(sum weight |c_k|^2): c_k = fhat h^N L^(-N/2) goes into the
    complex array scaled (fhat allowed), |c_k|^2 into the float mags."""
    np.multiply(fhat, grid.cell_volume / grid.period ** (grid.dim / 2.0),
                out=scaled)
    np.square(np.abs(scaled, out=mags), out=mags)
    mags *= weight
    return float(np.sqrt(np.sum(mags)))


# --------------------------------------------------- difference realization

def _fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly uniform unit vectors on S^2 (golden-angle lattice)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(1.0 - z ** 2, 0.0))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


@dataclass(frozen=True)
class ShellQuadrature:
    """Polar quadrature for the difference integral over offsets y.

    Radii are log-spaced (trapezoid in log r) on [h/2, L/2]; directions
    are +-1 in one dimension, uniform angles in two, a Fibonacci sphere
    in three.
    """

    shells: int = 32
    angles: int = 16

    def __post_init__(self):
        if self.shells < 2:
            raise ValueError("need at least 2 radial shells")
        if self.angles < 1:
            raise ValueError("need at least 1 angular node")

    def radii_weights(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """Radii r_i and weights w_i with sum_i w_i f(r_i) ~ integral f dr."""
        t = np.linspace(np.log(0.5 * grid.spacing), np.log(0.5 * grid.period),
                        self.shells)
        wt = np.full(self.shells, t[1] - t[0])
        wt[0] *= 0.5
        wt[-1] *= 0.5
        r = np.exp(t)
        return r, wt * r  # dr = r dt

    def directions_weights(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Unit directions and weights integrating over the unit sphere."""
        if dim == 1:
            dirs = np.array([[1.0], [-1.0]])
            w = np.array([1.0, 1.0])
        elif dim == 2:
            theta = 2.0 * np.pi * np.arange(self.angles) / self.angles
            dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            w = np.full(self.angles, 2.0 * np.pi / self.angles)
        else:
            n = max(self.angles, 8)
            dirs = _fibonacci_sphere(n)
            w = np.full(n, 4.0 * np.pi / n)
        return dirs, w

    def offsets_kernel(self, grid: Grid, s: float,
                       q: float) -> tuple[np.ndarray, np.ndarray]:
        """All offset vectors y, and the kernel |y|^(-N-sq) times the dy
        weight of each, at smoothness s and summability q."""
        r, wr = self.radii_weights(grid)
        dirs, wd = self.directions_weights(grid.dim)
        offsets = r[:, None, None] * dirs[None, :, :]
        weights = (r ** (grid.dim - 1) * wr)[:, None] * wd[None, :]
        kernel = (r ** (-grid.dim - s * q))[:, None] * weights
        return offsets.reshape(-1, grid.dim), kernel.reshape(-1)


def translation_increments(stacks, grid: Grid, offsets):
    """For each offset y (index i) and then each stack (index j), the
    triple (i, j, incs) with incs[k] = f(. - y) - f for the row
    f = stacks[j][k]; a stack is a sequence of arrays of grid.shape.

    Each stack is transformed once up front, and each offset's multiplier
    is built once and applied to every stack.  Every incs is a view of
    one buffer, good until the next triple is drawn."""
    axes = tuple(range(1, grid.dim + 1))
    hats = [np.fft.fftn(np.stack(stack), axes=axes) for stack in stacks]
    buf = np.empty((max(map(len, hats)),) + grid.shape, dtype=complex)
    for i, y in enumerate(offsets):
        mult = grid.translation_multiplier(y)
        for j, (stack, hat) in enumerate(zip(stacks, hats)):
            incs = np.multiply(hat, mult, out=buf[:len(hat)])
            np.fft.ifftn(incs, axes=axes, out=incs)
            for inc, row in zip(incs, stack):
                inc -= row
            yield i, j, incs


def besov_norm_fd(f: Field, s: float, p: float, q: float = 2.0,
                  quad: ShellQuadrature = ShellQuadrature()) -> float:
    """Finite-difference Besov norm, truncated to offsets |y| <= L/2.

    ( sum over quadrature nodes of
      ||f(.-y) - f||_Lp^q |y|^(-N-sq) * weight )^(1/q).
    The norm is homogeneous by construction (constants give zero).
    """
    if not 0.0 < s < 1.0:
        raise ValueError(
            f"difference characterization needs 0 < s < 1, got {s}")
    if np.isinf(q):
        raise ValueError("difference characterization needs q < inf")
    offsets, kernel = quad.offsets_kernel(f.grid, s, q)
    diffs = [lp_norm(incs[0], p, f.grid.cell_volume)
             for _, _, incs in translation_increments([[f.values]], f.grid,
                                                      offsets)]
    return peak_factored_norms([diffs], q, kernel)[0]


def spacetime_norm(fields, dt: float, *pairs) -> tuple:
    """Mixed norms ( integral_0^T ||u(t)||^q dt )^(1/q), one per pair.

    `fields` yields the slices u(t_m), t_m = m dt, and each pair is
    (q, norm), norm a function of one Field such as
    `lambda f: besov_norm_lp(f, s, p)`.  Every slice is measured in
    every norm before the next is asked for, so one pass serves a stream
    whose slices share a buffer; each column is then integrated by
    `trapezoid_norm`.
    """
    columns = [[] for _ in pairs]
    for f in fields:
        for column, (_, norm) in zip(columns, pairs):
            column.append(norm(f))
    return tuple(trapezoid_norm(column, dt, q_time)
                 for column, (q_time, _) in zip(columns, pairs))


def trapezoid_norm(values, dt: float, q: float) -> float:
    """( integral_0^T v(t)^q dt )^(1/q) from samples v(t_m), t_m = m dt.

    Trapezoid weights on the uniform slices; q = inf takes the max.
    """
    w = np.full(len(values), dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return peak_factored_norms([values], q, w)[0]
