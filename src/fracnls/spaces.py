"""Fractional-order function-space norms on the torus.

Three realizations of smoothness-s norms are provided and kept strictly
separate so they can cross-check each other:

  * sobolev_norm      -- Fourier multiplier |k|^s or (1+|k|^2)^(s/2),
  * besov_norm_lp     -- dyadic (Littlewood-Paley) block sums,
  * besov_norm_fd     -- finite-difference characterization
                         ( integral ||f(.-y) - f||_Lp^2 |y|^(-N-2s) dy )^(1/2),
                         valid for 0 < s < 1.

Every Besov norm here is B^s_{p,2}, summed in l^2 over scales or offsets.

Each is a plain function of a Field and its exponents, and so is
`grid.lebesgue_norm`.  `sobolev_besov_norms` takes the Sobolev and
dyadic Besov norms of each slice of a stream from one forward transform,
and `spacetime_norm` integrates them in time by `trapezoid_norm`.  Every
L^q sum, over a mesh, across scales or offsets, or in time, is
`grid.peak_factored_norms`, except the Sobolev sum of squared Fourier
coefficients, a plain sqrt(sum) that keeps the Sobolev columns' bytes.

The dyadic partition is built from a C-infinity radial transition profile,
so block multipliers overlap only between neighbours and telescope to one
on the resolvable band.  The finite-difference integral is truncated to
radii [h/2, L/2] and taken on a polar quadrature.  `offsets_kernel` and
`translation_increments` are the one engine for that integral, shared
with the remainder functional.
"""

from __future__ import annotations

import functools
import itertools
import math
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


def besov_norm_lp(f: Field, s: float, p: float, *,
                  homogeneous: bool = False) -> float:
    """Dyadic-block Besov norm ( sum_j (2^(js) ||block_j||_Lp)^2 )^(1/2).

    homogeneous=True uses annuli only (constants get norm zero);
    otherwise the low-frequency block enters the scale sum with weight one.
    """
    return next(sobolev_besov_norms(f.grid, [f.values], s, p,
                                    homogeneous=homogeneous))[1]


def sobolev_besov_norms(grid: Grid, slices, s: float, p: float, *,
                        homogeneous: bool = False):
    """Yield (sobolev_norm(f, s), besov_norm_lp(f, s, p, homogeneous))
    for each array f of grid.shape in the stream `slices`, from one
    forward transform per slice, in one Besov scratch in which the
    Sobolev sum runs too.  Each slice is transformed before the next is
    asked for, so a stream may reuse one buffer; a slice of another
    shape raises ValueError."""
    jmin, jmax = default_band(grid)
    low, annuli = _annulus_multipliers(grid)
    weight = grid.sobolev_weight(s, False)
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

    for values in slices:
        np.fft.fftn(values, out=fhat)
        norm = _sobolev_sum(grid, fhat, weight, piece, mult)
        terms = [2.0 ** (j * s) * block_norm(*block)
                 for j, block in zip(range(jmin, jmax + 1), annuli)]
        if not homogeneous:
            terms.append(block_norm(*low))
        yield norm, peak_factored_norms([terms], 2.0)[0]


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


# direction nodes of the offset quadrature in two and three dimensions
ANGLES = 16


def radii_weights(grid: Grid, shells: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii r_i and weights w_i with sum_i w_i f(r_i) ~ integral f dr:
    `shells` log-spaced radii (trapezoid in log r) on [h/2, L/2]."""
    if shells < 2:
        raise ValueError("need at least 2 radial shells")
    t = np.linspace(np.log(0.5 * grid.spacing), np.log(0.5 * grid.period),
                    shells)
    wt = np.full(shells, t[1] - t[0])
    wt[0] *= 0.5
    wt[-1] *= 0.5
    r = np.exp(t)
    return r, wt * r  # dr = r dt


def directions_weights(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and weights integrating over the unit sphere: +-1
    in one dimension, ANGLES uniform angles in two, a Fibonacci sphere
    of ANGLES points in three."""
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(ANGLES) / ANGLES
        return (np.stack([np.cos(theta), np.sin(theta)], axis=1),
                np.full(ANGLES, 2.0 * np.pi / ANGLES))
    return _fibonacci_sphere(ANGLES), np.full(ANGLES, 4.0 * np.pi / ANGLES)


def offsets_kernel(grid: Grid, s: float, *,
                   shells: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """All offset vectors y of the polar quadrature with `shells` radii,
    and the kernel |y|^(-N-2s) times the dy weight of each, at
    smoothness s."""
    r, wr = radii_weights(grid, shells)
    dirs, wd = directions_weights(grid.dim)
    offsets = r[:, None, None] * dirs[None, :, :]
    weights = (r ** (grid.dim - 1) * wr)[:, None] * wd[None, :]
    kernel = (r ** (-grid.dim - s * 2.0))[:, None] * weights
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


def besov_norm_fd(f: Field, s: float, p: float, *,
                  shells: int = 32) -> float:
    """Finite-difference Besov norm, truncated to offsets |y| <= L/2.

    ( sum over quadrature nodes of
      ||f(.-y) - f||_Lp^2 |y|^(-N-2s) * weight )^(1/2).
    The norm is homogeneous by construction (constants give zero).
    """
    if not 0.0 < s < 1.0:
        raise ValueError(
            f"difference characterization needs 0 < s < 1, got {s}")
    offsets, kernel = offsets_kernel(f.grid, s, shells=shells)
    diffs = [lp_norm(incs[0], p, f.grid.cell_volume)
             for _, _, incs in translation_increments([[f.values]], f.grid,
                                                      offsets)]
    return peak_factored_norms([diffs], 2.0, kernel)[0]


def spacetime_norm(grid: Grid, slices, dt: float, s: float, p: float,
                   q: float, *, homogeneous: bool = False) -> tuple:
    """(sup_t ||u(t)||_{H^s}, ( integral_0^T ||u(t)||_{B^s_{p,2}}^q dt )^(1/q))
    of the stream `slices` of arrays u(t_m) of grid.shape, t_m = m dt.

    Each slice's two norms come from `sobolev_besov_norms`, so a stream
    may reuse one buffer, and each column is integrated in time by
    `trapezoid_norm`.
    """
    sup, besov = zip(*sobolev_besov_norms(grid, slices, s, p,
                                          homogeneous=homogeneous))
    return trapezoid_norm(sup, dt, math.inf), trapezoid_norm(besov, dt, q)


def trapezoid_norm(values, dt: float, q: float) -> float:
    """( integral_0^T v(t)^q dt )^(1/q) from samples v(t_m), t_m = m dt.

    Trapezoid weights on the uniform slices; q = inf takes the max.
    """
    w = np.full(len(values), dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return peak_factored_norms([values], q, w)[0]
