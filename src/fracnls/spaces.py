"""Fractional-order function-space norms on the torus.

Three realizations of smoothness-s norms are provided and kept strictly
separate so they can cross-check each other:

  * sobolev_norm      -- Fourier multiplier |k|^s or (1+|k|^2)^(s/2),
  * besov_norm_lp     -- dyadic (Littlewood-Paley) block sums,
  * besov_norm_fd     -- finite-difference characterization
                         ( integral ||f(.-y) - f||_Lp^q |y|^(-N-sq) dy )^(1/q),
                         valid for 0 < s < 1.

The dyadic partition is built from a C-infinity radial transition profile,
so block multipliers overlap only between neighbours and telescope to one
on the resolvable band.  The finite-difference integral is truncated to
radii [h/2, L/2].  `fd_quadrature` and `translation_increments` are the
one engine for that integral, shared with the remainder functional.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import (Field, Grid, forward_transform, lebesgue_norm, lp_norm,
                   magnitude_lp_norm)

_NORM_KINDS = ("sobolev_multiplier", "besov_lp", "besov_fd", "lebesgue")


@dataclass(frozen=True)
class NormSpec:
    """Serializable description of a spatial norm.

    kind selects the realization; s is the smoothness order, p the Lebesgue
    integrability, q the summability across scales, homogeneous whether the
    k = 0 / low-frequency content is dropped.
    """

    kind: str
    s: float = 0.0
    p: float = 2.0
    q: float = 2.0
    homogeneous: bool = False

    def __post_init__(self):
        if self.kind not in _NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if not self.p > 0:
            raise ValueError(f"norm needs p > 0, got {self.p}")
        if self.kind == "sobolev_multiplier" and (self.p, self.q) != (2.0, 2.0):
            raise ValueError("multiplier norm is an L^2 object: p = q = 2")
        if self.kind == "besov_fd":
            if not 0.0 < self.s < 1.0:
                raise ValueError(
                    f"difference characterization needs 0 < s < 1, got {self.s}")
            if np.isinf(self.q):
                raise ValueError("difference characterization needs q < inf")
        if self.kind in ("besov_lp", "besov_fd") and not self.q > 0:
            raise ValueError("norm needs q > 0")


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


# cache key includes the profile object so monkeypatched profiles
# (fault injection) invalidate previously built multipliers
_multiplier_cache: dict = {}


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


def _annulus_multipliers(grid: Grid, jmin: int, jmax: int):
    """Low block and annuli, each a (table, support runs) pair: the
    multiplier on the |k|^2 levels of grid.wavenumber_levels, so that
    table[index] is bitwise the mesh multiplier, and its mesh support."""
    key = (grid, jmin, jmax, id(transition_profile))
    hit = _multiplier_cache.get(key)
    if hit is not None:
        return hit
    levels, index = grid.wavenumber_levels
    kmag = np.sqrt(levels)
    low = transition_profile(kmag / 2.0 ** jmin)
    annuli = [transition_profile(kmag / 2.0 ** (j + 1))
              - transition_profile(kmag / 2.0 ** j)
              for j in range(jmin, jmax + 1)]
    if len(_multiplier_cache) > 64:
        _multiplier_cache.clear()
    hit = ((low, _support_runs(low[index])),
           [(m, _support_runs(m[index])) for m in annuli])
    _multiplier_cache[key] = hit
    return hit


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


def besov_norm_lp(f: Field, spec: NormSpec) -> float:
    """Dyadic-block Besov norm ( sum_j (2^(js) ||block_j||_Lp)^q )^(1/q).

    homogeneous=True uses annuli only (constants get norm zero);
    otherwise the low-frequency block enters the scale sum with weight one.
    """
    if spec.kind != "besov_lp":
        raise ValueError(f"spec kind {spec.kind!r} is not besov_lp")
    jmin, jmax = default_band(f.grid)
    low, annuli = _annulus_multipliers(f.grid, jmin, jmax)
    index = f.grid.wavenumber_levels[1]
    # gather each table into mult; fhat * mult is inverted in piece, and
    # the block's magnitudes go back into mult
    fhat = np.fft.fftn(f.values, out=np.empty(f.grid.shape, dtype=complex))
    piece = np.empty_like(fhat)
    mult = np.empty(f.grid.shape)
    cell = f.grid.cell_volume

    def block_norm(table, runs):
        np.take(table, index, out=mult, mode="wrap")
        np.multiply(fhat, mult, out=piece)
        np.abs(_inverse_on_support(piece, runs), out=mult)
        return magnitude_lp_norm(mult, spec.p, cell)

    terms = [2.0 ** (j * spec.s) * block_norm(*block)
             for j, block in zip(range(jmin, jmax + 1), annuli)]
    if not spec.homogeneous:
        terms.append(block_norm(*low))
    return peak_factored_norm(terms, spec.q)


def sobolev_norm(f: Field, s: float, homogeneous: bool = False) -> float:
    """Multiplier norm: weights |k|^(2s) (homogeneous, mean dropped for
    s > 0) or (1+|k|^2)^s on the Plancherel-normalized coefficients."""
    weight = f.grid.sobolev_weight(s, homogeneous)
    return float(np.sqrt(np.sum(weight * np.abs(forward_transform(f)) ** 2)))


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

    Radii are log-spaced (trapezoid in log r) on [rmin, rmax], defaulting
    to [h/2, L/2]; directions are +-1 in one dimension, uniform angles in
    two, a Fibonacci sphere in three.
    """

    shells: int = 32
    angles: int = 16
    rmin: Optional[float] = None
    rmax: Optional[float] = None

    def __post_init__(self):
        if self.shells < 2:
            raise ValueError("need at least 2 radial shells")
        if self.angles < 1:
            raise ValueError("need at least 1 angular node")

    def radii_weights(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """Radii r_i and weights w_i with sum_i w_i f(r_i) ~ integral f dr."""
        rmin = self.rmin if self.rmin is not None else 0.5 * grid.spacing
        rmax = self.rmax if self.rmax is not None else 0.5 * grid.period
        if not 0.0 < rmin < rmax:
            raise ValueError(f"bad radial range ({rmin}, {rmax})")
        t = np.linspace(np.log(rmin), np.log(rmax), self.shells)
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

    def offsets_weights(self, grid: Grid):
        """All offset vectors y with radii, combined dy-measure weights and
        the radii they came from."""
        r, wr = self.radii_weights(grid)
        dirs, wd = self.directions_weights(grid.dim)
        offsets = r[:, None, None] * dirs[None, :, :]
        weights = (r ** (grid.dim - 1) * wr)[:, None] * wd[None, :]
        radii = np.broadcast_to(r[:, None], weights.shape)
        return (offsets.reshape(-1, grid.dim), weights.reshape(-1),
                radii.reshape(-1))


def fd_quadrature(grid: Grid, quad: Optional[ShellQuadrature], s: float,
                  q: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets y and kernel |y|^(-N-sq) times the dy weight of each, for
    the quadrature (default `ShellQuadrature()`) at smoothness s and
    summability q."""
    if quad is None:
        quad = ShellQuadrature()
    offsets, weights, radii = quad.offsets_weights(grid)
    return offsets, radii ** (-grid.dim - s * q) * weights


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


def besov_norm_fd(f: Field, spec: NormSpec,
                  quad: Optional[ShellQuadrature] = None) -> float:
    """Finite-difference Besov norm, truncated to offsets |y| <= L/2.

    ( sum over quadrature nodes of
      ||f(.-y) - f||_Lp^q |y|^(-N-sq) * weight )^(1/q).
    The norm is homogeneous by construction (constants give zero).
    """
    if spec.kind != "besov_fd":
        raise ValueError(f"spec kind {spec.kind!r} is not besov_fd")
    offsets, kernel = fd_quadrature(f.grid, quad, spec.s, spec.q)
    diffs = [lp_norm(incs[0], spec.p, f.grid.cell_volume)
             for _, _, incs in translation_increments([[f.values]], f.grid,
                                                      offsets)]
    return peak_factored_norm(diffs, spec.q, kernel)


# ------------------------------------------------------------------ dispatch

def evaluate_norm(f: Field, spec: NormSpec,
                  quad: Optional[ShellQuadrature] = None) -> float:
    """Evaluate any NormSpec on a field."""
    if spec.kind == "lebesgue":
        return lebesgue_norm(f, spec.p)
    if spec.kind == "sobolev_multiplier":
        return sobolev_norm(f, spec.s, homogeneous=spec.homogeneous)
    if spec.kind == "besov_lp":
        return besov_norm_lp(f, spec)
    if spec.kind == "besov_fd":
        return besov_norm_fd(f, spec, quad)
    raise ValueError(f"unknown norm kind {spec.kind!r}")


def spacetime_norm(fields, dt: float, *pairs) -> tuple:
    """Mixed norms ( integral_0^T ||u(t)||^q dt )^(1/q), one per pair.

    `fields` yields the slices u(t_m), t_m = m dt, and each pair is
    (q, spatial NormSpec).  Every slice is measured in every norm before
    the next is asked for, so one pass serves a stream whose slices
    share a buffer; each column is then integrated by `trapezoid_norm`.
    """
    columns = [[] for _ in pairs]
    for f in fields:
        for column, (_, spatial) in zip(columns, pairs):
            column.append(evaluate_norm(f, spatial))
    return tuple(trapezoid_norm(column, dt, q_time)
                 for column, (q_time, _) in zip(columns, pairs))


def trapezoid_norm(values, dt: float, q: float) -> float:
    """( integral_0^T v(t)^q dt )^(1/q) from samples v(t_m), t_m = m dt.

    Trapezoid weights on the uniform slices; q = inf takes the max.
    """
    if not q > 0:
        raise ValueError(f"time exponent must be positive, got {q}")
    w = np.full(len(values), dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return peak_factored_norm(values, q, w)


def peak_factored_norm(values, q: float, weights=1.0) -> float:
    """( sum_i w_i v_i^q )^(1/q) of nonnegative v; q = inf takes the max.

    The peak is factored out so v^q cannot underflow or overflow.
    """
    vals = np.asarray(values, dtype=float)
    top = float(vals.max())
    if np.isinf(q) or top == 0.0:
        return top
    return top * float(np.sum(weights * (vals / top) ** q)) ** (1.0 / q)
