"""Periodic torus discretization and Fourier-side operators.

The spatial domain is an N-dimensional torus of edge length L sampled on a
uniform lattice with M points per axis, centered at the origin.  Propagation,
translation and smoothing all act as diagonal multipliers in Fourier space,
so data that decay below roundoff near the boundary behave like whole-space
fields.

Normalization: the Sobolev norm weighs the magnitudes of

    c_k = h^N L^(-N/2) * sum_x f(x) exp(-i k.(x - x0)),    k_j = 2*pi*j/L,

x0 the lower-left corner: sum_k |c_k|^2 = h^N sum_x |f(x)|^2 to roundoff,
and c_k samples L^(-N/2) times the continuum Fourier transform of a
resolved field.  |c_k| does not depend on x0, so the norm takes
|fftn(f) h^N L^(-N/2)| and no phase exp(i k.x0) is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# the largest axis-0 row block of a Picard sweep's elementwise work, and
# of the intp copy of the level index that np.take makes in a gather
_BLOCK_BYTES = 128 * 1024


def _row_blocks(shape: tuple, itemsize: int = 16) -> list:
    """Contiguous axis-0 blocks of an array of the given shape and item
    size, each at most _BLOCK_BYTES (one row when a row is larger)."""
    rows = max(1, _BLOCK_BYTES // (itemsize * int(np.prod(shape[1:]))))
    return [slice(i, min(i + rows, shape[0])) for i in range(0, shape[0], rows)]


def _mesh_sum(shape, terms) -> np.ndarray:
    """np.zeros(shape) + each term in turn: bitwise the full-mesh sum."""
    out = np.zeros(shape)
    for term in terms:
        out = out + term
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-period/2, period/2)^dim.

    Args:
        dim: spatial dimension, 1, 2 or 3.
        points: samples per axis, a power of two, at least 8.
        period: torus edge length L in [1e-100, 1e100].
    """

    dim: int
    points: int
    period: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not (_is_power_of_two(self.points) and self.points >= 8
                and self.points ** self.dim <= 2 ** 24):
            raise ValueError("points must be a power of two >= 8 with "
                             f"points**dim <= 2**24, got {self.points}")
        if not 1e-100 <= self.period <= 1e100:  # see README's bounds
            raise ValueError("period must lie in [1e-100, 1e100], "
                             f"got {self.period}")

    @property
    def spacing(self) -> float:
        return self.period / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def size(self) -> int:
        return self.points ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @property
    def nyquist(self) -> float:
        """Largest resolvable wavenumber magnitude per axis, pi*M/L."""
        return np.pi * self.points / self.period

    @cached_property
    def axis_coordinates(self) -> np.ndarray:
        """1d coordinate array, identical for every axis."""
        return -0.5 * self.period + self.spacing * np.arange(self.points)

    @cached_property
    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Open coordinate mesh: each axis vector, shaped to broadcast."""
        return tuple(np.meshgrid(*[self.axis_coordinates] * self.dim,
                                 indexing="ij", sparse=True))

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        """1d wavenumber array 2*pi*j/L in FFT ordering, j in [-M/2, M/2)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    @cached_property
    def wavenumber_arrays(self) -> tuple[np.ndarray, ...]:
        """Open wavenumber mesh, shaped like `coordinate_arrays`."""
        return tuple(np.meshgrid(*[self.axis_wavenumbers] * self.dim,
                                 indexing="ij", sparse=True))

    @property
    def wavenumber_square(self) -> np.ndarray:
        """|k|^2 on the full mesh, a new array gathered from the level
        table: bitwise the mesh sum of the squared axis wavenumbers, and
        not cached, so no solve holds it."""
        return self.gather(self.wavenumber_levels[0])

    @property
    def wavenumber_magnitude(self) -> np.ndarray:
        return np.sqrt(self.wavenumber_square)

    def sobolev_weight(self, s: float, homogeneous: bool) -> np.ndarray:
        """|k|^(2s) (homogeneous; 0^s = 0 drops the mean) or (1+|k|^2)^s
        on the mesh, not cached: the power of each |k|^2 level, gathered
        through the level index, the only mesh array a grid keeps."""
        levels = self.wavenumber_levels[0]
        return self.gather(np.power(levels if homogeneous else 1.0 + levels,
                                    float(s)))

    @cached_property
    def wavenumber_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(levels, index), read-only: the sorted distinct values of |k|^2
        and the mesh-shaped index with levels[index] bitwise the mesh sum
        of the squared axis wavenumbers, which is built only here.

        A multiplier f(|k|^2) is f(levels)[index], bitwise, as every mesh
        point gets the same operation on the same value.  The index is
        stored in the narrowest unsigned dtype that holds len(levels) - 1
        (uint16 for the 4051 levels of 3D 64^3: 0.5 MiB, not the 2 MiB of
        intp).  np.take copies a narrower index to intp, so `gather` reads
        it in row blocks, and only a block's copy is ever made."""
        k2 = _mesh_sum(self.shape, (k ** 2 for k in self.wavenumber_arrays))
        levels, index = np.unique(k2, return_inverse=True)
        index = index.astype(np.min_scalar_type(len(levels) - 1))
        for a in (levels, index):
            a.setflags(write=False)
        return levels, index

    def gather(self, table: np.ndarray, out=None) -> np.ndarray:
        """table[index] for the level index, into out (a new mesh array by
        default), by row blocks whose intp index copies fit _BLOCK_BYTES;
        the index is in range, so np.take runs with mode="wrap" (4x faster)."""
        index = self.wavenumber_levels[1]
        if out is None:
            out = np.empty(self.shape, dtype=table.dtype)
        for b in _row_blocks(self.shape, np.dtype(np.intp).itemsize):
            np.take(table, index[b], out=out[b], mode="wrap")
        return out

    def translation_multiplier(self, y) -> np.ndarray:
        """exp(-i k.y) on the mesh: the Fourier multiplier of a shift by y."""
        terms = (ka * ya for ka, ya in zip(self.wavenumber_arrays, y))
        return np.exp(-1j * _mesh_sum(self.shape, terms))

    @property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds mask, built per call: True where every |j| <= M/3."""
        return self.band_mask(self.points // 3)

    def band_mask(self, band: int) -> np.ndarray:
        """True where every axis index |j| <= band, in FFT ordering."""
        idx = np.fft.fftfreq(self.points, d=1.0 / self.points)
        mask = np.ones(self.shape, dtype=bool)
        for ok in np.meshgrid(*[np.abs(idx) <= band] * self.dim,
                              indexing="ij", sparse=True):
            mask &= ok
        return mask


@dataclass(frozen=True)
class Field:
    """Complex samples of a function on a grid.  Treat as immutable."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)  # this field's copy
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} does not match "
                             f"grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _view(cls, grid: Grid, values: np.ndarray) -> "Field":
        """Wrap an array already checked, finite and read-only; no copy."""
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "values", values)
        return f

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "Field":
        return Field(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "Field"):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


def lebesgue_norm(f: Field, p: float) -> float:
    """Lebesgue norm (quasi-norm for p < 1) by exact lattice quadrature.

    p = inf returns the max of |f|; otherwise
    (h^N sum |f|^p)^(1/p).  p must be positive.
    """
    return lp_norm(f.values, p, f.grid.cell_volume)


def lp_norm(values: np.ndarray, p: float, cell_volume: float) -> float:
    """`lebesgue_norm` of raw samples on a lattice with cells h^N."""
    return peak_factored_norms(np.abs(values)[None], p,
                               scale=cell_volume)[0]


def peak_factored_norms(rows, q: float, weights=1.0,
                        scale: float = 1.0) -> list:
    """top * (scale * sum w (v / top)^q)^(1/q) of every row rows[j] of
    nonnegative v, top the row's peak; q = inf takes the peak.

    The peak is factored out so v^q cannot underflow or overflow, and an
    all-zero row gives zero.  weights broadcast against one row.  The
    elementwise passes run over all rows at once, in place: a float
    array is overwritten, anything else is copied into a new one."""
    if not q > 0:
        raise ValueError(f"exponent must be positive, got {q}")
    rows = np.asarray(rows, dtype=float)
    axes = tuple(range(1, rows.ndim))
    tops = rows.max(axis=axes)
    if np.isinf(q):
        return tops.tolist()
    rows /= np.where(tops > 0.0, tops, 1.0).reshape((-1,) + (1,) * len(axes))
    rows **= q
    if np.ndim(weights) or weights != 1.0:
        rows *= weights
    return [top * (scale * float(np.add.reduce(row, axis=None)))
            ** (1.0 / q) for top, row in zip(tops.tolist(), rows)]


def inner_product(f: Field, g: Field) -> complex:
    """L^2 pairing h^N sum conj(f) g."""
    f._check_same_grid(g)
    return complex(np.vdot(f.values, g.values) * f.grid.cell_volume)


def plane_wave(grid: Grid, mode: Sequence[int] | int,
               amplitude: complex = 1.0) -> Field:
    """amplitude * exp(i k0.x) with k0 = 2*pi*mode/L exactly on the
    lattice; one integer mode is taken on every axis."""
    mode = np.asarray(mode, dtype=int)
    if mode.ndim == 0:
        mode = np.full(grid.dim, mode)
    if mode.shape != (grid.dim,):
        raise ValueError(f"mode must have {grid.dim} components")
    half = grid.points // 2
    if np.any(mode < -half) or np.any(mode >= half):
        raise ValueError(f"mode {mode} outside the resolvable band")
    terms = ((2.0 * np.pi * m / grid.period) * xa
             for m, xa in zip(mode, grid.coordinate_arrays))
    return Field(grid, amplitude * np.exp(1j * _mesh_sum(grid.shape, terms)))


def gaussian(grid: Grid, amplitude: complex = 1.0, width: float = 1.0,
             center: Sequence[float] | float = 0.0) -> Field:
    """amplitude * exp(-|x - center|^2 / width^2); one center
    coordinate is taken on every axis."""
    center = np.asarray(center, dtype=float)
    if center.shape not in ((), (grid.dim,)):
        raise ValueError(f"center must have {grid.dim} components")
    center = np.full(grid.dim, center)
    terms = ((xa - ca) ** 2 for xa, ca in zip(grid.coordinate_arrays, center))
    r2 = _mesh_sum(grid.shape, terms)
    return Field(grid, amplitude * np.exp(-r2 / width ** 2))
