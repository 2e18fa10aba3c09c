from __future__ import annotations

import numpy as np
import pytest

from fracnls.grid import Field, Grid


def smooth_random_field(grid: Grid, rng: np.random.Generator,
                        rolloff: float = 6.0) -> Field:
    """Random field with a Gaussian-decaying spectrum.

    Coefficients are complex standard normals damped by
    exp(-(|k| / (nyquist/rolloff))^2); at the default rolloff the damping
    reaches exp(-36) at the Nyquist wavenumber, so the field is numerically
    band limited and spectral translation is exact sampling.
    """
    coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    scale = grid.nyquist / rolloff
    coef = coef * np.exp(-(grid.wavenumber_magnitude / scale) ** 2)
    vals = np.fft.ifftn(coef) * grid.size ** 0.5
    return Field(grid, vals)


def modulated_bump_field(grid: Grid, rng: np.random.Generator) -> Field:
    """Smooth field whose modulus is bounded away from zero.

    Lattice quadrature of |f|^p converges spectrally only when |f| itself
    is smooth; a positive baseline keeps |f| away from the |.| kink.
    """
    base = 0.5 + 0.5 * rng.uniform()
    amp = 0.5 + 0.5 * rng.uniform()
    center = rng.uniform(-0.1, 0.1) * grid.period
    beta = rng.uniform(0.5, 2.0)
    phase = np.zeros(grid.shape)
    r2 = np.zeros(grid.shape)
    for xa in grid.coordinate_arrays:
        phase = phase + beta * np.sin(2.0 * np.pi * xa / grid.period)
        r2 = r2 + (xa - center) ** 2
    vals = (base + amp * np.exp(-r2)) * np.exp(1j * phase)
    return Field(grid, vals)


def band_limited_random_field(grid: Grid, rng: np.random.Generator,
                              band: float | None = None) -> Field:
    """Random field with iid coefficients on |k| <= band, zero above."""
    if band is None:
        band = grid.nyquist
    coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    coef[grid.wavenumber_magnitude > band] = 0.0
    vals = np.fft.ifftn(coef) * grid.size ** 0.5
    return Field(grid, vals)


def full_mesh_wavenumber_square(grid: Grid) -> np.ndarray:
    """|k|^2 as the grid once cached it: the squared wavenumbers of full
    meshes, added to zeros axis by axis.  The reference the level-table
    multipliers must match bit for bit."""
    ks = np.meshgrid(*[grid.axis_wavenumbers] * grid.dim, indexing="ij")
    out = np.zeros(grid.shape)
    for ka in ks:
        out = out + ka ** 2
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def line_grid():
    return Grid(dim=1, points=256, period=32.0)


@pytest.fixture
def plane_grid():
    return Grid(dim=2, points=64, period=16.0)
