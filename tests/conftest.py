from __future__ import annotations

import numpy as np
import pytest

from fracnls.grid import Field, Grid


# free propagation and translation as whole-mesh multipliers: the
# references for the solver's free flow and for the invariance of norms

def _apply_multiplier(f: Field, multiplier: np.ndarray) -> Field:
    return Field(f.grid, np.fft.ifftn(np.fft.fftn(f.values) * multiplier))


def free_propagate(f: Field, t: float) -> Field:
    """Evolve under the free group: multiplier exp(-i t |k|^2)."""
    levels = f.grid.wavenumber_levels[0]
    return _apply_multiplier(f, f.grid.gather(np.exp(-1j * t * levels)))


def translate(f: Field, y) -> Field:
    """Shift by y: samples of f(x - y), via the multiplier exp(-i k.y).

    y may be a scalar in one dimension or a length-dim sequence.
    """
    g = f.grid
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (g.dim,):
        raise ValueError(f"offset must have {g.dim} components, got {y.shape}")
    return _apply_multiplier(f, g.translation_multiplier(y))


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
def multiplier_builds(monkeypatch) -> list:
    """The offsets Grid.translation_multiplier is asked for while the
    test runs, in call order."""
    built = []
    real = Grid.translation_multiplier

    def spy(grid, y):
        built.append(tuple(y))
        return real(grid, y)

    monkeypatch.setattr(Grid, "translation_multiplier", spy)
    return built


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def line_grid():
    return Grid(dim=1, points=256, period=32.0)


@pytest.fixture
def plane_grid():
    return Grid(dim=2, points=64, period=16.0)
