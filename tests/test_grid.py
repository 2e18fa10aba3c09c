from __future__ import annotations

import numpy as np
import pytest

from fracnls.grid import (
    Field,
    Grid,
    gaussian,
    inner_product,
    lebesgue_norm,
    peak_factored_norms,
    plane_wave,
)
from fracnls.spaces import _annulus_multipliers, offsets_kernel
from conftest import (
    band_limited_random_field,
    free_propagate,
    full_mesh_wavenumber_square,
    modulated_bump_field,
    smooth_random_field,
    translate,
)


# ---------------------------------------------------------------- validation

@pytest.mark.parametrize("dim", [0, 4, -1])
def test_grid_rejects_bad_dimension(dim):
    with pytest.raises(ValueError):
        Grid(dim=dim, points=64, period=1.0)


@pytest.mark.parametrize("points", [0, 4, 6, 100, 12])
def test_grid_rejects_bad_point_count(points):
    with pytest.raises(ValueError):
        Grid(dim=1, points=points, period=1.0)


def test_grid_rejects_bad_period():
    with pytest.raises(ValueError):
        Grid(dim=1, points=64, period=0.0)


def test_field_shape_must_match(line_grid):
    with pytest.raises(ValueError):
        Field(line_grid, np.zeros(line_grid.points + 1, dtype=complex))


@pytest.mark.parametrize("shape", [(32, 128), (4096,), (64, 64, 1)])
def test_field_rejects_an_array_of_the_right_size_and_wrong_shape(shape):
    # the values are not reshaped into the grid, which would scramble rows
    with pytest.raises(ValueError, match="does not match"):
        Field(Grid(2, 64, 8.0), np.arange(4096, dtype=complex).reshape(shape))


def test_field_rejects_non_finite(line_grid):
    vals = np.zeros(line_grid.points, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        Field(line_grid, vals)


def test_wavenumber_layout(line_grid):
    k = line_grid.axis_wavenumbers
    assert k[0] == 0.0
    assert np.isclose(k[1], 2.0 * np.pi / line_grid.period)
    # FFT ordering: second half starts at the most negative wavenumber
    assert np.isclose(k[line_grid.points // 2],
                      -np.pi * line_grid.points / line_grid.period)


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 32), (3, 16)])
def test_wavenumber_levels_index_the_mesh(dim, points):
    grid = Grid(dim, points, 32.0)
    levels, index = grid.wavenumber_levels
    assert np.all(np.diff(levels) > 0.0)
    # the narrowest unsigned dtype that holds the largest level number
    narrowest = next(dt for dt in (np.uint8, np.uint16, np.uint32)
                     if np.iinfo(dt).max >= len(levels) - 1)
    assert index.dtype == narrowest and index.shape == grid.shape
    assert np.array_equal(levels[index].view(np.uint64),
                          full_mesh_wavenumber_square(grid).view(np.uint64))
    assert not levels.flags.writeable and not index.flags.writeable
    assert grid.wavenumber_levels[0] is levels


@pytest.mark.parametrize("dim, points, dtype", [
    (1, 64, np.uint8), (2, 32, np.uint8), (2, 128, np.uint16),
    (3, 16, np.uint8), (3, 64, np.uint16)])
def test_narrow_index_gathers_are_the_intp_gathers_bitwise(dim, points,
                                                           dtype):
    # the row-block gathers through the narrow index give the bytes of a
    # whole-mesh gather through an intp index, for every level table
    grid = Grid(dim, points, 32.0)
    levels, index = grid.wavenumber_levels
    assert index.dtype == dtype
    wide = index.astype(np.intp)
    assert grid.wavenumber_square.tobytes() == levels[wide].tobytes()
    low, annuli = _annulus_multipliers(grid)
    for table, _ in [low] + annuli:
        assert grid.gather(table).tobytes() == table[wide].tobytes()
    for s, homogeneous in ((0.4, False), (0.4, True), (1.0, False)):
        weight = grid.gather(grid.sobolev_weight(s, homogeneous))
        assert weight.tobytes() == np.power(
            levels if homogeneous else 1.0 + levels, s)[wide].tobytes()
    phases = np.exp(-0.37j * levels)
    out = np.empty(grid.shape, dtype=complex)
    assert grid.gather(phases, out) is out
    assert out.tobytes() == phases[wide].tobytes()


OPEN_MESH_GRIDS = [Grid(1, 128, 32.0), Grid(2, 32, 16.0), Grid(3, 16, 16.0)]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                  b.view(np.uint64))


@pytest.mark.parametrize("grid", OPEN_MESH_GRIDS, ids=lambda g: f"{g.dim}d")
def test_open_mesh_functions_match_full_meshes_bitwise(grid):
    # the old expressions, on full meshes of every coordinate and k
    xs = np.meshgrid(*[grid.axis_coordinates] * grid.dim, indexing="ij")
    ks = np.meshgrid(*[grid.axis_wavenumbers] * grid.dim, indexing="ij")

    def total(terms):
        out = np.zeros(grid.shape)
        for term in terms:
            out = out + term
        return out

    def shift(y):
        return np.exp(-1j * total(ka * ya for ka, ya in zip(ks, y)))

    dim = grid.dim
    k2 = total(ka ** 2 for ka in ks)
    # |k|^2 is gathered from its level table and not cached; the
    # multipliers of |k|^2 take their pow and exp on the levels, and the
    # Sobolev weights are level tables, gathered onto the mesh here
    assert _same_bits(grid.wavenumber_square, k2)
    assert grid.wavenumber_square is not grid.wavenumber_square
    for s in (0.4, 0.75, 1.0):
        assert _same_bits(grid.gather(grid.sobolev_weight(s, False)),
                          np.power(1.0 + k2, s))
        assert _same_bits(grid.gather(grid.sobolev_weight(s, True)),
                          np.power(k2, s))
    f = gaussian(grid, 0.7 - 0.2j, 1.5, (0.4, -1.1, 2.0)[:dim])
    for t in (0.0, 0.37, -1.25):
        assert _same_bits(free_propagate(f, t).values, np.fft.ifftn(
            np.fft.fftn(f.values) * np.exp(-1j * t * k2)))
    for y in [(0.3, -1.7, 2.5), (grid.spacing,) * 3, (-np.pi, np.e, 0.0)]:
        assert _same_bits(grid.translation_multiplier(y[:dim]), shift(y))
    for center in [(0.0,) * 3, (0.4, -1.1, 2.0)]:
        r2 = total((xa - ca) ** 2 for xa, ca in zip(xs, center))
        assert _same_bits(
            gaussian(grid, 0.7 - 0.2j, 1.5, center[:dim]).values,
            (0.7 - 0.2j) * np.exp(-r2 / 1.5 ** 2))
    mode = (3, -5, 7)[:dim]
    phase = total((2.0 * np.pi * m / grid.period) * xa
                  for m, xa in zip(mode, xs))
    assert _same_bits(plane_wave(grid, mode, 1.2 + 0.5j).values,
                      (1.2 + 0.5j) * np.exp(1j * phase))
    # the cached axis arrays hold one axis vector per dimension
    for arrays in (grid.coordinate_arrays, grid.wavenumber_arrays):
        assert sum(a.size for a in arrays) == dim * grid.points


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_plane_wave_spreads_one_integer_mode(dim):
    grid = Grid(dim, 8, 8.0)
    assert _same_bits(plane_wave(grid, 3, 0.5j).values,
                      plane_wave(grid, [3] * dim, 0.5j).values)
    with pytest.raises(ValueError, match=f"mode must have {dim} components"):
        plane_wave(grid, [1] * (dim + 1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_center_has_one_coordinate_per_axis(dim):
    # one number is taken on every axis; any other shape but (dim,) is
    # refused rather than read at its first entry
    grid = Grid(dim, 8, 8.0)
    assert _same_bits(gaussian(grid, 0.5j, 1.5, 1.0).values,
                      gaussian(grid, 0.5j, 1.5, [1.0] * dim).values)
    for center in ([1.0] * (dim - 1), [1.0] * (dim + 1), [[1.0] * dim]):
        with pytest.raises(ValueError,
                           match=f"center must have {dim} components"):
            gaussian(grid, center=center)


# ---------------------------------------------------------------- transforms

def forward_transform(f):
    """Plancherel-normalized coefficients
    c_k = h^N L^(-N/2) sum_x f(x) exp(-i k.(x - x0)), x0 the lower-left
    corner: the origin phase makes c_k sample L^(-N/2) times the
    continuum Fourier transform of a resolved field."""
    g = f.grid
    scale = g.cell_volume / g.period ** (g.dim / 2.0)
    origin = g.translation_multiplier((g.axis_coordinates[0],) * g.dim)
    return np.fft.fftn(f.values) * origin * scale


def test_zero_field_zero_spectrum(line_grid):
    f = Field(line_grid, np.zeros(line_grid.shape, dtype=complex))
    assert np.all(forward_transform(f) == 0.0)


def test_plane_wave_single_coefficient(line_grid):
    f = plane_wave(line_grid, 5, amplitude=0.7)
    coef = forward_transform(f)
    mag = np.abs(coef)
    assert np.argmax(mag) == 5
    # our normalization carries L^(1/2) on a pure mode
    assert np.isclose(mag[5], 0.7 * line_grid.period ** 0.5, rtol=1e-12)
    rest = mag.copy()
    rest[5] = 0.0
    assert rest.max() < 1e-12 * mag[5]


@pytest.mark.parametrize("dim,points,period", [(1, 256, 32.0), (2, 64, 16.0)])
def test_plancherel_exact(dim, points, period, rng):
    grid = Grid(dim=dim, points=points, period=period)
    for _ in range(10):
        f = band_limited_random_field(grid, rng)
        lhs = float(np.sum(np.abs(forward_transform(f)) ** 2))
        rhs = grid.cell_volume * float(np.sum(np.abs(f.values) ** 2))
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_spectrum_matches_continuum_transform_for_gaussian():
    # For f = exp(-x^2) the continuum transform is sqrt(pi) exp(-k^2/4);
    # coefficients should equal L^(-1/2) * that, to spectral accuracy.
    grid = Grid(dim=1, points=512, period=64.0)
    f = gaussian(grid)
    coef = forward_transform(f)
    k = grid.axis_wavenumbers
    expected = np.sqrt(np.pi) * np.exp(-k ** 2 / 4.0) / grid.period ** 0.5
    assert np.max(np.abs(coef - expected)) < 1e-12


# ---------------------------------------------------------------- propagator

def test_free_propagate_zero_time(line_grid, rng):
    f = smooth_random_field(line_grid, rng)
    g = free_propagate(f, 0.0)
    assert np.max(np.abs(g.values - f.values)) < 1e-13


def test_free_propagate_single_mode_phase(line_grid):
    f = plane_wave(line_grid, 3)
    k0 = 2.0 * np.pi * 3 / line_grid.period
    t = 0.37
    g = free_propagate(f, t)
    expected = f.values * np.exp(-1j * t * k0 ** 2)
    assert np.max(np.abs(g.values - expected)) < 1e-12


def test_free_propagate_group_law(line_grid, rng):
    f = smooth_random_field(line_grid, rng)
    one = free_propagate(free_propagate(f, 0.2), 0.3)
    two = free_propagate(f, 0.5)
    assert np.max(np.abs(one.values - two.values)) < 1e-12


def test_free_propagate_isometry(line_grid, rng):
    f = smooth_random_field(line_grid, rng)
    g = free_propagate(f, 0.83)
    for p_weight in (0.0, 0.5):
        k = line_grid.wavenumber_magnitude
        w = k ** (2.0 * p_weight)
        cf = np.abs(forward_transform(f)) ** 2
        cg = np.abs(forward_transform(g)) ** 2
        a, b = float(np.sum(w * cf)), float(np.sum(w * cg))
        assert abs(a - b) <= 1e-12 * max(a, 1.0)


# ---------------------------------------------------------------- translation

def test_translate_zero_offset(line_grid, rng):
    f = smooth_random_field(line_grid, rng)
    g = translate(f, 0.0)
    assert np.max(np.abs(g.values - f.values)) < 1e-13


def test_translate_grid_aligned_matches_roll(line_grid, rng):
    # independent oracle: shifting by a whole number of cells is a
    # circular rotation of the sample array
    f = band_limited_random_field(line_grid, rng)
    shift = 7
    g = translate(f, shift * line_grid.spacing)
    oracle = np.roll(f.values, shift)
    assert np.max(np.abs(g.values - oracle)) < 1e-12 * np.abs(f.values).max()


def test_translate_grid_aligned_matches_roll_2d(plane_grid, rng):
    f = band_limited_random_field(plane_grid, rng)
    g = translate(f, (3 * plane_grid.spacing, -5 * plane_grid.spacing))
    oracle = np.roll(f.values, (3, -5), axis=(0, 1))
    assert np.max(np.abs(g.values - oracle)) < 1e-12 * np.abs(f.values).max()


def test_translate_plane_wave_phase(line_grid):
    f = plane_wave(line_grid, 4, amplitude=1.3)
    k0 = 2.0 * np.pi * 4 / line_grid.period
    y = 0.731
    g = translate(f, y)
    assert np.max(np.abs(g.values - np.exp(-1j * k0 * y) * f.values)) < 1e-12


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_translate_preserves_lebesgue_norms(line_grid, rng, p):
    # finite p, fields with smooth nonvanishing modulus: lattice
    # quadrature of |f|^p is then spectrally exact and the continuum
    # invariance survives discretization
    for _ in range(4):
        f = modulated_bump_field(line_grid, rng)
        y = float(rng.uniform(-3, 3))
        a = lebesgue_norm(f, p)
        b = lebesgue_norm(translate(f, y), p)
        assert abs(a - b) <= 1e-10 * a


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_grid_aligned_translate_preserves_norms_exactly(line_grid, rng, p):
    # whole-cell shifts permute the samples, so every norm (sup included)
    # is preserved to roundoff for arbitrary grid fields
    f = band_limited_random_field(line_grid, rng)
    g = translate(f, 11 * line_grid.spacing)
    a, b = lebesgue_norm(f, p), lebesgue_norm(g, p)
    assert abs(a - b) <= 1e-12 * a


def test_off_grid_translate_sup_norm_stability(line_grid, rng):
    # the sampled sup of a smooth field moves only at O(h^2) under
    # off-lattice shifts; check the bound rather than false exactness
    f = modulated_bump_field(line_grid, rng)
    y = 0.5 * line_grid.spacing
    a = lebesgue_norm(f, np.inf)
    b = lebesgue_norm(translate(f, y), np.inf)
    assert abs(a - b) <= line_grid.spacing ** 2 * a


def test_translate_commutes_with_propagator(line_grid, rng):
    f = smooth_random_field(line_grid, rng)
    one = translate(free_propagate(f, 0.41), 1.234)
    two = free_propagate(translate(f, 1.234), 0.41)
    scale = np.abs(one.values).max()
    assert np.max(np.abs(one.values - two.values)) < 1e-10 * scale


# ---------------------------------------------------------------- norms

def test_lebesgue_norm_zero(line_grid):
    f = Field(line_grid, np.zeros(line_grid.shape, dtype=complex))
    assert lebesgue_norm(f, 2.0) == 0.0
    assert lebesgue_norm(f, np.inf) == 0.0


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 7.0])
def test_lebesgue_norm_constant(line_grid, p):
    c = 0.3 - 0.4j
    f = Field(line_grid, np.full(line_grid.shape, c))
    expected = abs(c) * line_grid.period ** (1.0 / p)
    assert np.isclose(lebesgue_norm(f, p), expected, rtol=1e-12)


def test_lebesgue_norm_gaussian_analytic():
    # ||exp(-x^2)||_{L^2(R)} = (integral exp(-2x^2))^(1/2) = (pi/2)^(1/4);
    # frozen from the analytic integral, domain wide enough that the
    # torus value matches the line value to roundoff
    grid = Grid(dim=1, points=4096, period=40.0 * np.pi)
    f = gaussian(grid)
    assert np.isclose(lebesgue_norm(f, 2.0), (np.pi / 2.0) ** 0.25,
                      rtol=1e-10)


def test_lebesgue_norm_rejects_nonpositive(line_grid):
    f = gaussian(line_grid)
    for p in (0.0, -1.0):
        with pytest.raises(ValueError):
            lebesgue_norm(f, p)


def test_lebesgue_quasi_norm_homogeneity(line_grid, rng):
    f = smooth_random_field(line_grid, rng)
    for p in (0.3, 0.8):
        a = lebesgue_norm(Field(line_grid, 2.5 * f.values), p)
        assert np.isclose(a, 2.5 * lebesgue_norm(f, p), rtol=1e-12)


def test_lebesgue_norm_no_overflow(line_grid):
    f = Field(line_grid, np.full(line_grid.shape, 1e200 + 0j))
    out = lebesgue_norm(f, 8.0)
    assert np.isfinite(out)
    assert np.isclose(out, 1e200 * line_grid.period ** (1.0 / 8.0), rtol=1e-12)


def _peak_factored_lp(mag, p, cell_volume):
    """The L^p norm from magnitudes as one array at a time computes it."""
    top = float(mag.max())
    if np.isinf(p) or top == 0.0:
        return top
    return top * (float(np.sum((mag / top) ** p)) * cell_volume) ** (1 / p)


# the two bodies peak_factored_norms replaced, as they were: row sums of
# mesh magnitudes times the cell volume, and 1-D weighted sums


def _old_magnitude_lp_norms(mags, p, cell_volume):
    axes = tuple(range(1, mags.ndim))
    tops = mags.max(axis=axes)
    if np.isinf(p):
        return tops.tolist()
    mags /= np.where(tops > 0.0, tops, 1.0).reshape((-1,) + (1,) * len(axes))
    mags **= p
    return [top * (float(np.add.reduce(row, axis=None)) * cell_volume)
            ** (1.0 / p) for top, row in zip(tops.tolist(), mags)]


def _old_peak_factored_norm(values, q, weights=1.0):
    vals = np.asarray(values, dtype=float)
    top = float(vals.max())
    if np.isinf(q) or top == 0.0:
        return top
    return top * float(np.sum(weights * (vals / top) ** q)) ** (1.0 / q)


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


# an ordinary row, a small one, an all-zero one, a huge and a tiny one
ROW_SCALES = np.array([1.0, 1e-3, 0.0, 1e200, 1e-200])


@pytest.mark.parametrize("p", [0.5, 2.0, 2.5, 20.0 / 7.0, np.inf])
@pytest.mark.parametrize("shape", [(256,), (32, 32), (16, 16, 16)])
def test_magnitude_lp_norms_are_the_single_array_form(rng, shape, p):
    # row sums with the cell volume as scale, all rows at once or one at
    # a time, are bit for bit the old body and the one-array form
    cell = Grid(len(shape), shape[0], 10.0).cell_volume
    scales = ROW_SCALES.reshape((-1,) + (1,) * len(shape))
    mags = np.abs(rng.standard_normal((len(scales),) + shape)) * scales
    expected = [_peak_factored_lp(row, p, cell) for row in mags]
    assert _bits(_old_magnitude_lp_norms(mags.copy(), p, cell)) \
        == _bits(expected)
    assert _bits([peak_factored_norms(row.copy()[None], p, scale=cell)[0]
                  for row in mags]) == _bits(expected)
    assert _bits(peak_factored_norms(mags, p, scale=cell)) == _bits(expected)
    assert expected[2] == 0.0


@pytest.mark.parametrize("q", [0.5, 2.0, 20.0 / 7.0, np.inf])
@pytest.mark.parametrize("weights", ["trapezoid", "kernel", "none"])
def test_peak_factored_norms_weighted_sums_are_the_old_form(rng, weights, q):
    # 1-D weighted sums, as the time quadrature and the offset kernel of
    # the difference norms take them, are bit for bit the old body, for
    # one row at a time, a block of rows and a block of strided rows
    if weights == "trapezoid":
        weights = np.full(33, 0.25 / 32)
        weights[[0, -1]] *= 0.5
    elif weights == "kernel":
        weights = offsets_kernel(Grid(2, 32, 10.0), 0.4)[1]
    else:
        weights = 1.0
    n = np.size(weights) if np.ndim(weights) else 17
    rows = np.abs(rng.standard_normal((len(ROW_SCALES), n))) \
        * ROW_SCALES[:, None]
    expected = _bits([_old_peak_factored_norm(row, q, weights)
                      for row in rows])
    assert _bits([peak_factored_norms([row], q, weights)[0]
                  for row in rows]) == expected
    wide = np.repeat(rows, 2, axis=1)
    assert _bits(peak_factored_norms(wide[:, ::2], q, weights)) == expected
    assert _bits(peak_factored_norms(rows, q, weights)) == expected


def test_inner_product_conjugate_linear(line_grid, rng):
    f = smooth_random_field(line_grid, rng)
    g = smooth_random_field(line_grid, rng)
    ip = inner_product(f, g)
    assert np.isclose(inner_product(g, f), np.conj(ip), rtol=1e-12)
    assert np.isclose(inner_product(f, f).real, lebesgue_norm(f, 2.0) ** 2,
                      rtol=1e-12)


def test_field_arithmetic(line_grid, rng):
    f = smooth_random_field(line_grid, rng)
    g = smooth_random_field(line_grid, rng)
    h = f + 2.0 * g - g
    assert np.allclose(h.values, f.values + g.values)
    with pytest.raises(ValueError):
        _ = f + gaussian(Grid(dim=1, points=128, period=32.0))
