from __future__ import annotations

import inspect
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracnls.exponents import ProblemParams, canonical_pair
from fracnls.grid import (
    Field,
    Grid,
    gaussian,
    lebesgue_norm,
    lp_norm,
    peak_factored_norms,
    plane_wave,
)
from fracnls.nonlinearity import PowerNonlinearity
from fracnls.solver import PicardConfig, TimeGrid, picard_duhamel
from fracnls.spaces import (
    _annulus_multipliers,
    _inverse_on_support,
    besov_norm_fd,
    besov_norm_lp,
    default_band,
    directions_weights,
    offsets_kernel,
    radii_weights,
    sobolev_besov_norms,
    sobolev_norm,
    spacetime_norm,
    transition_profile,
    trapezoid_norm,
)
from conftest import (band_limited_random_field, free_propagate,
                      smooth_random_field, translate)
from trajectories import traced_peak


WIDE = Grid(dim=1, points=512, period=64.0)

# frozen oracle values for f = exp(-x^2):  |fhat(k)|^2 = pi exp(-k^2/2),
# norm^2 = (2 pi)^(-1) integral w(k) |fhat(k)|^2 dk (numerical quadrature;
# the s = 1/2 homogeneous integral evaluates in closed form to 1)
GAUSS_HDOT_05 = 1.0
GAUSS_H_03 = 1.2205394668178944


# ------------------------------------------------------------ preconditions

def test_norm_preconditions():
    # each check sits in the function that owns it: the difference
    # characterization needs 0 < s < 1, and every L^q sum, the Lebesgue
    # norm's included, needs q > 0
    f = gaussian(WIDE)
    for s in (0.0, 1.0, 1.2):
        with pytest.raises(ValueError, match="0 < s < 1"):
            besov_norm_fd(f, s, 2.0)
    for q in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            peak_factored_norms([[1.0, 2.0]], q)
    with pytest.raises(ValueError, match="positive"):
        lebesgue_norm(f, 0.0)


def test_besov_norms_take_no_summability():
    # every Besov norm is B^s_{p,2}, and the parameters after the
    # exponents are keyword-only, so a stale positional summability is
    # refused rather than read as the next parameter
    for fn in (besov_norm_lp, sobolev_besov_norms, offsets_kernel,
               besov_norm_fd):
        assert "q" not in inspect.signature(fn).parameters, fn.__name__
    for fn in (sobolev_besov_norms, spacetime_norm):
        assert "sobolev" not in inspect.signature(fn).parameters
    f = gaussian(WIDE)
    for stale in (lambda: besov_norm_lp(f, 0.5, 2.0, 2.0),
                  lambda: sobolev_besov_norms(WIDE, [f.values], 0.5, 2.0,
                                              2.0),
                  lambda: offsets_kernel(WIDE, 0.5, 2.0),
                  lambda: besov_norm_fd(f, 0.5, 2.0, 2.0),
                  lambda: spacetime_norm(WIDE, [f.values] * 3, 0.25, 0.5,
                                         2.0, 2.0, True)):
        with pytest.raises(TypeError, match="positional"):
            stale()


# ------------------------------------------------------------ dyadic blocks

def test_transition_profile_shape():
    r = np.linspace(0, 2, 401)
    v = transition_profile(r)
    assert np.all(v[r <= 0.5] == 1.0)
    assert np.all(v[r >= 1.0] == 0.0)
    assert np.all(np.diff(v) <= 1e-15)  # monotone


def test_decompose_plane_wave_support():
    # at a wavenumber inside level j's annulus only levels j-1..j+1 are
    # nonzero
    j = 3
    m = 82  # k = 2*pi*82/64 = 8.05, inside (4, 16) for j = 3
    jmin, jmax = default_band(WIDE)
    _, annuli = _annulus_multipliers(WIDE)
    index = WIDE.wavenumber_levels[1]
    hot = {jmin + i for i, (table, _) in enumerate(annuli)
           if table[index][m] != 0.0}
    assert hot and hot <= {j - 1, j, j + 1}


@pytest.mark.parametrize("dim,points,period", [(1, 256, 32.0), (2, 64, 16.0)])
def test_decompose_reconstruction(dim, points, period):
    # the low block and the annuli sum to one at every lattice k, so the
    # dyadic pieces of a field reconstruct it
    grid = Grid(dim=dim, points=points, period=period)
    (low, _), annuli = _annulus_multipliers(grid)
    total = low + sum(table for table, _ in annuli)
    assert np.max(np.abs(total[grid.wavenumber_levels[1]] - 1.0)) <= 1e-14


@pytest.mark.parametrize("grid", [Grid(1, 256, 32.0), Grid(2, 64, 16.0),
                                  Grid(3, 16, 16.0)],
                         ids=lambda g: f"{g.dim}d")
def test_annulus_multipliers_are_level_tables(grid):
    # one entry per distinct |k|^2, none per mesh point
    levels, _ = grid.wavenumber_levels
    low, annuli = _annulus_multipliers(grid)
    for table, _ in [low] + annuli:
        assert table.shape == (len(levels),)


# ----------------------------------------------------------------- besov_lp

def test_besov_lp_zero_and_constant(line_grid):
    zero = Field(line_grid, np.zeros(line_grid.shape, dtype=complex))
    assert besov_norm_lp(zero, 0.5, 2, homogeneous=True) == 0.0
    const = Field(line_grid, np.full(line_grid.shape, 1.3 + 0.2j))
    assert besov_norm_lp(const, 0.5, 2, homogeneous=True) < 1e-12
    # the low block keeps constants
    assert besov_norm_lp(const, 0.5, 2, homogeneous=False) > 1.0


def _dilate_by_two(f: Field) -> Field:
    # f(2 x_j) sampled exactly: 2 x_j is itself a lattice point, index
    # 2j - M/2 mod M; restrict to |x| < L/4 so the torus double cover of
    # the dilation stays invisible (needs f below roundoff past |x| = L/2)
    g = f.grid
    idx = (2 * np.arange(g.points) - g.points // 2) % g.points
    vals = f.values[idx].copy()
    vals[np.abs(g.axis_coordinates) >= g.period / 4.0] = 0.0
    return Field(g, vals)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_besov_lp_dilation_scaling(s):
    # oracle: multiplier-norm scaling ||f(2.)||_Hdot^s = 2^(s-N/2) ||f||
    x = WIDE.coordinate_arrays[0]
    carrier = 1 + 0.3 * np.exp(2j * np.pi * 8 * x / WIDE.period) \
        + 0.2 * np.exp(-2j * np.pi * 5 * x / WIDE.period)
    f = Field(WIDE, np.exp(-((x / 2.0) ** 2)) * carrier)
    fd = _dilate_by_two(f)
    norm = partial(besov_norm_lp, s=s, p=2, homogeneous=True)
    ratio = norm(fd) / norm(f)
    predicted = 2.0 ** (s - 0.5)
    assert abs(ratio - predicted) <= 0.02 * predicted
    sob = sobolev_norm(fd, s, homogeneous=True) / sobolev_norm(f, s,
                                                               homogeneous=True)
    assert abs(sob - predicted) <= 0.005 * predicted


def test_besov_lp_vs_sobolev_ratio_stability(rng):
    s = 0.5
    norm = partial(besov_norm_lp, s=s, p=2, homogeneous=True)
    ratios = []
    for _ in range(100):
        f = band_limited_random_field(WIDE, rng)
        ratios.append(norm(f) / sobolev_norm(f, s, homogeneous=True))
    ratios = np.array(ratios)
    assert ratios.std() / ratios.mean() < 0.05
    assert 0.5 < ratios.min() and ratios.max() < 2.0
    # the Gaussian sits inside the same equivalence bracket
    gauss_ratio = norm(gaussian(WIDE)) / GAUSS_HDOT_05
    assert 0.5 < gauss_ratio < 2.0


def test_besov_lp_triangle_inequality(rng):
    norm = partial(besov_norm_lp, s=0.4, p=1.8, homogeneous=True)
    for _ in range(5):
        f = smooth_random_field(WIDE, rng)
        g = smooth_random_field(WIDE, rng)
        a = norm(f + g)
        b = norm(f) + norm(g)
        assert a <= b * (1 + 1e-12)


KERNEL_GRIDS = [Grid(1, 128, 32.0), Grid(2, 128, 32.0), Grid(3, 32, 32.0)]


def _random_complex(grid, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(grid.shape)
            + 1j * rng.standard_normal(grid.shape))


@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.dim}d")
def test_inverse_on_support_matches_ifftn_bitwise(grid):
    fhat = np.fft.fftn(_random_complex(grid, 5))
    low, annuli = _annulus_multipliers(grid)
    pruned = 0
    for table, runs in [low] + annuli:
        mult = table[grid.wavenumber_levels[1]]
        pruned += any(r != (slice(0, grid.points),) for r in runs)
        expected = np.fft.ifftn(fhat * mult)
        got = _inverse_on_support(fhat * mult, runs)
        assert got.tobytes() == expected.tobytes()
    # the low block and the lowest annuli do skip lines beyond 1D
    assert pruned >= (3 if grid.dim > 1 else 0)


def _reference_besov_lp(values, grid, s, p, homogeneous):
    """One ifftn(fftn(x) * multiplier) per block, then the L^p formula;
    the scale sum at q = 2."""
    def lp(x):
        mag = np.abs(x)
        top = float(mag.max())
        if top == 0.0:
            return 0.0
        acc = float(np.sum((mag / top) ** p)) * grid.cell_volume
        return top * acc ** (1.0 / p)

    jmin, jmax = default_band(grid)
    kmag = grid.wavenumber_magnitude
    terms = []
    for j in range(jmin, jmax + 1):
        mult = (transition_profile(kmag / 2.0 ** (j + 1))
                - transition_profile(kmag / 2.0 ** j))
        piece = np.fft.ifftn(np.fft.fftn(values) * mult)
        terms.append(2.0 ** (j * s) * lp(piece))
    if not homogeneous:
        low = transition_profile(kmag / 2.0 ** jmin)
        terms.append(lp(np.fft.ifftn(np.fft.fftn(values) * low)))
    return peak_factored_norms([terms], 2.0)[0]


@pytest.mark.parametrize("grid", KERNEL_GRIDS + [Grid(2, 64, 16.0)],
                         ids=lambda g: f"{g.dim}d{g.points}")
@pytest.mark.parametrize("homogeneous", [False, True])
def test_besov_lp_matches_reference_bitwise(grid, homogeneous):
    f = Field(grid, _random_complex(grid, 11))
    for p in (1.5, 2.0, 20.0 / 7.0):
        assert besov_norm_lp(f, 0.4, p, homogeneous=homogeneous) \
            == _reference_besov_lp(f.values, grid, 0.4, p, homogeneous)


@pytest.mark.parametrize("grid", [Grid(3, 32, 32.0), Grid(2, 64, 16.0)],
                         ids=lambda g: f"{g.dim}d")
def test_besov_lp_peak_memory(grid):
    f = Field(grid, _random_complex(grid, 13))
    besov_norm_lp(f, 0.4, 20.0 / 7.0)  # warm: multipliers and supports
    assert traced_peak(besov_norm_lp, f, 0.4, 20.0 / 7.0) \
        <= 4.5 * f.values.nbytes


def test_slice_norm_stream_holds_no_mesh_sized_weight():
    # the stream's scratch is fhat and piece, two complex slices; the
    # Sobolev weight is gathered by row block, where a float mesh of it
    # would add half a slice (3.03 slices measured with it and a float
    # magnitude mesh, 2.57 with the magnitude mesh alone, at 3D 64^3
    # over three slices)
    grid = Grid(3, 64, 32.0)
    slices = [_random_complex(grid, seed) for seed in (17, 18, 19)]
    next(sobolev_besov_norms(grid, slices[:1], 0.4, 3.0))  # warm the tables
    peak = traced_peak(lambda: list(sobolev_besov_norms(grid, slices, 0.4,
                                                        3.0)))
    assert peak <= 2.75 * slices[0].nbytes


def test_slice_norm_stream_holds_two_slices():
    # beside the transform, one scratch slice: each block multiplier is
    # gathered into it as complex values and the magnitudes go over its
    # own bytes (2.07 slices measured at 3D 64^3); a float mesh for
    # either would add half a slice (2.57 with one)
    grid = Grid(3, 64, 32.0)
    slices = [_random_complex(grid, seed) for seed in (17, 18, 19)]
    next(sobolev_besov_norms(grid, slices[:1], 0.4, 3.0))  # warm the tables
    peak = traced_peak(lambda: list(sobolev_besov_norms(grid, slices, 0.4,
                                                        3.0)))
    assert peak <= 2.25 * slices[0].nbytes


SLICE_NORM_GRIDS = [Grid(1, 128, 32.0), Grid(2, 128, 32.0),
                    Grid(3, 32, 32.0)]


@pytest.mark.parametrize("grid", SLICE_NORM_GRIDS,
                         ids=lambda g: f"{g.dim}d{g.points}")
@pytest.mark.parametrize("homogeneous", [True, False])
def test_sobolev_besov_norms_are_the_separate_norms_bitwise(grid,
                                                            homogeneous):
    # one forward transform per field, in one Besov scratch shared by all
    # fields, gives each field's two norms bit for bit
    fields = [Field(grid, _random_complex(grid, seed)) for seed in (3, 4)]
    fields += [gaussian(grid, 0.08, 2.0), Field(grid, np.zeros(grid.shape))]
    for p in (2.0, 20.0 / 7.0):
        pairs = list(sobolev_besov_norms(grid, [f.values for f in fields],
                                         0.4, p, homogeneous=homogeneous))
        assert len(pairs) == len(fields)
        for f, (sob, besov) in zip(fields, pairs):
            assert sob.hex() == sobolev_norm(f, 0.4).hex()
            assert besov.hex() == besov_norm_lp(
                f, 0.4, p, homogeneous=homogeneous).hex()


def test_sobolev_besov_norms_need_one_grid():
    # a slice of another shape is not on the stream's grid
    grid = Grid(1, 64, 16.0)
    for shape in ((32,), (64, 1), (8, 8)):
        stream = sobolev_besov_norms(
            grid, [gaussian(grid).values, np.ones(shape, dtype=complex)],
            0.4, 2.0)
        next(stream)
        with pytest.raises(ValueError, match="shape"):
            next(stream)


# ------------------------------------------------------------------ sobolev

@pytest.mark.parametrize("grid", SLICE_NORM_GRIDS,
                         ids=lambda g: f"{g.dim}d{g.points}")
def test_sobolev_norm_is_the_unphased_magnitude_sum_bitwise(grid):
    # |c_k| without the origin phase: the sum of the one-expression form
    f = Field(grid, _random_complex(grid, 7))
    scale = grid.cell_volume / grid.period ** (grid.dim / 2.0)
    for s, homogeneous in ((0.4, False), (0.5, True), (1.0, False)):
        weight = grid.gather(grid.sobolev_weight(s, homogeneous))
        expected = float(np.sqrt(np.sum(
            weight * np.abs(np.fft.fftn(f.values) * scale) ** 2)))
        assert sobolev_norm(f, s, homogeneous).hex() == expected.hex()


def test_sobolev_norm_caches_no_complex_mesh():
    # after a Picard solve, which takes the two-thirds mask, and both
    # norms of a slice, the level index is the grid's only mesh array
    grid = Grid(3, 16, 16.0)
    params = ProblemParams(dimension=3, regularity=0.4, power=2.0)
    picard_duhamel(gaussian(grid, 0.05), PowerNonlinearity(1.0, 2.0),
                   TimeGrid(0.05, 2),
                   PicardConfig(metric_pair=canonical_pair(params)))
    sobolev_norm(gaussian(grid), 0.4)
    next(sobolev_besov_norms(grid, [gaussian(grid).values], 0.4, 2.0,
                             homogeneous=True))
    cached = [a for v in vars(grid).values()
              for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert any(a.shape == grid.shape for a in cached)
    assert not any(np.iscomplexobj(a) for a in cached)
    assert not hasattr(grid, "origin_phase")
    meshes = [a for a in cached if a.shape == grid.shape]
    assert len(meshes) == 1 and meshes[0] is grid.wavenumber_levels[1]


def test_sobolev_plancherel(line_grid, rng):
    for _ in range(10):
        f = band_limited_random_field(line_grid, rng)
        assert np.isclose(sobolev_norm(f, 0.0, homogeneous=True),
                          lebesgue_norm(f, 2.0), rtol=1e-12)


def test_sobolev_plane_wave():
    f = plane_wave(WIDE, 7, amplitude=1.1)
    k0 = 2.0 * np.pi * 7 / WIDE.period
    for s in (0.25, 0.5):
        expected = 1.1 * WIDE.period ** 0.5 * k0 ** s
        assert np.isclose(sobolev_norm(f, s, homogeneous=True), expected,
                          rtol=1e-12)


def test_sobolev_gaussian_lattice_spectrum_oracle():
    # discrete norm equals the lattice sum of the analytic spectrum
    # |fhat|^2 = pi exp(-k^2/2) scaled by 1/L, to spectral accuracy
    f = gaussian(WIDE)
    k = WIDE.axis_wavenumbers
    for s, homogeneous in ((0.5, True), (0.3, False)):
        w = np.abs(k) ** (2 * s) if homogeneous else (1 + k ** 2) ** s
        oracle = np.sqrt(np.sum(w * np.pi * np.exp(-k ** 2 / 2)) / WIDE.period)
        got = sobolev_norm(f, s, homogeneous=homogeneous)
        assert np.isclose(got, oracle, rtol=1e-12)


def test_sobolev_gaussian_continuum_values():
    # frozen continuum quadrature values; the homogeneous norm carries an
    # infrared deficit from the dropped k = 0 cell that shrinks with L
    f = gaussian(WIDE)
    assert np.isclose(sobolev_norm(f, 0.3, homogeneous=False), GAUSS_H_03,
                      rtol=1e-10)
    assert np.isclose(sobolev_norm(f, 0.5, homogeneous=True), GAUSS_HDOT_05,
                      rtol=2e-3)
    big = Grid(dim=1, points=2048, period=256.0)
    err_small = abs(sobolev_norm(f, 0.5, homogeneous=True) - GAUSS_HDOT_05)
    err_big = abs(sobolev_norm(gaussian(big), 0.5, homogeneous=True)
                  - GAUSS_HDOT_05)
    assert err_big < 0.5 * err_small


def test_multiplier_invariance_of_norms(rng):
    s = 0.5
    norm = partial(besov_norm_lp, s=s, p=2, homogeneous=True)
    for _ in range(5):
        f = smooth_random_field(WIDE, rng)
        moved = translate(free_propagate(f, 0.7), 1.3)
        a, b = sobolev_norm(f, s), sobolev_norm(moved, s)
        assert abs(a - b) <= 1e-10 * a
        a, b = norm(f), norm(moved)
        assert abs(a - b) <= 1e-10 * a


# ----------------------------------------------------------------- besov_fd

def test_besov_fd_zero(line_grid):
    zero = Field(line_grid, np.zeros(line_grid.shape, dtype=complex))
    assert besov_norm_fd(zero, 0.5, 2) == 0.0


def test_besov_fd_translation_invariance_p2(rng):
    # p = 2 difference norms are exact by Plancherel, so the change of
    # variables survives discretization to roundoff
    f = smooth_random_field(WIDE, rng)
    a = besov_norm_fd(f, 0.5, 2)
    b = besov_norm_fd(translate(f, 1.7321), 0.5, 2)
    assert abs(a - b) <= 1e-8 * a


def test_besov_fd_translation_invariance_general_p(rng):
    # p != 2 quadrature of |diff|^p meets the |.| kink near zeros of the
    # difference field; invariance still holds to 1e-6 on smooth data
    f = smooth_random_field(WIDE, rng)
    a = besov_norm_fd(f, 0.4, 1.8)
    b = besov_norm_fd(translate(f, 1.7321), 0.4, 1.8)
    assert abs(a - b) <= 1e-6 * a


def test_besov_fd_scalar_homogeneity(rng):
    f = smooth_random_field(WIDE, rng)
    a = besov_norm_fd(Field(WIDE, 3.7 * f.values), 0.5, 2)
    assert np.isclose(a, 3.7 * besov_norm_fd(f, 0.5, 2), rtol=1e-13)


def test_besov_fd_vs_lp_dilation_family():
    ratios = [besov_norm_fd(gaussian(WIDE, width=w), 0.5, 2)
              / besov_norm_lp(gaussian(WIDE, width=w), 0.5, 2,
                              homogeneous=True)
              for w in (1.0, 2.0, 4.0)]
    assert max(ratios) / min(ratios) < 1.5


def test_besov_fd_quadrature_self_convergence():
    # doubling the shells moves the value by < 1%
    f = gaussian(WIDE, width=1.5)
    coarse = besov_norm_fd(f, 0.5, 2, shells=32)
    fine = besov_norm_fd(f, 0.5, 2, shells=64)
    assert abs(coarse - fine) <= 0.01 * fine


def _separate_offsets_kernel(shells, grid, s):
    """The offsets and kernel as they were written: the quadrature's
    offsets, weights and radii first, the kernel formed from them
    after."""
    r, wr = radii_weights(grid, shells)
    dirs, wd = directions_weights(grid.dim)
    offsets = r[:, None, None] * dirs[None, :, :]
    weights = (r ** (grid.dim - 1) * wr)[:, None] * wd[None, :]
    radii = np.broadcast_to(r[:, None], weights.shape)
    offsets, weights, radii = (offsets.reshape(-1, grid.dim),
                               weights.reshape(-1), radii.reshape(-1))
    return offsets, radii ** (-grid.dim - s * 2.0) * weights


FD_GRIDS = [Grid(1, 128, 32.0), Grid(2, 32, 8.0), Grid(3, 16, 4.0)]


@pytest.mark.parametrize("grid", FD_GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("s", [0.4, 0.5, 0.25, 0.75])
# the ids keep the shells-angles names of the cases from when the angle
# count was a parameter; every case now runs at ANGLES
@pytest.mark.parametrize("shells", [32, 12, 2, 7],
                         ids=["32-16", "12-16", "2-1", "7-9"])
def test_offsets_kernel_is_the_separate_form_bitwise(grid, s, shells):
    offsets, kernel = offsets_kernel(grid, s, shells=shells)
    ref_offsets, ref_kernel = _separate_offsets_kernel(shells, grid, s)
    assert offsets.tobytes() == ref_offsets.tobytes()
    assert kernel.tobytes() == ref_kernel.tobytes()
    assert offsets.shape == (len(kernel), grid.dim)


@pytest.mark.parametrize("grid", FD_GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("p", [1.5, 2.0, 20.0 / 7.0])
def test_besov_fd_matches_reference_bitwise(grid, p):
    # the stacked engine against one plain ifftn(fftn(f) * multiplier)
    # per offset
    f = Field(grid, _random_complex(grid, 17))
    offsets, kernel = _separate_offsets_kernel(32, grid, 0.4)
    fhat = np.fft.fftn(f.values)
    diffs = [lp_norm(np.fft.ifftn(fhat * grid.translation_multiplier(y))
                     - f.values, p, grid.cell_volume) for y in offsets]
    assert besov_norm_fd(f, 0.4, p) == peak_factored_norms([diffs], 2.0,
                                                           kernel)[0]


def test_shell_quadrature_validation():
    with pytest.raises(ValueError, match="at least 2 radial shells"):
        offsets_kernel(WIDE, 0.4, shells=1)


def test_shell_quadrature_measures():
    # radial rule integrates r^(-1) exactly up to trapezoid-in-log error
    # over [h/2, L/2], where integral dr/r = log(points); direction
    # weights integrate the unit sphere area
    r, wr = radii_weights(WIDE, 64)
    assert np.isclose(r[0], 0.5 * WIDE.spacing, rtol=1e-12)
    assert np.isclose(r[-1], 0.5 * WIDE.period, rtol=1e-12)
    assert np.isclose(np.sum(wr / r), np.log(WIDE.points), rtol=1e-12)
    for dim, area in ((1, 2.0), (2, 2 * np.pi), (3, 4 * np.pi)):
        dirs, wd = directions_weights(dim)
        assert np.isclose(wd.sum(), area, rtol=1e-12)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


# ----------------------------------------------------------- spacetime norm

def test_spacetime_norm_constant_trajectory(rng):
    f = smooth_random_field(WIDE, rng)
    sup, besov = spacetime_norm(WIDE, [f.values] * 9, 0.25, 0.4, 3.0, 4.0)
    assert np.isclose(sup, sobolev_norm(f, 0.4), rtol=1e-12)
    # finite q on a constant integrand: trapezoid is exact
    assert np.isclose(besov, 2.0 ** 0.25 * besov_norm_lp(f, 0.4, 3.0),
                      rtol=1e-12)
    column = [lebesgue_norm(f, 2.0)] * 9
    assert np.isclose(trapezoid_norm(column, 0.25, np.inf),
                      lebesgue_norm(f, 2.0), rtol=1e-12)
    assert np.isclose(trapezoid_norm(column, 0.25, 4.0),
                      2.0 ** 0.25 * lebesgue_norm(f, 2.0), rtol=1e-12)


def test_spacetime_norm_zero():
    zero = np.zeros(WIDE.shape, dtype=complex)
    assert spacetime_norm(WIDE, [zero] * 5, 0.25, 0.4, 2.0,
                          2.0) == (0.0, 0.0)


def test_spacetime_norm_free_gaussian_isometry():
    phi = gaussian(WIDE)
    T, n = 0.8, 16
    fields = [free_propagate(phi, T * m / n) for m in range(n + 1)]
    homogeneous = [sobolev_norm(f, 0.5, homogeneous=True) for f in fields]
    # the free flow keeps each block's L^2 norm, so B^s_{2,2} as well
    besov = besov_norm_lp(phi, 0.5, 2.0, homogeneous=True)
    for q in (2.0, 6.0):
        expected = T ** (1.0 / q) * sobolev_norm(phi, 0.5, homogeneous=True)
        assert np.isclose(trapezoid_norm(homogeneous, T / n, q), expected,
                          rtol=1e-8)
        sup, norm = spacetime_norm(WIDE, [f.values for f in fields], T / n,
                                   0.5, 2.0, q, homogeneous=True)
        assert np.isclose(sup, sobolev_norm(phi, 0.5), rtol=1e-8)
        assert np.isclose(norm, T ** (1.0 / q) * besov, rtol=1e-8)


def _through_one_buffer(fields):
    """Yield each field's values copied into one shared buffer."""
    buf = np.empty(fields[0].grid.shape, dtype=complex)
    for f in fields:
        buf[...] = f.values
        yield buf


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 16)])
def test_one_buffer_stream_is_the_separate_norms_bitwise(dim, points, rng):
    # a stream whose slices share one buffer gives each slice's norms,
    # and spacetime_norm their trapezoid_norm in time, bit for bit
    grid = Grid(dim, points, 16.0)
    fields = [smooth_random_field(grid, rng) for _ in range(5)]
    pairs = sobolev_besov_norms(grid, _through_one_buffer(fields), 0.4, 3.0,
                                homogeneous=True)
    sup, besov = zip(*pairs)
    assert sup == tuple(sobolev_norm(f, 0.4) for f in fields)
    assert besov == tuple(besov_norm_lp(f, 0.4, 3.0, homogeneous=True)
                          for f in fields)
    assert all(value > 0.0 for value in sup + besov)
    assert spacetime_norm(grid, _through_one_buffer(fields), 0.125, 0.4,
                          3.0, 6.0, homogeneous=True) == (
        trapezoid_norm(sup, 0.125, np.inf), trapezoid_norm(besov, 0.125, 6.0))


def test_default_band_covers_grid():
    jmin, jmax = default_band(WIDE)
    assert 2.0 ** jmin <= 2.0 * np.pi / WIDE.period
    assert 2.0 ** jmax >= WIDE.nyquist


# ------------------------------------------------------ property tests

NORM_PROPERTY_GRIDS = [Grid(1, 64, 32.0), Grid(2, 32, 16.0)]


@st.composite
def _exponents(draw, norm):
    """Keyword exponents of the norm function, drawn valid for it."""
    s = draw(st.floats(0.1, 0.9))
    p = draw(st.floats(1.0, 6.0))
    if norm is lebesgue_norm:
        return {"p": p}
    if norm is sobolev_norm:
        return {"s": s, "homogeneous": draw(st.booleans())}
    if norm is besov_norm_lp:
        return {"s": s, "p": p, "homogeneous": draw(st.booleans())}
    return {"s": s, "p": p}


@pytest.mark.parametrize("grid", NORM_PROPERTY_GRIDS,
                         ids=lambda g: f"{g.dim}d{g.points}")
@pytest.mark.parametrize(
    "norm", [lebesgue_norm, sobolev_norm, besov_norm_lp, besov_norm_fd],
    ids=["lebesgue", "sobolev_multiplier", "besov_lp", "besov_fd"])
def test_property_norm_lattice_roll_and_homogeneity(grid, norm):
    # a lattice roll permutes the samples and commutes with every Fourier
    # multiplier and finite difference, and every norm is absolutely
    # homogeneous; both hold to rounding
    @settings(max_examples=5, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           shift=st.lists(st.integers(-grid.points, grid.points),
                          min_size=grid.dim, max_size=grid.dim),
           c=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                allow_nan=False, allow_infinity=False),
           exponents=_exponents(norm))
    def check(seed, shift, c, exponents):
        f = smooth_random_field(grid, np.random.default_rng(seed))
        base = norm(f, **exponents)
        rolled = Field(grid, np.roll(f.values, shift,
                                     axis=tuple(range(grid.dim))))
        assert norm(rolled, **exponents) == pytest.approx(base, rel=1e-12)
        scaled = norm(Field(grid, c * f.values), **exponents)
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)

    check()


@pytest.mark.parametrize("grid", NORM_PROPERTY_GRIDS,
                         ids=lambda g: f"{g.dim}d{g.points}")
def test_property_fd_to_lp_ratio_spread(grid):
    # criterion 2's spread bound on the two Besov norms at s = 1/2,
    # p = q = 2, over Gaussians of drawn width, centre and amplitude
    bump = st.tuples(
        st.floats(1.0, 4.0),
        st.lists(st.floats(0.0, grid.period), min_size=grid.dim,
                 max_size=grid.dim),
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                           allow_nan=False, allow_infinity=False))

    @settings(max_examples=5, deadline=None, derandomize=True,
              database=None)
    @given(bumps=st.lists(bump, min_size=2, max_size=5))
    def check(bumps):
        fields = [gaussian(grid, amplitude, width, center)
                  for width, center, amplitude in bumps]
        ratios = [besov_norm_fd(f, 0.5, 2.0)
                  / besov_norm_lp(f, 0.5, 2.0, homogeneous=True)
                  for f in fields]
        assert max(ratios) / min(ratios) < 1.5

    check()
