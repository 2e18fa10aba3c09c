from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fracnls.grid import (
    Field,
    Grid,
    free_propagate,
    gaussian,
    lebesgue_norm,
    lp_norm,
    plane_wave,
    translate,
)
from fracnls.spaces import (
    NormSpec,
    _annulus_multipliers,
    _inverse_on_support,
    ShellQuadrature,
    besov_norm_fd,
    besov_norm_lp,
    default_band,
    evaluate_norm,
    peak_factored_norm,
    sobolev_norm,
    spacetime_norm,
    transition_profile,
)
from conftest import band_limited_random_field, smooth_random_field


WIDE = Grid(dim=1, points=512, period=64.0)

# frozen oracle values for f = exp(-x^2):  |fhat(k)|^2 = pi exp(-k^2/2),
# norm^2 = (2 pi)^(-1) integral w(k) |fhat(k)|^2 dk (numerical quadrature;
# the s = 1/2 homogeneous integral evaluates in closed form to 1)
GAUSS_HDOT_05 = 1.0
GAUSS_H_03 = 1.2205394668178944


# ------------------------------------------------------------------ NormSpec

def test_normspec_validation():
    with pytest.raises(ValueError):
        NormSpec("unknown_kind")
    with pytest.raises(ValueError):
        NormSpec("besov_fd", s=1.2, p=2, q=2)  # characterization needs s < 1
    with pytest.raises(ValueError):
        NormSpec("besov_fd", s=0.5, p=2, q=np.inf)
    with pytest.raises(ValueError):
        NormSpec("lebesgue", p=0.0)
    with pytest.raises(ValueError):
        NormSpec("sobolev_multiplier", s=0.5, p=3, q=2)


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
    _, annuli = _annulus_multipliers(WIDE, jmin, jmax)
    hot = {jmin + i for i, (mult, _) in enumerate(annuli) if mult[m] != 0.0}
    assert hot and hot <= {j - 1, j, j + 1}


@pytest.mark.parametrize("dim,points,period", [(1, 256, 32.0), (2, 64, 16.0)])
def test_decompose_reconstruction(dim, points, period):
    # the low block and the annuli sum to one at every lattice k, so the
    # dyadic pieces of a field reconstruct it
    grid = Grid(dim=dim, points=points, period=period)
    (low, _), annuli = _annulus_multipliers(grid, *default_band(grid))
    total = low + sum(mult for mult, _ in annuli)
    assert np.max(np.abs(total - 1.0)) <= 1e-14


# ----------------------------------------------------------------- besov_lp

def test_besov_lp_zero_and_constant(line_grid):
    zero = Field(line_grid, np.zeros(line_grid.shape, dtype=complex))
    spec = NormSpec("besov_lp", s=0.5, p=2, q=2, homogeneous=True)
    assert besov_norm_lp(zero, spec) == 0.0
    const = Field(line_grid, np.full(line_grid.shape, 1.3 + 0.2j))
    assert besov_norm_lp(const, spec) < 1e-12
    inhom = NormSpec("besov_lp", s=0.5, p=2, q=2, homogeneous=False)
    assert besov_norm_lp(const, inhom) > 1.0  # low block keeps constants


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
    spec = NormSpec("besov_lp", s=s, p=2, q=2, homogeneous=True)
    ratio = besov_norm_lp(fd, spec) / besov_norm_lp(f, spec)
    predicted = 2.0 ** (s - 0.5)
    assert abs(ratio - predicted) <= 0.02 * predicted
    sob = sobolev_norm(fd, s, homogeneous=True) / sobolev_norm(f, s,
                                                               homogeneous=True)
    assert abs(sob - predicted) <= 0.005 * predicted


def test_besov_lp_vs_sobolev_ratio_stability(rng):
    s = 0.5
    spec = NormSpec("besov_lp", s=s, p=2, q=2, homogeneous=True)
    ratios = []
    for _ in range(100):
        f = band_limited_random_field(WIDE, rng)
        ratios.append(besov_norm_lp(f, spec) / sobolev_norm(f, s,
                                                            homogeneous=True))
    ratios = np.array(ratios)
    assert ratios.std() / ratios.mean() < 0.05
    assert 0.5 < ratios.min() and ratios.max() < 2.0
    # the Gaussian sits inside the same equivalence bracket
    gauss_ratio = besov_norm_lp(gaussian(WIDE), spec) / GAUSS_HDOT_05
    assert 0.5 < gauss_ratio < 2.0


def test_besov_lp_triangle_inequality(rng):
    spec = NormSpec("besov_lp", s=0.4, p=1.8, q=2, homogeneous=True)
    for _ in range(5):
        f = smooth_random_field(WIDE, rng)
        g = smooth_random_field(WIDE, rng)
        a = besov_norm_lp(f + g, spec)
        b = besov_norm_lp(f, spec) + besov_norm_lp(g, spec)
        assert a <= b * (1 + 1e-12)


KERNEL_GRIDS = [Grid(1, 128, 32.0), Grid(2, 128, 32.0), Grid(3, 32, 32.0)]


def _random_complex(grid, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(grid.shape)
            + 1j * rng.standard_normal(grid.shape))


@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.dim}d")
def test_inverse_on_support_matches_ifftn_bitwise(grid):
    fhat = np.fft.fftn(_random_complex(grid, 5))
    low, annuli = _annulus_multipliers(grid, *default_band(grid))
    pruned = 0
    for mult, runs in [low] + annuli:
        pruned += any(r != (slice(0, grid.points),) for r in runs)
        expected = np.fft.ifftn(fhat * mult)
        got = _inverse_on_support(fhat * mult, runs)
        assert got.tobytes() == expected.tobytes()
    # the low block and the lowest annuli do skip lines beyond 1D
    assert pruned >= (3 if grid.dim > 1 else 0)


def _reference_besov_lp(values, grid, spec):
    """One ifftn(fftn(x) * multiplier) per block, then the L^p formula."""
    def lp(x):
        mag = np.abs(x)
        top = float(mag.max())
        if top == 0.0:
            return 0.0
        acc = float(np.sum((mag / top) ** spec.p)) * grid.cell_volume
        return top * acc ** (1.0 / spec.p)

    jmin, jmax = default_band(grid)
    kmag = grid.wavenumber_magnitude
    terms = []
    for j in range(jmin, jmax + 1):
        mult = (transition_profile(kmag / 2.0 ** (j + 1))
                - transition_profile(kmag / 2.0 ** j))
        piece = np.fft.ifftn(np.fft.fftn(values) * mult)
        terms.append(2.0 ** (j * spec.s) * lp(piece))
    if not spec.homogeneous:
        low = transition_profile(kmag / 2.0 ** jmin)
        terms.append(lp(np.fft.ifftn(np.fft.fftn(values) * low)))
    return peak_factored_norm(terms, spec.q)


@pytest.mark.parametrize("grid", KERNEL_GRIDS + [Grid(2, 64, 16.0)],
                         ids=lambda g: f"{g.dim}d{g.points}")
@pytest.mark.parametrize("homogeneous", [False, True])
def test_besov_lp_matches_reference_bitwise(grid, homogeneous):
    f = Field(grid, _random_complex(grid, 11))
    for p in (1.5, 2.0, 20.0 / 7.0):
        spec = NormSpec("besov_lp", s=0.4, p=p, q=2.0,
                        homogeneous=homogeneous)
        assert besov_norm_lp(f, spec) == _reference_besov_lp(f.values, grid,
                                                             spec)


@pytest.mark.parametrize("grid", [Grid(3, 32, 32.0), Grid(2, 64, 16.0)],
                         ids=lambda g: f"{g.dim}d")
def test_besov_lp_peak_memory(grid):
    f = Field(grid, _random_complex(grid, 13))
    spec = NormSpec("besov_lp", s=0.4, p=20.0 / 7.0, q=2.0)
    besov_norm_lp(f, spec)  # warm: multipliers and supports are cached
    tracemalloc.start()
    try:
        besov_norm_lp(f, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * f.values.nbytes


# ------------------------------------------------------------------ sobolev

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
    spec = NormSpec("besov_lp", s=s, p=2, q=2, homogeneous=True)
    for _ in range(5):
        f = smooth_random_field(WIDE, rng)
        moved = translate(free_propagate(f, 0.7), 1.3)
        a, b = sobolev_norm(f, s), sobolev_norm(moved, s)
        assert abs(a - b) <= 1e-10 * a
        a, b = besov_norm_lp(f, spec), besov_norm_lp(moved, spec)
        assert abs(a - b) <= 1e-10 * a


# ----------------------------------------------------------------- besov_fd

def test_besov_fd_zero(line_grid):
    zero = Field(line_grid, np.zeros(line_grid.shape, dtype=complex))
    spec = NormSpec("besov_fd", s=0.5, p=2, q=2)
    assert besov_norm_fd(zero, spec) == 0.0


def test_besov_fd_translation_invariance_p2(rng):
    # p = 2 difference norms are exact by Plancherel, so the change of
    # variables survives discretization to roundoff
    spec = NormSpec("besov_fd", s=0.5, p=2, q=2)
    f = smooth_random_field(WIDE, rng)
    a = besov_norm_fd(f, spec)
    b = besov_norm_fd(translate(f, 1.7321), spec)
    assert abs(a - b) <= 1e-8 * a


def test_besov_fd_translation_invariance_general_p(rng):
    # p != 2 quadrature of |diff|^p meets the |.| kink near zeros of the
    # difference field; invariance still holds to 1e-6 on smooth data
    spec = NormSpec("besov_fd", s=0.4, p=1.8, q=2)
    f = smooth_random_field(WIDE, rng)
    a = besov_norm_fd(f, spec)
    b = besov_norm_fd(translate(f, 1.7321), spec)
    assert abs(a - b) <= 1e-6 * a


def test_besov_fd_scalar_homogeneity(rng):
    spec = NormSpec("besov_fd", s=0.5, p=2, q=2)
    f = smooth_random_field(WIDE, rng)
    a = besov_norm_fd(Field(WIDE, 3.7 * f.values), spec)
    assert np.isclose(a, 3.7 * besov_norm_fd(f, spec), rtol=1e-13)


def test_besov_fd_vs_lp_dilation_family():
    lp = NormSpec("besov_lp", s=0.5, p=2, q=2, homogeneous=True)
    fd = NormSpec("besov_fd", s=0.5, p=2, q=2)
    ratios = [besov_norm_fd(gaussian(WIDE, width=w), fd)
              / besov_norm_lp(gaussian(WIDE, width=w), lp)
              for w in (1.0, 2.0, 4.0)]
    assert max(ratios) / min(ratios) < 1.5


def test_besov_fd_quadrature_self_convergence():
    # doubling shells and angles moves the value by < 1%
    spec = NormSpec("besov_fd", s=0.5, p=2, q=2)
    f = gaussian(WIDE, width=1.5)
    coarse = besov_norm_fd(f, spec, ShellQuadrature(shells=32))
    fine = besov_norm_fd(f, spec, ShellQuadrature(shells=64))
    assert abs(coarse - fine) <= 0.01 * fine


@pytest.mark.parametrize("grid", [Grid(1, 128, 32.0), Grid(2, 32, 8.0),
                                  Grid(3, 16, 4.0)], ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("p", [1.5, 2.0, 20.0 / 7.0])
def test_besov_fd_matches_reference_bitwise(grid, p):
    # the stacked engine against one plain ifftn(fftn(f) * multiplier)
    # per offset
    f = Field(grid, _random_complex(grid, 17))
    spec = NormSpec("besov_fd", s=0.4, p=p, q=2.0)
    offsets, weights, radii = ShellQuadrature().offsets_weights(grid)
    fhat = np.fft.fftn(f.values)
    diffs = [lp_norm(np.fft.ifftn(fhat * grid.translation_multiplier(y))
                     - f.values, p, grid.cell_volume) for y in offsets]
    kernel = radii ** (-grid.dim - spec.s * spec.q) * weights
    assert besov_norm_fd(f, spec) == peak_factored_norm(diffs, spec.q,
                                                        kernel)


def test_shell_quadrature_validation():
    with pytest.raises(ValueError):
        ShellQuadrature(shells=1)
    with pytest.raises(ValueError):
        ShellQuadrature(angles=0)
    with pytest.raises(ValueError):
        ShellQuadrature(rmin=2.0, rmax=1.0).radii_weights(WIDE)


def test_shell_quadrature_measures():
    # radial rule integrates r^(-1) exactly up to trapezoid-in-log error;
    # direction weights integrate the unit sphere area
    quad = ShellQuadrature(shells=64, rmin=1.0, rmax=np.e ** 2)
    r, wr = quad.radii_weights(WIDE)
    assert np.isclose(np.sum(wr / r), 2.0, rtol=1e-12)  # integral dr/r = 2
    for dim, area in ((1, 2.0), (2, 2 * np.pi), (3, 4 * np.pi)):
        dirs, wd = quad.directions_weights(dim)
        assert np.isclose(wd.sum(), area, rtol=1e-12)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


# ----------------------------------------------------------- spacetime norm

class _StubTraj:
    """Minimal trajectory stand-in: stored slices plus a timegrid."""

    class _TG:
        def __init__(self, horizon, slices):
            self.horizon = horizon
            self.slices = slices
            self.dt = horizon / slices

    def __init__(self, fields, horizon):
        self._fields = fields
        self.timegrid = self._TG(horizon, len(fields) - 1)

    def field(self, m):
        return self._fields[m]


def test_spacetime_norm_constant_trajectory(rng):
    f = smooth_random_field(WIDE, rng)
    traj = _StubTraj([f] * 9, horizon=2.0)
    spec = NormSpec("lebesgue", p=2)
    assert np.isclose(spacetime_norm(traj, np.inf, spec),
                      lebesgue_norm(f, 2.0), rtol=1e-12)
    # finite q on a constant integrand: trapezoid is exact
    assert np.isclose(spacetime_norm(traj, 4.0, spec),
                      2.0 ** 0.25 * lebesgue_norm(f, 2.0), rtol=1e-12)


def test_spacetime_norm_zero():
    zero = Field(WIDE, np.zeros(WIDE.shape, dtype=complex))
    traj = _StubTraj([zero] * 5, horizon=1.0)
    assert spacetime_norm(traj, 2.0, NormSpec("lebesgue", p=2)) == 0.0


def test_spacetime_norm_free_gaussian_isometry():
    phi = gaussian(WIDE)
    T, n = 0.8, 16
    fields = [free_propagate(phi, T * m / n) for m in range(n + 1)]
    traj = _StubTraj(fields, horizon=T)
    spec = NormSpec("sobolev_multiplier", s=0.5, homogeneous=True)
    for q in (2.0, 6.0):
        expected = T ** (1.0 / q) * sobolev_norm(phi, 0.5, homogeneous=True)
        assert np.isclose(spacetime_norm(traj, q, spec), expected, rtol=1e-8)


def test_evaluate_norm_dispatch(rng):
    f = smooth_random_field(WIDE, rng)
    assert evaluate_norm(f, NormSpec("lebesgue", p=3.0)) == lebesgue_norm(f, 3.0)
    assert evaluate_norm(f, NormSpec("sobolev_multiplier", s=0.3)) == \
        sobolev_norm(f, 0.3)


def test_default_band_covers_grid():
    jmin, jmax = default_band(WIDE)
    assert 2.0 ** jmin <= 2.0 * np.pi / WIDE.period
    assert 2.0 ** jmax >= WIDE.nyquist
