from __future__ import annotations

from functools import partial

import numpy as np
import pytest

import fracnls.nonlinearity
from fracnls.grid import (Field, Grid, gaussian, lebesgue_norm, lp_norm,
                          peak_factored_norms)
from fracnls.nonlinearity import (
    THETA_NODES,
    PowerNonlinearity,
    besov_difference_report,
    count_pointwise_violations,
    remainder_K,
)
from fracnls.spaces import besov_norm_fd, offsets_kernel
from pointwise_checks import (check_pointwise_power, derivative_envelope,
                              difference_identity_residual, wirtinger)

CUBIC = PowerNonlinearity(coupling=1.0, power=2.0)


def _scalar_g(nl, z):
    return complex(nl.g(np.asarray(z, dtype=complex).reshape(-1))[0])


# ----------------------------------------------------------------- power map

def test_power_g_zero_and_constant(line_grid):
    assert np.all(CUBIC.g(np.zeros(line_grid.shape, dtype=complex)) == 0.0)
    nl = PowerNonlinearity(coupling=0.5 - 2.0j, power=1.5)
    c = 1.0 + 2.0j
    image = nl.g(np.full(line_grid.shape, c))
    expected = nl.coupling * abs(c) ** nl.power * c
    assert np.allclose(image, expected, rtol=1e-14)


def test_power_g_modulus_identity(line_grid, rng):
    from conftest import smooth_random_field
    f = smooth_random_field(line_grid, rng)
    nl = PowerNonlinearity(coupling=-1.5j, power=0.7)
    image = nl.g(f.values)
    expected = abs(nl.coupling) * np.abs(f.values) ** (nl.power + 1.0)
    assert np.allclose(np.abs(image), expected, rtol=1e-13)


@pytest.mark.parametrize("coupling", [1.0, -0.5, 0.7 - 0.3j],
                         ids=["unit", "real", "complex"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0 / 3.0, 2.0, 3.0])
def test_power_g_into_buffer_is_bitwise_the_allocating_form(alpha, coupling,
                                                            rng):
    # sizes below and above numpy's temporary-elision threshold (256 KiB);
    # the reference is the one-expression form, which the solver's
    # byte-identical output was first produced with
    nl = PowerNonlinearity(coupling=coupling, power=alpha)
    for size in (1000, 40000):
        values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        values[::97] = 0.0
        reference = coupling * np.abs(values) ** alpha * values
        out = np.empty_like(values)
        assert nl.g(values, out=out) is out
        assert np.array_equal(out.view(np.uint64),
                              reference.view(np.uint64))
        assert np.array_equal(nl.g(values).view(np.uint64),
                              reference.view(np.uint64))


# ----------------------------------------------------------------- wirtinger

def test_wirtinger_worked_example():
    dz, dzbar = wirtinger(1.0, CUBIC)
    assert dz == pytest.approx(2.0, rel=1e-15)
    assert dzbar == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_wirtinger_zero_extension(alpha):
    dz, dzbar = wirtinger(0.0, PowerNonlinearity(1.0, alpha))
    assert dz == 0.0
    assert dzbar == 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_wirtinger_matches_finite_differences(alpha, rng):
    nl = PowerNonlinearity(coupling=0.7 - 0.3j, power=alpha)
    h = 1e-7
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        if abs(z) < 0.3:
            z += 0.5 + 0.5j
        dx = (_scalar_g(nl, z + h) - _scalar_g(nl, z - h)) / (2.0 * h)
        dy = (_scalar_g(nl, z + 1j * h) - _scalar_g(nl, z - 1j * h)) / (2.0 * h)
        dz, dzbar = wirtinger(z, nl)
        assert abs(dz - 0.5 * (dx - 1j * dy)) < 1e-6 * (1.0 + abs(dz))
        assert abs(dzbar - 0.5 * (dx + 1j * dy)) < 1e-6 * (1.0 + abs(dzbar))


def test_power_envelope_is_exact(rng):
    nl = PowerNonlinearity(coupling=2.0j, power=1.3)
    z = rng.normal(size=100) + 1j * rng.normal(size=100)
    measured = derivative_envelope(nl, z)
    expected = abs(nl.coupling) * (1.0 + nl.power) * np.abs(z) ** nl.power
    assert np.allclose(measured, expected, rtol=1e-13)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0 / 3.0, 2.0, 3.0])
def test_dzbar_closed_form(alpha, rng):
    nl = PowerNonlinearity(coupling=0.7 - 0.3j, power=alpha)
    z = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    expected = (nl.coupling * (alpha / 2.0) * np.abs(z) ** (alpha - 2.0)
                * z ** 2)
    measured = nl.dzbar(z)
    assert np.all(np.abs(measured - expected) <= 1e-15 * np.abs(expected))
    at_origin = nl.dzbar(np.array([0.0, 1.0, 0.0], dtype=complex))
    assert at_origin[0] == 0.0 and at_origin[2] == 0.0


# --------------------------------------------------------- segment identity

def test_difference_identity_trivial_pair():
    assert difference_identity_residual(0.3 + 1j, 0.3 + 1j, CUBIC) == 0.0


def test_difference_identity_worked_example():
    # straight path from 0 to 1: the theta integrand is (alpha+1) theta^alpha,
    # polynomial for alpha = 2, so Gauss quadrature is exact
    residual = difference_identity_residual(1.0, 0.0, CUBIC, n_theta=64)
    assert residual < 1e-10


def _min_segment_distance(z1, z2):
    gap = z1 - z2
    denom = abs(gap) ** 2
    if denom == 0.0:
        return abs(z2)
    t = min(max((-z2.real * gap.real - z2.imag * gap.imag) / denom, 0.0), 1.0)
    return abs(z2 + t * gap)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_difference_identity_random_pairs(alpha, rng):
    nl = PowerNonlinearity(coupling=1.0 + 0.5j, power=alpha)
    done = 0
    while done < 50:
        z1 = complex(rng.normal(), rng.normal())
        z2 = complex(rng.normal(), rng.normal())
        # fractional powers lose smoothness at the origin; the identity is
        # integrated along the segment, so keep the path clear of it
        if _min_segment_distance(z1, z2) < 0.2:
            continue
        assert difference_identity_residual(z1, z2, nl, n_theta=128) < 1e-8
        done += 1


def test_difference_identity_needs_two_nodes():
    with pytest.raises(ValueError):
        difference_identity_residual(1.0, 0.0, CUBIC, n_theta=1)


@pytest.mark.parametrize("alpha", [2.0, 4.0])
def test_difference_identity_exact_at_m_plus_one_nodes(alpha, rng):
    # for alpha = 2m the derivative pair is a degree-2m polynomial along
    # the segment, which m + 1 Gauss-Legendre nodes integrate exactly
    nl = PowerNonlinearity(coupling=0.7 - 0.3j, power=alpha)
    m = int(alpha) // 2
    for _ in range(50):
        z1, z2 = (np.sqrt(rng.uniform(size=2))
                  * np.exp(2j * np.pi * rng.uniform(size=2)))
        assert difference_identity_residual(z1, z2, nl, n_theta=m + 1) \
            <= 1e-14
    if m >= 2:  # one node fewer is not exact
        assert difference_identity_residual(1.0, -0.5j, nl, n_theta=m) > 1e-6


# ---------------------------------------------------------- pointwise bounds

def test_pointwise_boundary_case_is_equality():
    report = check_pointwise_power(1.0, 0.0, 0.5)
    assert report.modulus_lhs == pytest.approx(1.0)
    assert report.modulus_bound == pytest.approx(1.0)
    assert report.satisfied


def test_pointwise_worked_example():
    report = check_pointwise_power(2.0, 1.0, 2.0)
    assert report.modulus_lhs == pytest.approx(3.0)
    assert report.modulus_bound == pytest.approx(6.0)  # alpha * (2 + 1) * 1
    assert report.phase_lhs == pytest.approx(3.0)
    assert report.phase_bound == pytest.approx(15.0)
    assert report.satisfied


def test_pointwise_rejects_bad_power():
    with pytest.raises(ValueError):
        check_pointwise_power(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        count_pointwise_violations([1.0], [0.0], -1.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_pointwise_sweep_no_violations(alpha, rng):
    n = 10_000
    z1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    z2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert count_pointwise_violations(z1, z2, alpha) == (0, 0)
    # stress the near-antipodal configuration where the segment crosses 0
    t = rng.uniform(0.5, 2.0, size=n)
    assert count_pointwise_violations(z1, -t * z1, alpha) == (0, 0)
    # and exact zeros on one side
    assert count_pointwise_violations(z1, np.zeros(n), alpha) == (0, 0)


# ------------------------------------------------------- remainder functional

@pytest.fixture
def bump_pair(line_grid):
    u = gaussian(line_grid, amplitude=1.0, width=2.0)
    shifted = gaussian(line_grid, amplitude=0.5, width=1.5, center=3.0)
    return u, u + shifted


def test_remainder_vanishes_on_diagonal(bump_pair):
    u, _ = bump_pair
    assert remainder_K([u], [[u]], CUBIC, s=0.5, p=2.0, q=2.0,
                       r=6.0)[0][0] == 0.0


def test_remainder_vanishes_for_zero_base(bump_pair, line_grid):
    _, v = bump_pair
    zero = Field(line_grid, np.zeros(line_grid.shape, dtype=complex))
    assert remainder_K([zero], [[v]], CUBIC, s=0.5, p=2.0, q=2.0,
                       r=6.0)[0][0] == 0.0


def test_remainder_positive_off_diagonal(bump_pair):
    u, v = bump_pair
    assert remainder_K([u], [[v]], CUBIC, s=0.5, p=2.0, q=2.0,
                       r=6.0)[0][0] > 0.0


@pytest.mark.parametrize(
    "nl", [CUBIC, PowerNonlinearity(coupling=0.7 - 0.3j, power=1.5)],
    ids=["power", "fractional"])
@pytest.mark.parametrize("dim", [1, 2])
def test_remainder_batch_matches_single_calls(dim, nl):
    grid = Grid(dim, 64 if dim == 1 else 16, 16.0)
    u = gaussian(grid, amplitude=1.0, width=2.0)
    bump = gaussian(grid, amplitude=0.5, width=1.5, center=[3.0] * dim)
    others = [u + (2.0 ** -k) * bump for k in range(4)]
    kwargs = dict(s=0.5, p=2.0, q=2.0, r=6.0, theta_nodes=8, shells=6)
    (batched,) = remainder_K([u], [others], nl, **kwargs)
    assert batched == tuple(remainder_K([u], [[v]], nl, **kwargs)[0][0]
                            for v in others)
    assert all(value > 0.0 for value in batched)


@pytest.mark.parametrize("coupling", [1.0, 0.7 - 0.3j],
                         ids=["real", "complex"])
@pytest.mark.parametrize("alpha", [2.0, 4.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_remainder_exact_nodes_match_full_quadrature(dim, alpha, coupling):
    # the power map takes m + 1 of the 16 nodes; the row-wise reference
    # takes all 16
    grid = Grid(dim, {1: 64, 2: 16, 3: 8}[dim], 16.0)
    u = gaussian(grid, amplitude=1.0, width=2.0)
    bump = gaussian(grid, amplitude=0.5, width=1.5, center=[3.0] * dim)
    others = [u + (2.0 ** -k) * bump for k in range(4)]
    nl = PowerNonlinearity(coupling=coupling, power=alpha)
    kwargs = dict(s=0.5, p=2.0, q=2.0, r=6.0, shells=6)
    (exact,) = remainder_K([u], [others], nl, theta_nodes=16, **kwargs)
    full = _rowwise_remainder(u, others, nl, n_theta=16, **kwargs)
    assert all(value > 0.0 for value in full)
    assert np.allclose(exact, full, rtol=1e-13, atol=0.0)


def _rowwise_remainder(u, others, nl, s, p, q, r, n_theta, shells,
                       matmul=False):
    """remainder_K as it was written, one row and one offset at a time,
    kept here as the reference of the vectorized rows; with matmul the
    theta sum is the `wts @ gap` product it was before that."""
    grid = u.grid
    axes = tuple(range(1, grid.dim + 1))
    offsets, kernel = offsets_kernel(grid, s, q, shells)
    nodes, wts = fracnls.nonlinearity._gauss_unit(n_theta)
    theta = nodes.astype(complex).reshape((-1,) + (1,) * grid.dim)
    weights = wts.reshape(theta.shape)

    def averaged_gap(along_v, along_u):
        if matmul:
            gap = (along_v - along_u).reshape(n_theta, -1)
            return (wts @ gap).reshape(grid.shape)
        gap = along_v - along_u
        gap *= weights
        for term in gap[1:]:
            gap[0] += term
        return gap[0]

    stack = np.stack([u.values] + [w.values for w in others])
    stack_hat = np.fft.fftn(stack, axes=axes)
    norms = np.empty((len(others), len(offsets)))
    for i, y in enumerate(offsets):
        incs = np.fft.ifftn(stack_hat * grid.translation_multiplier(y),
                            axes=axes)
        incs -= stack
        inc_u = incs[0]
        path_u = u.values[None] + theta * inc_u[None]
        for j, w in enumerate(others):
            path_w = w.values[None] + theta * incs[1 + j][None]
            residual = (inc_u * averaged_gap(nl.dz(path_w), nl.dz(path_u))
                        + np.conj(inc_u) * averaged_gap(nl.dzbar(path_w),
                                                        nl.dzbar(path_u)))
            norms[j, i] = lp_norm(residual, p, grid.cell_volume)
    return tuple(peak_factored_norms([row], q, kernel)[0] for row in norms)


@pytest.mark.parametrize("dim", [1, 2])
def test_remainder_theta_sum_matches_matmul(dim):
    # alpha = 2 takes 2 nodes, where the node-order sum is bitwise the
    # matmul; alpha = 3 takes all 32, where it moves in the last digits
    grid = Grid(dim, 64 if dim == 1 else 16, 16.0)
    u = gaussian(grid, amplitude=1.0, width=2.0)
    bump = gaussian(grid, amplitude=0.5, width=1.5, center=[3.0] * dim)
    others = [u + (2.0 ** -k) * bump for k in range(3)]
    kwargs = dict(s=0.5, p=2.0, q=2.0, r=6.0, shells=6)
    for nl, n_theta in ((PowerNonlinearity(0.7 - 0.3j, 2.0), 2),
                        (PowerNonlinearity(0.7 - 0.3j, 3.0), THETA_NODES)):
        (values,) = remainder_K([u], [others], nl, **kwargs)
        ref = _rowwise_remainder(u, others, nl, n_theta=n_theta,
                                 matmul=True, **kwargs)
        if n_theta == 2:
            assert values == ref
        else:
            assert np.allclose(values, ref, rtol=1e-15, atol=0.0)


# (map, theta nodes it takes of 8): alpha = 2m takes m + 1, any other
# power all 8
ENGINE_MAPS = {
    "alpha2-real": (PowerNonlinearity(1.0, 2.0), 2),
    "alpha2-complex": (PowerNonlinearity(0.7 - 0.3j, 2.0), 2),
    "alpha4-real": (PowerNonlinearity(1.0, 4.0), 3),
    "alpha4-complex": (PowerNonlinearity(0.7 - 0.3j, 4.0), 3),
    "alpha1.5": (PowerNonlinearity(0.7 - 0.3j, 1.5), 8),
}
ENGINE_KW = dict(s=0.5, p=2.0, q=2.0, r=6.0, shells=4)


def _engine_fields(dim, count):
    """A base on a small grid of each dimension and `count` others."""
    grid = Grid(dim, {1: 64, 2: 16, 3: 8}[dim], 16.0)
    u = gaussian(grid, amplitude=1.0, width=2.0)
    bump = gaussian(grid, amplitude=0.5 - 0.2j, width=1.5,
                    center=[3.0] * dim)
    return u, [u + (2.0 ** -k) * bump for k in range(count)]


@pytest.mark.parametrize("case", ENGINE_MAPS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_remainder_rows_bitwise_the_rowwise_form(dim, case):
    nl, n_theta = ENGINE_MAPS[case]
    u, others = _engine_fields(dim, 3)
    (values,) = remainder_K([u], [others], nl, theta_nodes=8, **ENGINE_KW)
    assert values == _rowwise_remainder(u, others, nl, n_theta=n_theta,
                                        **ENGINE_KW)
    assert all(value > 0.0 for value in values)


@pytest.mark.parametrize("case", ENGINE_MAPS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_remainder_all_slices_match_single_calls(dim, case):
    nl, _ = ENGINE_MAPS[case]
    u, others = _engine_fields(dim, 3)
    # three bases, as the slices of a trajectory, each with its own rows;
    # one row equals its base and gives 0, and the last base has one row
    # fewer than the scratch holds
    factors = (1.0, 0.8 - 0.1j, 0.5j)
    bases = [u * c for c in factors]
    rows = [[w * c for w in others] for c in factors]
    rows[1][2] = bases[1]
    del rows[2][1]
    kwargs = dict(ENGINE_KW, theta_nodes=8)
    values = remainder_K(bases, rows, nl, **kwargs)
    assert values == tuple(tuple(remainder_K([b], [[w]], nl, **kwargs)[0][0]
                                 for w in ws)
                           for b, ws in zip(bases, rows))
    assert values[1][2] == 0.0
    assert min(values[0] + values[2]) > 0.0


@pytest.mark.parametrize("case, theta_nodes, count", [
    ("alpha2-complex", 8, 20), ("alpha1.5", 32, 3), ("alpha1.5", 16, 5)])
def test_remainder_row_chunks_bitwise_the_rowwise_form(case, theta_nodes,
                                                       count):
    # more rows than one chunk of 32 theta paths holds: 20 rows at 2 nodes
    # go as 16 and 4, 3 rows at 32 nodes one by one, 5 at 16 as 2, 2, 1
    nl, _ = ENGINE_MAPS[case]
    n_theta = 2 if case == "alpha2-complex" else theta_nodes
    u, others = _engine_fields(2, count)
    others[1] = u
    (values,) = remainder_K([u], [others], nl, theta_nodes=theta_nodes,
                            **ENGINE_KW)
    assert values == _rowwise_remainder(u, others, nl, n_theta=n_theta,
                                        **ENGINE_KW)
    assert values[1] == 0.0 < min(values[:1] + values[2:])


def test_remainder_all_slices_checks_its_shape(bump_pair):
    u, v = bump_pair
    with pytest.raises(ValueError, match="2 bases but 1 row sequences"):
        remainder_K([u, v], [[v]], CUBIC, s=0.5, p=2.0, q=2.0, r=6.0)


def test_remainder_builds_each_multiplier_once(multiplier_builds):
    u, others = _engine_fields(2, 3)
    offsets, _ = offsets_kernel(u.grid, 0.5, 2.0, ENGINE_KW["shells"])
    remainder_K([u, u * 0.5], [others, others[:2]], CUBIC, **ENGINE_KW)
    assert multiplier_builds == [tuple(y) for y in offsets]


def _node_counts(monkeypatch, nl, theta_nodes):
    """The Gauss-Legendre node counts remainder_K asks for."""
    asked = []
    real = fracnls.nonlinearity._gauss_unit

    def spy(n):
        asked.append(n)
        return real(n)

    monkeypatch.setattr(fracnls.nonlinearity, "_gauss_unit", spy)
    grid = Grid(1, 32, 16.0)
    u = gaussian(grid, amplitude=1.0, width=2.0)
    remainder_K([u], [[u * 0.5, u * 0.25]], nl, s=0.5, p=2.0, q=2.0, r=6.0,
                theta_nodes=theta_nodes, shells=4)
    return asked


@pytest.mark.parametrize("nl, expected", [
    (CUBIC, 2),
    (PowerNonlinearity(coupling=0.7 - 0.3j, power=4.0), 3),
    (PowerNonlinearity(power=1.0), 16),
    (PowerNonlinearity(power=4.0 / 3.0), 16),
    (PowerNonlinearity(power=3.0), 16),
], ids=["alpha2", "alpha4", "alpha1", "alpha4/3", "alpha3"])
def test_remainder_node_count(monkeypatch, nl, expected):
    assert _node_counts(monkeypatch, nl, 16) == [expected]


def test_remainder_node_count_is_an_upper_bound(monkeypatch):
    quartic = PowerNonlinearity(power=4.0)
    assert _node_counts(monkeypatch, quartic, 2) == [2]
    with pytest.raises(ValueError, match="at least 2"):
        _node_counts(monkeypatch, CUBIC, 1)


def test_remainder_batch_diagonal_row_is_zero(bump_pair):
    u, v = bump_pair
    (values,) = remainder_K([u], [[v, u, v]], CUBIC, s=0.5, p=2.0, q=2.0,
                            r=6.0)
    assert values[1] == 0.0
    assert values[0] == values[2] > 0.0


def test_remainder_batch_checks_grids(bump_pair, plane_grid):
    u, v = bump_pair
    elsewhere = gaussian(plane_grid, amplitude=1.0, width=2.0)
    with pytest.raises(ValueError, match="different grids"):
        remainder_K([u], [[v, elsewhere]], CUBIC, s=0.5, p=2.0, q=2.0,
                    r=6.0)


def test_remainder_validates_exponents(bump_pair):
    u, v = bump_pair
    with pytest.raises(ValueError, match="p < r"):
        remainder_K([u], [[v]], CUBIC, s=0.5, p=2.0, q=2.0, r=2.0)
    with pytest.raises(ValueError, match="0 < s < 1"):
        remainder_K([u], [[v]], CUBIC, s=1.2, p=2.0, q=2.0, r=6.0)
    with pytest.raises(ValueError, match="summability"):
        remainder_K([u], [[v]], CUBIC, s=0.5, p=2.0, q=np.inf, r=6.0)


def test_remainder_self_convergence(bump_pair):
    u, v = bump_pair
    coarse = remainder_K([u], [[v]], CUBIC, s=0.5, p=2.0, q=2.0, r=6.0,
                         theta_nodes=32, shells=32)[0][0]
    fine = remainder_K([u], [[v]], CUBIC, s=0.5, p=2.0, q=2.0, r=6.0,
                       theta_nodes=64, shells=64)[0][0]
    assert abs(coarse - fine) < 0.01 * fine


def test_remainder_decays_along_perturbations(line_grid):
    u = gaussian(line_grid, amplitude=1.0, width=2.0)
    psi = gaussian(line_grid, amplitude=1.0, width=1.5, center=2.0)
    values = []
    for k in range(11):
        v = u + (2.0 ** -k) * psi
        values.append(remainder_K([u], [[v]], CUBIC, s=0.5, p=2.0, q=2.0,
                                  r=6.0, theta_nodes=16, shells=16)[0][0])
    values = np.array(values)
    assert np.all(np.diff(values) < 0.0)
    assert values[-1] < 1e-3 * values[0]


# ----------------------------------------------------------- difference report

def test_difference_exponents_sigma():
    sigma = fracnls.nonlinearity._check_difference_exponents
    assert sigma(0.5, 2.0, 2.0, 6.0, 2.0) == pytest.approx(6.0)
    assert sigma(0.5, 2.0, 2.0, 6.0, 0.5) == pytest.approx(1.5)
    assert sigma(0.5, 2.0, 2.0, np.inf, 1.0) == pytest.approx(2.0)


def test_difference_report_diagonal(bump_pair):
    u, _ = bump_pair
    report = besov_difference_report(u, u, CUBIC, 0.5, 2.0, 2.0, 6.0)
    assert report.lhs == 0.0
    assert report.k_term == 0.0
    assert report.lipschitz_term == 0.0


def test_difference_report_zero_base(bump_pair, line_grid):
    _, v = bump_pair
    zero = Field(line_grid, np.zeros(line_grid.shape, dtype=complex))
    report = besov_difference_report(zero, v, CUBIC, 0.5, 2.0, 2.0, 6.0)
    assert report.k_term == 0.0
    direct = besov_norm_fd(Field(line_grid, CUBIC.g(v.values)), 0.5, 2.0,
                           2.0)
    assert report.lhs == pytest.approx(direct, rel=1e-12)
    assert report.sigma == pytest.approx(6.0)
    # with no base field the refined form collapses onto the Lipschitz term
    assert report.refined_term == pytest.approx(report.lipschitz_term)


def test_difference_report_lipschitz_ratio_bounded(line_grid):
    # power >= 1: lhs / ||v - u|| at (s, r, q) must not blow up as v -> u
    u = gaussian(line_grid, amplitude=1.0, width=2.0)
    psi = gaussian(line_grid, amplitude=1.0, width=1.5, center=2.0)
    shells = 16
    ratios = []
    for k in range(8):
        v = u + (2.0 ** -k) * psi
        report = besov_difference_report(u, v, CUBIC, 0.5, 2.0, 2.0, 6.0,
                                         theta_nodes=16, shells=shells)
        gap = besov_norm_fd(v - u, 0.5, 6.0, 2.0, shells)
        ratios.append(report.lhs / gap)
    first = max(ratios[:4])
    second = max(ratios[4:])
    assert second <= 1.25 * first


def _report_from_single_calls(u, v, nl, s, p, q, r, theta_nodes, shells):
    """besov_difference_report as it was written: each norm by its own
    single-field call, each with its own offset loop."""
    sigma = fracnls.nonlinearity._check_difference_exponents(s, p, q, r,
                                                             nl.power)
    smooth_r = partial(besov_norm_fd, s=s, p=r, q=q, shells=shells)
    image_gap = Field(v.grid, nl.g(v.values)) - Field(u.grid, nl.g(u.values))
    lhs = besov_norm_fd(image_gap, s, p, q, shells)
    v_sigma = lebesgue_norm(v, sigma)
    lipschitz = v_sigma ** nl.power * smooth_r(v - u)
    k_term = remainder_K([u], [[v]], nl, s, p, q, r,
                         theta_nodes=theta_nodes, shells=shells)[0][0]
    u_smooth = smooth_r(u)
    gap_sigma = lebesgue_norm(v - u, sigma)
    if nl.power <= 1.0:
        extra = u_smooth * gap_sigma ** nl.power
    else:
        u_sigma = lebesgue_norm(u, sigma)
        extra = u_smooth * (u_sigma ** (nl.power - 1.0)
                            + v_sigma ** (nl.power - 1.0)) * gap_sigma
    return (lhs, lipschitz, k_term, sigma, lipschitz + extra)


@pytest.mark.parametrize("nl", [CUBIC, PowerNonlinearity(0.7 - 0.3j, 0.5)],
                         ids=["cubic", "alpha0.5"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_difference_report_is_its_single_calls(dim, nl):
    u, (v,) = _engine_fields(dim, 1)
    report = besov_difference_report(u, v, nl, theta_nodes=8, **ENGINE_KW)
    assert (report.lhs, report.lipschitz_term, report.k_term, report.sigma,
            report.refined_term) == _report_from_single_calls(
                u, v, nl, theta_nodes=8, **ENGINE_KW)


def test_difference_report_builds_each_multiplier_once(multiplier_builds):
    u, (v,) = _engine_fields(2, 1)
    shells = ENGINE_KW["shells"]
    offsets, _ = offsets_kernel(u.grid, 0.5, 2.0, shells)
    besov_difference_report(u, v, CUBIC, 0.5, 2.0, 2.0, 6.0, shells=shells)
    assert multiplier_builds == [tuple(y) for y in offsets]
