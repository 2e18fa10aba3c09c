from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from fracnls.exponents import (
    HypothesisViolation,
    ProblemParams,
    canonical_pair,
    critical_pair,
    derive,
    dual,
    is_admissible,
    max_power,
    nu,
    sigma,
    validate,
)


def _random_valid_tuple(rng, force_critical=False):
    """Exact-rational (N, s, alpha) satisfying the standing hypotheses."""
    n = int(rng.integers(1, 4))
    s_top = min(Fraction(1), Fraction(n, 2))
    s = s_top * Fraction(int(rng.integers(1, 100)), 100)
    a_top = max_power(n, s)
    if force_critical:
        a = a_top
    else:
        a = a_top * Fraction(int(rng.integers(1, 100)), 100)
    return n, s, a


# --------------------------------------------------------------- validation

def test_validate_subcritical_and_critical():
    assert validate(ProblemParams(2, 0.5, 2.0)) == "subcritical"
    # N=3, s=1/2: maximal power 4/(3-1) = 2 exactly
    assert validate(ProblemParams(3, 0.5, 2.0, growth_const=0.0)) == "critical"


def test_validate_rejects_bad_dimension():
    with pytest.raises(HypothesisViolation) as err:
        validate(ProblemParams(4, 0.5, 1.0))
    assert err.value.hypothesis == "dimension"


@pytest.mark.parametrize("n,s", [(1, 0.6), (2, 1.0), (3, 1.3), (1, 0.0),
                                 (2, -0.1), (1, 0.5)])
def test_validate_rejects_regularity(n, s):
    with pytest.raises(HypothesisViolation) as err:
        validate(ProblemParams(n, s, 1.0))
    assert err.value.hypothesis == "regularity_range"


def test_validate_rejects_power_out_of_range():
    # N=2, s=1/2: maximal power 4/(2-1) = 4
    with pytest.raises(HypothesisViolation) as err:
        validate(ProblemParams(2, 0.5, 4.5))
    assert err.value.hypothesis == "power_range"
    with pytest.raises(HypothesisViolation):
        validate(ProblemParams(2, 0.5, 0.0))


def test_validate_rejects_negative_growth_constants():
    with pytest.raises(HypothesisViolation) as err:
        validate(ProblemParams(2, 0.5, 2.0, growth_const=-1.0))
    assert err.value.hypothesis == "growth_envelope"


def test_validate_critical_needs_vanishing_constant_term():
    with pytest.raises(HypothesisViolation) as err:
        validate(ProblemParams(3, 0.5, 2.0, growth_const=0.5))
    assert err.value.hypothesis == "critical_constant_term"


def test_validate_snaps_float_rounded_maximal_power():
    # a power computed in floats must classify as critical even when its
    # binary value lands a hair past the exact endpoint
    n, s = 3, 0.3
    a = 4.0 / (n - 2.0 * s)
    assert validate(ProblemParams(n, s, a)) == "critical"
    exps = derive(ProblemParams(n, s, a))
    assert exps.q0 is not None
    assert np.isclose(exps.gamma, a + 2.0, rtol=1e-13)


# ------------------------------------------------------------- worked values

def test_canonical_pair_worked_example_subcritical():
    # N=2, s=1/2, alpha=2: rho = 2*4/(2+1) = 8/3, gamma = 4*4/(2*1) = 8
    gamma, rho = canonical_pair(ProblemParams(2, 0.5, 2.0))
    assert np.isclose(rho, 8.0 / 3.0, rtol=1e-15)
    assert np.isclose(gamma, 8.0, rtol=1e-15)
    assert is_admissible(gamma, rho, 2)


def test_canonical_pair_critical_gamma_is_power_plus_two():
    gamma, rho = canonical_pair(ProblemParams(3, 0.5, 2.0))
    assert np.isclose(gamma, 4.0, rtol=1e-15)  # alpha + 2
    assert np.isclose(rho, 3.0, rtol=1e-15)


def test_sigma_worked_examples():
    assert np.isclose(sigma(ProblemParams(2, 0.5, 2.0)), 8.0, rtol=1e-15)
    assert np.isclose(sigma(ProblemParams(3, 0.5, 2.0)), 6.0, rtol=1e-15)
    assert np.isclose(sigma(ProblemParams(1, 0.4, 2.0)), 20.0, rtol=1e-15)


def test_nu_worked_examples():
    assert np.isclose(nu(2.0, 2, 0.5), 4.0, rtol=1e-15)
    assert np.isclose(nu(3.0, 3, 0.5), 6.0, rtol=1e-15)  # critical rho
    with pytest.raises(ValueError):
        nu(1.5, 2, 0.5)
    with pytest.raises(ValueError):
        nu(4.0, 2, 0.5)  # N/s = 4 excluded


def test_nu_monotone_and_blows_up_at_right_edge():
    edge = 3 / 0.5  # N/s
    grid = np.linspace(2.0, edge - 1e-9, 200)
    values = np.array([nu(r, 3, 0.5) for r in grid])
    assert np.all(np.diff(values) > 0)
    assert np.all(values > grid)  # strict gain
    assert values[-1] > 1e9


def test_critical_pair_worked_examples():
    q0, r0 = critical_pair(ProblemParams(3, 0.5, 2.0))
    assert np.isclose(q0, 8.0, rtol=1e-15)
    assert np.isclose(r0, 2.4, rtol=1e-15)
    assert np.isclose(nu(r0, 3, 0.5), 4.0, rtol=1e-15)  # alpha + 2
    assert is_admissible(q0, r0, 3)
    q0, r0 = critical_pair(ProblemParams(2, 0.5, 4.0))
    assert np.isclose(q0, 12.0, rtol=1e-15)
    assert np.isclose(r0, 2.4, rtol=1e-15)
    assert np.isclose(nu(r0, 2, 0.5), 6.0, rtol=1e-15)
    assert is_admissible(q0, r0, 2)


def test_critical_pair_rejects_subcritical():
    with pytest.raises(ValueError, match="maximal power"):
        critical_pair(ProblemParams(2, 0.5, 2.0))


def test_dual_values_and_involution():
    assert dual(2.0) == 2.0
    assert np.isclose(dual(8.0 / 3.0), 8.0 / 5.0, rtol=1e-15)
    assert dual(1.0) == math.inf
    assert dual(math.inf) == 1.0
    for e in (1.5, 2.0, 3.7, 10.0):
        assert np.isclose(dual(dual(e)), e, rtol=1e-12)
    with pytest.raises(ValueError):
        dual(0.5)


def test_is_admissible_edges():
    assert is_admissible(math.inf, 2.0, 1)
    assert is_admissible(math.inf, 2.0, 2)
    assert is_admissible(math.inf, 2.0, 3)
    assert is_admissible(8.0, 8.0 / 3.0, 2)
    assert not is_admissible(2.0, 6.0, 3)        # endpoint excluded
    assert not is_admissible(8.0, 1.5, 2)        # r below 2
    assert not is_admissible(4.0, math.inf, 1)   # r must stay finite
    assert not is_admissible(math.inf, math.inf, 2)
    assert not is_admissible(7.9, 8.0 / 3.0, 2)  # identity violated


def test_derive_bundles_everything():
    exps = derive(ProblemParams(3, 0.5, 2.0))
    assert exps.criticality == "critical"
    assert exps.q0 is not None and exps.r0 is not None
    sub = derive(ProblemParams(2, 0.5, 2.0))
    assert sub.criticality == "subcritical"
    assert sub.q0 is None and sub.r0 is None
    d = sub.to_dict()
    assert set(d) == {"gamma", "rho", "sigma", "criticality", "q0", "r0"}


# ------------------------------------------------------------- random sweeps

def test_identities_on_random_tuples():
    rng = np.random.default_rng(11)
    for _ in range(400):
        critical = bool(rng.integers(0, 2))
        n, s, a = _random_valid_tuple(rng, force_critical=critical)
        params = ProblemParams(n, float(s), float(a))
        assert validate(params) == ("critical" if critical else "subcritical")
        gamma, rho = canonical_pair(params)
        # defining identity of admissibility
        assert abs(2.0 / gamma - n * (0.5 - 1.0 / rho)) < 1e-12
        assert is_admissible(gamma, rho, n)
        sig = sigma(params)
        assert sig > rho
        # s derivatives upgrade rho to exactly sigma
        assert abs(nu(rho, n, float(s)) - sig) < 1e-12 * sig
        # conjugate split used by the difference estimates:
        # alpha/sigma = 1/rho' - 1/rho
        assert abs(float(a) / sig - (1.0 / dual(rho) - 1.0 / rho)) < 1e-12
        if critical:
            assert np.isclose(gamma, float(a) + 2.0, rtol=1e-13)
            q0, r0 = critical_pair(params)
            assert is_admissible(q0, r0, n)
            assert r0 < n / float(s)
            assert abs(nu(r0, n, float(s)) - (float(a) + 2.0)) < 1e-12
        else:
            with pytest.raises(ValueError):
                critical_pair(params)


def test_rho_range_inside_admissible_window():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n, s, a = _random_valid_tuple(rng)
        _, rho = canonical_pair(ProblemParams(n, float(s), float(a)))
        assert 2.0 <= rho
        if n == 3:
            assert rho < 6.0
