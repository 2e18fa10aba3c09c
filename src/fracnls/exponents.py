"""Exponent bookkeeping for fractional-regularity wellposedness.

Given a dimension N, a regularity order s and a nonlinearity power alpha,
this module validates the standing hypotheses and derives every Lebesgue
exponent the solver and the experiments need: the canonical admissible
space-time pair (gamma, rho), the companion integrability sigma, the
fractional-gain exponent nu(r), and the endpoint pair (q0, r0) that
replaces the canonical one at the maximal power.

All derivations run in exact rational arithmetic on the binary values of
the inputs (fractions.Fraction of a float is exact), so the defining
identities hold to well below 1e-12 in the returned floats.  A power
within a few ulps of 4/(N - 2s) is snapped to the exact maximal power,
so criticality detection survives floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Number = Union[int, float, Fraction]


class HypothesisViolation(ValueError):
    """A standing hypothesis fails; `hypothesis` names which one."""

    def __init__(self, hypothesis: str, message: str):
        super().__init__(message)
        self.hypothesis = hypothesis


def _frac(x: Number) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(float(x))  # exact binary expansion


@dataclass(frozen=True)
class ProblemParams:
    """Model parameters.

    dimension, regularity, power: N, s, alpha.
    coupling: scalar factor of the power nonlinearity (may be complex).
    growth_const, growth_coeff: the constants A, B in the derivative
    envelope |g'(u)| <= A + B |u|^power.  A pure power nonlinearity has
    growth_const = 0.
    """

    dimension: int
    regularity: float
    power: float
    coupling: complex = 1.0
    growth_const: float = 0.0
    growth_coeff: float = 1.0

    def to_dict(self) -> dict:
        coupling = complex(self.coupling)
        return {"dimension": self.dimension,
                "regularity": float(self.regularity),
                "power": float(self.power),
                "coupling": [coupling.real, coupling.imag],
                "growth_const": self.growth_const,
                "growth_coeff": self.growth_coeff}


@dataclass(frozen=True)
class ExponentSet:
    """Derived exponents; q0 and r0 are present only at the critical power."""

    gamma: float
    rho: float
    sigma: float
    criticality: str  # "subcritical" | "critical"
    q0: Optional[float] = None
    r0: Optional[float] = None

    def to_dict(self) -> dict:
        return {"gamma": self.gamma, "rho": self.rho, "sigma": self.sigma,
                "criticality": self.criticality, "q0": self.q0, "r0": self.r0}


def max_power(dimension: int, regularity: Number) -> Fraction:
    """Largest admissible nonlinearity power, 4/(N - 2s)."""
    return 4 / (dimension - 2 * _frac(regularity))


# snap window for endpoint detection: a handful of double-precision ulps,
# so a power computed as 4/(N - 2s) in floats lands on the exact endpoint
# no matter how the intermediate roundings fall
_ENDPOINT_RTOL = Fraction(1, 2**48)


def _exact_power(n: int, s: Fraction, power: Number) -> Fraction:
    """Exact binary value of the power, snapped to the maximal power when
    within a few ulps of it."""
    a = _frac(power)
    a_top = max_power(n, s)
    if a != a_top and abs(a / a_top - 1) <= _ENDPOINT_RTOL:
        return a_top
    return a


def validate(params: ProblemParams) -> str:
    """Check the standing hypotheses; return the criticality class.

    Raises HypothesisViolation naming the violated hypothesis:
    dimension, regularity_range, growth_envelope, power_range, or
    critical_constant_term.
    """
    n = params.dimension
    if n not in (1, 2, 3):
        raise HypothesisViolation(
            "dimension", f"dimension must be 1, 2 or 3, got {n}")
    s = _frac(params.regularity)
    s_top = min(Fraction(1), Fraction(n, 2))
    if not 0 < s < s_top:
        raise HypothesisViolation(
            "regularity_range",
            f"regularity must lie in (0, min(1, N/2)) = (0, {s_top}), "
            f"got {params.regularity}")
    if params.growth_const < 0 or params.growth_coeff < 0:
        raise HypothesisViolation(
            "growth_envelope",
            "derivative envelope constants must be nonnegative, got "
            f"A = {params.growth_const}, B = {params.growth_coeff}")
    a = _exact_power(n, s, params.power)
    a_top = max_power(n, s)
    if not 0 < a <= a_top:
        raise HypothesisViolation(
            "power_range",
            f"power must lie in (0, 4/(N - 2s)] = (0, {float(a_top)!r}], "
            f"got {params.power}")
    if a == a_top:
        if params.growth_const != 0:
            raise HypothesisViolation(
                "critical_constant_term",
                "at the maximal power the derivative envelope must vanish "
                f"at zero (A = 0), got A = {params.growth_const}")
        return "critical"
    return "subcritical"


def canonical_pair(params: ProblemParams) -> tuple[float, float]:
    """The admissible space-time pair (gamma, rho) adapted to the power:

        rho   = N (alpha+2) / (N + s alpha),
        gamma = 4 (alpha+2) / (alpha (N - 2s)).
    """
    n = params.dimension
    s = _frac(params.regularity)
    g, r = _canonical_pair_exact(n, s, _exact_power(n, s, params.power))
    return float(g), float(r)


def _canonical_pair_exact(n: int, s: Fraction,
                          a: Fraction) -> tuple[Fraction, Fraction]:
    rho = n * (a + 2) / (n + s * a)
    gamma = 4 * (a + 2) / (a * (n - 2 * s))
    return gamma, rho


def sigma(params: ProblemParams) -> float:
    """Companion integrability N (alpha+2) / (N - 2s); always above rho,
    and equal to nu(rho)."""
    n = params.dimension
    s = _frac(params.regularity)
    return float(_sigma_exact(n, s, _exact_power(n, s, params.power)))


def _sigma_exact(n: int, s: Fraction, a: Fraction) -> Fraction:
    return n * (a + 2) / (n - 2 * s)


def nu(r: Number, dimension: int, regularity: Number) -> float:
    """Gain of integrability from s derivatives: 1/nu = 1/r - s/N.

    Defined and strictly above r for 2 <= r < N/s; nu(rho) = sigma.
    """
    rf = _frac(r)
    s = _frac(regularity)
    if not 2 <= rf < dimension / s:
        raise ValueError(
            f"gain exponent needs 2 <= r < N/s = {dimension / s}, got {r}")
    return float(1 / (1 / rf - s / dimension))


def critical_pair(params: ProblemParams) -> tuple[float, float]:
    """Endpoint space-time pair taking over at the maximal power:

        q0 = 2 alpha (alpha+2) / (4 - (N-2) alpha),
        r0 = N (alpha+2) / (N + s (alpha+2)).

    The pair is admissible and satisfies nu(r0) = alpha + 2.  Only the
    maximal power defines it; subcritical parameters are rejected.
    """
    if validate(params) != "critical":
        raise ValueError(
            "endpoint pair is defined only at the maximal power "
            f"4/(N - 2s), got power {params.power}")
    n = params.dimension
    s = _frac(params.regularity)
    a = max_power(n, s)
    q0 = 2 * a * (a + 2) / (4 - (n - 2) * a)
    r0 = n * (a + 2) / (n + s * (a + 2))
    return float(q0), float(r0)


def dual(e: Number) -> float:
    """Conjugate exponent: 1/e + 1/e' = 1, with dual(1) = inf."""
    if isinstance(e, float) and math.isinf(e):
        return 1.0
    ef = _frac(e)
    if ef < 1:
        raise ValueError(f"conjugation needs e >= 1, got {e}")
    if ef == 1:
        return math.inf
    return float(ef / (ef - 1))


def is_admissible(q: Number, r: Number, dimension: int,
                  tol: float = 1e-12) -> bool:
    """Whether (q, r) is an admissible space-time pair:

        2/q = N (1/2 - 1/r),  2 <= r < 2N/(N-2)  (r < inf when N <= 2).
    """
    n = dimension
    qf = float(q)
    rf = float(r)
    if not qf > 0 or not rf > 0:
        return False
    if rf < 2:
        return False
    if n >= 3:
        if not rf < 2 * n / (n - 2):
            return False
    elif math.isinf(rf):
        return False
    lhs = 0.0 if math.isinf(qf) else 2.0 / qf
    rhs = n * (0.5 - 1.0 / rf)
    return abs(lhs - rhs) <= tol


def derive(params: ProblemParams) -> ExponentSet:
    """Validate and produce the full exponent set for the parameters."""
    criticality = validate(params)
    n = params.dimension
    s = _frac(params.regularity)
    a = _exact_power(n, s, params.power)
    gamma, rho = _canonical_pair_exact(n, s, a)
    sig = _sigma_exact(n, s, a)
    q0 = r0 = None
    if criticality == "critical":
        q0, r0 = critical_pair(params)
    return ExponentSet(gamma=float(gamma), rho=float(rho), sigma=float(sig),
                       criticality=criticality, q0=q0, r0=r0)
