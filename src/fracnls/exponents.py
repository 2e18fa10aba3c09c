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
from dataclasses import asdict, dataclass
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
    """

    dimension: int
    regularity: float
    power: float
    coupling: complex = 1.0


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
        return asdict(self)


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
    dimension, regularity_range or power_range; an infinite or NaN
    regularity or power lies outside its range.
    """
    n = params.dimension
    if n not in (1, 2, 3):
        raise HypothesisViolation(
            "dimension", f"dimension must be 1, 2 or 3, got {n}")
    s_top = min(Fraction(1), Fraction(n, 2))
    if not (math.isfinite(params.regularity)
            and 0 < (s := _frac(params.regularity)) < s_top):
        raise HypothesisViolation(
            "regularity_range",
            f"regularity must lie in (0, min(1, N/2)) = (0, {s_top}), "
            f"got {params.regularity}")
    a_top = max_power(n, s)
    if not (math.isfinite(params.power)
            and 0 < (a := _exact_power(n, s, params.power)) <= a_top):
        raise HypothesisViolation(
            "power_range",
            f"power must lie in (0, 4/(N - 2s)] = (0, {float(a_top)!r}], "
            f"got {params.power}")
    return "critical" if a == a_top else "subcritical"


def canonical_pair(params: ProblemParams) -> tuple[float, float]:
    """The admissible space-time pair (gamma, rho) adapted to the power:

        rho   = N (alpha+2) / (N + s alpha),
        gamma = 4 (alpha+2) / (alpha (N - 2s)).

    A subnormal power puts gamma past the float range; its pair is the
    limit (inf, 2) of the pairs as alpha -> 0.
    """
    n = params.dimension
    s = _frac(params.regularity)
    a = _exact_power(n, s, params.power)
    rho = float(n * (a + 2) / (n + s * a))
    try:
        return float(4 * (a + 2) / (a * (n - 2 * s))), rho
    except OverflowError:
        return math.inf, rho


def sigma(params: ProblemParams) -> float:
    """Companion integrability N (alpha+2) / (N - 2s); always above rho.
    It is nu(rho) for the exact rho, but where s is within ulps of N/2 at
    the maximal power the float rho can reach N/s, outside nu's domain."""
    n = params.dimension
    s = _frac(params.regularity)
    a = _exact_power(n, s, params.power)
    return float(n * (a + 2) / (n - 2 * s))


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
    gamma, rho = canonical_pair(params)
    q0 = r0 = None
    if criticality == "critical":
        q0, r0 = critical_pair(params)
    return ExponentSet(gamma=gamma, rho=rho, sigma=sigma(params),
                       criticality=criticality, q0=q0, r0=r0)
