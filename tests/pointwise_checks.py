"""Scalar views of the nonlinearity used by the tests: the derivative
pair at one point and its magnitude, the segment-integral identity behind
the remainder functional, and both pointwise power inequalities at one
pair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fracnls.nonlinearity import (PowerNonlinearity, _gauss_unit,
                                  _pointwise_sides)


def wirtinger(z: complex, nl: PowerNonlinearity) -> tuple[complex, complex]:
    """Derivative pair (dz g, dzbar g) at one point."""
    arr = np.asarray(z, dtype=complex).reshape(-1)
    return complex(nl.dz(arr)[0]), complex(nl.dzbar(arr)[0])


def derivative_envelope(nl: PowerNonlinearity, values) -> np.ndarray:
    """|dz g| + |dzbar g| pointwise: the derivative magnitude |g'|."""
    return np.abs(nl.dz(values)) + np.abs(nl.dzbar(values))


def difference_identity_residual(z1: complex, z2: complex,
                                 nl: PowerNonlinearity,
                                 n_theta: int = 64) -> float:
    """Residual of the segment-integral reconstruction of g(z1) - g(z2):

        g(z1) - g(z2) = (z1-z2) int_0^1 dz g(z2 + t(z1-z2)) dt
                      + conj(z1-z2) int_0^1 dzbar g(z2 + t(z1-z2)) dt,

    with the integrals evaluated by Gauss-Legendre quadrature.  The
    residual decays at the quadrature's rate when the segment stays away
    from the origin (where fractional powers lose smoothness)."""
    nodes, weights = _gauss_unit(n_theta)
    gap = complex(z1) - complex(z2)
    path = complex(z2) + nodes * gap
    rhs = gap * np.sum(weights * nl.dz(path)) \
        + np.conj(gap) * np.sum(weights * nl.dzbar(path))
    lhs = complex(nl.g(np.asarray(z1, dtype=complex).reshape(-1))[0]) \
        - complex(nl.g(np.asarray(z2, dtype=complex).reshape(-1))[0])
    return abs(lhs - rhs)


@dataclass(frozen=True)
class PointwiseReport:
    """Both pointwise inequalities evaluated at one pair."""

    modulus_lhs: float
    modulus_bound: float
    phase_lhs: float
    phase_bound: float

    @property
    def satisfied(self) -> bool:
        slack = 1.0 + 1e-12  # equality cases up to roundoff
        return (self.modulus_lhs <= self.modulus_bound * slack
                and self.phase_lhs <= self.phase_bound * slack)


def check_pointwise_power(z1: complex, z2: complex,
                          alpha: float) -> PointwiseReport:
    """Evaluate the two pointwise power inequalities at a pair of points."""
    if not alpha > 0:
        raise ValueError(f"power must be positive, got {alpha}")
    ml, mb, pl, pb = _pointwise_sides(z1, z2, alpha)
    return PointwiseReport(modulus_lhs=float(ml), modulus_bound=float(mb),
                           phase_lhs=float(pl), phase_bound=float(pb))
