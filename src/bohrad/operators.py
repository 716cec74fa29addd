"""Beta-Cesaro, alpha-Cesaro and Bernardi integral operators.

Each operator is available in two independent forms — a coefficient transform
and a quadrature of its integral representation — which the test suite plays
against each other.  Both live on the operator's class in
:mod:`bohrad.weights`, an :class:`~bohrad.weights.OperatorFamily`: an operator
and the weight family its majorant induces carry exactly the same data.  This
module holds the public entry points.

Sup-norm bounds over the unit-bounded class coincide with phi_0 of the induced
family (attained by f identically 1, and by z^m for the Bernardi operator).
"""

from __future__ import annotations

from typing import Callable

from . import weights
from ._kernels import gamma_ratio_sequence, pochhammer_sequence
from .radius import DEFAULT_TOL, RadiusQuery, RadiusResult, minimal_root
from .series import CoefficientSeries, DomainParams
from .weights import OperatorFamily

OperatorSpec = OperatorFamily

CROSS_CHECK_TOL = 1e-9
QUADRATURE_NODES = 64  # first Gauss rule of the integral form; doubled up to 4 times


def gamma_ratio(j: int, beta: float) -> float:
    """Gamma(j+beta) / (Gamma(j+1) Gamma(beta)): the last entry of gamma_ratio_sequence."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if not beta > 0:
        raise ValueError("beta must be > 0")
    return float(gamma_ratio_sequence(j, beta)[-1])


def pochhammer_ratio(k: int, alpha: float) -> float:
    """A_k = (alpha+1)_k / k!: the last entry of pochhammer_sequence."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not alpha > -1:
        raise ValueError("alpha must be > -1")
    return float(pochhammer_sequence(k, alpha)[-1])


def apply_coefficient_form(spec: OperatorSpec, series: CoefficientSeries) -> CoefficientSeries:
    """Transform Taylor coefficients; the truncation order is preserved."""
    return CoefficientSeries(spec.transform(series.coefficients))


def apply_integral_form(spec: OperatorSpec, f: Callable, z: complex) -> complex:
    """Evaluate the operator at z through its integral representation.

    Node counts double until two successive estimates agree to near machine
    precision (Gauss rules converge geometrically for these integrands).
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("|z| must be < 1")
    n = QUADRATURE_NODES
    prev = spec.quadrature(f, z, n)
    for _ in range(4):
        n *= 2
        cur = spec.quadrature(f, z, n)
        if abs(cur - prev) <= max(1e-13, 1e-13 * abs(cur)):
            return cur
        prev = cur
    return prev


def operator_bound(spec: OperatorSpec, r: float) -> float:
    """Sharp sup-norm bound over the unit-bounded class at |z| = r.

    Beta-Cesaro:  (1/r) [1 - (1-r)^(1-beta)] / (1-beta), the log form at beta = 1
    Alpha-Cesaro: (alpha+1) sum_n r^n / (n+alpha+1), from the Lerch kernel
                  (direct series, or the connection series near r = 1)
    Bernardi:     r^m / (m+delta)
    All three equal phi_0 of the induced weight family.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("r must be in (0, 1)")
    return float(weights.phi0(spec, r))


def operator_bohr_radius(
    spec: OperatorSpec, domain: DomainParams, tol: float = DEFAULT_TOL, p: float = 1.0
) -> RadiusResult:
    """Bohr-type radius of the operator: the sharp radius of its weight family.

    p defaults to 1, matching the first power of |a_0| in the operator
    majorants; other p values are accepted but extrapolate beyond the
    supporting theory, and skip the printed-equation cross-check.
    """
    result = minimal_root(RadiusQuery(spec, domain, p), tol=tol)
    if p == 1.0:
        resid = spec.radius_equation(domain.gamma, result.radius)
        if abs(resid) > CROSS_CHECK_TOL:
            raise RuntimeError(
                f"operator radius cross-check failed: printed-equation residual {resid:.3e}"
            )
    return result
