"""Beta-Cesaro, alpha-Cesaro and Bernardi integral operators.

Each operator acts on Taylor coefficients: its coefficient transform lives
on the operator's class in :mod:`bohrad.weights`, an
:class:`~bohrad.weights.OperatorFamily`, because an operator and the weight
family its majorant induces carry exactly the same data.  The two Cesaro
operators are one Euler-integral operator (DLMF 15.6.1),
(c-1) int_0^1 f(tz) (1-t)^(c-2) (1-tz)^(-a) dt with (a, c) = (beta, 2) or
(alpha+1, alpha+2), so the transform is shared by the two.  The Bernardi
operator is int_0^1 f(tz) t^(delta-1) dt.  The test suite checks each
transform against a high-precision quadrature of the integral, and each
radius against the printed radius equation.  This module holds the public
entry points.

Sup-norm bounds over the unit-bounded class coincide with phi_0 of the induced
family (attained by f identically 1, and by z^m for the Bernardi operator).
"""

from __future__ import annotations

from . import weights
from .radius import DEFAULT_TOL, RadiusQuery, RadiusResult, minimal_root
from .series import CoefficientSeries, DomainParams
from .weights import OperatorFamily


def apply_coefficient_form(spec: OperatorFamily, series: CoefficientSeries) -> CoefficientSeries:
    """Transform Taylor coefficients; the truncation order is preserved."""
    return CoefficientSeries(spec.transform(series.coefficients))


def operator_bound(spec: OperatorFamily, r: float) -> float:
    """Sharp sup-norm bound over the unit-bounded class at |z| = r: phi_0 of
    the induced weight family, whose closed form is the phi0 method of
    spec's class in weights."""
    if not (0.0 < r < 1.0):
        raise ValueError("r must be in (0, 1)")
    return float(weights.phi0(spec, r))


def operator_bohr_radius(
    spec: OperatorFamily, domain: DomainParams, tol: float = DEFAULT_TOL, p: float = 1.0
) -> RadiusResult:
    """Bohr-type radius of the operator: the sharp radius of its weight family.

    p defaults to 1, matching the first power of |a_0| in the operator
    majorants; other p values are accepted but extrapolate beyond the
    supporting theory.
    """
    return minimal_root(RadiusQuery(spec, domain, p), tol=tol)
