"""Beta-Cesaro, alpha-Cesaro and Bernardi integral operators.

Each operator is available in two independent forms — a coefficient transform
and a quadrature of its integral representation — which the test suite plays
against each other.  The parameter dataclasses are shared with the weight
families in :mod:`bohrad.weights`: an operator and the weight family its
majorant induces carry exactly the same data.

Sup-norm bounds over the unit-bounded class coincide with phi_0 of the induced
family (attained by f identically 1, and by z^m for the Bernardi operator).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Union

import numpy as np

from . import weights
from .radius import DEFAULT_TOL, RadiusQuery, RadiusResult, minimal_root
from .series import CoefficientSeries, DomainParams
from .weights import AlphaCesaro, Bernardi, BetaCesaro

OperatorSpec = Union[BetaCesaro, AlphaCesaro, Bernardi]

CROSS_CHECK_TOL = 1e-9
QUADRATURE_NODES = 64  # first Gauss rule of the integral form; doubled up to 4 times


def gamma_ratio(j: int, beta: float) -> float:
    """Gamma(j+beta) / (Gamma(j+1) Gamma(beta)) by recurrence (no Gamma calls)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if not beta > 0:
        raise ValueError("beta must be > 0")
    c = 1.0
    for i in range(1, j + 1):
        c *= (i - 1.0 + beta) / i
    return c


def gamma_ratio_sequence(n: int, beta: float) -> np.ndarray:
    """[gamma_ratio(0, beta), ..., gamma_ratio(n, beta)]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.empty(n + 1)
    out[0] = 1.0
    for j in range(1, n + 1):
        out[j] = out[j - 1] * (j - 1.0 + beta) / j
    return out


def pochhammer_ratio(k: int, alpha: float) -> float:
    """A_k = (alpha+1)_k / k! by recurrence."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not alpha > -1:
        raise ValueError("alpha must be > -1")
    a = 1.0
    for i in range(1, k + 1):
        a *= (alpha + i) / i
    return a


def pochhammer_sequence(n: int, alpha: float) -> np.ndarray:
    """[A_0, ..., A_n] with A_k = (alpha+1)_k / k!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.empty(n + 1)
    out[0] = 1.0
    for k in range(1, n + 1):
        out[k] = out[k - 1] * (alpha + k) / k
    return out


def apply_coefficient_form(spec: OperatorSpec, series: CoefficientSeries) -> CoefficientSeries:
    """Transform Taylor coefficients; the truncation order is preserved.

    Beta-Cesaro:  b_n = (1/(n+1)) sum_k gamma_ratio(n-k, beta) a_k
    Alpha-Cesaro: b_n = (1/A_n^{alpha+1}) sum_k A_{n-k}^{alpha} a_k
    Bernardi:     b_n = a_n / (n + delta), requiring a_k = 0 for k < m
    """
    a = series.coefficients
    n = series.order
    if isinstance(spec, BetaCesaro):
        g = gamma_ratio_sequence(n, spec.beta)
        b = np.convolve(a, g)[: n + 1] / np.arange(1, n + 2)
        return CoefficientSeries(b)
    if isinstance(spec, AlphaCesaro):
        w = pochhammer_sequence(n, spec.alpha)
        d = pochhammer_sequence(n, spec.alpha + 1.0)
        b = np.convolve(a, w)[: n + 1] / d
        return CoefficientSeries(b)
    if isinstance(spec, Bernardi):
        if np.any(a[: spec.m] != 0):
            raise ValueError(
                f"Bernardi operator requires coefficients below index m={spec.m} to be zero"
            )
        b = np.zeros_like(a)
        idx = np.arange(spec.m, n + 1)
        b[spec.m :] = a[spec.m :] / (idx + spec.delta)
        return CoefficientSeries(b)
    raise TypeError(f"unknown operator spec: {spec!r}")


@lru_cache(maxsize=256)
def _rule(kind: str, n: int, param: float):
    """Quadrature nodes/weights on [0, 1], singular factor folded into the rule."""
    # imported here: scipy.special costs about 0.3 s and only the integral
    # form needs it
    from scipy.special import roots_jacobi, roots_legendre

    if kind == "legendre":
        x, w = roots_legendre(n)
        return 0.5 * (x + 1.0), 0.5 * w
    if kind == "jacobi-right":  # weight (1-t)^param on [0, 1]
        x, w = roots_jacobi(n, param, 0.0)
        return 0.5 * (x + 1.0), w * 2.0 ** (-param - 1.0)
    if kind == "jacobi-left":  # weight t^param on [0, 1]
        x, w = roots_jacobi(n, 0.0, param)
        return 0.5 * (x + 1.0), w * 2.0 ** (-param - 1.0)
    raise ValueError(kind)


def _quad_once(spec: OperatorSpec, f: Callable, z: complex, n: int) -> complex:
    if isinstance(spec, BetaCesaro):
        t, w = _rule("legendre", n, 0.0)
        vals = np.array([f(ti * z) for ti in t], dtype=np.complex128)
        return complex(np.sum(w * vals / (1.0 - t * z) ** spec.beta))
    if isinstance(spec, AlphaCesaro):
        # endpoint factor (1-t)^alpha is integrable for alpha > -1; it lives
        # in the Gauss-Jacobi weight, so nodes never touch the singularity
        t, w = _rule("jacobi-right", n, spec.alpha)
        vals = np.array([f(ti * z) for ti in t], dtype=np.complex128)
        return complex((spec.alpha + 1.0) * np.sum(w * vals / (1.0 - t * z) ** (spec.alpha + 1.0)))
    if isinstance(spec, Bernardi):
        # f vanishes to order m at 0, so fold t^(m+delta-1) into the weight
        # and integrate the smooth part f(tz)/t^m
        t, w = _rule("jacobi-left", n, spec.m + spec.delta - 1.0)
        vals = np.array([f(ti * z) for ti in t], dtype=np.complex128)
        return complex(np.sum(w * vals / t ** spec.m))
    raise TypeError(f"unknown operator spec: {spec!r}")


def apply_integral_form(spec: OperatorSpec, f: Callable, z: complex) -> complex:
    """Evaluate the operator at z through its integral representation.

    Node counts double until two successive estimates agree to near machine
    precision (Gauss rules converge geometrically for these integrands).
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("|z| must be < 1")
    n = QUADRATURE_NODES
    prev = _quad_once(spec, f, z, n)
    for _ in range(4):
        n *= 2
        cur = _quad_once(spec, f, z, n)
        if abs(cur - prev) <= max(1e-13, 1e-13 * abs(cur)):
            return cur
        prev = cur
    return prev


def operator_bound(spec: OperatorSpec, r: float) -> float:
    """Sharp sup-norm bound over the unit-bounded class at |z| = r.

    Beta-Cesaro:  (1/r) [1 - (1-r)^(1-beta)] / (1-beta), the log form at beta = 1
    Alpha-Cesaro: (alpha+1) sum_n r^n / (n+alpha+1), summed with certified tail
    Bernardi:     r^m / (m+delta)
    All three equal phi_0 of the induced weight family.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("r must be in (0, 1)")
    return float(weights.phi0(spec, r))


def operator_equation_residual(spec: OperatorSpec, domain: DomainParams, x: float) -> float:
    """Residual of the operator-specific radius equation at x (zero at the radius)."""
    g = domain.gamma
    if isinstance(spec, BetaCesaro):
        log1m = np.log1p(-x)
        if abs(spec.beta - 1.0) < weights.BETA_LOG_BRANCH_WIDTH:
            return float(2.0 * x + (3.0 + g) * (1.0 - x) * log1m)
        u = 1.0 - spec.beta
        return float(
            -(3.0 + g) * np.expm1(u * log1m) / u - 2.0 * np.expm1(-spec.beta * log1m) / spec.beta
        )
    if isinstance(spec, AlphaCesaro):
        return float((3.0 + g) * weights.phi0(spec, x) - 2.0 / (1.0 - x))
    if isinstance(spec, Bernardi):
        # gap equation scaled by x^(-m) to strip the trivial zero at the origin
        if x <= 0.0:
            raise ValueError("x must be positive")
        return float(
            (1.0 + g) / (spec.m + spec.delta) - 2.0 * weights.tail_sum(spec, x) / x ** spec.m
        )
    raise TypeError(f"unknown operator spec: {spec!r}")


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
        resid = operator_equation_residual(spec, domain, result.radius)
        if abs(resid) > CROSS_CHECK_TOL:
            raise RuntimeError(
                f"operator radius cross-check failed: printed-equation residual {resid:.3e}"
            )
    return result
