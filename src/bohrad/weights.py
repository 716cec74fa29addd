"""Weight families {phi_k(r)}: non-negative continuous functions on [0, 1).

Each family is one frozen dataclass holding all that is known about it. The
elementary families share a monomial base, phi_k = c(k) r^k from k = N on.
The beta-Cesaro, alpha-Cesaro and Bernardi families arise from the integral
operators they are named after; they share the OperatorFamily base, which
also holds the operator itself, and are summed by the kernels in _kernels.
The two Cesaro operators are one Euler-integral operator with parameters
(a, c): CesaroFamily holds its table, transform, quadrature and radius
equation, and BetaCesaro and AlphaCesaro hold only their field, (a, c) and
the closed forms of phi_0 and of the sum of all weights.

The module functions phi0, phi_k, tail_sum, phi_vector and phi_tail_mass
take a scalar r or a numpy array, check r in [0, 1) once and call the
family's method; radius.gap and radius.sharpness_window_check are the
checked entry points for the gap.  The methods check nothing: they take an
already-checked float array (vector takes a float or a 1-d array).  Only
code that builds its own grid inside [0, 1), such as the radius solver and
the verification grid, calls them directly.  All evaluators are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from . import _kernels

BETA_LOG_BRANCH_WIDTH = 1e-9  # |beta - 1| below this routes to the log forms
BETA_ZERO_LIMIT = 1e-17  # beta below this takes the beta -> 0 limit of the total


class WeightFamily:
    """Base of the families, which are frozen dataclasses.

    A family defines ``name`` (its CLI name) and the methods phi0(r),
    tail(r) = sum_{k>=1} phi_k(r) and vector(order, r) = [phi_0(r), ...,
    phi_order(r)].  phi0 and tail take r as a float array, 0-d or not, that
    is already known to lie in [0, 1), and check nothing; vector takes such
    an r as a float, or as a 1-d array, for which it returns the table with
    one row per point, each row bit for bit the vector at that point.  A
    family without a closed form over a grid gives _vector_at(order, r) at a
    float r and inherits vector, which loops over the points.  phi0_tail(r)
    is the pair (phi0(r), tail(r)) for the radius gap; a family whose tail
    is built from its phi_0 overrides it to evaluate phi_0 once, and one
    whose phi_0 is exactly constant may give it as a float.
    phi_k(k, r) reads entry k of vector(k, x) at each point; a family with a
    closed form for phi_k may override it.  Callers outside a grid they
    built themselves go through the module functions, which check r.
    """

    def vector(self, order, r):
        """[phi_0(r), ..., phi_order(r)] at a float r; at a 1-d r, the table
        whose row i is the vector at r[i], built one point at a time by the
        family's _vector_at(order, r)."""
        if np.ndim(r) == 0:
            return self._vector_at(order, float(r))
        return np.array([self._vector_at(order, x) for x in r.tolist()]).reshape(len(r), order + 1)

    def phi_k(self, k, r):
        """phi_k at every point of r, in r's shape."""
        return np.array([self.vector(k, x)[k] for x in r.ravel().tolist()]).reshape(r.shape)

    def phi0_tail(self, r):
        """(phi0(r), tail(r))."""
        return self.phi0(r), self.tail(r)

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def _require_finite(self) -> None:
        """Reject inf and nan in every float field; validators call it first."""
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


class MonomialFamily(WeightFamily):
    """phi_0 = 1; phi_k = c(k) r^k for k >= N, else 0.  A subclass gives
    coef(k) for an int or int-array k, tail(r) and, if it has one, an N field."""

    N = 1

    def __post_init__(self):
        self._require_finite()
        if int(self.N) != self.N or self.N < 1:
            raise ValueError("N must be an integer >= 1")
        object.__setattr__(self, "N", int(self.N))

    def phi0(self, r):
        return np.ones_like(r)

    def phi0_tail(self, r):
        return 1.0, self.tail(r)

    def phi_k(self, k, r):
        if k == 0:
            return np.ones_like(r)
        if k < self.N:
            return np.zeros_like(r)
        return self.coef(k) * r ** k

    def vector(self, order, r):
        k = np.arange(order + 1)
        v = self.coef(k) * np.asarray(r)[..., None] ** k.astype(float)
        v[..., 0] = 1.0
        v[..., 1 : self.N] = 0.0
        return v


@dataclass(frozen=True)
class PowerTail(MonomialFamily):
    """phi_0 = 1; phi_n = r^n for n >= N, else 0."""

    name = "power-tail"
    N: int = 1

    def coef(self, k):
        return 1

    def tail(self, r):
        return r ** self.N / (1.0 - r)


@dataclass(frozen=True)
class EvenPowers(MonomialFamily):
    """phi_{2n} = r^{2n} (including phi_0 = 1); odd weights vanish."""

    name = "even"

    def coef(self, k):
        return 1 - k % 2

    def tail(self, r):
        return r ** 2 / (1.0 - r ** 2)


@dataclass(frozen=True)
class OddPowers(MonomialFamily):
    """phi_0 = 1; phi_{2n-1} = r^{2n-1}; positive even weights vanish."""

    name = "odd"

    def coef(self, k):
        return k % 2

    def tail(self, r):
        return r / (1.0 - r ** 2)


@dataclass(frozen=True)
class LinearPlusOne(MonomialFamily):
    """phi_0 = 1; phi_n = (n+1) r^n for n >= N, else 0."""

    name = "linear-plus-one"
    N: int = 1

    def coef(self, k):
        return k + 1.0

    def tail(self, r):
        n = self.N
        return r ** n * (1.0 + n - n * r) / (1.0 - r) ** 2


@dataclass(frozen=True)
class Linear(MonomialFamily):
    """phi_0 = 1; phi_n = n r^n for n >= N, else 0."""

    name = "linear"
    N: int = 1

    def coef(self, k):
        return k

    def tail(self, r):
        n = self.N
        return r ** n * (n * (1.0 - r) + r) / (1.0 - r) ** 2


@dataclass(frozen=True)
class Quadratic(MonomialFamily):
    """phi_0 = 1; phi_n = n^2 r^n for n >= N, else 0."""

    name = "quadratic"
    N: int = 1

    def coef(self, k):
        return k * k

    def tail(self, r):
        n = self.N
        # equals the standard form r^N [N^2 - (2N^2-2N-1) r + (N-1)^2 r^2] / (1-r)^3
        num = (r + n) ** 2 + r + n ** 2 * r ** 2 - 2.0 * n * r * (r + n)
        return r ** n * num / (1.0 - r) ** 3


class OperatorFamily(WeightFamily):
    """A family induced by an integral operator T; the family also holds T.

    transform(a) maps the Taylor coefficients a_0 ... a_n of f to those of
    T f, quadrature(f, z, n) evaluates T f(z) from its integral form with an
    n-node Gauss rule, and radius_equation(gamma, x) returns the two sides
    (lhs, rhs) of the printed equation of the p = 1 radius, equal at the
    radius.  They are evaluated apart from phi0 and tail, so they check the
    solver's root independently, relative to their size.  The sup-norm bound
    of T over the unit-bounded class at |z| = r is phi_0(r).
    """


def _samples(f, t, z):
    """f(t z) at every quadrature node t."""
    return np.array([f(ti * z) for ti in t], dtype=np.complex128)


# The operator families hand their kernels 1-d arrays: numpy's 0-d paths
# are slower and can differ from its 1-d ones in the last bits.

def _beta_phi0(beta: float, r: np.ndarray) -> np.ndarray:
    out = np.ones_like(r)
    nz = r > 0.0
    rr = r[nz]
    log1m = np.log1p(-rr)
    if abs(beta - 1.0) < BETA_LOG_BRANCH_WIDTH:
        out[nz] = -log1m / rr
    else:
        u = 1.0 - beta
        # [1 - (1-r)^(1-beta)] / ((1-beta) r), cancellation-free via expm1
        out[nz] = -np.expm1(u * log1m) / (u * rr)
    return out


def _beta_total(beta: float, r: np.ndarray) -> np.ndarray:
    # sum_{n>=0} phi_n(r) = [(1-r)^(-beta) - 1] / (beta r), limit 1 at r = 0
    out = np.ones_like(r)
    nz = r > 0.0
    rr = r[nz]
    log1m = np.log1p(-rr)
    if beta < BETA_ZERO_LIMIT:
        # expm1(t)/t = 1 + t/2 + ... with |t| = beta |log(1-r)| < 21 beta, under
        # half an ulp; the product beta r itself would lose bits or underflow
        out[nz] = -log1m / rr
    else:
        out[nz] = np.expm1(-beta * log1m) / (beta * rr)
    return out


class CesaroFamily(OperatorFamily):
    """The Euler-integral operator (DLMF 15.6.1) with parameters (a, c), c > 1,

        T f(z) = (c-1) int_0^1 f(tz) (1-t)^(c-2) (1-tz)^(-a) dt,

    and the weights of its majorant, with G_j(x) = (x)_j / j!:

        b_n = sum_k G_(n-k)(a) a_k / G_n(c)                          (transform)
        phi_n(r) = sum_j G_j(a) r^(n+j) / G_(n+j)(c)
                 = r^n / G_n(c) 2F1(a, n+1; n+c; r)                   (vector)
        sum_{n>=0} phi_n(r) = 2F1(a+1, 1; c; r)                       (total)

    A subclass gives its parameter field, ``ac`` = (a, c) as a property, and
    the closed forms phi0(r) and total(r); total takes a 1-d float array.
    The series table reads only ``ac``, so the radius equation plays it
    against the closed forms that the solver uses.
    """

    def tail(self, r):
        return self.phi0_tail(r)[1]

    def phi0_tail(self, r):
        r1 = np.atleast_1d(r)
        p0 = self.phi0(r1)
        return p0.reshape(r.shape), (self.total(r1) - p0).reshape(r.shape)

    def _vector_at(self, order, r):
        return _kernels.cesaro_phi_table(*self.ac, r, order)

    def transform(self, a):
        """b_n = sum_k G_(n-k)(a) a_k / G_n(c)."""
        n = len(a) - 1
        num, den = (_kernels.rising_ratios(n, x) for x in self.ac)
        return np.convolve(a, num)[: n + 1] / den

    def quadrature(self, f, z, n):
        """(c-1) int_0^1 f(tz) (1-t)^(c-2) (1-tz)^(-a) dt."""
        # the endpoint factor (1-t)^(c-2) is integrable for c > 1; it lives
        # in the Gauss-Jacobi weight, so nodes never touch it
        a, c = self.ac
        t, w = _kernels.jacobi_rule(n, c - 2.0, 0.0)
        return complex((c - 1.0) * np.sum(w * _samples(f, t, z) / (1.0 - t * z) ** a))

    def radius_equation(self, gamma, x):
        """((3+gamma) phi_0(x), 2 sum_{n>=0} phi_n(x)): phi_0 summed from its terms
        (a)_j/(c)_j x^j, finite where phi_0 is, and the sum in closed form."""
        total = float(self.total(np.array([x]))[0])
        return (3.0 + gamma) * float(np.sum(_kernels.cesaro_terms(*self.ac, x))), 2.0 * total


@dataclass(frozen=True)
class BetaCesaro(CesaroFamily):
    """Weights induced by the beta-Cesaro operator (beta > 0): (a, c) = (beta, 2)."""

    name = "beta-cesaro"
    beta: float = 1.0

    def __post_init__(self):
        self._require_finite()
        if not self.beta > 0:
            raise ValueError("beta must be > 0")

    @property
    def ac(self):
        return self.beta, 2.0

    def phi0(self, r):
        return _beta_phi0(self.beta, np.atleast_1d(r)).reshape(r.shape)

    def total(self, r):
        return _beta_total(self.beta, r)


@dataclass(frozen=True)
class AlphaCesaro(CesaroFamily):
    """Weights induced by the alpha-Cesaro operator (alpha > -1): (a, c) = (alpha+1, alpha+2)."""

    name = "alpha-cesaro"
    alpha: float = 0.0

    def __post_init__(self):
        self._require_finite()
        if not self.alpha > -1:
            raise ValueError("alpha must be > -1")

    @property
    def ac(self):
        return self.alpha + 1.0, self.alpha + 2.0

    def phi0(self, r):
        return _kernels.alpha_phi0(self.alpha, np.atleast_1d(r)).reshape(r.shape)

    def total(self, r):
        return 1.0 / (1.0 - r)


@dataclass(frozen=True)
class Bernardi(OperatorFamily):
    """phi_n(r) = r^(n+m) / (n+m+delta); note phi_0(0) = 0, unlike every other family."""

    name = "bernardi"
    m: int = 1
    delta: float = 1.0

    def __post_init__(self):
        self._require_finite()
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("m must be an integer >= 1")
        object.__setattr__(self, "m", int(self.m))
        if not self.delta > -self.m:
            raise ValueError("delta must be > -m")

    def phi0(self, r):
        return r ** self.m / (self.m + self.delta)

    def phi_k(self, k, r):
        return r ** (k + self.m) / (k + self.m + self.delta)

    def tail(self, r):
        return _kernels.bernardi_tail(self.m, self.delta, np.atleast_1d(r)).reshape(r.shape)

    def vector(self, order, r):
        k = np.arange(order + 1)
        return np.asarray(r)[..., None] ** (k + float(self.m)) / (k + self.m + self.delta)

    def transform(self, a):
        """b_n = a_n / (n + delta), requiring a_k = 0 for k < m."""
        if np.any(a[: self.m] != 0):
            raise ValueError(
                f"Bernardi operator requires coefficients below index m={self.m} to be zero"
            )
        b = np.zeros_like(a)
        b[self.m :] = a[self.m :] / (np.arange(self.m, len(a)) + self.delta)
        return b

    def quadrature(self, f, z, n):
        """int_0^1 f(tz) t^(delta-1) dt."""
        # f vanishes to order m at 0, so fold t^(m+delta-1) into the weight
        # and integrate the smooth part f(tz)/t^m
        t, w = _kernels.jacobi_rule(n, 0.0, self.m + self.delta - 1.0)
        return complex(np.sum(w * _samples(f, t, z) / t ** self.m))

    def radius_equation(self, gamma, x):
        """((1+gamma)/c, 2 sum_{k>=1} x^k/(k+c)), c = m+delta: the two sides of
        the p = 1 gap over x^m.  The sum is x/(c+1) 2F1(c+1, 1; c+2; x),
        summed from its terms (c+1)_j/(c+2)_j x^j as the Cesaro phi_0 is."""
        c = self.m + self.delta
        terms = _kernels.cesaro_terms(c + 1.0, c + 2.0, x)
        return (1.0 + gamma) / c, 2.0 * x / (c + 1.0) * float(np.sum(terms))


@dataclass(frozen=True)
class CustomFamily(WeightFamily):
    """Extension point: caller supplies phi_0, phi_k and the tail sum.

    The callables must be numpy-aware in r and come with the caller's own
    convergence guarantee; nothing is re-verified here.  The radius solver
    takes the first sign change of the gap on a 32e-3 grid, then the first
    one on the 1e-3 grid inside that cell, and a root below 1e-3 from
    16-sections of (0, 1e-3).  That is the first crossing only if the gap
    changes sign once, as it does where tail/phi_0 increases, for every
    built-in family: a dip below 0 between two points of the 32e-3 grid is
    not seen.
    """

    name: str
    phi0_fn: Callable
    phi_k_fn: Callable
    tail_fn: Callable

    def phi0(self, r):
        return self.phi0_fn(r)

    def _vector_at(self, order, r):
        """[phi_0(r), ..., phi_order(r)], one phi_k at a time."""
        arr = np.asarray(r, dtype=np.float64)
        return np.array([float(self.phi_k_fn(k, arr)) for k in range(order + 1)])

    def phi_k(self, k, r):
        return self.phi_k_fn(k, r)

    def tail(self, r):
        return self.tail_fn(r)

    def params(self) -> dict:
        return {}  # callables have no serial form


# ---------------------------------------------------------------------------
# evaluation: validate r once, then call the family's method

def _prepare_r(r):
    arr = np.asarray(r, dtype=np.float64)
    if not ((arr >= 0.0) & (arr < 1.0)).all():  # one pass; false for nan too
        raise ValueError("r must lie in [0, 1)")
    return arr, arr.ndim == 0


def _unwrap(value, scalar):
    return float(value) if scalar else value


def phi0(family: WeightFamily, r):
    """phi_0(r) for the family (1 for all elementary families)."""
    arr, scalar = _prepare_r(r)
    return _unwrap(family.phi0(arr), scalar)


def phi_k(family: WeightFamily, k: int, r):
    """phi_k(r); exact for the monomial and Bernardi families, from the certified table otherwise."""
    if int(k) != k or k < 0:
        raise ValueError("k must be an integer >= 0")
    arr, scalar = _prepare_r(r)
    return _unwrap(family.phi_k(int(k), arr), scalar)


def tail_sum(family: WeightFamily, r):
    """sum_{k>=1} phi_k(r): in closed form for the elementary and beta-Cesaro
    families, from the Lerch kernel (_kernels.lerch_phi) for alpha-Cesaro and
    Bernardi."""
    arr, scalar = _prepare_r(r)
    return _unwrap(family.tail(arr), scalar)


def phi_vector(family: WeightFamily, order: int, r: float) -> np.ndarray:
    """[phi_0(r), ..., phi_order(r)] as a read-only vector (cached)."""
    _prepare_r(r)  # before float(r), so that a nan in a list is a ValueError too
    return _phi_vector_cached(family, int(order), float(r))


@lru_cache(maxsize=4096)
def _phi_vector_cached(family, order, r):
    v = family.vector(order, r)
    v.flags.writeable = False
    return v


def phi_tail_mass(family: WeightFamily, r: float, order: int) -> float:
    """Certified bound on sum_{k > order} phi_k(r) (non-negative)."""
    _prepare_r(r)
    r = float(r)
    return _tail_beyond(family, r, _phi_vector_cached(family, int(order), r))


def _tail_beyond(family, r, vector):
    """phi_tail_mass from vector = [phi_0(r), ..., phi_order(r)]: tail(r) less
    the sum of phi_1(r) ... phi_order(r), at least 0, at a float r already
    known to lie in [0, 1)."""
    partial = float(np.sum(vector[1:]))
    return max(float(family.tail(np.asarray(r))) - partial, 0.0)


# ---------------------------------------------------------------------------
# registry used by the CLI and suite configs

FAMILY_CLASSES = {
    cls.name: cls
    for cls in (
        PowerTail, EvenPowers, OddPowers, LinearPlusOne, Linear, Quadratic,
        BetaCesaro, AlphaCesaro, Bernardi,
    )
}


def make_family(name: str, params: dict | None = None) -> WeightFamily:
    """Build a family from its CLI name and parameter dict."""
    try:
        cls = FAMILY_CLASSES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILY_CLASSES)}") from None
    return cls(**(params or {}))
