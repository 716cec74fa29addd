"""Weight families {phi_k(r)}: non-negative continuous functions on [0, 1).

Each family is one frozen dataclass holding all that is known about it, and
each of its formulas has one implementation there: phi0, tail, their ratio,
the table vector and the table over phi_0, scaled, which the Bohr check
reads.  A single phi_k is column k of the table.  The elementary families
share a monomial base, phi_k = c(k) r^k from k = N on.  The beta-Cesaro,
alpha-Cesaro and Bernardi families arise from the integral operators they
are named after; they share the OperatorFamily base, which also holds the
operator's coefficient transform, and call the family-free kernels of
_kernels with their parameters (the Cesaro table, and the Lerch sum behind
AlphaCesaro.phi0 and Bernardi.tail).  The two Cesaro operators are one Euler-integral operator
with parameters (a, c): CesaroFamily holds its table, transform and radius
equation, and BetaCesaro and AlphaCesaro hold only their field, (a, c) and
the closed forms of phi_0 and of the sum of all weights.

The module functions phi0, phi_k and tail_sum take a scalar r or a numpy
array, check r in [0, 1) once and call the family's method;
radius.gap and radius.sharpness_window_check are the checked entry points
for the gap.  The methods check nothing: they take an already-checked
float array (vector and scaled take a 1-d one).  Only code that builds its
own grid inside [0, 1), such as the radius solver and the verification
grid, or has checked its r, as the sharpness margin has through
radius.gap, calls them directly.  All evaluators are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import _kernels

BETA_ZERO_LIMIT = 1e-17  # |s| below this takes the s -> 0 limit of 2F1(s+1, 1; 2; r)


class WeightFamily:
    """Base of the families, which are frozen dataclasses.

    A family defines ``name`` (its CLI name) and three methods, each at an r
    that is already known to lie in [0, 1) and checks nothing: phi0(r) and
    tail(r) = sum_{k>=1} phi_k(r) at a float array, 0-d or not, and
    vector(order, r) at a 1-d float array, the table whose row i is
    [phi_0(r[i]), ..., phi_order(r[i])], each row bit for bit the table of
    its point alone.  ratio(r) is tail(r)/phi0(r), which the radius gap
    reads, and scaled(order, r) the table over its phi_0 column, psi_k =
    phi_k/phi_0, which the Bohr check reads; a family overrides them with
    forms that stay finite where phi_0 and the tail leave the floats apart.
    A single phi_k is read from the table (weights.phi_k), so each formula
    has one implementation.  Callers outside a grid they built themselves go
    through the module functions, which check r.
    """

    def ratio(self, r):
        """tail(r)/phi0(r)."""
        return self.tail(r) / self.phi0(r)

    def scaled(self, order, r):
        """vector(order, r) over its phi_0 column, 0 where phi_0 = 0; a table
        that is not finite raises RuntimeError before the division."""
        v = self.vector(order, r)
        if not np.isfinite(v).all():
            raise RuntimeError(f"the {self.name} weight table overflowed: phi_0 ... phi_{order} "
                               f"are not finite on [0, {r[-1]}]")
        return np.divide(v, v[:, :1], out=np.zeros_like(v), where=v[:, :1] != 0.0)

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

    def ratio(self, r):
        return self.tail(r)

    def vector(self, order, r):
        k = np.arange(order + 1)
        v = self.coef(k) * r[:, None] ** k.astype(float)
        v[:, 0] = 1.0
        v[:, 1 : self.N] = 0.0
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
    T f, and radius_equation(gamma, x) returns the two sides (lhs, rhs) of
    the printed equation of the p = 1 radius, equal at the radius.  They are
    evaluated apart from phi0 and tail, so they check the solver's root
    independently, relative to their size.  The sup-norm bound of T over the
    unit-bounded class at |z| = r is phi_0(r).
    """


# The operator families hand their kernels 1-d arrays: numpy's 0-d paths
# are slower and can differ from its 1-d ones in the last bits.

def _beta_2f1(s: float, r: np.ndarray) -> np.ndarray:
    """2F1(s+1, 1; 2; r) = expm1(s u)/(s r), u = -log(1-r), and 1 at r = 0.

    phi_0 is s = beta-1 and the sum of all weights s = beta; at s = -beta
    and 1-beta the two are scaled by (1-r)^beta, and stay finite.  Below
    BETA_ZERO_LIMIT in |s| it takes the limit u/r: at beta = 1 alone for
    s = +-(beta-1), exact near 1, and at beta -> 0 for s = +-beta, where
    expm1(t)/t = 1 + t/2 + ... with |t| < 21 |s| is under half an ulp from
    1 and the product s r itself would lose bits or underflow.
    """
    out = np.ones_like(r)
    nz = r > 0.0
    rr = r[nz]
    u = -np.log1p(-rr)
    out[nz] = u / rr if abs(s) < BETA_ZERO_LIMIT else np.expm1(s * u) / (s * rr)
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
        r1 = np.atleast_1d(r)
        return (self.total(r1) - self.phi0(r1)).reshape(r.shape)

    def ratio(self, r):
        r1 = np.atleast_1d(r)
        p0 = self.phi0(r1)
        return ((self.total(r1) - p0) / p0).reshape(r.shape)

    def vector(self, order, r):
        """The table one point at a time: the series kernel takes a float r."""
        rows = [_kernels.cesaro_phi_table(*self.ac, x, order) for x in r.tolist()]
        return np.array(rows).reshape(len(r), order + 1)

    def transform(self, a):
        """b_n = sum_k G_(n-k)(a) a_k / G_n(c)."""
        n = len(a) - 1
        num, den = (_kernels.rising_ratios(n, x) for x in self.ac)
        return np.convolve(a, num)[: n + 1] / den

    def radius_equation(self, gamma, x):
        """((3+gamma) phi_0(x), 2 sum_{n>=0} phi_n(x)): phi_0 summed from its terms
        (a)_j/(c)_j x^j, finite where phi_0 is, and the sum in closed form.
        Where the sum overflows the equation cannot be printed: RuntimeError."""
        with np.errstate(over="ignore"):
            total = float(self.total(np.array([x]))[0])
        if total == math.inf:
            raise RuntimeError(f"operator radius cross-check failed: the printed equation overflows "
                               f"at the radius {x!r}")
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
        return _beta_2f1(self.beta - 1.0, np.atleast_1d(r)).reshape(r.shape)

    def total(self, r):
        return _beta_2f1(self.beta, r)

    def ratio(self, r):
        """total/phi_0 - 1 = 2F1(1-beta, 1; 2; r) / ((1-r) 2F1(2-beta, 1; 2; r)) - 1,
        the two scaled by (1-r)^beta (Euler's transformation)."""
        r1 = np.atleast_1d(r)
        scaled = _beta_2f1(-self.beta, r1) / _beta_2f1(1.0 - self.beta, r1)
        return (scaled / (1.0 - r1) - 1.0).reshape(r.shape)


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
        """(1+alpha) Phi(r, 1, alpha+1) from the Lerch kernel."""
        return ((1.0 + self.alpha) * _kernels.lerch_phi(self.alpha + 1.0, np.atleast_1d(r))).reshape(r.shape)

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

    def tail(self, r):
        """sum_{n>=1} r^(n+m) / (n+m+delta) = r^(m+1) Phi(r, 1, m+1+delta) from the Lerch kernel."""
        r1 = np.atleast_1d(r)
        return (r1 ** (self.m + 1.0) * _kernels.lerch_phi(self.m + 1.0 + self.delta, r1)).reshape(r.shape)

    def ratio(self, r):
        """(m+delta) r Phi(r, 1, m+1+delta): the tail over phi_0 with no r^m."""
        r1 = np.atleast_1d(r)
        return ((self.m + self.delta) * r1 * _kernels.lerch_phi(self.m + 1.0 + self.delta, r1)).reshape(r.shape)

    def vector(self, order, r):
        k = np.arange(order + 1)
        return r[:, None] ** (k + float(self.m)) / (k + self.m + self.delta)

    def scaled(self, order, r):
        """psi_n = r^n (m+delta)/(n+m+delta): the table over phi_0 with no r^m."""
        k = np.arange(order + 1)
        return (self.m + self.delta) * r[:, None] ** k.astype(float) / (k + self.m + self.delta)

    def transform(self, a):
        """b_n = a_n / (n + delta), requiring a_k = 0 for k < m."""
        if np.any(a[: self.m] != 0):
            raise ValueError(
                f"Bernardi operator requires coefficients below index m={self.m} to be zero"
            )
        b = np.zeros_like(a)
        b[self.m :] = a[self.m :] / (np.arange(self.m, len(a)) + self.delta)
        return b

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
    convergence guarantee; nothing is re-verified here.  phi_0 comes from
    phi0_fn alone, in the table as well; phi_k_fn(k, r) is called once per
    k >= 1 with the whole 1-d grid, and must give each point the bits it
    gives that point alone (elementwise numpy arithmetic does); a scalar
    result is broadcast over the grid.  The radius solver reads the
    gap (1+gamma) - (2/p) tail/phi_0, so phi_0 must be positive on (0, 1).
    It takes the gap's first sign change on a 32e-3 grid, then the first
    one on the 1e-3 grid inside that cell, and a root below 1e-3 from
    16-sections of (0, 1e-3).  That is the first crossing only if the gap
    changes sign once, as it does where tail/phi_0 increases, for every
    built-in family: a dip below 0 between two points of the 32e-3 grid is
    not seen.  The Bohr check reads psi_k = phi_k/phi_0 from the table, and
    psi = 0 where phi_0 = 0: there it checks |c_0|^p <= 1 alone.
    """

    name: str
    phi0_fn: Callable
    phi_k_fn: Callable
    tail_fn: Callable

    def phi0(self, r):
        return self.phi0_fn(r)

    def vector(self, order, r):
        """The table one column at a time: phi0_fn(r), then one phi_k_fn(k, r) call per k >= 1."""
        out = np.empty((len(r), order + 1))
        out[:, 0] = self.phi0_fn(r)
        for k in range(1, order + 1):
            out[:, k] = self.phi_k_fn(k, r)
        return out

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
    """phi_k(r): column k of the family's table over the points of r, in r's
    shape, bit for bit the entry a Bohr sum over that table reads."""
    if int(k) != k or k < 0:
        raise ValueError("k must be an integer >= 0")
    arr, scalar = _prepare_r(r)
    k = int(k)
    return _unwrap(family.vector(k, arr.reshape(-1))[:, k].reshape(arr.shape), scalar)


def tail_sum(family: WeightFamily, r):
    """sum_{k>=1} phi_k(r): in closed form for the elementary and beta-Cesaro
    families, from the Lerch kernel (_kernels.lerch_phi) for alpha-Cesaro and
    Bernardi."""
    arr, scalar = _prepare_r(r)
    return _unwrap(family.tail(arr), scalar)


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
