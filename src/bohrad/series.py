"""Truncated power series for unit-bounded analytic functions on shifted disks.

The domain is the disk Omega(gamma) = { z : |z + gamma/(1-gamma)| < 1/(1-gamma) }
for 0 <= gamma < 1; gamma = 0 recovers the unit disk.  Every function here is
represented by the Taylor coefficients of its restriction to the unit disk.

Each kind of test function is one frozen dataclass, a ``BoundedFunction``
that gives its coefficients, its closed-form value, its coefficient cap and
a descriptor.  The coefficients are exact up to rounding:

* ``Extremal`` — the Mobius map of Omega(gamma) onto the disk,
  ``(a - gamma - (1-gamma) z) / (1 - a gamma - a (1-gamma) z)``, whose
  coefficients decay like q^k with q = a (1-gamma) / (1 - a gamma);
* ``BlaschkeComposed`` — a finite Blaschke product pre-composed with the
  affine map w = (1-gamma) z + gamma that sends Omega(gamma) onto the unit
  disk.  The coefficients come from one inverse FFT of the closed form
  sampled on a circle, with no truncate-then-compose step and an alias error
  of at most 1e-17 (``_kernels.blaschke_series`` states the bound); at
  gamma = 0 it is the plain product, coefficients decaying like max|zero|^k;
* ``Raw`` — an arbitrary finite coefficient list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

DEFAULT_ORDER = 200
MEMBERSHIP_TOL = 1e-10  # excess over the coefficient bound allowed for round-off


@dataclass(frozen=True)
class DomainParams:
    """Shifted-disk parameter gamma in [0, 1)."""

    gamma: float

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")


class CoefficientSeries:
    """Taylor coefficients c_0 ... c_M of a function analytic on the unit disk."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        arr = np.asarray(coefficients, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", arr)

    @property
    def order(self) -> int:
        return self.coefficients.size - 1

    def moduli(self) -> np.ndarray:
        return np.abs(self.coefficients)

    def padded(self, order: int) -> "CoefficientSeries":
        """Truncate or zero-pad to exactly order+1 entries."""
        if order == self.order:
            return self
        out = np.zeros(order + 1, dtype=np.complex128)
        n = min(order, self.order) + 1
        out[:n] = self.coefficients[:n]
        return CoefficientSeries(out)

    def evaluate(self, z: complex) -> complex:
        """Horner evaluation of the truncated series at z."""
        acc = 0.0 + 0.0j
        for c in self.coefficients[::-1]:
            acc = acc * z + c
        return acc

    def __len__(self) -> int:
        return self.coefficients.size

    def __repr__(self) -> str:
        return f"CoefficientSeries(order={self.order})"


def coefficient_bound(c0: float, gamma: float) -> float:
    """(1 - |c_0|^2)/(1 + gamma), given |c_0|: the bound on every |c_k|, k >= 1,
    of a member of the bounded class on Omega(gamma)."""
    return (1.0 - c0 ** 2) / (1.0 + gamma)


class BoundedFunction:
    """Base of the test-function kinds, which are frozen dataclasses.

    A kind gives coefficients(order), its closed-form value __call__(z) and
    descriptor(), a JSON-serializable dict that rebuilds it.  cap() below
    holds for members of the bounded class on ``domain``.
    """

    def cap(self) -> float:
        """Certified bound on every |c_k|, k >= 1: members of the bounded class
        on Omega(gamma) satisfy |c_k| <= (1 - |f(0)|^2)/(1 + gamma)."""
        return coefficient_bound(abs(self(0.0)), self.domain.gamma)


@dataclass(frozen=True)
class Extremal(BoundedFunction):
    """The extremal Mobius map of Omega(gamma) onto the disk, parameter a in [0,1).

    c_0 = (a-gamma)/(1-a*gamma) and, for k >= 1,
    c_k = -[(1-a^2)/(a(1-a*gamma))] * [a(1-gamma)/(1-a*gamma)]^k.
    The k >= 1 formula has a removable singularity at a = 0, where the map is
    the affine function -gamma - (1-gamma) z; that case is handled explicitly.
    """

    domain: DomainParams
    a: float

    def __post_init__(self):
        if not (0.0 <= self.a < 1.0):
            raise ValueError(f"a must be in [0, 1), got {self.a}")

    def coefficients(self, order: int) -> CoefficientSeries:
        if order < 0:
            raise ValueError("order must be >= 0")
        g, a = self.domain.gamma, self.a
        c = np.zeros(order + 1, dtype=np.complex128)
        if a == 0.0:
            c[0] = -g
            if order >= 1:
                c[1] = -(1.0 - g)
            return CoefficientSeries(c)
        c[0] = (a - g) / (1.0 - a * g)
        q = a * (1.0 - g) / (1.0 - a * g)
        pref = (1.0 - a * a) / (a * (1.0 - a * g))
        k = np.arange(1, order + 1)
        c[1:] = -pref * q ** k
        return CoefficientSeries(c)

    def __call__(self, z: complex) -> complex:
        g, a = self.domain.gamma, self.a
        return (a - g - (1.0 - g) * z) / (1.0 - a * g - a * (1.0 - g) * z)

    def descriptor(self) -> dict:
        return {"kind": "extremal", "gamma": self.domain.gamma, "a": self.a}


@dataclass(frozen=True)
class BlaschkeComposed(BoundedFunction):
    """A finite Blaschke product pre-composed with the affine map onto Omega(gamma)."""

    domain: DomainParams
    zeros: tuple
    rotation: complex

    def __post_init__(self):
        zeros = tuple(map(complex, self.zeros))
        rotation = complex(self.rotation)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "rotation", rotation)
        # both tests are written to fail for a nan modulus too
        for z in zeros:
            if not abs(z) < 1.0:
                raise ValueError(f"Blaschke zero {z} must lie strictly inside the unit disk")
        if not abs(abs(rotation) - 1.0) <= 1e-12:
            raise ValueError("rotation must be unimodular")

    def coefficients(self, order: int) -> CoefficientSeries:
        """The one-row case of _kernels.blaschke_series."""
        if order < 0:
            raise ValueError("order must be >= 0")
        rows = _kernels.blaschke_series([self.zeros], [len(self.zeros)], [self.rotation], order, self.domain.gamma)
        return CoefficientSeries(rows[0])

    def __call__(self, z: complex) -> complex:
        w = (1.0 - self.domain.gamma) * z + self.domain.gamma
        val = self.rotation
        for zero in self.zeros:
            val *= (w - zero) / (1.0 - zero.conjugate() * w)
        return complex(val)

    def descriptor(self) -> dict:
        return {
            "kind": "blaschke",
            "gamma": self.domain.gamma,
            "zeros": [[z.real, z.imag] for z in self.zeros],
            "rotation": [self.rotation.real, self.rotation.imag],
        }


@dataclass(frozen=True)
class Raw(BoundedFunction):
    """An arbitrary coefficient list; membership in the bounded class is not implied."""

    series: CoefficientSeries

    def coefficients(self, order: int) -> CoefficientSeries:
        return self.series.padded(order)

    def __call__(self, z: complex) -> complex:
        return self.series.evaluate(z)

    def cap(self) -> float:
        return 0.0  # the series is finite: nothing lies beyond it

    def descriptor(self) -> dict:
        return {
            "kind": "raw",
            "coefficients": [[c.real, c.imag] for c in self.series.coefficients],
        }


@dataclass(frozen=True)
class LemmaBoundReport:
    """Worst excess of |c_n| over the membership bound (1-|c_0|^2)/(1+gamma);
    worst_index 0 means |c_0| exceeds 1 and the excess is |c_0| - 1."""

    max_violation: float
    worst_index: int

    @property
    def ok(self) -> bool:
        """The membership screen: no excess over MEMBERSHIP_TOL, and |c_0| within
        1e-12 of the unit disk (a |c_0| past that fails at any excess)."""
        return self.worst_index != 0 and self.max_violation <= MEMBERSHIP_TOL


def lemma_bound_report(series: CoefficientSeries, domain: DomainParams) -> LemmaBoundReport:
    """Check |c_n| <= (1-|c_0|^2)/(1+gamma) for n >= 1 over the stored coefficients.

    A non-positive max_violation means the bound holds; members of the bounded
    class on Omega(gamma) always satisfy it.  A series with |c_0| > 1 is no
    candidate member: its report is the excess |c_0| - 1 at index 0.
    """
    m = series.moduli()
    if m[0] > 1.0 + 1e-12:
        return LemmaBoundReport(float(m[0] - 1.0), 0)
    if series.order == 0:
        return LemmaBoundReport(0.0, -1)
    excess = m[1:] - coefficient_bound(m[0], domain.gamma)
    worst = int(np.argmax(excess))
    return LemmaBoundReport(float(excess[worst]), worst + 1)
