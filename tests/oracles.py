"""Independent oracles that the tests play against the library.

None of them shares a formula with bohrad: the operators are integrated in
their integral form, tails are summed term by term, and the p-bound is the
plain quotient.
"""

import math

import mpmath as mp
import numpy as np

from bohrad import weights
from bohrad.weights import Bernardi

ORACLE_DPS = 20  # f is a float function: 20 digits leave only its rounding


def integral_form_oracle(spec, f, z):
    """T f(z) from the operator's integral form, by tanh-sinh quadrature (mpmath.quad):

        Cesaro:   (c-1) int_0^1 f(tz) (1-tz)^(-a) (1-t)^(p-1) dt, p = c-1, (a, c) = spec.ac
        Bernardi: int_0^1 [f(tz)/t^m] t^(p-1) dt, p = m+delta, f vanishing to order m at 0

    f is called at complex floats; the rest is in ORACLE_DPS digits.  The
    end factor s^(p-1), s the distance to its end, becomes k u^(kp-1) du
    under s = u^k.  k = 2/p for p < 2 turns it into 2u du, so no integrand
    is singular: at alpha = -0.5 the factor (1-t)^(-1/2) took 8 times the
    nodes.  k = 1 for p >= 2 keeps the factor next to (1-tz)^(-a), which it
    balances at large alpha.
    """
    z = complex(z)
    with mp.workdps(ORACLE_DPS):
        if isinstance(spec, Bernardi):
            p, scale = spec.m + mp.mpf(spec.delta), 1

            def smooth(s):
                return mp.mpc(f(float(s) * z)) / s ** spec.m
        else:
            a, c = (mp.mpf(x) for x in spec.ac)
            p, scale, w = c - 1, c - 1, mp.mpc(z)

            def smooth(s):
                t = 1 - s
                return mp.mpc(f(float(t) * z)) * (1 - t * w) ** -a

        k = max(1, 2 / p)
        return complex(scale * k * mp.quad(lambda u: smooth(u ** k) * u ** (k * p - 1), [0, 1]))


def brute_force_tail(family, r, terms):
    """sum_{k=1}^{terms} phi_k(r) by direct summation; no closed forms anywhere."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    return math.fsum(weights.phi_vector(family, terms, r)[1:])


def p_bound_check(x, p):
    """(1 - x^p)/(1 - x^2) - p/2, which is >= 0 on [0,1) for p in (0,2]."""
    arr = np.asarray(x, dtype=np.float64)
    if not ((arr >= 0.0) & (arr < 1.0)).all():  # one pass; false for nan too
        raise ValueError("x must lie in [0, 1)")
    if not (0.0 < p <= 2.0):
        raise ValueError(f"p must be in (0, 2], got {p}")
    value = (1.0 - arr ** p) / (1.0 - arr ** 2) - p / 2.0
    return float(value) if np.ndim(x) == 0 else value
