"""Independent oracles that the tests play against the library.

None of them shares a formula with bohrad: the operators are integrated in
their integral form, tails are summed term by term, the truncation error of
a member's series is bounded from its value at 0 alone, the p-bound is the
plain quotient, and the radius gap is evaluated in 40 digits from the
series that define the weights, where nothing overflows.
"""

import math

import mpmath as mp
import numpy as np

from bohrad.weights import AlphaCesaro, Bernardi, BetaCesaro, CesaroFamily

ORACLE_DPS = 20  # f is a float function: 20 digits leave only its rounding
RADIUS_DPS = 40  # the radius oracles: h is steep or flat far past the floats' range


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
    return math.fsum(family.vector(terms, np.array([float(r)]))[0][1:])


def cap_tail_bound(f, r, order):
    """A bound on sum_{k > order} |c_k| r^k for a member f of the bounded class
    on Omega(gamma): every |c_k| (k >= 1) is at most (1 - |f(0)|^2)/(1 + gamma),
    and the geometric tail of that cap is summed at r < 1."""
    cap = (1.0 - abs(f(0.0)) ** 2) / (1.0 + f.domain.gamma)
    return cap * r ** (order + 1) / (1.0 - r)


def p_bound_check(x, p):
    """(1 - x^p)/(1 - x^2) - p/2, which is >= 0 on [0,1) for p in (0,2]."""
    arr = np.asarray(x, dtype=np.float64)
    if not ((arr >= 0.0) & (arr < 1.0)).all():  # one pass; false for nan too
        raise ValueError("x must lie in [0, 1)")
    if not (0.0 < p <= 2.0):
        raise ValueError(f"p must be in (0, 2], got {p}")
    value = (1.0 - arr ** p) / (1.0 - arr ** 2) - p / 2.0
    return float(value) if np.ndim(x) == 0 else value


# the sum of c(k) x^k over k >= 1 for each monomial family's coefficient c(k)
MP_MONOMIAL_SUMS = {
    "power-tail": lambda x: mp.polylog(0, x),
    "even": lambda x: (mp.polylog(0, x) + mp.polylog(0, -x)) / 2,
    "odd": lambda x: (mp.polylog(0, x) - mp.polylog(0, -x)) / 2,
    "linear-plus-one": lambda x: mp.polylog(-1, x) + mp.polylog(0, x),
    "linear": lambda x: mp.polylog(-1, x),
    "quadratic": lambda x: mp.polylog(-2, x),
}


def mp_tail_over_phi0(family, x):
    """tail/phi_0 at x > 0 in RADIUS_DPS digits, from the series that define the weights.

    The Cesaro phi_0 and sum of all weights are 2F1(a, 1; c; x) and
    2F1(a+1, 1; c; x).  For beta-Cesaro, (a, c) = (beta, 2), both are
    2F1(b, 1; 2; x) = expm1((b-1) u)/((b-1) x) with u = -log(1-x), taken in
    that form: the series needs about beta x/(1-x) terms.  For alpha-Cesaro
    the sum of all weights is 1/(1-x).  The Bernardi ratio is
    (m+delta) sum_{n>=1} x^n/(n+m+delta) = (m+delta) x 2F1(1, c+1; c+2; x)/(c+1).
    """
    with mp.workdps(RADIUS_DPS):
        x = mp.mpf(x)
        if isinstance(family, BetaCesaro):
            u, beta = -mp.log1p(-x), mp.mpf(family.beta)

            def f(s):  # 2F1(s+1, 1; 2; x)
                return u / x if s == 0 else mp.expm1(s * u) / (s * x)

            return f(beta) / f(beta - 1) - 1
        if isinstance(family, AlphaCesaro):
            a = mp.mpf(family.alpha) + 1
            return 1 / ((1 - x) * mp.hyp2f1(a, 1, a + 1, x)) - 1
        if isinstance(family, Bernardi):
            c = family.m + mp.mpf(family.delta)
            return c * x * mp.hyp2f1(1, c + 1, c + 2, x) / (c + 1)
        head = sum(family.coef(k) * x ** k for k in range(1, family.N))
        return MP_MONOMIAL_SUMS[family.name](x) - head


def mp_scaled(family, order, x):
    """[psi_0(x), ..., psi_order(x)], psi_k = phi_k/phi_0, in RADIUS_DPS digits,
    each phi_k from the series that defines it.

    The Cesaro phi_n is x^n/G_n(c) 2F1(a, n+1; n+c; x) with G_n(c) = (c)_n/n!;
    the Bernardi phi_n is x^(n+m)/(n+m+delta), whose x^m mpmath keeps at any
    m; a monomial family has phi_0 = 1.  psi = 0 where phi_0 = 0, as at
    x = 0 for Bernardi, where psi_k (k >= 1) tends to 0.
    """
    with mp.workdps(RADIUS_DPS):
        x = mp.mpf(x)
        if isinstance(family, Bernardi):
            c = family.m + mp.mpf(family.delta)
            phi = [x ** (n + family.m) / (n + c) for n in range(order + 1)]
        elif isinstance(family, CesaroFamily):
            a, c = (mp.mpf(v) for v in family.ac)
            phi = [x ** n * mp.factorial(n) / mp.rf(c, n) * mp.hyp2f1(a, n + 1, n + c, x) for n in range(order + 1)]
        else:
            phi = [mp.mpf(1)] + [family.coef(k) * x ** k if k >= family.N else 0 for k in range(1, order + 1)]
        return [v / phi[0] if phi[0] else mp.mpf(0) for v in phi]


def mp_h(query):
    """The radius gap h(x) = (1+gamma) - (2/p) tail/phi_0 of a query in RADIUS_DPS digits."""
    def h(x):
        with mp.workdps(RADIUS_DPS):
            return 1 + mp.mpf(query.domain.gamma) - 2 / mp.mpf(query.p) * mp_tail_over_phi0(query.family, x)

    return h


def mp_root(query, near):
    """mpmath.findroot of the RADIUS_DPS-digit h from a bracket around a float root."""
    step = min(1e-8, 0.5 * near, 0.5 * (1.0 - near))
    with mp.workdps(RADIUS_DPS):
        return float(mp.findroot(mp_h(query), (mp.mpf(near - step), mp.mpf(near + step)), solver="anderson"))
