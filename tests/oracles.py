"""Independent oracles that the tests play against the library.

None of them shares a formula with bohrad: the operators are integrated in
their integral form, tails are summed term by term, the truncation error of
a member's series is bounded from its value at 0 alone, the p-bound is the
plain quotient, and the radius gap is evaluated in 40 digits from the
series that define the weights, where nothing overflows.  The one reference
that shares a rule is the Cesaro term count: the library's ratio-test rule,
here with the terms built by a cumulative product rather than from lgamma.
"""

import math

import mpmath as mp
import numpy as np

from bohrad.radius import (
    _COARSE,
    _SECTIONS,
    _SPARSE,
    _STRIDE,
    DEFAULT_TOL,
    SCAN_STEP,
    WINDOW_SAMPLES,
    NoRootError,
    RadiusQuery,
    RadiusResult,
    _gap,
    _window,
)
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
    """sum_{k=1}^{terms} phi_k(r) by direct summation of phi_k = phi_0 psi_k over
    the family's scaled table; no closed form of the tail."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    x = np.array([float(r)])
    return math.fsum(family.phi0(x)[0] * family.scaled(terms, x)[0][1:])


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


def reference_cesaro_count(a, c, r):
    """The term count J of a Cesaro table by the doubling rule in floats: the
    terms t_j = (a)_j/(c)_j r^j of 2F1(a, 1; c; r) from one cumulative
    product over j <= J, J = 64, 128, ... until rho = r max(1, (J+a)/(J+c))
    is below 1 and t_J rho/(1 - rho) < 1e-16; 1 at r = 0."""
    if r <= 0.0:
        return 1
    count = 64
    while True:
        j = np.arange(count)
        t = np.cumprod(np.append(1.0, (a + j) / (c + j) * r))
        rho = r * max(1.0, (count + a) / (count + c))
        if rho < 1.0 and t[-1] * rho / (1.0 - rho) < 1e-16:
            return count
        count *= 2


def reference_minimal_root(query: RadiusQuery, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Locate the minimal positive root of h to |hi-lo| <= tol.

    One loop narrows (lo, hi) from lo = 0 by one batch of points a step: the
    sparse grid, the grid points between its first point that is not
    positive and the sparse point before, then 16-sections of the bracket
    (15 interior points at a time).  A point ends the positive run when its
    h is <= 0 or nan.  The ends keep the h of the batches that found them,
    their h alone; a nan h(hi) ends the query in NoRootError.  A CustomFamily
    whose phi_0 vanishes, or whose tail overflows, gives an h of inf or nan,
    so the solve runs with numpy's divide, overflow and invalid warnings off.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo, hi, evals = 0.0, None, 0
        pts = _SPARSE
        while True:
            # one step: keep the last positive point and the first point after it that is not positive
            g = _gap(query, pts)
            evals += pts.size
            positive = g > 0.0
            j = int(positive.argmin())
            if positive[j]:  # positive up to the batch's last point
                if hi is None:
                    raise NoRootError("gap(x) > 0 on all of (0, 1): the inequality holds up to 1")
                lo = float(pts[-1])
            else:
                lo, hi, h_hi = (float(pts[j - 1]) if j > 0 else lo), float(pts[j]), float(g[j])
                if pts is _SPARSE:  # next, the grid points between _SPARSE[j - 1] and hi
                    pts = _COARSE[_STRIDE * j : min(_STRIDE * (j + 1), _COARSE.size) - 1]
                    continue
            # (0, hi) is no bracket: narrow it to DEFAULT_TOL at any tol before calling h non-positive
            if hi - lo <= tol and not (lo == 0.0 and hi > DEFAULT_TOL):
                break
            pts = lo + (hi - lo) * _SECTIONS
            if pts[0] <= lo or pts[-1] >= hi:  # float spacing exhausted
                break
        if lo == 0.0:
            raise NoRootError(f"gap(x) <= 0 at every sampled point of (0, {SCAN_STEP:g}]: any crossing "
                              f"lies below the least of them, x = {hi!r}")
        if not h_hi <= 0.0:
            raise NoRootError(f"no certified crossing near x = {lo!r}: gap(hi) is nan at hi = {hi!r}")
        radius = 0.5 * (lo + hi)
        residual = float(_gap(query, np.array([radius]))[0])
        ok = bool((_gap(query, _window(radius, min(0.05, 0.5 * (1.0 - radius)))[1:]) < 0.0).all())
    evals += 1 + WINDOW_SAMPLES
    return RadiusResult(radius, (lo, hi), residual, ok, evals)
