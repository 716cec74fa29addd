"""Hot numeric kernels, one numpy implementation each.

The beta- and alpha-Cesaro operators are one Euler-integral operator with
parameters (a, c) = (beta, 2) or (alpha+1, alpha+2), and one table kernel
sums the weights of both, phi_n = sum_j G_j(a) r^(n+j) / G_(n+j)(c) with
G_j(x) = (x)_j/j!, as the correlation of two sequences each built by one
cumulative product.  rising_ratios builds G_j(x) for the tables, for the
operators' coefficient transform and for the public ratio functions; the
Gauss-Jacobi rules of the integral forms live here too.  phi_0 of the
alpha-Cesaro family and the Bernardi tail are one Lerch sum
Phi(r, 1, b) = sum_k r^k/(k+b) = 2F1(1, b; b+1; r)/b with two branches: the
direct series below max(0.9, 1 - 1/b), as matrix products over all radii at
once, and above it the log-case connection series in powers of 1 - r
(DLMF 15.8.10), 32 terms at every r up to 1 - 1e-9.  The Blaschke kernel
samples the closed-form product on a circle and takes one inverse FFT, with
the number of points and the circle chosen by a Cauchy estimate so that
aliasing stays under 1e-17.  It expands many products at once, one row
each: the inequality suite calls it once per cell for all of the cell's
random members, and a single function is one row.  Rows that share a plan
share their sampling pass and their FFT, and each row's bits are those of
its call alone.

Series kernels certify their truncation: the table and the direct Lerch
series take enough terms that a ratio-test bound puts the remaining mass
under 1e-16, and the connection series' 32 terms leave less than 1e-17/b.
Rising-factorial ratios are always built by recurrence, never from Gamma
values.  G_j(a) itself still overflows at large a and j, as the alpha-Cesaro
table does for alpha above about 150 near its p = 1 radius at gamma = 0; the
terms (a)_j/(c)_j r^j of phi_0 alone (cesaro_terms) stay finite with phi_0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_MAX_TERMS = 4_000_000
_NONCONV = "weight series did not converge: r is too close to 1 for this family"


# ---------------------------------------------------------------------------
# the Cesaro operators' coefficient sequences, weight tables and quadrature

def rising_ratios(n: int, x: float) -> np.ndarray:
    """[G_0(x), ..., G_n(x)], G_j(x) = (x)_j / j!, by one cumulative product."""
    if n < 0:
        raise ValueError("n must be >= 0")
    j = np.arange(1, n + 1)
    out = np.empty(n + 1)
    out[0] = 1.0
    np.cumprod((j - 1.0 + x) / j, out=out[1:])
    return out


@lru_cache(maxsize=256)
def jacobi_rule(n: int, a: float, b: float) -> tuple:
    """n-node Gauss rule (nodes, weights) on [0, 1] for the weight (1-t)^a t^b."""
    # imported here: scipy.special costs about 0.7 s cold and only the
    # integral form of the operators needs it
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(n, a, b)
    t, w = 0.5 * (x + 1.0), w * 2.0 ** (-a - b - 1.0)
    t.flags.writeable = w.flags.writeable = False  # shared by every caller
    return t, w


def cesaro_terms(a: float, c: float, r: float) -> np.ndarray:
    """[t_0, ..., t_J], t_j = (a)_j/(c)_j r^j: the terms of 2F1(a, 1; c; r), c > 0,
    from one cumulative product, never a quotient of two that overflow apart.

    J, a power of two from 64, puts the tail below 1e-16: the ratio
    t_(j+1)/t_j = r (j+a)/(j+c) is at most rho = r max(1, (J+a)/(J+c)) for
    j >= J, so the tail is at most t_J rho/(1 - rho).  With c > 1, G_k(c) does
    not decrease in k, so the same J bounds every phi_n of cesaro_phi_table.
    """
    if r <= 0.0:
        return np.array([1.0, 0.0])
    nterms = 64
    while True:
        j = np.arange(nterms)
        t = np.cumprod(np.append(1.0, (a + j) / (c + j) * r))
        rho = r * max(1.0, (nterms + a) / (nterms + c))
        if rho < 1.0 and t[-1] * rho / (1.0 - rho) < 1e-16:
            return t
        nterms *= 2
        if nterms > _MAX_TERMS:
            raise RuntimeError(_NONCONV)


def cesaro_phi_table(a: float, c: float, r: float, order: int) -> np.ndarray:
    """[phi_0(r), ..., phi_order(r)], phi_n = sum_j G_j(a) r^(n+j) / G_(n+j)(c), c > 1.

    The correlation of G_j(a) with u_k = r^k / G_k(c), itself one cumulative
    product, truncated after the term J that cesaro_terms certifies.
    """
    a, c, r, order = float(a), float(c), float(r), int(order)
    nterms = cesaro_terms(a, c, r).size - 1
    k = np.arange(1, order + nterms + 1)
    u = np.empty(order + nterms + 1)
    u[0] = 1.0
    np.cumprod(r * k / (k - 1.0 + c), out=u[1:])
    return np.correlate(u, rising_ratios(nterms, a), mode="valid")


# ---------------------------------------------------------------------------
# alpha-Cesaro phi_0 and the Bernardi tail are one Lerch sum (DLMF 15.2, 25.14):
# Phi(r, 1, b) = sum_{k>=0} r^k / (k+b) = 2F1(1, b; b+1; r) / b, b > 0

_LERCH_TOL = 1e-17  # truncation bound of the direct series, relative to Phi >= 1/b
_LOG_TERMS = 32  # terms of the connection series: see _lerch_log
_POINTS = 128  # points per pass of the direct series
_BUDGET = 1 << 14  # elements of each of its temporaries (128 KiB)
_EULER = 0.5772156649015329


def _digamma_minus_log(x: float) -> float:
    """psi(x) - ln x for x > 0: the recurrence up to x >= 10, then the
    asymptotic series, with ln x cancelled exactly rather than subtracted."""
    s = -math.log(x)
    while x < 10.0:
        s -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    # -sum B_2k / (2k x^2k), k = 1 ... 7; the next term is below 5e-17
    series = z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (1 / 240 - z * (1 / 132 - z * (691 / 32760 - z / 12))))))
    return (s + math.log(x)) - 0.5 / x - series


def _lerch_direct(b: float, r: np.ndarray, rmax: float) -> np.ndarray:
    """sum_{k<n} r^k / (k+b), with r^n / (1-r) <= 1e-17 at rmax = max(r).

    Term k = q c + j is r^(qc) r^j / (qc+j+b): the powers r^j, j < c ~ sqrt(n),
    come from one cumulative product, the powers r^(qc) from pow, and the
    double sum over (q, j) is a matrix product, taken a block of q at a time
    so that no temporary holds more than _BUDGET elements per 128 points.
    The remainder is at most r^n / ((n+b)(1-r)) <= 1e-17 / b <= 1e-17 Phi.
    """
    n = int((math.log(_LERCH_TOL) + math.log1p(-rmax)) / math.log(rmax)) + 1 if rmax > 0.0 else 1
    if n > _MAX_TERMS:  # only past b ~ 1e5, where the switch nears 1
        raise RuntimeError(_NONCONV)
    points = min(r.size, _POINTS)
    cols = min(math.isqrt(n - 1) + 1, _BUDGET // points)
    rows = -(-n // cols)
    step = _BUDGET // max(cols, points)  # rows of weights per matrix product
    jb = np.arange(cols) + b
    parts = []
    for i in range(0, r.size, _POINTS):
        x = r[i : i + _POINTS]
        pj = np.empty((cols, x.size))
        pj[0] = 1.0
        pj[1:] = x
        np.cumprod(pj, axis=0, out=pj)
        s = 0.0
        for q0 in range(0, rows, step):
            qc = np.arange(q0, min(rows, q0 + step)) * float(cols)
            t = (1.0 / np.add.outer(qc, jb)) @ pj
            t *= x ** qc[:, None]
            s = s + t.sum(axis=0)
        parts.append(s)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@lru_cache(maxsize=64)
def _log_coefficients(b: float) -> tuple:
    """(-euler - psi(b) + ln b, [e_k - e_0], [(b+k-1)/k]) for k = 1 ... _LOG_TERMS: see _lerch_log."""
    k = np.arange(1.0, _LOG_TERMS + 1.0)
    g0 = -_EULER - _digamma_minus_log(b)
    de = np.cumsum((b - 1.0) / (k * (b + k - 1.0)))
    c = ((b - 1.0 + k) / k)[:, None]
    de.flags.writeable = c.flags.writeable = False  # shared by every call with this b
    return g0, de, c


def _lerch_log(b: float, r: np.ndarray) -> np.ndarray:
    """The log-case connection series in y = 1-r (DLMF 15.8.10, a = 1, c = b+1):

        Phi = sum_k t_k (e_k - ln y),  t_k = (b)_k/k! y^k,  e_k = psi(k+1) - psi(b+k).

    Used for y <= min(0.1, 1/b), where t_k, built by one recurrence with y
    folded in so that nothing overflows at large b, falls fast enough that
    _LOG_TERMS terms leave a remainder below 1e-17/b at every b.  The
    bracket is split as (e_0 - ln y) + (e_k - e_0): the first part is
    -euler - (psi(b) - ln b) - ln(b y), free of the cancellation between
    psi(b) and ln y at large b, and the second sums the steps
    1/k - 1/(b+k-1) = (b-1)/(k(b+k-1)), all of one sign.
    """
    g0, de, c = _log_coefficients(b)
    y = 1.0 - r
    t = np.empty((_LOG_TERMS, r.size))
    t[:] = y
    t *= c
    np.cumprod(t, axis=0, out=t)
    d0 = g0 - np.log(b * y)
    return d0 * (1.0 + t.sum(axis=0)) + de @ t


def lerch_phi(b: float, r: np.ndarray) -> np.ndarray:
    """Phi(r, 1, b) = sum_{k>=0} r^k / (k+b), b > 0, at every point of r in [0, 1).

    The direct series up to max(0.9, 1 - 1/b), the connection series above:
    a point costs at most about 39/(1-r) terms below the switch and 32 above
    it, so every r up to 1 - 1e-9 ends in milliseconds for b up to about
    1e4.  Past b ~ 1e5 the direct series next to the switch would need more
    than _MAX_TERMS terms and raises RuntimeError at once.  Relative error
    against 40-digit mpmath: below 2e-15 for b <= 2000.
    """
    b = float(b)
    r = np.asarray(r, dtype=np.float64)
    shape = r.shape
    r = r.ravel()
    if r.size == 0:
        return r.reshape(shape)
    switch = max(0.9, 1.0 - 1.0 / b)
    rmax = float(r.max())
    if rmax <= switch:
        return _lerch_direct(b, r, rmax).reshape(shape)
    near = r > switch
    if near.all():
        return _lerch_log(b, r).reshape(shape)
    out = np.empty_like(r)
    below = r[~near]
    out[~near] = _lerch_direct(b, below, float(below.max()))
    out[near] = _lerch_log(b, r[near])
    return out.reshape(shape)


def alpha_phi0(alpha: float, r: np.ndarray) -> np.ndarray:
    """phi_0 = (1+alpha) Phi(r, 1, alpha+1) at every point of r."""
    alpha = float(alpha)
    return (1.0 + alpha) * lerch_phi(alpha + 1.0, r)


def bernardi_tail(m: int, delta: float, r: np.ndarray) -> np.ndarray:
    """Bernardi tail sum_{n>=1} r^(n+m) / (n+m+delta) = r^(m+1) Phi(r, 1, m+1+delta)."""
    r = np.asarray(r, dtype=np.float64)
    return r ** (m + 1.0) * lerch_phi(m + 1.0 + float(delta), r)


# ---------------------------------------------------------------------------
# Blaschke products pre-composed with the affine map w = (1-gamma) z + gamma,
# from one inverse FFT of the closed form sampled on a circle |z| = rho.
# gamma = 0 is the plain product on the unit disk.

_ALIAS_LOG = math.log(2e17)  # log(2 / alias budget), alias budget 1e-17
_MAX_UNIT_POINTS = 1 << 16
_BLOCK_ELEMENTS = 1 << 12  # samples per temporary of blaschke_series (64 KiB of complex)


@lru_cache(maxsize=4)
def _circle_grid(n: int, rho: float, gamma: float) -> np.ndarray:
    """w = (1-gamma) z + gamma at z = rho exp(-2 pi i j/n), j = 0 ... n-1."""
    t = np.arange(n) / n
    t -= np.rint(t)  # angles in [-pi, pi]: half the rounding of [0, 2 pi)
    w = np.exp(-2j * np.pi * t)
    w *= rho * (1.0 - gamma)
    w += gamma
    w.flags.writeable = False
    return w


def _fft_plan(moduli: list, gamma: float, order: int) -> tuple:
    """(N, rho) for blaschke_series: see its docstring for the bound."""
    n = 1 << order.bit_length()  # the smallest power of two >= order + 1
    amax = max(max(moduli), 1e-8)
    wr = amax ** -0.5
    r = (wr - gamma) / (1.0 - gamma)
    if amax * wr < 1.0 and r > 1.0:  # false when max|a| rounds too close to 1
        m = 1.0
        for x in moduli:
            m *= (wr - x) / (1.0 - x * wr)
        need = (math.log(m) + _ALIAS_LOG) / math.log(r)
        if need <= _MAX_UNIT_POINTS:
            while n < need:
                n *= 2
            return n, 1.0
    n = max(_MAX_UNIT_POINTS, 1 << (32 * (order + 1) - 1).bit_length())
    return n, 10.0 ** (-17.0 / n)


def blaschke_series(zero_sets, rotations, order: int, gamma: float = 0.0) -> np.ndarray:
    """Row i: coefficients of rotations[i] * prod (w - a)/(1 - conj(a) w) over
    the zeros a of zero_sets[i], w = (1-gamma) z + gamma; an (F, order+1) array.

    Each product f is sampled at z_j = rho exp(-2 pi i j/N), j < N, and one
    inverse FFT gives rho^k sum_{m>=0} c_(k+mN) rho^(mN): c_k plus its aliases.

    rho = 1.  On |z| = R, |w| <= W = gamma + (1-gamma) R, and a disk
    automorphism has |(w - a)/(1 - conj(a) w)| <= (W - |a|)/(1 - |a| W) on
    |w| <= W < 1/|a|.  With W = 1/sqrt(max|a|) (max|a| floored at 1e-8),
    R = (W - gamma)/(1 - gamma) and M_R the product of these bounds, Cauchy
    gives |c_n| <= M_R R^(-n), so every c_k, k <= order < N,
    is off by at most M_R R^(-N)/(1 - R^(-N)).  N is the smallest power of
    two >= order + 1 that puts this at or below 1e-17: 256-512 points at
    order 200 for zeros in |a| <= 0.8; at gamma = 0, 8,192 for a zero at
    0.99 and 16,384 for a double zero there.

    rho < 1.  Past 2^16 points the zeros are too close to the circle for
    rho = 1.  Then N = max(2^16, 32 (order+1)) rounded up to a power of two
    and rho = 10^(-17/N).  |f| <= 1 on the unit disk, so |c_n| <= 1 and,
    after the scaling by rho^(-k), the alias error is at most
    rho^N/(1 - rho^N) ~ 1e-17; the scaling multiplies the round-off of the
    transform by rho^(-k) <= 10^(17 order/N) < 3.4.  Every zero strictly
    inside the disk ends here in bounded memory: 1 MiB per array at order
    200, whatever the zeros.

    Batching.  The plan (N, rho) is made per row; the rows that share one
    are sampled together, a block of at most _BLOCK_ELEMENTS samples at a
    time, and transformed by one ifft along the rows.  The product runs
    over zero slots: slot s multiplies every row with more than s zeros.
    Each row goes through the same operations in the same order as it
    would alone, so a row's bits do not depend on the other rows (F = 1 is
    a single function).  A zero-free row is [rotation, 0, ..., 0] exactly.
    """
    order, gamma = int(order), float(gamma)
    zero_sets = [[complex(a) for a in zeros] for zeros in zero_sets]
    out = np.zeros((len(zero_sets), order + 1), dtype=np.complex128)
    out[:, 0] = rotations
    plans = {}
    for i, zeros in enumerate(zero_sets):
        if zeros:
            plans.setdefault(_fft_plan([abs(a) for a in zeros], gamma, order), []).append(i)
    for (n, rho), rows in plans.items():
        w = _circle_grid(n, rho, gamma)
        rows.sort(key=lambda i: -len(zero_sets[i]))  # a slot's rows are a leading run
        step = max(1, _BLOCK_ELEMENTS // n)
        for b in range(0, len(rows), step):
            block = rows[b : b + step]
            # a slice for a lone row, which a single function always is: a
            # list index costs it a copy in and out
            rows_of = slice(block[0], block[0] + 1) if len(block) == 1 else block
            c = out[rows_of, :1] * _blaschke_block([zero_sets[i] for i in block], w, order)
            if rho < 1.0:
                c *= rho ** -np.arange(order + 1.0)
            out[rows_of] = c
    return out


def _blaschke_block(zero_sets, w, order):
    """c_0 ... c_order of the products over zero_sets on the circle w, the
    rows sorted by falling zero count, before the rotation and the rho scaling."""
    counts = [len(zeros) for zeros in zero_sets]
    # slot s of every row as a column, padded where a row has fewer zeros
    a = np.array([zeros + [0j] * (counts[0] - len(zeros)) for zeros in zero_sets]).T[:, :, None]
    conj = a.conjugate()
    num = w - a[0]
    den = 1.0 - conj[0] * w
    k = len(counts)
    for s in range(1, counts[0]):
        while counts[k - 1] <= s:
            k -= 1  # the rows with a zero in slot s are the first k
        num[:k] *= w - a[s, :k]
        den[:k] *= 1.0 - conj[s, :k] * w
    num /= den
    return np.fft.ifft(num)[:, : order + 1]
