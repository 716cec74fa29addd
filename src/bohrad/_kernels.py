"""Hot numeric kernels, one numpy implementation each.

No kernel knows a weight family: each takes plain parameters, and the
formulas of a family live in its class in weights, which calls them.

The beta- and alpha-Cesaro operators are one Euler-integral operator with
parameters (a, c) = (beta, 2) or (alpha+1, alpha+2), and one table kernel
sums the weights of both, phi_n = sum_j G_j(a) r^(n+j) / G_(n+j)(c) with
G_j(x) = (x)_j/j!, as the correlation of two sequences each built by one
cumulative product.  rising_ratios builds G_j(x) for the tables, for the
operators' coefficient transform and for the public ratio functions.  The
Lerch sum Phi(r, 1, b) = sum_k r^k/(k+b) = 2F1(1, b; b+1; r)/b, from which
AlphaCesaro.phi0 and Bernardi.ratio are built, has three branches of a
bounded number of terms at any b: the direct series up to 0.9, the log-case
connection series (DLMF 15.8.10) above max(0.9, 1 - 1/b), and a
Bernoulli-E_1 expansion in between; a point's bits are those of its call
alone.  The Blaschke kernel samples
the closed-form product on a circle and takes one inverse FFT, with the
number of points and the circle chosen by a Cauchy estimate so that
aliasing stays under 1e-17.  It expands many products at once, one row
each, from a zero matrix padded past each row's zero count: the inequality
suite hands it once per cell the (F x 5) matrix its draw formed, and a
single function is one row.  Rows that share a plan share their sampling
pass and their FFT, and each row's plan and bits are those of its call
alone.

Series kernels certify their truncation: the table and the direct Lerch
series take enough terms that a ratio-test bound puts the remaining mass
under 1e-16 (for the table an absolute cut, 1e-16 phi_0 per column), and
the other two Lerch branches leave less than 1e-17 Phi.
Rising-factorial ratios are always built by recurrence, never from Gamma
values.  G_j(a) itself still overflows at large a and j, as the alpha-Cesaro
table does for alpha above about 150 near its p = 1 radius at gamma = 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_MAX_TERMS = 4_000_000  # terms of a Cesaro table, at the most
_NONCONV = "weight series did not converge: r is too close to 1 for this family"


# ---------------------------------------------------------------------------
# the Cesaro operators' coefficient sequences and weight tables

def rising_ratios(n: int, x: float) -> np.ndarray:
    """[G_0(x), ..., G_n(x)], G_j(x) = (x)_j / j!, by one cumulative product."""
    if n < 0:
        raise ValueError("n must be >= 0")
    j = np.arange(1, n + 1)
    out = np.empty(n + 1)
    out[0] = 1.0
    np.cumprod((j - 1.0 + x) / j, out=out[1:])
    return out


def cesaro_count(a: float, c: float, r: float) -> int:
    """J for cesaro_phi_table, c > 1: the least power of two from 64 that puts
    the tail of 2F1(a, 1; c; r) = sum_j t_j, t_j = (a)_j/(c)_j r^j, below
    1e-16 (1 at r = 0).  For j >= J, t_(j+1)/t_j <= rho = r max(1, (J+a)/(J+c)),
    so the tail is at most t_J rho/(1 - rho), t_J from lgamma.  The cut is
    absolute: G_k(c) does not decrease in k, so column n drops at most r^n
    times column 0's mass, under 1e-16 phi_0, but a column far below r^n
    phi_0 can lose more of itself: up to 1.8 % of columns 1-200 at alpha =
    50, r = 0.75, under 1e-17 phi_0, against 50-digit mpmath hyp2f1.
    """
    if r <= 0.0:
        return 1
    nterms = 64
    while nterms <= _MAX_TERMS:
        rho = r * max(1.0, (nterms + a) / (nterms + c))
        log_t = math.lgamma(nterms + a) - math.lgamma(a) + math.lgamma(c) - math.lgamma(nterms + c)
        if rho < 1.0 and log_t + nterms * math.log(r) + math.log(rho / (1.0 - rho)) < math.log(1e-16):
            return nterms
        nterms *= 2
    raise RuntimeError(_NONCONV)


def cesaro_phi_table(a: float, c: float, r: float, order: int) -> np.ndarray:
    """[phi_0(r), ..., phi_order(r)], phi_n = sum_j G_j(a) r^(n+j) / G_(n+j)(c), c > 1.

    The correlation of G_j(a) with u_k = r^k / G_k(c), itself one cumulative
    product, truncated after the term J that cesaro_count certifies: every
    entry is cut to within 1e-16 phi_0, not 1e-16 of itself.
    """
    a, c, r, order = float(a), float(c), float(r), int(order)
    nterms = cesaro_count(a, c, r)
    k = np.arange(1, order + nterms + 1)
    u = np.empty(order + nterms + 1)
    u[0] = 1.0
    np.cumprod(r * k / (k - 1.0 + c), out=u[1:])
    return np.correlate(u, rising_ratios(nterms, a), mode="valid")


# ---------------------------------------------------------------------------
# the Lerch sum (DLMF 15.2, 25.14), from which weights builds the alpha-Cesaro
# phi_0 and the Bernardi ratio:
# Phi(r, 1, b) = sum_{k>=0} r^k / (k+b) = 2F1(1, b; b+1; r) / b, b > 0

_POINTS = 64  # points per pass: a pass's temporaries stay under 1 MiB
_LOG_TERMS = 32  # terms of the connection series: see _lerch_log
_E1_DEPTH = 100  # levels of the continued fraction of E_1: see _lerch_bernoulli
_EULER = 0.5772156649015329
# B_2k / (2k), k = 1 ... 10
_B2K = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160, 43867 / 14364, -174611 / 6600)


def _fold(t):
    """The column sums of t, folding its rows in halves in place: no column's
    sum depends on the others, nor on zero rows padding it to a power of two."""
    w = len(t)
    while w > 1:
        h = w // 2
        t[:h] += t[w - h : w]
        w -= h
    return t[0].copy()  # not a view that keeps all of t


def _digamma_minus_log(x: float) -> float:
    """psi(x) - ln x for x > 0: the recurrence up to x >= 10, then the
    asymptotic series, with ln x cancelled exactly rather than subtracted."""
    s = -math.log(x)
    while x < 10.0:
        s -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    series = 0.0  # sum B_2k / (2k x^2k), k = 1 ... 7; the next term is below 5e-17
    for c in _B2K[6::-1]:
        series = z * (c + series)
    return (s + math.log(x)) - 0.5 / x - series


def _lerch_direct(b: float, r: np.ndarray) -> np.ndarray:
    """sum_{k<n} r^k / (k+b) at r <= 0.9, n the least with r^n <= 1e-18 (394
    at r = 0.9): the remainder r^n / ((n+b)(1-r)) is under 1e-17/b <= 1e-17 Phi.
    Column i holds r_i^k from one cumulative product, cut to 0 from row n_i,
    over the power of two of rows that the largest n needs, and a spare row."""
    n = (math.log(1e-18) // np.log(np.maximum(r, 1e-300))).astype(int) + 1
    rows = 1 << int(n.max() - 1).bit_length()
    t = np.tile(r, (rows + 1, 1))
    t[0] = 1.0
    t[n, np.arange(r.size)] = 0.0
    np.cumprod(t, axis=0, out=t)
    t = t[:rows]
    t /= (np.arange(rows) + b)[:, None]
    return _fold(t)


def _lerch_log(b: float, r: np.ndarray) -> np.ndarray:
    """The log-case connection series in y = 1-r (DLMF 15.8.10, a = 1, c = b+1):

        Phi = sum_k t_k (e_k - ln y),  t_k = (b)_k/k! y^k,  e_k = psi(k+1) - psi(b+k).

    Used for y < min(0.1, 1/b), where t_k, one recurrence with y folded in,
    falls fast enough that _LOG_TERMS terms leave less than 1e-17/b.  The
    bracket is (e_0 - ln y) + (e_k - e_0): -euler - (psi(b) - ln b) - ln(b y),
    free of the cancellation of psi(b) and ln y, and the steps
    1/k - 1/(b+k-1) = (b-1)/(k(b+k-1)), all of one sign.
    """
    k = np.arange(1.0, _LOG_TERMS + 1.0)
    y = 1.0 - r
    t = np.multiply.outer((b - 1.0 + k) / k, y)
    np.cumprod(t, axis=0, out=t)
    d0 = -_EULER - _digamma_minus_log(b) - np.log(b * y)
    t *= d0 + np.cumsum((b - 1.0) / (k * (b + k - 1.0)))[:, None]  # e_k - ln y
    return d0 + _fold(t)


def _lerch_bernoulli(b: float, r: np.ndarray) -> np.ndarray:
    """The Bernoulli-E_1 expansion at 0.9 < r <= 1 - 1/b.  With r = e^(-tau),
    Phi = int_0^inf e^(-bt) / (1 - e^(-(t+tau))) dt, and 1/(1 - e^(-s)) =
    sum_n B_n s^(n-1)/n!, B_1 = +1/2, gives the series asymptotic in 1/b

        Phi ~ e^x E_1(x) + sum_{n>=1} B_n / (n b^n) sum_{k<n} x^k/k!,  x = b tau,
            = e^x E_1(x) + sum_k tau^k/k! w_k,  w_k = sum_{n>k} B_n / (n b^(n-k)),

    cut after n = 20 (under 1e-19 Phi at b = 10, r = 0.9) and k = 15.  Here x >= 1,
    and e^x E_1(x) = 1/(x+1 - 1/(x+3 - 4/(x+5 - ...))), the even part of the
    continued fraction of DLMF 6.9.1, 100 levels deep: 2e-16 off at x = 1.
    """
    tau = -np.log(r)
    acc, w = 0.0, []
    for c in reversed((0.5, *(v for c2k in _B2K for v in (c2k, 0.0)))):  # B_n / n, n = 21 ... 1
        acc = (c + acc) / b
        w.append(acc)  # w_20 ... w_0
    u = np.vstack([np.ones_like(tau), tau / np.arange(1.0, 16.0)[:, None]])
    np.cumprod(u, axis=0, out=u)  # tau^k / k!
    u *= np.array(w[:-17:-1])[:, None]  # w_0 ... w_15
    x = b * tau
    odd = np.add.outer(np.arange(1.0, 2.0 * _E1_DEPTH, 2.0), x)  # x + 2k - 1
    f = x + (2.0 * _E1_DEPTH + 1.0)
    for k in range(_E1_DEPTH, 0, -1):
        np.divide(k * k, f, out=f)
        np.subtract(odd[k - 1], f, out=f)
    return 1.0 / f + _fold(u)


def lerch_phi(b: float, r: np.ndarray) -> np.ndarray:
    """Phi(r, 1, b) = sum_{k>=0} r^k / (k+b), b > 0, at every point of a 1-d
    float array r in [0, 1): the direct series up to 0.9, the connection
    series above max(0.9, 1 - 1/b) and the Bernoulli-E_1 expansion between
    them.  A point's terms, as many as its own r sets, fill a column that
    _fold sums, so a point gets the bits it gets alone, in any batch.
    Relative error against 40-digit mpmath: 2e-15 for b < 10, 1e-15 above.
    """
    b = float(b)
    if r.size > _POINTS:
        return np.concatenate([lerch_phi(b, r[i : i + _POINTS]) for i in range(0, r.size, _POINTS)])
    near = r > 0.9
    if not near.any():
        return _lerch_direct(b, r) if r.size else np.empty(0)
    out = np.empty_like(r)
    log = r > max(0.9, 1.0 - 1.0 / b)
    for part, branch in ((~near, _lerch_direct), (log, _lerch_log), (near & ~log, _lerch_bernoulli)):
        if part.any():
            out[part] = branch(b, r[part])
    return out


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


def blaschke_series(zeros, counts, rotations, order: int, gamma: float = 0.0) -> np.ndarray:
    """Row i: coefficients of rotations[i] * prod (w - a)/(1 - conj(a) w) over
    the zeros a of zeros[i, :counts[i]], w = (1-gamma) z + gamma; an
    (F, order+1) array.  zeros is an (F, S) matrix, each row padded past its
    count; the padding is not read.  counts is a sequence of F ints.

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
    time indexed from zeros by its list of rows, and transformed by one ifft
    along the rows.  The product runs over zero slots: slot s multiplies every row with more than s zeros.  Each row goes through the
    same operations in the same order as it would alone, so a row's plan
    and bits do not depend on the other rows (F = 1 is a single function).
    A zero-free row is [rotation, 0, ..., 0] exactly.
    """
    order, gamma = int(order), float(gamma)
    out = np.zeros((len(counts), order + 1), dtype=np.complex128)
    out[:, 0] = rotations
    if not any(counts):  # every row is [rotation, 0, ..., 0]
        return out
    zeros = np.asarray(zeros, dtype=np.complex128)
    plans = {}
    for i, (row, count) in enumerate(zip(zeros.tolist(), counts)):
        if count:
            plans.setdefault(_fft_plan([abs(a) for a in row[:count]], gamma, order), []).append(i)
    for (n, rho), rows in plans.items():
        w = _circle_grid(n, rho, gamma)
        rows.sort(key=counts.__getitem__, reverse=True)  # a slot's rows are a leading run
        step = max(1, _BLOCK_ELEMENTS // n)
        for b in range(0, len(rows), step):
            block = rows[b : b + step]
            block_counts = [counts[i] for i in block]
            c = out[block, :1] * _blaschke_block(zeros[block, : block_counts[0]], block_counts, w, order)
            if rho < 1.0:
                c *= rho ** -np.arange(order + 1.0)
            out[block] = c
    return out


def _blaschke_block(zeros, counts, w, order):
    """c_0 ... c_order of the products over the rows of zeros on the circle w,
    row j with the zeros zeros[j, :counts[j]] and the rows sorted by falling
    zero count, before the rotation and the rho scaling."""
    a = zeros.T[:, :, None]  # slot s of every row as a column
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
