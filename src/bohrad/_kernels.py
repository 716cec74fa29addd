"""Hot numeric kernels.

The weight kernels each have a numba-jitted and a pure-numpy twin.  The jitted
path is used when numba imports successfully and the environment variable
``BOHR_NUMBA`` is not set to ``0``/``false``/``off``.  Both paths implement
identical recurrences; they may differ in the last few ulps because of
summation order, never more.  The Blaschke kernel is vectorised numpy only.

Series kernels certify their truncation: term recurrences run until the next
term is below 1e-16 of the accumulated sum and a ratio-test bound puts the
remaining mass under 1e-14.  Rising-factorial ratios are always built by
recurrence, never from Gamma values, so there is no overflow for large index.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

_ENV_DISABLED = os.environ.get("BOHR_NUMBA", "1").strip().lower() in ("0", "false", "off")
_FORCED: str | None = None

_MAX_TERMS = 4_000_000
_NONCONV = "weight series did not converge: r is too close to 1 for this family"


def use_numba() -> bool:
    if _FORCED == "numba":
        return True
    if _FORCED == "numpy":
        return False
    return HAVE_NUMBA and not _ENV_DISABLED


def active_backend() -> str:
    return "numba" if use_numba() else "numpy"


def set_backend(name: str | None) -> None:
    """Force 'numba' or 'numpy'; None restores env-based selection."""
    global _FORCED
    if name not in (None, "numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba is not importable")
    _FORCED = name


# ---------------------------------------------------------------------------
# term-count selection (shared between backends)

def _beta_nterms(beta: float, r: float) -> int:
    """Terms needed so the beta-Cesaro phi series tail is below 1e-16."""
    if r <= 0.0:
        return 1
    nterms = 64
    while True:
        j = np.arange(1, nterms + 1)
        # G_nterms * r^nterms as one product, to dodge overflow/underflow
        g_last = float(np.prod((j - 1.0 + beta) * r / j))
        rho = r * max(1.0, (nterms + beta) / (nterms + 1.0))
        if rho < 1.0 and g_last * rho / (1.0 - rho) < 1e-16:
            return nterms
        nterms *= 2
        if nterms > _MAX_TERMS:
            raise RuntimeError(_NONCONV)


def _alpha_nterms(alpha: float, r: float) -> int:
    """Terms needed so the alpha-Cesaro phi series tail is below 1e-16."""
    if r <= 0.0:
        return 1
    nterms = 64
    while (alpha + 1.0) * r ** (nterms + 1) / ((nterms + alpha + 2.0) * (1.0 - r)) >= 1e-16:
        nterms *= 2
        if nterms > _MAX_TERMS:
            raise RuntimeError(_NONCONV)
    return nterms


# ---------------------------------------------------------------------------
# beta-Cesaro weights: phi_n(r) = sum_j G_j(beta) r^(n+j) / (n+j+1),
# G_j the ratio Gamma(j+beta)/(Gamma(j+1)Gamma(beta)) built by recurrence.

def _beta_phi_table_np(beta, r, order, nterms):
    j = np.arange(1, nterms + 1)
    g = np.empty(nterms + 1)
    g[0] = 1.0
    np.cumprod((j - 1.0 + beta) / j, out=g[1:])
    k = np.arange(order + nterms + 1)
    u = r ** k / (k + 1.0)
    return np.correlate(u, g, mode="valid")


def _beta_phi_scalar_py(beta, k, r):
    if r == 0.0:
        return 1.0 if k == 0 else 0.0
    acc = 0.0
    c = r ** k  # G_j * r^(k+j), single running product
    j = 0
    while True:
        term = c / (k + j + 1.0)
        acc += term
        j += 1
        c *= (j - 1.0 + beta) * r / j
        if term <= 1e-16 * acc:
            rho = r * max(1.0, (j + beta) / (j + 1.0))
            if rho < 1.0 and c / ((k + j + 1.0) * (1.0 - rho)) < 1e-14:
                return acc
        if j > _MAX_TERMS:
            raise RuntimeError(_NONCONV)


# ---------------------------------------------------------------------------
# alpha-Cesaro weights: phi_n(r) = sum_j A_j^alpha r^(n+j) / A_(n+j)^(alpha+1)
# with Pochhammer ratios A_k^a = (a+1)_k / k! by recurrence.

def _alpha_phi_table_np(alpha, r, order, nterms):
    j = np.arange(1, nterms + 1)
    w = np.empty(nterms + 1)
    w[0] = 1.0
    np.cumprod((alpha + j) / j, out=w[1:])
    k = np.arange(1, order + nterms + 1)
    u = np.empty(order + nterms + 1)
    u[0] = 1.0
    np.cumprod(r * k / (alpha + 1.0 + k), out=u[1:])
    return np.correlate(u, w, mode="valid")


def _alpha_phi_scalar_py(alpha, k, r):
    if r == 0.0:
        return 1.0 if k == 0 else 0.0
    # c tracks A_j^alpha r^(k+j) / A_(k+j)^(alpha+1), single running product
    c = r ** k
    for i in range(1, k + 1):
        c *= i / (alpha + 1.0 + i)
    acc = 0.0
    j = 0
    while True:
        acc += c
        term = c
        j += 1
        c *= (alpha + j) * r * (k + j) / (j * (alpha + 1.0 + k + j))
        if term <= 1e-16 * acc:
            rho = r * max(1.0, (alpha + j + 1.0) / (j + 1.0))
            if rho < 1.0 and c / (1.0 - rho) < 1e-14:
                return acc
        if j > _MAX_TERMS:
            raise RuntimeError(_NONCONV)


def _alpha_phi0_np(alpha, r):
    out = np.zeros_like(r)
    rpow = np.ones_like(r)
    rmax = float(r.max()) if r.size else 0.0
    jblock = np.arange(128)
    k0 = 0
    while True:
        p = rpow[:, None] * r[:, None] ** jblock
        out += ((1.0 + alpha) * p / (k0 + jblock + alpha + 1.0)).sum(axis=1)
        rpow = p[:, -1] * r
        k0 += 128
        if rmax == 0.0:
            break
        if (1.0 + alpha) * rmax ** k0 / ((k0 + alpha + 1.0) * (1.0 - rmax)) < 1e-16:
            break
        if k0 > _MAX_TERMS:
            raise RuntimeError(_NONCONV)
    return out


# ---------------------------------------------------------------------------
# Bernardi weights: tail sum_{n>=1} r^(n+m) / (n+m+delta)

def _bernardi_tail_np(m, delta, r):
    out = np.zeros_like(r)
    rpow = r ** (m + 1.0)
    rmax = float(r.max()) if r.size else 0.0
    jblock = np.arange(128)
    n0 = 1
    while True:
        p = rpow[:, None] * r[:, None] ** jblock
        out += (p / (n0 + jblock + m + delta)).sum(axis=1)
        rpow = p[:, -1] * r
        n0 += 128
        if rmax == 0.0:
            break
        if rmax ** (n0 + m) / ((n0 + m + delta) * (1.0 - rmax)) < 1e-16:
            break
        if n0 > _MAX_TERMS:
            raise RuntimeError(_NONCONV)
    return out


# ---------------------------------------------------------------------------
# Blaschke products pre-composed with the affine map w = (1-gamma) z + gamma.
# In z the factor (w - a)/(1 - conj(a) w) is (u + v z)/(1 - q z), where
# d = 1 - conj(a) gamma, u = (gamma - a)/d, v = (1-gamma)/d and
# q = conj(a) (1-gamma)/d with |q| <= |a| < 1.  Each factor is folded in
# exactly: the two-tap numerator, then y_n = q y_(n-1) + x_n as a log-depth
# scan (after the pass at shift d, y_n = sum_{j < 2d} q^j x_(n-j)).
# gamma = 0 is the plain product on the unit disk.

def _blaschke_series_np(zeros, rotation, order, gamma):
    s = np.zeros(order + 1, dtype=np.complex128)
    s[0] = rotation
    for a in zeros:
        ac = a.conjugate()
        d = 1.0 - ac * gamma
        x = ((gamma - a) / d) * s
        x[1:] += ((1.0 - gamma) / d) * s[:-1]
        q = ac * (1.0 - gamma) / d
        shift = 1
        while shift <= order:
            x[shift:] += q * x[:-shift]
            q *= q
            shift *= 2
        s = x
    return s


if HAVE_NUMBA:

    @njit(cache=True, fastmath=True)  # fastmath: let the dot loops vectorize
    def _beta_phi_table_nb(beta, r, order, nterms):  # pragma: no cover - jitted
        g = np.empty(nterms + 1)
        g[0] = 1.0
        for j in range(1, nterms + 1):
            g[j] = g[j - 1] * (j - 1.0 + beta) / j
        u = np.empty(order + nterms + 1)
        rk = 1.0
        for k in range(order + nterms + 1):
            u[k] = rk / (k + 1.0)
            rk *= r
        out = np.empty(order + 1)
        for n in range(order + 1):
            s = 0.0
            for j in range(nterms + 1):
                s += u[n + j] * g[j]
            out[n] = s
        return out

    @njit(cache=True, fastmath=True)
    def _alpha_phi_table_nb(alpha, r, order, nterms):  # pragma: no cover
        w = np.empty(nterms + 1)
        w[0] = 1.0
        for j in range(1, nterms + 1):
            w[j] = w[j - 1] * (alpha + j) / j
        u = np.empty(order + nterms + 1)
        u[0] = 1.0
        for k in range(1, order + nterms + 1):
            u[k] = u[k - 1] * r * k / (alpha + 1.0 + k)
        out = np.empty(order + 1)
        for n in range(order + 1):
            s = 0.0
            for j in range(nterms + 1):
                s += u[n + j] * w[j]
            out[n] = s
        return out

    @njit(cache=True)
    def _beta_phi_scalar_nb(beta, k, r):  # pragma: no cover
        if r == 0.0:
            return 1.0 if k == 0 else 0.0
        acc = 0.0
        c = r ** k
        j = 0
        while True:
            term = c / (k + j + 1.0)
            acc += term
            j += 1
            c *= (j - 1.0 + beta) * r / j
            if term <= 1e-16 * acc:
                rho = r * max(1.0, (j + beta) / (j + 1.0))
                if rho < 1.0 and c / ((k + j + 1.0) * (1.0 - rho)) < 1e-14:
                    return acc
            if j > _MAX_TERMS:
                raise RuntimeError(_NONCONV)

    @njit(cache=True)
    def _alpha_phi_scalar_nb(alpha, k, r):  # pragma: no cover
        if r == 0.0:
            return 1.0 if k == 0 else 0.0
        c = r ** k
        for i in range(1, k + 1):
            c *= i / (alpha + 1.0 + i)
        acc = 0.0
        j = 0
        while True:
            acc += c
            term = c
            j += 1
            c *= (alpha + j) * r * (k + j) / (j * (alpha + 1.0 + k + j))
            if term <= 1e-16 * acc:
                rho = r * max(1.0, (alpha + j + 1.0) / (j + 1.0))
                if rho < 1.0 and c / (1.0 - rho) < 1e-14:
                    return acc
            if j > _MAX_TERMS:
                raise RuntimeError(_NONCONV)

    @njit(cache=True)
    def _alpha_phi0_nb(alpha, r):  # pragma: no cover
        out = np.empty_like(r)
        for i in range(r.size):
            ri = r[i]
            acc = 0.0
            rp = 1.0
            k = 0
            while True:
                term = (1.0 + alpha) * rp / (k + alpha + 1.0)
                acc += term
                k += 1
                rp *= ri
                if ri == 0.0:
                    break
                if term <= 1e-16 * acc and (1.0 + alpha) * rp / ((k + alpha + 1.0) * (1.0 - ri)) < 1e-16:
                    break
                if k > _MAX_TERMS:
                    raise RuntimeError(_NONCONV)
            out[i] = acc
        return out

    @njit(cache=True)
    def _bernardi_tail_nb(m, delta, r):  # pragma: no cover
        out = np.empty_like(r)
        for i in range(r.size):
            ri = r[i]
            acc = 0.0
            rp = ri ** (m + 1.0)
            n = 1
            while True:
                if ri == 0.0:
                    break
                term = rp / (n + m + delta)
                acc += term
                n += 1
                rp *= ri
                if term <= 1e-16 * max(acc, 1e-300) and rp / ((n + m + delta) * (1.0 - ri)) < 1e-16:
                    break
                if n > _MAX_TERMS:
                    raise RuntimeError(_NONCONV)
            out[i] = acc
        return out


# ---------------------------------------------------------------------------
# dispatching wrappers

def beta_phi_table(beta: float, r: float, order: int) -> np.ndarray:
    """Vector [phi_0(r), ..., phi_order(r)] for the beta-Cesaro weight family."""
    nterms = _beta_nterms(beta, r)
    if use_numba():
        return _beta_phi_table_nb(float(beta), float(r), int(order), int(nterms))
    return _beta_phi_table_np(float(beta), float(r), int(order), int(nterms))


def alpha_phi_table(alpha: float, r: float, order: int) -> np.ndarray:
    """Vector [phi_0(r), ..., phi_order(r)] for the alpha-Cesaro weight family."""
    nterms = _alpha_nterms(alpha, r)
    if use_numba():
        return _alpha_phi_table_nb(float(alpha), float(r), int(order), int(nterms))
    return _alpha_phi_table_np(float(alpha), float(r), int(order), int(nterms))


def beta_phi_scalar(beta: float, k: int, r: float) -> float:
    if use_numba():
        return float(_beta_phi_scalar_nb(float(beta), int(k), float(r)))
    return float(_beta_phi_scalar_py(float(beta), int(k), float(r)))


def alpha_phi_scalar(alpha: float, k: int, r: float) -> float:
    if use_numba():
        return float(_alpha_phi_scalar_nb(float(alpha), int(k), float(r)))
    return float(_alpha_phi_scalar_py(float(alpha), int(k), float(r)))


def alpha_phi0(alpha: float, r: np.ndarray) -> np.ndarray:
    r = np.ascontiguousarray(r, dtype=np.float64)
    flat = r.ravel()
    out = _alpha_phi0_nb(float(alpha), flat) if use_numba() else _alpha_phi0_np(float(alpha), flat)
    return out.reshape(r.shape)


def bernardi_tail(m: int, delta: float, r: np.ndarray) -> np.ndarray:
    r = np.ascontiguousarray(r, dtype=np.float64)
    flat = r.ravel()
    if use_numba():
        out = _bernardi_tail_nb(float(m), float(delta), flat)
    else:
        out = _bernardi_tail_np(float(m), float(delta), flat)
    return out.reshape(r.shape)


def blaschke_series(zeros, rotation: complex, order: int, gamma: float = 0.0) -> np.ndarray:
    """Coefficients of rotation * prod (w - a)/(1 - conj(a) w), w = (1-gamma) z + gamma."""
    zeros = [complex(a) for a in zeros]
    return _blaschke_series_np(zeros, complex(rotation), int(order), float(gamma))


def warmup() -> None:
    """Trigger jit compilation of every jitted kernel (no-op on the numpy path)."""
    r = np.array([0.0, 0.5])
    beta_phi_table(1.5, 0.5, 4)
    alpha_phi_table(0.5, 0.5, 4)
    beta_phi_scalar(1.5, 2, 0.5)
    alpha_phi_scalar(0.5, 2, 0.5)
    alpha_phi0(0.5, r)
    bernardi_tail(1, 1.0, r)
