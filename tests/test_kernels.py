"""Kernels against their Gauss hypergeometric closed forms, evaluated by mpmath.

Each weight series is a 2F1 (DLMF 15.2):
    alpha phi_0    = 2F1(1, alpha+1; alpha+2; r)
    Bernardi tail  = r^(m+1)/(m+1+delta) 2F1(1, m+1+delta; m+2+delta; r)
    beta phi_k     = r^k/(k+1) 2F1(beta, k+1; k+2; r)
    alpha phi_k    = r^k k!/(alpha+2)_k 2F1(alpha+1, k+1; alpha+k+2; r)
The first two are b Phi(r, 1, b) and r^(m+1) Phi(r, 1, b), with the Lerch sum
Phi(r, 1, b) = sum_k r^k/(k+b) = 2F1(1, b; b+1; r)/b (DLMF 25.14).
"""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from bohrad import _kernels, radius
from bohrad.weights import AlphaCesaro, BetaCesaro, phi_k

R_ORACLE = np.linspace(0.0, 0.95, 12)
ORDER = 30
RTOL = 1e-13


def hyp2f1(a, b, c, r):
    with mp.workdps(30):
        return mp.hyp2f1(a, b, c, mp.mpf(float(r)))


def lerch_oracle(b, r):
    """Phi(r, 1, b) in 40 digits, for an exact b such as mp.mpf(alpha) + 1 taken in 40 digits."""
    with mp.workdps(40):
        return mp.hyp2f1(1, b, b + 1, mp.mpf(float(r))) / b


def lerch_grid(b):
    """R_ORACLE, points up to 1 - 1e-9, and points on both sides of the kernel's switch."""
    switch = max(0.9, 1.0 - 1.0 / b)
    near_one = 1.0 - np.logspace(-1.5, -9, 12)
    at_switch = np.array([switch - 0.5 * (1 - switch), switch, np.nextafter(switch, 1.0),
                          switch + 0.5 * (1 - switch)])
    return np.concatenate([R_ORACLE, near_one, at_switch])


def assert_matches(values, oracle):
    np.testing.assert_allclose(values, [float(x) for x in oracle], rtol=RTOL, atol=1e-300)


@pytest.mark.parametrize("alpha", [-0.9999, -0.9, -0.5, 0.0, 0.7, 3.0, 9.5, 20.0, 33.3, 60.0])
def test_alpha_phi0_matches_hypergeometric(alpha):
    # phi_0 = (1+alpha) Phi(r, 1, alpha+1) on both branches of the kernel, up to r = 1 - 1e-9
    r = lerch_grid(alpha + 1.0)
    with mp.workdps(40):
        b = mp.mpf(alpha) + 1
        oracle = [b * lerch_oracle(b, x) for x in r]
    assert_matches(_kernels.alpha_phi0(alpha, r), oracle)


@pytest.mark.parametrize("m,delta", [(1, 1.0), (2, -0.5), (1, -0.9), (3, 2.0), (1, -0.9999), (5, -4.99),
                                     (5, 5.0), (30, 30.0)])
def test_bernardi_tail_matches_hypergeometric(m, delta):
    r = lerch_grid(m + 1 + delta)
    with mp.workdps(40):
        b = mp.mpf(delta) + m + 1
        oracle = [mp.mpf(float(x)) ** (m + 1) * lerch_oracle(b, x) for x in r]
    assert_matches(_kernels.bernardi_tail(m, delta, r), oracle)


def test_lerch_kernel_temporaries_stay_under_one_mebibyte():
    # b = 1001 on the radius scan's last block (0.897 ... 0.999 and 1 - 1e-9)
    # needs about 46,000 terms of the direct series at r = 0.999: chunked,
    # no temporary may grow with the term count
    for r in (radius._COARSE[896:], np.array([radius.SCAN_END]), np.linspace(0.9, 0.9989, 128)):
        tracemalloc.start()
        try:
            _kernels.alpha_phi0(1000.0, r)
            _kernels.bernardi_tail(1, 999.0, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


def beta_phi(beta, k, r):
    with mp.workdps(30):
        return mp.mpf(float(r)) ** k / (k + 1) * hyp2f1(beta, k + 1, k + 2, r)


def alpha_phi(alpha, k, r):
    with mp.workdps(30):
        scale = mp.mpf(float(r)) ** k * mp.factorial(k) / mp.rf(alpha + 2, k)
        return scale * hyp2f1(alpha + 1, k + 1, alpha + k + 2, r)


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 3.7])
def test_beta_phi_table_matches_hypergeometric(beta):
    for r in R_ORACLE:
        oracle = [beta_phi(beta, k, r) for k in range(ORDER + 1)]
        assert_matches(_kernels.beta_phi_table(beta, float(r), ORDER), oracle)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 1.0, 2.5])
def test_alpha_phi_table_matches_hypergeometric(alpha):
    for r in R_ORACLE:
        oracle = [alpha_phi(alpha, k, r) for k in range(ORDER + 1)]
        assert_matches(_kernels.alpha_phi_table(alpha, float(r), ORDER), oracle)


@pytest.mark.parametrize("family", [BetaCesaro(0.3), BetaCesaro(1.0), BetaCesaro(3.7),
                                    AlphaCesaro(-0.9), AlphaCesaro(0.0), AlphaCesaro(2.5)], ids=str)
@pytest.mark.parametrize("k", [0, 3, 17])
@pytest.mark.parametrize(
    "r", [np.array(0.55), np.array([0.0, 0.3, 0.9]), np.array([[0.1, 0.5], [0.7, 0.95]])],
    ids=["0-d", "1-d", "2-d"],
)
def test_public_phi_k_matches_hypergeometric(family, k, r):
    # weights.phi_k reads entry k of the table at each point, in r's shape
    got = phi_k(family, k, r)
    assert np.shape(got) == np.shape(r)
    if isinstance(family, BetaCesaro):
        oracle = [beta_phi(family.beta, k, x) for x in np.ravel(r)]
    else:
        oracle = [alpha_phi(family.alpha, k, x) for x in np.ravel(r)]
    assert_matches(np.ravel(got), oracle)
