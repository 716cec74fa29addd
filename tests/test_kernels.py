"""Kernels against their Gauss hypergeometric closed forms, evaluated by mpmath.

Each weight series is a 2F1 (DLMF 15.2):
    alpha phi_0    = 2F1(1, alpha+1; alpha+2; r)
    Bernardi tail  = r^(m+1)/(m+1+delta) 2F1(1, m+1+delta; m+2+delta; r)
    beta phi_k     = r^k/(k+1) 2F1(beta, k+1; k+2; r)
    alpha phi_k    = r^k k!/(alpha+2)_k 2F1(alpha+1, k+1; alpha+k+2; r)
"""

import mpmath as mp
import numpy as np
import pytest

from bohrad import _kernels
from bohrad.weights import AlphaCesaro, BetaCesaro, phi_k

R_ORACLE = np.linspace(0.0, 0.95, 12)
ORDER = 30
RTOL = 1e-13


def hyp2f1(a, b, c, r):
    with mp.workdps(30):
        return mp.hyp2f1(a, b, c, mp.mpf(float(r)))


def assert_matches(values, oracle):
    np.testing.assert_allclose(values, [float(x) for x in oracle], rtol=RTOL, atol=1e-300)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.7, 3.0])
def test_alpha_phi0_matches_hypergeometric(alpha):
    oracle = [hyp2f1(1, alpha + 1, alpha + 2, r) for r in R_ORACLE]
    assert_matches(_kernels.alpha_phi0(alpha, R_ORACLE), oracle)


@pytest.mark.parametrize("m,delta", [(1, 1.0), (2, -0.5), (1, -0.9), (3, 2.0)])
def test_bernardi_tail_matches_hypergeometric(m, delta):
    with mp.workdps(30):
        oracle = [
            mp.mpf(float(r)) ** (m + 1) / (m + 1 + delta) * hyp2f1(1, m + 1 + delta, m + 2 + delta, r)
            for r in R_ORACLE
        ]
    assert_matches(_kernels.bernardi_tail(m, delta, R_ORACLE), oracle)


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
