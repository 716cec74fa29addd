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


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 3.7])
def test_beta_phi_table_matches_hypergeometric(beta):
    for r in R_ORACLE:
        with mp.workdps(30):
            x = mp.mpf(float(r))
            oracle = [x ** k / (k + 1) * hyp2f1(beta, k + 1, k + 2, r) for k in range(ORDER + 1)]
        assert_matches(_kernels.beta_phi_table(beta, float(r), ORDER), oracle)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 1.0, 2.5])
def test_alpha_phi_table_matches_hypergeometric(alpha):
    for r in R_ORACLE:
        with mp.workdps(30):
            x = mp.mpf(float(r))
            oracle = [
                x ** k * mp.factorial(k) / mp.rf(alpha + 2, k) * hyp2f1(alpha + 1, k + 1, alpha + k + 2, r)
                for k in range(ORDER + 1)
            ]
        assert_matches(_kernels.alpha_phi_table(alpha, float(r), ORDER), oracle)


def test_table_matches_scalar_definition():
    # the dense table and the literal stopping-rule loop are separate code
    # paths; they must agree on every entry
    for beta in (0.5, 1.0, 2.0):
        table = _kernels.beta_phi_table(beta, 0.55, 20)
        direct = [_kernels.beta_phi_scalar(beta, k, 0.55) for k in range(21)]
        np.testing.assert_allclose(table, direct, rtol=1e-12)
    for alpha in (-0.5, 0.0, 1.0):
        table = _kernels.alpha_phi_table(alpha, 0.55, 20)
        direct = [_kernels.alpha_phi_scalar(alpha, k, 0.55) for k in range(21)]
        np.testing.assert_allclose(table, direct, rtol=1e-12)
