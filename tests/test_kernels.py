"""Backend equivalence: every numba kernel must match its numpy twin."""

import numpy as np
import pytest

from bohrad import _kernels


requires_numba = pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba unavailable")


@pytest.fixture
def both_backends():
    def run(fn, *args):
        _kernels.set_backend("numpy")
        try:
            a = fn(*args)
        finally:
            _kernels.set_backend(None)
        _kernels.set_backend("numba")
        try:
            b = fn(*args)
        finally:
            _kernels.set_backend(None)
        return a, b

    return run


@requires_numba
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 0.9])
def test_beta_phi_table_backends_agree(both_backends, beta, r):
    a, b = both_backends(_kernels.beta_phi_table, beta, r, 64)
    np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-300)


@requires_numba
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
@pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 0.9])
def test_alpha_phi_table_backends_agree(both_backends, alpha, r):
    a, b = both_backends(_kernels.alpha_phi_table, alpha, r, 64)
    np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-300)


@requires_numba
def test_scalar_kernels_backends_agree(both_backends):
    for k in (0, 1, 7, 40):
        a, b = both_backends(_kernels.beta_phi_scalar, 1.5, k, 0.6)
        assert a == pytest.approx(b, rel=1e-13)
        a, b = both_backends(_kernels.alpha_phi_scalar, -0.3, k, 0.6)
        assert a == pytest.approx(b, rel=1e-13)


@requires_numba
def test_array_kernels_backends_agree(both_backends):
    r = np.linspace(0.0, 0.95, 40)
    a, b = both_backends(_kernels.alpha_phi0, 0.7, r)
    np.testing.assert_allclose(a, b, rtol=1e-13)
    a, b = both_backends(_kernels.bernardi_tail, 2, -0.5, r)
    np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-300)


def test_env_flag_selects_numpy(monkeypatch):
    monkeypatch.setattr(_kernels, "_FORCED", None)
    monkeypatch.setattr(_kernels, "_ENV_DISABLED", True)
    assert _kernels.active_backend() == "numpy"


def test_set_backend_rejects_unknown():
    with pytest.raises(ValueError):
        _kernels.set_backend("fortran")


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
