"""Kernels against their Gauss hypergeometric closed forms, evaluated by mpmath.

Each weight series is a 2F1 (DLMF 15.2):
    alpha phi_0    = 2F1(1, alpha+1; alpha+2; r)
    Bernardi tail  = r^(m+1)/(m+1+delta) 2F1(1, m+1+delta; m+2+delta; r)
    Cesaro phi_k   = r^k k!/(c)_k 2F1(a, k+1; k+c; r), (a, c) = (beta, 2) or (alpha+1, alpha+2)
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


CESARO = [BetaCesaro(0.3), BetaCesaro(1.0), BetaCesaro(2.0), BetaCesaro(3.7),
          AlphaCesaro(-0.9), AlphaCesaro(-0.5), AlphaCesaro(0.0), AlphaCesaro(1.0), AlphaCesaro(2.5)]


def cesaro_phi(family, k, r):
    """r^k k!/(c)_k 2F1(a, k+1; k+c; r) for the family's (a, c)."""
    a, c = family.ac
    with mp.workdps(30):
        scale = mp.mpf(float(r)) ** k * mp.factorial(k) / mp.rf(c, k)
        return scale * hyp2f1(a, k + 1, k + c, r)


@pytest.mark.parametrize("family", CESARO, ids=str)
def test_cesaro_phi_table_matches_hypergeometric(family):
    for r in [*R_ORACLE, 0.99]:
        oracle = [cesaro_phi(family, k, r) for k in range(ORDER + 1)]
        assert_matches(_kernels.cesaro_phi_table(*family.ac, float(r), ORDER), oracle)


@pytest.mark.parametrize("a, c, r", [(1500.0, 2.0, 0.3337777777778683), (1001.0, 1002.0, 0.9985509341027354),
                                     (10001.0, 10002.0, 0.999854694894424), (3.0, 4.0, 0.0)])
def test_cesaro_terms_sum_to_phi0_where_the_table_overflows(a, c, r):
    # at these p = 1 radii G_j(a) and r^k / G_k(c) overflow apart, while
    # the terms (a)_j/(c)_j r^j, one recurrence, sum to 2F1(a, 1; c; r)
    terms = _kernels.cesaro_terms(a, c, r)
    last = terms.size - 1  # J: a power of two from 64, or 1 at r = 0
    assert last == 1 if r == 0.0 else last >= 64 and last & (last - 1) == 0
    assert float(np.sum(terms)) == pytest.approx(float(hyp2f1(a, 1, c, r)), rel=1e-14)


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
    assert_matches(np.ravel(got), [cesaro_phi(family, k, x) for x in np.ravel(r)])


# ---------------------------------------------------------------------------
# the Blaschke kernel over many rows: every row bit for bit its F = 1 call

def blaschke_rows(gamma):
    """Zero sets of every kind the suite and the CLI give the kernel: random
    draws in |z| <= 0.8, zero-free rows, repeated zeros, and a zero at
    1 - 1e-9, whose plan takes the rho < 1 path."""
    rng = np.random.default_rng([17, int(100 * gamma)])
    rows = []
    for i in range(120):
        n = int(rng.integers(0, 6))
        zeros = (0.8 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))).tolist()
        if i % 10 == 1 and zeros:
            zeros = [zeros[0]] * 3
        rows.append(zeros)
    rows += [[], [1 - 1e-9], [0.5j, 1 - 1e-9, 0.5j], [0.99 * np.exp(0.3j)] * 2, [], [0.0]]
    rotations = np.exp(2j * np.pi * rng.uniform(size=len(rows))).tolist()
    return rows, rotations


@pytest.mark.parametrize("order", [0, 40, 200])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.95])
def test_blaschke_rows_match_single_rows_to_the_bit(gamma, order):
    zero_sets, rotations = blaschke_rows(gamma)
    got = _kernels.blaschke_series(zero_sets, rotations, order, gamma)
    assert got.shape == (len(zero_sets), order + 1)
    assert _kernels._fft_plan([1 - 1e-9], gamma, order)[1] < 1.0  # the rho < 1 path is covered
    for zeros, rotation, row in zip(zero_sets, rotations, got):
        single = _kernels.blaschke_series([zeros], [rotation], order, gamma)
        assert single.shape == (1, order + 1)
        assert row.tobytes() == single[0].tobytes()
        if not zeros:
            expected = np.zeros(order + 1, dtype=np.complex128)
            expected[0] = rotation
            assert row.tobytes() == expected.tobytes()


def test_blaschke_rows_do_not_depend_on_their_neighbours():
    zero_sets, rotations = blaschke_rows(0.5)
    whole = _kernels.blaschke_series(zero_sets, rotations, 200, 0.5)
    perm = np.random.default_rng(3).permutation(len(zero_sets))
    shuffled = _kernels.blaschke_series([zero_sets[i] for i in perm], [rotations[i] for i in perm], 200, 0.5)
    assert shuffled.tobytes() == whole[perm].tobytes()
    assert _kernels.blaschke_series([], [], 200, 0.5).shape == (0, 201)


def test_blaschke_kernel_works_in_blocks_of_rows():
    # 480 rows at N = 256 sampled at once would hold about 2 MiB per
    # temporary, about 12 MiB in all; blocks of at most 2^12 samples keep the
    # whole pass under 1 MiB.  A row on the rho < 1 path has 2^16 samples and
    # runs alone, at the 4 MiB that one such row always needed.
    zero_sets, rotations = blaschke_rows(0.25)
    for rows, bound in ((zero_sets[:120] * 4, 1 << 20), ([[1 - 1e-9]] * 3, 5 << 20)):
        tracemalloc.start()
        try:
            out = _kernels.blaschke_series(rows, (rotations[:120] * 4)[: len(rows)], 200, 0.25)
            peak = tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()
        assert peak <= bound
