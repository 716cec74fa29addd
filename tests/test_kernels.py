"""Kernels against their Gauss hypergeometric closed forms, evaluated by mpmath.

Each weight series is a 2F1 (DLMF 15.2):
    alpha phi_0    = 2F1(1, alpha+1; alpha+2; r)
    Bernardi tail  = r^(m+1)/(m+1+delta) 2F1(1, m+1+delta; m+2+delta; r)
    Cesaro phi_k   = r^k k!/(c)_k 2F1(a, k+1; k+c; r), (a, c) = (beta, 2) or (alpha+1, alpha+2)
The first two are b Phi(r, 1, b) and r^(m+1) Phi(r, 1, b), with the Lerch sum
Phi(r, 1, b) = sum_k r^k/(k+b) = 2F1(1, b; b+1; r)/b (DLMF 25.14), which
AlphaCesaro.phi0 and Bernardi.ratio, the tail over phi_0, take from
_kernels.lerch_phi.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from bohrad import _kernels, radius
from bohrad.weights import AlphaCesaro, Bernardi, BetaCesaro, phi_k, tail_sum
from oracles import reference_cesaro_count

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
    """R_ORACLE, points up to 1 - 1e-9, and points on both sides of the
    kernel's two switches, 0.9 and max(0.9, 1 - 1/b)."""
    near_one = 1.0 - np.logspace(-1.5, -9, 12)
    at_switch = [np.array([s - 0.5 * (1 - s), s, np.nextafter(s, 1.0), s + 0.5 * (1 - s)])
                 for s in {0.9, max(0.9, 1.0 - 1.0 / b)}]
    return np.concatenate([R_ORACLE, near_one, *at_switch])


def assert_matches(values, oracle):
    np.testing.assert_allclose(values, [float(x) for x in oracle], rtol=RTOL, atol=1e-300)


@pytest.mark.parametrize("alpha", [-0.9999, -0.9, -0.5, 0.0, 0.7, 3.0, 9.5, 20.0, 33.3, 60.0])
def test_alpha_phi0_matches_hypergeometric(alpha):
    # phi_0 = (1+alpha) Phi(r, 1, alpha+1) on both branches of the kernel, up to r = 1 - 1e-9
    r = lerch_grid(alpha + 1.0)
    with mp.workdps(40):
        b = mp.mpf(alpha) + 1
        oracle = [b * lerch_oracle(b, x) for x in r]
    assert_matches(AlphaCesaro(alpha).phi0(r), oracle)


@pytest.mark.parametrize("m,delta", [(1, 1.0), (2, -0.5), (1, -0.9), (3, 2.0), (1, -0.9999), (5, -4.99),
                                     (5, 5.0), (30, 30.0)])
def test_bernardi_tail_matches_hypergeometric(m, delta):
    r = lerch_grid(m + 1 + delta)
    with mp.workdps(40):
        b = mp.mpf(delta) + m + 1
        oracle = [mp.mpf(float(x)) ** (m + 1) * lerch_oracle(b, x) for x in r]
    assert_matches(tail_sum(Bernardi(m, delta), r), oracle)


def test_lerch_kernel_temporaries_stay_under_one_mebibyte():
    # b = 1001 on the radius scan's last block (0.897 ... 0.999 and 1 - 1e-9),
    # below 0.9 and across the Bernoulli branch, and 1,000 points, which the
    # kernel takes 64 at a time: no temporary may grow with the batch
    for r in (radius._COARSE[896:], np.array([radius.SCAN_END]), np.linspace(0.9, 0.9989, 128),
              np.linspace(0.0, 0.9, 1000)):
        tracemalloc.start()
        try:
            AlphaCesaro(1000.0).phi0(r)
            Bernardi(1, 999.0).ratio(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


@pytest.mark.parametrize("b", [10.0, 10.5, 12.0, 64.0, 1e3, 8.04e4, 1e5, 1e6, 1e8])
def test_lerch_branches_for_large_b_match_mpmath(b):
    # the direct series up to 0.9, the Bernoulli-E_1 expansion up to 1 - 1/b
    # and the connection series above it, with no term limit at any b: the
    # direct series once took 39/(1-r) terms up to 1 - 1/b and raised past
    # 4e6 of them (b ~ 1e5); mpmath's hyp2f1 does not converge here at large b
    r = np.concatenate([[0.5, 0.9], np.linspace(0.905, 0.995, 4), 1.0 - np.logspace(-3, -9, 5),
                        [1.0 - 1.0 / b, np.nextafter(1.0 - 1.0 / b, 1.0), 1.0 - 1.45 / b]])
    r = r[r < 1.0]
    with mp.workdps(40):
        oracle = [mp.lerchphi(mp.mpf(float(x)), 1, mp.mpf(b)) for x in r]
    np.testing.assert_allclose(_kernels.lerch_phi(b, r), [float(x) for x in oracle], rtol=1e-14, atol=0.0)


def test_lerch_small_b_keeps_its_accuracy():
    # below b = 10 the branches are the direct and the connection series,
    # now summed one column per point: 2e-15 against 40 digits, as before
    rng = np.random.default_rng(34)
    for b in [*rng.uniform(0.001, 9.99, 12), 0.001, 9.99]:
        r = np.concatenate([rng.uniform(0.0, 0.9, 8), rng.uniform(0.9, 1.0, 8), 1.0 - np.logspace(-2, -9, 4)])
        with mp.workdps(40):
            oracle = [mp.hyp2f1(1, b, b + 1, mp.mpf(float(x))) / b for x in r]
        np.testing.assert_allclose(_kernels.lerch_phi(b, r), [float(x) for x in oracle], rtol=2e-15, atol=0.0)


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
def test_cesaro_count_bounds_the_tail_where_the_table_overflows(a, c, r):
    # at these p = 1 radii G_j(a) and r^k / G_k(c) overflow apart; the tail of
    # 2F1(a, 1; c; r) past J, t_(J+1) 2F1(a+J+1, 1; c+J+1; r) in 40 digits,
    # is under the ratio-test bound t_J rho/(1 - rho), and that under 1e-16
    count = _kernels.cesaro_count(a, c, r)
    if r == 0.0:
        assert count == 1
        return
    assert count >= 64 and count & (count - 1) == 0
    with mp.workdps(40):
        a_, c_, r_ = mp.mpf(a), mp.mpf(c), mp.mpf(r)

        def term(j):  # (a)_j / (c)_j r^j
            return mp.rf(a_, j) / mp.rf(c_, j) * r_ ** j

        tail = term(count + 1) * mp.hyp2f1(a_ + count + 1, 1, c_ + count + 1, r_)
        rho = r_ * max(1, (count + a_) / (count + c_))
        assert 0 < tail <= term(count) * rho / (1 - rho) < mp.mpf(1e-16)


def test_cesaro_count_is_the_doubling_rule():
    # the closed form takes the count that building the terms by one
    # cumulative product, doubling from 64, took; so the tables keep their bits
    # the two families' (a, c), (beta, 2) and (alpha+1, alpha+2), at r up to 0.999
    rng = np.random.default_rng(32)
    for _ in range(1000):
        if rng.random() < 0.5:
            a, c = 10 ** rng.uniform(-3, 2), 2.0
        else:
            a = 10 ** rng.uniform(-3, 4)
            c = a + 1.0
        r = float(rng.choice([0.0, rng.uniform(0.0, 0.999), 1.0 - 10 ** rng.uniform(-3, -1)]))
        assert _kernels.cesaro_count(a, c, r) == reference_cesaro_count(a, c, r), (a, c, r)


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
# the Blaschke kernel over a zero matrix: every row bit for bit its F = 1 call

def zero_matrix(zero_sets, pad=0j):
    """The kernel's input for zero_sets: the (F, S) matrix, each row padded
    with pad past its zeros, and the zero counts."""
    counts = [len(zeros) for zeros in zero_sets]
    zeros = np.full((len(zero_sets), max(counts, default=0)), pad, dtype=np.complex128)
    for row, z in zip(zeros, zero_sets):
        row[: len(z)] = z
    return zeros, counts


def series_of(zero_sets, rotations, order, gamma):
    return _kernels.blaschke_series(*zero_matrix(zero_sets), rotations, order, gamma)


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
    rows += EDGE_ROWS
    rotations = np.exp(2j * np.pi * rng.uniform(size=len(rows))).tolist()
    return rows, rotations


EDGE_ROWS = [[], [1 - 1e-9], [0.5j, 1 - 1e-9, 0.5j], [0.99 * np.exp(0.3j)] * 2, [], [0.0]]
NEAR = (65536, 0.9994028891177479)  # N = 2^16 and rho = 10^(-17/N) at orders up to 2047
# (N, rho) of the non-empty edge rows, pinned: a change to the plan rule shows here
EDGE_PLANS = {
    (0.0, 0): [NEAR, NEAR, (16384, 1.0), (8, 1.0)],
    (0.0, 40): [NEAR, NEAR, (16384, 1.0), (64, 1.0)],
    (0.0, 200): [NEAR, NEAR, (16384, 1.0), (256, 1.0)],
    (0.5, 0): [NEAR, NEAR, (8192, 1.0), (8, 1.0)],
    (0.5, 40): [NEAR, NEAR, (8192, 1.0), (64, 1.0)],
    (0.5, 200): [NEAR, NEAR, (8192, 1.0), (256, 1.0)],
    (0.95, 0): [NEAR, NEAR, (512, 1.0), (8, 1.0)],
    (0.95, 40): [NEAR, NEAR, (512, 1.0), (64, 1.0)],
    (0.95, 200): [NEAR, NEAR, (512, 1.0), (256, 1.0)],
}


@pytest.mark.parametrize("order", [0, 40, 200])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.95])
def test_blaschke_rows_match_single_rows_to_the_bit(gamma, order):
    zero_sets, rotations = blaschke_rows(gamma)
    got = series_of(zero_sets, rotations, order, gamma)
    assert got.shape == (len(zero_sets), order + 1)
    for zeros, rotation, row in zip(zero_sets, rotations, got):
        single = series_of([zeros], [rotation], order, gamma)
        assert single.shape == (1, order + 1)
        assert row.tobytes() == single[0].tobytes()
        if not zeros:
            expected = np.zeros(order + 1, dtype=np.complex128)
            expected[0] = rotation
            assert row.tobytes() == expected.tobytes()


@pytest.mark.parametrize("order", [0, 40, 200])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.95])
def test_blaschke_edge_rows_keep_their_plans(gamma, order):
    # the rho < 1 path, a double zero at 0.99 and a zero at the origin
    plans = [_kernels._fft_plan([abs(complex(a)) for a in zeros], gamma, order) for zeros in EDGE_ROWS if zeros]
    assert plans == EDGE_PLANS[gamma, order]


def reference_plan(moduli, gamma, order):
    """The documented plan rule for one row in scalar arithmetic: N is the
    least power of two >= order + 1 whose Cauchy alias bound on the circle
    of radius R = (W - gamma)/(1 - gamma), W = 1/sqrt(max|a|), is at most
    1e-17; past 2^16 points, or when that circle does not enclose the unit
    disk inside the poles, N = max(2^16, 32 (order+1)) rounded up to a power
    of two on rho = 10^(-17/N)."""
    n = 1 << order.bit_length()
    amax = max(max(moduli), 1e-8)
    wr = amax ** -0.5
    r = (wr - gamma) / (1.0 - gamma)
    if amax * wr < 1.0 and r > 1.0:
        bound = 1.0
        for x in moduli:
            bound *= (wr - x) / (1.0 - x * wr)
        need = (math.log(bound) + math.log(2e17)) / math.log(r)
        if need <= 1 << 16:
            while n < need:
                n *= 2
            return n, 1.0
    n = max(1 << 16, 1 << (32 * (order + 1) - 1).bit_length())
    return n, 10.0 ** (-17.0 / n)


def test_blaschke_plans_match_the_scalar_rule_on_a_seeded_sweep():
    # 12,000 rows of 1-5 zeros over gamma <= 0.99 and orders 0-600, a tenth
    # of the moduli within 1e-9 of 1, down to the last float below 1
    rng = np.random.default_rng(20261019)
    near_one = [1 - 1e-9, 1 - 1e-12, 1 - 1e-15, 1 - 2.0 ** -52, 1 - 2.0 ** -53, 0.0, 1e-9]
    rows = 0
    for _ in range(200):
        gamma = float(rng.choice([0.0, 0.25, 0.5, 0.75, 0.95, 0.99, rng.uniform(0.0, 0.99)]))
        order = int(rng.integers(0, 601))
        counts = rng.integers(1, 6, 60)
        width = int(counts.max())
        moduli = rng.uniform(0.0, 0.999, (60, width)) ** rng.uniform(0.2, 1.0, (60, width))
        moduli = np.where(rng.random((60, width)) < 0.1, rng.choice(near_one, (60, width)), moduli)
        zeros = moduli * np.exp(2j * np.pi * rng.random((60, width)))
        for row, n in zip(zeros.tolist(), counts.tolist()):
            moduli = [abs(a) for a in row[:n]]
            assert _kernels._fft_plan(moduli, gamma, order) == reference_plan(moduli, gamma, order)
            rows += 1
    assert rows >= 10_000


def test_blaschke_rows_do_not_depend_on_their_neighbours():
    zero_sets, rotations = blaschke_rows(0.5)
    whole = series_of(zero_sets, rotations, 200, 0.5)
    perm = np.random.default_rng(3).permutation(len(zero_sets))
    shuffled = series_of([zero_sets[i] for i in perm], [rotations[i] for i in perm], 200, 0.5)
    assert shuffled.tobytes() == whole[perm].tobytes()
    # nor on the padding past each row's zeros
    padded = _kernels.blaschke_series(*zero_matrix(zero_sets, pad=0.999 + 0.5j), rotations, 200, 0.5)
    assert padded.tobytes() == whole.tobytes()
    assert _kernels.blaschke_series(np.zeros((0, 5)), [], [], 200, 0.5).shape == (0, 201)


def test_blaschke_kernel_works_in_blocks_of_rows():
    # 480 rows at N = 256 sampled at once would hold about 2 MiB per
    # temporary, about 12 MiB in all; blocks of at most 2^12 samples keep the
    # whole pass under 1 MiB.  A row on the rho < 1 path has 2^16 samples and
    # runs alone, at the 4 MiB that one such row always needed.
    zero_sets, rotations = blaschke_rows(0.25)
    for rows, bound in ((zero_sets[:120] * 4, 1 << 20), ([[1 - 1e-9]] * 3, 5 << 20)):
        zeros, counts = zero_matrix(rows)
        tracemalloc.start()
        try:
            out = _kernels.blaschke_series(zeros, counts, (rotations[:120] * 4)[: len(rows)], 200, 0.25)
            peak = tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()
        assert peak <= bound
