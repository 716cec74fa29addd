"""Weighted Bohr sums, verification reports, extremal margins."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from bohrad import _kernels, bohr
from bohrad.bohr import extremal_margin, verify_up_to_radius
from bohrad.harness import SHARPNESS_OFFSET
from bohrad.radius import RadiusQuery, minimal_root
from bohrad.series import (
    BlaschkeComposed,
    CoefficientSeries,
    DomainParams,
    Extremal,
    Raw,
)
from bohrad.weights import (
    AlphaCesaro,
    Bernardi,
    BetaCesaro,
    CustomFamily,
    EvenPowers,
    Linear,
    LinearPlusOne,
    MonomialFamily,
    OddPowers,
    PowerTail,
    Quadratic,
    phi0,
    phi_k,
)
from oracles import RADIUS_DPS, mp_scaled, p_bound_check

BUILTINS = [
    PowerTail(1),
    EvenPowers(),
    OddPowers(),
    LinearPlusOne(1),
    Linear(1),
    Quadratic(1),
    BetaCesaro(1.0),
    AlphaCesaro(0.0),
    Bernardi(1, 1.0),
]


def scaled_sum(series, family, p, r):
    """t = |c_0|^p + sum |c_k| psi_k(r), the Bohr sum over phi_0 that
    verify_up_to_radius and extremal_margin read, from one row of family.scaled."""
    m = series.moduli()
    return float(m[0] ** p + m[1:] @ family.scaled(series.order, np.array([r]))[0][1:])


def scaled_sum_oracle(series, family, p, r):
    """Term-by-term summation through scalar phi_k over phi_0, apart from the
    scaled table; t = |c_0|^p where phi_0 = 0."""
    m = np.abs(series.coefficients)
    p0 = phi_k(family, 0, r)
    total = m[0] ** p
    for k in range(1, series.order + 1):
        total += m[k] * phi_k(family, k, r) / p0 if p0 else 0.0
    return total


class TestBohrSum:
    def test_unimodular_constant(self):
        s = CoefficientSeries([1.0]).padded(8)
        for fam in BUILTINS:
            for p in (0.5, 1.0, 2.0):
                assert scaled_sum(s, fam, p, 0.4) == 1.0

    def test_identity_function(self):
        s = CoefficientSeries([0.0, 1.0])
        assert scaled_sum(s, PowerTail(1), 1.0, 0.5) == pytest.approx(0.5, abs=1e-16)

    def test_extremal_below_one_at_classical_radius(self):
        # closed form: a + (1-a^2)/(3-a) at r = 1/3 for the unit disk
        for a in (0.5, 0.9, 0.99, 0.999):
            em = extremal_margin(DomainParams(0.0), a, PowerTail(1), 1.0, 1.0 / 3.0, order=400)
            closed = a + (1 - a * a) / (3 - a)
            assert 1.0 + em.margin == pytest.approx(closed, abs=1e-13)
            assert em.margin <= 1e-13
        # equality is approached as a -> 1
        assert 1.0 - (0.999 + (1 - 0.999 ** 2) / (3 - 0.999)) < 1e-3

    @pytest.mark.parametrize("family", BUILTINS, ids=str)
    def test_matches_scalar_oracle(self, family):
        rng = np.random.default_rng(5)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        s = CoefficientSeries(c / 10.0)
        for r in (0.0, 0.35, 0.8):
            got = scaled_sum(s, family, 1.0, r)
            assert got == pytest.approx(scaled_sum_oracle(s, family, 1.0, r), rel=1e-12, abs=1e-300)

    def test_monotone_in_r(self):
        series = Extremal(DomainParams(0.25), 0.8).coefficients(200)
        for fam in BUILTINS:
            vals = [scaled_sum(series, fam, 1.0, r) for r in np.linspace(0.0, 0.9, 15)]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError, match="p must be in"):
            extremal_margin(DomainParams(0.0), 0.5, PowerTail(1), 0.0, 0.5)


class TestVerifyUpToRadius:
    def test_plain_constant_passes(self):
        query = RadiusQuery(PowerTail(1), DomainParams(0.0), 1.0)
        rep = verify_up_to_radius(Raw(CoefficientSeries([0.7])), query, 1.0 / 3.0)
        assert rep.passed
        assert rep.max_excess == pytest.approx(-0.3, abs=1e-15)

    @pytest.mark.parametrize("family", BUILTINS, ids=str)
    def test_extremal_passes_at_computed_radius(self, family):
        query = RadiusQuery(family, DomainParams(0.3), 1.0)
        res = minimal_root(query)
        rep = verify_up_to_radius(Extremal(DomainParams(0.3), 0.95), query, res.radius)
        assert rep.passed
        assert rep.max_excess <= rep.tolerance + rep.truncation_bound

    def test_non_member_fails_at_value_level(self):
        # for p = 2, gamma = 0.9 the radius clears 1/2, where 2 phi_1 > phi_0
        query = RadiusQuery(PowerTail(1), DomainParams(0.9), 2.0)
        res = minimal_root(query)
        assert res.radius > 0.5
        rep = verify_up_to_radius(Raw(CoefficientSeries([0.0, 2.0])), query, res.radius)
        assert not rep.passed
        assert rep.max_excess > 0.1

    def test_report_invariants(self):
        query = RadiusQuery(OddPowers(), DomainParams(0.25), 1.0)
        res = minimal_root(query)
        rep = verify_up_to_radius(Extremal(DomainParams(0.25), 0.9), query, res.radius, grid_points=9)
        assert len(rep.radii) == len(rep.bohr_sums) == len(rep.phi0_values) == 9
        assert rep.passed == (rep.max_excess <= rep.tolerance + rep.truncation_bound)
        assert rep.truncation_bound >= 0.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        # a nan tol read passed=False; an infinite one passed every function
        query = RadiusQuery(PowerTail(1), DomainParams(0.0), 1.0)
        with pytest.raises(ValueError, match="tolerance must be finite"):
            verify_up_to_radius(Extremal(DomainParams(0.0), 0.9), query, 0.3, tol=tol)

    @pytest.mark.parametrize("points", [0, 1])
    def test_rejects_grid_of_fewer_than_two_points(self, points):
        # linspace(0, R, 1) is [0]: one point checked r = 0 alone and passed
        # the extremal map well past its radius
        query = RadiusQuery(PowerTail(1), DomainParams(0.0), 1.0)
        f = Extremal(DomainParams(0.0), 0.999)
        with pytest.raises(ValueError, match="grid_points must be >= 2"):
            verify_up_to_radius(f, query, 0.7, grid_points=points)
        assert not verify_up_to_radius(f, query, 0.7, grid_points=2).passed

    def test_negative_tolerance_still_accepted(self):
        query = RadiusQuery(PowerTail(1), DomainParams(0.0), 1.0)
        rep = verify_up_to_radius(Raw(CoefficientSeries([0.7])), query, 0.3, tol=-1.0)
        assert rep.tolerance == -1.0 and not rep.passed

    @pytest.mark.parametrize("family", BUILTINS, ids=str)
    def test_phi_matrix_reads_weights_unchecked(self, family, range_checks):
        # the grid lies inside [0, radius], which verify_up_to_radius checks:
        # the matrix and the allowance re-ran the range check 36 times a cell
        query = RadiusQuery(family, DomainParams(0.3), 1.0)
        bohr._phi_matrix.cache_clear()
        verify_up_to_radius(Extremal(DomainParams(0.3), 0.9), query, 0.31, grid_points=12)
        assert bohr._phi_matrix.cache_info().misses == 1
        assert range_checks == []

    @pytest.mark.parametrize("family", [PowerTail(1), BetaCesaro(7.3), Bernardi(2, 0.5)], ids=str)
    def test_phi_matrix_hands_out_read_only_scaled_arrays(self, family):
        # phi_0 over the grid and the k >= 1 block of the scaled table, which
        # every function of a suite cell shares
        radii, phi0s, block, allowance = bohr._phi_matrix(family, 0.3, 5, 10)
        assert phi0s.shape == (5,) and block.shape == (5, 10) and allowance > 0.0
        assert phi0s.tobytes() == family.phi0(radii).tobytes()
        assert block.tobytes() == family.scaled(10, radii)[:, 1:].tobytes()
        for array in (radii, phi0s, block):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_custom_phi0_may_be_a_scalar(self):
        # phi_0 once came from the table's column; a phi0_fn that returns a
        # float still gives phi_0 over the grid
        fam = CustomFamily(name="g", phi0_fn=lambda r: 1.0, phi_k_fn=lambda k, r: r ** k,
                           tail_fn=lambda r: r / (1.0 - r))
        rep = verify_up_to_radius(Extremal(DomainParams(0.0), 0.5), RadiusQuery(fam, DomainParams(0.0), 1.0), 0.3)
        assert rep.phi0_values.tolist() == [1.0] * 16 and rep.passed

    def test_raw_series_never_truncated(self):
        long_raw = Raw(CoefficientSeries(np.full(400, 1e-3)))
        query = RadiusQuery(PowerTail(1), DomainParams(0.0), 1.0)
        rep = verify_up_to_radius(long_raw, query, 0.3, order=200)
        assert rep.truncation_bound == 0.0
        assert rep.passed


class TestGivenModuli:
    # the suite hands verify_up_to_radius each function's row of the moduli
    # it built for a whole cell; the report must be the one verify builds
    # for itself

    def test_report_is_unchanged(self):
        dom = DomainParams(0.4)
        query = RadiusQuery(AlphaCesaro(0.5), dom, 1.0)
        radius = minimal_root(query).radius
        fns = [BlaschkeComposed(dom, (0.3 + 0.2j, -0.5), np.exp(0.4j)), BlaschkeComposed(dom, (), -1.0),
               BlaschkeComposed(dom, (0.7j,) * 3, 1.0)]
        zeros = np.zeros((len(fns), 3), dtype=np.complex128)
        for row, f in zip(zeros, fns):
            row[: len(f.zeros)] = f.zeros
        rows = np.abs(_kernels.blaschke_series(zeros, [len(f.zeros) for f in fns], [f.rotation for f in fns], 150, 0.4))
        for f, row in zip(fns, rows):
            own = verify_up_to_radius(f, query, radius, grid_points=9, order=150).to_dict()
            given = verify_up_to_radius(f, query, radius, grid_points=9, order=150, moduli=row).to_dict()
            assert given == own

    def test_raw_series_is_given_at_its_own_length(self):
        long_raw = Raw(CoefficientSeries(np.full(300, 1e-3)))
        query = RadiusQuery(PowerTail(1), DomainParams(0.0), 1.0)
        assert bohr.verification_order(long_raw, 200) == 299
        assert bohr.verification_order(long_raw, 400) == 400
        own = verify_up_to_radius(long_raw, query, 0.3, order=200)
        given = verify_up_to_radius(long_raw, query, 0.3, order=200, moduli=long_raw.series.moduli())
        assert given.to_dict() == own.to_dict()

    @pytest.mark.parametrize("order", [100, 201])
    def test_moduli_of_another_length_are_refused(self, order):
        f = Extremal(DomainParams(0.0), 0.9)
        query = RadiusQuery(PowerTail(1), DomainParams(0.0), 1.0)
        with pytest.raises(ValueError, match=f"moduli has {order + 1} entries; verification needs 201"):
            verify_up_to_radius(f, query, 0.3, moduli=f.coefficients(order).moduli())


def test_overflowing_weight_table_is_refused():
    # G_j(300) overflows in the beta-Cesaro table: phi_0 read nan, and the
    # CLI failed only when it came to serialize the report
    query = RadiusQuery(BetaCesaro(300.0), DomainParams(0.9), 1.0)
    radius = minimal_root(query).radius
    f = Raw(CoefficientSeries([0.5]))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(RuntimeError, match="beta-cesaro weight table overflowed"):
            verify_up_to_radius(f, query, radius)


@pytest.mark.parametrize("m", [640, 2_000, 10_000])
def test_bernardi_past_the_underflow_gets_a_verdict(m):
    # phi_0 at the radius is subnormal from m = 640 and 0 at m = 10^4: the raw
    # table was refused there.  psi_k = r^k (m+delta)/(k+m+delta) has no r^m,
    # and the extremal maps get their verdicts, with a relative excess
    query = RadiusQuery(Bernardi(m, 1.0), DomainParams(0.0), 1.0)
    t0 = time.perf_counter()
    radius = minimal_root(query).radius
    member = verify_up_to_radius(Extremal(DomainParams(0.0), 0.5), query, radius)
    beyond = verify_up_to_radius(Extremal(DomainParams(0.0), 0.999), query, radius + 0.05)
    assert time.perf_counter() - t0 < 1.0
    assert phi0(query.family, radius) < np.finfo(float).tiny
    assert member.passed and -0.21 < member.max_excess < -0.19
    assert not beyond.passed and beyond.max_excess > 1e-4


@pytest.mark.parametrize(
    "family",
    [BetaCesaro(1.0), BetaCesaro(7.3), AlphaCesaro(0.5), Bernardi(1, 1.0), Bernardi(3, 0.5),
     Bernardi(640, 1.0), Bernardi(10_000, 1.0)],
    ids=str,
)
def test_excess_matches_mpmath(family):
    # the excess max (|c_0|^p - 1 + sum |c_k| psi_k) over the grid, past the
    # radius so that it is positive, against 40-digit scaled weights
    query = RadiusQuery(family, DomainParams(0.0), 1.0)
    f = Extremal(DomainParams(0.0), 0.9)
    rep = verify_up_to_radius(f, query, minimal_root(query).radius + 0.05, grid_points=6, order=40)
    moduli = f.coefficients(40).moduli()
    with mp.workdps(RADIUS_DPS):
        excess = max(
            mp.mpf(moduli[0]) - 1 + mp.fsum(mp.mpf(c) * psi for c, psi in zip(moduli[1:], mp_scaled(family, 40, r)[1:]))
            for r in rep.radii.tolist()
        )
    assert rep.max_excess > 0.0
    assert abs(rep.max_excess - float(excess)) <= 1e-15


class TestExtremalMargin:
    def test_prediction_vanishes_at_the_root(self):
        query = RadiusQuery(PowerTail(1), DomainParams(0.2), 1.0)
        res = minimal_root(query)
        em = extremal_margin(DomainParams(0.2), 0.999, PowerTail(1), 1.0, res.radius)
        # the bracket is -p * gap(radius) scaled by (1-a)/(1-gamma)
        assert abs(em.first_order_prediction) <= 1e-11

    def test_margin_positive_beyond_radius_odd_family(self):
        dom = DomainParams(0.2)
        query = RadiusQuery(OddPowers(), dom, 1.0)
        res = minimal_root(query)
        em = extremal_margin(dom, 0.999, OddPowers(), 1.0, res.radius + 0.01)
        assert em.margin > 0.0

    def test_richardson_second_order(self):
        dom = DomainParams(0.0)
        consts = []
        for one_minus_a in (1e-2, 5e-3, 2.5e-3):
            em = extremal_margin(dom, 1 - one_minus_a, PowerTail(1), 1.0, 0.4)
            assert em.margin > 0.0
            consts.append(abs(em.margin - em.first_order_prediction) / one_minus_a ** 2)
        # halving 1-a leaves the (1-a)^2 coefficient essentially unchanged
        assert consts[1] == pytest.approx(consts[0], rel=0.05)
        assert consts[2] == pytest.approx(consts[1], rel=0.05)

    def test_rejects_a_not_above_gamma(self):
        with pytest.raises(ValueError):
            extremal_margin(DomainParams(0.5), 0.5, PowerTail(1), 1.0, 0.4)
        with pytest.raises(ValueError):
            extremal_margin(DomainParams(0.5), 0.3, PowerTail(1), 1.0, 0.4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a", [0.99, 0.999, 0.9999])
    @pytest.mark.parametrize("m", [640, 2_000, 10_000])
    def test_bernardi_past_the_underflow(self, m, a):
        # phi_0 just past the radius is 3e-300 at m = 640 and 0 from m = 2000:
        # the absolute sum read a margin of 1.3e-304 at m = 640 and 0.0, a
        # "fail", above it.  The scaled sum has no r^m, and matches a 40-digit
        # sum of the same moduli over psi
        family, dom = Bernardi(m, 1.0), DomainParams(0.0)
        r = minimal_root(RadiusQuery(family, dom, 1.0)).radius + SHARPNESS_OFFSET
        em = extremal_margin(dom, a, family, 1.0, r)
        moduli = Extremal(dom, a).coefficients(600).moduli()
        with mp.workdps(RADIUS_DPS):
            psi = mp_scaled(family, 600, r)
            exact = mp.mpf(moduli[0]) - 1 + mp.fsum(mp.mpf(c) * v for c, v in zip(moduli[1:], psi[1:]))
        assert phi0(family, r) < 1e-299
        assert em.margin > 0.0
        assert abs(em.margin - float(exact)) <= 1e-15

    @pytest.mark.parametrize("family", [f for f in BUILTINS if isinstance(f, MonomialFamily)], ids=str)
    def test_monomial_margin_is_the_absolute_sum(self, family):
        # phi_0 = 1, so psi is the table itself: the margin keeps the bits of
        # |c_0|^p phi_0 + sum |c_k| phi_k - phi_0 over family.vector
        for gamma in (0.0, 0.25, 0.5, 0.75):
            dom = DomainParams(gamma)
            for p in (0.5, 1.0, 2.0):
                r = minimal_root(RadiusQuery(family, dom, p)).radius + SHARPNESS_OFFSET
                for a in (0.99, 0.999, 0.9999):
                    moduli = Extremal(dom, a).coefficients(600).moduli()
                    v = family.vector(600, np.array([r]))[0]
                    absolute = moduli[0] ** p * v[0] + moduli[1:] @ v[1:] - v[0]
                    assert extremal_margin(dom, a, family, p, r).margin == absolute

    def test_cesaro_families_with_one_ac_have_one_margin(self):
        # beta = 1 and alpha = 0 are both (a, c) = (1, 2): one table, so one
        # margin to the bit, though phi_0 and the ratio come from other closed forms
        assert BetaCesaro(1.0).ac == AlphaCesaro(0.0).ac
        for gamma in (0.0, 0.25, 0.5, 0.75):
            dom = DomainParams(gamma)
            r = minimal_root(RadiusQuery(BetaCesaro(1.0), dom, 1.0)).radius + SHARPNESS_OFFSET
            for a in (0.99, 0.999, 0.9999):
                beta = extremal_margin(dom, a, BetaCesaro(1.0), 1.0, r)
                alpha = extremal_margin(dom, a, AlphaCesaro(0.0), 1.0, r)
                assert beta.margin == alpha.margin
                assert beta.first_order_prediction == pytest.approx(alpha.first_order_prediction, rel=1e-12)


class TestPBound:
    def test_equality_endpoint(self):
        assert p_bound_check(0.0, 2.0) == 0.0

    def test_arithmetic_value(self):
        assert p_bound_check(0.5, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_limit_towards_one(self):
        assert abs(p_bound_check(0.9999, 1.0)) < 1e-3

    def test_non_negative_on_grid(self):
        xs = np.linspace(0.0, 0.999, 1000)
        for p in np.linspace(0.1, 2.0, 20):
            assert np.min(p_bound_check(xs, p)) >= -1e-15

    def test_rejects_domain_violations(self):
        # nan passed the two-pass check: nan read nan, [0.2, nan] read [1/3, nan]
        for x in (1.0, -0.1, math.nan, [0.2, math.nan]):
            with pytest.raises(ValueError, match="x must lie in"):
                p_bound_check(x, 1.0)
        with pytest.raises(ValueError):
            p_bound_check(0.5, 2.5)


class TestInequalityInstances:
    @pytest.mark.parametrize("family", BUILTINS, ids=str)
    def test_random_members_pass_at_radius(self, family):
        from bohrad.harness import random_bounded_functions

        p = 1.0
        for gamma in (0.0, 0.5):
            dom = DomainParams(gamma)
            query = RadiusQuery(family, dom, p)
            res = minimal_root(query)
            rng = np.random.default_rng(11)
            for f in random_bounded_functions(dom, rng, 25):
                rep = verify_up_to_radius(f, query, res.radius, grid_points=8)
                assert rep.passed, (family, gamma, rep.max_excess)
