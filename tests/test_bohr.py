"""Weighted Bohr sums, verification reports, extremal margins."""

import math

import numpy as np
import pytest

from bohrad import _kernels, bohr
from bohrad.bohr import bohr_sum, extremal_margin, verify_up_to_radius
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
    EvenPowers,
    Linear,
    LinearPlusOne,
    OddPowers,
    PowerTail,
    Quadratic,
    phi0,
    phi_k,
)
from oracles import p_bound_check

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


def bohr_sum_oracle(series, family, p, r):
    """Term-by-term summation through scalar phi_k, apart from bohr_sum's matrix product."""
    m = np.abs(series.coefficients)
    total = m[0] ** p * phi_k(family, 0, r)
    for k in range(1, series.order + 1):
        total += m[k] * phi_k(family, k, r)
    return total


class TestBohrSum:
    def test_unimodular_constant(self):
        s = CoefficientSeries([1.0])
        for fam in BUILTINS:
            for p in (0.5, 1.0, 2.0):
                assert bohr_sum(s, fam, p, 0.4) == pytest.approx(phi0(fam, 0.4), abs=1e-15)

    def test_identity_function(self):
        s = CoefficientSeries([0.0, 1.0])
        assert bohr_sum(s, PowerTail(1), 1.0, 0.5) == pytest.approx(0.5, abs=1e-16)

    def test_extremal_below_one_at_classical_radius(self):
        # closed form: a + (1-a^2)/(3-a) at r = 1/3 for the unit disk
        for a in (0.5, 0.9, 0.99, 0.999):
            series = Extremal(DomainParams(0.0), a).coefficients(400)
            got = bohr_sum(series, PowerTail(1), 1.0, 1.0 / 3.0)
            closed = a + (1 - a * a) / (3 - a)
            assert got == pytest.approx(closed, abs=1e-13)
            assert got <= 1.0 + 1e-13
        # equality is approached as a -> 1
        assert 1.0 - (0.999 + (1 - 0.999 ** 2) / (3 - 0.999)) < 1e-3

    @pytest.mark.parametrize("family", BUILTINS, ids=str)
    def test_matches_scalar_oracle(self, family):
        rng = np.random.default_rng(5)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        s = CoefficientSeries(c / 10.0)
        for r in (0.0, 0.35, 0.8):
            got = bohr_sum(s, family, 1.0, r)
            assert got == pytest.approx(bohr_sum_oracle(s, family, 1.0, r), rel=1e-12, abs=1e-300)

    def test_monotone_in_r(self):
        series = Extremal(DomainParams(0.25), 0.8).coefficients(200)
        for fam in BUILTINS:
            vals = [bohr_sum(series, fam, 1.0, r) for r in np.linspace(0.0, 0.9, 15)]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            bohr_sum(CoefficientSeries([1.0]), PowerTail(1), 0.0, 0.5)


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

    def test_phi_matrix_hands_out_read_only_views_of_one_table(self):
        radii, phi0, block, allowance = bohr._phi_matrix(PowerTail(1), 0.3, 5, 10)
        assert phi0.shape == (5,) and block.shape == (5, 10) and allowance > 0.0
        assert phi0.base is block.base is not None  # the phi_0 column and the k >= 1 block of one table
        for array in (radii, phi0, block):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.5

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


def test_underflowed_weight_table_is_refused():
    # at m = 640 phi_0 at the radius is subnormal and the whole table reads
    # about 1e-309 or 0: every Bohr sum passed, with a truncation bound of 1e-323
    query = RadiusQuery(Bernardi(640, 1.0), DomainParams(0.0), 1.0)
    radius = minimal_root(query).radius
    f = Extremal(DomainParams(0.0), 0.5)
    with pytest.raises(RuntimeError, match=r"bernardi weight table underflowed: phi_0\(0.3338"):
        verify_up_to_radius(f, query, radius)
    # at m = 600 it is normal, and the check runs
    query = RadiusQuery(Bernardi(600, 1.0), DomainParams(0.0), 1.0)
    assert verify_up_to_radius(f, query, minimal_root(query).radius).phi0_values[-1] > 0.0


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
