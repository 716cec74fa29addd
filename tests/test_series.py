"""Core series generators: extremal map, composed and disk Blaschke products."""

import json
import math
import time
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrad.bohr import verify_up_to_radius
from bohrad.cli import render_json
from bohrad.radius import RadiusQuery, minimal_root
from bohrad.series import (
    BlaschkeComposed,
    BoundedFunction,
    CoefficientSeries,
    DomainParams,
    Extremal,
    Raw,
    lemma_bound_report,
)
from bohrad.weights import AlphaCesaro, Bernardi, OddPowers, PowerTail


def blaschke_oracle(zeros, rotation, order):
    """Independent expansion: explicit geometric series per factor, then
    full polynomial convolution (quadratic cost, test-only)."""
    s = np.zeros(order + 1, dtype=np.complex128)
    s[0] = 1.0
    for a in zeros:
        geo = np.conj(a) ** np.arange(order + 1)  # 1/(1 - conj(a) z)
        factor = -a * geo
        factor[1:] += geo[:-1]  # (z - a) * geo
        s = np.convolve(s, factor)[: order + 1]
    return rotation * s


class TestExtremalCoefficients:
    def test_unit_disk_case(self):
        # gamma = 0 reduces to (a - z)/(1 - a z): c_k = -(1-a^2) a^(k-1)
        c = Extremal(DomainParams(0.0), 0.5).coefficients(2).coefficients
        np.testing.assert_allclose(c, [0.5, -0.75, -0.375], rtol=0, atol=1e-15)

    def test_a_equals_gamma_kills_constant_term(self):
        c = Extremal(DomainParams(0.5), 0.5).coefficients(0).coefficients
        assert c[0] == 0.0

    def test_first_coefficient_attains_membership_bound(self):
        # algebraic identity: (1-a g)^2 - (a-g)^2 = (1-a^2)(1-g^2)
        c = Extremal(DomainParams(0.2), 0.6).coefficients(1).coefficients
        lhs = abs(c[1])
        rhs = (1.0 - abs(c[0]) ** 2) / (1.0 + 0.2)
        assert lhs == pytest.approx(rhs, abs=1e-15)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("a", [0.05, 0.3, 0.6, 0.95])
    def test_equality_case_across_parameters(self, gamma, a):
        c = Extremal(DomainParams(gamma), a).coefficients(1).coefficients
        cap = (1.0 - abs(c[0]) ** 2) / (1.0 + gamma)
        assert abs(c[1]) == pytest.approx(cap, abs=1e-12)

    def test_a_zero_special_case(self):
        c = Extremal(DomainParams(0.3), 0.0).coefficients(4).coefficients
        np.testing.assert_allclose(c, [-0.3, -0.7, 0, 0, 0], atol=0)

    def test_rejects_a_outside_range(self):
        with pytest.raises(ValueError):
            Extremal(DomainParams(0.0), 1.0).coefficients(3)
        with pytest.raises(ValueError):
            Extremal(DomainParams(0.0), -0.1).coefficients(3)

    def test_matches_direct_evaluation(self):
        f = Extremal(DomainParams(0.4), 0.7)
        series = f.coefficients(300)
        for z in (0.2, -0.5, 0.3 + 0.4j):
            expected = f(z)
            got = series.evaluate(z)
            assert abs(got - expected) <= f.tail_bound(abs(z), 300) + 1e-14


def composed_taylor(zeros, rotation, gamma, order):
    """mpmath Taylor coefficients of the composed product at 40 digits."""
    g = mpmath.mpf(gamma)

    def f(z):
        w = (1 - g) * z + g
        val = mpmath.mpc(rotation)
        for a in zeros:
            a = mpmath.mpc(a)
            val *= (w - a) / (1 - mpmath.conj(a) * w)
        return val

    with mpmath.workdps(40):
        return np.array([complex(c) for c in mpmath.taylor(f, 0, order)])


def recurrence_oracle(zeros, rotation, gamma, order):
    """Coefficients at 40 digits from the factor recurrence, free of aliasing:
    the factor (u + v z)/(1 - q z) maps s to y_n = q y_(n-1) + u s_n + v s_(n-1)."""
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        s = [mpmath.mpc(rotation)] + [mpmath.mpc(0)] * order
        for a in zeros:
            a = mpmath.mpc(a)
            d = 1 - mpmath.conj(a) * g
            u, v = (g - a) / d, (1 - g) / d
            q = mpmath.conj(a) * v
            y, prev = [], 0
            for n in range(order + 1):
                prev = q * prev + u * s[n] + (v * s[n - 1] if n else 0)
                y.append(prev)
            s = y
        return np.array([complex(c) for c in s])


class TestAliasing:
    # the coefficients come from one FFT of samples on a circle, which folds
    # c_(k+mN) onto c_k: high orders and zeros near the circle would show a
    # grid that is too coarse or a radius that is too small

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.95])
    @pytest.mark.parametrize("modulus", [0.8, 0.99, 1 - 1e-12])
    @pytest.mark.parametrize("order", [200, 3000])
    def test_matches_recurrence_oracle(self, order, modulus, gamma):
        a = modulus * np.exp(0.7j)
        zeros = (a, a, -0.5 + 0.1j)  # a repeated zero is the worst case
        f = BlaschkeComposed(DomainParams(gamma), zeros, np.exp(0.3j))
        expected = recurrence_oracle(zeros, np.exp(0.3j), gamma, order)
        np.testing.assert_allclose(f.coefficients(order).coefficients, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gamma", [0.0, 0.95])
    @pytest.mark.parametrize("modulus", [1 - 1e-12, math.nextafter(1.0, 0.0)])
    def test_zero_near_circle_is_fast(self, modulus, gamma):
        f = BlaschkeComposed(DomainParams(gamma), (modulus * 1j, modulus * 1j), 1.0)
        start = time.perf_counter()
        c = f.coefficients(3000).coefficients
        assert time.perf_counter() - start < 0.5
        assert np.abs(c).max() <= 1.0 + 1e-14

    @given(st.floats(0.0, 0.99), st.floats(0, 2 * np.pi), st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_zero_free_product_is_exact(self, gamma, theta, order):
        rotation = np.exp(1j * theta)
        expected = np.zeros(order + 1, dtype=np.complex128)
        expected[0] = rotation
        f = BlaschkeComposed(DomainParams(gamma), (), rotation)
        np.testing.assert_array_equal(f.coefficients(order).coefficients, expected)


class TestComposedBlaschke:
    def test_identity_function(self):
        # a single zero at the origin leaves w = (1-gamma) z + gamma itself
        out = BlaschkeComposed(DomainParams(0.3), (0.0,), 1.0).coefficients(3)
        np.testing.assert_allclose(out.coefficients, [0.3, 0.7, 0.0, 0.0], atol=1e-15)

    def test_gamma_zero_is_identity(self):
        # at gamma = 0 the affine map is the identity: the plain disk product
        zeros, rotation = (0.5, 0.2j, -0.7 + 0.1j), np.exp(0.4j)
        out = BlaschkeComposed(DomainParams(0.0), zeros, rotation).coefficients(40)
        expected = blaschke_oracle(zeros, rotation, 40)
        np.testing.assert_allclose(out.coefficients, expected, rtol=0, atol=1e-14)

    @given(
        st.lists(st.complex_numbers(max_magnitude=0.95, allow_nan=False), max_size=5),
        st.floats(0, 2 * np.pi),
    )
    @settings(max_examples=50, deadline=None)
    def test_gamma_zero_identity_property(self, zeros, theta):
        rotation = np.exp(1j * theta)
        out = BlaschkeComposed(DomainParams(0.0), tuple(zeros), rotation).coefficients(30)
        expected = blaschke_oracle(zeros, rotation, 30)
        np.testing.assert_allclose(out.coefficients, expected, rtol=0, atol=1e-12)

    def test_disk_automorphism_reproduces_extremal(self):
        # -(w - a)/(1 - a w) = (a - w)/(1 - a w) composed with w is the
        # extremal map, term for term
        for gamma in (0.0, 0.35, 0.9):
            for a in (0.0, 0.6, 0.99):
                domain = DomainParams(gamma)
                composed = BlaschkeComposed(domain, (a,), -1.0).coefficients(200)
                expected = Extremal(domain, a).coefficients(200)
                np.testing.assert_allclose(
                    composed.coefficients, expected.coefficients, rtol=0, atol=1e-15
                )

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 0.99), st.floats(0, 2 * np.pi), st.integers(1, 3)),
            max_size=3,
        ),
        st.floats(0.0, 0.95),
        st.floats(0, 2 * np.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_mpmath_taylor(self, spec, gamma, theta):
        # each drawn zero repeats 1-3 times: repeated zeros are the worst case
        zeros = tuple(rad * np.exp(1j * ang) for rad, ang, times in spec for _ in range(times))
        rotation = np.exp(1j * theta)
        got = BlaschkeComposed(DomainParams(gamma), zeros, rotation).coefficients(40)
        expected = composed_taylor(zeros, rotation, gamma, 40)
        np.testing.assert_allclose(got.coefficients, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("gamma", [0.5, 0.9])
    def test_series_within_tail_bound_near_circle(self, gamma):
        # blaschke:0.99 in the CLI; truncating before composing put errors of
        # 4.0e-3 (gamma 0.5) and 1.3e-2 (gamma 0.9) on the coefficients,
        # far above a tail bound near 1e-62 at |z| = 0.5 and 1e-9 at 0.9
        f = BlaschkeComposed(DomainParams(gamma), (0.99,), 1.0)
        series = f.coefficients(200)
        for z in (0.5, -0.5, 0.3 + 0.4j, 0.9, -0.9j, 0.6 + 0.6j):
            err = abs(series.evaluate(z) - f(z))
            assert err <= f.tail_bound(abs(z), 200) + 1e-14


class TestCoefficientCap:
    @pytest.mark.parametrize("gamma", [0.5, 0.9])
    @pytest.mark.parametrize(
        "zeros", [(0.99,), (0.3 + 0.2j, -0.6, 0.1j), (0.8j, 0.8j, -0.5)]
    )
    def test_cap_is_closed_form_and_bounds_coefficients(self, gamma, zeros):
        # the cap uses f(0) = B(gamma), not B(0): (1 - |B(gamma)|^2)/(1 + gamma)
        f = BlaschkeComposed(DomainParams(gamma), zeros, np.exp(0.3j))
        b_gamma = np.exp(0.3j) * np.prod([(gamma - a) / (1 - np.conj(a) * gamma) for a in zeros])
        cap = f.cap()
        assert cap == pytest.approx((1 - abs(b_gamma) ** 2) / (1 + gamma), rel=1e-14)
        c = f.coefficients(200).coefficients
        assert np.max(np.abs(c[1:])) <= cap * (1 + 1e-12)

    def test_single_zero_attains_cap(self):
        # blaschke:0.99 at gamma 0.9: the cap read 0.0105 from B(0), under |c_1| = 0.1675
        f = BlaschkeComposed(DomainParams(0.9), (0.99,), 1.0)
        c1 = abs(f.coefficients(1).coefficients[1])
        assert f.cap() == pytest.approx(c1, rel=1e-12)
        assert c1 == pytest.approx(0.1675, abs=1e-4)


class TestBlaschkeCoefficients:
    def test_empty_product(self):
        c = BlaschkeComposed(DomainParams(0.0), (), 1.0).coefficients(3).coefficients
        np.testing.assert_array_equal(c, [1, 0, 0, 0])

    def test_zero_at_origin(self):
        c = BlaschkeComposed(DomainParams(0.0), (0.0,), 1.0).coefficients(2).coefficients
        np.testing.assert_allclose(c, [0, 1, 0], atol=1e-16)

    def test_half_zero_expansion(self):
        c = BlaschkeComposed(DomainParams(0.0), (0.5,), 1.0).coefficients(2).coefficients
        np.testing.assert_allclose(c, [-0.5, 0.75, 0.375], atol=1e-15)

    def test_rejects_zero_on_circle(self):
        with pytest.raises(ValueError):
            BlaschkeComposed(DomainParams(0.0), (1.0,), 1.0)

    def test_rejects_non_unimodular_rotation(self):
        with pytest.raises(ValueError):
            BlaschkeComposed(DomainParams(0.0), (0.2,), 0.5)

    # abs(z) >= 1 and |abs(rotation) - 1| > 1e-12 were both false for nan, so a
    # nan zero or rotation was accepted and its cap() and coefficients were nan
    @pytest.mark.parametrize("zero", [complex("nan"), complex(0.3, float("nan"))], ids=["nan", "nan-imag"])
    def test_rejects_nan_zero(self, zero):
        with pytest.raises(ValueError, match="must lie strictly inside the unit disk"):
            BlaschkeComposed(DomainParams(0.0), (0.2, zero), 1.0)

    def test_rejects_nan_rotation(self):
        with pytest.raises(ValueError, match="rotation must be unimodular"):
            BlaschkeComposed(DomainParams(0.0), (0.2,), complex("nan"))

    @given(
        st.lists(st.complex_numbers(max_magnitude=0.8, allow_nan=False), max_size=5),
        st.floats(0, 2 * np.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_convolution_oracle(self, zeros, theta):
        rotation = np.exp(1j * theta)
        got = BlaschkeComposed(DomainParams(0.0), tuple(zeros), rotation).coefficients(40).coefficients
        expected = blaschke_oracle(zeros, rotation, 40)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_partial_sums_bounded_on_disk(self):
        # sup-norm sanity: truncated series stays within 1 plus the tail room
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = rng.integers(0, 6)
            zeros = 0.8 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
            order = 3000
            c = BlaschkeComposed(DomainParams(0.0), zeros, 1.0).coefficients(order).coefficients
            for rad in (0.3, 0.6, 0.9, 0.99):
                z = rad * np.exp(2j * np.pi * rng.uniform())
                val = np.polyval(c[::-1], z)
                slack = rad ** (order + 1) / (1.0 - rad)
                assert abs(val) <= 1.0 + slack + 1e-12


class TestCoefficientsMethod:
    def test_extremal_dispatch(self):
        got = Extremal(DomainParams(0.0), 0.5).coefficients(2).coefficients
        np.testing.assert_allclose(got, [0.5, -0.75, -0.375], atol=1e-15)

    def test_raw_padding(self):
        got = Raw(CoefficientSeries([0.25])).coefficients(3).coefficients
        np.testing.assert_array_equal(got, [0.25, 0, 0, 0])

    def test_blaschke_composed_gamma_zero(self):
        f = BlaschkeComposed(DomainParams(0.0), (0.5,), 1.0)
        got = f.coefficients(2).coefficients
        expected = blaschke_oracle([0.5], 1.0, 2)
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_composition_consistency(self):
        # series evaluation agrees with the closed form within the tail bound
        f = BlaschkeComposed(DomainParams(0.45), (0.3 + 0.2j, -0.6, 0.1j), np.exp(0.7j))
        series = f.coefficients(260)
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            err = abs(series.evaluate(z) - f(z))
            assert err <= f.tail_bound(abs(z), 260) + 1e-13


class TestLemmaBoundReport:
    def test_constant_series_vacuous(self):
        rep = lemma_bound_report(CoefficientSeries([0.9]), DomainParams(0.3))
        assert rep.max_violation == 0.0
        assert rep.worst_index == -1

    def test_extremal_attains_equality_at_first_index(self):
        series = Extremal(DomainParams(0.2), 0.6).coefficients(20)
        rep = lemma_bound_report(series, DomainParams(0.2))
        assert rep.worst_index == 1
        assert abs(rep.max_violation) <= 1e-12

    def test_flags_non_member(self):
        rep = lemma_bound_report(CoefficientSeries([0.0, 2.0]), DomainParams(0.0))
        assert rep.max_violation == pytest.approx(1.0, abs=1e-15)
        assert rep.worst_index == 1

    def test_reports_large_constant_term(self):
        # |c_0| > 1: no candidate member, reported as the excess |c_0| - 1 at index 0
        for coefficients in ([1.5], [1.5, 0.0], [-1.5j, 3.0]):
            rep = lemma_bound_report(CoefficientSeries(coefficients), DomainParams(0.3))
            assert rep.max_violation == 0.5
            assert rep.worst_index == 0
            assert not rep.ok

    def test_screen_verdict(self):
        assert lemma_bound_report(CoefficientSeries([1.0, 0.0]), DomainParams(0.0)).ok
        assert lemma_bound_report(CoefficientSeries([0.0, 1.0 + 5e-11]), DomainParams(0.0)).ok
        assert not lemma_bound_report(CoefficientSeries([0.0, 1.0 + 1e-9]), DomainParams(0.0)).ok
        assert not lemma_bound_report(CoefficientSeries([1.0 + 1e-11]), DomainParams(0.0)).ok

    @given(
        st.lists(st.complex_numbers(max_magnitude=0.8, allow_nan=False), max_size=5),
        st.floats(0.0, 0.95),
        st.floats(0, 2 * np.pi),
    )
    @settings(max_examples=80, deadline=None)
    def test_blaschke_members_always_satisfy_bound(self, zeros, gamma, theta):
        f = BlaschkeComposed(DomainParams(gamma), tuple(zeros), np.exp(1j * theta))
        series = f.coefficients(150)
        rep = lemma_bound_report(series, DomainParams(gamma))
        assert rep.max_violation <= 1e-10


class TestCoefficientSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CoefficientSeries([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CoefficientSeries([1.0, np.nan])
        with pytest.raises(ValueError):
            CoefficientSeries([np.inf])

    def test_order_and_padding(self):
        s = CoefficientSeries([1, 2, 3])
        assert s.order == 2
        assert s.padded(4).order == 4
        assert s.padded(1).order == 1
        np.testing.assert_array_equal(s.padded(1).coefficients, [1, 2])


@dataclass(frozen=True)
class Power(BoundedFunction):
    """f = ((1-gamma) z + gamma)^n, the power w^n composed onto Omega(gamma):
    a test-function kind defined only here."""

    domain: DomainParams
    n: int

    def coefficients(self, order):
        g, n = self.domain.gamma, self.n
        return CoefficientSeries(
            [math.comb(n, k) * (1 - g) ** k * g ** (n - k) if k <= n else 0.0 for k in range(order + 1)]
        )

    def __call__(self, z):
        return ((1.0 - self.domain.gamma) * z + self.domain.gamma) ** self.n

    def descriptor(self):
        return {"kind": "power", "gamma": self.domain.gamma, "n": self.n}


POWERS = [Power(DomainParams(g), n) for g in (0.0, 0.3, 0.75) for n in (1, 2, 5)]


class TestNewKindIsOneClass:
    @pytest.mark.parametrize("f", POWERS, ids=repr)
    def test_coefficients_are_binomial(self, f):
        g = f.domain.gamma
        expected = np.zeros(9)
        expected[: f.n + 1] = np.polynomial.polynomial.polypow([g, 1 - g], f.n)
        np.testing.assert_allclose(f.coefficients(8).coefficients, expected, rtol=1e-14, atol=1e-16)

    @pytest.mark.parametrize("f", POWERS, ids=repr)
    def test_cap_bounds_every_coefficient(self, f):
        cap = f.cap()
        assert cap == pytest.approx((1 - f.domain.gamma ** (2 * f.n)) / (1 + f.domain.gamma), rel=1e-14)
        assert np.all(np.abs(f.coefficients(20).coefficients[1:]) <= cap * (1 + 1e-12))
        assert f.tail_bound(0.5, 2) == pytest.approx(cap * 0.5 ** 3 / 0.5, rel=1e-15)

    @pytest.mark.parametrize("family", [PowerTail(1), OddPowers(), AlphaCesaro(0.0), Bernardi(1, 1.0)], ids=repr)
    def test_verifies_up_to_radius(self, family):
        for f in POWERS:
            query = RadiusQuery(family, f.domain, 1.0)
            report = verify_up_to_radius(f, query, minimal_root(query).radius)
            assert report.passed

    def test_descriptor_renders(self):
        f = Power(DomainParams(0.25), 3)
        assert json.loads(render_json(f.descriptor())) == {"kind": "power", "gamma": 0.25, "n": 3}
