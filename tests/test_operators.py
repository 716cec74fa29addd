"""Integral operators: coefficient form vs the integral-form oracle, bounds, radii."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from bohrad._kernels import rising_ratios
from bohrad.operators import (
    apply_coefficient_form,
    operator_bohr_radius,
    operator_bound,
)
from bohrad.series import CoefficientSeries, DomainParams
from bohrad.weights import AlphaCesaro, Bernardi, BetaCesaro
from oracles import integral_form_oracle


def random_member_series(seed, order=300):
    from bohrad.harness import random_bounded_functions

    rng = np.random.default_rng(seed)
    f = random_bounded_functions(DomainParams(0.0), rng, 1)[0]
    return f.coefficients(order)


class TestRatioRecurrences:
    # rising_ratios(n, x)[j] = Gamma(j+x) / (Gamma(j+1) Gamma(x)) = (x)_j / j!:
    # G_j(beta) for the beta-Cesaro operator, A_j = G_j(alpha+1) for alpha-Cesaro

    def test_gamma_ratio_base_cases(self):
        np.testing.assert_allclose(rising_ratios(2, 2.7), [1.0, 2.7, 2.7 * 3.7 / 2.0], rtol=1e-15)
        assert rising_ratios(0, 2.7).tolist() == [1.0]

    def test_gamma_ratio_is_one_for_beta_one(self):
        for j in (0, 1, 5, 100):
            assert rising_ratios(j, 1.0).tolist() == [1.0] * (j + 1)

    def test_gamma_ratio_large_index_no_overflow(self):
        # naive Gamma(j+beta)/Gamma(j+1) overflows near j ~ 170; the
        # recurrence must match the log-Gamma oracle far beyond that
        for j, beta in ((500, 1.5), (2000, 3.2), (170, 0.4)):
            v = rising_ratios(j, beta)[-1]
            assert np.isfinite(v)
            expected = math.exp(math.lgamma(j + beta) - math.lgamma(j + 1.0) - math.lgamma(beta))
            assert v == pytest.approx(expected, rel=1e-11)

    def test_pochhammer_base_cases(self):
        # alpha = 0: A_k = 1; alpha = 1: A_k = k + 1
        assert rising_ratios(7, 1.0)[-1] == 1.0
        for k in (0, 1, 4, 19):
            assert rising_ratios(k, 2.0)[-1] == pytest.approx(k + 1.0)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7, 2.0])
    def test_pochhammer_cumulative_identity(self, alpha):
        # sum_{k<=n} A_k^alpha = A_n^(alpha+1)
        a = rising_ratios(50, alpha + 1.0)
        a_up = rising_ratios(50, alpha + 2.0)
        np.testing.assert_allclose(np.cumsum(a), a_up, rtol=1e-12)

    def test_pochhammer_generating_function(self):
        # sum_k A_k^alpha z^k = (1-z)^(-(1+alpha)): pins down the index
        # convention of A_k
        z = 0.4
        for alpha in (-0.5, 0.3, 2.0):
            a = rising_ratios(200, alpha + 1.0)
            s = float(np.sum(a * z ** np.arange(201)))
            assert s == pytest.approx((1 - z) ** (-(1 + alpha)), rel=1e-13)


class TestCoefficientForm:
    def test_beta_one_row_averages(self):
        ones = CoefficientSeries(np.ones(40))
        out = apply_coefficient_form(BetaCesaro(1.0), ones)
        np.testing.assert_allclose(out.coefficients, np.ones(40), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
    def test_alpha_row_sums_normalized(self, alpha):
        ones = CoefficientSeries(np.ones(40))
        out = apply_coefficient_form(AlphaCesaro(alpha), ones)
        np.testing.assert_allclose(out.coefficients, np.ones(40), rtol=1e-14)

    def test_bernardi_divides_by_shifted_index(self):
        c = np.zeros(10)
        c[1:] = 1.0
        out = apply_coefficient_form(Bernardi(1, 1.0), CoefficientSeries(c))
        expected = np.zeros(10)
        expected[1:] = 1.0 / (np.arange(1, 10) + 1.0)
        np.testing.assert_allclose(out.coefficients, expected, atol=1e-16)

    def test_bernardi_rejects_low_order_terms(self):
        with pytest.raises(ValueError):
            apply_coefficient_form(Bernardi(2, 0.5), CoefficientSeries([0.0, 1.0, 1.0]))

    def test_beta_transform_against_double_sum(self):
        series = random_member_series(3, order=30)
        out = apply_coefficient_form(BetaCesaro(0.7), series)
        g = rising_ratios(30, 0.7)
        for n in (0, 5, 17, 30):
            expected = sum(g[n - k] * series.coefficients[k] for k in range(n + 1)) / (n + 1)
            assert out.coefficients[n] == pytest.approx(expected, rel=1e-13)


class TestIntegralForm:
    # the closed-form cases check the oracle itself; the agreement cases play
    # the coefficient transform against it

    def test_beta_one_constant_input(self):
        got = integral_form_oracle(BetaCesaro(1.0), lambda w: 1.0, 0.5)
        assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_beta_two_constant_input(self):
        got = integral_form_oracle(BetaCesaro(2.0), lambda w: 1.0, 0.5)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_bernardi_monomial(self):
        z = 0.3 + 0.4j
        got = integral_form_oracle(Bernardi(1, 2.0), lambda w: w, z)
        assert got == pytest.approx(z / 3.0, abs=1e-13)

    @pytest.mark.parametrize("spec", [AlphaCesaro(50.0), BetaCesaro(40.0), AlphaCesaro(-0.99)], ids=str)
    def test_stiff_integrand_near_one(self, spec):
        # T 1(r) = 2F1(a, 1; c; r); a Gauss-Jacobi rule of this form was off
        # by 1.7e-5 at alpha = 50, r = 0.9999
        a, c = spec.ac
        for r in (0.999, 0.9999):
            with mp.workdps(40):
                exact = float(mp.hyp2f1(a, 1, c, r))
            assert integral_form_oracle(spec, lambda w: 1.0, r) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("spec", [BetaCesaro(0.5), BetaCesaro(1.0), BetaCesaro(2.0)], ids=str)
    def test_beta_coefficient_integral_agreement(self, spec):
        series = random_member_series(17)
        transformed = apply_coefficient_form(spec, series)
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = 0.6 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            via_coeff = transformed.evaluate(z)
            via_quad = integral_form_oracle(spec, series.evaluate, z)
            assert abs(via_coeff - via_quad) <= 1e-13

    @pytest.mark.parametrize("spec", [AlphaCesaro(-0.5), AlphaCesaro(0.0), AlphaCesaro(1.0)], ids=str)
    def test_alpha_coefficient_integral_agreement(self, spec):
        series = random_member_series(23)
        transformed = apply_coefficient_form(spec, series)
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = 0.6 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            via_coeff = transformed.evaluate(z)
            via_quad = integral_form_oracle(spec, series.evaluate, z)
            assert abs(via_coeff - via_quad) <= 1e-13

    @pytest.mark.parametrize("m,delta", [(1, 1.0), (2, 0.5)])
    def test_bernardi_coefficient_integral_agreement(self, m, delta):
        spec = Bernardi(m, delta)
        base = random_member_series(29)
        shifted = CoefficientSeries(
            np.concatenate([np.zeros(m), base.coefficients[: base.order + 1 - m]])
        )
        transformed = apply_coefficient_form(spec, shifted)
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = 0.6 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            via_coeff = transformed.evaluate(z)
            via_quad = integral_form_oracle(spec, shifted.evaluate, z)
            assert abs(via_coeff - via_quad) <= 1e-13

    def test_bernardi_endpoint_singularity(self):
        # delta < 1 makes t^(delta-1) blow up at 0; the substitution absorbs it
        spec = Bernardi(1, -0.5)
        got = integral_form_oracle(spec, lambda w: w, 0.5)
        assert got == pytest.approx(0.5 / (1 - 0.5), abs=1e-12)  # z/(m+delta)


class TestOperatorBound:
    def test_beta_one_log_bound(self):
        assert operator_bound(BetaCesaro(1.0), 0.5) == pytest.approx(2 * math.log(2), abs=1e-14)

    def test_bernardi_bound(self):
        assert operator_bound(Bernardi(2, 1.0), 0.5) == pytest.approx(0.25 / 3.0, abs=1e-16)

    def test_alpha_zero_matches_beta_one(self):
        assert operator_bound(AlphaCesaro(0.0), 0.5) == pytest.approx(
            operator_bound(BetaCesaro(1.0), 0.5), abs=1e-13
        )

    def test_continuity_across_beta_one(self):
        for r in (0.2, 0.5, 0.8):
            log_branch = operator_bound(BetaCesaro(1.0), r)
            assert operator_bound(BetaCesaro(1.0 + 1e-6), r) == pytest.approx(log_branch, abs=1e-5)
            assert operator_bound(BetaCesaro(1.0 - 1e-6), r) == pytest.approx(log_branch, abs=1e-5)

    @pytest.mark.parametrize("spec", [BetaCesaro(0.5), BetaCesaro(1.0), BetaCesaro(2.0),
                                      AlphaCesaro(-0.5), AlphaCesaro(0.0)], ids=str)
    def test_bound_attained_by_constant_one(self, spec):
        for r in (0.25, 0.5, 0.75):
            got = integral_form_oracle(spec, lambda w: 1.0, r)
            assert abs(got.imag) < 1e-13
            assert got.real == pytest.approx(operator_bound(spec, r), abs=1e-10)

    def test_bernardi_bound_attained_by_monomial(self):
        spec = Bernardi(2, 0.5)
        r = 0.6
        got = integral_form_oracle(spec, lambda w: w ** 2, r)
        assert abs(got) == pytest.approx(operator_bound(spec, r), abs=1e-12)

    def test_rejects_r_outside_open_interval(self):
        with pytest.raises(ValueError):
            operator_bound(BetaCesaro(1.0), 0.0)
        with pytest.raises(ValueError):
            operator_bound(BetaCesaro(1.0), 1.0)


RADIUS_SPECS = [
    BetaCesaro(0.5), BetaCesaro(1.0), BetaCesaro(2.0), AlphaCesaro(-0.5),
    AlphaCesaro(0.0), AlphaCesaro(1.0), Bernardi(1, 1.0), Bernardi(2, 0.5),
]


def printed_equation_oracle(spec, gamma, x):
    """lhs - rhs of spec.radius_equation(gamma, x) in 30-digit arithmetic, from 2F1 closed forms (DLMF 15.2).

    beta:     (3+gamma) 2F1(beta, 1; 2; x) - 2 [(1-x)^(-beta) - 1] / (beta x)
    alpha:    (3+gamma) 2F1(1, alpha+1; alpha+2; x) - 2/(1-x)
    Bernardi: (1+gamma)/(m+delta) - 2 x/(m+1+delta) 2F1(1, m+1+delta; m+2+delta; x)
    """
    with mp.workdps(30):
        x, g = mp.mpf(x), mp.mpf(gamma)
        if isinstance(spec, BetaCesaro):
            b = mp.mpf(spec.beta)
            total = ((1 - x) ** -b - 1) / (b * x)
            return (3 + g) * mp.hyp2f1(b, 1, 2, x) - 2 * total
        if isinstance(spec, AlphaCesaro):
            a = mp.mpf(spec.alpha)
            return (3 + g) * mp.hyp2f1(1, a + 1, a + 2, x) - 2 / (1 - x)
        c = spec.m + mp.mpf(spec.delta)
        return (1 + g) / c - 2 * x / (c + 1) * mp.hyp2f1(1, c + 1, c + 2, x)


class TestOperatorRadius:
    def test_cesaro_radius_bracket(self):
        res = operator_bohr_radius(BetaCesaro(1.0), DomainParams(0.0))
        assert 0.5 < res.radius < 0.55
        # sign change of 2x - 3(1-x)log(1/(1-x)) over the bracket
        eq = lambda x: 2 * x - 3 * (1 - x) * math.log(1 / (1 - x))
        assert eq(0.5) < 0 < eq(0.55)
        assert abs(eq(res.radius)) <= 1e-9

    def test_alpha_zero_equals_beta_one(self):
        # both are the (a, c) = (1, 2) operator: the same bytes from every path
        alpha, beta = AlphaCesaro(0.0), BetaCesaro(1.0)
        r = np.array([0.0, 0.3, 0.7, 0.95, 0.99])
        assert alpha.vector(200, r).tobytes() == beta.vector(200, r).tobytes()
        a = random_member_series(5, order=200).coefficients
        assert alpha.transform(a).tobytes() == beta.transform(a).tobytes()
        for gamma in (0.0, 0.5):
            r1 = operator_bohr_radius(beta, DomainParams(gamma)).radius
            r2 = operator_bohr_radius(alpha, DomainParams(gamma)).radius
            assert r1 == r2

    def test_radius_increases_with_gamma(self):
        radii = [operator_bohr_radius(BetaCesaro(1.0), DomainParams(g)).radius for g in (0.0, 0.3, 0.6)]
        assert radii[0] < radii[1] < radii[2]

    @pytest.mark.parametrize("spec", RADIUS_SPECS, ids=str)
    @pytest.mark.parametrize("gamma", [0.0, 0.4])
    def test_printed_equation_residual_small(self, spec, gamma):
        res = operator_bohr_radius(spec, DomainParams(gamma))
        lhs, rhs = spec.radius_equation(gamma, res.radius)
        assert abs(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize("spec", RADIUS_SPECS, ids=str)
    @pytest.mark.parametrize("gamma", [0.0, 0.4])
    def test_printed_equation_matches_mpmath(self, spec, gamma):
        # the computed radius is a root of the printed equation, and the
        # double-precision equation agrees with its 30-digit value there
        x = operator_bohr_radius(spec, DomainParams(gamma)).radius
        exact = float(printed_equation_oracle(spec, gamma, x))
        assert abs(exact) <= 1e-9
        lhs, rhs = spec.radius_equation(gamma, x)
        assert lhs - rhs == pytest.approx(exact, abs=1e-11)

    @pytest.mark.parametrize("spec", RADIUS_SPECS, ids=str)
    def test_cross_check_does_not_reuse_the_gap(self, spec, monkeypatch):
        # scale the ratio tail/phi_0 that the solver reads by 1 + 1e-6: the
        # solver's root moves, and the printed equation must notice
        def shifted(fn):
            return lambda *args: fn(*args) * (1.0 + 1e-6)

        for cls in (BetaCesaro, AlphaCesaro, Bernardi):
            monkeypatch.setattr(cls, "ratio", shifted(cls.ratio))
        with pytest.raises(RuntimeError, match="cross-check"):
            operator_bohr_radius(spec, DomainParams(0.0), p=1.0)

    def test_printed_equation_overflow_is_refused_at_once(self):
        # the radius, 0.33367, lies past the overflow of the closed-form sum of
        # the weights: the cross-check refuses it with no numpy warning, before
        # the terms of phi_0 are summed (which once doubled to 4e6 terms,
        # spent 0.46 s and reported a series that did not converge)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="printed equation overflows at the radius 0.3336"):
            operator_bohr_radius(BetaCesaro(2000.0), DomainParams(0.0))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("spec", [BetaCesaro(40.0), BetaCesaro(200.0)], ids=str)
    def test_cross_check_is_relative_for_large_beta(self, spec):
        # at gamma = 0.9 both sides of the printed equation are large (the
        # sum of the weights grows like (1-x)^(-beta)): an absolute 1e-9
        # refused radii whose relative residual is near 1e-13
        res = operator_bohr_radius(spec, DomainParams(0.9))
        lhs, rhs = spec.radius_equation(0.9, res.radius)
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs))

    def test_cross_check_is_relative_near_one(self):
        # the radius lies 6.4e-5 below 1, where the Bernardi equation is
        # steep: its residual -1.2e-9 is -3.2e-11 of its scale
        spec = Bernardi(1, -0.9)
        res = operator_bohr_radius(spec, DomainParams(0.9))
        assert res.radius == pytest.approx(0.99993579267807, abs=1e-12)
        lhs, rhs = spec.radius_equation(0.9, res.radius)
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs))

    @pytest.mark.parametrize("sides", [(math.nan, 1.0), (math.inf, math.inf), (math.inf, 1.0)], ids=str)
    def test_cross_check_refuses_non_finite_sides(self, sides, monkeypatch):
        # a side that overflowed may not pass the check: abs(nan) > tol and
        # inf - inf = nan fail the comparison, and inf <= tol * inf holds,
        # which the finiteness test catches
        monkeypatch.setattr(AlphaCesaro, "radius_equation", lambda self, gamma, x: sides)
        with pytest.raises(RuntimeError, match="cross-check"):
            operator_bohr_radius(AlphaCesaro(0.0), DomainParams(0.0))

    @pytest.mark.parametrize("spec, gamma", [
        pytest.param(BetaCesaro(1500.0), 0.0, id="beta-1500-gamma-0"),
        pytest.param(BetaCesaro(1000.0), 0.5, id="beta-1000-gamma-0.5"),
        pytest.param(AlphaCesaro(160.0), 0.0, id="alpha-160-gamma-0"),
        pytest.param(AlphaCesaro(300.0), 0.0, id="alpha-300-gamma-0"),
        pytest.param(AlphaCesaro(500.0), 0.0, id="alpha-500-gamma-0"),
        pytest.param(AlphaCesaro(1000.0), 0.0, id="alpha-1000-gamma-0"),
        pytest.param(AlphaCesaro(2000.0), 0.0, id="alpha-2000-gamma-0"),
        pytest.param(AlphaCesaro(1e4), 0.0, id="alpha-10000-gamma-0"),
    ])
    def test_printed_equation_past_the_table_overflow(self, spec, gamma):
        # phi_0 of the printed equation once came from the series table,
        # whose G_j(a) and r^k / G_k(c) overflow apart: it read inf or nan
        # and the cross-check refused these radii
        start = time.perf_counter()
        x = operator_bohr_radius(spec, DomainParams(gamma)).radius
        lhs, rhs = spec.radius_equation(gamma, x)
        scale = abs(lhs) + abs(rhs)
        exact = float(printed_equation_oracle(spec, gamma, x))
        assert abs(exact) <= 1e-10 * scale
        assert abs((lhs - rhs) - exact) <= 1e-13 * scale
        assert time.perf_counter() - start < 1.0

    def test_radius_continuity_across_beta_one(self):
        base = operator_bohr_radius(BetaCesaro(1.0), DomainParams(0.0)).radius
        for beta in (1.0 - 1e-6, 1.0 + 1e-6):
            near = operator_bohr_radius(BetaCesaro(beta), DomainParams(0.0)).radius
            assert near == pytest.approx(base, abs=1e-5)


class TestMajorantSwap:
    def test_double_sum_oracle_matches_phi_swap(self):
        # the operator majorant evaluated as the quadratic double sum agrees
        # with the linear phi-weighted form, and both respect the bound at
        # radii up to the operator radius
        beta = 1.0
        spec = BetaCesaro(beta)
        dom = DomainParams(0.25)
        res = operator_bohr_radius(spec, dom)
        series = random_member_series(31, order=350)
        m = np.abs(series.coefficients)
        g = rising_ratios(350, beta)
        for r in (0.3, res.radius):
            rows = np.convolve(m, g)[:351] / np.arange(1, 352)
            double_sum = float(rows @ r ** np.arange(351.0))
            swap = float(m @ spec.vector(350, np.array([r]))[0])
            assert double_sum == pytest.approx(swap, rel=1e-10)
            assert swap <= operator_bound(spec, r) + 1e-9
