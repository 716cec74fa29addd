"""Integral operators: coefficient form vs the integral-form oracle, bounds, radii."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from bohrad._kernels import rising_ratios
from bohrad.cli import main
from bohrad.radius import RadiusQuery, minimal_root
from bohrad.series import CoefficientSeries, DomainParams
from bohrad.weights import AlphaCesaro, Bernardi, BetaCesaro, phi0
from oracles import RADIUS_DPS, integral_form_oracle


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
        ones = CoefficientSeries(np.ones(40)).coefficients
        np.testing.assert_allclose(BetaCesaro(1.0).transform(ones), np.ones(40), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
    def test_alpha_row_sums_normalized(self, alpha):
        ones = CoefficientSeries(np.ones(40)).coefficients
        np.testing.assert_allclose(AlphaCesaro(alpha).transform(ones), np.ones(40), rtol=1e-14)

    def test_bernardi_divides_by_shifted_index(self):
        c = np.zeros(10)
        c[1:] = 1.0
        out = Bernardi(1, 1.0).transform(CoefficientSeries(c).coefficients)
        expected = np.zeros(10)
        expected[1:] = 1.0 / (np.arange(1, 10) + 1.0)
        np.testing.assert_allclose(out, expected, atol=1e-16)

    def test_bernardi_rejects_low_order_terms(self):
        with pytest.raises(ValueError):
            Bernardi(2, 0.5).transform(CoefficientSeries([0.0, 1.0, 1.0]).coefficients)

    def test_beta_transform_against_double_sum(self):
        series = random_member_series(3, order=30)
        out = BetaCesaro(0.7).transform(series.coefficients)
        g = rising_ratios(30, 0.7)
        for n in (0, 5, 17, 30):
            expected = sum(g[n - k] * series.coefficients[k] for k in range(n + 1)) / (n + 1)
            assert out[n] == pytest.approx(expected, rel=1e-13)


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
        transformed = CoefficientSeries(spec.transform(series.coefficients))
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = 0.6 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            via_coeff = transformed.evaluate(z)
            via_quad = integral_form_oracle(spec, series.evaluate, z)
            assert abs(via_coeff - via_quad) <= 1e-13

    @pytest.mark.parametrize("spec", [AlphaCesaro(-0.5), AlphaCesaro(0.0), AlphaCesaro(1.0)], ids=str)
    def test_alpha_coefficient_integral_agreement(self, spec):
        series = random_member_series(23)
        transformed = CoefficientSeries(spec.transform(series.coefficients))
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
        transformed = CoefficientSeries(spec.transform(shifted.coefficients))
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
        assert phi0(BetaCesaro(1.0), 0.5) == pytest.approx(2 * math.log(2), abs=1e-14)

    def test_bernardi_bound(self):
        assert phi0(Bernardi(2, 1.0), 0.5) == pytest.approx(0.25 / 3.0, abs=1e-16)

    def test_alpha_zero_matches_beta_one(self):
        assert phi0(AlphaCesaro(0.0), 0.5) == pytest.approx(
            phi0(BetaCesaro(1.0), 0.5), abs=1e-13
        )

    def test_continuity_across_beta_one(self):
        for r in (0.2, 0.5, 0.8):
            log_branch = phi0(BetaCesaro(1.0), r)
            assert phi0(BetaCesaro(1.0 + 1e-6), r) == pytest.approx(log_branch, abs=1e-5)
            assert phi0(BetaCesaro(1.0 - 1e-6), r) == pytest.approx(log_branch, abs=1e-5)

    @pytest.mark.parametrize("spec", [BetaCesaro(0.5), BetaCesaro(1.0), BetaCesaro(2.0),
                                      AlphaCesaro(-0.5), AlphaCesaro(0.0)], ids=str)
    def test_bound_attained_by_constant_one(self, spec):
        for r in (0.25, 0.5, 0.75):
            got = integral_form_oracle(spec, lambda w: 1.0, r)
            assert abs(got.imag) < 1e-13
            assert got.real == pytest.approx(phi0(spec, r), abs=1e-10)

    def test_bernardi_bound_attained_by_monomial(self):
        spec = Bernardi(2, 0.5)
        r = 0.6
        got = integral_form_oracle(spec, lambda w: w ** 2, r)
        assert abs(got) == pytest.approx(phi0(spec, r), abs=1e-12)

    def test_rejects_r_outside_open_interval(self, capsys):
        # phi_0 itself is defined at r = 0; the bound command asks for 0 < r < 1
        for r in ("0", "1", "nan"):
            assert main(["operator", "--beta-cesaro", "1", "bound", "--r", r]) == 2
            assert capsys.readouterr() == ("", "error: r must be in (0, 1)\n")


RADIUS_SPECS = [
    BetaCesaro(0.5), BetaCesaro(1.0), BetaCesaro(2.0), AlphaCesaro(-0.5),
    AlphaCesaro(0.0), AlphaCesaro(1.0), Bernardi(1, 1.0), Bernardi(2, 0.5),
]


def printed_equation(spec, gamma, x):
    """lhs - rhs of the printed p = 1 radius equation at x in RADIUS_DPS digits, from closed forms.

    beta:     (3+gamma) F(beta-1) - 2 F(beta), F(s) = ((1-x)^(-s) - 1)/(s x), F(0) = log(1/(1-x))/x
    alpha:    (3+gamma) (alpha+1) Phi(x, 1, alpha+1) - 2/(1-x)
    Bernardi: (1+gamma)/c - 2 x Phi(x, 1, c+1), c = m+delta

    with Phi the Lerch transcendent (DLMF 25.14).  The Cesaro sides are
    (3+gamma) phi_0 and twice the sum of all weights; the Bernardi sides are
    those of the gap over x^m.  Each has the sign of the radius gap h.
    """
    with mp.workdps(RADIUS_DPS):
        x, g = mp.mpf(x), mp.mpf(gamma)
        if isinstance(spec, BetaCesaro):
            def F(s):
                return mp.log(1 / (1 - x)) / x if s == 0 else ((1 - x) ** -s - 1) / (s * x)

            b = mp.mpf(spec.beta)
            return (3 + g) * F(b - 1) - 2 * F(b)
        if isinstance(spec, AlphaCesaro):
            a = mp.mpf(spec.alpha) + 1
            return (3 + g) * a * mp.lerchphi(x, 1, a) - 2 / (1 - x)
        c = spec.m + mp.mpf(spec.delta)
        return (1 + g) / c - 2 * x * mp.lerchphi(x, 1, c + 1)


def printed_root_in_bracket(spec, gamma, res):
    """The printed equation changes sign across the solver's certified bracket:
    its root lies in (lo, hi].  No tolerance: near 1 the equation is so steep
    that a correct radius reads a large residual."""
    lo, hi = res.bracket
    return printed_equation(spec, gamma, lo) > 0 > printed_equation(spec, gamma, hi)


def _printed_equation_sweep(n=60):
    """n derandomized (spec, gamma) queries, the three operators in turn: beta
    log-uniform in [1e-3, 1e5], alpha in (-1, 60], Bernardi m in 1..5 with
    delta in (-m, 5], gamma in [0, 0.99)."""
    rng = np.random.default_rng(20261020)
    queries = []
    for i in range(n):
        gamma = float(rng.uniform(0.0, 0.99))
        if i % 3 == 0:
            spec = BetaCesaro(float(10.0 ** rng.uniform(-3.0, 5.0)))
        elif i % 3 == 1:
            spec = AlphaCesaro(float(rng.uniform(-1.0, 60.0)))
        else:
            m = int(rng.integers(1, 6))
            spec = Bernardi(m, float(rng.uniform(-m, 5.0)))
        queries.append(pytest.param(spec, gamma, id=f"sweep-{i}"))
    return queries


class TestOperatorRadius:
    def test_cesaro_radius_bracket(self):
        res = minimal_root(RadiusQuery(BetaCesaro(1.0), DomainParams(0.0), 1.0))
        assert 0.5 < res.radius < 0.55
        # sign change of 2x - 3(1-x)log(1/(1-x)) over the bracket
        eq = lambda x: 2 * x - 3 * (1 - x) * math.log(1 / (1 - x))
        assert eq(0.5) < 0 < eq(0.55)
        assert abs(eq(res.radius)) <= 1e-9

    def test_alpha_zero_equals_beta_one(self):
        # both are the (a, c) = (1, 2) operator: the same bytes from every path
        alpha, beta = AlphaCesaro(0.0), BetaCesaro(1.0)
        r = np.array([0.0, 0.3, 0.7, 0.95, 0.99])
        assert alpha.scaled(200, r).tobytes() == beta.scaled(200, r).tobytes()
        a = random_member_series(5, order=200).coefficients
        assert alpha.transform(a).tobytes() == beta.transform(a).tobytes()
        for gamma in (0.0, 0.5):
            r1 = minimal_root(RadiusQuery(beta, DomainParams(gamma), 1.0)).radius
            r2 = minimal_root(RadiusQuery(alpha, DomainParams(gamma), 1.0)).radius
            assert r1 == r2

    def test_radius_increases_with_gamma(self):
        radii = [minimal_root(RadiusQuery(BetaCesaro(1.0), DomainParams(g), 1.0)).radius for g in (0.0, 0.3, 0.6)]
        assert radii[0] < radii[1] < radii[2]

    @pytest.mark.parametrize("spec, gamma", _printed_equation_sweep())
    def test_printed_root_lies_in_the_bracket(self, spec, gamma):
        assert printed_root_in_bracket(spec, gamma, minimal_root(RadiusQuery(spec, DomainParams(gamma), 1.0)))

    @pytest.mark.parametrize("spec, gamma", [
        # the printed equation once overflowed in floats at these radii, and
        # the run-time check refused them (exit 4 on the command line)
        pytest.param(BetaCesaro(2000.0), 0.0, id="beta-2000-gamma-0"),
        pytest.param(BetaCesaro(1e5), 0.0, id="beta-100000-gamma-0"),
        # 1 - 2.8e-7 and 1 - 6.4e-5: the equation is so steep that a correct
        # radius reads a relative residual of 3.5e-9 and 3.2e-11
        pytest.param(Bernardi(1, -0.95), 0.5, id="bernardi-1--0.95-gamma-0.5"),
        pytest.param(Bernardi(1, -0.9), 0.9, id="bernardi-1--0.9-gamma-0.9"),
        # both sides grow like (1-x)^(-beta)
        pytest.param(BetaCesaro(40.0), 0.9, id="beta-40-gamma-0.9"),
        pytest.param(BetaCesaro(200.0), 0.9, id="beta-200-gamma-0.9"),
        # past the overflow of the weight table
        pytest.param(BetaCesaro(1500.0), 0.0, id="beta-1500-gamma-0"),
        pytest.param(BetaCesaro(1000.0), 0.5, id="beta-1000-gamma-0.5"),
        pytest.param(AlphaCesaro(160.0), 0.0, id="alpha-160-gamma-0"),
        pytest.param(AlphaCesaro(300.0), 0.0, id="alpha-300-gamma-0"),
        pytest.param(AlphaCesaro(500.0), 0.0, id="alpha-500-gamma-0"),
        pytest.param(AlphaCesaro(1000.0), 0.0, id="alpha-1000-gamma-0"),
        pytest.param(AlphaCesaro(2000.0), 0.0, id="alpha-2000-gamma-0"),
        pytest.param(AlphaCesaro(1e4), 0.0, id="alpha-10000-gamma-0"),
    ])
    def test_printed_root_lies_in_the_bracket_at_the_extremes(self, spec, gamma):
        start = time.perf_counter()
        res = minimal_root(RadiusQuery(spec, DomainParams(gamma), 1.0))
        assert time.perf_counter() - start < 1.0
        assert printed_root_in_bracket(spec, gamma, res)

    def test_radius_near_one(self):
        assert minimal_root(RadiusQuery(Bernardi(1, -0.9), DomainParams(0.9), 1.0)).radius == \
            pytest.approx(0.99993579267807, abs=1e-12)
        assert 1.0 - minimal_root(RadiusQuery(Bernardi(1, -0.95), DomainParams(0.5), 1.0)).radius == \
            pytest.approx(2.8e-7, rel=0.01)

    @pytest.mark.parametrize("spec", RADIUS_SPECS, ids=str)
    def test_a_shifted_ratio_breaks_the_oracle(self, spec, monkeypatch):
        # scale the ratio tail/phi_0 that the solver reads by 1 + 1e-6: the
        # solver's root moves, and the printed equation must notice
        def shifted(fn):
            return lambda *args: fn(*args) * (1.0 + 1e-6)

        for cls in (BetaCesaro, AlphaCesaro, Bernardi):
            monkeypatch.setattr(cls, "ratio", shifted(cls.ratio))
        res = minimal_root(RadiusQuery(spec, DomainParams(0.0), 1.0))
        assert not printed_root_in_bracket(spec, 0.0, res)

    def test_radius_continuity_across_beta_one(self):
        base = minimal_root(RadiusQuery(BetaCesaro(1.0), DomainParams(0.0), 1.0)).radius
        for beta in (1.0 - 1e-6, 1.0 + 1e-6):
            near = minimal_root(RadiusQuery(BetaCesaro(beta), DomainParams(0.0), 1.0)).radius
            assert near == pytest.approx(base, abs=1e-5)


class TestMajorantSwap:
    def test_double_sum_oracle_matches_phi_swap(self):
        # the operator majorant evaluated as the quadratic double sum agrees
        # with the linear phi-weighted form, and both respect the bound at
        # radii up to the operator radius
        beta = 1.0
        spec = BetaCesaro(beta)
        dom = DomainParams(0.25)
        res = minimal_root(RadiusQuery(spec, dom, 1.0))
        series = random_member_series(31, order=350)
        m = np.abs(series.coefficients)
        g = rising_ratios(350, beta)
        for r in (0.3, res.radius):
            rows = np.convolve(m, g)[:351] / np.arange(1, 352)
            double_sum = float(rows @ r ** np.arange(351.0))
            swap = float(m @ (phi0(spec, r) * spec.scaled(350, np.array([r]))[0]))
            assert double_sum == pytest.approx(swap, rel=1e-10)
            assert swap <= phi0(spec, r) + 1e-9
