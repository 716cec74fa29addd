"""Root location for the gap equation (1+gamma) phi_0 = (2/p) tail."""

import math
import re
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrad import bohr, harness, radius, weights
from bohrad.operators import operator_bohr_radius
from bohrad.radius import (
    NoRootError,
    RadiusQuery,
    gap,
    minimal_root,
    sharpness_window_check,
)
from bohrad.series import DomainParams
from bohrad.weights import (
    AlphaCesaro,
    Bernardi,
    BetaCesaro,
    CustomFamily,
    EvenPowers,
    Linear,
    LinearPlusOne,
    OddPowers,
    PowerTail,
    Quadratic,
    FAMILY_CLASSES,
)

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

GEOMETRIC = CustomFamily(
    name="geometric",
    phi0_fn=lambda r: np.ones_like(r),
    phi_k_fn=lambda k, r: r ** k,
    tail_fn=lambda r: r / (1.0 - r),
)


def q(family, gamma=0.0, p=1.0):
    return RadiusQuery(family, DomainParams(gamma), p)


class TestGap:
    def test_at_origin(self):
        assert gap(q(PowerTail(1)), 0.0) == 1.0

    def test_classical_root(self):
        assert gap(q(PowerTail(1)), 1.0 / 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_odd_family_value(self):
        # tail = r/(1-r^2): 1 - 2*(0.5/0.75) = -1/3
        assert gap(q(OddPowers()), 0.5) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_vectorized(self):
        xs = np.array([0.0, 0.25, 0.5])
        np.testing.assert_allclose(
            gap(q(PowerTail(1)), xs), [1.0, 1.0 - 2.0 / 3.0, -1.0], atol=1e-15
        )

    def test_rejects_x_out_of_range(self):
        with pytest.raises(ValueError):
            gap(q(PowerTail(1)), 1.0)

    @pytest.mark.parametrize(
        "family", [*(cls() for cls in FAMILY_CLASSES.values()), pytest.param(GEOMETRIC, id="geometric")], ids=str
    )
    def test_is_weight_difference_to_the_bit(self, family):
        # the solver's unchecked _gap, the checked gap and the checked weight
        # functions are one formula; so are _phi_matrix and phi_tail_mass
        query = q(family, 0.3, 0.7)

        def weight_gap(x):
            return (1.0 + 0.3) * weights.phi0(family, x) - (2.0 / 0.7) * weights.tail_sum(family, x)

        def same_bits(got, expected):
            assert np.shape(got) == np.shape(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

        for x in (0.45, np.float64(0.45), np.asarray(0.45), np.linspace(0.0, 0.9, 7),
                  np.linspace(0.1, 0.9, 6).reshape(2, 3)):
            got, expected = gap(query, x), weight_gap(x)
            assert type(got) is type(expected)
            same_bits(got, expected)
        for built in (radius._SPARSE, radius._COARSE[:31], radius._COARSE[992:999],
                      0.4 + 0.01 * radius._SECTIONS, np.asarray(0.45)):
            same_bits(radius._gap(query, built), weight_gap(built))
        radii, _, allowance = bohr._phi_matrix(family, 0.45, 12, 60)
        same_bits(allowance, max(weights.phi_tail_mass(family, r, 60) for r in radii))


def test_scan_grids_are_read_only_constants():
    for grid in (radius._COARSE, radius._SPARSE, radius._SECTIONS):
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.5
    assert radius._COARSE.size == 1000 and radius._COARSE[-1] == radius.SCAN_END
    assert radius._SECTIONS.size == 15
    # the sparse grid is every 32nd grid point and the grid's last point, SCAN_END
    assert radius._SPARSE.size == 32
    expected = np.append(radius._COARSE[31::32], radius.SCAN_END)
    assert radius._SPARSE.tobytes() == expected.tobytes()


def grid_cell(query):
    """The cell (lo, hi] of the 1e-3 grid where the gap, evaluated on the whole
    grid in one batch, first stops being positive after a positive point,
    leading exact zeros skipped; the first cell (0, 1e-3] if no point before
    it is positive, and None if the gap is positive on the whole grid."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.asarray(radius._gap(query, radius._COARSE))
    nonzero = np.flatnonzero(g != 0.0)
    first = int(nonzero[0]) if nonzero.size else 0
    ends = np.flatnonzero(~(g[first:] > 0.0))
    if not ends.size:
        return None
    i = first + int(ends[0])
    return (float(radius._COARSE[i - 1]), float(radius._COARSE[i])) if i > first else (0.0, radius._COARSE[0])


def assert_bracket_in_grid_cell(query):
    # the two scan batches find the cell that a scan of every grid point finds
    cell = grid_cell(query)
    try:
        res = minimal_root(query)
    except NoRootError as exc:
        # no crossing on the grid, none after a positive point, or one the floats cannot resolve
        assert cell is None or cell[0] == 0.0 or "not finite" in str(exc) or "underflows" in str(exc)
        return
    lo, hi = res.bracket
    assert cell is not None and cell[0] <= lo < hi <= cell[1]


class TestScan:
    @pytest.mark.parametrize("idx", range(84))
    def test_bracket_in_first_grid_cell_default_cells(self, idx):
        cells = list(harness.iter_cells(harness.default_config()))
        assert len(cells) == 84
        family, gamma, p = cells[idx]
        assert_bracket_in_grid_cell(q(family, gamma, p))

    def test_power_tail_evaluations(self):
        # 32 sparse points, the 31 grid points of the cell (0.320, 0.352), eight
        # 16-sections of 15 points to a width under 1e-12, the two lone ends,
        # the residual and the 32 window points; the block scan took 540
        res = minimal_root(q(PowerTail(1)))
        assert res.evaluations == 32 + 31 + 8 * 15 + 2 + 1 + 32

    def test_leading_negative_gap_is_no_root(self):
        # the gap is negative on (0, 0.2), positive on (0.2, 0.5) and negative
        # after: it is not positive near 0, so no radius exists, and a scan that
        # skipped the leading non-positive points would return 0.5
        dip = CustomFamily(
            name="leading-dip",
            phi0_fn=lambda r: np.ones_like(r),
            phi_k_fn=lambda k, r: r ** k,
            tail_fn=lambda r: 0.5 * (1.0 - (r - 0.2) * (0.5 - r)),
        )
        query = q(dip)
        assert gap(query, 0.1) < 0.0 < gap(query, 0.3) and gap(query, 0.6) < 0.0
        with pytest.raises(NoRootError, match=r"\(0, 0.001\]"):
            minimal_root(query)


monomial_families = st.one_of(
    st.sampled_from([EvenPowers(), OddPowers()]),
    st.builds(lambda cls, n: cls(n), st.sampled_from([PowerTail, LinearPlusOne, Linear, Quadratic]),
              st.integers(1, 5)),
)


@given(
    st.one_of(
        monomial_families,
        st.floats(0.0, 60.0, exclude_min=True).map(BetaCesaro),
        st.floats(-1.0, 60.0, exclude_min=True).map(AlphaCesaro),
        st.integers(1, 5).flatmap(
            lambda m: st.floats(-float(m), 5.0, exclude_min=True).map(lambda delta: Bernardi(m, delta))
        ),
    ),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 2.0, exclude_min=True),
)
@settings(derandomize=True, deadline=None, max_examples=300)
def test_bracket_in_first_grid_cell_sweep(family, gamma, p):
    # the validated domain of every family
    assert_bracket_in_grid_cell(q(family, gamma, p))


class TestMinimalRoot:
    def test_classical_anchor(self):
        res = minimal_root(q(PowerTail(1)))
        assert res.radius == pytest.approx(1.0 / 3.0, abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.2, 0.5, 0.9])
    def test_power_tail_linear_solve(self, gamma):
        res = minimal_root(q(PowerTail(1), gamma))
        assert res.radius == pytest.approx((1 + gamma) / (3 + gamma), abs=1e-10)

    def test_odd_quadratic_solve(self):
        res = minimal_root(q(OddPowers()))
        assert res.radius == pytest.approx(math.sqrt(2) - 1, abs=1e-10)

    def test_even_quadratic_solve(self):
        res = minimal_root(q(EvenPowers()))
        assert res.radius == pytest.approx(1.0 / math.sqrt(3), abs=1e-10)

    @pytest.mark.parametrize("family", BUILTINS, ids=str)
    @pytest.mark.parametrize("gamma,p", [(0.0, 1.0), (0.5, 0.5), (0.75, 2.0)])
    def test_result_invariants(self, family, gamma, p):
        if isinstance(family, (BetaCesaro, AlphaCesaro, Bernardi)) and p != 1.0:
            p = 1.0
        query = q(family, gamma, p)
        res = minimal_root(query, tol=1e-12)
        lo, hi = res.bracket
        assert gap(query, lo) > 0.0
        assert gap(query, hi) <= 0.0
        assert lo <= res.radius <= hi
        assert hi - lo <= 1e-12
        assert 0.0 < res.radius < 1.0
        assert res.evaluations > 0
        assert res.residual == gap(query, res.radius)

    @pytest.mark.parametrize("family", BUILTINS, ids=str)
    def test_root_is_genuine_not_grid_artifact(self, family):
        query = q(family, 0.25, 1.0)
        res = minimal_root(query, tol=1e-12)
        h = 1e-6
        slope = (gap(query, res.radius + h) - gap(query, res.radius - h)) / (2 * h)
        assert abs(res.residual) <= 10.0 * 1e-12 * abs(slope)

    @pytest.mark.parametrize("family", BUILTINS, ids=str)
    def test_no_earlier_crossing_at_half_step(self, family):
        # grid independence: nothing is missed below the located bracket
        query = q(family, 0.25, 1.0)
        res = minimal_root(query)
        lo = res.bracket[0]
        fine = np.arange(1, math.floor(lo / 5e-4) + 1) * 5e-4
        assert np.all(np.asarray(gap(query, fine)) > 0.0)

    def test_monotone_in_gamma(self):
        radii = [minimal_root(q(PowerTail(1), g)).radius for g in np.arange(0.0, 0.91, 0.1)]
        assert all(b > a for a, b in zip(radii, radii[1:]))
        closed = [(1 + g) / (3 + g) for g in np.arange(0.0, 0.91, 0.1)]
        np.testing.assert_allclose(radii, closed, atol=1e-10)

    @pytest.mark.parametrize("family", [PowerTail(1), EvenPowers(), OddPowers(), Quadratic(1)], ids=str)
    def test_monotone_in_p(self, family):
        radii = [minimal_root(q(family, 0.3, p)).radius for p in (0.25, 0.5, 1.0, 1.5, 2.0)]
        assert all(b >= a - 1e-12 for a, b in zip(radii, radii[1:]))

    @pytest.mark.parametrize("name", FAMILY_CLASSES)
    def test_one_range_check_per_query(self, name, range_checks):
        # the scan, the 16-section loop and the residual evaluate the gap on
        # points the solver built inside (0, 1); only the checked sharpness
        # window is left, where each gap evaluation ran two checks
        for gamma, p in ((0.0, 1.0), (0.3, 0.7), (0.9, 2.0)):
            range_checks.clear()
            minimal_root(q(FAMILY_CLASSES[name](), gamma, p))
            assert len(range_checks) <= 1

    def test_rejects_invalid_p(self):
        with pytest.raises(ValueError):
            q(PowerTail(1), p=0.0)
        with pytest.raises(ValueError):
            q(PowerTail(1), p=2.5)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            minimal_root(q(PowerTail(1)), tol=0.0)

    def test_no_root_when_tail_vanishes(self):
        dead = CustomFamily(
            name="no-tail",
            phi0_fn=lambda r: np.ones_like(r),
            phi_k_fn=lambda k, r: np.zeros_like(r),
            tail_fn=lambda r: np.zeros_like(r),
        )
        with pytest.raises(NoRootError):
            minimal_root(q(dead))

    def test_sixteen_section_catches_tiny_root(self):
        # gap is already negative at the first coarse point; the 16-section
        # of (0, 1e-3) must still isolate the crossing at about 1/2001
        steep = CustomFamily(
            name="steep-tail",
            phi0_fn=lambda r: np.ones_like(r),
            phi_k_fn=lambda k, r: 1000.0 * r ** k,
            tail_fn=lambda r: 1000.0 * r / (1.0 - r),
        )
        res = minimal_root(q(steep))
        assert res.radius == pytest.approx(1.0 / 2001.0, rel=1e-6)

    def test_no_root_when_gap_never_positive(self):
        upside_down = CustomFamily(
            name="zero-head",
            phi0_fn=lambda r: np.zeros_like(r),
            phi_k_fn=lambda k, r: r ** k,
            tail_fn=lambda r: r / (1.0 - r),
        )
        with pytest.raises(NoRootError):
            minimal_root(q(upside_down))

    def test_bernardi_gap_positive_near_zero(self):
        # phi_0 vanishes at 0+, but the gap is still positive on the first
        # grid points: the standard scan applies
        query = q(Bernardi(1, 1.0), 0.5, 1.0)
        assert gap(query, 1e-3) > 0.0
        res = minimal_root(query)
        assert 0.0 < res.radius < 1.0


# the sum of c(k) x^k over k >= 1 for each monomial family's coefficient c(k)
MP_MONOMIAL_SUMS = {
    "power-tail": lambda x: mp.polylog(0, x),
    "even": lambda x: (mp.polylog(0, x) + mp.polylog(0, -x)) / 2,
    "odd": lambda x: (mp.polylog(0, x) - mp.polylog(0, -x)) / 2,
    "linear-plus-one": lambda x: mp.polylog(-1, x) + mp.polylog(0, x),
    "linear": lambda x: mp.polylog(-1, x),
    "quadratic": lambda x: mp.polylog(-2, x),
}


def mp_tail_over_phi0(family, x):
    """tail/phi_0 at x in 40-digit arithmetic, from the series that define the weights."""
    with mp.workdps(40):
        x = mp.mpf(x)
        if isinstance(family, (BetaCesaro, AlphaCesaro)):
            # phi_0 and the sum of all weights are 2F1(a, 1; c; x) and 2F1(a+1, 1; c; x)
            a, c = (mp.mpf(v) for v in family.ac)
            return mp.hyp2f1(a + 1, 1, c, x) / mp.hyp2f1(a, 1, c, x) - 1
        if isinstance(family, Bernardi):
            # (m+delta) sum_{n>=1} x^n/(n+m+delta) = (m+delta) x 2F1(1, b; b+1; x)/b
            c = family.m + mp.mpf(family.delta)
            return c * x * mp.hyp2f1(1, c + 1, c + 2, x) / (c + 1)
        head = sum(family.coef(k) * x ** k for k in range(1, family.N))
        return MP_MONOMIAL_SUMS[family.name](x) - head


SINGLE_CROSSING = [
    *(cls() for cls in FAMILY_CLASSES.values()),
    *(cls(4) for cls in (PowerTail, LinearPlusOne, Linear, Quadratic)),
    BetaCesaro(0.25), BetaCesaro(7.3), BetaCesaro(40.0),
    AlphaCesaro(-0.9), AlphaCesaro(0.17783250054616684), AlphaCesaro(50.0),
    Bernardi(1, -0.999), Bernardi(3, 5.0),
]


@pytest.mark.parametrize("family", SINGLE_CROSSING, ids=str)
def test_tail_over_phi0_increases(family):
    # the single-crossing property of the radius module's docstring: the gap
    # is phi_0 times (1+gamma) - (2/p) tail/phi_0, so it changes sign once
    xs = [*np.linspace(1e-4, 0.99, 60), 0.999, 0.9999]
    ratio = [mp_tail_over_phi0(family, x) for x in xs]
    assert all(b > a for a, b in zip(ratio, ratio[1:]))
    assert ratio[0] < 1e-3  # tail/phi_0 starts from 0 at 0+, so the gap starts positive
    for x, expected in zip(xs, ratio):
        got = weights.tail_sum(family, x) / weights.phi0(family, x)
        assert got == pytest.approx(float(expected), rel=1e-9)


class TestCertifiedBracket:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
    def test_root_below_first_grid_point(self, gamma):
        # PowerTail(1) has r = c/(1+c), c = p(1+gamma)/2; at p = 1e-4 the gap
        # is already negative at 1e-3, so the 16-section of (0, 1e-3) finds it
        query = q(PowerTail(1), gamma, 1e-4)
        assert gap(query, radius._COARSE[0]) < 0.0
        res = minimal_root(query)
        c = 1e-4 * (1.0 + gamma) / 2.0
        assert res.radius == pytest.approx(c / (1.0 + c), abs=1e-12)
        lo, hi = res.bracket
        assert gap(query, lo) > 0.0 >= gap(query, hi)

    @pytest.mark.parametrize("family", [PowerTail(1), Bernardi(1, 1.0)], ids=str)
    def test_root_below_first_grid_point_at_coarse_tol(self, family):
        # a tolerance above the root still narrows (0, 1e-3) until a positive
        # gap is seen, rather than report a gap that is never positive
        query = q(family, 0.0, 1e-4)
        res = minimal_root(query, tol=1e-3)
        lo, hi = res.bracket
        assert 0.0 < lo and gap(query, lo) > 0.0 >= gap(query, hi)
        assert hi <= radius._COARSE[0]

    def test_seed_109_alpha_cesaro(self):
        # evaluated next to hi in the 16-section the lower end had a positive
        # gap, and alone a gap of -8.9e-16; one outward step certifies it
        query = q(AlphaCesaro(0.17783250054616684), 0.7, 0.5)
        res = minimal_root(query)
        lo, hi = res.bracket
        assert gap(query, lo) > 0.0 >= gap(query, hi)
        assert mp_gap(query)(lo) > 0 >= mp_gap(query)(hi)
        assert hi - lo <= 1e-12
        assert_matches_mpmath(query, res)

    @staticmethod
    def lone_shifted(shift):
        # the power tail with a tail larger by shift where it is evaluated at
        # one point: the batch and the lone path disagree near the root
        return CustomFamily(
            name="lone-shifted",
            phi0_fn=lambda r: np.ones_like(r),
            phi_k_fn=lambda k, r: r ** k,
            tail_fn=lambda r: r / (1.0 - r) + (shift if r.ndim == 0 else 0.0),
        )

    def test_failing_end_steps_outward(self):
        query = q(self.lone_shifted(2e-12))
        res = minimal_root(query)
        lo, hi = res.bracket
        assert gap(query, lo) > 0.0 >= gap(query, hi)
        assert res.radius == pytest.approx(1.0 / 3.0, abs=1e-11)
        # the batches match the power tail's, so the loop ends in its bracket;
        # only the lower end fails alone, and each of its outward steps doubles
        # the width and costs one evaluation
        plain = minimal_root(q(PowerTail(1)))
        assert hi == plain.bracket[1]
        steps = round(np.log2((hi - lo) / (plain.bracket[1] - plain.bracket[0])))
        assert steps >= 1
        assert hi - lo == 2 ** steps * (plain.bracket[1] - plain.bracket[0])
        assert res.evaluations == plain.evaluations + steps

    def test_uncertifiable_bracket_is_no_root(self):
        with pytest.raises(NoRootError, match="no certified crossing"):
            minimal_root(q(self.lone_shifted(1e-3)))


BETA_GRID = [
    (beta, gamma, p)
    for beta in (60.0, 100.0, 200.0, 300.0, 400.0, 500.0, 750.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
    for gamma in (0.0, 0.3, 0.6, 0.9)
    for p in (0.5, 1.0, 2.0)
]


class TestOverflow:
    """beta-Cesaro weights overflow from where (1-x)^(-beta) passes the floats,
    about 1 - exp(-709.8/beta); the gap there is -inf or nan."""

    @pytest.mark.parametrize("beta,gamma,p", [
        # returned the overflow edge as a radius, with a residual of about 1e305
        (1500.0, 0.0, 2.0), (1500.0, 0.9, 1.0), (750.0, 0.6, 2.0),
        # reported a gap > 0 on all of (0, 1), reading a nan gap as positive
        (2000.0, 0.0, 1.0), (1000.0, 0.3, 2.0), (3000.0, 0.9, 0.5),
    ])
    def test_overflow_ends_in_no_root_naming_the_point(self, beta, gamma, p):
        query = q(BetaCesaro(beta), gamma, p)
        with pytest.raises(NoRootError, match="not finite") as info:
            minimal_root(query)
        x = float(re.match(r"gap\((.+?)\) = ", str(info.value)).group(1))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(radius._gap(query, np.asarray(x)))
        # the 40-digit gap is still positive there: the crossing lies past the overflow
        assert (1 + gamma) - 2 / mp.mpf(p) * mp_tail_over_phi0(query.family, x) > 0

    def test_root_below_the_overflow_is_kept(self):
        # the weights overflow from about 0.508, past the crossing near 0.5005
        res = minimal_root(q(BetaCesaro(1000.0), 0.0, 2.0))
        assert res.radius == pytest.approx(0.5004999999998836, abs=1e-12)

    @pytest.mark.parametrize("beta,gamma,p", BETA_GRID)
    def test_large_beta_ends_certified(self, beta, gamma, p):
        # a radius whose bracket and residual are finite and certified, or a
        # NoRootError naming a point where the gap is not finite
        query = q(BetaCesaro(beta), gamma, p)
        try:
            res = minimal_root(query)
        except NoRootError as exc:
            x = float(re.match(r"gap\((.+?)\) = ", str(exc)).group(1))
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(radius._gap(query, np.asarray(x)))
            return
        lo, hi = res.bracket
        assert gap(query, lo) > 0.0 >= gap(query, hi) > -math.inf
        assert math.isfinite(res.residual) and lo <= res.radius <= hi


class TestSharpnessWindow:
    def test_classical_window(self):
        assert sharpness_window_check(q(PowerTail(1)), 1.0 / 3.0, 0.05) is True

    def test_power_tail_n2_p2(self):
        query = q(PowerTail(2), 0.0, 2.0)
        res = minimal_root(query)
        assert sharpness_window_check(query, res.radius, 0.02) is True

    def test_false_below_radius(self):
        # a window strictly below the root sees a positive gap
        assert sharpness_window_check(q(PowerTail(1)), 0.2, 0.05) is False

    def test_window_must_stay_inside_domain(self):
        with pytest.raises(ValueError):
            sharpness_window_check(q(PowerTail(1)), 0.98, 0.05)
        with pytest.raises(ValueError):
            sharpness_window_check(q(PowerTail(1)), 0.5, 0.0)

    @pytest.mark.parametrize("family", BUILTINS, ids=str)
    def test_all_builtins_have_sharp_windows(self, family):
        res = minimal_root(q(family, 0.25, 1.0))
        assert res.sharp_window_ok is True

    @pytest.mark.parametrize("beta,p", [(1500.0, 1.0), (1000.0, 2.0)])
    def test_window_ends_at_the_overflow(self, beta, p):
        # the weights overflow inside the window, where the gap is nan; every
        # gap before that is negative, and the window read false
        query = q(BetaCesaro(beta), 0.0, p)
        res = minimal_root(query)
        eps = min(0.05, 0.5 * (1.0 - res.radius))
        pts = res.radius + eps * np.arange(1, radius.WINDOW_SAMPLES + 1) / (radius.WINDOW_SAMPLES + 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            g = radius._gap(query, pts)
        assert np.isnan(g[-1]) and (g[~np.isnan(g)] < 0.0).all()
        assert res.sharp_window_ok is True

    @pytest.mark.parametrize("gaps,ok", [
        ([-1.0] * 28 + [math.nan] * 4, True),
        ([-1.0] * 5 + [math.nan] * 27, True),
        ([math.nan] + [-1.0] * 31, False),
        ([math.nan] * 32, False),
        ([-1.0] * 10 + [math.nan] + [-1.0] * 21, False),
        ([-1.0] * 10 + [math.nan] * 21 + [-1.0], False),
        ([-1.0] * 3 + [0.5] + [-1.0] * 16 + [math.nan] * 12, False),
    ])
    def test_only_a_trailing_run_of_nan_ends_the_window(self, gaps, ok, monkeypatch):
        monkeypatch.setattr(radius, "gap", lambda query, x: np.array(gaps))
        assert sharpness_window_check(q(PowerTail(1)), 0.5, 0.05) is ok


# ---------------------------------------------------------------------------
# alpha-Cesaro and Bernardi radii near 1, against 40-digit mpmath

def mp_gap(query):
    """The gap of an alpha-Cesaro or Bernardi query in 40-digit arithmetic.

    Both weight sums are the Lerch sum Phi(x, 1, b) = sum_k x^k/(k+b), which
    mpmath has as lerchphi(x, 1, b); it is evaluated here as the equal
    2F1(1, b; b+1; x)/b (DLMF 15.2, 25.14), about twenty times faster.
    """
    family = query.family

    def gap_at(x):
        with mp.workdps(40):
            x, g, p = mp.mpf(x), mp.mpf(query.domain.gamma), mp.mpf(query.p)
            if isinstance(family, AlphaCesaro):
                b = mp.mpf(family.alpha) + 1
                head = mp.hyp2f1(1, b, b + 1, x)
                tail = 1 / (1 - x) - head
            else:
                b = mp.mpf(family.delta) + family.m + 1
                head = x ** family.m / (b - 1)
                tail = x ** (family.m + 1) * mp.hyp2f1(1, b, b + 1, x) / b
            return (1 + g) * head - 2 / p * tail

    return gap_at


def mp_root(query, near):
    """mpmath.findroot of the 40-digit gap from a bracket around a float root."""
    h = min(1e-8, 0.5 * near, 0.5 * (1.0 - near))
    with mp.workdps(40):
        return float(mp.findroot(mp_gap(query), (mp.mpf(near - h), mp.mpf(near + h)), solver="anderson"))


def ended(query, seconds):
    """minimal_root(query), or the NoRootError it raised, after checking it took under seconds."""
    t0 = time.perf_counter()
    try:
        result = minimal_root(query)
    except NoRootError as exc:
        result = exc
    assert time.perf_counter() - t0 < seconds
    return result


def assert_matches_mpmath(query, result):
    """A radius is mpmath's root to 1e-10; a NoRootError tells the truth about the gap."""
    if isinstance(result, NoRootError):
        if "(0, 0.001]" in str(result):
            assert mp_gap(query)(radius._COARSE[0]) <= 0
        else:
            assert mp_gap(query)(radius.SCAN_END) > 0
    else:
        assert abs(result.radius - mp_root(query, result.radius)) <= 1e-10


class TestRadiiNearOne:
    """Radii in the scan's last block (above about 0.897) need the weights up
    to r = 1 - 1e-9; each query ends within 0.5 s in a radius or a NoRootError."""

    @pytest.mark.parametrize("alpha,gamma", [(5.0, 0.9), (10.0, 0.5), (20.0, 0.0)])
    def test_alpha_cesaro_p1_radius(self, alpha, gamma):
        query = q(AlphaCesaro(alpha), gamma, 1.0)
        res = ended(query, 0.5)
        assert 0.897 < res.radius < 1.0
        assert_matches_mpmath(query, res)

    def test_alpha_cesaro_50_radius(self):
        res = ended(q(AlphaCesaro(50.0)), 0.5)
        assert res.radius == pytest.approx(0.97260576670043, abs=1e-12)

    @pytest.mark.parametrize("gamma,p", [(0.0, 2.0), (0.9, 1.0)])
    def test_bernardi_2_minus_1_5_radius(self, gamma, p):
        query = q(Bernardi(2, -1.5), gamma, p)
        res = ended(query, 0.5)
        assert 0.897 < res.radius < 1.0
        assert_matches_mpmath(query, res)

    @pytest.mark.parametrize("m", [110, 300, 400, 600])
    def test_bernardi_large_m_skips_underflow_near_zero(self, m):
        # phi_0 = x^m/(m+delta) and the tail underflow to 0 at the first grid
        # points, so the gap reads 0 there; the crossing follows the first
        # positive gap, near 1/3 (from m = 361 the zeros reach past 0.129)
        query = q(Bernardi(m, 1.0), 0.0, 1.0)
        assert gap(query, radius._COARSE[0]) == 0.0
        res = ended(query, 0.5)
        assert 0.33 < res.radius < 0.34
        assert_matches_mpmath(query, res)

    @pytest.mark.parametrize("delta,gamma,p", [(1.0, 0.0, 1.0), (3.0, 0.9, 0.5)])
    def test_bernardi_subnormal_phi0_is_no_root(self, delta, gamma, p):
        # from m = 640 at (1, 0, 1) and m = 621 at (3, 0.9, 0.5) phi_0 at the
        # radius falls below the normal floats, where the gap keeps too few
        # bits to place the crossing: below that a radius matches mpmath, above
        # it the query ends in NoRootError, never in a radius off by up to 1e-2
        for m in range(600, 700, 4):
            query = q(Bernardi(m, delta), gamma, p)
            result = ended(query, 0.5)
            if isinstance(result, NoRootError):
                assert m > 620
            else:
                assert abs(result.radius - mp_root(query, result.radius)) <= 1e-10
        with pytest.raises(NoRootError, match="underflows below the normal floats"):
            minimal_root(q(Bernardi(640, 1.0)))

    @pytest.mark.parametrize("beta", [5e-324, 1e-320, 1e-300, 1e-18])
    def test_beta_cesaro_tiny_beta_takes_the_limit(self, beta):
        # beta r underflowed or lost bits, so the total read inf or nan and
        # the radius was wrong (0.58221 at beta = 1e-320); as beta -> 0 the
        # total tends to -log(1-x)/x, and at gamma = 0, p = 1 that equals 1.5
        with mp.workdps(40):
            root = float(mp.findroot(lambda x: -mp.log(1 - x) / x - mp.mpf(1.5), 0.58))
        assert minimal_root(q(BetaCesaro(beta))).radius == pytest.approx(root, abs=1e-12)

    def test_bernardi_1_minus_0_999_has_no_root(self):
        # the gap stays positive at every float below 1
        query = q(Bernardi(1, -0.999))
        assert isinstance(ended(query, 0.5), NoRootError)
        assert mp_gap(query)(radius.SCAN_END) > 0

    def test_operator_radius(self):
        t0 = time.perf_counter()
        res = operator_bohr_radius(AlphaCesaro(10.0), DomainParams(0.5))
        assert time.perf_counter() - t0 < 0.5
        assert res.radius > 0.897
        assert_matches_mpmath(q(AlphaCesaro(10.0), 0.5), res)

    @pytest.mark.parametrize("family", [AlphaCesaro(1000.0), Bernardi(1, -0.9999)], ids=str)
    def test_validator_extremes(self, family):
        query = q(family)
        assert_matches_mpmath(query, ended(query, 1.0))


alpha_families = st.floats(-1.0, 60.0, exclude_min=True).map(AlphaCesaro)
bernardi_families = st.integers(1, 5).flatmap(
    lambda m: st.floats(-float(m), 5.0, exclude_min=True).map(lambda delta: Bernardi(m, delta))
)


@given(
    st.one_of(alpha_families, bernardi_families),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 2.0, exclude_min=True),
)
@settings(derandomize=True, deadline=None, max_examples=300)
def test_operator_families_end_and_match_mpmath(family, gamma, p):
    # the validated domain: alpha in (-1, 60], m in 1..5, delta in (-m, 5],
    # gamma in [0, 1), p in (0, 2]
    query = q(family, gamma, p)
    assert_matches_mpmath(query, ended(query, 0.5))
