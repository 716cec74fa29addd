"""Root location for the gap equation (1+gamma) phi_0 = (2/p) tail."""

import importlib.util
import math
import time
import timeit
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrad import bohr, harness, radius, weights
from bohrad.radius import (
    NoRootError,
    RadiusQuery,
    gap,
    minimal_root,
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
    make_family,
)
from oracles import mp_h, mp_root, mp_tail_over_phi0, reference_minimal_root

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


# the gap is negative on (0, 0.2), positive on (0.2, 0.5) and negative after
LEADING_DIP = CustomFamily(
    name="leading-dip",
    phi0_fn=lambda r: np.ones_like(r),
    phi_k_fn=lambda k, r: r ** k,
    tail_fn=lambda r: 0.5 * (1.0 - (r - 0.2) * (0.5 - r)),
)

# the gap crosses 0 at about 1/2001, below the first grid point
STEEP = CustomFamily(
    name="steep-tail",
    phi0_fn=lambda r: np.ones_like(r),
    phi_k_fn=lambda k, r: 1000.0 * r ** k,
    tail_fn=lambda r: 1000.0 * r / (1.0 - r),
)

# the gap is 1 + gamma everywhere
NO_TAIL = CustomFamily(
    name="no-tail",
    phi0_fn=lambda r: np.ones_like(r),
    phi_k_fn=lambda k, r: np.zeros_like(r),
    tail_fn=lambda r: np.zeros_like(r),
)


def nan_past(x0):
    """The power tail up to x0 and a nan tail from there: the gap is positive
    up to x0 and nan after, with no crossing to certify."""
    return CustomFamily(
        name="nan-past",
        phi0_fn=lambda r: np.ones_like(r),
        phi_k_fn=lambda k, r: r ** k,
        tail_fn=lambda r: np.where(r < x0, 0.1 * r, np.nan),
    )


# the gap is 1/3 - x up to its root 1/3 and 1000 (1/3 - x) past it: the
# secant through a bracket's ends falls in its lowest cell, and the root's
# cell is the sixth (1/3 is 0x0.555... of its cell)
KINK = CustomFamily(
    name="kink",
    phi0_fn=lambda r: np.ones_like(r),
    phi_k_fn=lambda k, r: r ** k,
    tail_fn=lambda r: 0.5 * (1.0 - np.where(r < 1.0 / 3.0, 1.0 / 3.0 - r, 1000.0 * (1.0 / 3.0 - r))),
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
        "family",
        [*(cls() for cls in FAMILY_CLASSES.values()), BetaCesaro(7.3), BetaCesaro(0.25),
         pytest.param(GEOMETRIC, id="geometric")],
        ids=str,
    )
    def test_is_the_weight_ratio_to_the_bit(self, family):
        # the solver's unchecked _gap and the checked gap are one formula,
        # (1+gamma) - (2/p) ratio, with ratio read on the points of x as one
        # 1-d array, and ratio is the checked weights' tail/phi_0:
        # to the bit where phi_0 is 1 or ratio divides the two, and to 1e-14
        # in the scaled closed forms; the allowance of _phi_matrix is one
        # formula with ratio and scaled too
        query = q(family, 0.3, 0.7)

        def ratio_gap(x):
            points = np.asarray(x, dtype=float).reshape(-1)
            return ((1.0 + 0.3) - (2.0 / 0.7) * family.ratio(points)).reshape(np.shape(x))

        def same_bits(got, expected):
            assert np.shape(got) == np.shape(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

        for x in (0.45, np.float64(0.45), np.asarray(0.45), np.linspace(0.0, 0.9, 7),
                  np.linspace(0.1, 0.9, 6).reshape(2, 3)):
            got = gap(query, x)
            assert type(got) is (float if np.ndim(x) == 0 else np.ndarray)
            same_bits(got, ratio_gap(x))
        for built in (radius._SPARSE, radius._COARSE[:31], radius._COARSE[992:999],
                      0.4 + 0.01 * radius._SECTIONS, np.array([0.45])):
            same_bits(radius._gap(query, built), ratio_gap(built))
        xs = np.append(np.linspace(0.05, 0.95, 19), radius._SPARSE[-4:])
        quotient = weights.tail_sum(family, xs) / weights.phi0(family, xs)
        if isinstance(family, (BetaCesaro, Bernardi)):
            np.testing.assert_allclose(family.ratio(xs), quotient, rtol=1e-13)
        else:
            same_bits(family.ratio(xs), quotient)
        radii, _, _, allowance = bohr._phi_matrix(family, 0.45, 12, 60)
        alone = [family.ratio(np.array([r]))[0] - family.scaled(60, np.array([r]))[0, 1:].sum()
                 for r in radii.tolist()]
        same_bits(allowance, max(*alone, 0.0))


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
    grid in one batch, first stops being positive; the first cell (0, 1e-3]
    if its end is not positive, and None if the gap is positive on the whole
    grid."""
    with np.errstate(over="ignore", invalid="ignore"):  # 2/p overflows as p nears 0
        g = np.asarray(radius._gap(query, radius._COARSE))
    ends = np.flatnonzero(~(g > 0.0))
    if not ends.size:
        return None
    i = int(ends[0])
    return (float(radius._COARSE[i - 1]), float(radius._COARSE[i])) if i > 0 else (0.0, radius._COARSE[0])


def assert_bracket_in_grid_cell(query):
    # the two scan batches find the cell that a scan of every grid point finds
    cell = grid_cell(query)
    try:
        res = minimal_root(query)
    except NoRootError:
        # no crossing on the grid, or none after a positive point
        assert cell is None or cell[0] == 0.0
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
        # 32 sparse points and the 31 grid points of the cell (0.320, 0.352);
        # eight 16-sections narrow (0.333, 0.334) to a width under 1e-12.  The
        # secant through its ends predicts the cells 5, 5, 3, 15 of the first
        # four: the third is 5, so of that batch of 4 x 15 points the fourth
        # level is dropped.  The next batch's four levels (5, 5, 5, 5) are all
        # predicted, and one level of 15 is left; then the residual with the
        # 32 window points
        res = minimal_root(q(PowerTail(1)))
        assert res.evaluations == 32 + 31 + 4 * 15 + 4 * 15 + 15 + 33

    def test_leading_negative_gap_is_no_root(self):
        # the gap is not positive near 0, so no radius exists, and a scan that
        # skipped the leading non-positive points would return 0.5
        query = q(LEADING_DIP)
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
    def test_no_range_check_per_query(self, name, range_checks):
        # the scan, the 16-sections, the residual and the sharpness window
        # evaluate the gap on points the solver built inside (0, 1): none goes
        # through the checked gap
        for gamma, p in ((0.0, 1.0), (0.3, 0.7), (0.9, 2.0)):
            range_checks.clear()
            minimal_root(q(FAMILY_CLASSES[name](), gamma, p))
            assert len(range_checks) == 0

    def test_rejects_invalid_p(self):
        with pytest.raises(ValueError):
            q(PowerTail(1), p=0.0)
        with pytest.raises(ValueError):
            q(PowerTail(1), p=2.5)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.inf, math.nan])
    def test_rejects_bad_tol(self, tol, monkeypatch):
        # before any evaluation: an infinite tol once solved, and failed only in rendering
        monkeypatch.setattr(radius, "_gap", None)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            minimal_root(q(PowerTail(1)), tol=tol)

    def test_no_root_when_tail_vanishes(self):
        with pytest.raises(NoRootError):
            minimal_root(q(NO_TAIL))

    def test_sixteen_section_catches_tiny_root(self):
        # gap is already negative at the first coarse point; the 16-section
        # of (0, 1e-3) must still isolate the crossing at about 1/2001
        res = minimal_root(q(STEEP))
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
        # the query whose bracket once failed when its lower end was evaluated
        # again alone (a gap of -8.9e-16 against a positive one next to hi):
        # each point now has one value, so the batch values certify the bracket
        query = q(AlphaCesaro(0.17783250054616684), 0.7, 0.5)
        res = minimal_root(query)
        lo, hi = res.bracket
        assert gap(query, lo) > 0.0 >= gap(query, hi)
        assert mp_h(query)(lo) > 0 >= mp_h(query)(hi)
        assert hi - lo <= 1e-12
        assert_matches_mpmath(query, res)

    @pytest.mark.parametrize("family", [*BUILTINS, AlphaCesaro(50.0), AlphaCesaro(1e5), Bernardi(12, 0.5)], ids=str)
    def test_no_point_is_evaluated_alone(self, family, monkeypatch):
        # the ends keep the gap of the batch that found them: besides the scan
        # and the 16-sections, whose levels the secant predicts several to a
        # batch, one batch of 33 holds the radius (the residual) and the 32
        # points of the window, where the ends' batch values certify the
        # bracket.  The nine built-in families take at most 6 batches here
        # (32, 31, 60, 60, 15, 33 at most), where one level a batch takes 12
        sizes, ratio = [], type(family).ratio

        def counted(self, r):
            sizes.append(r.size)
            return ratio(self, r)

        monkeypatch.setattr(type(family), "ratio", counted)
        query = q(family, 0.3, 1.0)
        res = minimal_root(query)
        assert sizes[:2] == [32, sizes[1]] and sizes[-1] == 33 and 1 not in sizes
        assert family not in BUILTINS or len(sizes) <= 6
        assert res.evaluations == sum(sizes)
        lo, hi = res.bracket
        assert gap(query, lo) > 0.0 >= gap(query, hi)

    @pytest.mark.parametrize("x0", [0.3, 0.4567, 1e-4])
    def test_a_nan_hi_is_no_root(self, x0):
        # a nan ends the positive run like a gap <= 0, and the bracket it
        # leaves has a nan gap at hi: no certified crossing
        with pytest.raises(NoRootError, match=r"no certified crossing .*: gap\(hi\) is nan"):
            minimal_root(q(nan_past(x0)))


def _workloads():
    """The benchmark's query generators (perfbench/workloads.py, which imports numpy alone)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solved(solve, query, tol):
    """A solve's outcome to the bit: radius, bracket and residual as float.hex
    with the window verdict, or the text of its NoRootError."""
    try:
        res = solve(query, tol)
    except NoRootError as exc:
        return str(exc)
    return res.radius.hex(), res.bracket[0].hex(), res.bracket[1].hex(), res.residual.hex(), res.sharp_window_ok


REFERENCE_TOLS = (1e-300, 1e-12, 0.5)


class TestReferenceSolver:
    """The solver evaluates several predicted 16-section levels a batch and the
    radius with its window in one; the reference (tests/oracles.py) evaluates
    one level a batch and the radius alone.  Both read each point's gap
    alone, so they give the same bits."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sweep_and_edges_match_the_reference(self, seed):
        # the benchmark's typical queries and its domain-edge probes: 1 - 1e-300
        # exhausts float spacing, 0.5 stops at the grid cell with no 16-section
        workloads = _workloads()
        for name, params, gamma, p in workloads.sweep(seed, 0, 500) + workloads.edge_queries(seed):
            query = q(make_family(name, params), gamma, p)
            for tol in REFERENCE_TOLS:
                assert solved(minimal_root, query, tol) == solved(reference_minimal_root, query, tol), \
                    (name, params, gamma, p, tol)

    @pytest.mark.parametrize("family", [
        pytest.param(LEADING_DIP, id="leading-dip"),
        pytest.param(STEEP, id="steep-tiny-root"),
        pytest.param(NO_TAIL, id="no-tail"),
        *(pytest.param(nan_past(x0), id=f"nan-past-{x0}") for x0 in (0.3, 0.4567, 1e-4)),
        pytest.param(KINK, id="kink"),
    ])
    @pytest.mark.parametrize("tol", REFERENCE_TOLS)
    def test_custom_families_match_the_reference(self, family, tol):
        query = q(family)
        assert solved(minimal_root, query, tol) == solved(reference_minimal_root, query, tol)

    def test_a_missed_cell_at_every_level(self, monkeypatch):
        # at the kink the secant predicts the lowest cell of every bracket and
        # the root is in the sixth: each batch is walked one level deep and
        # its deeper levels are dropped.  The eight levels to a width under
        # 1e-12 take eight batches of min(4, levels left) x 15 points
        sizes, ratio = [], CustomFamily.ratio

        def counted(self, r):
            sizes.append(r.size)
            return ratio(self, r)

        monkeypatch.setattr(CustomFamily, "ratio", counted)
        res = minimal_root(q(KINK))
        assert sizes == [32, 31, 60, 60, 60, 60, 60, 45, 30, 15, 33]
        assert res.evaluations == sum(sizes)
        assert res.radius == pytest.approx(1.0 / 3.0, abs=1e-12)


BETA_GRID = [
    (beta, gamma, p)
    for beta in (60.0, 100.0, 200.0, 300.0, 400.0, 500.0, 750.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
    for gamma in (0.0, 0.3, 0.6, 0.9)
    for p in (0.5, 1.0, 2.0)
]


class TestPastTheFloatRange:
    """beta-Cesaro weights overflow from where (1-x)^(-beta) passes the floats,
    about 1 - exp(-709.8/beta), and the Bernardi phi_0 = x^m/(m+delta) falls
    below the normal floats at the radius from m = 640; their ratio does not
    leave the floats, and neither does the gap."""

    @pytest.mark.parametrize("family,gamma,p", [
        pytest.param(BetaCesaro(774.0), 0.5, 2.0, id="beta-774-gamma-0.5-p-2"),
        pytest.param(BetaCesaro(1500.0), 0.0, 1.0, id="beta-1500"),
        pytest.param(BetaCesaro(2000.0), 0.0, 1.0, id="beta-2000"),
        pytest.param(BetaCesaro(5000.0), 0.0, 1.0, id="beta-5000"),
        pytest.param(BetaCesaro(1e5), 0.0, 1.0, id="beta-1e5"),
        pytest.param(Bernardi(640, 1.0), 0.0, 1.0, id="bernardi-640"),
        pytest.param(Bernardi(2000, 1.0), 0.0, 1.0, id="bernardi-2000"),
        pytest.param(Bernardi(10000, 1.0), 0.0, 1.0, id="bernardi-10000"),
        # these returned the overflow edge as a radius, with a residual of about 1e305
        pytest.param(BetaCesaro(1500.0), 0.0, 2.0, id="beta-1500-p-2"),
        pytest.param(BetaCesaro(1500.0), 0.9, 1.0, id="beta-1500-gamma-0.9"),
        pytest.param(BetaCesaro(750.0), 0.6, 2.0, id="beta-750-gamma-0.6-p-2"),
        # and these reported a gap > 0 on all of (0, 1), reading a nan gap as positive
        pytest.param(BetaCesaro(1000.0), 0.3, 2.0, id="beta-1000-gamma-0.3-p-2"),
        pytest.param(BetaCesaro(3000.0), 0.9, 0.5, id="beta-3000-gamma-0.9-p-0.5"),
    ])
    def test_radius_matches_mpmath(self, family, gamma, p):
        # each once ended in NoRootError, or in a radius the floats could not resolve
        query = q(family, gamma, p)
        res = ended(query, 0.5)
        assert abs(res.radius - mp_root(query, res.radius)) <= 1e-12
        lo, hi = res.bracket
        assert mp_h(query)(lo) > 0 >= mp_h(query)(hi)
        assert abs(res.residual) <= 1e-11 and res.sharp_window_ok
        # outside the solver's errstate a numpy warning is a test error: h
        # stays finite on the whole grid, and decreases
        g = gap(query, radius._COARSE)
        assert np.isfinite(g).all() and (np.diff(g) <= 0.0).all()
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(family, BetaCesaro):
                assert not np.isfinite(weights.tail_sum(family, radius.SCAN_END))
            else:
                assert weights.phi0(family, res.radius) < np.finfo(float).tiny

    def test_root_below_the_overflow_is_kept(self):
        # the weights overflow from about 0.508, past the crossing near 0.5005
        res = minimal_root(q(BetaCesaro(1000.0), 0.0, 2.0))
        assert res.radius == pytest.approx(0.5004999999998836, abs=1e-12)

    @pytest.mark.parametrize("beta,gamma,p", BETA_GRID)
    def test_large_beta_ends_certified(self, beta, gamma, p):
        # a radius whose bracket and residual are finite and certified, within
        # 1e-12 of the 40-digit root
        query = q(BetaCesaro(beta), gamma, p)
        res = minimal_root(query)
        lo, hi = res.bracket
        assert gap(query, lo) > 0.0 >= gap(query, hi) > -math.inf
        assert math.isfinite(res.residual) and lo <= res.radius <= hi
        assert abs(res.radius - mp_root(query, res.radius)) <= 1e-12


def window_gaps(gaps):
    """GEOMETRIC, whose gap 1 - 2r/(1-r) crosses at 1/3, with the gap at the 32
    points of its sharpness window (radius, radius + 0.05) set to gaps: the
    tail there is (1 - h)/2, at gamma = 0 and p = 1."""
    window = radius._window(minimal_root(q(GEOMETRIC)).radius, 0.05)[1:]
    tail_at = dict(zip(window.tolist(), (0.5 * (1.0 - h) for h in gaps)))
    return CustomFamily(
        name="window-gaps",
        phi0_fn=lambda r: np.ones_like(r),
        phi_k_fn=lambda k, r: r ** k,
        tail_fn=lambda r: np.array([tail_at.get(x, x / (1.0 - x)) for x in r.tolist()]),
    )


class TestSharpnessWindow:
    def test_classical_window(self):
        query = q(PowerTail(1))
        res = minimal_root(query)
        assert res.radius == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert res.sharp_window_ok is True
        assert (gap(query, radius._window(1.0 / 3.0, 0.05)[1:]) < 0.0).all()

    def test_power_tail_n2_p2(self):
        query = q(PowerTail(2), 0.0, 2.0)
        res = minimal_root(query)
        assert res.sharp_window_ok is True
        assert (gap(query, radius._window(res.radius, 0.02)[1:]) < 0.0).all()

    def test_false_below_radius(self):
        # a window strictly below the root, (0.2, 0.25), sees a positive gap
        gaps = gap(q(GEOMETRIC), radius._window(0.2, 0.05)[1:])
        assert (gaps > 0.0).all()
        assert minimal_root(q(window_gaps(gaps.tolist()))).sharp_window_ok is False

    def test_window_must_stay_inside_domain(self):
        # h = root - x: the window (root, root + (1 - root)/2) is all the
        # room that is left below 1, and the solver's last batch reads the
        # radius and the window there
        for root in (0.98, 1.0 - 1e-6):
            batches = []

            def tail_fn(r, root=root, batches=batches):
                batches.append(np.ravel(r).tolist())
                return 0.5 * (1.0 - (root - r))

            family = CustomFamily(
                name="near-one",
                phi0_fn=lambda r: np.ones_like(r),
                phi_k_fn=lambda k, r: r ** k,
                tail_fn=tail_fn,
            )
            res = minimal_root(q(family))
            assert res.radius == pytest.approx(root, abs=1e-12)
            assert res.sharp_window_ok is True
            last = batches[-1]
            assert last[0] == res.radius and len(last) == radius.WINDOW_SAMPLES + 1
            assert res.radius < min(last[1:])
            assert max(last[1:]) < res.radius + 0.5 * (1.0 - res.radius) < 1.0

    def test_false_where_the_gap_turns_positive(self):
        # h = (1/3 - x)(0.36 - x) crosses at 1/3 and is positive again past
        # 0.36, inside the window (1/3, 1/3 + 0.05)
        family = CustomFamily(
            name="dip",
            phi0_fn=lambda r: np.ones_like(r),
            phi_k_fn=lambda k, r: r ** k,
            tail_fn=lambda r: 0.5 * (1.0 - (1.0 / 3.0 - r) * (0.36 - r)),
        )
        res = minimal_root(q(family))
        assert res.radius == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert res.sharp_window_ok is False

    @pytest.mark.parametrize("family", BUILTINS, ids=str)
    def test_all_builtins_have_sharp_windows(self, family):
        res = minimal_root(q(family, 0.25, 1.0))
        assert res.sharp_window_ok is True

    @pytest.mark.parametrize("beta,p", [(1500.0, 1.0), (1000.0, 2.0)])
    def test_window_past_the_overflow(self, beta, p):
        # the weights overflow inside the window; the gap there stays finite
        # and negative, and the window reads true
        query = q(BetaCesaro(beta), 0.0, p)
        res = minimal_root(query)
        eps = min(0.05, 0.5 * (1.0 - res.radius))
        pts = res.radius + eps * np.arange(1, radius.WINDOW_SAMPLES + 1) / (radius.WINDOW_SAMPLES + 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(weights.tail_sum(query.family, pts[-1]))
        g = radius._gap(query, pts)
        assert np.isfinite(g).all() and (g < 0.0).all()
        assert res.sharp_window_ok is True

    @pytest.mark.parametrize("gaps,ok", [
        ([-1.0] * 32, True),
        ([-1.0] * 28 + [math.nan] * 4, False),
        ([-1.0] * 5 + [math.nan] * 27, False),
        ([math.nan] + [-1.0] * 31, False),
        ([math.nan] * 32, False),
        ([-1.0] * 10 + [math.nan] + [-1.0] * 21, False),
        ([-1.0] * 3 + [0.5] + [-1.0] * 28, False),
    ])
    def test_a_nan_anywhere_leaves_the_window_false(self, gaps, ok):
        res = minimal_root(q(window_gaps(gaps)))
        assert res.radius == minimal_root(q(GEOMETRIC)).radius  # the stub reaches the window alone
        assert res.sharp_window_ok is ok


# ---------------------------------------------------------------------------
# radii near 1 and past the float range, against 40-digit mpmath

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
    """A radius is mpmath's root to 1e-10; a NoRootError tells the truth about
    the gap: no root, or one below 1e-12, the narrowest bracket tried from 0."""
    if isinstance(result, NoRootError):
        if "(0, 0.001]" in str(result):
            assert mp_h(query)(radius.DEFAULT_TOL) <= 0
        else:
            assert mp_h(query)(radius.SCAN_END) > 0
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
    def test_bernardi_large_m_gap_positive_near_zero(self, m):
        # phi_0 = x^m/(m+delta) and the tail underflow to 0 at the first grid
        # points (from m = 361 up to past 0.129), where the unscaled gap read
        # 0; their ratio does not, and the gap is positive up to the crossing
        # near 1/3
        query = q(Bernardi(m, 1.0), 0.0, 1.0)
        assert weights.phi0(query.family, radius._COARSE[0]) == 0.0
        assert gap(query, radius._COARSE[0]) > 0.0
        res = ended(query, 0.5)
        assert 0.33 < res.radius < 0.34
        assert_matches_mpmath(query, res)

    @pytest.mark.parametrize("delta,gamma,p", [(1.0, 0.0, 1.0), (3.0, 0.9, 0.5)])
    def test_bernardi_past_the_subnormal_phi0(self, delta, gamma, p):
        # from m = 640 at (1, 0, 1) and m = 621 at (3, 0.9, 0.5) phi_0 at the
        # radius falls below the normal floats; the radius still matches mpmath
        # (once the query ended in NoRootError there)
        for m in range(600, 700, 4):
            query = q(Bernardi(m, delta), gamma, p)
            res = ended(query, 0.5)
            assert abs(res.radius - mp_root(query, res.radius)) <= 1e-12
        assert weights.phi0(query.family, res.radius) < np.finfo(float).tiny

    @pytest.mark.parametrize("beta", [1.0, *(1.0 + d for d in (9e-10, 5e-10, 1e-12, 1e-13, 1e-15, 2.2e-16)),
                                      *(1.0 - d for d in (9e-10, 5e-10, 1e-12, 1e-13, 1e-15))])
    def test_beta_near_one_takes_the_log_form_only_at_one(self, beta):
        # every |beta - 1| < 1e-9 once took the beta = 1 limit u/r, and phi_0
        # was off by up to 9.3e-9; expm1 keeps any beta != 1 to a few ulps
        family = BetaCesaro(beta)
        xs = np.concatenate([np.linspace(0.1, 0.9, 9), 1.0 - np.logspace(-2, -9, 8)])
        with mp.workdps(40):
            s = mp.mpf(beta) - 1
            expected = [float(mp.expm1(s * u) / (s * x) if s else u / x)
                        for x, u in ((mp.mpf(x), -mp.log1p(-mp.mpf(x))) for x in xs.tolist())]
        np.testing.assert_allclose(weights.phi0(family, xs), expected, rtol=1e-14, atol=0.0)
        query = q(family, 0.9, 2.0)
        res = minimal_root(query)
        assert abs(res.radius - mp_root(query, res.radius)) <= 1e-12

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
        assert mp_h(query)(radius.SCAN_END) > 0

    def test_operator_radius(self):
        t0 = time.perf_counter()
        res = minimal_root(RadiusQuery(AlphaCesaro(10.0), DomainParams(0.5), 1.0))
        assert time.perf_counter() - t0 < 0.5
        assert res.radius > 0.897
        assert_matches_mpmath(q(AlphaCesaro(10.0), 0.5), res)

    @pytest.mark.parametrize("family", [AlphaCesaro(1000.0), Bernardi(1, -0.9999)], ids=str)
    def test_validator_extremes(self, family):
        query = q(family)
        assert_matches_mpmath(query, ended(query, 1.0))

    @pytest.mark.parametrize("alpha", [1e5, 1e8])
    @pytest.mark.parametrize("gamma,p", [(0.0, 1.0), (0.9, 2.0), (0.3, 0.01)])
    def test_alpha_cesaro_past_the_old_term_limit(self, alpha, gamma, p):
        # the direct Lerch series once needed more than 4e6 terms below its
        # switch, and raised RuntimeError from alpha ~ 8e4; the radius sits
        # at 1 - O(1/alpha), in the Bernoulli-E_1 branch
        query = q(AlphaCesaro(alpha), gamma, p)
        res = ended(query, 0.5)
        assert abs(res.radius - mp_root(query, res.radius)) <= 1e-12
        lo, hi = res.bracket
        assert gap(query, lo) > 0.0 >= gap(query, hi)

    def test_alpha_cesaro_8e4_takes_milliseconds(self):
        # the direct series took 0.12 s here, next to its term limit
        query = q(AlphaCesaro(8e4))
        best = min(timeit.repeat(lambda: minimal_root(query), number=1, repeat=7))
        assert best < 5e-3


alpha_families = st.floats(-1.0, 60.0, exclude_min=True).map(AlphaCesaro)
bernardi_families = st.integers(1, 5).flatmap(
    lambda m: st.floats(-float(m), 5.0, exclude_min=True).map(lambda delta: Bernardi(m, delta))
)


@given(
    st.one_of(
        alpha_families,
        bernardi_families,
        # past the float range of phi_0 and the tail
        st.floats(0.0, 1e5, exclude_min=True).map(BetaCesaro),
        st.builds(Bernardi, st.integers(1, 10_000), st.floats(0.0, 5.0, exclude_min=True)),
    ),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 2.0, exclude_min=True),
)
@settings(derandomize=True, deadline=None, max_examples=500)
def test_operator_families_end_and_match_mpmath(family, gamma, p):
    # the validated domain: alpha in (-1, 60], m in 1..5, delta in (-m, 5],
    # beta in (0, 1e5], and m in 1..10^4 with delta in (0, 5]; gamma in
    # [0, 1), p in (0, 2]
    query = q(family, gamma, p)
    assert_matches_mpmath(query, ended(query, 0.5))



@given(st.floats(0.0, 8.0), st.floats(0.0, 1.0, exclude_max=True), st.floats(0.05, 2.0))
@settings(derandomize=True, deadline=None, max_examples=60)
def test_large_alpha_ends_and_matches_mpmath(log_alpha, gamma, p):
    # alpha from 1 to 1e8, log-uniform, past the Lerch kernel's old term limit
    # (alpha ~ 8e4): the radius nears 1 as 1 - O(1/alpha).  p stays at 0.05
    # and above, where the root does not near 0: there the alpha-Cesaro ratio,
    # (1/(1-r) - phi_0)/phi_0, cancels to noise at large alpha (see CHANGES.md)
    query = q(AlphaCesaro(10.0 ** log_alpha), gamma, p)
    res = ended(query, 0.5)
    assert_matches_mpmath(query, res)
    assert isinstance(res, NoRootError) or abs(res.radius - mp_root(query, res.radius)) <= 1e-12
