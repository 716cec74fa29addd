"""Weight families: closed forms against brute-force summation oracles."""

import math
import time
from dataclasses import dataclass, fields, replace

import mpmath as mp
import numpy as np
import pytest

from bohrad import bohr
from bohrad.bohr import extremal_margin
from bohrad.harness import DEFAULT_FAMILIES
from bohrad._kernels import rising_ratios
from bohrad.radius import RadiusQuery, gap, minimal_root
from bohrad.series import DomainParams
from bohrad.weights import (
    AlphaCesaro,
    Bernardi,
    BetaCesaro,
    CesaroFamily,
    CustomFamily,
    EvenPowers,
    Linear,
    LinearPlusOne,
    MonomialFamily,
    OddPowers,
    PowerTail,
    Quadratic,
    FAMILY_CLASSES,
    make_family,
    phi0,
    phi_k,
    tail_sum,
)
from oracles import brute_force_tail

ALL_FAMILIES = [
    PowerTail(1),
    PowerTail(3),
    EvenPowers(),
    OddPowers(),
    LinearPlusOne(1),
    LinearPlusOne(2),
    Linear(1),
    Linear(2),
    Quadratic(1),
    Quadratic(2),
    BetaCesaro(0.5),
    BetaCesaro(1.0),
    BetaCesaro(2.0),
    AlphaCesaro(-0.5),
    AlphaCesaro(0.0),
    AlphaCesaro(1.0),
    Bernardi(1, 1.0),
    Bernardi(2, 0.5),
    Bernardi(1, -0.5),
]

HALF_GEOMETRIC = CustomFamily(
    name="half-geometric",
    phi0_fn=lambda r: np.ones_like(r),
    phi_k_fn=lambda k, r: 0.5 * r ** k,
    tail_fn=lambda r: 0.5 * r / (1.0 - r),
)

R_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def family_id(family):
    """A test id that stays the same from run to run: a CustomFamily's repr
    holds the addresses of its callables, so it goes by its name."""
    return family.name if isinstance(family, CustomFamily) else str(family)


def oracle_tail(family, r, abs_tol=5e-11):
    """Brute-force sum of phi_k until the running increment certifies abs_tol."""
    total = 0.0
    k = 1
    stall = 0
    while k < 60000:
        t = float(phi_k(family, k, r))
        total += t
        stall = stall + 1 if t < abs_tol * 1e-3 else 0
        if stall > 40:  # 40 consecutive negligible terms: geometric tail is dead
            return total
        k += 1
    raise AssertionError("oracle did not converge")


class TestPhi0:
    def test_elementary_families_are_one(self):
        for fam in (PowerTail(1), EvenPowers(), OddPowers(), Linear(2), Quadratic(3)):
            assert phi0(fam, 0.5) == 1.0

    def test_beta_log_branch_limit_at_zero(self):
        assert phi0(BetaCesaro(1.0), 0.0) == 1.0
        assert phi0(BetaCesaro(1.0), 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_beta_two_closed_form(self):
        # [1 - (1-r)^(-1)] / ((1-2) r) at r = 0.5 is exactly 2; cross-checked
        # against the raw double-sum truncation
        assert phi0(BetaCesaro(2.0), 0.5) == pytest.approx(2.0, abs=1e-14)
        double_sum = sum(
            (1.0 / (k + 1.0)) * g * 0.5 ** k
            for k, g in enumerate(rising_ratios(200, 2.0))
        )
        assert phi0(BetaCesaro(2.0), 0.5) == pytest.approx(double_sum, abs=1e-13)

    def test_beta_one_is_log_form(self):
        r = 0.5
        assert phi0(BetaCesaro(1.0), r) == pytest.approx(math.log(1.0 / (1 - r)) / r, abs=1e-15)

    def test_alpha_phi0_matches_series(self):
        for alpha in (-0.5, 0.0, 1.0, 2.5):
            for r in (0.0, 0.3, 0.9):
                ks = np.arange(4000)
                expected = (1 + alpha) * np.sum(r ** ks / (ks + alpha + 1))
                assert phi0(AlphaCesaro(alpha), r) == pytest.approx(expected, abs=1e-12)

    def test_bernardi_phi0(self):
        assert phi0(Bernardi(2, 0.5), 0.5) == pytest.approx(0.25 / 2.5, abs=1e-16)

    def test_phi0_at_zero(self):
        for fam in ALL_FAMILIES:
            expected = 0.0 if isinstance(fam, Bernardi) else 1.0
            assert phi0(fam, 0.0) == expected

    def test_rejects_r_out_of_range(self):
        with pytest.raises(ValueError):
            phi0(PowerTail(1), 1.0)
        with pytest.raises(ValueError):
            phi0(BetaCesaro(1.0), -0.1)


R_CHECKED = {
    "phi0": phi0,
    "phi_k": lambda fam, r: phi_k(fam, 3, r),
    "tail_sum": tail_sum,
    "extremal_margin": lambda fam, r: extremal_margin(DomainParams(0.3), 0.5, fam, 1.0, r),
    "gap": lambda fam, r: gap(RadiusQuery(fam, DomainParams(0.3), 1.0), r),
}


def shaped(x, ndim):
    """x as a 0-d, 1-d or 2-d input, next to valid radii in 1-d and 2-d."""
    return [np.asarray(x), [0.2, x], [[0.2], [x]]][ndim]


class TestRangeCheck:
    @pytest.mark.parametrize("r", [math.nan, [0.2, math.nan]], ids=["nan", "list"])
    @pytest.mark.parametrize("fn", R_CHECKED)
    @pytest.mark.parametrize("cls", FAMILY_CLASSES.values(), ids=lambda c: c.__name__)
    def test_nan_rejected_at_once(self, cls, fn, r):
        # nan passed the check: BetaCesaro phi0 read 1.0, AlphaCesaro phi0 and
        # the Bernardi tail raised RuntimeError after a long scan, and a
        # cached weight vector held nans
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            R_CHECKED[fn](cls(), r)
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("ndim", [0, 1, 2])
    @pytest.mark.parametrize("x", [0.0, -0.0, float(np.nextafter(1.0, 0.0))])
    def test_accepted(self, x, ndim):
        r = shaped(x, ndim)
        for fn in (phi0, tail_sum):
            value = fn(PowerTail(1), r)
            assert np.shape(value) == np.shape(r)
            assert np.isfinite(value).all()
        assert isinstance(tail_sum(PowerTail(1), x), float)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_accepted(self, shape):
        for fam in ALL_FAMILIES:
            assert tail_sum(fam, np.empty(shape)).shape == shape

    @pytest.mark.parametrize("ndim", [0, 1, 2])
    @pytest.mark.parametrize("x", [1.0, -5e-324, math.inf, -math.inf])
    def test_rejected(self, x, ndim):
        for fn in R_CHECKED.values():
            for fam in (PowerTail(1), AlphaCesaro(0.0)):
                with pytest.raises(ValueError):
                    fn(fam, x if ndim == 0 else shaped(x, ndim))


class TestPhiK:
    def test_monomials_below_threshold_vanish(self):
        assert phi_k(Linear(2), 1, 0.9) == 0.0
        assert phi_k(PowerTail(3), 2, 0.5) == 0.0
        assert phi_k(LinearPlusOne(4), 3, 0.5) == 0.0

    def test_quadratic_value(self):
        assert phi_k(Quadratic(1), 3, 0.5) == pytest.approx(1.125, abs=1e-15)

    def test_even_odd_structure(self):
        assert phi_k(EvenPowers(), 3, 0.5) == 0.0
        assert phi_k(EvenPowers(), 4, 0.5) == 0.5 ** 4
        assert phi_k(OddPowers(), 4, 0.5) == 0.0
        assert phi_k(OddPowers(), 3, 0.5) == 0.5 ** 3
        assert phi_k(OddPowers(), 0, 0.5) == 1.0

    def test_beta_one_k0_is_2log2(self):
        # sum_j 0.5^j/(j+1) = 2 log 2
        assert phi_k(BetaCesaro(1.0), 0, 0.5) == pytest.approx(2 * math.log(2), abs=1e-13)

    def test_series_phi_k_against_raw_sums(self):
        r = 0.6
        for beta in (0.5, 2.0):
            for k in (0, 1, 4):
                g = rising_ratios(400, beta)
                expected = sum(g[j] * r ** (k + j) / (k + j + 1.0) for j in range(401))
                assert phi_k(BetaCesaro(beta), k, r) == pytest.approx(expected, rel=1e-12)

    def test_non_negative_on_grid(self):
        for fam in ALL_FAMILIES:
            for k in (0, 1, 2, 5, 17):
                for r in (0.0, 0.25, 0.75, 0.95):
                    assert phi_k(fam, k, r) >= 0.0

    def test_bernardi_indexing(self):
        assert phi_k(Bernardi(1, 1.0), 2, 0.5) == pytest.approx(0.5 ** 3 / 4.0, abs=1e-16)


class TestTailSum:
    def test_geometric(self):
        assert tail_sum(PowerTail(1), 1.0 / 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_alpha_at_zero(self):
        assert tail_sum(AlphaCesaro(0.7), 0.0) == 0.0

    def test_linear_shifted(self):
        # brute force: sum_{n>=2} n 0.5^n = 1.5
        assert tail_sum(Linear(2), 0.5) == pytest.approx(1.5, abs=1e-14)

    def test_tail_sum_zero_at_origin(self):
        for fam in ALL_FAMILIES:
            assert tail_sum(fam, 0.0) == 0.0

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=family_id)
    def test_closed_forms_match_oracle(self, family):
        for r in R_GRID:
            expected = oracle_tail(family, r)
            assert tail_sum(family, r) == pytest.approx(expected, abs=1e-10), (family, r)

    def test_printed_quadratic_tail_formula_confirmed(self):
        # the n^2 closed form as printed simplifies to the standard
        # r^N [N^2 - (2N^2-2N-1) r + (N-1)^2 r^2] / (1-r)^3; both checked
        # against direct summation
        for N in (1, 2, 3, 5):
            fam = Quadratic(N)
            for r in (0.1, 0.5, 0.9):
                ns = np.arange(N, 4000, dtype=float)
                brute = float(np.sum(ns ** 2 * r ** ns))
                std = r ** N * (N * N - (2 * N * N - 2 * N - 1) * r + (N - 1) ** 2 * r * r) / (1 - r) ** 3
                assert tail_sum(fam, r) == pytest.approx(brute, rel=1e-12)
                assert std == pytest.approx(brute, rel=1e-12)

    def test_monotone_in_r(self):
        grid = np.linspace(0.0, 0.95, 40)
        for fam in ALL_FAMILIES:
            vals = tail_sum(fam, grid)
            assert np.all(np.diff(vals) >= -1e-15), fam


class TestPhiVector:
    def test_matches_scalar_phi_k(self):
        r = 0.45
        for fam in ALL_FAMILIES:
            vec = fam.vector(12, np.array([r]))[0]
            direct = [phi_k(fam, k, r) for k in range(13)]
            np.testing.assert_allclose(vec, direct, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=family_id)
    def test_vector_over_a_grid_is_the_stacked_vectors(self, family):
        # _phi_matrix takes a cell's whole table from one call; every row must
        # be bit for bit the one-point table at its point
        for radii in (np.linspace(0.0, 0.63, 12), np.array([0.3]), np.linspace(0.1, 0.95, 5)):
            table = family.vector(40, radii)
            assert table.shape == (radii.size, 41)
            stacked = np.vstack([family.vector(40, np.array([r])) for r in radii.tolist()])
            assert table.tobytes() == stacked.tobytes()

    def test_custom_vector_over_a_grid(self):
        # one phi_k_fn call per k >= 1 over the whole grid (a call per
        # (k, point) took 35 ms at k = 200 on 100 points, against 0.8 ms),
        # phi_0 from phi0_fn, and every row is bit for bit the one-point
        # table at its point
        radii = np.concatenate([np.linspace(0.0, 0.99, 100), 1.0 - np.logspace(-3, -9, 7)])
        for phi_k_fn in (
            HALF_GEOMETRIC.phi_k_fn,
            lambda k, r: np.exp(k * np.log1p(-r)) * r / (k + 1.0),
            lambda k, r: 1.0 if k == 0 else 0.0,  # a float, broadcast over the grid
        ):
            calls = []

            def counted(k, r):
                calls.append(k)
                return phi_k_fn(k, r)

            fam = replace(HALF_GEOMETRIC, phi_k_fn=counted)
            table = fam.vector(200, radii)
            assert calls == list(range(1, 201))
            assert table[:, 0].tolist() == [1.0] * radii.size
            stacked = np.vstack([fam.vector(200, np.array([r])) for r in radii.tolist()])
            assert table.shape == (radii.size, 201)
            assert table.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("family", [*DEFAULT_FAMILIES, HALF_GEOMETRIC], ids=family_id)
    def test_phi_k_is_the_table_column(self, family):
        # phi_k has one implementation, the table: at every k it is bit for
        # bit the entry a Bohr sum over vector(k, r) reads, as an array and
        # point by point.  The Cesaro tables sum a series whose term count
        # grows like 1/(1-r), so their grid stops at 0.999; the closed-form
        # tables reach 1 - 1e-9
        top = 3 if isinstance(family, CesaroFamily) else 9
        radii = np.concatenate([np.linspace(0.0, 0.95, 12), 1.0 - np.logspace(-2, -top, top - 1)])
        for k in range(41):
            column = family.vector(k, radii)[:, k]
            assert phi_k(family, k, radii).tobytes() == column.tobytes()
            assert [phi_k(family, k, r) for r in radii.tolist()] == column.tolist()

    def test_allowance_is_the_scaled_tail_mass(self):
        # the truncation allowance of the Bohr check, ratio less the row sum
        # of psi_1 ... psi_40, against the brute-force tail over phi_0
        for fam in ALL_FAMILIES:
            for r in (0.3, 0.7):
                allowance = bohr._phi_matrix(fam, r, 2, 40)[3]
                p0 = phi0(fam, r)
                brute = oracle_tail(fam, r) / p0 - sum(phi_k(fam, k, r) / p0 for k in range(1, 41))
                assert allowance >= 0.0
                assert allowance == pytest.approx(max(brute, 0.0), abs=1e-9)


class TestScaled:
    @pytest.mark.parametrize("family", [*ALL_FAMILIES, Bernardi(40, 2.0), HALF_GEOMETRIC], ids=family_id)
    def test_is_the_table_over_phi0(self, family):
        # psi_k = phi_k/phi_0, the weights the Bohr check reads: the table
        # itself where phi_0 = 1, and Bernardi's closed form, with no r^m, to
        # 1e-15 of the quotient wherever phi_0 is normal
        top = 3 if isinstance(family, CesaroFamily) else 9
        radii = np.concatenate([np.linspace(0.0, 0.95, 12), 1.0 - np.logspace(-2, -top, top - 1)])
        table, psi = family.vector(40, radii), family.scaled(40, radii)
        assert psi.shape == table.shape
        if isinstance(family, MonomialFamily):
            assert psi.tobytes() == table.tobytes()
        normal = table[:, 0] >= np.finfo(float).tiny
        np.testing.assert_allclose(psi[normal], table[normal] / table[normal, :1], rtol=1e-15, atol=0.0)

    def test_phi0_has_one_source(self):
        # HALF_GEOMETRIC's phi_k_fn(0, r) = 0.5 disagrees with its phi0_fn = 1:
        # the table took column 0 from phi_k_fn and phi0 from phi0_fn, so its
        # psi were twice its table; both now read phi0_fn
        radii = np.array([0.0, 0.25, 0.5, 0.9])
        table = HALF_GEOMETRIC.vector(5, radii)
        assert table[:, 0].tolist() == phi0(HALF_GEOMETRIC, radii).tolist() == [1.0] * 4
        assert HALF_GEOMETRIC.scaled(5, radii).tobytes() == table.tobytes()

    def test_zero_where_phi0_is_zero(self):
        fam = CustomFamily(name="vanishing", phi0_fn=lambda r: r, phi_k_fn=lambda k, r: r ** (k + 1),
                           tail_fn=lambda r: r ** 2 / (1.0 - r))
        assert fam.scaled(3, np.array([0.0, 0.5])).tolist() == [[0.0] * 4, [1.0, 0.5, 0.25, 0.125]]


class TestBetaDoubleSumSwap:
    def test_partial_sums_match_at_matched_truncation(self):
        # with all-ones coefficients, the row form
        #   sum_{n<=K} (1/(n+1)) (sum_{j<=n} G_j) r^n
        # must equal the column form sum_{n<=K} phi_n^(K)(r) where phi_n^(K)
        # truncates the weight series at k <= K
        K, r = 60, 0.55
        for beta in (0.5, 1.0, 2.0):
            g = rising_ratios(K, beta)
            rows = sum(np.cumsum(g)[n] / (n + 1.0) * r ** n for n in range(K + 1))
            cols = sum(
                sum(g[k - n] * r ** k / (k + 1.0) for k in range(n, K + 1))
                for n in range(K + 1)
            )
            assert rows == pytest.approx(cols, rel=1e-12)


class TestValidationAndRegistry:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PowerTail(0)
        with pytest.raises(ValueError):
            BetaCesaro(0.0)
        with pytest.raises(ValueError):
            AlphaCesaro(-1.0)
        with pytest.raises(ValueError):
            Bernardi(0, 1.0)
        with pytest.raises(ValueError):
            Bernardi(2, -2.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "cls, field",
        [(cls, f.name) for cls in FAMILY_CLASSES.values() for f in fields(cls)],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_rejects_non_finite_parameter(self, cls, field, bad):
        # BetaCesaro(inf) answered "no root" from NaN gaps, AlphaCesaro(inf)
        # raised RuntimeError after a long scan, PowerTail(N=inf) OverflowError
        with pytest.raises(ValueError):
            cls(**{field: bad})

    def test_registry_round_trip(self):
        for fam in ALL_FAMILIES:
            rebuilt = make_family(fam.name, fam.params())
            assert rebuilt == fam

    def test_unknown_family_name(self):
        with pytest.raises(ValueError):
            make_family("fourier", {})

    def test_custom_family_hooks(self):
        fam = HALF_GEOMETRIC
        assert phi0(fam, 0.3) == 1.0
        assert phi_k(fam, 2, 0.5) == 0.125
        assert tail_sum(fam, 0.5) == pytest.approx(oracle_tail(fam, 0.5), abs=1e-12)


@dataclass(frozen=True)
class Cubic(MonomialFamily):
    """phi_0 = 1; phi_n = n^3 r^n for n >= 1: a family defined only here."""

    name = "cubic"

    def coef(self, k):
        return k ** 3

    def tail(self, r):
        return r * (1.0 + 4.0 * r + r * r) / (1.0 - r) ** 4


class TestNewFamilyIsOneClass:
    def test_tail_matches_brute_force(self):
        for r in (0.1, 0.3, 0.5, 0.7):
            assert tail_sum(Cubic(), r) == pytest.approx(brute_force_tail(Cubic(), r, 600), rel=1e-12)

    def test_vector_matches_phi_k(self):
        for r in (0.0, 0.2, 0.45, 0.9):
            # to the ulp: phi_k reads a table of order k, this one is of order 60
            direct = [phi_k(Cubic(), k, r) for k in range(61)]
            np.testing.assert_allclose(Cubic().vector(60, np.array([r]))[0], direct, rtol=1e-15, atol=0.0)

    def test_radius_without_registration(self):
        query = RadiusQuery(Cubic(), DomainParams(0.25), 1.0)
        res = minimal_root(query)
        lo, hi = res.bracket
        assert gap(query, lo) > 0.0 >= gap(query, hi)
        # (1 + gamma) = (2/p) r (1 + 4r + r^2) / (1 - r)^4 at the radius
        with mp.workdps(30):
            root = mp.findroot(lambda x: 1.25 * (1 - x) ** 4 - 2 * x * (1 + 4 * x + x * x), 0.1)
        assert res.radius == pytest.approx(float(root), abs=1e-11)
        assert "cubic" not in FAMILY_CLASSES
