"""Suite runners: determinism, controls, coverage, oracles."""

import math

import numpy as np
import pytest

from bohrad import harness
from bohrad.cli import render_json
from bohrad.harness import (
    CellResult,
    SuiteConfig,
    brute_force_tail,
    default_config,
    iter_cells,
    random_bounded_functions,
    run_inequality_suite,
    run_sharpness_suite,
)
from bohrad.bohr import verify_up_to_radius
from bohrad.radius import NoRootError, RadiusQuery, minimal_root
from bohrad.series import (
    BlaschkeComposed,
    CoefficientSeries,
    DomainParams,
    Extremal,
    Raw,
    lemma_bound_report,
)
from bohrad.weights import (
    AlphaCesaro,
    Bernardi,
    BetaCesaro,
    CustomFamily,
    Linear,
    PowerTail,
    Quadratic,
)


# phi_0 = 1 and no tail: minimal_root finds no radius for it
DEAD = CustomFamily(
    name="no-tail",
    phi0_fn=lambda r: np.ones_like(r),
    phi_k_fn=lambda k, r: np.zeros_like(r),
    tail_fn=lambda r: np.zeros_like(r),
)


def one_member_draw(domain, rng):
    """The draw of one member as four calls on rng: the stream the cell draw keeps."""
    n = int(rng.integers(0, 6))
    radii = 0.8 * np.sqrt(rng.uniform(size=n))
    angles = 2.0 * np.pi * rng.uniform(size=n)
    zeros = tuple(radii * np.exp(1j * angles))
    rotation = np.exp(2j * np.pi * rng.uniform())
    return BlaschkeComposed(domain, zeros, rotation)


class TestRandomFunctions:
    def test_zero_zeros_gives_unimodular_constant(self):
        dom = DomainParams(0.0)
        rng = np.random.default_rng(0)
        for f in random_bounded_functions(dom, rng, 200):
            if not f.zeros:
                series = f.coefficients(4)
                assert abs(abs(series.coefficients[0]) - 1.0) < 1e-12
                assert np.all(series.coefficients[1:] == 0)
                break
        else:
            pytest.fail("no zero-zero draw in 200 samples")

    def test_descriptor_deterministic(self):
        dom = DomainParams(0.3)
        d1 = random_bounded_functions(dom, np.random.default_rng(99), 1)[0].descriptor()
        d2 = random_bounded_functions(dom, np.random.default_rng(99), 1)[0].descriptor()
        assert d1 == d2

    def test_zeros_within_sampling_disk(self):
        rng = np.random.default_rng(5)
        for f in random_bounded_functions(DomainParams(0.5), rng, 100):
            assert all(abs(z) <= 0.8 for z in f.zeros)
            assert len(f.zeros) <= 5

    def test_members_satisfy_coefficient_bound(self):
        for gamma in (0.0, 0.4, 0.8):
            dom = DomainParams(gamma)
            rng = np.random.default_rng(7)
            for f in random_bounded_functions(dom, rng, 100):
                rep = lemma_bound_report(f.coefficients(200), dom)
                assert rep.max_violation <= 1e-10


class TestCellDraw:
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_reproduces_the_one_member_stream(self, gamma):
        dom = DomainParams(gamma)
        rng, ref = np.random.default_rng([20260811, 3]), np.random.default_rng([20260811, 3])
        drawn = random_bounded_functions(dom, rng, 500)
        expected = [one_member_draw(dom, ref) for _ in range(500)]
        assert [f.descriptor() for f in drawn] == [f.descriptor() for f in expected]
        assert all(f.zeros == g.zeros and f.rotation == g.rotation for f, g in zip(drawn, expected))
        # the stream goes on where the per-member draws left it
        assert random_bounded_functions(dom, rng, 1)[0].descriptor() == one_member_draw(dom, ref).descriptor()
        assert rng.random() == ref.random()

    def test_counts_split_the_stream_anywhere(self):
        dom = DomainParams(0.25)
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        drawn = [f for count in (0, 1, 7, 0, 42) for f in random_bounded_functions(dom, rng, count)]
        assert [f.descriptor() for f in drawn] == [one_member_draw(dom, ref).descriptor() for _ in range(50)]


def per_function_suite(config):
    """(n_pass, n_fail, worst_excess, worst descriptor) per cell, from one member
    drawn, expanded and verified at a time, each function building its own
    coefficients: the suite's per-cell batching must not change any of them."""
    out = []
    for idx, (family, gamma, p) in enumerate(iter_cells(config)):
        domain = DomainParams(gamma)
        query = RadiusQuery(family, domain, p)
        try:
            radius = minimal_root(query).radius
        except NoRootError:
            out.append(None)
            continue
        rng = np.random.default_rng([config.seed, idx])
        fns = [one_member_draw(domain, rng) for _ in range(config.samples_per_cell)]
        fns += [Raw(CoefficientSeries([c])) for c in (0.0, 1.0, -1.0, 0.5)]
        fns += [Extremal(domain, a) for a in (0.5, 0.9, 0.999)]
        out.append(own_verdicts(fns, query, radius, config))
    return out


def own_verdicts(fns, query, radius, config):
    """(n_pass, n_fail, worst_excess, worst descriptor) of fns, each function
    building its own coefficients in verify_up_to_radius."""
    n_pass = n_fail = 0
    worst, worst_fn = -math.inf, None
    for f in fns:
        rep = verify_up_to_radius(f, query, radius, grid_points=config.grid_points,
                                  order=config.truncation_order, tol=config.tolerance)
        n_pass += rep.passed
        n_fail += not rep.passed
        if rep.max_excess > worst:
            worst, worst_fn = rep.max_excess, f.descriptor()
    return n_pass, n_fail, worst, worst_fn


class TestVerifyFunctions:
    @pytest.mark.parametrize("family,gamma,p", [
        (Quadratic(1), 0.5, 0.5), (AlphaCesaro(0.5), 0.75, 1.0), (Bernardi(1, 0.5), 0.0, 1.0),
    ], ids=str)
    def test_cell_matches_members_building_their_own_coefficients(self, family, gamma, p):
        # one kernel call and one np.abs per cell give each function the
        # report its own coefficients give; a tolerance under the round-off
        # fails some functions, so the counts are tested too
        config = SuiteConfig(samples_per_cell=80, tolerance=1e-17, truncation_order=120)
        query = RadiusQuery(family, DomainParams(gamma), p)
        cell = CellResult(family=family, gamma=gamma, p=p, radius=minimal_root(query).radius)
        harness._verify_functions(cell, query, config, np.random.default_rng(3))
        members = random_bounded_functions(query.domain, np.random.default_rng(3), 80)
        fns = members + harness._deterministic_functions(query.domain)
        expected = own_verdicts(fns, query, cell.radius, config)
        assert (cell.n_pass, cell.n_fail, cell.worst_excess, cell.worst_function) == expected
        assert cell.n_pass + cell.n_fail == 87


class TestInequalitySuite:
    def test_cell_batching_matches_per_function_loop(self):
        # a tolerance under the round-off of the sums fails some functions,
        # so the counts are tested as well as the worst excess
        cfg = SuiteConfig(
            seed=5,
            samples_per_cell=60,
            gamma_grid=(0.0, 0.5, 0.75),
            p_grid=(0.5, 1.0),
            families=(PowerTail(1), Quadratic(1), BetaCesaro(2.0), AlphaCesaro(0.5), Bernardi(1, 0.5)),
            tolerance=1e-17,
            truncation_order=120,
        )
        cells = run_inequality_suite(cfg).cells
        expected = per_function_suite(cfg)
        assert len(cells) == len(expected) == 21
        for cell, ref in zip(cells, expected):
            assert cell.skipped is None
            got = (cell.n_pass, cell.n_fail, cell.worst_excess, cell.worst_function)
            assert got == ref
        assert sum(c.n_fail for c in cells) > 0

    def test_single_cell_classical(self):
        cfg = SuiteConfig(
            samples_per_cell=1,
            gamma_grid=(0.0,),
            p_grid=(1.0,),
            families=(PowerTail(1),),
        )
        rep = run_inequality_suite(cfg)
        assert len(rep.cells) == 1
        cell = rep.cells[0]
        assert cell.radius == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert cell.n_fail == 0
        assert rep.overall_pass

    def test_empty_family_list(self):
        cfg = SuiteConfig(samples_per_cell=1, families=())
        rep = run_inequality_suite(cfg)
        assert rep.cells == []
        assert rep.overall_pass

    def test_negative_control_flagged_but_pass_unaffected(self):
        cfg = SuiteConfig(
            samples_per_cell=2,
            gamma_grid=(0.0, 0.5),
            p_grid=(1.0,),
            families=(PowerTail(1), Bernardi(1, 1.0)),
        )
        rep = run_inequality_suite(cfg)
        assert rep.overall_pass
        assert rep.controls_ok is True
        assert all(c.control_ok for c in rep.cells)

    def test_controls_can_be_disabled(self):
        cfg = SuiteConfig(
            samples_per_cell=1,
            gamma_grid=(0.0,),
            p_grid=(1.0,),
            families=(PowerTail(1),),
            negative_controls=False,
        )
        rep = run_inequality_suite(cfg)
        assert rep.controls_ok is None
        assert rep.cells[0].control_ok is None

    def test_no_root_cell_skipped_with_reason(self):
        cfg = SuiteConfig(
            samples_per_cell=1, gamma_grid=(0.0,), p_grid=(1.0,), families=(DEAD, PowerTail(1))
        )
        rep = run_inequality_suite(cfg)
        assert rep.cells[0].skipped is not None
        assert "no root" in rep.cells[0].skipped
        assert rep.cells[1].skipped is None
        assert rep.overall_pass  # skipped cells do not fail the suite

    def test_skipped_cells_keep_their_stream_index(self):
        # cell idx draws from [seed, idx] with idx counting skipped cells too
        cfg = SuiteConfig(
            seed=11, samples_per_cell=8, gamma_grid=(0.0, 0.5), p_grid=(1.0,), families=(DEAD, PowerTail(1))
        )
        cells = run_inequality_suite(cfg).cells
        expected = per_function_suite(cfg)
        assert [c.skipped is not None for c in cells] == [True, True, False, False]
        assert expected[:2] == [None, None]
        for cell, ref in zip(cells[2:], expected[2:]):
            assert (cell.n_pass, cell.n_fail, cell.worst_excess, cell.worst_function) == ref

    def test_reports_byte_identical_across_runs(self):
        cfg = SuiteConfig(
            samples_per_cell=3,
            gamma_grid=(0.0, 0.25),
            p_grid=(0.5, 1.0),
            families=(PowerTail(1), BetaCesaro(1.0)),
        )
        a = render_json(run_inequality_suite(cfg).to_dict())
        b = render_json(run_inequality_suite(cfg).to_dict())
        assert a == b

    def test_worst_offender_serialized(self):
        cfg = SuiteConfig(
            samples_per_cell=4, gamma_grid=(0.25,), p_grid=(1.0,), families=(PowerTail(1),)
        )
        rep = run_inequality_suite(cfg)
        desc = rep.cells[0].worst_function
        assert desc is not None and "kind" in desc


class TestCellIteration:
    def test_operator_families_pinned_to_p_one(self):
        cfg = default_config(samples_per_cell=1)
        cells = list(iter_cells(cfg))
        for family, gamma, p in cells:
            if isinstance(family, (BetaCesaro, AlphaCesaro, Bernardi)):
                assert p == 1.0
        names = {f.name for f, _, _ in cells}
        assert len(names) == 9  # every built-in family is covered
        assert len(cells) == 6 * 4 * 3 + 3 * 4 * 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(samples_per_cell=0)
        with pytest.raises(ValueError):
            SuiteConfig(gamma_grid=(1.0,))
        with pytest.raises(ValueError):
            SuiteConfig(p_grid=(3.0,))
        with pytest.raises(ValueError):
            SuiteConfig(tolerance=0.0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SuiteConfig(seed=-1)

    @pytest.mark.parametrize("field,value", [("truncation_order", -1), ("grid_points", 0)])
    def test_config_rejects_empty_series_and_grid(self, field, value):
        # a negative truncation order reached the Blaschke kernel, which
        # raised IndexError
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            SuiteConfig(**{field: value})

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_config_rejects_non_finite_tolerance(self, bad):
        # an infinite tolerance passed every cell vacuously
        with pytest.raises(ValueError):
            SuiteConfig(tolerance=bad)


class TestSharpnessSuite:
    def test_classical_margin_positive(self):
        cfg = SuiteConfig(
            samples_per_cell=1, gamma_grid=(0.0,), p_grid=(1.0,), families=(PowerTail(1),)
        )
        rep = run_sharpness_suite(cfg)
        cell = rep.cells[0]
        assert cell.status == "pass"
        assert cell.margin > 0.0
        assert rep.overall_pass

    def test_alpha_cesaro_sharpness(self):
        cfg = SuiteConfig(
            samples_per_cell=1, gamma_grid=(0.5,), p_grid=(1.0,), families=(AlphaCesaro(0.0),)
        )
        rep = run_sharpness_suite(cfg)
        assert rep.cells[0].status == "pass"

    def test_ratios_decay_tenfold(self):
        from bohrad.weights import OddPowers

        cfg = SuiteConfig(
            samples_per_cell=1,
            gamma_grid=(0.0, 0.5),
            p_grid=(1.0,),
            families=(PowerTail(1), OddPowers()),
        )
        rep = run_sharpness_suite(cfg)
        for cell in rep.cells:
            r = cell.richardson_ratios
            assert len(r) == 3
            assert 0.05 <= r[1] / r[0] <= 0.2
            assert 0.05 <= r[2] / r[1] <= 0.2

    def test_no_root_cell_skipped_with_reason(self):
        cfg = SuiteConfig(
            samples_per_cell=1, gamma_grid=(0.0,), p_grid=(1.0,), families=(DEAD, PowerTail(1))
        )
        rep = run_sharpness_suite(cfg)
        dead, live = rep.cells
        assert dead.skipped.startswith("no root: ")
        assert dead.radius is None and dead.status is None
        assert live.skipped is None and live.status == "pass"
        assert rep.overall_pass

    @pytest.mark.parametrize("gamma", [0.99, 0.995, 0.9999])
    def test_gamma_beyond_the_ladder_skipped(self, gamma):
        # the ladder's first rung, a = 0.99, already needs gamma < a
        cfg = SuiteConfig(
            samples_per_cell=1, gamma_grid=(0.0, gamma), p_grid=(1.0,), families=(PowerTail(1),)
        )
        rep = run_sharpness_suite(cfg)
        near = rep.cells[1]
        assert near.skipped == "gamma too close to 1 for the extremal parameter ladder"
        assert 0.49 < near.radius < 0.5  # solved: only the ladder is out of reach
        assert near.status is None and near.margin is None
        assert rep.cells[0].status == "pass"
        assert rep.overall_pass

    def test_radius_near_one_skipped(self):
        cfg = SuiteConfig(
            samples_per_cell=1, gamma_grid=(0.0,), p_grid=(1.0,), families=(PowerTail(2000),)
        )
        rep = run_sharpness_suite(cfg)
        cell = rep.cells[0]
        assert cell.radius == pytest.approx(0.99679, abs=1e-5)
        assert cell.skipped == "radius too close to 1 for the sharpness window"
        assert cell.status is None
        assert rep.overall_pass


class TestBruteForceTail:
    def test_geometric_sum(self):
        assert brute_force_tail(PowerTail(1), 0.5, 60) == pytest.approx(1.0, abs=1e-15)

    def test_linear_shifted(self):
        assert brute_force_tail(Linear(2), 0.5, 80) == pytest.approx(1.5, abs=1e-14)

    def test_zero_radius(self):
        for fam in (PowerTail(1), BetaCesaro(1.0), Bernardi(1, 1.0)):
            assert brute_force_tail(fam, 0.0, 10) == 0.0

    def test_rejects_no_terms(self):
        with pytest.raises(ValueError):
            brute_force_tail(PowerTail(1), 0.5, 0)
