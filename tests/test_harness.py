"""Suite runners: determinism, controls, coverage, oracles."""

import numpy as np
import pytest

from bohrad.cli import render_json
from bohrad.harness import (
    SuiteConfig,
    brute_force_tail,
    default_config,
    iter_cells,
    random_bounded_function,
    run_inequality_suite,
    run_sharpness_suite,
)
from bohrad.series import DomainParams, coefficients_of, lemma_bound_report
from bohrad.weights import (
    AlphaCesaro,
    Bernardi,
    BetaCesaro,
    CustomFamily,
    Linear,
    PowerTail,
)


class TestRandomFunctions:
    def test_zero_zeros_gives_unimodular_constant(self):
        dom = DomainParams(0.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            f = random_bounded_function(dom, rng)
            if not f.zeros:
                series = coefficients_of(f, 4)
                assert abs(abs(series.coefficients[0]) - 1.0) < 1e-12
                assert np.all(series.coefficients[1:] == 0)
                break
        else:
            pytest.fail("no zero-zero draw in 200 samples")

    def test_descriptor_deterministic(self):
        dom = DomainParams(0.3)
        d1 = random_bounded_function(dom, np.random.default_rng(99)).descriptor()
        d2 = random_bounded_function(dom, np.random.default_rng(99)).descriptor()
        assert d1 == d2

    def test_zeros_within_sampling_disk(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = random_bounded_function(DomainParams(0.5), rng)
            assert all(abs(z) <= 0.8 for z in f.zeros)
            assert len(f.zeros) <= 5

    def test_members_satisfy_coefficient_bound(self):
        for gamma in (0.0, 0.4, 0.8):
            dom = DomainParams(gamma)
            rng = np.random.default_rng(7)
            for _ in range(100):
                f = random_bounded_function(dom, rng)
                rep = lemma_bound_report(coefficients_of(f, 200), dom)
                assert rep.max_violation <= 1e-10


class TestInequalitySuite:
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
        dead = CustomFamily(
            name="no-tail",
            phi0_fn=lambda r: np.ones_like(r),
            phi_k_fn=lambda k, r: np.zeros_like(r),
            tail_fn=lambda r: np.zeros_like(r),
        )
        cfg = SuiteConfig(
            samples_per_cell=1, gamma_grid=(0.0,), p_grid=(1.0,), families=(dead, PowerTail(1))
        )
        rep = run_inequality_suite(cfg)
        assert rep.cells[0].skipped is not None
        assert "no root" in rep.cells[0].skipped
        assert rep.cells[1].skipped is None
        assert rep.overall_pass  # skipped cells do not fail the suite

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
