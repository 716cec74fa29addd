"""Suite runners: determinism, controls, coverage, oracles."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from bohrad import bohr, harness
from bohrad.cli import render_json
from bohrad.harness import (
    CellResult,
    SuiteConfig,
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
from oracles import brute_force_tail


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
        fns = members + [Raw(CoefficientSeries([c])) for c in (0.0, 1.0, -1.0, 0.5)]
        fns += [Extremal(query.domain, a) for a in (0.5, 0.9, 0.999)]
        expected = own_verdicts(fns, query, cell.radius, config)
        assert (cell.n_pass, cell.n_fail, cell.worst_excess, cell.worst_function) == expected
        assert cell.n_pass + cell.n_fail == 87

    @pytest.mark.parametrize("order", [0, 1, 200])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.75])
    def test_fixed_set_rows_are_each_functions_own_read_only_moduli(self, gamma, order):
        # built once per (gamma, order) and shared by every cell on it
        fixed = harness._fixed_set(gamma, order)
        assert harness._fixed_set(gamma, order) is fixed
        assert len(fixed.functions) == len(fixed.rows) == 7
        for f, row in [*zip(fixed.functions, fixed.rows), (fixed.control, fixed.control_row)]:
            own = f.coefficients(order).moduli()
            assert row.tobytes() == own.tobytes() and row.shape == own.shape
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0.5
        assert fixed.control_row.tobytes() == np.ones(order + 1).tobytes()  # the truncated 1/(1 - z)
        assert [f.descriptor() for f in fixed.functions] == [
            *({"kind": "raw", "coefficients": [[c, 0.0]]} for c in (0.0, 1.0, -1.0, 0.5)),
            *({"kind": "extremal", "gamma": gamma, "a": a} for a in (0.5, 0.9, 0.999)),
        ]


class TestInequalitySuite:
    def test_cell_batching_matches_per_function_loop(self):
        # a tolerance under the round-off of the sums fails some functions,
        # so the counts are tested as well as the worst excess.  Two orders
        # run in one process: a fixed-set row cached under the wrong
        # (gamma, order) would have the wrong length or the wrong verdicts.
        for order in (120, 7):
            cfg = SuiteConfig(
                seed=5,
                samples_per_cell=60,
                gamma_grid=(0.0, 0.5, 0.75),
                p_grid=(0.5, 1.0),
                families=(PowerTail(1), Quadratic(1), BetaCesaro(2.0), AlphaCesaro(0.5), Bernardi(1, 0.5)),
                tolerance=1e-17,
                truncation_order=order,
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

    def test_control_fails_the_check_in_every_default_cell(self):
        # the control is no member, and the check itself rejects it at each
        # default cell's radius, where the radius equation puts its excess,
        # sum psi_k(R), at (1 + gamma) p / 2
        cfg = default_config()
        for idx, (family, gamma, p) in enumerate(iter_cells(cfg)):
            query = RadiusQuery(family, DomainParams(gamma), p)
            fixed = harness._fixed_set(gamma, cfg.truncation_order)
            report = verify_up_to_radius(
                fixed.control, query, minimal_root(query).radius, grid_points=cfg.grid_points,
                order=cfg.truncation_order, tol=cfg.tolerance, moduli=fixed.control_row,
            )
            assert not report.passed, (idx, family, gamma, p)
            assert report.max_excess == pytest.approx((1 + gamma) * p / 2, abs=1e-10)

    def test_control_is_decided_by_the_check_alone(self, monkeypatch):
        # a check that passes everything must not read as a working control
        real = harness.verify_up_to_radius
        monkeypatch.setattr(harness, "verify_up_to_radius", lambda *a, **k: replace(real(*a, **k), passed=True))
        rep = run_inequality_suite(default_config(samples_per_cell=1))
        assert len(rep.cells) == 84
        assert all(c.control_ok is False for c in rep.cells)
        assert rep.controls_ok is False

    @pytest.mark.parametrize("family,order", [(PowerTail(1), 0), (PowerTail(4), 3)], ids=str)
    def test_control_unseen_by_the_check_is_not_ok(self, family, order):
        # at order 0 the control is the constant 1, and a power tail past the
        # order has psi_1 ... psi_order = 0: the check cannot reject it
        cfg = SuiteConfig(samples_per_cell=1, gamma_grid=(0.0,), p_grid=(0.5,), families=(family,),
                          truncation_order=order)
        rep = run_inequality_suite(cfg)
        assert rep.cells[0].to_dict()["negative_control_ok"] is False
        assert rep.controls_ok is False

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

    def test_worst_offenders_replay_from_the_rendered_report(self):
        # the module's claim: each cell's worst function, rebuilt from the
        # descriptor the report prints and checked on its own at the cell's
        # radius, gives the cell's worst excess bit for bit
        cfg = SuiteConfig(samples_per_cell=40, gamma_grid=(0.0, 0.5))
        rendered = json.loads(render_json(run_inequality_suite(cfg).to_dict()))
        assert len(rendered["cells"]) == 42
        for cell, family in zip(rendered["cells"], (fam for fam, _, _ in iter_cells(cfg))):
            f = from_descriptor(cell["worst_function_descriptor"])
            query = RadiusQuery(family, DomainParams(cell["query"]["gamma"]), cell["query"]["p"])
            report = verify_up_to_radius(f, query, cell["radius"], grid_points=cfg.grid_points,
                                         order=cfg.truncation_order, tol=cfg.tolerance)
            assert report.max_excess == cell["worst_excess"], cell["query"]
        # the worst offenders here are all random members; the fixed set's
        # kinds rebuild from their rendered descriptors too
        for f in harness._fixed_set(0.5, cfg.truncation_order).functions:
            desc = json.loads(render_json(f.descriptor()))
            assert from_descriptor(desc).descriptor() == f.descriptor()

    def test_phi_matrix_keeps_one_table_built_once_per_cell(self):
        # each cell's calls are consecutive: one miss per solved cell and
        # none for a skipped one, with only the last cell's table kept
        cfg = SuiteConfig(samples_per_cell=3, gamma_grid=(0.0, 0.5), p_grid=(0.5, 1.0),
                          families=(DEAD, PowerTail(1), BetaCesaro(2.0)))
        bohr._phi_matrix.cache_clear()
        cells = run_inequality_suite(cfg).cells
        solved = sum(c.skipped is None for c in cells)
        info = bohr._phi_matrix.cache_info()
        assert solved == 6 < len(cells)
        assert (info.misses, info.currsize, info.maxsize) == (solved, 1, 1)
        # a check per member, per fixed function (7) and for the control
        assert info.hits + info.misses == solved * (cfg.samples_per_cell + 7 + 1)


def from_descriptor(desc: dict):
    """The function a worst_function_descriptor, as rendered, describes."""
    if desc["kind"] == "raw":
        return Raw(CoefficientSeries([complex(*c) for c in desc["coefficients"]]))
    domain = DomainParams(desc["gamma"])
    if desc["kind"] == "extremal":
        return Extremal(domain, desc["a"])
    return BlaschkeComposed(domain, tuple(complex(*z) for z in desc["zeros"]), complex(*desc["rotation"]))


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
        # "false" ran the controls, and a family name ended in AttributeError
        # at the first radius solve
        with pytest.raises(ValueError, match="negative_controls must be"):
            SuiteConfig(negative_controls="false")
        with pytest.raises(ValueError, match="families must hold"):
            SuiteConfig(families=("power-tail",))

    @pytest.mark.parametrize("field,kwargs", [
        ("tolerance", {"tolerance": True, "gamma_grid": (False,), "p_grid": (True,)}),
        ("gamma_grid", {"gamma_grid": (False,)}), ("p_grid", {"p_grid": (True,)}),
        ("p_grid", {"p_grid": ("1",)}), ("gamma_grid", {"gamma_grid": ["0"]}), ("gamma_grid", {"gamma_grid": 0.0}),
        ("p_grid", {"p_grid": "1"}), ("tolerance", {"tolerance": "1e-9"}), ("tolerance", {"tolerance": None}),
    ])
    def test_config_refuses_non_numbers_for_floats(self, field, kwargs):
        # a bool is a number to isinstance: True ran as a tolerance of 1 and
        # the grids as gamma 0 and p 1; ("1",) ended in a TypeError from the
        # range comparison
        with pytest.raises(ValueError, match=f"{field} must be a"):
            SuiteConfig(**kwargs)

    def test_config_stores_floats(self):
        cfg = SuiteConfig(tolerance=1, gamma_grid=[0, np.float64(0.5)], p_grid=(np.int64(1),))
        assert (cfg.tolerance, cfg.gamma_grid, cfg.p_grid) == (1.0, (0.0, 0.5), (1.0,))
        assert type(cfg.tolerance) is float and all(type(v) is float for v in cfg.gamma_grid + cfg.p_grid)

    @pytest.mark.parametrize("field,value", [("truncation_order", -1), ("grid_points", 0), ("grid_points", 1)])
    def test_config_rejects_empty_series_and_grid(self, field, value):
        # a negative truncation order reached the Blaschke kernel, which
        # raised IndexError; one grid point checks r = 0 alone
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            SuiteConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("samples_per_cell", 2.5), ("grid_points", 3.5), ("truncation_order", 10.5), ("seed", 1.5),
        ("samples_per_cell", True), ("grid_points", False), ("truncation_order", float("inf")),
        ("seed", float("nan")), ("seed", "7"),
    ])
    def test_config_refuses_non_integral_counts(self, field, value):
        # 2.5 members ended in a TypeError, 3.5 grid points ran on 3, order
        # 10.5 asked verify for 11.5 entries and True ran as one member
        with pytest.raises(ValueError, match=f"{field} must be an integer, got "):
            SuiteConfig(**{field: value})

    @pytest.mark.parametrize("field", ["seed", "samples_per_cell", "grid_points", "truncation_order"])
    def test_config_stores_integral_counts_as_int(self, field):
        cfg = SuiteConfig(**{field: 3.0})
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 3
        assert type(getattr(SuiteConfig(**{field: np.int64(4)}), field)) is int

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
