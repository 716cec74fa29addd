"""Acceptance criteria, one test per criterion, each printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np

from bohrad.harness import (
    default_config,
    random_bounded_functions,
    run_inequality_suite,
    run_sharpness_suite,
)
from bohrad._kernels import rising_ratios
from bohrad.radius import RadiusQuery, minimal_root
from bohrad.series import CoefficientSeries, DomainParams, Extremal, lemma_bound_report
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
    tail_sum,
)
from oracles import brute_force_tail, integral_form_oracle, p_bound_check

ALL_NINE = [
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


def report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_c01_classical_anchor():
    query = RadiusQuery(PowerTail(1), DomainParams(0.0), 1.0)
    minimal_root(query)  # warm caches / jit before timing
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        res = minimal_root(query)
        best = min(best, time.perf_counter() - t0)
    err = abs(res.radius - 1.0 / 3.0)
    ok = err <= 1e-10 and best < 1e-3
    report(1, "classical anchor radius 1/3", ok, f"err={err:.2e} runtime={best*1e6:.0f}us")


def test_c02_fournier_ruscheweyh_family():
    worst = 0.0
    for i in range(10):
        gamma = i / 10.0
        res = minimal_root(RadiusQuery(PowerTail(1), DomainParams(gamma), 1.0))
        worst = max(worst, abs(res.radius - (1 + gamma) / (3 + gamma)))
    report(2, "power-tail radius (1+g)/(3+g)", worst <= 1e-10, f"worst={worst:.2e}")


def test_c03_quadratic_closed_forms():
    worst = 0.0
    for gamma in np.arange(0.0, 0.91, 0.1):
        for p in (0.5, 1.0, 1.5, 2.0):
            dom = DomainParams(float(gamma))
            c = p * (1 + gamma)
            even = minimal_root(RadiusQuery(EvenPowers(), dom, p)).radius
            worst = max(worst, abs(even - math.sqrt(c / (2 + c))))
            odd = minimal_root(RadiusQuery(OddPowers(), dom, p)).radius
            odd_closed = (-1 + math.sqrt(1 + c * c)) / c
            worst = max(worst, abs(odd - odd_closed))
    report(3, "even/odd quadratic closed forms", worst <= 1e-10, f"worst={worst:.2e}")


def test_c04_inequality_suite():
    config = default_config()
    assert config.samples_per_cell >= 500
    rep = run_inequality_suite(config)
    n_cells = len(rep.cells)
    skipped = sum(1 for c in rep.cells if c.skipped)
    fails = sum(c.n_fail for c in rep.cells)
    ok = rep.overall_pass and skipped == 0 and n_cells == 84 and fails == 0
    worst = max(c.worst_excess for c in rep.cells)
    report(
        4,
        "inequality suite, 500 random members/cell",
        ok,
        f"cells={n_cells} fails={fails} worst_excess={worst:.2e} controls_ok={rep.controls_ok}",
    )


def test_c05_sharpness_suite():
    rep = run_sharpness_suite(default_config(samples_per_cell=1))
    ok = rep.overall_pass
    n_checked = 0
    worst_quotient = 0.1
    for cell in rep.cells:
        if cell.skipped:
            continue
        n_checked += 1
        ok = ok and cell.status == "pass" and cell.margin > 0.0
        r = cell.richardson_ratios
        for q in (r[1] / r[0], r[2] / r[1]):
            # ~10x decay per decade of (1-a), with second-order slack
            ok = ok and 0.05 <= q <= 0.2
            if abs(q - 0.1) > abs(worst_quotient - 0.1):
                worst_quotient = q
    report(
        5,
        "sharpness margins and first-order ladder",
        ok and n_checked > 0,
        f"cells_checked={n_checked} worst decade quotient={worst_quotient:.3f}",
    )


def test_c06_lemma_suite():
    worst = -math.inf
    count = 0
    for gamma in (0.0, 0.25, 0.5, 0.75):
        dom = DomainParams(gamma)
        rng = np.random.default_rng(2026)
        for f in random_bounded_functions(dom, rng, 2500):
            rep = lemma_bound_report(f.coefficients(200), dom)
            worst = max(worst, rep.max_violation)
            count += 1
    eq_worst = 0.0
    for gamma in (0.0, 0.25, 0.5, 0.75):
        for a in (0.1, 0.5, 0.9, 0.999):
            c = Extremal(DomainParams(gamma), a).coefficients(1).coefficients
            cap = (1 - abs(c[0]) ** 2) / (1 + gamma)
            eq_worst = max(eq_worst, abs(abs(c[1]) - cap))
    ok = count == 10_000 and worst <= 1e-10 and eq_worst <= 1e-12
    report(
        6,
        "coefficient bound over 10^4 random members",
        ok,
        f"worst_violation={worst:.2e} equality_err={eq_worst:.2e}",
    )


def test_c07_operator_oracle():
    worst = 0.0
    rng = np.random.default_rng(99)
    base = random_bounded_functions(DomainParams(0.0), rng, 1)[0].coefficients(300)
    specs = [BetaCesaro(0.5), BetaCesaro(1.0), BetaCesaro(2.0),
             AlphaCesaro(-0.5), AlphaCesaro(0.0), AlphaCesaro(1.0)]
    sample_rng = np.random.default_rng(7)
    zs = [
        0.6 * math.sqrt(sample_rng.uniform()) * np.exp(2j * np.pi * sample_rng.uniform())
        for _ in range(10)
    ]
    for spec in specs:
        transformed = CoefficientSeries(spec.transform(base.coefficients))
        for z in zs:
            diff = abs(transformed.evaluate(z) - integral_form_oracle(spec, base.evaluate, z))
            worst = max(worst, diff)
    for m, delta in ((1, 1.0), (2, 0.5)):
        spec = Bernardi(m, delta)
        shifted = CoefficientSeries(
            np.concatenate([np.zeros(m), base.coefficients[: 301 - m]])
        )
        transformed = CoefficientSeries(spec.transform(shifted.coefficients))
        for z in zs:
            diff = abs(transformed.evaluate(z) - integral_form_oracle(spec, shifted.evaluate, z))
            worst = max(worst, diff)
    bound_worst = 0.0
    for spec in (BetaCesaro(0.5), BetaCesaro(1.0), BetaCesaro(2.0)):
        for r in (0.25, 0.5, 0.75):
            got = integral_form_oracle(spec, lambda w: 1.0, r)
            bound_worst = max(bound_worst, abs(got - phi0(spec, r)))
    ok = worst <= 1e-13 and bound_worst <= 1e-10
    report(
        7,
        "operator coefficient/integral agreement",
        ok,
        f"worst_pointwise={worst:.2e} bound_attainment={bound_worst:.2e}",
    )


def test_c08_algebraic_identities():
    poch_worst = 0.0
    for alpha in (-0.5, 0.0, 0.7, 2.0):
        a = rising_ratios(50, alpha + 1.0)
        a_up = rising_ratios(50, alpha + 2.0)
        poch_worst = max(poch_worst, float(np.max(np.abs(np.cumsum(a) / a_up - 1.0))))
    rows_ok = True
    ones = CoefficientSeries(np.ones(60)).coefficients
    for spec in (BetaCesaro(1.0), AlphaCesaro(-0.5), AlphaCesaro(0.0), AlphaCesaro(1.7)):
        out = spec.transform(ones)
        rows_ok = rows_ok and bool(np.max(np.abs(out - 1.0)) <= 1e-13)
    xs = np.linspace(0.0, 0.999, 1000)
    slack = min(float(np.min(p_bound_check(xs, p))) for p in np.linspace(0.1, 2.0, 20))
    ok = poch_worst <= 1e-12 and rows_ok and slack >= -1e-15
    report(
        8,
        "pochhammer/row-sum/p-bound identities",
        ok,
        f"poch_rel={poch_worst:.2e} rows_ok={rows_ok} p_bound_slack={slack:.2e}",
    )


def test_c09_operator_radii_consistency():
    dom = DomainParams(0.0)
    res = minimal_root(RadiusQuery(BetaCesaro(1.0), dom, 1.0))
    x = res.radius
    in_bracket = 0.5 < x < 0.55
    residual = abs(2 * x - (3 + 0.0) * (1 - x) * math.log(1 / (1 - x)))
    alpha_radius = minimal_root(RadiusQuery(AlphaCesaro(0.0), dom, 1.0)).radius
    alpha_match = abs(alpha_radius - x)
    cont_worst = 0.0
    for beta in (1.0 - 1e-6, 1.0 + 1e-6):
        cont_worst = max(cont_worst, abs(minimal_root(RadiusQuery(BetaCesaro(beta), dom, 1.0)).radius - x))
        for r in (0.3, 0.7):
            cont_worst = max(
                cont_worst, abs(phi0(BetaCesaro(beta), r) - phi0(BetaCesaro(1.0), r))
            )
    ok = in_bracket and residual <= 1e-9 and alpha_match <= 1e-10 and cont_worst <= 1e-5
    report(
        9,
        "operator radii cross-checks",
        ok,
        f"radius={x:.12f} eq_residual={residual:.2e} alpha_match={alpha_match:.2e} "
        f"beta_continuity={cont_worst:.2e}",
    )


def test_c10_oracle_equivalence():
    worst = 0.0
    families = ALL_NINE + [PowerTail(2), Linear(2), Quadratic(3), BetaCesaro(0.5),
                           AlphaCesaro(-0.5), Bernardi(2, 0.5)]
    for family in families:
        for r in np.arange(0.1, 0.91, 0.1):
            r = float(r)
            closed = float(tail_sum(family, r))
            # terms chosen so the certified remainder is under 5e-11
            terms = 400 if r <= 0.75 else 2500
            brute = brute_force_tail(family, r, terms)
            worst = max(worst, abs(closed - brute))
    # printed quadratic tail formula: confirmed against direct summation
    quad_check = 0.0
    for N in (1, 2, 3, 5):
        for r in (0.3, 0.6, 0.9):
            ns = np.arange(N, 5000, dtype=float)
            brute = float(np.sum(ns ** 2 * r ** ns))
            quad_check = max(quad_check, abs(float(tail_sum(Quadratic(N), r)) - brute))
    ok = worst <= 1e-10 and quad_check <= 1e-9
    report(
        10,
        "closed-form vs brute-force tails (printed n^2 formula confirmed)",
        ok,
        f"worst={worst:.2e} quadratic_formula_err={quad_check:.2e}",
    )
