"""Randomized suite runners and brute-force oracles.

Every cell of a suite is a (family, gamma, p) triple.  Cells draw their own
deterministic RNG stream from (seed, cell index), so two runs with the same
config produce byte-identical reports and any failure replays from the report
alone via the serialized worst-offender descriptor.

The inequality suite does its per-cell work once per cell: one radius solve,
one draw pass over the cell's random members, one Blaschke kernel call for
all their coefficients, and one phi table over the verification grid (the
cached bohr._phi_matrix).  verify_up_to_radius still runs once per
function: it gives each function its own verdict and excess, and the worst
offender is the function whose report has the largest excess.  Neither the
draw nor the batched coefficients change a bit of any function's report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import weights
from .bohr import extremal_margin, verify_up_to_radius
from .radius import NoRootError, RadiusQuery, minimal_root
from .series import (
    BlaschkeComposed,
    CoefficientSeries,
    DomainParams,
    Extremal,
    Raw,
    composed_coefficients,
    lemma_bound_report,
)
from .weights import (
    AlphaCesaro,
    Bernardi,
    BetaCesaro,
    EvenPowers,
    Linear,
    LinearPlusOne,
    OddPowers,
    OperatorFamily,
    PowerTail,
    Quadratic,
    WeightFamily,
)

DEFAULT_FAMILIES = (
    PowerTail(1),
    EvenPowers(),
    OddPowers(),
    LinearPlusOne(1),
    Linear(1),
    Quadratic(1),
    BetaCesaro(1.0),
    AlphaCesaro(0.0),
    Bernardi(1, 1.0),
)

SHARPNESS_OFFSET = 0.01
SHARPNESS_A_STEPS = (1e-2, 1e-3, 1e-4)  # values of 1 - a for the Richardson ladder


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 20260811
    samples_per_cell: int = 500
    gamma_grid: tuple = (0.0, 0.25, 0.5, 0.75)
    p_grid: tuple = (0.5, 1.0, 2.0)
    families: tuple = DEFAULT_FAMILIES
    tolerance: float = 1e-9
    grid_points: int = 12
    truncation_order: int = 200
    negative_controls: bool = True

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples_per_cell < 1:
            raise ValueError("samples_per_cell must be >= 1")
        for g in self.gamma_grid:
            if not (0.0 <= g < 1.0):
                raise ValueError(f"gamma {g} outside [0, 1)")
        for p in self.p_grid:
            if not (0.0 < p <= 2.0):
                raise ValueError(f"p {p} outside (0, 2]")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not math.isfinite(self.tolerance):
            raise ValueError("tolerance must be finite")
        object.__setattr__(self, "gamma_grid", tuple(float(g) for g in self.gamma_grid))
        object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
        object.__setattr__(self, "families", tuple(self.families))


def default_config(**overrides) -> SuiteConfig:
    return replace(SuiteConfig(), **overrides) if overrides else SuiteConfig()


def iter_cells(config: SuiteConfig):
    """Cells in deterministic order; operator families run at p = 1 only."""
    for family in config.families:
        p_values = config.p_grid
        if isinstance(family, OperatorFamily):
            p_values = tuple(p for p in config.p_grid if p == 1.0)
        for gamma in config.gamma_grid:
            for p in p_values:
                yield family, gamma, p


@dataclass
class CellResult:
    family: WeightFamily
    gamma: float
    p: float
    radius: float | None = None
    n_pass: int = 0
    n_fail: int = 0
    worst_excess: float = -math.inf
    worst_function: dict | None = None
    skipped: str | None = None
    control_ok: bool | None = None
    status: str | None = None  # sharpness suite: pass / fail / indeterminate
    margin: float | None = None
    richardson_ratios: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        out = {
            "query": {
                "family": self.family.name,
                "params": self.family.params(),
                "gamma": self.gamma,
                "p": self.p,
            },
            "radius": self.radius,
            "n_pass": self.n_pass,
            "n_fail": self.n_fail,
            "worst_excess": None if self.worst_excess == -math.inf else self.worst_excess,
            "worst_function_descriptor": self.worst_function,
        }
        if self.skipped is not None:
            out["skipped"] = self.skipped
        if self.control_ok is not None:
            out["negative_control_ok"] = self.control_ok
        if self.status is not None:
            out["status"] = self.status
            out["margin"] = self.margin
            out["richardson_ratios"] = list(self.richardson_ratios)
        return out


@dataclass
class SuiteReport:
    kind: str
    seed: int
    cells: list
    overall_pass: bool
    controls_ok: bool | None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "overall_pass": self.overall_pass,
            "controls_ok": self.controls_ok,
            "cells": [c.to_dict() for c in self.cells],
        }


def random_bounded_functions(domain: DomainParams, rng: np.random.Generator, count: int) -> list:
    """Draw count functions, each with 0-5 Blaschke zeros uniformly in |z| <= 0.8
    plus a random rotation.

    Member j takes from rng its number of zeros n_j, then 2 n_j + 1 uniforms:
    the squared radii over 0.64, the angles over 2 pi and the rotation's
    angle over 2 pi.  The uniforms are drawn member by member, so the stream
    does not depend on count; the zeros and rotations of all members are
    then formed in one pass.
    """
    sizes, draws = [], []
    for _ in range(count):
        n = int(rng.integers(0, 6))
        sizes.append(n)
        draws.append(rng.random(2 * n + 1))
    if not draws:
        return []
    u = np.concatenate(draws)
    # the zero count of its member and its place in the member, per uniform
    widths = 2 * np.array(sizes) + 1
    count_at = np.repeat(sizes, widths)
    place = np.arange(u.size) - np.repeat(np.cumsum(widths) - widths, widths)
    radii = 0.8 * np.sqrt(u[place < count_at])
    angles = 2.0 * np.pi * u[(place >= count_at) & (place < 2 * count_at)]
    zeros = (radii * np.exp(1j * angles)).tolist()
    rotations = np.exp(2j * np.pi * u[place == 2 * count_at]).tolist()
    out, k = [], 0
    for n, rotation in zip(sizes, rotations):
        out.append(BlaschkeComposed(domain, tuple(zeros[k : k + n]), rotation))
        k += n
    return out


def _deterministic_functions(domain: DomainParams):
    fns = [Raw(CoefficientSeries([c])) for c in (0.0, 1.0, -1.0, 0.5)]
    fns += [Extremal(domain, a) for a in (0.5, 0.9, 0.999)]
    return fns


def _verify_functions(cell: CellResult, query: RadiusQuery, config: SuiteConfig, rng) -> None:
    """Count the verdicts of one cell's functions into cell: its random members,
    drawn in one pass and expanded by one kernel call, then the deterministic
    set.  verify_up_to_radius runs once per function, on the cell's one phi
    table; the cell's arrays are freed when it returns."""
    members = random_bounded_functions(query.domain, rng, config.samples_per_cell)
    fns = members + _deterministic_functions(query.domain)
    coefficients = composed_coefficients(members, config.truncation_order)
    coefficients += [None] * (len(fns) - len(members))  # the deterministic set builds its own
    for f, series in zip(fns, coefficients):
        report = verify_up_to_radius(
            f,
            query,
            cell.radius,
            grid_points=config.grid_points,
            order=config.truncation_order,
            tol=config.tolerance,
            series=series,
        )
        if report.passed:
            cell.n_pass += 1
        else:
            cell.n_fail += 1
        if report.max_excess > cell.worst_excess:
            cell.worst_excess = report.max_excess
            cell.worst_function = f.descriptor()


def _solved_cells(config: SuiteConfig, cells: list):
    """Append one CellResult per cell of config to cells, in iter_cells order,
    and yield (index, cell, query, root) for each cell whose radius solves,
    with cell.radius set; index counts every cell, skipped or not.  A cell
    with no root is appended skipped, with the solver's reason."""
    for idx, (family, gamma, p) in enumerate(iter_cells(config)):
        query = RadiusQuery(family, DomainParams(gamma), p)
        cell = CellResult(family=family, gamma=gamma, p=p)
        cells.append(cell)
        try:
            root = minimal_root(query)
        except NoRootError as exc:
            cell.skipped = f"no root: {exc}"
            continue
        cell.radius = root.radius
        yield idx, cell, query, root


def _report(kind: str, config: SuiteConfig, cells: list, controls_ok: bool | None = None) -> SuiteReport:
    """The suite passes when no cell that ran has a failure; skipped cells do not count."""
    overall = all(c.n_fail == 0 for c in cells if c.skipped is None)
    return SuiteReport(kind=kind, seed=config.seed, cells=cells, overall_pass=overall, controls_ok=controls_ok)


def run_inequality_suite(config: SuiteConfig) -> SuiteReport:
    """Verify the weighted inequality per cell: random members plus the
    deterministic set, all checked up to the computed sharp radius."""
    cells = []
    for idx, cell, query, root in _solved_cells(config, cells):
        _verify_functions(cell, query, config, np.random.default_rng([config.seed, idx]))
        if config.negative_controls:
            # the control is flagged if either check catches it: the
            # coefficient bound (|a_1| = 2 cannot belong to the class) or,
            # failing that, the inequality itself
            control = Raw(CoefficientSeries([0.0, 2.0]))
            report = verify_up_to_radius(
                control,
                query,
                root.radius,
                grid_points=config.grid_points,
                order=config.truncation_order,
                tol=config.tolerance,
            )
            membership = lemma_bound_report(control.series, query.domain)
            cell.control_ok = not membership.ok or not report.passed
    controls = [c.control_ok for c in cells if c.control_ok is not None]
    return _report("inequality", config, cells, all(controls) if controls else None)


def run_sharpness_suite(config: SuiteConfig) -> SuiteReport:
    """Check that the extremal family violates the inequality just beyond the
    radius, and record the Richardson ladder of the first-order expansion."""
    cells = []
    for _, cell, query, root in _solved_cells(config, cells):
        r_test = root.radius + SHARPNESS_OFFSET
        if r_test >= 1.0:
            cell.skipped = "radius too close to 1 for the sharpness window"
            continue
        # extremal_margin needs gamma < a on every rung; the lowest is a = 1 - max(SHARPNESS_A_STEPS)
        if 1.0 - max(SHARPNESS_A_STEPS) <= cell.gamma:
            cell.skipped = "gamma too close to 1 for the extremal parameter ladder"
            continue
        ratios = []
        margins = {}
        for one_minus_a in SHARPNESS_A_STEPS:
            em = extremal_margin(query.domain, 1.0 - one_minus_a, query.family, query.p, r_test)
            margins[one_minus_a] = em.margin
            ratios.append(abs(em.margin - em.first_order_prediction) / one_minus_a)
        cell.margin = margins[1e-3]
        cell.richardson_ratios = tuple(ratios)
        if cell.margin > 0.0:
            cell.status = "pass"
            cell.n_pass = 1
        elif not root.sharp_window_ok:
            cell.status = "indeterminate"  # tangent gap: violation test is inconclusive
        else:
            cell.status = "fail"
            cell.n_fail = 1
    return _report("sharpness", config, cells)


def brute_force_tail(family: WeightFamily, r: float, terms: int) -> float:
    """sum_{k=1}^{terms} phi_k(r) by direct summation; no closed forms anywhere."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    return math.fsum(weights.phi_vector(family, terms, r)[1:])
