"""Randomized suite runners.

Every cell of a suite is a (family, gamma, p) triple.  Cells draw their own
deterministic RNG stream from (seed, cell index), so two runs with the same
config produce byte-identical reports and any failure replays from the report
alone via the serialized worst-offender descriptor.

The inequality suite builds each input of a cell once.  Per cell: one radius
solve, one draw pass that forms the random members' zeros as one padded
(F x 5) matrix, one Blaschke kernel call on that matrix and one np.abs of
it (the inequality reads only |c_k|), and one scaled table over the grid
(bohr._phi_matrix keeps the one table its cell reads).  Per (gamma,
truncation_order), cached across cells: the moduli rows of the fixed set
(four constants and three extremal maps) and of the negative control.
verify_up_to_radius still runs once per function, on its row of moduli: it
gives each function its own verdict and excess, and the worst offender is
the function whose report has the largest excess.  Neither the draw nor the
batched or cached rows change a bit of any function's report.

The negative control is the truncated 1/(1 - z), no member: only the psi
block of the check can push its scaled sum 1 + sum psi_k(r) past 1, and a
cell's control_ok is that the check rejects it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .bohr import extremal_margins, verify_up_to_radius
from .radius import NoRootError, RadiusQuery, minimal_root
from .series import (
    DEFAULT_ORDER,
    BlaschkeComposed,
    CoefficientSeries,
    DomainParams,
    Extremal,
    Raw,
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


def _is_number(value) -> bool:
    """A real number that is not a bool (a bool is a numbers.Real)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 20260811
    samples_per_cell: int = 500
    gamma_grid: tuple = (0.0, 0.25, 0.5, 0.75)
    p_grid: tuple = (0.5, 1.0, 2.0)
    families: tuple = DEFAULT_FAMILIES
    tolerance: float = 1e-9
    grid_points: int = 12
    truncation_order: int = DEFAULT_ORDER
    negative_controls: bool = True

    def __post_init__(self):
        for name in ("seed", "samples_per_cell", "grid_points", "truncation_order"):
            value = getattr(self, name)
            # a bool is an Integral; a float is taken only when it is integral
            if isinstance(value, bool) or not (
                isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
            ):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples_per_cell < 1:
            raise ValueError("samples_per_cell must be >= 1")
        if not _is_number(self.tolerance):
            raise ValueError(f"tolerance must be a number, got {self.tolerance!r}")
        for name in ("gamma_grid", "p_grid"):
            grid = getattr(self, name)
            if not (isinstance(grid, (list, tuple)) and all(_is_number(v) for v in grid)):
                raise ValueError(f"{name} must be a list or tuple of numbers, got {grid!r}")
            object.__setattr__(self, name, tuple(float(v) for v in grid))
        for g in self.gamma_grid:
            if not (0.0 <= g < 1.0):
                raise ValueError(f"gamma {g} outside [0, 1)")
        for p in self.p_grid:
            if not (0.0 < p <= 2.0):
                raise ValueError(f"p {p} outside (0, 2]")
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not math.isfinite(self.tolerance):
            raise ValueError("tolerance must be finite")
        if self.grid_points < 2:  # one point is r = 0 alone
            raise ValueError("grid_points must be >= 2")
        if self.truncation_order < 0:
            raise ValueError("truncation_order must be >= 0")
        if not isinstance(self.negative_controls, bool):
            raise ValueError(f"negative_controls must be True or False, got {self.negative_controls!r}")
        object.__setattr__(self, "families", tuple(self.families))
        for f in self.families:
            if not isinstance(f, WeightFamily):
                raise ValueError(f"families must hold WeightFamily instances, got {f!r}")


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


def _draw(rng: np.random.Generator, count: int) -> tuple:
    """(zeros, counts, rotations) of count members, each with 0-5 Blaschke zeros
    uniformly in |z| <= 0.8 plus a random rotation: the (count, 5) zero
    matrix, row j holding member j's zeros in its first counts[j] entries
    and 0 after them, the list of zero counts and the array of rotations.

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
    zeros = np.zeros((count, 5), dtype=np.complex128)
    if not draws:
        return zeros, sizes, np.zeros(0, dtype=np.complex128)
    u = np.concatenate(draws)
    # the zero count of its member and its place in the member, per uniform
    counts = np.array(sizes)
    widths = 2 * counts + 1
    count_at = np.repeat(counts, widths)
    place = np.arange(u.size) - np.repeat(np.cumsum(widths) - widths, widths)
    radii = 0.8 * np.sqrt(u[place < count_at])
    angles = 2.0 * np.pi * u[(place >= count_at) & (place < 2 * count_at)]
    zeros[np.arange(5) < counts[:, None]] = radii * np.exp(1j * angles)
    rotations = np.exp(2j * np.pi * u[place == 2 * count_at])
    return zeros, sizes, rotations


def _members(domain: DomainParams, zeros: np.ndarray, counts: list, rotations: np.ndarray) -> list:
    """One BlaschkeComposed per row of a _draw."""
    return [
        BlaschkeComposed(domain, tuple(row[:n]), rotation)
        for row, n, rotation in zip(zeros.tolist(), counts, rotations.tolist())
    ]


def random_bounded_functions(domain: DomainParams, rng: np.random.Generator, count: int) -> list:
    """Draw count functions, each with 0-5 Blaschke zeros uniformly in |z| <= 0.8
    plus a random rotation (the stream of _draw)."""
    return _members(domain, *_draw(rng, count))


class _FixedSet(NamedTuple):
    functions: tuple
    rows: tuple
    control: Raw
    control_row: np.ndarray


@lru_cache(maxsize=64)
def _fixed_set(gamma: float, order: int) -> _FixedSet:
    """What every inequality cell on Omega(gamma) verifies at order besides its
    random members, built once: the constants 0, 1, -1, 1/2 and the extremal
    maps at a = 0.5, 0.9, 0.999 with their read-only moduli rows, then the
    negative control, order + 1 ones, and its row.  A row is
    f.coefficients(order).moduli()."""
    domain = DomainParams(gamma)
    functions = tuple([Raw(CoefficientSeries([c])) for c in (0.0, 1.0, -1.0, 0.5)]
                      + [Extremal(domain, a) for a in (0.5, 0.9, 0.999)])
    control = Raw(CoefficientSeries(np.ones(order + 1)))
    *rows, control_row = [f.coefficients(order).moduli() for f in (*functions, control)]
    for row in (*rows, control_row):
        row.flags.writeable = False  # shared by every cell on (gamma, order)
    return _FixedSet(functions, tuple(rows), control, control_row)


def _verify_functions(cell: CellResult, query: RadiusQuery, config: SuiteConfig, rng) -> None:
    """Count the verdicts of one cell's functions into cell: its random members,
    drawn in one pass and expanded by one kernel call on the draw's zero
    matrix, then the fixed set, whose rows are built once per (gamma, order),
    and last the negative control if config runs it, which is ok when the
    check rejects it.  verify_up_to_radius runs once per function, on its
    row of moduli and the cell's one scaled table; the cell's arrays are
    freed when it returns."""
    zeros, counts, rotations = _draw(rng, config.samples_per_cell)
    coefficients = _kernels.blaschke_series(zeros, counts, rotations, config.truncation_order, query.domain.gamma)
    moduli = np.abs(coefficients)
    if not np.isfinite(moduli).all():
        raise ValueError("coefficients must be finite")
    fixed = _fixed_set(query.domain.gamma, config.truncation_order)

    def verify(f, row):
        return verify_up_to_radius(f, query, cell.radius, grid_points=config.grid_points,
                                   order=config.truncation_order, tol=config.tolerance, moduli=row)

    fns = _members(query.domain, zeros, counts, rotations) + list(fixed.functions)
    for f, row in zip(fns, [*moduli, *fixed.rows]):
        report = verify(f, row)
        if report.passed:
            cell.n_pass += 1
        else:
            cell.n_fail += 1
        if report.max_excess > cell.worst_excess:
            cell.worst_excess = report.max_excess
            cell.worst_function = f.descriptor()
    if config.negative_controls:
        cell.control_ok = not verify(fixed.control, fixed.control_row).passed


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
    for idx, cell, query, _ in _solved_cells(config, cells):
        _verify_functions(cell, query, config, np.random.default_rng([config.seed, idx]))
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
        # extremal_margins needs gamma < a on every rung; the lowest is a = 1 - max(SHARPNESS_A_STEPS)
        if 1.0 - max(SHARPNESS_A_STEPS) <= cell.gamma:
            cell.skipped = "gamma too close to 1 for the extremal parameter ladder"
            continue
        ladder = extremal_margins(
            query.domain, [1.0 - s for s in SHARPNESS_A_STEPS], query.family, query.p, r_test
        )
        margins = dict(zip(SHARPNESS_A_STEPS, ladder))
        cell.margin = margins[1e-3].margin
        cell.richardson_ratios = tuple(
            abs(em.margin - em.first_order_prediction) / s for s, em in margins.items()
        )
        if cell.margin > 0.0:
            cell.status = "pass"
            cell.n_pass = 1
        elif not root.sharp_window_ok:
            cell.status = "indeterminate"  # tangent gap: violation test is inconclusive
        else:
            cell.status = "fail"
            cell.n_fail = 1
    return _report("sharpness", config, cells)

