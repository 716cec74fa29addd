"""Weighted Bohr sums A_f = |c_0|^p phi_0(r) + sum |c_k| phi_k(r) and checks.

Verification is truncation-aware: a failure is only declared when the excess
over phi_0 exceeds the certified bound on the mass dropped by truncating the
series, so a true member is never flagged because of a finite cutoff.

verify_up_to_radius is the check of one function, and a suite calls it once
per function.  What it shares with the other functions of a suite cell is
built once per cell: the phi table over the grid, from one family.vector
call, and its truncation allowance, whose row sums are one reduction over
the table (both cached by _phi_matrix, which hands the check the phi_0
column and the k >= 1 block as read-only views).  The check reads only
|c_k|: the suite takes them for its random members from one kernel call
per cell, and for its fixed set from rows cached per (gamma, order), and
passes each function's row as moduli=, with the same arithmetic.  The
check itself stays per function: each function has its own cap, verdict
and excess, and the traced benchmark (perfbench/run.py --trace 1) counts one
verify_up_to_radius call per verified function, so one matrix product per
cell must wait until the benchmark counts verified functions instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import weights
from .radius import RadiusQuery
from .series import (
    DEFAULT_ORDER,
    BoundedFunction,
    CoefficientSeries,
    DomainParams,
    Extremal,
    Raw,
)
from .weights import WeightFamily


@dataclass
class BohrReport:
    """Grid evaluation of the weighted Bohr sum against phi_0."""

    radii: np.ndarray
    bohr_sums: np.ndarray
    phi0_values: np.ndarray
    max_excess: float
    truncation_bound: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "radii": list(map(float, self.radii)),
            "bohr_sums": list(map(float, self.bohr_sums)),
            "phi0_values": list(map(float, self.phi0_values)),
            "max_excess": float(self.max_excess),
            "truncation_bound": float(self.truncation_bound),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }


def bohr_sum(series: CoefficientSeries, family: WeightFamily, p: float, r: float) -> float:
    """|c_0|^p phi_0(r) + sum_{k=1}^M |c_k| phi_k(r) over the stored coefficients."""
    if not (0.0 < p <= 2.0):
        raise ValueError(f"p must be in (0, 2], got {p}")
    v = weights.phi_vector(family, series.order, r)
    m = series.moduli()
    return float(m[0] ** p * v[0] + m[1:] @ v[1:])


def verification_order(f: BoundedFunction, order: int) -> int:
    """The order verify_up_to_radius checks f at: order, or all of a longer Raw series."""
    if isinstance(f, Raw):
        return max(order, f.series.order)  # keep the stored series intact
    return order


@lru_cache(maxsize=512)
def _phi_matrix(family, radius: float, grid_points: int, order: int):
    """The read-only grid r = linspace(0, radius, grid_points), read-only views
    of the table whose row i holds [phi_0(r_i), ..., phi_order(r_i)] -- its
    phi_0 column and its k >= 1 block -- and the truncation allowance: the
    largest certified sum_{k > order} phi_k(r_i) over the grid.

    The table is one family.vector call over the grid.  The allowance keeps
    the arithmetic of phi_tail_mass, a 0-d tail at each point less the sum
    of its row, with the row sums of the k >= 1 block taken in one
    reduction.  The grid lies in [0, radius] with radius checked by
    verify_up_to_radius, so the weights are read unchecked.  A table that is
    not finite, or whose phi_0 at the grid's end is below the normal floats,
    raises RuntimeError: a Bohr sum over it would mean nothing, or pass
    vacuously."""
    radii = np.linspace(0.0, radius, grid_points)
    mat = family.vector(order, radii)
    mat.flags.writeable = False  # and so are the views of it
    phi0, block = mat[:, 0], mat[:, 1:]
    partials = block.sum(axis=1).tolist()
    allowance = max(weights._tail_beyond(family, r, partial) for r, partial in zip(radii.tolist(), partials))
    if not (np.isfinite(mat).all() and math.isfinite(allowance)):
        raise RuntimeError(
            f"the {family.name} weight table overflowed: phi_0 ... phi_{order} or their tail "
            f"are not finite on [0, {radius}]"
        )
    if phi0[-1] < np.finfo(float).tiny:
        raise RuntimeError(
            f"the {family.name} weight table underflowed: phi_0({radius}) = {phi0[-1]:.3g} "
            f"is below the normal floats"
        )
    radii.flags.writeable = False
    return radii, phi0, block, allowance


def verify_up_to_radius(
    f: BoundedFunction,
    query: RadiusQuery,
    radius: float,
    grid_points: int = 16,
    order: int = DEFAULT_ORDER,
    tol: float = 1e-9,
    moduli: np.ndarray | None = None,
) -> BohrReport:
    """Evaluate the Bohr sum of f on a uniform grid over [0, radius].

    Membership of f in the bounded class on the query's domain is a caller
    assertion; feeding a non-member is how negative controls are run.
    moduli, if given, is f.coefficients(n).moduli() at n = verification_order(f,
    order), and is used in its place; another length raises ValueError.
    """
    if not (0.0 <= radius < 1.0):
        raise ValueError("radius must be in [0, 1)")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")
    if grid_points < 2:  # one point is r = 0 alone
        raise ValueError("grid_points must be >= 2")
    order = verification_order(f, order)
    if moduli is None:
        moduli = f.coefficients(order).moduli()
    elif len(moduli) != order + 1:
        raise ValueError(f"moduli has {len(moduli)} entries; verification needs {order + 1}")
    cap = f.cap()
    radius, grid_points, order = float(radius), int(grid_points), int(order)
    radii, phi0s, block, allowance = _phi_matrix(query.family, radius, grid_points, order)
    sums = phi0s * moduli[0] ** query.p + block @ moduli[1:]
    trunc = cap * allowance
    max_excess = float((sums - phi0s).max())
    return BohrReport(
        radii=radii,
        bohr_sums=sums,
        phi0_values=phi0s,
        max_excess=max_excess,
        truncation_bound=float(trunc),
        tolerance=float(tol),
        passed=max_excess <= tol + trunc,
    )


@dataclass(frozen=True)
class ExtremalMargin:
    """Observed excess of the extremal family over phi_0, with its linear model."""

    margin: float
    first_order_prediction: float


def extremal_margin(
    domain: DomainParams,
    a: float,
    family: WeightFamily,
    p: float,
    r: float,
    order: int = 600,
) -> ExtremalMargin:
    """Bohr-sum excess of the extremal map at radius r, against the expansion

        margin = ((1-a)/(1-gamma)) [2 sum phi_k(r) - p (1+gamma) phi_0(r)] + O((1-a)^2)

    valid as a -> 1 with gamma < a.  Just beyond the sharp radius the bracket
    is positive, so the margin is positive for a close enough to 1: that is
    the numerical sharpness certificate.
    """
    if not (domain.gamma < a < 1.0):
        raise ValueError(f"requires gamma < a < 1, got gamma={domain.gamma}, a={a}")
    series = Extremal(domain, a).coefficients(order)
    p0 = float(weights.phi0(family, r))
    margin = bohr_sum(series, family, p, r) - p0
    pred = (
        (1.0 - a)
        / (1.0 - domain.gamma)
        * (2.0 * float(weights.tail_sum(family, r)) - p * (1.0 + domain.gamma) * p0)
    )
    return ExtremalMargin(margin=float(margin), first_order_prediction=float(pred))

