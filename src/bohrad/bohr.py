"""Weighted Bohr sums A_f = |c_0|^p phi_0(r) + sum |c_k| phi_k(r) and checks.

Both checks here read A_f <= phi_0 scale-free, as the radius solver reads
tail/phi_0: t = |c_0|^p + sum |c_k| psi_k(r) <= 1 with psi_k = phi_k/phi_0
(family.scaled), which keeps its meaning where phi_0 underflows; its
excess t - 1, tolerance and truncation bound are relative to phi_0.  The
sharpness margin of an extremal map is the same t - 1 at one radius; a
ladder of extremal maps (extremal_margins) at one radius reads the gap h
and the psi row once for all of its rungs.  A failure is
only declared when the excess exceeds the certified bound on the scaled
mass dropped by truncating the series, so a true member is never flagged
because of a finite cutoff.

verify_up_to_radius is the check of one function, and a suite calls it once
per function.  What it shares with the other functions of a suite cell is
built once per cell: phi_0 over the grid, the scaled table from one
family.scaled call and the truncation allowance from one family.ratio call.
A cell's calls are consecutive, so _phi_matrix keeps the one table its cell
reads.  The check reads only |c_k|, of the row f.coefficients(order) at
that row's own length: the suite takes them for its random members from one
kernel call per cell, and for its fixed set from rows cached per (gamma,
order), and passes each function's row as moduli=, with the same
arithmetic.  The check itself stays per function:
each function has its own cap, verdict and excess, and the traced benchmark
(perfbench/run.py --trace 1) counts one verify_up_to_radius call per
verified function, so one matrix product per cell must wait until the
benchmark counts verified functions instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .radius import RadiusQuery, gap
from .series import DEFAULT_ORDER, BoundedFunction, DomainParams, Extremal
from .weights import WeightFamily


@dataclass
class BohrReport:
    """Grid evaluation of the weighted Bohr sum against phi_0: bohr_sums and
    phi0_values are absolute; max_excess, truncation_bound and tolerance are
    relative to phi_0, as the excess of t = A_f/phi_0 over 1."""

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


@lru_cache(maxsize=1)
def _phi_matrix(family, radius: float, grid_points: int, order: int):
    """The grid r = linspace(0, radius, grid_points), phi_0 over it, the k >= 1
    block of family.scaled over it (all read-only) and the truncation
    allowance: the largest certified sum_{k > order} psi_k(r_i) over the grid,
    ratio less the row sum, at least 0.  ratio is read in one call where
    phi_0 > 0 or the row is not 0 (Bernardi's scaled form keeps its psi where
    phi_0 underflows); elsewhere psi = 0 and so is the allowance.  The grid
    lies in [0, radius], checked by verify_up_to_radius, so the weights are
    read unchecked.  A phi_0 or allowance that is not finite raises
    RuntimeError, as family.scaled does for its table.  Only the last key is
    kept: each key is read by the consecutive calls of one cell."""
    radii = np.linspace(0.0, radius, grid_points)
    block = family.scaled(order, radii)[:, 1:]
    phi0 = family.phi0(radii)
    partials = block.sum(axis=1)
    read = (phi0 > 0.0) | (partials > 0.0)
    allowance = float((family.ratio(radii[read]) - partials[read]).max(initial=0.0))
    if not (np.isfinite(phi0).all() and math.isfinite(allowance)):
        raise RuntimeError(f"the {family.name} weight table overflowed: phi_0 or the tail over it "
                           f"are not finite on [0, {radius}]")
    for array in (radii, phi0, block):
        array.flags.writeable = False
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
    f is checked on the row f.coefficients(order), at that row's own length
    (all of a longer Raw list).  moduli, if given, is used in its place and
    must have order + 1 entries; another length raises ValueError.
    """
    if not (0.0 <= radius < 1.0):
        raise ValueError("radius must be in [0, 1)")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")
    if grid_points < 2:  # one point is r = 0 alone
        raise ValueError("grid_points must be >= 2")
    if moduli is None:
        series = f.coefficients(order)
        order, moduli = series.order, series.moduli()
    elif len(moduli) != order + 1:
        raise ValueError(f"moduli has {len(moduli)} entries; verification needs {order + 1}")
    cap = f.cap()
    radius, grid_points, order = float(radius), int(grid_points), int(order)
    radii, phi0s, block, allowance = _phi_matrix(query.family, radius, grid_points, order)
    t = moduli[0] ** query.p + block @ moduli[1:]
    trunc = cap * allowance
    max_excess = float((t - 1.0).max())
    return BohrReport(
        radii=radii,
        bohr_sums=phi0s * t,
        phi0_values=phi0s,
        max_excess=max_excess,
        truncation_bound=float(trunc),
        tolerance=float(tol),
        passed=max_excess <= tol + trunc,
    )


EXTREMAL_ORDER = 600  # terms of the extremal map that extremal_margins sums


@dataclass(frozen=True)
class ExtremalMargin:
    """Observed excess of the extremal family over phi_0, with its linear
    model; both are relative to phi_0, as max_excess is."""

    margin: float
    first_order_prediction: float


def extremal_margins(
    domain: DomainParams,
    a_values,
    family: WeightFamily,
    p: float,
    r: float,
) -> list[ExtremalMargin]:
    """Scaled Bohr-sum excess t - 1 = |c_0|^p + sum |c_k| psi_k(r) - 1 of the
    extremal map at radius r for each a in a_values, summed to EXTREMAL_ORDER
    from one row of family.scaled, against the expansion

        margin = ((1-a)/(1-gamma)) (-p h(r)) + O((1-a)^2),
        h = (1+gamma) - (2/p) tail/phi_0 (radius.gap),

    valid as a -> 1 with gamma < a.  Just beyond the sharp radius h < 0, so
    the margin is positive for a close enough to 1: that is the numerical
    sharpness certificate.  Every a is checked before any arithmetic; r is
    checked by radius.gap.  h and the psi row depend on r alone, so a ladder
    of a reads them once.
    """
    a_values = tuple(a_values)
    for a in a_values:
        if not (domain.gamma < a < 1.0):
            raise ValueError(f"requires gamma < a < 1, got gamma={domain.gamma}, a={a}")
    h = gap(RadiusQuery(family, domain, p), r)
    psi = family.scaled(EXTREMAL_ORDER, np.array([float(r)]))[0]
    margins = []
    for a in a_values:
        moduli = Extremal(domain, a).coefficients(EXTREMAL_ORDER).moduli()
        margin = moduli[0] ** p + moduli[1:] @ psi[1:] - 1.0
        pred = (1.0 - a) / (1.0 - domain.gamma) * (-p * h)
        margins.append(ExtremalMargin(margin=float(margin), first_order_prediction=float(pred)))
    return margins
