"""Sharp radius computation for weighted Bohr inequalities on shifted disks.

The radius is the minimal positive root of

    (1 + gamma) * phi_0(x) = (2/p) * sum_{k>=1} phi_k(x),

located as the first positive-to-nonpositive sign change of the gap function
on a refining scan, then bisected to tolerance.  The bracket is certain by
construction: gap(lo) > 0 >= gap(hi) at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import weights
from .series import DomainParams
from .weights import WeightFamily

SCAN_STEP = 1e-3
FINE_STEP = 1e-6
SCAN_END = 1.0 - 1e-9
DEFAULT_TOL = 1e-12
WINDOW_SAMPLES = 32  # gap evaluations in the sharpness window
_BLOCK = 128

# the scan grids and the 16-section fractions, built once and read-only
_COARSE = np.append(np.arange(1, 1000) * SCAN_STEP, SCAN_END)
_FINE = np.arange(1, 2001) * FINE_STEP
_SECTIONS = np.arange(1, 16) / 16.0
_FIRST = np.asarray(_COARSE[0])  # the first coarse point as a 0-d array
for _grid in (_COARSE, _FINE, _SECTIONS, _FIRST):
    _grid.flags.writeable = False


class NoRootError(Exception):
    """The gap never crosses from positive to non-positive on (0, 1)."""


@dataclass(frozen=True)
class RadiusQuery:
    family: WeightFamily
    domain: DomainParams
    p: float

    def __post_init__(self):
        if not (0.0 < self.p <= 2.0):
            raise ValueError(f"p must be in (0, 2], got {self.p}")


@dataclass(frozen=True)
class RadiusResult:
    radius: float
    bracket: tuple
    residual: float
    sharp_window_ok: bool
    evaluations: int


def gap(query: RadiusQuery, x):
    """(1+gamma) phi_0(x) - (2/p) sum_{k>=1} phi_k(x); positive below the radius."""
    arr, scalar = weights._prepare_r(x)
    return weights._unwrap(_gap(query, arr), scalar)


def _gap(query: RadiusQuery, x: np.ndarray):
    """gap at a float array x inside [0, 1) that the caller has checked or built."""
    phi0, tail = query.family.phi0_tail(x)
    return (1.0 + query.domain.gamma) * phi0 - (2.0 / query.p) * tail


def _first_bracket(query: RadiusQuery):
    """Scan for the first sign change of gap from positive to non-positive.

    Coarse step 1e-3 up to just below 1.  If the gap is already non-positive
    at the very first coarse point, a 1e-6 scan near 0 guards families whose
    gap needs care there (the Bernardi family vanishes at 0+).
    """
    evals = 1
    start = 1
    prev = _COARSE[0]
    if float(_gap(query, _FIRST)) <= 0.0:
        gf = np.asarray(_gap(query, _FINE))
        evals += _FINE.size
        pos = (gf > 0.0).nonzero()[0]
        if pos.size == 0:
            raise NoRootError(
                "gap(x) <= 0 at all sampled points in (0, 2e-3): "
                "no positive-to-nonpositive crossing exists"
            )
        i = int(pos[0])
        nonpos_after = (gf[i + 1 :] <= 0.0).nonzero()[0]
        if nonpos_after.size:
            j = i + 1 + int(nonpos_after[0])
            return (float(_FINE[j - 1]), float(_FINE[j])), evals
        prev = _FINE[-1]
        start = 2  # fine scan already covered up to 2e-3
    for lo_i in range(start, _COARSE.size, _BLOCK):
        block = _COARSE[lo_i : lo_i + _BLOCK]
        gb = np.asarray(_gap(query, block))
        evals += block.size
        nonpos = (gb <= 0.0).nonzero()[0]
        if nonpos.size:
            j = int(nonpos[0])
            lo = prev if j == 0 else block[j - 1]
            return (float(lo), float(block[j])), evals
        prev = block[-1]
    raise NoRootError("gap(x) > 0 on all of (0, 1): the inequality holds up to 1")


def minimal_root(query: RadiusQuery, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Locate the minimal positive root of the gap equation to |hi-lo| <= tol.

    The bracket is refined by vectorized 16-section (bisection batched 15
    interior points at a time); tracking the first non-positive interior
    point keeps gap(lo) > 0 >= gap(hi) certain at every step.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    (lo, hi), evals = _first_bracket(query)
    while hi - lo > tol:
        pts = lo + (hi - lo) * _SECTIONS
        if pts[0] <= lo or pts[-1] >= hi:  # float spacing exhausted
            break
        gp = np.asarray(_gap(query, pts))
        evals += pts.size
        nonpos = (gp <= 0.0).nonzero()[0]
        if nonpos.size:
            j = int(nonpos[0])
            hi = float(pts[j])
            if j > 0:
                lo = float(pts[j - 1])
        else:
            lo = float(pts[-1])
    radius = 0.5 * (lo + hi)
    residual = float(_gap(query, np.asarray(radius)))
    evals += 1
    ok = sharpness_window_check(query, radius, min(0.05, 0.5 * (1.0 - radius)))
    evals += WINDOW_SAMPLES
    return RadiusResult(radius, (lo, hi), residual, ok, evals)


def sharpness_window_check(query: RadiusQuery, radius: float, epsilon: float) -> bool:
    """True iff gap < 0 at all sample points in (radius, radius + epsilon).

    A strictly negative window certifies the radius cannot be enlarged; a
    tangent gap leaves the check false (reported as indeterminate upstream).
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if radius + epsilon >= 1.0:
        raise ValueError("window (radius, radius+epsilon) must stay inside [0, 1)")
    pts = radius + epsilon * np.arange(1, WINDOW_SAMPLES + 1) / (WINDOW_SAMPLES + 1.0)
    return bool((np.asarray(gap(query, pts)) < 0.0).all())
