"""Sharp radius computation for weighted Bohr inequalities on shifted disks.

The radius is the minimal positive root of the gap

    gap(x) = (1 + gamma) * phi_0(x) - (2/p) * sum_{k>=1} phi_k(x).

For every built-in family tail/phi_0 increases on (0, 1) from 0 at 0+, so
the gap, phi_0 ((1 + gamma) - (2/p) tail/phi_0), changes sign at most once
and the first crossing is the root:

- the monomial families: phi_0 = 1 and the tail is a power series with
  non-negative coefficients, not all zero;
- Bernardi: phi_0 = r^m/(m+delta) and tail/phi_0 is the power series
  (m+delta) sum_{n>=1} r^n/(n+m+delta), with positive coefficients;
- beta- and alpha-Cesaro, (a, c) with a > 0: phi_0 = 2F1(a, 1; c; r) and
  the sum of all weights is 2F1(a+1, 1; c; r), with coefficients (a)_n/(c)_n
  and (a+1)_n/(c)_n.  Their ratio (a+n)/a increases in n, so by the lemma of
  Biernacki and Krzyz (Ann. UMCS 9, 1955) total/phi_0 increases, and with
  it tail/phi_0 = total/phi_0 - 1.

The solver narrows a bracket over a 1e-3 grid up to 1 - 1e-9, then by
16-sections, and certifies it: gap(lo) > 0 >= gap(hi) with each end
evaluated alone, as the public gap evaluates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import weights
from .series import DomainParams
from .weights import WeightFamily

SCAN_STEP = 1e-3
SCAN_END = 1.0 - 1e-9
DEFAULT_TOL = 1e-12
WINDOW_SAMPLES = 32  # gap evaluations in the sharpness window
_CERTIFY_STEPS = 8  # outward steps of a bracket end whose lone sign fails

# the scan grid, its blocks of 128 points (the first 129) and the 16-section
# fractions, built once and read-only
_COARSE = np.append(np.arange(1, 1000) * SCAN_STEP, SCAN_END)
_SECTIONS = np.arange(1, 16) / 16.0
for _grid in (_COARSE, _SECTIONS):
    _grid.flags.writeable = False
_BLOCKS = tuple(np.split(_COARSE, range(129, _COARSE.size, 128)))


class NoRootError(Exception):
    """No certified crossing of the gap from positive to non-positive on (0, 1)."""


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


def minimal_root(query: RadiusQuery, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Locate the minimal positive root of the gap equation to |hi-lo| <= tol.

    One loop narrows (lo, hi) from lo = 0 by one step: until a non-positive
    point is known it scans the next block of the grid, then it 16-sections
    the bracket (15 interior points at a time).  A second loop certifies the
    bracket: gap(lo) > 0 >= gap(hi) with each end evaluated alone, by the
    one-point path of the public gap, which can differ from a batch in the
    last bits.  An end whose sign fails steps outward by the bracket width.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lo, hi, evals = 0.0, None, 0
    blocks = iter(_BLOCKS)
    # (0, hi) is no bracket: narrow it to DEFAULT_TOL at any tol before calling the gap non-positive
    while hi is None or hi - lo > tol or (lo == 0.0 and hi > DEFAULT_TOL):
        if hi is None:  # the next block of the grid
            pts = next(blocks, None)
            if pts is None:
                raise NoRootError("gap(x) > 0 on all of (0, 1): the inequality holds up to 1")
        else:  # a 16-section of the bracket
            pts = lo + (hi - lo) * _SECTIONS
            if pts[0] <= lo or pts[-1] >= hi:  # float spacing exhausted
                break
        # one step: keep the last positive point and the first non-positive one after a positive
        # one; while lo is 0 that skips the batch's leading zeros, where phi_0 underflows
        g = np.asarray(_gap(query, pts))
        evals += pts.size
        first = int((g > 0.0).argmax()) if lo == 0.0 else 0
        nonpos = (g[first:] <= 0.0).nonzero()[0]
        if nonpos.size:
            j = first + int(nonpos[0])
            lo, hi = (float(pts[j - 1]) if j else lo), float(pts[j])
        else:
            lo = float(pts[-1])
    if lo == 0.0:
        raise NoRootError(f"gap(x) <= 0 at every sampled point of (0, {SCAN_STEP:g}]: no crossing exists")
    lone = {}  # x -> gap(x) evaluated alone: an end that did not move is not evaluated again
    for _ in range(_CERTIFY_STEPS + 1):
        for x in {lo, hi} - lone.keys():
            lone[x] = float(_gap(query, np.asarray(x)))
        if lone[lo] > 0.0 >= lone[hi]:
            break
        lo, hi = (lo if lone[lo] > 0.0 else max(2.0 * lo - hi, 0.0),
                  hi if lone[hi] <= 0.0 else min(2.0 * hi - lo, SCAN_END))
    else:
        raise NoRootError(f"no certified crossing near x = {lo!r}: evaluated alone, "
                          f"gap(lo) > 0 >= gap(hi) fails after {_CERTIFY_STEPS} outward steps")
    radius = 0.5 * (lo + hi)
    residual = float(_gap(query, np.asarray(radius)))
    ok = sharpness_window_check(query, radius, min(0.05, 0.5 * (1.0 - radius)))
    evals += len(lone) + 1 + WINDOW_SAMPLES
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
