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

The solver finds the crossing's cell of a 1e-3 grid up to 1 - 1e-9 in two
batches: every 32nd grid point (and 1 - 1e-9), then the 31 grid points below
the first of those where the gap is not positive, down to the one before it.
With one crossing that is the first cell where the gap on the whole grid
stops being positive.  It then narrows the cell by 16-sections and certifies the
bracket: gap(lo) > 0 >= gap(hi) with each end evaluated alone, as the public
gap evaluates it.  A gap that is nan or -inf, where the weights overflow,
ends a positive run like one <= 0, and a bracket end whose lone gap is not
finite, or a radius where phi_0 underflows below the normal floats, ends the
query in NoRootError rather than in a radius the floats cannot resolve.
"""

from __future__ import annotations

import math
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
_NORMAL = np.finfo(float).tiny  # the least normal float: phi_0 at the radius must reach it
_STRIDE = 32  # grid points per cell of the sparse grid

# the scan grid, its sparse grid (every 32nd point, and SCAN_END) and the
# 16-section fractions, built once and read-only
_COARSE = np.append(np.arange(1, 1000) * SCAN_STEP, SCAN_END)
_SPARSE = np.append(_COARSE[_STRIDE - 1 :: _STRIDE], SCAN_END)
_SECTIONS = np.arange(1, 16) / 16.0
for _grid in (_COARSE, _SPARSE, _SECTIONS):
    _grid.flags.writeable = False


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

    One loop narrows (lo, hi) from lo = 0 by one batch of points a step: the
    sparse grid, then the grid points between its first point that is not
    positive and the sparse point before that, then 16-sections of the
    bracket (15 interior points at a time).  A point ends the positive run
    when its gap is <= 0, -inf or nan; while lo is 0 a batch's leading exact
    zeros, where phi_0 underflows, are skipped.  A second loop certifies the
    bracket: gap(lo) > 0 >= gap(hi) with each end evaluated alone, by the
    one-point path of the public gap, which can differ from a batch in the
    last bits.  An end whose sign fails steps outward by the bracket width; a
    lone gap that is not finite ends the query in NoRootError.  The sparse
    grid reaches 1 - 1e-9, where the weights may overflow, so the solve runs
    with numpy's overflow and invalid warnings off.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi, evals = 0.0, None, 0
        pts = _SPARSE
        while True:
            # one step: keep the last positive point and the first point after it that is not positive
            g = np.asarray(_gap(query, pts))
            evals += pts.size
            positive = g > 0.0
            first = int((g != 0.0).argmax()) if lo == 0.0 else 0
            j = first + int(positive[first:].argmin())
            if positive[j]:  # positive up to the batch's last point
                if hi is None:
                    raise NoRootError("gap(x) > 0 on all of (0, 1): the inequality holds up to 1")
                lo = float(pts[-1])
            else:
                lo, hi = (float(pts[j - 1]) if j > first else lo), float(pts[j])
                if pts is _SPARSE:  # next, the grid points between _SPARSE[j - 1] and hi
                    pts = _COARSE[_STRIDE * j : min(_STRIDE * (j + 1), _COARSE.size) - 1]
                    continue
            # (0, hi) is no bracket: narrow it to DEFAULT_TOL at any tol before calling the gap non-positive
            if hi - lo <= tol and not (lo == 0.0 and hi > DEFAULT_TOL):
                break
            pts = lo + (hi - lo) * _SECTIONS
            if pts[0] <= lo or pts[-1] >= hi:  # float spacing exhausted
                break
        if lo == 0.0:
            raise NoRootError(f"gap(x) <= 0 at every sampled point of (0, {SCAN_STEP:g}]: no crossing exists")
        lone = {}  # x -> gap(x) evaluated alone: an end that did not move is not evaluated again
        for _ in range(_CERTIFY_STEPS + 1):
            for x in {lo, hi} - lone.keys():
                lone[x] = float(_gap(query, np.asarray(x)))
                if not math.isfinite(lone[x]):
                    raise NoRootError(f"gap({x!r}) = {lone[x]!r} evaluated alone is not finite: "
                                      f"the weights overflow before a certified crossing")
            if lone[lo] > 0.0 >= lone[hi]:
                break
            lo, hi = (lo if lone[lo] > 0.0 else max(2.0 * lo - hi, 0.0),
                      hi if lone[hi] <= 0.0 else min(2.0 * hi - lo, SCAN_END))
        else:
            raise NoRootError(f"no certified crossing near x = {lo!r}: evaluated alone, "
                              f"gap(lo) > 0 >= gap(hi) fails after {_CERTIFY_STEPS} outward steps")
        radius = 0.5 * (lo + hi)
        # the gap at the radius from its two terms, as _gap takes it, to see phi_0 too
        phi0, tail = query.family.phi0_tail(np.asarray(radius))
        residual = float((1.0 + query.domain.gamma) * phi0 - (2.0 / query.p) * tail)
        if not phi0 >= _NORMAL:
            raise NoRootError(f"phi_0({radius!r}) = {float(phi0)!r} underflows below the normal floats: "
                              f"the sign of the gap is not resolved near the crossing")
        ok = sharpness_window_check(query, radius, min(0.05, 0.5 * (1.0 - radius)))
    evals += len(lone) + 1 + WINDOW_SAMPLES
    return RadiusResult(radius, (lo, hi), residual, ok, evals)


def sharpness_window_check(query: RadiusQuery, radius: float, epsilon: float) -> bool:
    """True iff gap < 0 at all sample points in (radius, radius + epsilon), or
    at every point before a trailing run of nan gaps, where the weights overflow.

    A strictly negative window certifies the radius cannot be enlarged; a
    tangent gap leaves the check false (reported as indeterminate upstream),
    and so does a nan at the first point or between finite gaps.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if radius + epsilon >= 1.0:
        raise ValueError("window (radius, radius+epsilon) must stay inside [0, 1)")
    pts = radius + epsilon * np.arange(1, WINDOW_SAMPLES + 1) / (WINDOW_SAMPLES + 1.0)
    g = np.asarray(gap(query, pts))
    if (g < 0.0).all():
        return True
    nan = np.isnan(g)
    first = int(nan.argmax())  # 0 with no nan, or with a nan at the first point
    return first > 0 and bool((g[:first] < 0.0).all() and nan[first:].all())
