"""Sharp radius computation for weighted Bohr inequalities on shifted disks.

The radius is the minimal positive root of the gap equation

    (1 + gamma) * phi_0(x) = (2/p) * sum_{k>=1} phi_k(x).

The solver reads the scale-free gap h(x) = (1 + gamma) - (2/p) tail(x)/phi_0(x):
the difference of the two sides over phi_0, with its sign wherever
phi_0 > 0.  For every built-in family tail/phi_0 increases on
(0, 1) from 0 at 0+, so h changes sign at most once and the first crossing
is the root:

- the monomial families: phi_0 = 1 and the tail is a power series with
  non-negative coefficients, not all zero;
- Bernardi: phi_0 = r^m/(m+delta) and tail/phi_0 is the power series
  (m+delta) sum_{n>=1} r^n/(n+m+delta), with positive coefficients;
- beta- and alpha-Cesaro, (a, c) with a > 0: phi_0 = 2F1(a, 1; c; r) and
  the sum of all weights is 2F1(a+1, 1; c; r), with coefficients (a)_n/(c)_n
  and (a+1)_n/(c)_n.  Their ratio (a+n)/a increases in n, so by the lemma of
  Biernacki and Krzyz (Ann. UMCS 9, 1955) total/phi_0 increases, and with
  it tail/phi_0 = total/phi_0 - 1.

h is read from the family's ratio(x) = tail/phi_0, which every built-in
family gives in a form that stays finite up to 1 - 1e-9, also where phi_0
and the tail overflow or underflow apart.  The solver finds the crossing's
cell of a 1e-3 grid up to 1 - 1e-9 in two batches: every 32nd grid point
(and 1 - 1e-9), then the 31 grid points below the first of those where h is
not positive, down to the one before it.  With one crossing that is the
first cell where h on the whole grid stops being positive.  It then narrows
the cell by 16-sections and certifies the bracket: h(lo) > 0 >= h(hi) with
each end evaluated alone, as the public gap evaluates it.  An h that is nan
ends a positive run like one <= 0, and a bracket end that stays nan ends
the query in NoRootError.
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
_STRIDE = 32  # grid points per cell of the sparse grid

# the scan grid, its sparse grid (every 32nd point, and SCAN_END) and the
# 16-section fractions, built once and read-only
_COARSE = np.append(np.arange(1, 1000) * SCAN_STEP, SCAN_END)
_SPARSE = np.append(_COARSE[_STRIDE - 1 :: _STRIDE], SCAN_END)
_SECTIONS = np.arange(1, 16) / 16.0
for _grid in (_COARSE, _SPARSE, _SECTIONS):
    _grid.flags.writeable = False


class NoRootError(Exception):
    """No certified crossing of h from positive to non-positive on (0, 1)."""


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
    """h(x) = (1+gamma) - (2/p) sum_{k>=1} phi_k(x) / phi_0(x); positive below the radius."""
    arr, scalar = weights._prepare_r(x)
    return weights._unwrap(_gap(query, arr), scalar)


def _gap(query: RadiusQuery, x: np.ndarray):
    """h at a float array x inside [0, 1) that the caller has checked or built."""
    return (1.0 + query.domain.gamma) - (2.0 / query.p) * query.family.ratio(x)


def minimal_root(query: RadiusQuery, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Locate the minimal positive root of h to |hi-lo| <= tol.

    One loop narrows (lo, hi) from lo = 0 by one batch of points a step: the
    sparse grid, then the grid points between its first point that is not
    positive and the sparse point before that, then 16-sections of the
    bracket (15 interior points at a time).  A point ends the positive run
    when its h is <= 0 or nan.  A second loop certifies the bracket:
    h(lo) > 0 >= h(hi) with each end evaluated alone, by the one-point path
    of the public gap, which can differ from a batch in the last bits.  An
    end whose sign fails, or whose h is nan, steps outward by the bracket
    width.  The residual is h at the radius.  A CustomFamily whose phi_0
    vanishes, or whose tail overflows, gives an h of inf or nan, so the solve
    runs with numpy's divide, overflow and invalid warnings off.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo, hi, evals = 0.0, None, 0
        pts = _SPARSE
        while True:
            # one step: keep the last positive point and the first point after it that is not positive
            g = np.asarray(_gap(query, pts))
            evals += pts.size
            positive = g > 0.0
            j = int(positive.argmin())
            if positive[j]:  # positive up to the batch's last point
                if hi is None:
                    raise NoRootError("gap(x) > 0 on all of (0, 1): the inequality holds up to 1")
                lo = float(pts[-1])
            else:
                lo, hi = (float(pts[j - 1]) if j > 0 else lo), float(pts[j])
                if pts is _SPARSE:  # next, the grid points between _SPARSE[j - 1] and hi
                    pts = _COARSE[_STRIDE * j : min(_STRIDE * (j + 1), _COARSE.size) - 1]
                    continue
            # (0, hi) is no bracket: narrow it to DEFAULT_TOL at any tol before calling h non-positive
            if hi - lo <= tol and not (lo == 0.0 and hi > DEFAULT_TOL):
                break
            pts = lo + (hi - lo) * _SECTIONS
            if pts[0] <= lo or pts[-1] >= hi:  # float spacing exhausted
                break
        if lo == 0.0:
            raise NoRootError(f"gap(x) <= 0 at every sampled point of (0, {SCAN_STEP:g}]: any crossing "
                              f"lies below the least of them, x = {hi!r}")
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
    """True iff h < 0 at all sample points in (radius, radius + epsilon).

    A strictly negative window certifies the radius cannot be enlarged; a
    tangent h, or one that is nan at any point, leaves the check false
    (reported as indeterminate upstream).
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if radius + epsilon >= 1.0:
        raise ValueError("window (radius, radius+epsilon) must stay inside [0, 1)")
    pts = radius + epsilon * np.arange(1, WINDOW_SAMPLES + 1) / (WINDOW_SAMPLES + 1.0)
    return bool((gap(query, pts) < 0.0).all())
