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
the cell by nested 16-sections, up to _DEPTH levels a batch: the next level
and those below it on the path the secant through the bracket's ends
predicts, read in order up to the first cell that is not the predicted one.
Every family gives a point the bits it gets alone, in any batch, so this is
the bracket of one level a batch, and the batch values that found it certify
it as the public gap reads it: h(lo) > 0 >= h(hi).  An h that is nan ends a
positive run like one <= 0, and a nan h(hi) ends the query in NoRootError.
The radius and the sharpness window (radius, radius + epsilon),
epsilon = min(0.05, (1 - radius)/2), are one last batch: sharp_window_ok is
h < 0 at every window point, which certifies that the radius cannot be
enlarged; a tangent h, or one that is nan at any point, leaves it false.
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
_STRIDE = 32  # grid points per cell of the sparse grid
_DEPTH = 4  # 16-section levels per gap batch: the next one and those the secant predicts below it

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
    return weights._evaluate(lambda pts: _gap(query, pts), x)


def _gap(query: RadiusQuery, x: np.ndarray):
    """h at a 1-d float array x inside [0, 1) that the caller has checked or built."""
    return (1.0 + query.domain.gamma) - (2.0 / query.p) * query.family.ratio(x)


def minimal_root(query: RadiusQuery, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Locate the minimal positive root of h to |hi-lo| <= tol.

    Each level of ascending points narrows (lo, hi) from lo = 0 by _step:
    the sparse grid, the grid points between its first point that is not
    positive and the sparse point before, then the 16-sections that _plan
    batches.  The ends keep the h of the batches that found them; a nan
    h(hi) ends the query in NoRootError.  evaluations counts every point
    evaluated, those of dropped levels too.  A CustomFamily whose phi_0
    vanishes, or whose tail overflows, gives an h of inf or nan, so the
    solve runs with numpy's divide, overflow and invalid warnings off.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cell, lo, h_lo, hi, h_hi = _step(_SPARSE, _gap(query, _SPARSE), 0.0, np.nan, None, np.nan)
        if hi is None:
            raise NoRootError("gap(x) > 0 on all of (0, 1): the inequality holds up to 1")
        pts = _COARSE[_STRIDE * cell : min(_STRIDE * (cell + 1), _COARSE.size) - 1]
        _, lo, h_lo, hi, h_hi = _step(pts, _gap(query, pts), lo, h_lo, hi, h_hi)
        evals = _SPARSE.size + pts.size
        while levels := _plan(lo, hi, h_lo, h_hi, tol):
            g = _gap(query, np.concatenate([level for level, _ in levels]))
            evals += g.size
            for (pts, predicted), h in zip(levels, g.reshape(len(levels), -1)):
                cell, lo, h_lo, hi, h_hi = _step(pts, h, lo, h_lo, hi, h_hi)
                if cell != predicted:  # off the predicted path: the deeper levels are not this bracket's
                    break
        if lo == 0.0:
            raise NoRootError(f"gap(x) <= 0 at every sampled point of (0, {SCAN_STEP:g}]: any crossing "
                              f"lies below the least of them, x = {hi!r}")
        if not h_hi <= 0.0:
            raise NoRootError(f"no certified crossing near x = {lo!r}: gap(hi) is nan at hi = {hi!r}")
        radius = 0.5 * (lo + hi)
        g = _gap(query, _window(radius, min(0.05, 0.5 * (1.0 - radius))))
    return RadiusResult(radius, (lo, hi), float(g[0]), bool((g[1:] < 0.0).all()), evals + g.size)


def _step(pts, g, lo, h_lo, hi, h_hi):
    """(cell, lo, h(lo), hi, h(hi)) after a level: the cell is the length of the
    leading run of points where h > 0, a nan ending it; lo moves to the run's
    last point and hi to the point after it, if there are such points."""
    positive = g > 0.0
    cell = int(positive.argmin())
    if positive[cell]:
        cell = pts.size
    if cell:
        lo, h_lo = float(pts[cell - 1]), float(g[cell - 1])
    if cell < pts.size:
        hi, h_hi = float(pts[cell]), float(g[cell])
    return cell, lo, h_lo, hi, h_hi


def _plan(lo, hi, h_lo, h_hi, tol):
    """The next 16-section level of (lo, hi) and the levels below it along the
    secant's path, up to _DEPTH, each with the cell the secant predicts; none
    once the bracket is narrow enough or float spacing is exhausted.  Without
    a secant in [0, 1] (lo = 0 has no h(lo), or h is nan) the lowest cell is
    predicted."""
    t = h_lo / (h_lo - h_hi)
    if not 0.0 <= t <= 1.0:
        t = 0.0
    levels = []
    # (0, hi) is no bracket: narrow it to DEFAULT_TOL at any tol before calling h non-positive
    while len(levels) < _DEPTH and (hi - lo > tol or (lo == 0.0 and hi > DEFAULT_TOL)):
        pts = lo + (hi - lo) * _SECTIONS
        if pts[0] <= lo or pts[-1] >= hi:  # float spacing exhausted
            break
        cell = min(max(math.ceil(16.0 * t) - 1, 0), 15)
        t = 16.0 * t - cell
        levels.append((pts, cell))
        lo, hi = (float(pts[cell - 1]) if cell else lo), (float(pts[cell]) if cell < 15 else hi)
    return levels


def _window(radius: float, epsilon: float) -> np.ndarray:
    """The radius and the WINDOW_SAMPLES points of the sharpness window (radius, radius + epsilon)."""
    return radius + epsilon * np.arange(WINDOW_SAMPLES + 1) / (WINDOW_SAMPLES + 1.0)
