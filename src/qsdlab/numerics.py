"""Shared numerical kernels.

One improper-integral engine with explicit divergence certification, one
tabulated antiderivative (with a batched inverse), one Richardson step, the
first-order phase system (u, rho*u') for the Sturm-Liouville generator,
bracketed root finding by an in-repo port of Brent's zeroin, and the lowest
eigenpairs of a symmetric tridiagonal matrix (`tridiagonal_lowest`, shared
by the finite-element oracle and the Schrodinger solve).  Nothing here
imports scipy.

`tridiagonal_lowest` bisects on the Sturm count (Barth, Martin & Wilkinson
1967, the method of LAPACK's dstebz) and refines vectors by inverse
iteration (as dstein does).  Both run on odd-even (cyclic) reduction, about
log2 n levels of array operations batched over every shift, instead of an
n-step recurrence.

The phase system is propagated by two-point Gauss 4th-order Magnus cell maps
(Iserles & Norsett 1999).  Its matrix is traceless, so each cell map is a
closed-form 2x2 exponential of determinant 1; the cells of a chunk are
evaluated in array calls and composed by a prefix scan.

Every improper integral -- `improper_integral`, `tail_integral` and the
nested classification integrals in `boundary` -- marches panels from an
interior point toward the endpoint (`_side_levels`) and feeds the per-level
increments to LevelAccumulator, so all of them share identical
Finite/Divergent rules.  Integrands are passed as vectorized logs.  One
log-space rule, `_log_integral`, integrates every stretch of them: these
levels, the inner classification integrals and the positivity ladder in
`boundary`.  It sums 16-point Gauss panels, graded toward both ends by the
endpoint slopes plus a uniform set, in log space, so no integrand value can
overflow.  The level rules:

* Finite: two consecutive refinement levels contribute less than
  tol*(1+|S|)/8 each.
* Divergent, threshold rule: |S| exceeds DIVERGENCE_THRESHOLD (1e12)
  while still increasing across the last 3 levels.
* Divergent, trend rule: increments keep a fixed sign and stop decaying
  (level-to-level ratio >= 0.9997 over the last 4 of >= 8 levels).  Constant
  positive increments integrate to +infinity, so the partial sums provably
  cross any threshold; this certifies logarithmic divergence, which gains only
  ~0.69 per refinement level and would otherwise never hit 1e12.
* Otherwise, after the level budget: IndeterminateIntegralError (never a
  silent Finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

DIVERGENCE_THRESHOLD = 1e12
# saturation point for exponentials fed to the level accumulator: low enough
# that saturated partial sums keep increasing strictly (so the threshold rule
# still fires) instead of overflowing to inf
_LOG_CLIP = math.log(1e250)
# trend rule: fires from this many levels on, when the last 4 level-to-level
# ratios are all at least _TREND_RATIO
_TREND_MIN_LEVELS = 8
_TREND_RATIO = 0.9997
# level cap of each side of `improper_integral`
_IMPROPER_MAX_LEVELS = 200


class QsdlabError(Exception):
    """Base class for qsdlab numerical/usage errors."""


class IndeterminateIntegralError(QsdlabError):
    """Quadrature could not certify Finite or Divergent within budget."""


class BracketError(QsdlabError):
    """Root bracket does not straddle a sign change."""


class StepUnderflowError(QsdlabError):
    """The phase-system integration met a non-finite coefficient or state
    (overflow, or a singularity inside the integration range)."""

    def __init__(self, message, last_point=None, last_state=None):
        super().__init__(message)
        self.last_point = last_point
        self.last_state = last_state


# ---------------------------------------------------------------------------
# improper integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralVerdict:
    """Finite/Divergent verdict of an improper integral (undecided ones
    raise).  A divergent `improper_integral` is named after the side that
    diverged, "lower" or "upper"."""
    name: str
    verdict: str                  # "finite" | "divergent"
    value: Optional[float]        # defined for finite verdicts
    levels: int
    rule: Optional[str] = None    # which divergence rule fired

    @property
    def finite(self) -> bool:
        return self.verdict == "finite"

    def to_json(self):
        return {"name": self.name, "verdict": self.verdict,
                "value": self.value, "levels": self.levels, "rule": self.rule}


class LevelAccumulator:
    """Streams per-level increments of a partial-integral sequence and
    decides Finite / Divergent / keep-going under the module's shared rules."""

    def __init__(self, tol: float):
        self.tol = float(tol)
        self.increments: list[float] = []
        self.partials: list[float] = []
        self.total = 0.0

    def add(self, increment: float) -> Optional[str]:
        """Feed one level; returns "finite", "divergent" or None (continue)."""
        # saturate instead of overflowing: partial sums then keep increasing
        # strictly and the threshold rule fires on the next levels
        increment = float(np.clip(increment, -1e305, 1e305))
        if math.isnan(increment):
            raise IndeterminateIntegralError("NaN increment in quadrature level")
        self.total += increment
        self.increments.append(increment)
        self.partials.append(self.total)

        inc = self.increments
        # -- finite: two consecutive negligible levels
        if len(inc) >= 2:
            gate = self.tol * (1.0 + abs(self.total)) / 8.0
            if abs(inc[-1]) <= gate and abs(inc[-2]) <= gate:
                return "finite"
        # -- divergent, threshold rule
        if len(self.partials) >= 4 and abs(self.total) > DIVERGENCE_THRESHOLD:
            p = [abs(v) for v in self.partials[-4:]]
            if p[0] < p[1] < p[2] < p[3]:
                return "divergent"
        # -- divergent, trend rule (logarithmic blow-up)
        if len(inc) >= _TREND_MIN_LEVELS:
            last5 = inc[-5:]
            if all(v > 0 for v in last5) or all(v < 0 for v in last5):
                ratios = [abs(last5[i + 1] / last5[i]) for i in range(4)]
                if min(ratios) >= _TREND_RATIO:
                    return "divergent"
        return None


def _side_levels(m, endpoint):
    """Yield closed panels marching from the split point m toward `endpoint`
    (geometric halving toward a finite endpoint, doubling toward +-inf)."""
    if math.isinf(endpoint):
        step = max(1.0, abs(m))
        prev = m
        while True:
            nxt = prev - step if endpoint < m else prev + step
            yield (nxt, prev) if endpoint < m else (prev, nxt)
            prev = nxt
            step *= 2.0
    else:
        prev = m
        k = 1
        while True:
            # panels shrink geometrically toward the endpoint
            nxt = endpoint + (m - endpoint) * 0.5 ** k
            yield (nxt, prev) if nxt < prev else (prev, nxt)
            prev = nxt
            k += 1


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of `a`, ascending: np.unique's own steps (sort,
    then keep each value that differs from the one before), which give its
    bits without its lazy import of numpy.ma."""
    a = np.sort(a, axis=None)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _quantiles(a, qs) -> list:
    """np.quantile(a, q) for each float q of `qs` in [0, 1] (the default
    linear method), for a sample without NaN: numpy's own steps, which give its
    bits without the lazy import of numpy.ma that its np.unique makes.  Each
    q partitions a copy of `a` at the indices numpy partitions at (so that
    even tied zeros of both signs land where numpy puts them), then
    interpolates between the order statistics at floor((n-1) q) and the next
    as lo + d t, or as hi - d (1 - t) where t >= 0.5.  np.percentile(a, p)
    is the quantile at p / 100."""
    n = len(a)
    out = []
    for q in qs:
        v = (n - 1) * q
        if v >= n - 1:
            # numpy reads the maximum, at index -1, as both neighbours; its
            # weight v + 1 can then only move the sign of a zero
            i = j = -1
            t = v + 1.0
        else:
            i = math.floor(v)
            j, t = i + 1, v - i
        s = np.partition(a, _sorted_unique(np.array([0, -1, i, j])))
        lo, hi = s[i], s[j]
        d = hi - lo
        out.append(float(hi - d * (1.0 - t) if t >= 0.5 else lo + d * t))
    return out


def _median(a) -> float:
    """np.median(a) for a sample without NaN, with the same bits and without
    numpy.ma: partitioned at numpy's indices, the middle order statistic or
    the middle pair, summed from 0.0 as np.mean sums, over its count."""
    h = len(a) // 2
    if len(a) % 2:
        return float(0.0 + np.partition(a, [h, -1])[h])
    s = np.partition(a, [h - 1, h, -1])
    return float((0.0 + s[h - 1] + s[h]) / 2)


def _log_integral(logf, lo: float, hi: float) -> float:
    """log of int_lo^hi exp(logf) on a graded-plus-uniform set of 16-point
    Gauss panels, evaluated in one vectorized pass.  The grading depth
    follows the endpoint slopes of logf: the paired-exponent integrands of
    the classification develop boundary layers of width ~1/|logf'| at the
    moving endpoint, and far out along a level march those layers get orders
    of magnitude thinner than the interval, so a fixed depth would step
    right over them and silently drop the panel's mass.  The uniform panels
    catch an interior peak."""
    if hi <= lo:
        return -math.inf
    span = hi - lo
    m = 13
    h = span * 1e-6
    if lo + 2.0 * h < hi - 2.0 * h:
        for a, b in ((lo + h, lo + 2.0 * h), (hi - 2.0 * h, hi - h)):
            va, vb = float(logf(a)), float(logf(b))
            if math.isfinite(va) and math.isfinite(vb):
                rise = abs(vb - va) / h * span
                if rise > 2.0:
                    m = max(m, min(44, int(math.ceil(math.log2(rise))) + 3))
    # graded geometrically toward both ends, plus a uniform set
    g = np.concatenate(([0.0], 2.0 ** np.arange(-m, 0.0),
                        1.0 - 2.0 ** np.arange(-2.0, -m - 1.0, -1.0), [1.0]))
    breaks = _sorted_unique(np.concatenate((lo + span * g,
                                            np.linspace(lo, hi, 17))))
    # per-panel logs of the Gauss sums, each shifted by its largest term
    x, w = _gl_nodes(16)
    mid = 0.5 * (breaks[:-1] + breaks[1:])
    half = 0.5 * (breaks[1:] - breaks[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    lv = logf(nodes.ravel()).reshape(nodes.shape) + np.log(w)[None, :]
    top = lv.max(axis=1)
    with np.errstate(invalid="ignore"):
        piece = (top + np.log(np.exp(lv - top[:, None]).sum(axis=1))
                 + np.log(half))
    piece = np.where(np.isfinite(top), piece, -np.inf)
    peak = piece.max()
    if not np.isfinite(peak):
        return -math.inf
    return float(peak + np.log(np.exp(piece - peak).sum()))


def _level_verdict(name: str, panel, c: float, endpoint: float, tol: float,
                   max_levels: int) -> IntegralVerdict:
    """Feed panel(lo, hi) over the panels marching from c toward `endpoint`
    to the shared Finite/Divergent level rules."""
    acc = LevelAccumulator(tol)
    for lvl, (lo, hi) in enumerate(_side_levels(c, endpoint), start=1):
        if lvl > max_levels:
            raise IndeterminateIntegralError(
                f"integral {name} toward {endpoint} undecided after "
                f"{max_levels} levels (partial sum {acc.total:.4g})")
        verdict = acc.add(panel(lo, hi))
        if verdict == "divergent":
            rule = ("threshold" if abs(acc.total) > DIVERGENCE_THRESHOLD
                    else "trend")
            return IntegralVerdict(name=name, verdict="divergent", value=None,
                                   levels=lvl, rule=rule)
        if verdict == "finite":
            return IntegralVerdict(name=name, verdict="finite",
                                   value=acc.total, levels=lvl)


def tail_integral(logf, c: float, endpoint: float, tol: float = 1e-9,
                  max_levels: int = 120,
                  name: Optional[str] = None) -> IntegralVerdict:
    """Verdict for the integral of exp(logf) between c and `endpoint`
    (singular or infinite), with logf a vectorized log-integrand.  Each
    level's panel is integrated in log space, so exp(logf) is never formed
    where it would overflow.  The name defaults to the side, "lower" or
    "upper"."""
    if name is None:
        name = "lower" if endpoint < c else "upper"
    return _level_verdict(
        name, lambda lo, hi: math.exp(min(_log_integral(logf, lo, hi),
                                          _LOG_CLIP)),
        c, endpoint, tol, max_levels)


def improper_integral(logf, a: float, b: float, tol: float = 1e-9,
                      split: Optional[float] = None) -> IntegralVerdict:
    """Integrate exp(logf) over the open interval (a, b); endpoints may be
    singular or infinite.  The sum of the two tail integrals from the split
    point: a Finite value, the Divergent verdict of the first side that
    diverges, or IndeterminateIntegralError."""
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    if split is None:
        if math.isinf(a) and math.isinf(b):
            split = 0.0
        elif math.isinf(b):
            split = a + max(1.0, abs(a))
        elif math.isinf(a):
            split = b - max(1.0, abs(b))
        else:
            split = 0.5 * (a + b)
    if not (a < split < b):
        raise ValueError("split point must be interior")
    sides = []
    for endpoint in (a, b):
        side = tail_integral(logf, split, endpoint, tol, _IMPROPER_MAX_LEVELS)
        if not side.finite:
            return side
        sides.append(side)
    return IntegralVerdict(name="improper_integral", verdict="finite",
                           value=sides[0].value + sides[1].value,
                           levels=max(s.levels for s in sides))


# ---------------------------------------------------------------------------
# Richardson extrapolation, least-squares line
# ---------------------------------------------------------------------------

def _richardson(values, weights) -> tuple:
    """One Richardson step for levels v_i = v + c / w_i + ..., weights
    increasing: w = T^2 across a truncation ladder, w = (1, 4) for a coarse
    and a fine mesh (h and h/2 at second order).

    values[i] is the level-i estimate, a scalar or an array (then the step is
    elementwise).  The pairwise extrapolants are
    (v_{i+1} w_{i+1} - v_i w_i) / (w_{i+1} - w_i) and the last one is the
    estimate.  The error is the difference of the last two extrapolants; with
    two levels it is |v_-1 - v_-2| / (w_-1 / w_-2 - 1), the distance from the
    estimate to the last level.  Returns (estimate, error)."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float).reshape((-1,) + (1,) * (v.ndim - 1))
    extr = (v[1:] * w[1:] - v[:-1] * w[:-1]) / (w[1:] - w[:-1])
    if len(extr) >= 2:
        return extr[-1], np.abs(extr[-1] - extr[-2])
    return extr[-1], np.abs(v[-1] - v[-2]) / (w[-1] / w[-2] - 1.0)


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares (slope, intercept) from centred sums, without LAPACK."""
    xm, ym = float(np.mean(x)), float(np.mean(y))
    dx = x - xm
    slope = float(np.sum(dx * (y - ym)) / np.sum(dx * dx))
    return slope, ym - slope * xm


# ---------------------------------------------------------------------------
# panel Gauss-Legendre (vectorized), tabulated antiderivative
# ---------------------------------------------------------------------------

_GL_CACHE: dict = {}
# knot spacing of TabulatedAntiderivative, relative to max(1, |x|)
_ANTIDERIVATIVE_H = 0.02
# Newton steps of TabulatedAntiderivative.inverse: about three reach 1e-14
# relative from the interpolated start; the cap bounds rounding-limited ones.
INVERSE_NEWTON_STEPS = 8


def _gl_nodes(n: int):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


def _gauss(f, lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """n-point Gauss-Legendre integrals of f over the panels [lo_i, hi_i],
    with one call of f."""
    x, w = _gl_nodes(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    # summed node by node in a fixed order, so no BLAS kernel picks the bits
    return half * sum(vals[:, j] * w[j] for j in range(n))


def gauss_panels(f, breakpoints: np.ndarray, n: int = 16) -> np.ndarray:
    """Vectorized per-panel Gauss-Legendre integrals between consecutive
    breakpoints; returns the array of panel values."""
    return _gauss(f, breakpoints[:-1], breakpoints[1:], n)


def cumulative_parabolic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples (x, y) using local parabolic fits
    (exact for quadratics; O(h^4) per panel on smooth data, which matters on
    the strongly graded grids used near singular endpoints where the
    trapezoid rule loses three digits).

    Each panel [x_i, x_{i+1}] integrates the Lagrange parabola through a
    bracketing node triple, averaging the two available triples for interior
    panels; the quadrature is formed in panel-centered coordinates, where the
    basis integrals collapse to (w^3/12 + b*c*w) / ((a-b)(a-c)) and stay
    stable on strongly graded grids.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    out = np.zeros(n)
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * (y[0] + y[1]) * (x[1] - x[0])
        return out
    w = x[1:] - x[:-1]
    mid = 0.5 * (x[1:] + x[:-1])

    def _tri(ip, iq, ir, mloc, wloc):
        a = x[ip] - mloc
        b = x[iq] - mloc
        c = x[ir] - mloc
        t = wloc ** 3 / 12.0
        return (y[ip] * (t + b * c * wloc) / ((a - b) * (a - c))
                + y[iq] * (t + a * c * wloc) / ((b - a) * (b - c))
                + y[ir] * (t + a * b * wloc) / ((c - a) * (c - b)))

    idx = np.arange(n - 1)
    # panels 1..n-2 through their left-anchored triple (i-1, i, i+1)
    pa = _tri(idx[1:] - 1, idx[1:], idx[1:] + 1, mid[1:], w[1:])
    # panels 0..n-3 through their right-anchored triple (i, i+1, i+2)
    pb = _tri(idx[:-1], idx[:-1] + 1, idx[:-1] + 2, mid[:-1], w[:-1])
    panels = np.empty(n - 1)
    panels[0] = pb[0]
    panels[-1] = pa[-1]
    if n > 3:
        panels[1:-1] = 0.5 * (pa[:-1] + pb[1:])
    out[1:] = np.cumsum(panels)
    return out


class TabulatedAntiderivative:
    """F(x) = int_{x0}^x f on a lazily grown knot table, and its inverse.

    The knots lie on one lattice fixed by ``(x0, domain)``, approaching a
    finite end geometrically (which resolves 1/x-type endpoint
    singularities), so F and F^{-1} do not depend on the order of queries.
    An array query costs one Gauss panel from each point's bracketing knot,
    machine-accurate for smooth integrands with one call of ``f`` per batch.
    For f > 0, :meth:`inverse` solves F(x) = r for a whole array of r.
    """

    def __init__(self, f: Callable, x0: float, domain=(-np.inf, np.inf)):
        self.f = f
        self.x0 = float(x0)
        self.domain = (float(domain[0]), float(domain[1]))
        self._knots = np.array([self.x0])
        self._vals = np.array([0.0])

    def _grow(self, stop: float) -> int:
        """Extend the table toward ``stop``, up to the first lattice knot at
        or past it or to the rounding floor at a finite end; returns the
        number of knots added.  Each step depends on the current knot alone,
        so extending never moves a knot or a value the table holds."""
        up = stop > self._knots[-1]
        if not (up or stop < self._knots[0]):
            return 0
        end = -1 if up else 0
        bound = self.domain[1] if up else self.domain[0]
        x = float(self._knots[end])
        edges = [x]
        while (x < stop) if up else (x > stop):
            if len(edges) > 200000:
                raise QsdlabError("antiderivative knot march failed to reach "
                                  f"{stop!r} from {edges[0]!r}")
            # geometric approach to a finite endpoint
            h = min(_ANTIDERIVATIVE_H * max(1.0, abs(x)), 0.25 * abs(bound - x))
            nxt = x + h if up else x - h
            if nxt == x:
                break
            x = nxt
            edges.append(x)
        if len(edges) == 1:
            return 0
        edges = np.array(edges)
        vals = np.cumsum(np.concatenate(
            ([self._vals[end]], _gauss(self.f, edges[:-1], edges[1:], 8))))[1:]
        if up:
            self._knots = np.concatenate((self._knots, edges[1:]))
            self._vals = np.concatenate((self._vals, vals))
        else:
            self._knots = np.concatenate((edges[:0:-1], self._knots))
            self._vals = np.concatenate((vals[::-1], self._vals))
        return len(edges) - 1

    def __call__(self, x):
        scalar = np.isscalar(x)
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        if len(xa) == 0:
            return xa
        if not np.all(np.isfinite(xa)):
            raise ValueError("antiderivative queried at a non-finite point")
        self._grow(float(xa.max()))
        self._grow(float(xa.min()))
        idx = np.clip(np.searchsorted(self._knots, xa, side="right") - 1,
                      0, len(self._knots) - 1)
        out = self._vals[idx] + _gauss(self.f, self._knots[idx], xa, 8)
        return float(out[0]) if scalar else out

    def _widen(self, up: bool):
        """One step of the inverse's bracket search: push one end of the
        table toward the domain end, doubling its distance from x0 toward an
        infinite end and halving the gap to a finite one."""
        x = float(self._knots[-1] if up else self._knots[0])
        end = self.domain[1] if up else self.domain[0]
        if math.isinf(end):
            d = max(1.0, abs(self.x0), abs(x - self.x0))
            nxt = x + d if up else x - d
        else:
            nxt = 0.5 * (x + end)
        if not math.isfinite(nxt) or self._grow(nxt) == 0:
            raise QsdlabError(
                f"antiderivative inverse: the value sought lies beyond "
                f"F({end!r}) = {float(self._vals[-1 if up else 0]):.6g}")

    def inverse(self, r):
        """x with F(x) = r, elementwise, for f > 0; a scalar r gives a float.

        One bracket search for the whole batch grows the table until its
        values span [min r, max r].  Each point starts from linear
        interpolation in the table and takes Newton steps with F' = f, kept
        inside its bracketing knot interval, until its own step is below
        1e-14 |x| or INVERSE_NEWTON_STEPS steps are taken.  So a point gets
        the same bits alone as in any batch, and f is called a number of
        times that does not grow with the number of points."""
        scalar = np.isscalar(r)
        ra = np.asarray(r, dtype=float).ravel()
        if len(ra) == 0:
            return ra.reshape(np.shape(r))
        if not np.all(np.isfinite(ra)):
            raise ValueError("antiderivative inverse at a non-finite value")
        while not self._vals[-1] >= ra.max():
            self._widen(up=True)
        while not self._vals[0] <= ra.min():
            self._widen(up=False)
        knots, vals = self._knots, self._vals
        i = np.clip(np.searchsorted(vals, ra) - 1, 0, len(knots) - 2)
        lo, hi = knots[i], knots[i + 1]
        x = np.interp(ra, vals, knots)
        live = np.arange(len(ra))
        for _ in range(INVERSE_NEWTON_STEPS):
            xl = x[live]
            step = (self(xl) - ra[live]) / np.asarray(self.f(xl), dtype=float)
            x[live] = xl = np.clip(xl - step, lo[live], hi[live])
            live = live[~(np.abs(step) <= 1e-14 * np.abs(xl))]
            if len(live) == 0:
                break
        return float(x[0]) if scalar else x.reshape(np.shape(r))


# ---------------------------------------------------------------------------
# Sturm-Liouville phase system
# ---------------------------------------------------------------------------

@dataclass
class OdeTrajectory:
    """Samples of the phase pair (u, rho*u') on a strictly increasing grid.

    Stored values are rescaled chunk-wise by positive constants when the
    solution's dynamic range would overflow doubles; log_scale records the
    per-point log of the applied factor, so the true pair at grid[i] is
    values[i] * exp(log_scale[i]).  Sign information, zero counts and
    root locations are unaffected by the positive rescaling.
    """
    grid: np.ndarray
    values: np.ndarray          # shape (n, 2)
    log_scale: np.ndarray
    final: tuple                # (u, rho*u') where the integration ends (rescaled)
    final_log_scale: float

    def __post_init__(self):
        d = np.diff(self.grid)
        if len(d) and not np.all(d > 0):
            raise ValueError("trajectory grid must be strictly increasing")

    @property
    def u(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def w(self) -> np.ndarray:
        return self.values[:, 1]

    def sign_changes(self) -> int:
        v = self.values[:, 0]
        v = v[v != 0.0]
        return int(np.sum(v[1:] * v[:-1] < 0))


# Per-cell bound on |change of log rho| and on sqrt(2|lam - kappa|) * h.
# 0.05 already misses a 1e-9 relative QSD normalization, so keep it small.
MAGNUS_CELL_BOUND = 0.02
# The output grid is SL_CHUNKS linspace chunks; between chunks the state is
# divided by its largest entry once that entry passes SL_RESCALE_AT.
SL_CHUNKS = 32
SL_RESCALE_AT = 1e100
# Cells, identity padding included, composed in one scan.  A shot of a few
# thousand cells is one scan; beyond this, runs of chunks are scanned in
# turn, so memory stays bounded and an overflow still stops the shot before
# the cells of later chunks are built.
SL_SCAN_CELLS = 1 << 16
# Cells one shot may build, about 9x the widest shot the tests freeze (3494
# cells per chunk at lam = 1e5 on (1, 6)); past it the shot is refused
# before the cells of the offending run are built, so memory stays bounded.
SL_MAX_CELLS = 1 << 20
# Cells whose lam-free samples (about 56 bytes a cell) one `lam_free` dict of
# integrate_sl_system keeps; the cells of later layouts are not kept.
SL_KEPT_CELLS = 1 << 16
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def _pilot(scale_speed, kappa, segs: np.ndarray) -> tuple:
    """The lam-free part of `_cell_counts` for the chunks `segs` (one row
    per chunk): twice the larger change of log rho over the two halves of
    each sample interval, and kappa at the interval ends and midpoints (0.0
    for no killing)."""
    pilot = np.empty((segs.shape[0], 2 * segs.shape[1] - 1))
    pilot[:, 0::2] = segs
    pilot[:, 1::2] = 0.5 * (segs[:, :-1] + segs[:, 1:])
    log_rho = scale_speed.log_speed(pilot.ravel()).reshape(pilot.shape)
    halves = np.abs(np.diff(log_rho, axis=1))
    swing = 2.0 * np.maximum(halves[:, 0::2], halves[:, 1::2])
    kap = (kappa(pilot.ravel()).reshape(pilot.shape) if kappa is not None
           else 0.0)
    return swing, kap


def _cell_counts(pilot: tuple, lam: float, segs: np.ndarray) -> np.ndarray:
    """Cells per sample interval of the chunks `segs`, enough to keep both
    bounded quantities at or below MAGNUS_CELL_BOUND, from `_pilot`'s value
    for `segs`.

    The change of log rho is estimated as twice the larger of its changes
    over the two halves of the interval, |lam - kappa| by its largest value
    at the ends and the midpoint."""
    swing, kap = pilot
    gap = np.broadcast_to(np.abs(lam - kap),
                          (segs.shape[0], 2 * segs.shape[1] - 1))
    gap = np.maximum(np.maximum(gap[:, :-1:2], gap[:, 1::2]), gap[:, 2::2])
    turn = np.sqrt(2.0 * gap) * np.abs(np.diff(segs, axis=1))
    cells = np.maximum(swing, turn) / MAGNUS_CELL_BOUND
    if not np.all(np.isfinite(cells)):
        bad = np.flatnonzero(~np.isfinite(cells))[0]
        x_bad = float(segs[:, :-1].ravel()[bad])
        raise StepUnderflowError(
            f"integration failed near x = {x_bad:.6g}: non-finite speed "
            f"density or killing rate", last_point=x_bad)
    return np.maximum(1, np.ceil(cells)).astype(np.int64)


def _cell_samples(scale_speed, kappa, segs: np.ndarray,
                  n_cells: np.ndarray) -> tuple:
    """The lam-free part of the cells of the chunks `segs`: (h, rho, 1/rho,
    kappa), the width of every cell and the coefficients at its two Gauss
    nodes (all first nodes, then all second nodes; kappa 0.0 for no
    killing).  Interval k of the flattened rows owns n_cells.flat[k] equal
    cells starting at segs[:, :-1].flat[k]."""
    counts = n_cells.ravel()
    ends = np.cumsum(counts)
    owner = np.repeat(np.arange(len(counts)), counts)
    h = (np.diff(segs, axis=1).ravel() / counts)[owner]
    left = (segs[:, :-1].ravel()[owner]
            + (np.arange(ends[-1]) - (ends - counts)[owner]) * h)
    nodes = np.concatenate([left + g * h for g in _GAUSS_NODES])
    return (h, scale_speed.speed_density(nodes),
            scale_speed.scale_density(nodes),
            kappa(nodes) if kappa is not None else 0.0)


def _magnus_cells(lam: float, h: np.ndarray, rho: np.ndarray,
                  inv_rho: np.ndarray, kap) -> tuple:
    """Fourth-order Magnus maps of cells of widths h, from `_cell_samples`'
    values for them, as their four component arrays (m00, m01, m10, m11),
    each of shape (n,).

    With A = [[0, b], [c, 0]], b = 1/rho and c = -2(lam - kappa) rho sampled
    at the two Gauss points, Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1]
    = [[p, q], [r, -p]].  Omega^2 = (p^2 + qr) I, so exp(Omega) = C I + S
    Omega with C, S = cosh s, sinh(s)/s (or cos s, sin(s)/s) of
    s = sqrt|p^2 + qr|, and det exp(Omega) = C^2 - S^2 (p^2 + qr) = 1.
    """
    c = -2.0 * (lam - kap) * rho
    n = len(h)
    b1, b2, c1, c2 = inv_rho[:n], inv_rho[n:], c[:n], c[n:]
    p = (math.sqrt(3.0) / 12.0) * h * h * (b2 * c1 - b1 * c2)
    q = 0.5 * h * (b1 + b2)
    r = 0.5 * h * (c1 + c2)
    d = p * p + q * r
    s = np.sqrt(np.abs(d))
    hyper = d >= 0.0
    tiny = s < 1e-4
    cos_part = np.where(hyper, np.cosh(s), np.cos(s))
    # series 1 + d/6 + O(d^2) where sinh(s)/s or sin(s)/s would divide by ~0
    sin_part = np.where(tiny, 1.0 + d / 6.0,
                        np.where(hyper, np.sinh(s), np.sin(s))
                        / np.where(tiny, 1.0, s))
    return (cos_part + sin_part * p, sin_part * q, sin_part * r,
            cos_part - sin_part * p)


def _chunk_maps(lam: float, n_cells: np.ndarray, cells: tuple) -> np.ndarray:
    """Transfer maps from the start of each chunk (row of `n_cells`) to its
    sample points, shape (rows, samples - 1, 4), the last axis holding the
    components (m00, m01, m10, m11), from `_cell_samples`' value for the
    chunks.

    All cells are evaluated in one array call and composed by one
    Hillis-Steele scan over a stack with one row per chunk, padded with
    identity maps after the chunk's real cells; the padding comes after every
    real cell, so each real prefix is formed from the same products in the
    same order as a scan of its chunk alone.  The stack is held as four
    component arrays, and each 2x2 product is written out as eight multiplies
    and four adds on them: no BLAS call runs, so the bits do not depend on
    the host's OpenBLAS kernel."""
    chunk_ends = np.cumsum(n_cells, axis=1)
    real = np.arange(chunk_ends[:, -1].max()) < chunk_ends[:, -1:]
    prefix = np.zeros((4,) + real.shape)
    prefix[0] = prefix[3] = 1.0
    prefix[:, real] = _magnus_cells(lam, *cells)
    # prefix[:, i, j] maps the start of chunk i to the right end of its cell j
    shift = 1
    while shift < real.shape[1]:
        l00, l01, l10, l11 = prefix[:, :, shift:]
        e00, e01, e10, e11 = prefix[:, :, :-shift]
        l00[...], l01[...], l10[...], l11[...] = (
            l00 * e00 + l01 * e10, l00 * e01 + l01 * e11,
            l10 * e00 + l11 * e10, l10 * e01 + l11 * e11)
        shift *= 2
    return prefix.transpose(1, 2, 0)[np.arange(len(n_cells))[:, None],
                                     chunk_ends - 1]


def integrate_sl_system(kappa, scale_speed, lam: float, x_from: float,
                        x_to: float, init: Sequence[float],
                        n_samples: int = 400,
                        lam_free: Optional[dict] = None) -> OdeTrajectory:
    """Integrate u' = w/rho, w' = -2(lam - kappa)*rho*u from x_from to
    x_to > x_from.

    `kappa` is the killing rate (None for none).  `scale_speed` is the
    unit-diffusion model, read for rho (speed_density), 1/rho
    (scale_density) and log rho (log_speed).
    The output grid is SL_CHUNKS linspace chunks of n_samples // SL_CHUNKS + 1
    points.  Each sample interval is split into equal cells, as many as it
    takes to keep both the change of log rho and sqrt(2|lam - kappa|) * h at
    or below MAGNUS_CELL_BOUND per cell.  Each cell is advanced by the
    two-point Gauss 4th-order Magnus map.  The system matrix is traceless, so
    every cell map is a closed-form exponential of determinant 1, and the
    Wronskian of two solutions is conserved to rounding.  The cells are
    evaluated in one array call and composed by one segmented prefix scan
    (`_chunk_maps`) per run of chunks whose padded stack fits SL_SCAN_CELLS,
    which is the whole shot unless the cells run into the hundred
    thousands; only the chunk-start states are carried from chunk to chunk,
    as two Python floats through each chunk's end map, and then every sample
    of the run is written in one array pass.  The maps are kept as component
    arrays and multiplied out entry by entry, so the continuation makes no
    BLAS call and its bits do not depend on the OpenBLAS kernel the host
    dispatches.  A shot that
    would build more than SL_MAX_CELLS cells raises QsdlabError, naming the
    chunk, before that chunk's cells are built.

    The state is renormalized by a positive factor between chunks whenever
    it grows past SL_RESCALE_AT, so eigenvalue miss functions keep valid signs
    even when the non-decaying mode grows like exp(several hundred).

    Only c = -2(lam - kappa) rho depends on lam.  A caller that integrates
    one model and kappa at many lam passes one `lam_free` dict to every
    call; it keeps the pilot log rho of the cell grading per (x_from, x_to,
    n_samples) and rho, 1/rho and kappa at the Gauss nodes per cell layout
    (up to SL_KEPT_CELLS cells in all, counted under the key "kept cells"),
    so a later call with the same interval and layout evaluates no
    coefficient.  The products are the same, so are the bits.
    """
    if not x_to > x_from:
        raise QsdlabError(f"integrate_sl_system integrates forward only: "
                          f"x_to = {x_to!r} is not past x_from = {x_from!r}")
    lam = float(lam)
    edges = np.linspace(x_from, x_to, SL_CHUNKS + 1)
    per_chunk = max(2, n_samples // SL_CHUNKS + 1)
    segs = np.linspace(edges[:-1], edges[1:], per_chunk, axis=1)
    if lam_free is None:
        lam_free = {}
    key = (x_from, x_to, per_chunk)
    if key not in lam_free:
        lam_free[key] = _pilot(scale_speed, kappa, segs)
    n_cells = _cell_counts(lam_free[key], lam, segs)
    # the cells of each run of chunks, keyed by the run's first chunk
    runs = lam_free.setdefault(key + (n_cells.tobytes(),), {})
    chunk_cells = n_cells.sum(axis=1).tolist()
    running = np.cumsum(chunk_cells)
    vals = np.empty((SL_CHUNKS, per_chunk, 2))
    logs = np.empty(SL_CHUNKS)
    s0, s1 = (float(v) for v in init)
    log_scale = 0.0
    start = 0
    while start < SL_CHUNKS:
        # the longest run of chunks (one at least) whose padded stack fits
        # SL_SCAN_CELLS
        stop, widest = start + 1, chunk_cells[start]
        while stop < SL_CHUNKS:
            widest = max(widest, chunk_cells[stop])
            if (stop + 1 - start) * widest > SL_SCAN_CELLS:
                break
            stop += 1
        if running[stop - 1] > SL_MAX_CELLS:
            i = int(np.argmax(running > SL_MAX_CELLS))
            raise QsdlabError(
                f"integration needs {chunk_cells[i]} Magnus cells in chunk "
                f"{i + 1} of {SL_CHUNKS} (x = {segs[i, 0]:.6g} to "
                f"{segs[i, -1]:.6g}), {running[i]} in all so far, past "
                f"SL_MAX_CELLS = {SL_MAX_CELLS} per shot")
        cells = runs.get(start)
        if cells is None:
            cells = _cell_samples(scale_speed, kappa, segs[start:stop],
                                  n_cells[start:stop])
            kept = lam_free.get("kept cells", 0) + len(cells[0])
            if kept <= SL_KEPT_CELLS:
                runs[start], lam_free["kept cells"] = cells, kept
        # overflow surfaces as a non-finite state and is raised below
        with np.errstate(over="ignore", invalid="ignore"):
            maps = _chunk_maps(lam, n_cells[start:stop], cells)
            # the chunk-start states are sequential: each is the previous
            # chunk's end, divided by its largest entry past SL_RESCALE_AT
            heads = []
            for m00, m01, m10, m11 in maps[:, -1].tolist():
                heads.append((s0, s1, log_scale))
                s0, s1 = m00 * s0 + m01 * s1, m10 * s0 + m11 * s1
                peak = max(abs(s0), abs(s1))
                if peak > SL_RESCALE_AT:
                    s0, s1 = s0 / peak, s1 / peak
                    log_scale += math.log(peak)
            heads = np.array(heads)
            vals[start:stop, 0] = heads[:, :2]
            vals[start:stop, 1:] = (maps[..., 0::2] * heads[:, None, 0:1]
                                    + maps[..., 1::2] * heads[:, None, 1:2])
            logs[start:stop] = heads[:, 2]
        finite = np.all(np.isfinite(vals[start:stop]), axis=2)
        if not np.all(finite):
            i, last = divmod(int(np.argmin(finite)), per_chunk)
            i, last = start + i, last - 1
            raise StepUnderflowError(
                f"integration failed near x = {segs[i, last]:.6g}: state "
                f"overflowed", last_point=float(segs[i, last]),
                last_state=tuple(vals[i, last]))
        start = stop

    # chunk i > 0 starts where chunk i - 1 ends: keep that sample once
    grid = np.concatenate((segs[0, :1], segs[:, 1:].ravel()))
    values = np.concatenate((vals[0, :1], vals[:, 1:].reshape(-1, 2)))
    lscale = np.concatenate((logs[:1], np.repeat(logs, per_chunk - 1)))
    return OdeTrajectory(grid=grid, values=values, log_scale=lscale,
                         final=(s0, s1), final_log_scale=log_scale)


# the smallest relative tolerance scipy's brentq admits
_BRENT_RTOL = 4 * np.finfo(float).eps


def _eval_root_fn(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise QsdlabError(f"root finding: f is NaN at x = {x!r}")
    return fx


def _zeroin(f, xpre: float, xcur: float, fpre: float, fcur: float,
            xtol: float, maxiter: int) -> float:
    """Brent's zeroin, step for step as in scipy's brentq.c: keep a
    sign-change bracket [xcur, xblk] with xcur the better end; take the
    secant (interpolate) or inverse quadratic (extrapolate) step when it is
    short enough, else bisect; never step less than the tolerance delta."""
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry   # good short step
            else:
                spre = scur = sbis        # bisect
        else:
            spre = scur = sbis            # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _eval_root_fn(f, xcur)
    raise QsdlabError(f"root finding did not converge in {maxiter} "
                      f"iterations; last x = {xcur!r}")


def brent_root(f: Callable[[float], float], bracket: tuple, tol: float = 1e-12,
               maxiter: int = 200) -> float:
    """Root of f in the bracket by Brent's zeroin (Brent 1973, ch. 4).

    A port of scipy's `brentq.c` (same steps, `delta = (tol + rtol*|x|)/2`
    with rtol = 4 eps, same `maxiter`) that starts from the endpoint values
    computed here, so f is called once per point.  Raises BracketError when
    f does not change sign on the bracket, and QsdlabError naming x when f
    is NaN or the iteration does not converge within `maxiter`."""
    lo, hi = float(bracket[0]), float(bracket[1])
    flo, fhi = _eval_root_fn(f, lo), _eval_root_fn(f, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketError(
            f"no sign change on [{lo:.8g}, {hi:.8g}]: f = ({flo:.3g}, {fhi:.3g})")
    return _zeroin(f, lo, hi, flo, fhi, tol, maxiter)


# ---------------------------------------------------------------------------
# lowest eigenpairs of a symmetric tridiagonal matrix
# ---------------------------------------------------------------------------

# pivots smaller than this times ||T|| are replaced by minus that, LAPACK's
# rule with a threshold far enough above underflow that the reduction's
# quotients stay finite; the bracket of a zero mode stops at this width too
_TRI_PIVMIN = 2.0 ** -100
# a bracket is done at this relative width (a few ulp)
_TRI_RTOL = 4 * np.finfo(float).eps
# test points per bracket and round (multisection)
_TRI_POINTS = 3
_TRI_MAX_ROUNDS = 200
# inverse-iteration solves per eigenvector
_TRI_SOLVES = 3
# eigenvalues closer than this relative gap form a cluster whose vectors are
# re-orthogonalized (LAPACK's dstein does so for its clusters)
_TRI_CLUSTER_GAP = 1e-3


def _odd_even(a: np.ndarray, c: np.ndarray, pivmin: float,
              r: Optional[np.ndarray] = None):
    """Odd-even (cyclic) reduction of the tridiagonal matrices with
    diagonals a[s] (one row per shift s) and off-diagonal c, and of the
    right-hand sides r[s] when given.

    Each level eliminates the even-numbered unknowns, whose block is
    diagonal, and leaves the Schur complement on the odd ones, which is
    tridiagonal again.  Yields (pivots, off-diagonal, even right-hand sides)
    per level, about log2 n levels.  By Sylvester's law the pivots have the
    inertia of the matrix; a pivot smaller than pivmin in magnitude is
    replaced by -pivmin, which perturbs one diagonal entry of the original
    matrix by at most 2 pivmin."""
    while True:
        ae = a[:, 0::2]
        ae = np.where(np.abs(ae) < pivmin, -pivmin, ae)
        re = None if r is None else r[:, 0::2]
        yield ae, c, re
        m = a.shape[1] // 2
        if m == 0:
            return
        # odd i couples to even i through c[2i] and to even i + 1 through
        # c[2i + 1], which the last odd lacks when the size is even
        cl, cr = c[..., 0::2], c[..., 1::2]
        j = cr.shape[-1]
        gl = cl / ae[:, :m]
        gr = cr / ae[:, 1:j + 1]
        a = a[:, 1::2] - gl * cl
        a[:, :j] -= gr * cr
        c = -gr[:, :m - 1] * c[..., 2::2]
        if r is not None:
            r = r[:, 1::2] - gl * re[:, :m]
            r[:, :j] -= gr * re[:, 1:j + 1]


def _sturm_counts(d: np.ndarray, c: np.ndarray, shifts: np.ndarray,
                  pivmin: float) -> np.ndarray:
    """Number of eigenvalues of T below each shift: the negative pivots of
    T - s I."""
    a = d[None, :] - shifts[:, None]
    # every unknown is eliminated once, so the pivots of all levels fill an
    # array of the matrix's shape
    negative = np.empty(a.shape, dtype=bool)
    at = 0
    for ae, _, _ in _odd_even(a, c, pivmin):
        np.less(ae, 0.0, out=negative[:, at:at + ae.shape[1]])
        at += ae.shape[1]
    return np.count_nonzero(negative, axis=1)


def _tridiagonal_solve(d: np.ndarray, c: np.ndarray, shifts: np.ndarray,
                       rhs: np.ndarray, pivmin: float) -> np.ndarray:
    """Solve (T - shifts[s] I) x[s] = rhs[s] for every row s by odd-even
    reduction and back substitution."""
    levels = list(_odd_even(d[None, :] - shifts[:, None], c, pivmin, rhs))
    x = np.empty((len(shifts), 0))
    for ae, off, re in reversed(levels):
        # x holds this level's odd unknowns; even i couples to odd i
        # through off[2i] and to odd i - 1 through off[2i - 1]
        m = x.shape[1]
        num = re.copy()
        num[:, :m] -= off[..., 0::2] * x
        j = off[..., 1::2].shape[-1]
        num[:, 1:j + 1] -= off[..., 1::2] * x[:, :j]
        full = np.empty((len(shifts), ae.shape[1] + m))
        full[:, 0::2] = num / ae
        full[:, 1::2] = x
        x = full
    return x


def _start_vectors(K: int, n: int) -> np.ndarray:
    """K fixed start vectors in [1, 2)^n for inverse iteration: a
    splitmix64 hash of the entry index, so every call starts alike."""
    z = np.arange(1, K * n + 1, dtype=np.uint64).reshape(K, n)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return 1.0 + (z >> np.uint64(11)).astype(float) * 2.0 ** -53


def _section_points(lo: np.ndarray, hi: np.ndarray, floor: float) -> np.ndarray:
    """Interior test points of each bracket: equally spaced once the bracket
    is narrow against its distance from 0, else equally spaced in
    asinh(x / floor), so that a bracket spanning many orders of magnitude
    (or reaching down to a zero mode) shrinks by orders of magnitude."""
    frac = np.arange(1, _TRI_POINTS + 1) / (_TRI_POINTS + 1)
    lin = lo[:, None] + (hi - lo)[:, None] * frac
    tl, th = np.arcsinh(lo / floor), np.arcsinh(hi / floor)
    geo = floor * np.sinh(tl[:, None] + (th - tl)[:, None] * frac)
    narrow = hi - lo < 0.5 * np.minimum(np.abs(lo), np.abs(hi))
    return np.where(narrow[:, None], lin, geo)


def tridiagonal_lowest(diag, off, K: int) -> tuple:
    """The K lowest eigenpairs of the symmetric tridiagonal matrix T with
    diagonal `diag` and off-diagonal `off`, in ascending order.  Returns
    (vals, vecs) with unit eigenvectors as the columns of vecs; each
    vector's sign is left to the caller.

    Eigenvalues: bisection on the Sturm count (Barth, Martin & Wilkinson
    1967), with the count from odd-even reduction batched over every test
    point of a round, three points per bracket.  A bracket is done at a
    relative width of 4 eps, or at width 2^-100 ||T|| near a zero mode.
    Eigenvectors: three inverse-iteration solves by the same reduction from
    fixed start vectors, re-orthogonalized within clusters of relative gap
    below 1e-3.  The output is bitwise reproducible."""
    d = np.asarray(diag, dtype=float)
    c = np.asarray(off, dtype=float)
    n = len(d)
    if d.ndim != 1 or c.shape != (n - 1,) or not 1 <= K <= n:
        raise QsdlabError(f"tridiagonal_lowest needs n diagonal and n - 1 "
                          f"off-diagonal entries and 1 <= K <= n; got "
                          f"{d.shape}, {c.shape}, K = {K}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(c))):
        raise QsdlabError("tridiagonal_lowest: non-finite matrix entry")
    rad = np.zeros(n)
    rad[:-1] += np.abs(c)
    rad[1:] += np.abs(c)
    gl, gu = float(np.min(d - rad)), float(np.max(d + rad))
    tnorm = max(abs(gl), abs(gu))
    if tnorm == 0.0:
        return np.zeros(K), np.eye(n)[:, :K]
    pivmin = _TRI_PIVMIN * tnorm
    slack = 2 * n * np.finfo(float).eps * tnorm + 2 * pivmin
    lo, hi = np.full(K, gl - slack), np.full(K, gu + slack)
    ks = np.arange(K)[:, None]
    for _ in range(_TRI_MAX_ROUNDS):
        live = hi - lo > np.maximum(
            _TRI_RTOL * np.maximum(np.abs(lo), np.abs(hi)), pivmin)
        if not live.any():
            break
        s = _sorted_unique(_section_points(lo[live], hi[live], pivmin))
        below = _sturm_counts(d, c, s, pivmin)[None, :] <= ks
        lo = np.maximum(lo, np.max(np.where(below, s, -np.inf), axis=1))
        hi = np.minimum(hi, np.min(np.where(below, np.inf, s), axis=1))
    else:
        raise QsdlabError("tridiagonal bisection did not converge")
    vals = 0.5 * (lo + hi)

    # equal shifts would give equal vectors: part them as dstein does
    shifts = vals.copy()
    for k in range(1, K):
        sep = 10 * np.finfo(float).eps * abs(shifts[k]) + pivmin
        shifts[k] = max(shifts[k], shifts[k - 1] + sep)
    # first[k]: the first eigenvalue of k's cluster
    first = list(range(K))
    for k in range(1, K):
        if vals[k] - vals[k - 1] < _TRI_CLUSTER_GAP * max(abs(vals[k]),
                                                          abs(vals[k - 1])):
            first[k] = first[k - 1]
    x = _start_vectors(K, n)
    for _ in range(_TRI_SOLVES):
        x /= np.linalg.norm(x, axis=1)[:, None]
        x = _tridiagonal_solve(d, c, shifts, x, pivmin)
        for k in range(1, K):
            for j in range(first[k], k):
                # fsum, not a BLAS dot: the bits do not depend on the kernel
                x[k] -= math.fsum(x[k] * x[j]) / math.fsum(x[j] * x[j]) * x[j]
    x /= np.linalg.norm(x, axis=1)[:, None]
    return vals, x.T
