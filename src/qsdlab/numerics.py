"""Shared numerical kernels.

Improper/singular quadrature with explicit divergence certification, cached
antiderivatives, the first-order phase system (u, rho*u') for the
Sturm-Liouville generator, and bracketed root finding.

The phase system is propagated by two-point Gauss 4th-order Magnus cell maps
(Iserles & Norsett 1999).  Its matrix is traceless, so each cell map is a
closed-form 2x2 exponential of determinant 1; the cells of a chunk are
evaluated in array calls and composed by a prefix scan.

Verdict logic for improper integrals is centralized in LevelAccumulator so
that every caller (including the boundary-classification integrals, which use
their own log-space inner quadrature) shares identical Finite/Divergent rules:

* Finite: two consecutive refinement levels contribute less than
  tol*(1+|S|)/8 each.
* Divergent, threshold rule: |S| exceeds the divergence threshold (default
  1e12) while still increasing across the last 3 levels.
* Divergent, trend rule: increments keep a fixed sign and stop decaying
  (level-to-level ratio >= 0.999 over the last 4 of >= 8 levels).  Constant
  positive increments integrate to +infinity, so the partial sums provably
  cross any threshold; this certifies logarithmic divergence, which gains only
  ~0.69 per refinement level and would otherwise never hit 1e12.
* Otherwise, after the level budget: Indeterminate (an error, never a silent
  Finite).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate as _sint
from scipy import optimize as _sopt

DIVERGENCE_THRESHOLD = 1e12
CLIP_VALUE = 1e300


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
class ImproperIntegralResult:
    verdict: str                      # "finite" | "divergent"
    value: Optional[float]            # defined for finite verdicts
    abs_error: Optional[float]
    direction: Optional[str]          # "lower" | "upper" for divergent verdicts
    evaluations: int
    levels: int
    rule: Optional[str] = None        # which divergence rule fired

    @property
    def finite(self) -> bool:
        return self.verdict == "finite"

    @property
    def divergent(self) -> bool:
        return self.verdict == "divergent"


class LevelAccumulator:
    """Streams per-level increments of a partial-integral sequence and
    decides Finite / Divergent / keep-going under the module's shared rules."""

    def __init__(self, tol: float, threshold: float = DIVERGENCE_THRESHOLD,
                 trend_min_levels: int = 8, trend_ratio: float = 0.9997):
        self.tol = float(tol)
        self.threshold = float(threshold)
        self.trend_min_levels = trend_min_levels
        self.trend_ratio = trend_ratio
        self.increments: list[float] = []
        self.partials: list[float] = []
        self.quad_error = 0.0
        self.total = 0.0

    def add(self, increment: float, err: float = 0.0) -> Optional[str]:
        """Feed one level; returns "finite", "divergent" or None (continue)."""
        # saturate instead of overflowing: partial sums then keep increasing
        # strictly and the threshold rule fires on the next levels
        increment = float(np.clip(increment, -1e305, 1e305))
        if math.isnan(increment):
            raise IndeterminateIntegralError("NaN increment in quadrature level")
        self.total += increment
        self.increments.append(increment)
        self.partials.append(self.total)
        self.quad_error += err

        inc = self.increments
        # -- finite: two consecutive negligible levels
        if len(inc) >= 2:
            gate = self.tol * (1.0 + abs(self.total)) / 8.0
            if abs(inc[-1]) <= gate and abs(inc[-2]) <= gate:
                return "finite"
        # -- divergent, threshold rule
        if len(self.partials) >= 4 and abs(self.total) > self.threshold:
            p = [abs(v) for v in self.partials[-4:]]
            if p[0] < p[1] < p[2] < p[3]:
                return "divergent"
        # -- divergent, trend rule (logarithmic blow-up)
        if len(inc) >= self.trend_min_levels:
            last5 = inc[-5:]
            if all(v > 0 for v in last5) or all(v < 0 for v in last5):
                ratios = [abs(last5[i + 1] / last5[i]) for i in range(4)]
                if min(ratios) >= self.trend_ratio:
                    return "divergent"
        return None

    @property
    def error_estimate(self) -> float:
        tail = sum(abs(v) for v in self.increments[-2:])
        return tail + self.quad_error


def _panel_quad(f, lo, hi):
    """Adaptive quadrature on a closed panel, warnings silenced (panel-level
    roughness is handled by the level logic, not by scipy's heuristics)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err, info = _sint.quad(f, lo, hi, full_output=True)[:3]
    return float(val), float(err), int(info["neval"])


def _clip(v):
    if v > CLIP_VALUE:
        return CLIP_VALUE
    if v < -CLIP_VALUE:
        return -CLIP_VALUE
    return v


def _side_levels(m, endpoint, lower_side):
    """Yield closed panels marching from the split point m toward `endpoint`
    (geometric halving toward a finite endpoint, doubling toward +-inf)."""
    if math.isinf(endpoint):
        step = max(1.0, abs(m))
        prev = m
        while True:
            nxt = prev - step if lower_side else prev + step
            yield (nxt, prev) if lower_side else (prev, nxt)
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


def improper_integral(f: Callable[[float], float], a: float, b: float,
                      tol: float = 1e-9, split: Optional[float] = None,
                      max_levels: int = 200,
                      threshold: float = DIVERGENCE_THRESHOLD,
                      ) -> ImproperIntegralResult:
    """Integrate f over the open interval (a, b); endpoints may be singular
    or infinite.  Returns a Finite value with error estimate, a certified
    Divergent verdict, or raises IndeterminateIntegralError."""
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

    g = lambda x: _clip(f(x))
    evaluations = 0
    levels_used = 0
    value = 0.0
    err = 0.0

    for endpoint, lower_side, tag in ((a, True, "lower"), (b, False, "upper")):
        acc = LevelAccumulator(tol, threshold=threshold)
        verdict = None
        for lvl, (lo, hi) in enumerate(_side_levels(split, endpoint, lower_side)):
            if lvl >= max_levels:
                raise IndeterminateIntegralError(
                    f"no verdict for the {tag} endpoint {endpoint} after "
                    f"{max_levels} refinement levels (partial sum "
                    f"{acc.total:.6g}, last increment "
                    f"{acc.increments[-1] if acc.increments else 0.0:.3g})")
            v, e, n = _panel_quad(g, lo, hi)
            evaluations += n
            verdict = acc.add(v, e)
            levels_used = max(levels_used, lvl + 1)
            if verdict is not None:
                break
        if verdict == "divergent":
            rule = ("threshold" if abs(acc.total) > threshold else "trend")
            return ImproperIntegralResult(
                verdict="divergent", value=None, abs_error=None, direction=tag,
                evaluations=evaluations, levels=levels_used, rule=rule)
        value += acc.total
        err += acc.error_estimate

    return ImproperIntegralResult(
        verdict="finite", value=value, abs_error=err, direction=None,
        evaluations=evaluations, levels=levels_used)


# ---------------------------------------------------------------------------
# panel Gauss-Legendre (vectorized), cached antiderivatives
# ---------------------------------------------------------------------------

_GL_CACHE: dict = {}


def _gl_nodes(n: int):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


def gauss_panels(f, breakpoints: np.ndarray, n: int = 16) -> np.ndarray:
    """Vectorized per-panel Gauss-Legendre integrals between consecutive
    breakpoints; returns the array of panel values."""
    x, w = _gl_nodes(n)
    lo = breakpoints[:-1]
    hi = breakpoints[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return half * (vals @ w)


def logsumexp_panels(logf, breakpoints: np.ndarray, n: int = 16) -> np.ndarray:
    """log of per-panel integrals of exp(logf), computed without overflow."""
    x, w = _gl_nodes(n)
    lo = breakpoints[:-1]
    hi = breakpoints[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    lv = logf(nodes.ravel()).reshape(nodes.shape) + np.log(w)[None, :]
    peak = lv.max(axis=1)
    with np.errstate(invalid="ignore"):
        out = peak + np.log(np.exp(lv - peak[:, None]).sum(axis=1)) + np.log(half)
    return np.where(np.isfinite(peak), out, -np.inf)


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


class CachedAntiderivative:
    """F(x) = int_{x0}^x f, lazily extended with adaptive quadrature and
    interpolated from cached knots (monotone grid, panel quad between
    neighbours).  Vectorized over array arguments."""

    def __init__(self, f: Callable, x0: float):
        self.f = f
        self.x0 = float(x0)
        self._xs = [self.x0]
        self._Fs = [0.0]

    def _extend_to(self, x: float):
        xs, Fs = self._xs, self._Fs
        if x > xs[-1]:
            lo = xs[-1]
            while lo < x:
                hi = min(x, lo + max(0.25, 0.25 * abs(lo)))
                v, _, _ = _panel_quad(self.f, lo, hi)
                xs.append(hi)
                Fs.append(Fs[-1] + v)
                lo = hi
        elif x < xs[0]:
            hi = xs[0]
            while hi > x:
                lo = max(x, hi - max(0.25, 0.25 * abs(hi)))
                v, _, _ = _panel_quad(self.f, lo, hi)
                xs.insert(0, lo)
                Fs.insert(0, Fs[0] - v)
                hi = lo

    def __call__(self, x):
        scalar = np.isscalar(x)
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        self._extend_to(float(xa.max()))
        self._extend_to(float(xa.min()))
        xs = np.array(self._xs)
        Fs = np.array(self._Fs)
        out = np.empty_like(xa)
        idx = np.searchsorted(xs, xa, side="right") - 1
        idx = np.clip(idx, 0, len(xs) - 2)
        for k, (xi, i) in enumerate(zip(xa, idx)):
            lo = xs[i]
            v, _, _ = _panel_quad(self.f, lo, xi) if xi != lo else (0.0, 0, 0)
            out[k] = Fs[i] + v
        return float(out[0]) if scalar else out


class TabulatedAntiderivative:
    """F(x) = int_{x0}^x f on a lazily grown knot table.

    Unlike :class:`CachedAntiderivative` (which runs adaptive quadrature per
    query point and is meant for a handful of scalar calls), this keeps a
    marched knot grid with cumulative Gauss panel integrals and answers array
    queries with a single vectorized Gauss panel from the bracketing knot, so
    it stays machine-accurate for smooth integrands while costing one call of
    ``f`` per batch.  Knots approach finite domain endpoints geometrically,
    which keeps integrable endpoint singularities (1/x-type drifts) resolved.
    """

    def __init__(self, f: Callable, x0: float, domain=( -np.inf, np.inf),
                 base_h: float = 0.02):
        self.f = f
        self.x0 = float(x0)
        self.domain = (float(domain[0]), float(domain[1]))
        self.base_h = float(base_h)
        self._knots = np.array([self.x0])
        self._vals = np.array([0.0])

    def _march(self, start: float, stop: float) -> np.ndarray:
        l, r = self.domain
        up = stop > start
        out = []
        x = start
        guard = 0
        while True:
            rem = (stop - x) if up else (x - stop)
            if rem <= 0:
                break
            guard += 1
            if guard > 200000:
                raise QsdlabError("antiderivative knot march failed to reach "
                                  f"{stop!r} from {start!r}")
            h = self.base_h * max(1.0, abs(x))
            gap = (r - x) if up else (x - l)
            if math.isfinite(gap) and gap > 0:
                # geometric approach to a finite endpoint
                h = min(h, 0.25 * gap)
            if h >= 0.5 * rem or h <= 1e-15 * max(1.0, abs(stop)):
                x = stop
            else:
                x = x + h if up else x - h
            out.append(x)
        return np.array(out)

    def _cumulate(self, knots: np.ndarray, f0: float, forward: bool):
        if len(knots) == 0:
            return
        if forward:
            edges = np.concatenate(([self._knots[-1]], knots))
            panels = gauss_panels(self.f, edges, n=8)
            vals = f0 + np.cumsum(panels)
            self._knots = np.concatenate((self._knots, knots))
            self._vals = np.concatenate((self._vals, vals))
        else:
            edges = np.concatenate(([self._knots[0]], knots))  # decreasing
            panels = gauss_panels(self.f, edges[::-1], n=8)[::-1]
            vals = f0 - np.cumsum(panels)
            self._knots = np.concatenate((knots[::-1], self._knots))
            self._vals = np.concatenate((vals[::-1], self._vals))

    def __call__(self, x):
        scalar = np.isscalar(x)
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        if len(xa) == 0:
            return xa
        qmin, qmax = float(xa.min()), float(xa.max())
        if not (math.isfinite(qmin) and math.isfinite(qmax)):
            raise ValueError("antiderivative queried at a non-finite point")
        if qmax > self._knots[-1]:
            self._cumulate(self._march(self._knots[-1], qmax),
                           self._vals[-1], forward=True)
        if qmin < self._knots[0]:
            self._cumulate(self._march(self._knots[0], qmin),
                           self._vals[0], forward=False)
        idx = np.clip(np.searchsorted(self._knots, xa, side="right") - 1,
                      0, len(self._knots) - 1)
        lo = self._knots[idx]
        gx, gw = _gl_nodes(8)
        mid = 0.5 * (lo + xa)
        half = 0.5 * (xa - lo)
        nodes = mid[:, None] + half[:, None] * gx[None, :]
        fv = self.f(nodes.ravel()).reshape(nodes.shape)
        out = self._vals[idx] + half * (fv @ gw)
        return float(out[0]) if scalar else out


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
    x_from: float
    x_to: float
    final: tuple                # (u, rho*u') at x_to (rescaled)
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

    def sign_changes(self, component: int = 0) -> int:
        v = self.values[:, component]
        v = v[v != 0.0]
        return int(np.sum(v[1:] * v[:-1] < 0))

    def at(self, x: float) -> tuple:
        """Linear interpolation of the (rescaled) pair at x."""
        u = np.interp(x, self.grid, self.values[:, 0])
        w = np.interp(x, self.grid, self.values[:, 1])
        return (float(u), float(w))


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
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def _cell_counts(scale_speed, kappa, lam: float,
                 segs: np.ndarray) -> np.ndarray:
    """Cells per sample interval of the chunks `segs` (one row per chunk),
    enough to keep both bounded quantities at or below MAGNUS_CELL_BOUND.

    The change of log rho is estimated as twice the larger of its changes
    over the two halves of the interval, |lam - kappa| by its largest value
    at the ends and the midpoint."""
    pilot = np.empty((segs.shape[0], 2 * segs.shape[1] - 1))
    pilot[:, 0::2] = segs
    pilot[:, 1::2] = 0.5 * (segs[:, :-1] + segs[:, 1:])
    log_rho = np.asarray(scale_speed.log_speed(pilot.ravel()),
                         dtype=float).reshape(pilot.shape)
    halves = np.abs(np.diff(log_rho, axis=1))
    swing = 2.0 * np.maximum(halves[:, 0::2], halves[:, 1::2])
    kap = (np.asarray(kappa(pilot.ravel()), dtype=float).reshape(pilot.shape)
           if kappa is not None else 0.0)
    gap = np.broadcast_to(np.abs(lam - kap), pilot.shape)
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


def _magnus_cells(scale_speed, kappa, lam: float, left: np.ndarray,
                  h: np.ndarray) -> np.ndarray:
    """Fourth-order Magnus maps of the cells [left, left + h], shape (n, 2, 2).

    With A = [[0, b], [c, 0]], b = 1/rho and c = -2(lam - kappa) rho sampled
    at the two Gauss points, Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1]
    = [[p, q], [r, -p]].  Omega^2 = (p^2 + qr) I, so exp(Omega) = C I + S
    Omega with C, S = cosh s, sinh(s)/s (or cos s, sin(s)/s) of
    s = sqrt|p^2 + qr|, and det exp(Omega) = C^2 - S^2 (p^2 + qr) = 1.
    """
    nodes = np.concatenate([left + g * h for g in _GAUSS_NODES])
    rho = scale_speed.speed_density(nodes)
    inv_rho = scale_speed.scale_density(nodes)
    kap = np.asarray(kappa(nodes), dtype=float) if kappa is not None else 0.0
    c = -2.0 * (lam - kap) * rho
    n = len(left)
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
    maps = np.empty((n, 2, 2))
    maps[:, 0, 0] = cos_part + sin_part * p
    maps[:, 0, 1] = sin_part * q
    maps[:, 1, 0] = sin_part * r
    maps[:, 1, 1] = cos_part - sin_part * p
    return maps


def _chunk_maps(scale_speed, kappa, lam: float, segs: np.ndarray,
                n_cells: np.ndarray) -> np.ndarray:
    """Transfer maps from the start of each chunk (row of `segs`) to its
    sample points, shape (rows, samples - 1, 2, 2).

    All cells are evaluated in one array call and composed by one
    Hillis-Steele scan over a stack with one row per chunk, padded with
    identity maps after the chunk's real cells; the padding comes after every
    real cell, so each real prefix is formed from the same products in the
    same order as a scan of its chunk alone."""
    # interval k of the flattened rows owns n_cells.flat[k] equal cells
    # starting at segs[:, :-1].flat[k]
    counts = n_cells.ravel()
    ends = np.cumsum(counts)
    owner = np.repeat(np.arange(len(counts)), counts)
    h = (np.diff(segs, axis=1).ravel() / counts)[owner]
    left = (segs[:, :-1].ravel()[owner]
            + (np.arange(ends[-1]) - (ends - counts)[owner]) * h)
    chunk_ends = np.cumsum(n_cells, axis=1)
    real = np.arange(chunk_ends[:, -1].max()) < chunk_ends[:, -1:]
    prefix = np.zeros(real.shape + (2, 2))
    prefix[..., 0, 0] = prefix[..., 1, 1] = 1.0
    prefix[real] = _magnus_cells(scale_speed, kappa, lam, left, h)
    # prefix[i, j] maps the start of chunk i to the right end of its cell j
    shift = 1
    while shift < prefix.shape[1]:
        prefix = np.concatenate(
            (prefix[:, :shift], prefix[:, shift:] @ prefix[:, :-shift]), axis=1)
        shift *= 2
    return prefix[np.arange(len(segs))[:, None], chunk_ends - 1]


def integrate_sl_system(model, scale_speed, lam: float, x_from: float,
                        x_to: float, init: Sequence[float],
                        n_samples: int = 400) -> OdeTrajectory:
    """Integrate u' = w/rho, w' = -2(lam - kappa)*rho*u from x_from to x_to.

    `model` supplies the killing rate (may be None); `scale_speed` supplies
    rho (speed_density), 1/rho (scale_density) and log rho (log_speed).
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
    thousands; only the chunk-start states are carried from chunk to chunk.

    The state is renormalized by a positive factor between chunks whenever
    it grows past SL_RESCALE_AT, so eigenvalue miss functions keep valid signs
    even when the non-decaying mode grows like exp(several hundred).
    """
    kappa = getattr(model, "killing", None) if model is not None else None
    lam = float(lam)
    forward = x_to > x_from
    edges = np.linspace(x_from, x_to, SL_CHUNKS + 1)
    per_chunk = max(2, n_samples // SL_CHUNKS + 1)
    segs = np.linspace(edges[:-1], edges[1:], per_chunk, axis=1)
    n_cells = _cell_counts(scale_speed, kappa, lam, segs)
    chunk_cells = n_cells.sum(axis=1).tolist()
    vals = np.empty((SL_CHUNKS, per_chunk, 2))
    logs = np.empty(SL_CHUNKS)
    state = np.array(init, dtype=float)
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
        # overflow surfaces as a non-finite state and is raised below
        with np.errstate(over="ignore", invalid="ignore"):
            maps = _chunk_maps(scale_speed, kappa, lam, segs[start:stop],
                               n_cells[start:stop])
            # the chunk-start states are sequential: each is the previous
            # chunk's end, divided by its largest entry past SL_RESCALE_AT
            for i in range(start, stop):
                vals[i, 0] = state
                vals[i, 1:] = maps[i - start] @ state
                logs[i] = log_scale
                state = vals[i, -1].copy()
                peak = float(np.max(np.abs(state)))
                if peak > SL_RESCALE_AT:
                    state /= peak
                    log_scale += math.log(peak)
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
    final = (float(state[0]), float(state[1]))
    if not forward:
        order = np.argsort(grid)
        grid, values, lscale = grid[order], values[order], lscale[order]
    return OdeTrajectory(grid=grid, values=values, log_scale=lscale,
                         x_from=x_from, x_to=x_to, final=final,
                         final_log_scale=log_scale)


def brent_root(f: Callable[[float], float], bracket: tuple, tol: float = 1e-12,
               maxiter: int = 200) -> float:
    lo, hi = bracket
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if flo * fhi > 0:
        raise BracketError(
            f"no sign change on [{lo:.8g}, {hi:.8g}]: f = ({flo:.3g}, {fhi:.3g})")
    return float(_sopt.brentq(f, lo, hi, xtol=tol, rtol=4 * np.finfo(float).eps,
                              maxiter=maxiter))
