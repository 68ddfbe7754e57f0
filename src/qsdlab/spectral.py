"""Constructive Sturm-Liouville solver for absorbed 1-d diffusions.

Builds the principal solution near an accessible left endpoint by a
contraction fixed point, locates the bottom eigenvalues by sign-counting +
root shooting against a sealed right truncation with Richardson
extrapolation, cross-validates against an independent finite-element
discretization, handles the killed-on-the-line regime through the
Schrodinger form, and assembles quasistationary densities, Doob transforms
of the conditioned process, and heat-kernel expansions.

Eigenfunctions: L2(rho)-normalized `PhiSolution` records (phi, rho phi' and
rho on one grid), on every route positive where |phi| rho peaks.  The
stored drift is the SDE drift mu (see model.CONVENTION_NOTE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import DiffusionModel, ScalarField, schrodinger_potential
from .numerics import (OdeTrajectory, QsdlabError, TabulatedAntiderivative,
                       _line_fit, _richardson, _sorted_unique, brent_root,
                       cumulative_parabolic, improper_integral,
                       integrate_sl_system, tail_integral, tridiagonal_lowest)

__all__ = [
    "ClassificationMismatchError", "USolution", "PhiSolution",
    "SpectralResult", "QsdDensity", "DoobResult", "HeatKernelValue",
    "build_u", "build_phi", "shooting_ladder", "eigen_shoot",
    "eigen_fd_oracle", "eigen_schrodinger", "qsd_density",
    "doob_h_transform", "heat_kernel",
]


class ClassificationMismatchError(QsdlabError):
    """The constructive route was run at an endpoint whose classification
    does not support it (the contraction radius never closes)."""


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class USolution:
    """Endpoint-normalized solution u with u -> 1 at the left endpoint and
    (rho u')(delta) = 0 exactly by construction."""
    lam: float
    delta: float
    contraction_factor: float
    samples: Optional[OdeTrajectory]  # continuation beyond delta, if asked
    core_grid: np.ndarray             # graded grid on (l, delta]
    core_u: np.ndarray
    core_w: np.ndarray                # rho u' on the core grid (= 2 lam J)
    residual: float                   # last fixed-point increment


@dataclass(frozen=True)
class PhiSolution:
    """phi(lam, .), its flux w = rho phi' and the speed density rho, sampled
    on one strictly increasing grid."""
    lam: float
    grid: np.ndarray
    phi: np.ndarray
    w: np.ndarray
    rho: np.ndarray

    def __call__(self, x):
        return np.interp(x, self.grid, self.phi, left=0.0, right=0.0)


def _flattened(lam: float, traj: OdeTrajectory,
               model: DiffusionModel) -> PhiSolution:
    """The record of a shot, its chunk scales multiplied out."""
    scale = np.exp(np.clip(traj.log_scale, -700.0, 700.0))[:, None]
    flat = traj.values * scale
    return PhiSolution(lam=lam, grid=traj.grid, phi=flat[:, 0], w=flat[:, 1],
                       rho=model.speed_density(traj.grid))


def _eigenpair(lam: float, grid: np.ndarray, phi: np.ndarray, w: np.ndarray,
               rho: np.ndarray) -> PhiSolution:
    """The record of one eigenfunction, signed positive where |phi| rho
    peaks."""
    if phi[np.argmax(np.abs(phi) * rho)] < 0:
        phi, w = -phi, -w
    return PhiSolution(lam=float(lam), grid=grid, phi=phi, w=w, rho=rho)


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray
    eigenfunctions: list
    truncation: tuple
    extrapolation_error: float
    method: str = "shoot"
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        bad = np.flatnonzero(~(np.diff(ev) > 0))
        if len(bad):
            i = int(bad[0]) + 1
            ladder = ", ".join(f"{t:.6g}" for t in np.atleast_1d(self.truncation))
            raise QsdlabError(
                f"eigenvalues not strictly increasing: eigenvalues[{i}] = "
                f"{float(ev[i])!r} after eigenvalues[{i - 1}] = "
                f"{float(ev[i - 1])!r} (truncation {ladder})")

    @property
    def lambda0(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def gap(self) -> Optional[float]:
        if len(self.eigenvalues) < 2:
            return None
        return float(self.eigenvalues[1] - self.eigenvalues[0])

    def to_json(self):
        return {"eigenvalues": [float(v) for v in self.eigenvalues],
                "extrapolation_error": float(self.extrapolation_error),
                "truncation": list(np.atleast_1d(self.truncation).astype(float)),
                "method": self.method}


@dataclass(frozen=True)
class QsdDensity:
    """Normalized quasistationary density phi0 * rho / Z on the support."""
    density: Callable
    Z: float
    support: tuple
    grid: np.ndarray
    tail_mass: float
    cum: np.ndarray = field(repr=False)   # normalized mass of [grid[0], grid[i]]

    def bin_masses(self, edges) -> np.ndarray:
        edges = np.asarray(edges, dtype=float)
        cum = np.interp(edges, self.grid, self.cum, left=0.0,
                        right=self.cum[-1])
        return np.diff(cum)


class DoobResult(NamedTuple):
    model: DiffusionModel
    h: Optional[ScalarField]
    noop: bool
    reason: str


class HeatKernelValue(NamedTuple):
    value: float
    truncation_estimate: float


# ---------------------------------------------------------------------------
# the contraction construction at the left endpoint
# ---------------------------------------------------------------------------

def _tail_cumulative(grid: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """int_x^delta f on the grid, accumulated from the right so steeply
    singular integrands near the left edge cannot wash out the bulk values
    by cancellation."""
    return cumulative_parabolic(-grid[::-1], fs[::-1])[::-1]


# points of the graded core grid on (l, l + r], and its inner cutoff
# relative to the radius r
_N_CORE = 1200
_EPS0_REL = 1e-8
# samples of each continuation from the core edge to a shot's right end
_N_SAMPLES = 600


class _UBuilder:
    """Grids, speed-density samples and contraction bounds for the left-end
    construction, cached per halving level j of the radius, so repeated shots
    at different lam reuse everything lam-independent.  Level j is the core
    (l, delta] with delta = l + r0 2^-j.  The cache holds each level's
    Neumann basis v_k = K^k[1] of the lam-free operator K, so a shot sums
    (2 lam)^k v_k with a few vector updates and runs no quadrature sweep
    once the basis is long enough."""

    def __init__(self, model: DiffusionModel):
        if not model.unit_diffusion:
            raise QsdlabError("the constructive route needs sigma == 1; reduce first")
        if model.killing is not None:
            raise QsdlabError(
                "the constructive route assumes pure absorption; "
                "use eigen_schrodinger / eigen_fd_oracle for killed models")
        l, r = model.domain
        if not math.isfinite(l):
            raise QsdlabError("the constructive route needs a finite left endpoint")
        self.model = model
        self.left = l
        r0 = min(1.0, 0.75 * (model.x_ref - l))
        if math.isfinite(r):
            r0 = min(r0, 0.25 * (r - l))
        if r0 <= 0:
            raise QsdlabError(f"cannot seed a construction radius from {model.x_ref}")
        self.r0 = r0
        self._levels: dict = {}
        # the shot's left-end core per lam: (delta, core trajectory)
        self._cores: dict = {}
        # the lam-free samples of the continuations (integrate_sl_system)
        self._lam_free: dict = {}
        # accessibility probe: the double integral must be stable against the
        # inner cutoff, otherwise the left endpoint is not accessible and no
        # contraction radius exists
        g_a = self._double_integral(r0, _EPS0_REL)
        g_b = self._double_integral(r0, _EPS0_REL / 16.0)
        if not (math.isfinite(g_a) and math.isfinite(g_b)) \
                or abs(g_a - g_b) > 1e-2 * max(abs(g_a), 1e-300):
            raise ClassificationMismatchError(
                "left endpoint shows no integrable access "
                f"(double integral {g_a:.4g} vs {g_b:.4g} under cutoff refinement); "
                "the constructive route needs an Exit or Regular left end")

    def _grid(self, radius: float, eps_rel: float):
        grid = self.left + np.geomspace(eps_rel * radius, radius, _N_CORE)
        return (grid, self.model.speed_density(grid),
                self.model.scale_density(grid))

    def _double_integral(self, radius: float, eps_rel: float) -> float:
        grid, rho, inv_rho = self._grid(radius, eps_rel)
        j = _tail_cumulative(grid, rho)
        return float(cumulative_parabolic(grid, inv_rho * j)[-1])

    def _level(self, j: int) -> dict:
        if j not in self._levels:
            radius = self.r0 * 0.5 ** j
            grid, rho, inv_rho = self._grid(radius, _EPS0_REL)
            lv = {"delta": self.left + radius, "grid": grid, "rho": rho,
                  "inv_rho": inv_rho,
                  "basis": [(np.ones_like(grid), _tail_cumulative(grid, rho))]}
            lv["G"] = float(self._basis(lv, 1)[0][-1])
            self._levels[j] = lv
        return self._levels[j]

    def _solve(self, lam: float) -> tuple:
        """The fixed point on the first level whose contraction factor
        closes: (level, factor, u, rho u', residual)."""
        for j in range(61):
            lv = self._level(j)
            factor = 2.0 * abs(lam) * lv["G"]
            if factor <= 0.45:
                # also require the iterates to stay away from zero; the
                # geometric bound gives u >= 1 - factor/(1 - factor)
                u, w, residual = self._iterate(lv, lam)
                if np.min(u) > 0.05:
                    return lv, factor, u, w, residual
        raise ClassificationMismatchError(
            f"contraction radius collapsed below {self.r0 * 0.5 ** 60:.3g} "
            f"at lam = {lam}; left endpoint unsuitable for the construction")

    def build(self, lam: float, x_to: Optional[float] = None) -> USolution:
        lv, factor, u, w, residual = self._solve(lam)
        delta = lv["delta"]
        traj = None
        if x_to is not None and x_to > delta:
            traj = integrate_sl_system(self.model.killing, self.model, lam,
                                       delta, x_to, init=(float(u[-1]), 0.0),
                                       n_samples=_N_SAMPLES,
                                       lam_free=self._lam_free)
        return USolution(lam=lam, delta=delta, contraction_factor=factor,
                         samples=traj, core_grid=lv["grid"], core_u=u,
                         core_w=w, residual=residual)

    @staticmethod
    def _basis(lv: dict, k: int) -> tuple:
        """(v_k, T_k) of the level's Neumann basis, extended on demand:
        v_0 = 1, T_k = int_x^delta v_k rho, v_{k+1} = int_l^x T_k / rho."""
        basis = lv["basis"]
        while len(basis) <= k:
            v = cumulative_parabolic(lv["grid"], lv["inv_rho"] * basis[-1][1])
            basis.append((v, _tail_cumulative(lv["grid"], v * lv["rho"])))
        return basis[k]

    def _iterate(self, lv: dict, lam: float) -> tuple:
        """The fixed point u = 1 + 2 lam K[u] as the Neumann sum
        u = sum_k (2 lam)^k v_k, summed until a term falls below 1e-12 of
        max(1, max|u|).  Returns u, rho u' = 2 lam int_x^delta u rho (the
        same sum over the tails T_k) and the size of the last term."""
        u = np.ones_like(lv["grid"])
        w = 2.0 * lam * lv["basis"][0][1]
        coef = 1.0
        for k in range(1, 401):
            coef *= 2.0 * lam
            v, tail = self._basis(lv, k)
            # a diverging sum is stopped at its first non-finite term
            with np.errstate(over="ignore", invalid="ignore"):
                u += coef * v
                w += (2.0 * lam * coef) * tail
            inc = abs(coef) * float(np.max(np.abs(v)))
            scale = float(np.max(np.abs(u)))
            if not math.isfinite(inc + scale):
                break
            if inc < 1e-12 * max(1.0, scale):
                return u, w, inc
        raise QsdlabError(
            f"fixed-point iteration stalled at increment {inc:.3g} "
            f"(lam = {lam}, delta = {lv['delta']:.4g})")

    def phi(self, lam: float, x_to: Optional[float] = None) -> OdeTrajectory:
        """The shot: (phi, rho phi') on the core grid, continued to x_to
        when x_to lies beyond the core edge.  The core depends on lam alone
        and is kept per lam, so a lam shot again against another truncation
        runs only the continuation."""
        if lam not in self._cores:
            lv, _, u, w, _ = self._solve(lam)
            grid = lv["grid"]
            integ = lv["inv_rho"] / u ** 2
            # sub-cutoff mass of the scale integral from a local power fit
            tail0 = 0.0
            x0g, x1g = grid[0] - self.left, grid[1] - self.left
            if integ[0] > 0 and integ[1] > 0:
                p = math.log(integ[1] / integ[0]) / math.log(x1g / x0g)
                if p > -0.99:
                    tail0 = integ[0] * x0g / (p + 1.0)
            j2 = cumulative_parabolic(grid, integ) + tail0
            core = np.column_stack((u * j2, w * j2 + 1.0 / u))
            self._cores[lam] = (lv["delta"], OdeTrajectory(
                grid=grid, values=core, log_scale=np.zeros(len(grid)),
                final=tuple(map(float, core[-1])), final_log_scale=0.0))
        delta, traj = self._cores[lam]
        if x_to is None or not x_to > delta:
            return traj
        cont = integrate_sl_system(self.model.killing, self.model, lam, delta,
                                   x_to, init=traj.final, n_samples=_N_SAMPLES,
                                   lam_free=self._lam_free)
        return OdeTrajectory(
            grid=np.concatenate((traj.grid, cont.grid[1:])),
            values=np.concatenate((traj.values, cont.values[1:])),
            log_scale=np.concatenate((traj.log_scale, cont.log_scale[1:])),
            final=cont.final, final_log_scale=cont.final_log_scale)


def build_u(model: DiffusionModel, lam: float,
            x_to: Optional[float] = None) -> USolution:
    """Left-endpoint normalized solution of (rho u')' = -2 lam rho u with
    u -> 1 at the endpoint, by the contraction fixed point on a radius delta
    chosen so 2|lam| * G(delta) <= 1/2."""
    return _UBuilder(model).build(lam, x_to=x_to)


def build_phi(model: DiffusionModel, lam: float,
              x_to: Optional[float] = None) -> PhiSolution:
    """Principal candidate phi = u * int_0^x u^-2 rho^-1, vanishing at the
    left endpoint, with rho phi' = (rho u') int u^-2 rho^-1 + 1/u."""
    return _flattened(lam, _UBuilder(model).phi(lam, x_to=x_to), model)


# ---------------------------------------------------------------------------
# eigenvalues by shooting against a sealed truncation
# ---------------------------------------------------------------------------

_DEFAULT_LOGRHO_CAPS = (30.0, 42.0, 60.0)


def shooting_ladder(model: DiffusionModel,
                    truncations: Optional[Sequence[float]] = None) -> list:
    """The right truncations `eigen_shoot` shoots against, as floats: the
    given ones, else the points right of x_ref where |log rho| first reaches
    each of the default caps.  Raises QsdlabError unless there are at least
    two and they increase."""
    if truncations is None:
        truncations = [_march_cap(lambda x: abs(float(model.log_speed(x))),
                                  model.x_ref, +1.0, cap)
                       for cap in _DEFAULT_LOGRHO_CAPS]
    truncations = [float(t) for t in truncations]
    if len(truncations) < 2:
        raise QsdlabError("need at least two truncations for extrapolation")
    if not all(b > a for a, b in zip(truncations, truncations[1:])):
        raise QsdlabError(f"truncation ladder not increasing: {truncations}")
    return truncations


def eigen_shoot(model: DiffusionModel, K: int = 1,
                truncations: Optional[Sequence[float]] = None
                ) -> SpectralResult:
    """Lowest K eigenvalues of the absorbed generator by shooting.

    For each right truncation T the k-th eigenvalue of the sealed problem
    (rho phi' = 0 at T) is isolated by the augmented oscillation count --
    interior sign changes of phi plus one when the sign of the miss
    rho phi'(T) disagrees with the count parity -- and polished on the miss
    by `brent_root`, the in-repo port of Brent's zeroin; the reported
    eigenvalues are Richardson-extrapolated in 1/T^2 across the truncation
    ladder.

    The first truncation is searched cold: every count the isolation reads
    is a shot.  Each later truncation replays the same isolation warm from
    the previous truncation's roots r_j: a lam outside the guard band
    |lam - r_j| <= b_j of every root reads the count #{r_j < lam} without a
    shot, where b_j = 1e-6 (1 + r_j), widened after the second truncation
    to four times the root's last move.  Only the final bracket's ends are
    shot.  When they count k - 1 and k, they confirm every decision of the
    replay (the count is monotone in lam), and Brent runs on that bracket;
    a root that then lands inside its band confirms that every count read
    without a shot was exact, so bracket, Brent inputs and root are the
    cold search's.  Otherwise the truncation is searched cold again,
    reusing every shot already taken.  The left-end core of a shot depends
    on lam alone and is solved once per lam for the whole ladder.

    Eigenfunctions are the sealed solutions at the widest truncation,
    L2(rho)-normalized from the shots the bracketing already took there.
    `evidence` holds the roots and the number of distinct lam shot at each
    truncation.
    """
    if K < 1:
        raise QsdlabError("K must be >= 1")
    ub = _UBuilder(model)
    truncations = shooting_ladder(model, truncations)

    roots_by_t, shots_by_t = {}, {}
    prev = band = None
    for t_cut in truncations:
        cache: dict = {}

        def shot(lam: float):
            if lam not in cache:
                traj = ub.phi(lam, x_to=t_cut)
                # the stored samples differ from phi by positive factors
                count = traj.sign_changes()
                miss = float(traj.final[1])
                # one more when the sign of the miss disagrees with the parity
                sc = count + int((miss < 0) != (count % 2 == 1))
                cache[lam] = (sc, miss, traj)
            return cache[lam]

        sc0, m0, _ = shot(0.0)
        if not (sc0 == 0 and m0 > 0):
            raise QsdlabError(
                f"shooting baseline violated at T = {t_cut:.4g}: "
                f"count-augmented index {sc0}, miss {m0:.3g} at lam = 0")

        def search(prev: Optional[list]) -> Optional[list]:
            """The K roots at this truncation.  With `prev`, a lam outside
            the guard band around every previous root reads the count
            #{prev < lam} without a shot; None when a shot refutes that."""
            seen = {0.0: sc0}   # lam -> augmented count, as the search read it

            def count(lam: float) -> int:
                if lam not in seen:
                    seen[lam] = (shot(lam)[0] if prev is None
                                 or any(abs(lam - r) <= b
                                        for r, b in zip(prev, band))
                                 else sum(r < lam for r in prev))
                return seen[lam]

            def miss(lam: float) -> float:
                seen[lam], m, _ = shot(lam)
                return m

            roots = []
            for k in range(1, K + 1):
                # expand until the augmented count reaches k
                hi = max(1.0, 2.0 * (roots[-1] if roots else 0.0))
                grow = 0
                while count(hi) < k:
                    if grow == 60:
                        raise QsdlabError(
                            f"eigenvalue {k} of {K} not found below the "
                            f"search ceiling {hi:.4g} (T = {t_cut:.4g})")
                    hi *= 2.0
                    grow += 1
                lo = max([l for l in seen if seen[l] < k], default=0.0)
                # bisect until the augmented count steps by exactly one
                for _ in range(200):
                    if seen[hi] - seen[lo] == 1 \
                            and hi - lo <= 0.02 * (1.0 + hi):
                        break
                    mid = 0.5 * (lo + hi)
                    if count(mid) < k:
                        lo = mid
                    else:
                        hi = mid
                else:
                    raise QsdlabError(
                        f"isolation of eigenvalue {k} failed to converge at "
                        f"T = {t_cut:.4g} (bracket [{lo:.10g}, {hi:.10g}])")
                # shot counts k - 1 and k at the ends confirm every decision
                # above, the count being monotone in lam; a root inside its
                # band confirms that every count read without a shot was exact
                if prev is not None and (shot(lo)[0] != k - 1
                                         or shot(hi)[0] != k):
                    return None
                root = brent_root(miss, (lo, hi), tol=1e-11 * (1.0 + hi))
                if prev is not None and not abs(root - prev[k - 1]) < band[k - 1]:
                    return None
                roots.append(root)
            return roots

        roots = search(prev) or search(None)
        roots_by_t[t_cut] = roots
        shots_by_t[t_cut] = len(cache)
        # guard bands for the next truncation: 1e-6 (1 + r), widened to four
        # times the last move of the root
        band = [max(1e-6 * (1.0 + r), 4.0 * abs(r - p))
                for r, p in zip(roots, prev or roots)]
        prev = roots

    # t ** 2 of a float is libm pow, which can differ from t * t in the last
    # bit; the frozen eigenvalues were recorded with it
    eigenvalues, errors = _richardson([roots_by_t[t] for t in truncations],
                                      [t ** 2 for t in truncations])

    # brent_root returns a lam it has shot, so the widest truncation's
    # cache holds every eigenfunction
    funcs = [_normalized(_flattened(lam, cache[lam][2], model))
             for lam in roots_by_t[truncations[-1]]]
    return SpectralResult(eigenvalues=eigenvalues, eigenfunctions=funcs,
                          truncation=tuple(truncations),
                          extrapolation_error=float(np.max(errors)),
                          method="shoot",
                          evidence={"roots_by_truncation":
                                    {f"{t:.6g}": list(map(float, roots_by_t[t]))
                                     for t in truncations},
                                    "shots_by_truncation":
                                    {f"{t:.6g}": shots_by_t[t]
                                     for t in truncations}})


def _normalized(ph: PhiSolution) -> PhiSolution:
    nrm2 = float(np.trapezoid(ph.phi ** 2 * ph.rho, ph.grid))
    if not nrm2 > 0:
        raise QsdlabError("cannot normalize a vanishing eigenfunction")
    nrm = math.sqrt(nrm2)
    return _eigenpair(ph.lam, ph.grid, ph.phi / nrm, ph.w / nrm, ph.rho)


# ---------------------------------------------------------------------------
# finite-element oracle
# ---------------------------------------------------------------------------

# _march_cap gives up this far from its start
_MARCH_CAP_REACH = 1e7


def _march_cap(fun: Callable[[float], float], start: float, direction: float,
               level: float) -> float:
    """First point (going in `direction`) where fun >= level, refined by
    bisection."""
    x = start + direction * max(1.0, abs(start))
    prev = start
    while fun(x) < level:
        prev = x
        x = start + 1.4 * (x - start)
        if abs(x - start) > _MARCH_CAP_REACH:
            raise QsdlabError("cap search ran away; wrong regime for this solver")
    lo, hi = prev, x
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if fun(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fd_window(model: DiffusionModel, truncation) -> tuple:
    l, r = model.domain

    def cap(sign):
        return _march_cap(lambda x: abs(float(model.log_speed(x))), model.x_ref,
                          sign, 60.0)

    if truncation is not None and np.ndim(truncation) == 1:
        lo, hi = float(truncation[0]), float(truncation[1])
    else:
        lo = l if math.isfinite(l) else cap(-1.0)
        if truncation is not None:
            hi = float(truncation)
        else:
            hi = r if math.isfinite(r) else cap(+1.0)
    if not hi > lo:
        raise QsdlabError(f"empty FD window ({lo}, {hi})")
    return lo, hi


def _fd_once(model: DiffusionModel, lo: float, hi: float, n: int, K: int,
             left_bc: str, right_bc: str, graded: bool):
    """The K lowest eigenpairs of one P1 mesh with n nodes on [lo, hi].

    The lumped mass M is diagonal, so M^-1/2 K M^-1/2 is symmetric
    tridiagonal; `numerics.tridiagonal_lowest` solves it, and the vectors
    are mapped back by M^-1/2.  Returns (eigenvalues, nodal values, nodes,
    nodal masses) on the nodes that the boundary conditions keep."""
    gap = hi - lo
    if graded:
        r0 = 1e-4 * gap
        knots = _sorted_unique(np.concatenate((
            [0.0], np.geomspace(r0, gap, n // 2), np.linspace(r0, gap, n - n // 2))))
        nodes = lo + knots
    else:
        nodes = np.linspace(lo, hi, n)
    h = np.diff(nodes)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    rhob = model.speed_density(mids)
    if not np.all(rhob > 0) or not np.all(np.isfinite(rhob)):
        raise QsdlabError(
            "nonpositive element mass detected (truncation too wide or mesh "
            "too coarse for the speed density)")
    m = len(nodes)
    kdiag = np.zeros(m)
    kdiag[:-1] += 0.5 * rhob / h
    kdiag[1:] += 0.5 * rhob / h
    koff = -0.5 * rhob / h
    mass = np.zeros(m)
    mass[:-1] += 0.5 * rhob * h
    mass[1:] += 0.5 * rhob * h
    if model.killing is not None:
        kdiag = kdiag + model.killing(nodes) * mass
    i0 = 1 if left_bc == "dirichlet" else 0
    i1 = m - 1 if right_bc == "dirichlet" else m
    sel = slice(i0, i1)
    mm = mass[sel]
    if not np.all(mm > 0):
        raise QsdlabError("nonpositive nodal mass after boundary conditions")
    main = kdiag[sel] / mm
    with np.errstate(divide="ignore", over="ignore"):
        offsel = koff[i0:i1 - 1] / np.sqrt(mm[:-1] * mm[1:])
    if not (np.all(np.isfinite(main)) and np.all(np.isfinite(offsel))):
        raise QsdlabError(
            "speed density dynamic range exceeds double precision on this "
            "window (neighboring element masses underflow); narrow the "
            "truncation")
    vals, vecs = tridiagonal_lowest(main, offsel, K)
    fs = vecs / np.sqrt(mm)[:, None]
    return vals, fs, nodes[sel], mm


def eigen_fd_oracle(model: DiffusionModel, grid_size: int = 1600,
                    truncation=None, K: int = 4,
                    left_bc: str = "dirichlet",
                    right_bc: Optional[str] = None,
                    truncation_ladder: Optional[Sequence[float]] = None
                    ) -> SpectralResult:
    """Independent eigenvalue oracle: P1 finite elements with lumped mass for
    the form (1/2) int f'^2 rho + int kappa f^2 rho against int f^2 rho, on a
    mesh graded toward a finite (possibly singular) left endpoint, with
    Richardson extrapolation over mesh refinement.

    When the bottom of the spectrum is not isolated the sealed truncation
    itself drifts like 1/T^2; pass `truncation_ladder` (increasing right
    cutoffs) to extrapolate that out as well."""
    if truncation_ladder is not None:
        lads = [float(t) for t in truncation_ladder]
        if len(lads) < 2 or not all(b > a for a, b in zip(lads, lads[1:])):
            raise QsdlabError(f"need an increasing ladder, got {lads}")
        per_t = [eigen_fd_oracle(model, grid_size=grid_size, truncation=t,
                                 K=K, left_bc=left_bc, right_bc=right_bc)
                 for t in lads]
        ext, err_t = _richardson([r.eigenvalues for r in per_t],
                                 np.array(lads) ** 2)
        mesh_err = max(r.extrapolation_error for r in per_t)
        return SpectralResult(
            eigenvalues=ext, eigenfunctions=per_t[-1].eigenfunctions,
            truncation=tuple(lads),
            extrapolation_error=float(max(np.max(err_t), mesh_err)),
            method="fd",
            evidence={"per_truncation": [list(map(float, r.eigenvalues))
                                         for r in per_t],
                      "grid_size": grid_size})
    l, r = model.domain
    lo, hi = _fd_window(model, truncation)
    if right_bc is None:
        right_bc = "dirichlet" if math.isfinite(r) else "sealed"
    graded = math.isfinite(l)
    coarse, _, _, _ = _fd_once(model, lo, hi, grid_size // 2, K,
                               left_bc, right_bc, graded)
    fine, fs, nodes, mm = _fd_once(model, lo, hi, grid_size, K,
                                   left_bc, right_bc, graded)
    ext, errs = _richardson((coarse, fine), (1.0, 4.0))

    rho = model.speed_density(nodes)
    funcs = [_eigenpair(ext[k], nodes, fs[:, k],
                        rho * np.gradient(fs[:, k], nodes), rho)
             for k in range(K)]
    return SpectralResult(eigenvalues=ext, eigenfunctions=funcs,
                          truncation=(lo, hi),
                          extrapolation_error=float(np.max(errs)),
                          method="fd",
                          evidence={"coarse": list(map(float, coarse)),
                                    "fine": list(map(float, fine)),
                                    "grid_size": grid_size})


# ---------------------------------------------------------------------------
# Schrodinger-form solver for killed models on the line
# ---------------------------------------------------------------------------

_V_CAP = 2e6
_LOGRHO_CAP = 600.0


def eigen_schrodinger(model: DiffusionModel, K: int = 2,
                      grid_size: int = 6000) -> SpectralResult:
    """Bottom of the spectrum for a killed diffusion on the whole line via
    the unitarily equivalent form -1/2 psi'' + V psi with V = kappa +
    (mu^2 + mu')/2; eigenfunctions are mapped back by phi = psi / sqrt(rho).

    Hypotheses checked before solving: integrable speed density, and (when a
    killing rate is present) the conjugated potential -V diverging to -inf on
    the left.  Without killing the bottom eigenvalue is the stationary zero
    mode and should come out at 0 with phi0 constant.

    The operator is discretized by second differences on a uniform grid of
    the window where V and |log rho| stay below their caps, with Dirichlet
    ends; `numerics.tridiagonal_lowest` gives the K lowest eigenpairs on
    grid_size / 2 and grid_size cells, Richardson-extrapolated.  With a
    killing rate the bottom eigenvalue must come out positive and, for
    K >= 2, simple.
    """
    l, r = model.domain
    if math.isfinite(l) or math.isfinite(r):
        raise QsdlabError("eigen_schrodinger expects a model on the whole line")
    if K < 1:
        raise QsdlabError("K must be >= 1")
    if grid_size // 2 - 1 < K:
        raise QsdlabError(f"grid_size = {grid_size} gives the coarse mesh "
                          f"fewer interior nodes ({grid_size // 2 - 1}) than "
                          f"K = {K}; grid_size must be at least {2 * K + 2}")
    pot = schrodinger_potential(model)

    # both tails of int rho, in log space
    if not all(tail_integral(model.log_speed, float(model.x_ref), end,
                             tol=1e-8).finite
               for end in (-math.inf, math.inf)):
        raise QsdlabError("speed density not integrable on the line; "
                          "no quasistationary regime for this solver")
    if model.killing is not None:
        qs = pot.q(np.array([-10.0, -15.0, -20.0, -30.0]))
        if not (np.all(np.diff(qs) < 0) and qs[-1] < -100.0):
            raise QsdlabError(
                f"conjugated potential does not diverge to -inf on the left "
                f"(samples {qs}); hypothesis check failed")

    def edge(x):
        return max(float(pot.V(x)) / _V_CAP,
                   abs(float(model.log_speed(x))) / _LOGRHO_CAP)

    t_l = _march_cap(edge, float(model.x_ref), -1.0, 1.0)
    t_r = _march_cap(edge, float(model.x_ref), +1.0, 1.0)

    def solve(n):
        nodes = np.linspace(t_l, t_r, n)
        h = nodes[1] - nodes[0]
        inner = nodes[1:-1]
        vv = pot.V(inner)
        main = 1.0 / h ** 2 + vv
        off = np.full(len(inner) - 1, -0.5 / h ** 2)
        vals, vecs = tridiagonal_lowest(main, off, K)
        return vals, vecs / math.sqrt(h), inner

    coarse, _, _ = solve(grid_size // 2 + 1)
    fine, psis, inner = solve(grid_size + 1)
    ext, errs = _richardson((coarse, fine), (1.0, 4.0))

    half_logr = 0.5 * model.log_speed(inner)
    mu_vals = model.drift(inner)
    rho = model.speed_density(inner)
    funcs = []
    for k in range(K):
        psi = psis[:, k]
        phi = psi * np.exp(np.clip(-half_logr, -700.0, 700.0))
        dpsi = np.gradient(psi, inner)
        w = np.exp(np.clip(half_logr, -700.0, 700.0)) * (dpsi - mu_vals * psi)
        funcs.append(_eigenpair(ext[k], inner, phi, w, rho))
    if model.killing is not None:
        if not (ext[0] > 0 and (K < 2 or ext[1] > ext[0])):
            raise QsdlabError(
                f"killed-model spectrum not positive/simple: {ext[:2]}")
    return SpectralResult(eigenvalues=ext, eigenfunctions=funcs,
                          truncation=(t_l, t_r),
                          extrapolation_error=float(np.max(errs)),
                          method="schrodinger",
                          evidence={"window": (t_l, t_r),
                                    "coarse": list(map(float, coarse)),
                                    "fine": list(map(float, fine))})


# ---------------------------------------------------------------------------
# quasistationary density, Doob transform, heat kernel
# ---------------------------------------------------------------------------

def qsd_density(spectral: SpectralResult) -> QsdDensity:
    """Quasistationary density phi0 * rho normalized to a probability; the
    tail mass beyond the computational window is bounded by an exponential
    fit and must stay below 1e-6 of the total."""
    ph = spectral.eigenfunctions[0]
    grid = ph.grid
    g = ph.phi * ph.rho
    neg = -float(np.sum(g[g < 0]))
    g = np.clip(g, 0.0, None)
    cum = cumulative_parabolic(grid, g)
    z0 = float(cum[-1])
    if not z0 > 0:
        raise QsdlabError("phi0 * rho carries no mass; wrong regime")
    if neg > 1e-8 * z0:
        raise QsdlabError(
            f"phi0 has substantial negative mass ({neg:.3g} vs Z = {z0:.3g})")
    # exponential bound on the truncated right tail
    tail = math.inf
    n_fit = max(5, len(grid) // 10)
    gs, xs = g[-n_fit:], grid[-n_fit:]
    pos = gs > 0
    if np.sum(pos) >= 3:
        slope = _line_fit(xs[pos], np.log(gs[pos]))[0]
        if slope < 0:
            tail = float(g[-1] / -slope) if g[-1] > 0 else 0.0
    else:
        tail = 0.0   # tail already underflowed to zero
    if not tail <= 1e-6 * z0:
        raise QsdlabError(
            f"estimated tail mass {tail:.3g} beyond x = {grid[-1]:.4g} exceeds "
            f"1e-6 of the total; widen the truncation")
    z = z0 + tail
    dens_vals = g / z

    def density(x):
        return np.interp(x, grid, dens_vals, left=0.0, right=0.0)

    return QsdDensity(density=density, Z=z,
                      support=(float(grid[0]), float(grid[-1])), grid=grid,
                      tail_mass=tail / z, cum=cum / z)


def doob_h_transform(model: DiffusionModel) -> DoobResult:
    """Conditioning on eventual absorption: h(x) = int_x^inf rho^-1 divided
    by the full scale mass, the drift gains h'/h, and the speed density
    becomes h^2 rho.  When absorption is already certain the transform is a
    NoOp and the original model is returned flagged."""
    if model.killing is not None:
        raise QsdlabError("doob_h_transform applies to pure absorption, "
                          "not killed models")
    l, r = model.domain
    if not (math.isfinite(l) and math.isinf(r)):
        raise QsdlabError("doob_h_transform expects domain (l, inf)")
    log_scale = lambda x: -model.log_speed(x)
    tail = improper_integral(log_scale, model.x_ref, math.inf, tol=1e-10)
    if not tail.finite:
        return DoobResult(model=model, h=None, noop=True,
                          reason="absorption certain (scale tail divergent); "
                                 "h == 1 and the transform is the identity")
    left = improper_integral(log_scale, l, model.x_ref, tol=1e-10,
                             split=l + 0.5 * (model.x_ref - l))
    if not left.finite:
        raise QsdlabError("left endpoint inaccessible (scale not integrable "
                          "at l); absorption probability undefined")
    # Assemble h as remaining-tail-beyond-x from a far-right anchor (where
    # log rho first reaches 60, else x_ref) so every contribution has the
    # same sign: the difference form tail - S(x) loses one relative digit per
    # factor-of-ten decay of h and turns the conditioned drift into noise a
    # few e-foldings out.  The anchor's tail is integrated relative to its
    # integrand at the anchor: the level rules' Finite gate is absolute and
    # would pass a tail of size e^-60 after two levels, whatever it missed.
    try:
        anchor = _march_cap(lambda x: float(model.log_speed(x)), model.x_ref,
                            +1.0, 60.0)
    except QsdlabError:
        anchor = model.x_ref
    ls_anchor = float(log_scale(anchor))
    far = improper_integral(lambda x: log_scale(x) - ls_anchor, anchor,
                            math.inf, tol=1e-12).value * math.exp(ls_anchor)
    t_back = TabulatedAntiderivative(model.scale_density, anchor,
                                     domain=model.domain)

    def h_right(x):
        return np.maximum(far - t_back(x), 1e-300)

    h_tot = float(h_right(model.x_ref)) + left.value

    def h_eval(x):
        return h_right(x) / h_tot

    def h_deriv(x):
        return -model.scale_density(x) / h_tot

    h_field = ScalarField(eval=h_eval, deriv=h_deriv)

    def t_fun(x):
        return -model.scale_density(x) / h_right(x)

    mu0, dmu0 = model.drift, model.drift.d

    def drift_eval(x):
        return mu0(x) + t_fun(x)

    def drift_deriv(x):
        t = t_fun(x)
        return dmu0(x) - 2.0 * mu0(x) * t - t ** 2

    def log_speed_h(x):
        return (model.log_speed(x)
                + 2.0 * (np.log(h_right(x)) - math.log(h_tot)))

    new = DiffusionModel(
        drift=ScalarField(eval=drift_eval, deriv=drift_deriv),
        domain=model.domain, x_ref=model.x_ref,
        name=model.name + "_doob", params=dict(model.params),
        log_speed_closed=log_speed_h)
    return DoobResult(model=new, h=h_field, noop=False,
                      reason="conditioned on hitting the left endpoint")


def heat_kernel(spectral: SpectralResult, t: float, x: float, y: float,
                K: Optional[int] = None) -> HeatKernelValue:
    """Truncated eigen-expansion sum_k exp(-lam_k t) phi_k(x) phi_k(y) of the
    transition density w.r.t. rho(dy); exactly symmetric in (x, y); the last
    retained term is reported as the truncation estimate."""
    if t <= 0:
        raise QsdlabError("heat_kernel needs t > 0")
    n = len(spectral.eigenvalues)
    if K is None:
        K = n
    if K < 1 or K > n:
        raise QsdlabError(f"K = {K} outside the computed range 1..{n}")
    total = 0.0
    last = 0.0
    for k in range(K):
        ph = spectral.eigenfunctions[k]
        # group the phi product first so the value is bitwise symmetric in
        # (x, y) rather than symmetric only up to rounding order
        last = math.exp(-spectral.eigenvalues[k] * t) * (float(ph(x)) * float(ph(y)))
        total += last
    return HeatKernelValue(value=total, truncation_estimate=abs(last))
