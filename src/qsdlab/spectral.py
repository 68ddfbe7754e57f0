"""Constructive Sturm-Liouville solver for absorbed 1-d diffusions.

Builds the principal solution near an accessible left endpoint by a
contraction fixed point, locates the bottom eigenvalues by sign-counting +
root shooting against a sealed right truncation with Richardson
extrapolation, cross-validates against an independent finite-element
discretization, handles the killed-on-the-line regime through the
Schrodinger form, and assembles quasistationary densities, Doob transforms
of the conditioned process, and heat-kernel expansions.

Eigenfunction conventions: L2(rho)-normalized, lowest one nonnegative.  The
stored drift is the SDE drift mu (see model.CONVENTION_NOTE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import (DiffusionModel, ScalarField, ScaleSpeed, scale_speed,
                    schrodinger_potential)
from .numerics import (IndeterminateIntegralError, OdeTrajectory, QsdlabError,
                       TabulatedAntiderivative, brent_root,
                       cumulative_parabolic, improper_integral,
                       integrate_sl_system)

__all__ = [
    "ClassificationMismatchError", "USolution", "PhiSolution",
    "SpectralResult", "QsdDensity", "DoobResult", "HeatKernelValue",
    "build_u", "build_phi", "eigen_shoot", "eigen_fd_oracle",
    "eigen_schrodinger", "qsd_density", "doob_h_transform", "heat_kernel",
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
    samples: OdeTrajectory            # continuation beyond delta
    core_grid: np.ndarray             # graded grid on (l + eps0, delta]
    core_u: np.ndarray
    core_w: np.ndarray                # rho u' on the core grid (= 2 lam J)
    eps0: float
    residual: float                   # last fixed-point increment


@dataclass(frozen=True)
class PhiSolution:
    """Principal eigen-candidate phi(lam, .) vanishing at the left endpoint,
    sampled on the merged core + continuation grid."""
    lam: float
    samples: OdeTrajectory
    l1_mass_near_0: float
    delta: Optional[float] = None

    def _flat(self):
        ls = np.clip(self.samples.log_scale, -700.0, 700.0)
        return self.samples.values * np.exp(ls)[:, None]

    def __call__(self, x):
        vals = self._flat()[:, 0]
        return np.interp(x, self.samples.grid, vals, left=0.0, right=0.0)

    def sign_changes(self) -> int:
        v = self._flat()[:, 0]
        v = v[v != 0.0]
        return int(np.sum(v[1:] * v[:-1] < 0))


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
        if len(ev) > 1 and not np.all(np.diff(ev) > 0):
            raise QsdlabError(f"eigenvalues not strictly increasing: {ev}")

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


class _UBuilder:
    """Grids, speed-density samples and contraction bounds for the left-end
    construction, cached per halving level of the radius delta so repeated
    shots at different lam reuse everything lam-independent.  That includes
    each level's Neumann basis v_k = K^k[1] of the lam-free operator K, so a
    shot sums (2 lam)^k v_k with a few vector updates and runs no quadrature
    sweep once the basis is long enough."""

    def __init__(self, model: DiffusionModel, ss: Optional[ScaleSpeed] = None,
                 n_core: int = 1200, eps0_rel: float = 1e-8,
                 delta0: Optional[float] = None):
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
        self.ss = ss if ss is not None else scale_speed(model)
        self.n_core = n_core
        self.eps0_rel = eps0_rel
        self.left = l
        if delta0 is None:
            delta0 = min(1.0, 0.75 * (model.x_ref - l))
            if math.isfinite(r):
                delta0 = min(delta0, 0.25 * (r - l))
        if delta0 <= 0:
            raise QsdlabError(f"cannot seed a construction radius from {model.x_ref}")
        self.delta0 = delta0
        self._levels: dict = {}
        # accessibility probe: the double integral must be stable against the
        # inner cutoff, otherwise the left endpoint is not accessible and no
        # contraction radius exists
        g_a = self._double_integral(delta0, eps0_rel)
        g_b = self._double_integral(delta0, eps0_rel / 16.0)
        if not (math.isfinite(g_a) and math.isfinite(g_b)) \
                or abs(g_a - g_b) > 1e-2 * max(abs(g_a), 1e-300):
            raise ClassificationMismatchError(
                "left endpoint shows no integrable access "
                f"(double integral {g_a:.4g} vs {g_b:.4g} under cutoff refinement); "
                "the constructive route needs an Exit or Regular left end")

    def _grid(self, delta: float, eps0_rel: float):
        gap = delta - self.left
        grid = self.left + np.geomspace(eps0_rel * gap, gap, self.n_core)
        logr = np.asarray(self.ss.log_speed(grid), dtype=float)
        rho = np.exp(np.clip(logr, -700.0, 709.0))
        inv_rho = np.exp(np.clip(-logr, -700.0, 709.0))
        return grid, rho, inv_rho

    def _double_integral(self, delta: float, eps0_rel: float) -> float:
        grid, rho, inv_rho = self._grid(delta, eps0_rel)
        j = _tail_cumulative(grid, rho)
        return float(cumulative_parabolic(grid, inv_rho * j)[-1])

    def _level(self, j: int) -> dict:
        if j not in self._levels:
            delta = self.delta0 * 0.5 ** j
            grid, rho, inv_rho = self._grid(delta, self.eps0_rel)
            lv = {"delta": delta, "grid": grid, "rho": rho, "inv_rho": inv_rho,
                  "basis": [(np.ones_like(grid), _tail_cumulative(grid, rho))]}
            lv["G"] = float(self._basis(lv, 1)[0][-1])
            self._levels[j] = lv
        return self._levels[j]

    def build(self, lam: float, x_to: Optional[float] = None,
              n_samples: int = 600) -> USolution:
        # choose the radius by halving until the contraction factor closes
        j = 0
        while True:
            lv = self._level(j)
            eps = 2.0 * abs(lam) * lv["G"]
            if eps <= 0.45:
                # also require the iterates to stay away from zero; the
                # geometric bound gives u >= 1 - eps/(1-eps)
                u, w, residual = self._iterate(lv, lam)
                if np.min(u) > 0.05:
                    break
            j += 1
            if j > 60:
                raise ClassificationMismatchError(
                    f"contraction radius collapsed below {self.delta0 * 0.5 ** 60:.3g} "
                    f"at lam = {lam}; left endpoint unsuitable for the construction")
        self._last_level = lv
        grid, delta = lv["grid"], lv["delta"]
        if x_to is not None and x_to > delta:
            traj = integrate_sl_system(self.model, self.ss, lam, delta, x_to,
                                       init=(float(u[-1]), 0.0),
                                       n_samples=n_samples)
        else:
            traj = OdeTrajectory(grid=np.array([delta]),
                                 values=np.array([[float(u[-1]), 0.0]]),
                                 log_scale=np.zeros(1), x_from=delta,
                                 x_to=delta, final=(float(u[-1]), 0.0),
                                 final_log_scale=0.0)
        return USolution(lam=lam, delta=delta, contraction_factor=eps,
                         samples=traj, core_grid=grid, core_u=u, core_w=w,
                         eps0=float(grid[0] - self.left), residual=residual)

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

    def phi(self, lam: float, x_to: Optional[float] = None,
            n_samples: int = 600) -> PhiSolution:
        us = self.build(lam, x_to=None)
        lv = self._last_level              # the level build() settled on
        grid, rho, inv_rho = us.core_grid, lv["rho"], lv["inv_rho"]
        integ = inv_rho / us.core_u ** 2
        # sub-cutoff mass of the scale integral from a local power fit
        tail0 = 0.0
        x0g, x1g = grid[0] - self.left, grid[1] - self.left
        if integ[0] > 0 and integ[1] > 0:
            p = math.log(integ[1] / integ[0]) / math.log(x1g / x0g)
            if p > -0.99:
                tail0 = integ[0] * x0g / (p + 1.0)
        j2 = cumulative_parabolic(grid, integ) + tail0
        phi = us.core_u * j2
        w_phi = us.core_w * j2 + 1.0 / us.core_u
        l1 = float(cumulative_parabolic(grid, np.abs(phi) * rho)[-1])
        if x_to is not None and x_to > us.delta:
            traj = integrate_sl_system(self.model, self.ss, lam, us.delta,
                                       x_to, init=(float(phi[-1]), float(w_phi[-1])),
                                       n_samples=n_samples)
            grid_full = np.concatenate((grid, traj.grid[1:]))
            values = np.vstack((np.column_stack((phi, w_phi)),
                                traj.values[1:]))
            lscale = np.concatenate((np.zeros(len(grid)), traj.log_scale[1:]))
            final, final_ls = traj.final, traj.final_log_scale
            x_end = x_to
        else:
            grid_full = grid
            values = np.column_stack((phi, w_phi))
            lscale = np.zeros(len(grid))
            final, final_ls = (float(phi[-1]), float(w_phi[-1])), 0.0
            x_end = us.delta
        samples = OdeTrajectory(grid=grid_full, values=values,
                                log_scale=lscale, x_from=float(grid[0]),
                                x_to=x_end, final=final,
                                final_log_scale=final_ls)
        return PhiSolution(lam=lam, samples=samples, l1_mass_near_0=l1,
                           delta=us.delta)


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
    return _UBuilder(model).phi(lam, x_to=x_to)


# ---------------------------------------------------------------------------
# eigenvalues by shooting against a sealed truncation
# ---------------------------------------------------------------------------

_DEFAULT_LOGRHO_CAPS = (30.0, 42.0, 60.0)


def _truncation_ladder(model: DiffusionModel, ss: ScaleSpeed,
                       caps: Sequence[float] = _DEFAULT_LOGRHO_CAPS) -> list:
    """Right cutoffs where |log rho| first exceeds each cap."""
    ladder = []
    for cap in caps:
        x = model.x_ref + max(1.0, abs(model.x_ref))
        prev = model.x_ref
        while abs(float(ss.log_speed(x))) < cap:
            prev = x
            x = model.x_ref + 1.25 * (x - model.x_ref)
            if x - model.x_ref > 1e7:
                raise QsdlabError(
                    "no speed decay found toward the right endpoint; "
                    "cannot build a truncation ladder (wrong spectral regime?)")
        lo, hi = prev, x
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if abs(float(ss.log_speed(mid))) < cap:
                lo = mid
            else:
                hi = mid
        ladder.append(0.5 * (lo + hi))
    return ladder


def _sgn(v: float) -> int:
    return -1 if v < 0 else 1


def eigen_shoot(model: DiffusionModel, K: int = 1,
                truncations: Optional[Sequence[float]] = None,
                n_samples: int = 600) -> SpectralResult:
    """Lowest K eigenvalues of the absorbed generator by shooting.

    For each right truncation T the k-th eigenvalue of the sealed problem
    (rho phi' = 0 at T) is isolated by the augmented oscillation count --
    interior sign changes of phi plus one when the sign of the miss
    rho phi'(T) disagrees with the count parity -- and polished by brentq on
    the miss; the reported eigenvalues are Richardson-extrapolated in 1/T^2
    across the truncation ladder.  Eigenfunctions are the sealed solutions at
    the widest truncation, L2(rho)-normalized.  `evidence` holds the roots
    and the number of distinct lam shot at each truncation; the eigenfunctions
    take K more shots.
    """
    if K < 1:
        raise QsdlabError("K must be >= 1")
    ss = scale_speed(model)
    ub = _UBuilder(model, ss)
    if truncations is None:
        truncations = _truncation_ladder(model, ss)
    truncations = [float(t) for t in truncations]
    if len(truncations) < 2:
        raise QsdlabError("need at least two truncations for extrapolation")
    if not all(b > a for a, b in zip(truncations, truncations[1:])):
        raise QsdlabError(f"truncation ladder not increasing: {truncations}")

    roots_by_t, shots_by_t = {}, {}
    for t_cut in truncations:
        cache: dict = {}

        def shot(lam: float):
            if lam not in cache:
                ph = ub.phi(lam, x_to=t_cut, n_samples=n_samples)
                count = ph.sign_changes()
                miss = float(ph.samples.final[1])
                expected = 1 if count % 2 == 0 else -1
                sc = count + (0 if _sgn(miss) == expected else 1)
                cache[lam] = (sc, miss, ph)
            return cache[lam]

        sc0, m0, _ = shot(0.0)
        if not (sc0 == 0 and m0 > 0):
            raise QsdlabError(
                f"shooting baseline violated at T = {t_cut:.4g}: "
                f"count-augmented index {sc0}, miss {m0:.3g} at lam = 0")

        roots = []
        for k in range(1, K + 1):
            # expand until the augmented count reaches k
            hi = max(1.0, 2.0 * (roots[-1] if roots else 0.0))
            grow = 0
            while shot(hi)[0] < k:
                hi *= 2.0
                grow += 1
                if grow > 60:
                    raise QsdlabError(
                        f"{K} eigenvalues not found below the search ceiling "
                        f"(T = {t_cut:.4g})")
            lo = max([l for l in cache if cache[l][0] < k], default=0.0)
            # bisect until the augmented count steps by exactly one
            for _ in range(200):
                if cache[hi][0] - cache[lo][0] == 1 \
                        and hi - lo <= 0.02 * (1.0 + hi):
                    break
                mid = 0.5 * (lo + hi)
                if shot(mid)[0] < k:
                    lo = mid
                else:
                    hi = mid
            else:
                raise QsdlabError("eigenvalue isolation failed to converge")
            root = brent_root(lambda lam: shot(lam)[1], (lo, hi),
                              tol=1e-11 * (1.0 + hi))
            roots.append(root)
        roots_by_t[t_cut] = roots
        shots_by_t[t_cut] = len(cache)

    # Richardson in 1/T^2 across the ladder
    ts = np.array(truncations)
    eigenvalues = np.empty(K)
    errors = np.empty(K)
    for k in range(K):
        lam_t = np.array([roots_by_t[t][k] for t in truncations])
        extr = [(lam_t[i + 1] * ts[i + 1] ** 2 - lam_t[i] * ts[i] ** 2)
                / (ts[i + 1] ** 2 - ts[i] ** 2) for i in range(len(ts) - 1)]
        eigenvalues[k] = extr[-1]
        errors[k] = (abs(extr[-1] - extr[-2]) if len(extr) >= 2
                     else abs(extr[-1] - lam_t[-1]))

    t_max = truncations[-1]
    funcs = []
    for k in range(K):
        ph = ub.phi(roots_by_t[t_max][k], x_to=t_max, n_samples=n_samples)
        funcs.append(_normalize_phi(ph, ss))
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


def _normalize_phi(ph: PhiSolution, ss: ScaleSpeed) -> PhiSolution:
    grid = ph.samples.grid
    flat = ph._flat()
    vals, wvals = flat[:, 0].copy(), flat[:, 1].copy()
    rho = ss.speed_density(grid)
    nrm2 = float(np.trapezoid(vals ** 2 * rho, grid))
    if not nrm2 > 0:
        raise QsdlabError("cannot normalize a vanishing eigenfunction")
    nrm = math.sqrt(nrm2)
    # sign convention: positive near the left endpoint
    probe = vals[np.nonzero(vals)[0][0]] if np.any(vals) else 1.0
    s = 1.0 if probe >= 0 else -1.0
    vals = s * vals / nrm
    wvals = s * wvals / nrm
    samples = OdeTrajectory(grid=grid, values=np.column_stack((vals, wvals)),
                            log_scale=np.zeros(len(grid)),
                            x_from=ph.samples.x_from, x_to=ph.samples.x_to,
                            final=(float(vals[-1]), float(wvals[-1])),
                            final_log_scale=0.0)
    return PhiSolution(lam=ph.lam, samples=samples,
                       l1_mass_near_0=ph.l1_mass_near_0 / nrm, delta=ph.delta)


# ---------------------------------------------------------------------------
# finite-element oracle
# ---------------------------------------------------------------------------

def _march_cap(fun: Callable[[float], float], start: float, direction: float,
               level: float, hard: float = 1e7) -> float:
    """First point (going in `direction`) where fun >= level, refined by
    bisection."""
    x = start + direction * max(1.0, abs(start))
    prev = start
    while fun(x) < level:
        prev = x
        x = start + 1.4 * (x - start)
        if abs(x - start) > hard:
            raise QsdlabError("cap search ran away; wrong regime for this solver")
    lo, hi = prev, x
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if fun(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fd_window(model: DiffusionModel, ss: ScaleSpeed,
               truncation) -> tuple:
    l, r = model.domain
    if truncation is not None and np.ndim(truncation) == 1:
        lo, hi = float(truncation[0]), float(truncation[1])
        return lo, hi
    if math.isfinite(l):
        lo = l
    else:
        lo = _march_cap(lambda x: abs(float(ss.log_speed(x))), model.x_ref,
                        -1.0, 60.0)
    if truncation is not None:
        hi = float(truncation)
    elif math.isfinite(r):
        hi = r
    else:
        hi = _march_cap(lambda x: abs(float(ss.log_speed(x))), model.x_ref,
                        +1.0, 60.0)
    if not hi > lo:
        raise QsdlabError(f"empty FD window ({lo}, {hi})")
    return lo, hi


def _fd_once(model: DiffusionModel, ss: ScaleSpeed, lo: float, hi: float,
             n: int, K: int, left_bc: str, right_bc: str, graded: bool):
    gap = hi - lo
    if graded:
        r0 = 1e-4 * gap
        knots = np.unique(np.concatenate((
            [0.0], np.geomspace(r0, gap, n // 2), np.linspace(r0, gap, n - n // 2))))
        nodes = lo + knots
    else:
        nodes = np.linspace(lo, hi, n)
    h = np.diff(nodes)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    rhob = ss.speed_density(mids)
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
        kdiag = kdiag + np.asarray(model.killing(nodes), dtype=float) * mass
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
    vals, vecs = eigh_tridiagonal(main, offsel, select="i",
                                  select_range=(0, K - 1))
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
        lam = np.array([r.eigenvalues for r in per_t])     # (n_T, K)
        ts2 = np.array(lads) ** 2
        extr = [(lam[i + 1] * ts2[i + 1] - lam[i] * ts2[i])
                / (ts2[i + 1] - ts2[i]) for i in range(len(lads) - 1)]
        err_t = (np.max(np.abs(extr[-1] - extr[-2])) if len(extr) >= 2
                 else np.max(np.abs(extr[-1] - lam[-1])))
        mesh_err = max(r.extrapolation_error for r in per_t)
        return SpectralResult(
            eigenvalues=extr[-1], eigenfunctions=per_t[-1].eigenfunctions,
            truncation=tuple(lads),
            extrapolation_error=float(max(err_t, mesh_err)),
            method="fd",
            evidence={"per_truncation": [list(map(float, r.eigenvalues))
                                         for r in per_t],
                      "grid_size": grid_size})
    ss = scale_speed(model)
    l, r = model.domain
    lo, hi = _fd_window(model, ss, truncation)
    if right_bc is None:
        right_bc = "dirichlet" if math.isfinite(r) else "sealed"
    graded = math.isfinite(l)
    coarse, _, _, _ = _fd_once(model, ss, lo, hi, grid_size // 2, K,
                               left_bc, right_bc, graded)
    fine, fs, nodes, mm = _fd_once(model, ss, lo, hi, grid_size, K,
                                   left_bc, right_bc, graded)
    ext = (4.0 * fine - coarse) / 3.0
    errs = np.abs(fine - coarse) / 3.0

    rho_nodes = ss.speed_density(nodes)
    funcs = []
    for k in range(K):
        f = fs[:, k]
        i_first = int(np.argmax(np.abs(f) > 1e-12 * np.max(np.abs(f))))
        if f[i_first] < 0:
            f = -f
        w = rho_nodes * np.gradient(f, nodes)
        samples = OdeTrajectory(grid=nodes, values=np.column_stack((f, w)),
                                log_scale=np.zeros(len(nodes)),
                                x_from=float(nodes[0]), x_to=float(nodes[-1]),
                                final=(float(f[-1]), float(w[-1])),
                                final_log_scale=0.0)
        l1 = float(np.trapezoid(np.abs(f) * rho_nodes, nodes))
        funcs.append(PhiSolution(lam=float(ext[k]), samples=samples,
                                 l1_mass_near_0=l1))
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
    """
    l, r = model.domain
    if math.isfinite(l) or math.isfinite(r):
        raise QsdlabError("eigen_schrodinger expects a model on the whole line")
    if K < 1:
        raise QsdlabError("K must be >= 1")
    ss = scale_speed(model)
    pot = schrodinger_potential(model)

    res = improper_integral(lambda x: ss.speed_density(x), -math.inf,
                            math.inf, tol=1e-8, split=float(model.x_ref))
    if not res.finite:
        raise QsdlabError("speed density not integrable on the line; "
                          "no quasistationary regime for this solver")
    if model.killing is not None:
        qs = np.asarray(pot.q(np.array([-10.0, -15.0, -20.0, -30.0])), float)
        if not (np.all(np.diff(qs) < 0) and qs[-1] < -100.0):
            raise QsdlabError(
                f"conjugated potential does not diverge to -inf on the left "
                f"(samples {qs}); hypothesis check failed")

    def edge(x):
        return max(float(pot.V(x)) / _V_CAP,
                   abs(float(ss.log_speed(x))) / _LOGRHO_CAP)

    t_l = _march_cap(edge, float(model.x_ref), -1.0, 1.0)
    t_r = _march_cap(edge, float(model.x_ref), +1.0, 1.0)

    def solve(n):
        nodes = np.linspace(t_l, t_r, n)
        h = nodes[1] - nodes[0]
        inner = nodes[1:-1]
        vv = np.asarray(pot.V(inner), dtype=float)
        main = 1.0 / h ** 2 + vv
        off = np.full(len(inner) - 1, -0.5 / h ** 2)
        vals, vecs = eigh_tridiagonal(main, off, select="i",
                                      select_range=(0, K - 1))
        return vals, vecs / math.sqrt(h), inner

    coarse, _, _ = solve(grid_size // 2 + 1)
    fine, psis, inner = solve(grid_size + 1)
    ext = (4.0 * fine - coarse) / 3.0
    errs = np.abs(fine - coarse) / 3.0

    half_logr = 0.5 * np.asarray(ss.log_speed(inner), dtype=float)
    mu_vals = np.asarray(model.drift(inner), dtype=float)
    funcs = []
    for k in range(K):
        psi = psis[:, k]
        if k == 0:
            if np.trapezoid(psi, inner) < 0:
                psi = -psi
        elif psi[np.argmax(np.abs(psi))] < 0:
            psi = -psi
        phi = psi * np.exp(np.clip(-half_logr, -700.0, 700.0))
        dpsi = np.gradient(psi, inner)
        w = np.exp(np.clip(half_logr, -700.0, 700.0)) * (dpsi - mu_vals * psi)
        samples = OdeTrajectory(grid=inner, values=np.column_stack((phi, w)),
                                log_scale=np.zeros(len(inner)),
                                x_from=float(inner[0]), x_to=float(inner[-1]),
                                final=(float(phi[-1]), float(w[-1])),
                                final_log_scale=0.0)
        l1 = float(np.trapezoid(np.abs(psi) * np.exp(np.clip(half_logr, -700, 700)),
                            inner))
        funcs.append(PhiSolution(lam=float(ext[k]), samples=samples,
                                 l1_mass_near_0=l1))
    if model.killing is not None and K >= 2:
        if not (ext[0] > 0 and ext[1] > ext[0]):
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

def qsd_density(spectral: SpectralResult, ss: ScaleSpeed) -> QsdDensity:
    """Quasistationary density phi0 * rho normalized to a probability; the
    tail mass beyond the computational window is bounded by an exponential
    fit and must stay below 1e-6 of the total."""
    ph = spectral.eigenfunctions[0]
    grid = ph.samples.grid
    vals = ph._flat()[:, 0]
    rho = ss.speed_density(grid)
    g = vals * rho
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
        slope = np.polyfit(xs[pos], np.log(gs[pos]), 1)[0]
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
    if not model.unit_diffusion:
        raise QsdlabError("doob_h_transform needs a unit-diffusion model")
    if model.killing is not None:
        raise QsdlabError("doob_h_transform applies to pure absorption, "
                          "not killed models")
    l, r = model.domain
    if not (math.isfinite(l) and math.isinf(r)):
        raise QsdlabError("doob_h_transform expects domain (l, inf)")
    ss = scale_speed(model)
    tail = improper_integral(lambda x: ss.scale_density(x), model.x_ref,
                             math.inf, tol=1e-10)
    if tail.divergent:
        return DoobResult(model=model, h=None, noop=True,
                          reason="absorption certain (scale tail divergent); "
                                 "h == 1 and the transform is the identity")
    left = improper_integral(lambda x: ss.scale_density(x), l, model.x_ref,
                             tol=1e-10, split=l + 0.5 * (model.x_ref - l))
    if not left.finite:
        raise QsdlabError("left endpoint inaccessible (scale not integrable "
                          "at l); absorption probability undefined")
    # Assemble h as remaining-tail-beyond-x from a far-right anchor so every
    # contribution has the same sign: the difference form tail - S(x) loses
    # one relative digit per factor-of-ten decay of h and turns the
    # conditioned drift into noise a few e-foldings out.
    try:
        x_far = _march_cap(lambda x: float(ss.log_speed(x)), model.x_ref,
                           +1.0, 60.0)
    except QsdlabError:
        x_far = None
    if x_far is not None:
        far = improper_integral(lambda x: ss.scale_density(x), x_far,
                                math.inf, tol=1e-12)
        t_back = TabulatedAntiderivative(lambda x: ss.scale_density(x),
                                         x_far, domain=model.domain)

        def h_right(x):
            return np.maximum(far.value - t_back(x), 1e-300)
    else:
        s_from_ref = TabulatedAntiderivative(lambda x: ss.scale_density(x),
                                             model.x_ref, domain=model.domain)

        def h_right(x):
            return np.maximum(tail.value - s_from_ref(x), 1e-300)

    h_tot = float(h_right(model.x_ref)) + left.value

    def h_eval(x):
        return h_right(x) / h_tot

    def h_deriv(x):
        return -ss.scale_density(x) / h_tot

    h_field = ScalarField(eval=h_eval, deriv=h_deriv, domain=model.domain,
                          expr=None)

    def t_fun(x):
        return -ss.scale_density(x) / h_right(x)

    mu0, dmu0 = model.drift, model.drift.d

    def drift_eval(x):
        return np.asarray(mu0(x), dtype=float) + t_fun(x)

    def drift_deriv(x):
        t = t_fun(x)
        return np.asarray(dmu0(x), dtype=float) - 2.0 * np.asarray(mu0(x), dtype=float) * t - t ** 2

    base_log_speed = ss.log_speed

    def log_speed_h(x):
        return (np.asarray(base_log_speed(x), dtype=float)
                + 2.0 * (np.log(h_right(x)) - math.log(h_tot)))

    new = DiffusionModel(
        drift=ScalarField(eval=drift_eval, deriv=drift_deriv,
                          domain=model.domain, expr=None),
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
