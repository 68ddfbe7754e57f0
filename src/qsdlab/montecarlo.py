"""Killed-path Monte Carlo for unit-diffusion models.

Vectorized Euler-Maruyama with three death mechanisms: crossing a finite
endpoint (with an optional Brownian-bridge correction for intra-step hits),
an integrated-killing clock checked against per-particle Exp(1) thresholds,
and a blow-up guard.  Two operating modes:

* plain (`resample=False`): dead particles stay dead; death times feed the
  survival-curve fit;
* resampling (`resample=True`): a particle that dies is instantly respawned
  at the position of a uniformly chosen survivor, so the ensemble tracks the
  conditioned-on-survival law with every particle alive (O(1/n) bias).

All random draws go through one counter-based generator keyed from the
config seed, so runs are bit-reproducible for a given (model, config).  The
state is compacted to live particles and each step draws normals (and
bridge uniforms) for those only: a plain run gets cheaper as its particles
die, while a resampling run, whose ensemble stays full, draws exactly what
a full-ensemble loop would and gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .model import DiffusionModel
from .numerics import QsdlabError, _line_fit, _median, _quantiles

__all__ = ["SimConfig", "EnsembleResult", "SurvivalCurve", "DichotomyVerdict",
           "run_ensemble", "survival_curve", "histogram_masses",
           "tv_distance", "dichotomy_probe"]


_BLOW_UP = 1e12             # a particle past this |x| is counted as blown up
# the survival fit's time grid, bootstrap size and seed offset, and window:
# from this fraction of t_max on, while this many particles survive
_N_GRID, _N_BOOT, _BOOT_SEED = 200, 200, 7
_FIT_START_FRAC, _MIN_SURVIVORS = 0.5, 100
# the probe's rungs at t_max / 2^j for j < _N_RUNGS, its histogram bins, and
# the thresholds of its "Converges" and "Escapes" verdicts
_N_RUNGS, _N_BINS, _TV_TOL, _ESCAPE_TOL = 5, 24, 0.02, 0.01


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


@dataclass(frozen=True)
class SimConfig:
    dt: float
    n: int
    t_max: float
    seed: int = 20260814
    bridge: bool = True
    resample: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise QsdlabError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(self.t_max):
            raise QsdlabError(f"t_max must be finite, got {self.t_max}")
        if self.n < 2:
            raise QsdlabError(f"need at least 2 particles, got {self.n}")
        if self.t_max < self.dt:
            raise QsdlabError("t_max shorter than one step")

    def to_json(self):
        return {"dt": self.dt, "n": self.n, "t_max": self.t_max,
                "seed": self.seed, "bridge": self.bridge,
                "resample": self.resample, "blow_up": _BLOW_UP}


@dataclass
class EnsembleResult:
    model_name: str
    config: SimConfig
    times: np.ndarray                 # recorded times
    n_alive: np.ndarray               # live count at each recorded time
    snapshots: list                   # live positions (copies) per record
    final_positions: np.ndarray       # live positions at t_max
    death_times: np.ndarray           # +inf for survivors; respawns excluded
    n_absorbed: int = 0
    n_killed: int = 0
    n_blown: int = 0

    @property
    def n_survivors(self) -> int:
        return int(len(self.final_positions))

    def to_json(self):
        return {"model": self.model_name, "config": self.config.to_json(),
                "n_survivors": self.n_survivors,
                "n_absorbed": self.n_absorbed, "n_killed": self.n_killed,
                "n_blown": self.n_blown,
                "recorded_times": [float(t) for t in self.times],
                "n_alive": [int(c) for c in self.n_alive]}


def run_ensemble(model: DiffusionModel, x0, config: SimConfig,
                 record_times: Optional[Sequence[float]] = None
                 ) -> EnsembleResult:
    """Simulate n killed/absorbed paths of dX = mu dt + dW up to t_max.

    The state arrays hold live particles only; slot i carries particle
    ids[i].  A plain run compresses dead slots away, which keeps the slots in
    id order; a resampling run refills each dead slot from a survivor, so
    there every slot stays live and ids[i] == i."""
    if not model.unit_diffusion:
        raise QsdlabError("run_ensemble needs sigma == 1; reduce first")
    l, r = model.domain
    fin_l, fin_r = math.isfinite(l), math.isfinite(r)
    n, dt = config.n, config.dt
    sqrt_dt = math.sqrt(dt)
    rng = _rng(config.seed)
    kappa = model.killing

    x = np.full(n, float(x0)) if np.ndim(x0) == 0 else np.asarray(x0, float).copy()
    if len(x) != n:
        raise QsdlabError(f"x0 has {len(x)} entries for n = {n}")
    if not np.all(np.isfinite(x)):
        raise QsdlabError("initial positions must be finite")
    if (fin_l and np.any(x <= l)) or (fin_r and np.any(x >= r)):
        raise QsdlabError("initial positions must be interior")
    ids = np.arange(n)
    death = np.full(n, np.inf)
    clock = np.zeros(n) if kappa is not None else None
    thresh = rng.standard_exponential(n) if kappa is not None else None
    kap_x = kappa(x) if kappa is not None else None
    # killing is evaluated at endpoint-clipped positions: a proposal past a
    # finite end is absorbed, but kappa may be undefined there
    lo_c = l + 1e-12 * (1.0 + abs(l)) if fin_l else -np.inf
    hi_c = r - 1e-12 * (1.0 + abs(r)) if fin_r else np.inf
    n_absorbed = n_killed = n_blown = 0

    n_steps = int(round(config.t_max / dt))
    if record_times is None:
        record_times = []
    rec_steps = sorted({min(max(int(round(t / dt)), 1), n_steps)
                        for t in record_times})
    times, counts, snaps = [], [], []
    rec_ptr = 0
    use_bridge = config.bridge and (fin_l or fin_r)

    def record_through(step):
        # once everyone has died, x is empty and later records read 0
        nonlocal rec_ptr
        while rec_ptr < len(rec_steps) and rec_steps[rec_ptr] <= step:
            times.append(rec_steps[rec_ptr] * dt)
            counts.append(len(x))
            snaps.append(x.copy())
            rec_ptr += 1

    for s in range(1, n_steps + 1):
        m = len(x)
        z = rng.standard_normal(m)
        u = rng.random(m) if use_bridge else None
        with np.errstate(invalid="ignore"):       # a NaN drift is read below
            prop = x + model.drift(x) * dt + sqrt_dt * z

        hit = None
        if fin_l or fin_r:
            hit = np.zeros(m, dtype=bool)
            # Brownian-bridge crossing probabilities; where the proposal is
            # already past the end the exponent is positive and may overflow,
            # but those particles are hit anyway.  Exponents are clipped at
            # -700: np.exp is 10-100x slower where its result is subnormal or
            # flushes to 0, and far from the end almost every one is; the
            # clip changes a decision only for a uniform of exactly 0.0
            with np.errstate(over="ignore"):
                if fin_l:
                    hit |= prop <= l
                    if use_bridge:
                        hit |= u < np.exp(np.maximum(
                            -2.0 * (x - l) * (prop - l) / dt, -700.0))
                if fin_r:
                    hit |= prop >= r
                    if use_bridge:
                        hit |= u < np.exp(np.maximum(
                            -2.0 * (r - x) * (r - prop) / dt, -700.0))

        dead = ~(np.abs(prop) <= _BLOW_UP)          # NaN included
        if hit is not None:
            dead |= hit
        if kappa is not None:
            prop_in = np.clip(prop, lo_c, hi_c) if fin_l or fin_r else prop
            # a NaN rate makes a clock that never fires, so a live particle
            # reading a non-finite rate ends the run; one reduction per step
            with np.errstate(invalid="ignore"):
                kap_new = kappa(prop_in)
                bad = (() if math.isfinite(np.sum(kap_new))
                       else np.flatnonzero(~(np.isfinite(kap_new) | dead)))
            if len(bad):
                raise QsdlabError(
                    f"non-finite killing rate {kap_new[bad[0]]} read by a live "
                    f"particle at x = {prop_in[bad[0]]}, t = {s * dt:.6g}")
            clock += 0.5 * dt * (kap_x + kap_new)
            kap_x = kap_new
            dead |= clock > thresh

        # a death counts as absorbed before killed before blown up
        slots = np.flatnonzero(dead)
        n_dead = len(slots)
        if n_dead:
            nan = slots[np.isnan(prop[slots])]
            if len(nan):
                raise QsdlabError(f"drift reads nan at x = {x[nan[0]]}, "
                                  f"t = {(s - 1) * dt:.6g}")
            absorbed = (hit[slots] if hit is not None
                        else np.zeros(n_dead, dtype=bool))
            n_hit = int(np.count_nonzero(absorbed))
            n_kill = (int(np.count_nonzero((clock[slots] > thresh[slots])
                                           & ~absorbed))
                      if kappa is not None else 0)
            n_absorbed += n_hit
            n_killed += n_kill
            n_blown += n_dead - n_hit - n_kill

        if config.resample:
            if n_dead:
                if n_dead == m:
                    raise QsdlabError(
                        f"entire ensemble died in one step at t = {s * dt:.4g}; "
                        "dt too coarse for this killing rate")
                # donor k is the k-th live slot: k plus the number of dead
                # slots before it, i.e. of dead j with slots[j] - j <= k
                donors = rng.integers(0, m - n_dead, size=n_dead)
                src = donors + np.searchsorted(slots - np.arange(n_dead),
                                               donors, side="right")
                prop[slots] = prop[src]
                if kappa is not None:
                    # exponential thresholds are memoryless: reset the clock
                    # and redraw, which leaves the residual law unchanged
                    clock[slots] = 0.0
                    thresh[slots] = rng.standard_exponential(n_dead)
                    kap_x[slots] = kap_x[src]
            x = prop
        elif n_dead:
            death[ids[slots]] = s * dt
            keep = ~dead
            x, ids = prop[keep], ids[keep]
            if kappa is not None:
                clock, thresh, kap_x = clock[keep], thresh[keep], kap_x[keep]
        else:
            x = prop

        record_through(s)
        if len(x) == 0:
            break
    record_through(n_steps)

    return EnsembleResult(model_name=model.name, config=config,
                          times=np.asarray(times),
                          n_alive=np.asarray(counts, dtype=int),
                          snapshots=snaps, final_positions=x.copy(),
                          death_times=death, n_absorbed=n_absorbed,
                          n_killed=n_killed, n_blown=n_blown)


# ---------------------------------------------------------------------------
# survival-curve fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalCurve:
    rate: float                  # fitted decay rate (-slope of log survival)
    intercept: float
    r_squared: float
    rate_ci: tuple               # bootstrap percentile interval
    n_boot: int
    fit_window: tuple

    def to_json(self):
        return {"rate": self.rate, "intercept": self.intercept,
                "r_squared": self.r_squared,
                "rate_ci": [float(self.rate_ci[0]), float(self.rate_ci[1])],
                "n_boot": self.n_boot,
                "fit_window": [float(self.fit_window[0]),
                               float(self.fit_window[1])]}


def _counts_at(sorted_death: np.ndarray, t_grid: np.ndarray, n: int) -> np.ndarray:
    return n - np.searchsorted(sorted_death, t_grid, side="right")


def _fit_rate(t: np.ndarray, frac: np.ndarray) -> tuple:
    y = np.log(frac)
    slope, intercept = _line_fit(t, y)
    resid = y - (slope * t + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return -float(slope), float(intercept), r2


def survival_curve(result: EnsembleResult) -> SurvivalCurve:
    """Fit log P(T > t) = -rate * t + c on the late part of the run.

    The window keeps times past `_FIT_START_FRAC * t_max` while at least
    `_MIN_SURVIVORS` particles remain; the rate uncertainty is a percentile
    bootstrap over particles (needs a plain, non-resampled run)."""
    if result.config.resample:
        raise QsdlabError("survival_curve needs a plain run (resample=False)")
    n = result.config.n
    sorted_death = np.sort(result.death_times)
    t_grid = np.linspace(0.0, result.config.t_max, _N_GRID + 1)[1:]
    counts = _counts_at(sorted_death, t_grid, n)

    sel = ((t_grid >= _FIT_START_FRAC * result.config.t_max)
           & (counts >= _MIN_SURVIVORS))
    if np.sum(sel) < 4:
        raise QsdlabError(
            f"survival fit window too small ({int(np.sum(sel))} points with "
            f">= {_MIN_SURVIVORS} survivors past t = "
            f"{_FIT_START_FRAC * result.config.t_max:.3g})")
    tw, cw = t_grid[sel], counts[sel]
    rate, intercept, r2 = _fit_rate(tw, cw / n)

    rng = _rng(result.config.seed + _BOOT_SEED)
    rates = np.empty(_N_BOOT)
    for b in range(_N_BOOT):
        resampled = np.sort(result.death_times[rng.integers(0, n, size=n)])
        cb = _counts_at(resampled, tw, n)
        good = cb > 0
        if np.sum(good) < 4:
            rates[b] = np.nan
            continue
        rates[b] = _fit_rate(tw[good], cb[good] / n)[0]
    rates = rates[np.isfinite(rates)]
    if len(rates) < _N_BOOT // 2:
        raise QsdlabError("bootstrap collapsed; too few survivors for a rate CI")
    ci = tuple(_quantiles(rates, (2.5 / 100, 97.5 / 100)))   # percentiles
    return SurvivalCurve(rate=rate, intercept=intercept,
                         r_squared=r2, rate_ci=ci, n_boot=_N_BOOT,
                         fit_window=(float(tw[0]), float(tw[-1])))


# ---------------------------------------------------------------------------
# conditioned laws and total variation
# ---------------------------------------------------------------------------

def histogram_masses(positions: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Fraction of the sample in each bin (out-of-range mass is dropped,
    so the masses need not sum to 1)."""
    positions = np.asarray(positions, dtype=float)
    if len(positions) == 0:
        raise QsdlabError("no positions to bin (everything died?)")
    h, _ = np.histogram(positions, bins=np.asarray(edges, dtype=float))
    return h / len(positions)


def tv_distance(p, q, include_remainder: bool = True) -> float:
    """Total variation between two sub-probability vectors on the same bins;
    with `include_remainder` the out-of-bin masses 1-sum(p), 1-sum(q) are
    compared too."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise QsdlabError(f"bin mismatch: {p.shape} vs {q.shape}")
    tv = float(np.sum(np.abs(p - q)))
    if include_remainder:
        tv += abs((1.0 - p.sum()) - (1.0 - q.sum()))
    return 0.5 * tv


# ---------------------------------------------------------------------------
# long-time dichotomy probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomyVerdict:
    verdict: str                 # "Converges" | "Escapes" | "Undecided"
    times: np.ndarray
    in_window: np.ndarray        # fraction of the ensemble inside the window
    tv_steps: np.ndarray         # TV between consecutive rung histograms
    window: tuple
    final_positions: np.ndarray  # the conditioned ensemble at t_max

    def to_json(self):
        return {"verdict": self.verdict,
                "times": [float(t) for t in self.times],
                "in_window": [float(v) for v in self.in_window],
                "tv_steps": [float(v) for v in self.tv_steps],
                "window": [float(self.window[0]), float(self.window[1])]}


def dichotomy_probe(model: DiffusionModel, x0, config: SimConfig
                    ) -> DichotomyVerdict:
    """Doubling-ladder test of the long-time alternative for the conditioned
    law: it either settles (quasistationarity) or drifts off to infinity.

    One resampled run records the conditioned ensemble at t_max / 2^j; the
    histograms over a window fitted to the first rung either stabilize in
    total variation ("Converges"), or the in-window mass decays monotonically
    to nearly zero ("Escapes"); anything else is "Undecided".  The verdict
    also keeps that run's final positions, a sample of the conditioned law
    at t_max, outside its JSON form."""
    rungs = [config.t_max / 2 ** j for j in range(_N_RUNGS - 1, 0, -1)]
    rungs.append(config.t_max)
    res = run_ensemble(model, x0, replace(config, resample=True),
                       record_times=rungs)
    if len(res.times) != len(rungs):
        raise QsdlabError("probe lost its recording rungs; shorten dt")

    first = res.snapshots[0]
    l, r = model.domain
    q_lo, q_hi = _quantiles(first, (0.005, 0.995))
    lo = float(l) if math.isfinite(l) else q_lo - 5.0
    hi = max(2.0 * q_hi, _median(first) + 8.0)
    if math.isfinite(r):
        hi = min(hi, float(r))
    if not hi > lo:
        raise QsdlabError(f"degenerate probe window ({lo}, {hi})")
    edges = np.linspace(lo, hi, _N_BINS + 1)

    masses = [histogram_masses(s, edges) for s in res.snapshots]
    in_window = np.array([float(m.sum()) for m in masses])
    tvs = np.array([tv_distance(a, b) for a, b in zip(masses, masses[1:])])

    if in_window[-1] < _ESCAPE_TOL and np.all(np.diff(in_window) <= 1e-3):
        verdict = "Escapes"
    elif len(tvs) >= 2 and np.all(tvs[-2:] < _TV_TOL) and in_window[-1] > 0.5:
        verdict = "Converges"
    else:
        verdict = "Undecided"
    return DichotomyVerdict(verdict=verdict, times=res.times,
                            in_window=in_window, tv_steps=tvs,
                            window=(float(edges[0]), float(edges[-1])),
                            final_positions=res.final_positions)
