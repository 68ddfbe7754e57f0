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

A run draws from two SFC64 streams keyed from the config seed, so runs are
bit-reproducible for a given (model, config).  The noise stream holds the
Gaussian increments sqrt(dt) Z, read as one flat sequence: step s takes the
next m values, m its live particles, wherever the blocks of `_Noise` end.
One thread fills those blocks ahead of the loop, on another core where
there is one, and the values depend on neither its timing nor the block
size.  The event stream holds the Exp(1) killing thresholds, the bridge
uniforms and the resampling donors.  The state is compacted to live
particles and each step draws for those only: a plain run gets cheaper as
its particles die, while a resampling run, whose ensemble stays full, draws
exactly what a full-ensemble loop would and gives the same bits.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .model import DiffusionModel
from .numerics import QsdlabError, _line_fit, _median, _quantiles, _Record

__all__ = ["SimConfig", "EnsembleResult", "SurvivalCurve", "DichotomyVerdict",
           "run_ensemble", "survival_curve", "histogram_masses",
           "tv_distance", "dichotomy_probe"]


_BLOW_UP = 1e12             # a particle past this |x| is counted as blown up
# the survival fit's time grid, bootstrap size and seed offset, and window:
# from this fraction of t_max on, while this many particles survive
_N_GRID, _N_BOOT, _BOOT_SEED = 200, 200, 7
_FIT_START_FRAC, _MIN_SURVIVORS = 0.5, 100
# the probe's rungs at t_max / 2^j for j < _N_RUNGS, its histogram bins, and
# the in-window mass below which it says "Escapes"
_N_RUNGS, _N_BINS, _ESCAPE_TOL = 5, 24, 0.01
# "Converges" wants the last two rung steps each below this many noise
# floors.  Calibrated on settled runs, each probe started from the t = 8
# ensemble of an earlier run (logistic_X_killed and population_N, n 6000,
# dt 5e-3, t_max 8, seeds 1-24): every step is noise there, and the 192
# steps read 0.38 to 2.22 floors
_TV_FLOOR_MULT = 3.0


def _rng(seed) -> np.random.Generator:
    """An SFC64 generator keyed from `seed`, an int or a SeedSequence."""
    return np.random.Generator(np.random.SFC64(seed))


def _noise_block(n: int) -> int:
    """Values per noise block for n particles: four full steps, and at least
    2^15, so the filler hands a block over every few steps, not every one."""
    return max(2 ** 15, 4 * n)


class _Noise:
    """The increments sqrt(dt) Z of one run, one flat stream for `take`.

    A thread started on entering the block fills two preallocated blocks
    ahead of the reader by `standard_normal(out=...)` and an in-place scale,
    which allocate nothing and release the GIL; leaving the block stops and
    joins it, however the block is left.  The thread alone draws from `rng`,
    and a block's values are the next ones of the stream whatever its size,
    so what `take` gives depends on neither the thread's timing nor the
    block size."""

    def __init__(self, rng: np.random.Generator, scale: float, n: int):
        self._rng, self._scale = rng, scale
        self._blocks = (np.empty(_noise_block(n)), np.empty(_noise_block(n)))
        self._spill = np.empty(n)          # a take that crosses a block end
        # the reader holds block 1, used up, so its first take frees block 1
        # and waits for block 0, the filler's first
        self._free = (threading.Semaphore(1), threading.Semaphore(0))
        self._full = (threading.Semaphore(0), threading.Semaphore(0))
        self._k, self._pos = 1, len(self._blocks[1])
        self._stop = False

    def _fill(self) -> None:
        k = 0
        while True:
            self._free[k].acquire()
            if self._stop:
                return
            block = self._blocks[k]
            self._rng.standard_normal(out=block)
            np.multiply(block, self._scale, out=block)
            self._full[k].release()
            k ^= 1

    def _next_block(self) -> np.ndarray:
        """Hand the used-up block back to the filler; wait for the other."""
        self._free[self._k].release()
        self._k ^= 1
        self._full[self._k].acquire()
        self._pos = 0
        return self._blocks[self._k]

    def take(self, m: int) -> np.ndarray:
        """The next m values (m at most n), valid until the next take."""
        block = self._blocks[self._k]
        if self._pos == len(block):
            block = self._next_block()
        if self._pos + m <= len(block):
            self._pos += m
            return block[self._pos - m:self._pos]
        out, got = self._spill[:m], 0
        while got < m:
            if self._pos == len(block):
                block = self._next_block()
            step = min(m - got, len(block) - self._pos)
            out[got:got + step] = block[self._pos:self._pos + step]
            got += step
            self._pos += step
        return out

    def __enter__(self):
        self._thread = threading.Thread(target=self._fill,
                                        name="qsdlab-noise")
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop = True
        for free in self._free:
            free.release()
        self._thread.join()


@dataclass(frozen=True)
class SimConfig(_Record):
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
        """The fields and the blow-up threshold."""
        return {**super().to_json(), "blow_up": _BLOW_UP}


@dataclass
class EnsembleResult(_Record):
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
    _json_omit = ("snapshots", "final_positions", "death_times")

    @property
    def n_survivors(self) -> int:
        return int(len(self.final_positions))

    def to_json(self):
        """The fields but the positions and death times, with the model
        and the times under their report names, and the survivor count."""
        out = super().to_json()
        out["model"] = out.pop("model_name")
        out["recorded_times"] = out.pop("times")
        return {**out, "n_survivors": self.n_survivors}


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
    noise_rng, events = map(_rng, np.random.SeedSequence(
        int(config.seed)).spawn(2))
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
    thresh = events.standard_exponential(n) if kappa is not None else None
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

    with _Noise(noise_rng, math.sqrt(dt), n) as noise:
        for s in range(1, n_steps + 1):
            m = len(x)
            u = events.random(m) if use_bridge else None
            with np.errstate(invalid="ignore"):   # a NaN drift is read below
                prop = x + model.drift(x) * dt + noise.take(m)

            hit = None
            if fin_l or fin_r:
                hit = np.zeros(m, dtype=bool)
                # Brownian-bridge crossing probabilities; where the proposal
                # is already past the end the exponent is positive and may
                # overflow, but those particles are hit anyway.  Exponents
                # are clipped at -700: np.exp is 10-100x slower where its
                # result is subnormal or flushes to 0, and far from the end
                # almost every one is; the clip changes a decision only for a
                # uniform of exactly 0.0
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
                # a NaN rate makes a clock that never fires, so a live
                # particle reading a non-finite rate ends the run; one
                # reduction per step
                with np.errstate(invalid="ignore"):
                    kap_new = kappa(prop_in)
                    bad = (() if math.isfinite(np.sum(kap_new))
                           else np.flatnonzero(~(np.isfinite(kap_new) | dead)))
                if len(bad):
                    raise QsdlabError(
                        f"non-finite killing rate {kap_new[bad[0]]} read by "
                        f"a live particle at x = {prop_in[bad[0]]}, "
                        f"t = {s * dt:.6g}")
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
                            f"entire ensemble died in one step at "
                            f"t = {s * dt:.4g}; dt too coarse for this "
                            "killing rate")
                    # donor k is the k-th live slot: k plus the number of dead
                    # slots before it, i.e. of dead j with slots[j] - j <= k
                    donors = events.integers(0, m - n_dead, size=n_dead)
                    src = donors + np.searchsorted(slots - np.arange(n_dead),
                                                   donors, side="right")
                    prop[slots] = prop[src]
                    if kappa is not None:
                        # exponential thresholds are memoryless: reset the
                        # clock and redraw, which leaves the residual law
                        # unchanged
                        clock[slots] = 0.0
                        thresh[slots] = events.standard_exponential(n_dead)
                        kap_x[slots] = kap_x[src]
                x = prop
            elif n_dead:
                death[ids[slots]] = s * dt
                keep = ~dead
                x, ids = prop[keep], ids[keep]
                if kappa is not None:
                    clock, thresh, kap_x = (clock[keep], thresh[keep],
                                            kap_x[keep])
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
class SurvivalCurve(_Record):
    rate: float                  # fitted decay rate (-slope of log survival)
    intercept: float
    r_squared: float
    rate_ci: tuple               # bootstrap percentile interval
    n_boot: int
    fit_window: tuple


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
    bootstrap over particles (needs a plain, non-resampled run).  Resampling
    the n death times puts a multinomial number of them in each interval
    between the window's times, with the sample's interval frequencies, so
    a replicate draws those counts, not n death times."""
    if result.config.resample:
        raise QsdlabError("survival_curve needs a plain run (resample=False)")
    n = result.config.n
    t_grid = np.linspace(0.0, result.config.t_max, _N_GRID + 1)[1:]
    counts = n - np.searchsorted(np.sort(result.death_times), t_grid,
                                 side="right")

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
    deaths = rng.multinomial(n, -np.diff(np.r_[n, cw, 0]) / n, size=_N_BOOT)
    rates = np.empty(_N_BOOT)
    for b, cb in enumerate(n - np.cumsum(deaths[:, :-1], axis=1)):
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
class DichotomyVerdict(_Record):
    verdict: str                 # "Converges" | "Escapes" | "Undecided"
    times: np.ndarray
    in_window: np.ndarray        # fraction of the ensemble inside the window
    tv_steps: np.ndarray         # TV between consecutive rung histograms
    tv_floor: float              # the TV that sampling noise alone gives
    window: tuple
    final_positions: np.ndarray  # the conditioned ensemble at t_max
    _json_omit = ("final_positions",)


def dichotomy_probe(model: DiffusionModel, x0, config: SimConfig
                    ) -> DichotomyVerdict:
    """Doubling-ladder test of the long-time alternative for the conditioned
    law: it either settles (quasistationarity) or drifts off to infinity.

    One resampled run records the conditioned ensemble at t_max / 2^j; the
    histograms over a window fitted to the first rung either stabilize in
    total variation ("Converges"), or the in-window mass decays monotonically
    to nearly zero ("Escapes"); anything else is "Undecided".  Stable means
    that the last two rung steps are each below `_TV_FLOOR_MULT` times the
    noise floor: the mean TV between two independent samples of the last
    rung's size from its law (the out-of-window mass one more bin), with
    p_b - q_b ~ N(0, 2 p_b (1 - p_b) / n) per bin.  The verdict also keeps
    that run's final positions, a sample of the conditioned law at t_max,
    outside its JSON form."""
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
    p = np.append(masses[-1], max(1.0 - in_window[-1], 0.0))
    floor = float(np.sum(np.sqrt(p * (1.0 - p)))
                  / math.sqrt(math.pi * len(res.snapshots[-1])))

    if in_window[-1] < _ESCAPE_TOL and np.all(np.diff(in_window) <= 1e-3):
        verdict = "Escapes"
    elif (len(tvs) >= 2 and np.all(tvs[-2:] < _TV_FLOOR_MULT * floor)
          and in_window[-1] > 0.5):
        verdict = "Converges"
    else:
        verdict = "Undecided"
    return DichotomyVerdict(verdict=verdict, times=res.times,
                            in_window=in_window, tv_steps=tvs, tv_floor=floor,
                            window=(float(edges[0]), float(edges[-1])),
                            final_positions=res.final_positions)
