"""Path-simulation tests.

The two distributional checks run against exact laws (constant killing rate
=> exponential clock; driftless absorbed motion => reflection principle), so
failures mean real bias, not a stale regression constant.  Everything else is
determinism, bookkeeping, and the long-time dichotomy verdicts.
"""
import dataclasses
import math
import threading

import numpy as np
import pytest

from qsdlab import montecarlo
from qsdlab.model import DiffusionModel, ScalarField
from qsdlab.montecarlo import (
    _TV_FLOOR_MULT,
    EnsembleResult,
    SimConfig,
    dichotomy_probe,
    histogram_masses,
    run_ensemble,
    survival_curve,
    tv_distance,
)
from qsdlab.numerics import QsdlabError
from qsdlab.zoo import zoo_build


def _bm_half_line():
    return DiffusionModel(drift=ScalarField.constant(0.0),
                          domain=(0.0, math.inf), x_ref=1.0, name="bm")


def test_config_validation():
    with pytest.raises(QsdlabError):
        SimConfig(dt=0.0, n=100, t_max=1.0)
    with pytest.raises(QsdlabError):
        SimConfig(dt=0.01, n=1, t_max=1.0)
    with pytest.raises(QsdlabError):
        SimConfig(dt=0.5, n=100, t_max=0.1)
    with pytest.raises(QsdlabError, match="t_max must be finite"):
        SimConfig(dt=0.1, n=100, t_max=math.inf)


def test_run_is_deterministic():
    m = _bm_half_line()
    cfg = SimConfig(dt=1e-3, n=500, t_max=0.2, seed=123)
    a = run_ensemble(m, 1.0, cfg)
    b = run_ensemble(m, 1.0, cfg)
    assert np.array_equal(a.final_positions, b.final_positions)
    assert np.array_equal(a.death_times, b.death_times)
    c = run_ensemble(m, 1.0, SimConfig(dt=1e-3, n=500, t_max=0.2, seed=124))
    assert not np.array_equal(a.final_positions, c.final_positions)


def test_constant_killing_matches_exponential_clock():
    # kappa == 2: the trapezoid clock is exact, so survival is e^{-2t}
    # regardless of dt; tolerance is pure sampling noise (4 SE)
    m = DiffusionModel(drift=ScalarField.constant(0.0),
                       domain=(-math.inf, math.inf), x_ref=0.0,
                       killing=ScalarField.constant(2.0), name="flatkill")
    n = 40000
    res = run_ensemble(m, 0.0, SimConfig(dt=0.01, n=n, t_max=1.0, seed=5))
    want = math.exp(-2.0)
    se = math.sqrt(want * (1 - want) / n)
    assert abs(res.n_survivors / n - want) < 4 * se
    assert res.n_killed == n - res.n_survivors
    assert res.n_absorbed == 0


def test_absorbed_motion_matches_reflection_law():
    # driftless unit diffusion from 1 absorbed at 0: P(T_0 > t) = erf(1/sqrt(2t));
    # the Euler increments are exact in law here and the crossing bridge fixes
    # the within-step hits, so again only sampling noise remains
    n = 40000
    res = run_ensemble(_bm_half_line(), 1.0,
                       SimConfig(dt=2.5e-4, n=n, t_max=0.25, seed=5))
    want = math.erf(1.0 / math.sqrt(0.5))
    se = math.sqrt(want * (1 - want) / n)
    assert abs(res.n_survivors / n - want) < 4 * se
    assert res.n_killed == 0
    assert np.all(res.final_positions > 0)


def test_bridge_only_adds_deaths():
    m = _bm_half_line()
    off = run_ensemble(m, 1.0, SimConfig(dt=2.5e-3, n=20000, t_max=0.25,
                                         seed=5, bridge=False))
    on = run_ensemble(m, 1.0, SimConfig(dt=2.5e-3, n=20000, t_max=0.25,
                                        seed=5, bridge=True))
    assert on.n_survivors < off.n_survivors    # within-step crossings caught


def test_record_times_and_snapshots():
    m = _bm_half_line()
    res = run_ensemble(m, 1.0, SimConfig(dt=1e-3, n=2000, t_max=0.4, seed=9),
                       record_times=[0.1, 0.2, 0.3])
    assert len(res.times) == 3
    assert np.all(np.diff(res.n_alive) <= 0)
    for t, snap, count in zip(res.times, res.snapshots, res.n_alive):
        assert len(snap) == count
        assert np.all(snap > 0)


def test_resampling_keeps_the_ensemble_full():
    m = zoo_build("logistic_X_killed", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    res = run_ensemble(m, 0.0, SimConfig(dt=5e-3, n=3000, t_max=2.0, seed=3,
                                         resample=True), record_times=[1.0])
    assert res.n_survivors == 3000
    assert np.all(res.n_alive == 3000)
    assert res.n_killed > 0                      # respawns happened
    assert np.all(np.isinf(res.death_times))     # nobody permanently dies


# Values recorded from the SFC64 noise and event streams; a resampling run
# keeps all n particles alive, so it draws what a full-ensemble loop would,
# and compacting the state to live particles leaves its outputs unchanged.
@pytest.mark.parametrize("name,params,x0,cfg,fingerprint", [
    ("logistic_X_killed", {"mu": 1.0, "c": 1.0, "sigma": 1.0}, 0.0,
     SimConfig(dt=5e-3, n=2000, t_max=1.0, seed=3, resample=True),
     (-294.95979338415697, -262.1161161335067,
      [0.2057932746553881, -0.0008390476813746051, 0.37238638581448236,
       -0.9892773885057508, -0.4810461068773348], 2522, 0)),
    ("bessel", {"nu": -1.5}, 1.0,
     SimConfig(dt=1e-3, n=2000, t_max=0.5, seed=4, bridge=True,
               resample=True),
     (2145.9830645589836, 1831.5844919639155,
      [1.091379245129153, 0.6301894093101457, 1.032396969381465,
       0.9423230779691592, 1.3294461324894384], 0, 1654)),
])
def test_resampling_stream_fingerprint(name, params, x0, cfg, fingerprint):
    res = run_ensemble(zoo_build(name, params), x0, cfg,
                       record_times=[cfg.t_max / 2])
    total, snap_total, head, n_killed, n_absorbed = fingerprint
    assert math.fsum(res.final_positions) == total
    assert math.fsum(res.snapshots[0]) == snap_total
    assert res.final_positions[:5].tolist() == head
    assert (res.n_killed, res.n_absorbed, res.n_blown) == (n_killed,
                                                            n_absorbed, 0)


def _killed_pull():
    # an absorbing end, so the bridge draws, and a killing clock
    return DiffusionModel(drift=ScalarField.constant(-1.0),
                          domain=(0.0, math.inf), x_ref=1.0,
                          killing=ScalarField.from_expression("x"),
                          name="killedpull")


def _bits(res):
    return (res.final_positions.tobytes(), res.death_times.tobytes(),
            [s.tobytes() for s in res.snapshots], res.n_alive.tolist(),
            (res.n_absorbed, res.n_killed, res.n_blown))


@pytest.mark.parametrize("block", [lambda n: 7, lambda n: 3 * n],
                         ids=["7", "3n"])
def test_noise_is_one_flat_stream(block, monkeypatch):
    # step s takes the next m increments wherever the blocks end, so the
    # block size, and with it the filler thread's timing, moves no bit; the
    # plain run's live count m shrinks, so its takes straddle block ends
    cfgs = [SimConfig(dt=0.01, n=300, t_max=1.0, seed=6, resample=resample)
            for resample in (False, True)]
    runs = [run_ensemble(_killed_pull(), 1.0, cfg, record_times=[0.3, 0.6])
            for cfg in cfgs]
    plain, resampled = runs
    assert plain.n_absorbed and plain.n_killed and plain.n_survivors
    assert resampled.n_absorbed and resampled.n_killed
    monkeypatch.setattr(montecarlo, "_noise_block", block)
    for cfg, want in zip(cfgs, runs):
        got = run_ensemble(_killed_pull(), 1.0, cfg, record_times=[0.3, 0.6])
        assert _bits(got) == _bits(want)


def _nan_past_20(drift, killing=None):
    return DiffusionModel(
        drift=ScalarField.from_expression(drift), domain=(0.0, math.inf),
        x_ref=1.0, name="custom",
        killing=killing and ScalarField.from_expression(killing))


@pytest.mark.parametrize("model,raises", [
    (_bm_half_line(), None),
    (_nan_past_20("1", "0.01*sqrt(20-x)"), "non-finite killing rate nan"),
    (_nan_past_20("0.3*sqrt(20-x)"), "drift reads nan"),
], ids=["returns", "nan-killing-rate", "nan-drift"])
def test_no_thread_outlives_a_run(model, raises):
    # the noise filler is joined on every way out of run_ensemble, the
    # errors raised mid-run included
    before = threading.active_count()
    cfg = SimConfig(dt=0.01, n=200, t_max=2.0, seed=1)
    if raises is None:
        run_ensemble(model, 1.0, cfg)
    else:
        with pytest.raises(QsdlabError, match=raises):
            run_ensemble(model, 19.5, cfg)
    assert threading.active_count() == before


def test_plain_compaction_keeps_particle_ids():
    # even ids start at staggered distances from the absorbing end under a
    # strong inward pull, so they die over several steps and slots stop
    # matching ids; odd ids start far apart and far away, so each survivor
    # stays near its own start and the order can be read off
    pull = DiffusionModel(drift=ScalarField.from_expression("-10/x"),
                          domain=(0.0, math.inf), x_ref=1.0, name="pull")
    n = 40
    x0 = np.where(np.arange(n) % 2 == 0, np.geomspace(0.01, 0.5, n),
                  20.0 * (np.arange(n) + 1))
    res = run_ensemble(pull, x0, SimConfig(dt=1e-3, n=n, t_max=0.1, seed=8),
                       record_times=[0.05])
    even = np.arange(n) % 2 == 0
    assert np.all(np.isfinite(res.death_times[even]))
    assert len(np.unique(res.death_times[even])) > 3
    assert np.all(np.isinf(res.death_times[~even]))
    assert res.n_absorbed == n // 2
    assert np.all(np.abs(res.final_positions - x0[~even]) < 3.0)
    assert np.all(np.abs(res.snapshots[0] - x0[~even]) < 3.0)


def test_records_after_extinction_read_zero():
    # from 0.05 the nu = -1.5 Bessel process is absorbed long before t = 1
    res = run_ensemble(zoo_build("bessel", {"nu": -1.5}), 0.05,
                       SimConfig(dt=1e-3, n=200, t_max=3.0, seed=1),
                       record_times=[1.0, 2.0, 3.0])
    assert res.n_survivors == 0
    assert res.times.tolist() == [1.0, 2.0, 3.0]
    assert res.n_alive.tolist() == [0, 0, 0]
    assert [len(s) for s in res.snapshots] == [0, 0, 0]


def test_blow_up_is_counted_not_crashed():
    m = DiffusionModel(drift=ScalarField.from_expression("x^3"),
                       domain=(-math.inf, math.inf), x_ref=0.0, name="cubic")
    res = run_ensemble(m, 2.0, SimConfig(dt=1e-3, n=200, t_max=1.0, seed=2))
    assert res.n_blown == 200
    assert res.n_survivors == 0


def test_run_guards():
    m = zoo_build("logistic_N", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    with pytest.raises(QsdlabError):
        run_ensemble(m, 1.0, SimConfig(dt=1e-3, n=10, t_max=0.1))
    bm = _bm_half_line()
    with pytest.raises(QsdlabError):
        run_ensemble(bm, 0.0, SimConfig(dt=1e-3, n=10, t_max=0.1))  # on edge
    with pytest.raises(QsdlabError):
        run_ensemble(bm, np.ones(7), SimConfig(dt=1e-3, n=10, t_max=0.1))
    # NaN fails every death test and would otherwise survive forever
    line = zoo_build("logistic_X_killed", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    for bad in (math.nan, math.inf, np.r_[np.zeros(9), math.nan]):
        with pytest.raises(QsdlabError, match="finite"):
            run_ensemble(line, bad, SimConfig(dt=1e-3, n=10, t_max=0.1))


# ------------------------------------------------------------- rate fit

def _synthetic_result(rate, n=20000, t_max=3.0, seed=77):
    rng = np.random.default_rng(seed)
    death = rng.exponential(1.0 / rate, size=n)
    death[death > t_max] = np.inf
    cfg = SimConfig(dt=1e-3, n=n, t_max=t_max, seed=seed)
    return EnsembleResult(model_name="synthetic", config=cfg,
                          times=np.array([]), n_alive=np.array([]),
                          snapshots=[],
                          final_positions=np.zeros(int(np.sum(np.isinf(death)))),
                          death_times=death)


def test_survival_curve_recovers_exponential_rate():
    res = _synthetic_result(rate=1.5)
    sc = survival_curve(res)
    assert sc.r_squared > 0.99
    assert sc.rate == pytest.approx(1.5, abs=0.08)
    lo, hi = sc.rate_ci
    assert lo < 1.5 < hi
    assert hi - lo < 0.4
    assert sc.fit_window[0] >= 0.5 * 3.0


def test_survival_curve_rejects_resampled_runs():
    res = _synthetic_result(rate=1.0)
    res.config = dataclasses.replace(res.config, resample=True)
    with pytest.raises(QsdlabError):
        survival_curve(res)


def test_survival_curve_needs_enough_survivors():
    res = _synthetic_result(rate=8.0, n=500, t_max=3.0)  # all dead early
    with pytest.raises(QsdlabError):
        survival_curve(res)


# ------------------------------------------------------------- histograms

def test_histogram_and_tv_basics():
    edges = np.array([0.0, 1.0, 2.0, 3.0])
    p = histogram_masses(np.array([0.5, 1.5, 1.6, 2.5]), edges)
    assert np.allclose(p, [0.25, 0.5, 0.25])
    assert tv_distance(p, p) == 0.0
    q = histogram_masses(np.array([5.0, 6.0]), edges)   # all out of range
    assert q.sum() == 0.0
    assert tv_distance(p, q) == pytest.approx(1.0)      # disjoint laws
    with pytest.raises(QsdlabError):
        tv_distance(p, q[:2])
    with pytest.raises(QsdlabError):
        histogram_masses(np.array([]), edges)


def test_tv_remainder_toggle():
    p = np.array([0.5, 0.0])
    q = np.array([0.5, 0.5])
    assert tv_distance(p, q, include_remainder=False) == pytest.approx(0.25)
    assert tv_distance(p, q, include_remainder=True) == pytest.approx(0.5)


# ------------------------------------------------------------- dichotomy

def test_dichotomy_escape_for_outward_drift():
    push = DiffusionModel(drift=ScalarField.constant(1.0),
                          domain=(0.0, math.inf), x_ref=1.0, name="unitpush")
    v = dichotomy_probe(push, 1.0, SimConfig(dt=0.01, n=6000, t_max=24.0,
                                             seed=11))
    assert v.verdict == "Escapes"
    assert v.in_window[-1] < 0.01
    assert np.all(np.diff(v.in_window) <= 1e-3)


def test_dichotomy_convergence_for_killed_logistic():
    m = zoo_build("logistic_X_killed", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    v = dichotomy_probe(m, 0.0, SimConfig(dt=5e-3, n=6000, t_max=8.0,
                                          seed=11))
    assert v.verdict == "Converges"
    assert np.all(v.tv_steps[-2:] < _TV_FLOOR_MULT * v.tv_floor)
    assert v.in_window[-1] > 0.5
    doc = v.to_json()
    assert doc["verdict"] == "Converges"
    assert len(doc["tv_steps"]) == len(doc["times"]) - 1
    # the probe keeps its t_max ensemble, outside the report: it is the
    # conditioned sample a resampling run with the same config gives
    assert set(doc) == {"verdict", "times", "in_window", "tv_steps",
                        "tv_floor", "window"}
    alone = run_ensemble(m, 0.0, SimConfig(dt=5e-3, n=6000, t_max=8.0,
                                           seed=11, resample=True))
    assert np.array_equal(v.final_positions, alone.final_positions)


def test_dichotomy_far_start_too_short_to_settle_is_undecided():
    # the negative control of "Converges": from x0 = 3 the conditioned law
    # of the killed logistic line is still moving toward its QSD at t = 2,
    # so its last rung steps are many noise floors, not a few
    m = zoo_build("logistic_X_killed", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    v = dichotomy_probe(m, 3.0, SimConfig(dt=5e-3, n=6000, t_max=2.0,
                                          seed=11))
    assert v.verdict == "Undecided"
    assert v.in_window[-1] > 0.5                # not for want of mass
    assert np.all(v.tv_steps[-2:] > 10.0 * v.tv_floor)
