"""Acceptance gate: eight criteria, each printing one PASS/FAIL line.

Every criterion is oracle- or property-based at desk scale -- hand-derived
classifications, arithmetic-forced spectra, closed-form stationary laws and
exact transition kernels -- so nothing here tests the library against itself.
Verdict lines are written to the unbuffered stream so they show up in any
pytest invocation, captured or not; each line carries the headline numbers
and the elapsed time, and the runtime budget is part of the criterion.
"""
import math
import sys
import time

import numpy as np
import pytest
from scipy.special import gammainc

from qsdlab.boundary import classify, positivity_criterion
from qsdlab.kernels import (
    bessel_kernel,
    bessel_kernel_plus,
    bessel_transition_lebesgue,
)
from qsdlab.model import (
    DiffusionModel,
    ScalarField,
    reduce_unit_diffusion,
)
from qsdlab.montecarlo import (
    SimConfig,
    dichotomy_probe,
    histogram_masses,
    run_ensemble,
    survival_curve,
    tv_distance,
)
from qsdlab.numerics import TabulatedAntiderivative, gauss_panels
from qsdlab.spectral import (
    build_phi,
    build_u,
    doob_h_transform,
    eigen_fd_oracle,
    eigen_schrodinger,
    eigen_shoot,
    qsd_density,
)
from qsdlab.zoo import zoo_build

LOG111 = {"mu": 1.0, "c": 1.0, "sigma": 1.0}
POP1111 = {"mu": 1.0, "c": 1.0, "sigma": 1.0, "gamma": 1.0}

_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    # verdict lines must reach the terminal even under fd-level capture
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _verdict(n: int, ok: bool, detail: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < budget
    line = (f"[acceptance {n}] {'PASS' if ok else 'FAIL'} -- {detail} "
            f"({elapsed:.1f}s / budget {budget:.0f}s)")
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# -------------------------------------------------------------------------
# 1. boundary classification
# -------------------------------------------------------------------------

def test_01_boundary_classification():
    t0 = time.monotonic()
    red, _ = reduce_unit_diffusion(zoo_build("population_N", POP1111))
    pop = classify(red)
    log = classify(zoo_build("logistic_X_killed", LOG111))
    bessel_left = [classify(zoo_build("bessel", {"nu": nu})).left.kind
                   for nu in (-1.0, -1.5, -2.0)]
    driftless = classify(DiffusionModel(drift=ScalarField.constant(0.0),
                                        domain=(0.0, math.inf), x_ref=1.0,
                                        name="driftless"))
    ok = ((pop.left.kind, pop.right.kind) == ("Exit", "Entrance")
          and (log.left.kind, log.right.kind) == ("Natural", "Entrance")
          and bessel_left == ["Exit"] * 3
          and (driftless.left.kind, driftless.right.kind) == ("Regular",
                                                              "Natural"))
    _verdict(1, ok,
             f"population ({pop.left.kind},{pop.right.kind}); "
             f"killed logistic ({log.left.kind},{log.right.kind}); "
             f"bessel left {bessel_left}; "
             f"driftless ({driftless.left.kind},{driftless.right.kind})",
             t0, budget=5.0)


# -------------------------------------------------------------------------
# 2. positivity sandwich on the constant inward pull
# -------------------------------------------------------------------------

def test_02_positivity_sandwich():
    t0 = time.monotonic()
    m = DiffusionModel(drift=ScalarField.constant(-1.0),
                       domain=(0.0, math.inf), x_ref=1.0, name="unitpull")
    pos = positivity_criterion(m, a=0.0)
    lam_shoot = float(eigen_shoot(m, K=1).eigenvalues[0])
    lam_fd = float(eigen_fd_oracle(m, K=1,
                                   truncation_ladder=(15.0, 21.0, 30.0)
                                   ).eigenvalues[0])
    ok = (abs(pos.A - 0.25) <= 1e-6
          and all(pos.lambda0_lower - 1e-9 <= lam <= pos.lambda0_upper + 1e-9
                  for lam in (lam_shoot, lam_fd))
          and abs(lam_shoot - 0.5) <= 1e-3
          and abs(lam_fd - 0.5) <= 1e-3)
    _verdict(2, ok,
             f"A={pos.A:.8f}; sandwich [{pos.lambda0_lower:.3f}, "
             f"{pos.lambda0_upper:.3f}]; shoot {lam_shoot:.5f}, "
             f"fd {lam_fd:.5f}", t0, budget=30.0)


# -------------------------------------------------------------------------
# 3. oracle equivalence of the two eigensolvers
# -------------------------------------------------------------------------

def test_03_eigensolver_oracle_equivalence():
    t0 = time.monotonic()
    osc = DiffusionModel(drift=ScalarField.constant(0.0),
                         killing=ScalarField(eval=lambda x: 0.5 * x * x,
                                             deriv=lambda x: x),
                         domain=(-12.0, 12.0), x_ref=0.0, name="oscillator")
    fd_osc = eigen_fd_oracle(osc, K=2, left_bc="dirichlet",
                             right_bc="dirichlet")
    osc_ok = (abs(fd_osc.eigenvalues[0] - 0.5) <= 1e-3
              and abs(fd_osc.eigenvalues[1] - 1.5) <= 1e-2)

    cases = [("perturbed_bessel", {"nu": -1.5, "c1": 1.0}),
             ("perturbed_bessel", {"nu": -2.0, "c1": 1.0}),
             ("perturbed_bessel", {"nu": -1.0, "c0": 0.5, "c1": 0.5}),
             ("generalized_feller", {"h1": -1.0}),
             ("population_N", POP1111)]
    worst = 0.0
    agree = True
    for name, params in cases:
        m = zoo_build(name, params)
        if not m.unit_diffusion:
            m, _ = reduce_unit_diffusion(m)
        lam = float(eigen_shoot(m, K=1).eigenvalues[0])
        diff = abs(lam - float(eigen_fd_oracle(m, K=1).eigenvalues[0]))
        worst = max(worst, diff / (1.0 + lam))
        agree = agree and diff <= 1e-4 * (1.0 + lam)
    _verdict(3, osc_ok and agree,
             f"{len(cases)} models, worst rel diff {worst:.2e}; oscillator "
             f"({fd_osc.eigenvalues[0]:.5f}, {fd_osc.eigenvalues[1]:.4f})",
             t0, budget=120.0)


# -------------------------------------------------------------------------
# 4. stationary law of the unkilled logistic model
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_04_stationary_law_reproduction():
    t0 = time.monotonic()
    red, tr = reduce_unit_diffusion(zoo_build("logistic_N", LOG111))
    cfg = SimConfig(dt=5e-3, n=100_000, t_max=50.0, seed=2026,
                    bridge=True, resample=False)
    res = run_ensemble(red, float(red.x_ref), cfg)
    N = np.asarray(tr.inverse(res.final_positions), dtype=float)
    # these parameters force Gamma(shape 1, scale 1/2) = Exponential(rate 2)
    edges = np.linspace(0.0, float(np.quantile(N, 0.999)), 41)
    emp = histogram_masses(N, edges)
    want = np.exp(-2.0 * edges[:-1]) - np.exp(-2.0 * edges[1:])
    tv = 0.5 * (np.sum(np.abs(emp - want))
                + abs((1.0 - emp.sum()) - (1.0 - want.sum())))
    ok = res.n_survivors == cfg.n and tv <= 0.03
    _verdict(4, ok, f"TV(histogram, Gamma(1, 1/2)) = {tv:.4f} <= 0.03 "
                    f"at n={cfg.n}, t={cfg.t_max}", t0, budget=120.0)


# -------------------------------------------------------------------------
# 5. killed-logistic QSD end to end
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_05_killed_logistic_qsd_end_to_end():
    t0 = time.monotonic()
    m = zoo_build("logistic_X_killed", LOG111)
    spec = eigen_schrodinger(m)
    lam0, gap = float(spec.eigenvalues[0]), float(spec.gap)

    rate_cfg = SimConfig(dt=2e-3, n=200_000, t_max=5.0, seed=2027,
                         bridge=True, resample=False)
    curve = survival_curve(run_ensemble(m, float(m.x_ref), rate_cfg))
    in_ci = curve.rate_ci[0] <= lam0 <= curve.rate_ci[1]

    cond_cfg = SimConfig(dt=5e-3, n=200_000, t_max=8.0, seed=2028,
                         bridge=True, resample=True)
    pos = run_ensemble(m, float(m.x_ref), cond_cfg).final_positions
    dens = qsd_density(spec)
    lo = max(dens.support[0], float(np.quantile(pos, 1e-4)))
    hi = min(dens.support[1], float(np.quantile(pos, 1 - 1e-4)))
    edges = np.linspace(lo, hi, 41)
    tv = tv_distance(histogram_masses(pos, edges), dens.bin_masses(edges))

    ok = lam0 > 0 and gap > 0 and in_ci and tv <= 0.05
    _verdict(5, ok,
             f"lam0={lam0:.5f}, gap={gap:.3f}; rate {curve.rate:.4f} in CI "
             f"[{curve.rate_ci[0]:.4f}, {curve.rate_ci[1]:.4f}]: {in_ci}; "
             f"TV(conditioned, QSD) = {tv:.4f} <= 0.05", t0, budget=600.0)


# -------------------------------------------------------------------------
# 6. exact Bessel kernel against the simulated sub-Markov histogram
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_06_bessel_exact_kernel_oracle():
    t0 = time.monotonic()
    nu, x0, t = 1.5, 1.0, 0.5
    cfg = SimConfig(dt=1e-4, n=200_000, t_max=t, seed=2029,
                    bridge=True, resample=False)
    res = run_ensemble(zoo_build("bessel", {"nu": -nu}), x0, cfg)
    ys = res.final_positions
    p_surv = float(gammainc(nu, x0 ** 2 / (2.0 * t)))
    z_tot = abs(res.n_survivors / cfg.n - p_surv) / math.sqrt(
        p_surv * (1.0 - p_surv) / cfg.n)

    edges = np.linspace(float(np.quantile(ys, 0.001)),
                        float(np.quantile(ys, 0.999)), 25)
    emp = histogram_masses(ys, edges)
    want = gauss_panels(lambda y: bessel_transition_lebesgue(nu, t, x0, y)
                        / p_surv, edges, n=24)
    z_bin = float(np.max(np.abs(emp - want)
                         / np.sqrt(want * (1.0 - want) / res.n_survivors)))

    xs = np.array([0.3, 1.0, 2.5])
    ygrid = np.geomspace(0.05, 6.0, 31)
    rel = 0.0
    for tt in (0.25, 0.5, 2.0):
        for x in xs:
            pm = bessel_kernel(nu, tt, x, ygrid)
            pp = bessel_kernel_plus(nu, tt, x, ygrid)
            rel = max(rel, float(np.max(
                np.abs(pm - (x / ygrid) ** (2 * nu) * pp)
                / np.maximum(pm, 1e-300))))

    ok = z_bin <= 4.0 and z_tot <= 4.0 and rel <= 1e-10
    _verdict(6, ok,
             f"max bin deviation {z_bin:.2f} SE (24 bins), total survival "
             f"{z_tot:.2f} SE; index-flip identity {rel:.1e} <= 1e-10",
             t0, budget=300.0)


# -------------------------------------------------------------------------
# 7. the dichotomy: escape vs quasistationarity
# -------------------------------------------------------------------------

def test_07_dichotomy_probe():
    t0 = time.monotonic()
    push = DiffusionModel(drift=ScalarField.constant(1.0),
                          domain=(0.0, math.inf), x_ref=1.0, name="unitpush")
    v_push = dichotomy_probe(push, 1.0, SimConfig(
        dt=0.01, n=6000, t_max=24.0, seed=11, bridge=True, resample=True))

    red, _ = reduce_unit_diffusion(zoo_build("population_N", POP1111))
    v_pop = dichotomy_probe(red, float(red.x_ref), SimConfig(
        dt=5e-3, n=6000, t_max=8.0, seed=11, bridge=True, resample=True))

    log = zoo_build("logistic_X_killed", LOG111)
    v_log = dichotomy_probe(log, float(log.x_ref), SimConfig(
        dt=5e-3, n=6000, t_max=8.0, seed=11, bridge=True, resample=True))

    ok = (v_push.verdict == "Escapes" and v_pop.verdict == "Converges"
          and v_log.verdict == "Converges")
    _verdict(7, ok,
             f"outward push {v_push.verdict}; population {v_pop.verdict}; "
             f"killed logistic {v_log.verdict}", t0, budget=300.0)


# -------------------------------------------------------------------------
# 8. invariant bundle from every module
# -------------------------------------------------------------------------

def test_08_module_invariant_bundle():
    t0 = time.monotonic()
    log = zoo_build("logistic_X_killed", LOG111)
    bes = zoo_build("bessel", {"nu": -1.5})

    # determinism: spectral and Monte Carlo pipelines repeat bitwise
    s1, s2 = eigen_schrodinger(log, K=2), eigen_schrodinger(log, K=2)
    cfg = SimConfig(dt=0.01, n=300, t_max=0.3, seed=5, bridge=True,
                    resample=False)
    r1 = run_ensemble(bes, 1.0, cfg)
    r2 = run_ensemble(bes, 1.0, cfg)
    det = (np.array_equal(s1.eigenvalues, s2.eigenvalues)
           and np.array_equal(r1.final_positions, r2.final_positions)
           and r1.n_absorbed == r2.n_absorbed)

    # Wronskian of the two sweeps stays at 1 along the continuation
    lam = 3.7
    u = build_u(bes, lam, x_to=6.0)
    ph = build_phi(bes, lam, x_to=6.0)
    n = len(u.samples.grid)
    uf = u.samples.values * np.exp(u.samples.log_scale)[:, None]
    wron = float(np.max(np.abs(uf[:, 0] * ph.w[-n:]
                               - uf[:, 1] * ph.phi[-n:] - 1.0)))

    # orthonormality of the shooting eigenfunctions in the speed measure
    sh = eigen_shoot(zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0}),
                     K=2)
    pb = zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0})
    base = sh.eigenfunctions[0].grid
    rho = pb.speed_density(base)
    G = np.array([[np.trapezoid(sh.eigenfunctions[i](base)
                                * sh.eigenfunctions[j](base) * rho, base)
                   for j in range(2)] for i in range(2)])
    gram = float(np.max(np.abs(G - np.eye(2))))

    # QSD normalization
    dens = qsd_density(s1)
    total = float(np.trapezoid(dens.density(dens.grid), dens.grid))
    z_ok = abs(dens.Z - 1.28097) / 1.28097 < 1e-3

    # h-transform spectral invariance: conditioned outward push == mirror pull
    push = DiffusionModel(drift=ScalarField.constant(1.0),
                          domain=(0.0, math.inf), x_ref=1.0, name="push")
    pull = DiffusionModel(drift=ScalarField.constant(-1.0),
                          domain=(0.0, math.inf), x_ref=1.0, name="pull")
    cond = doob_h_transform(push).model
    win = (0.25, 8.0)
    ev_c = eigen_fd_oracle(cond, K=2, truncation=win, left_bc="dirichlet",
                           right_bc="dirichlet").eigenvalues
    ev_m = eigen_fd_oracle(pull, K=2, truncation=win, left_bc="dirichlet",
                           right_bc="dirichlet").eigenvalues
    hrel = float(np.max(np.abs(ev_c - ev_m) / ev_m))

    # quadrature monotonicity: antiderivatives of nonnegative integrands
    F = TabulatedAntiderivative(lambda x: np.exp(-x), 0.0, (0.0, 10.0))
    qs = F(np.linspace(0.0, 10.0, 200))
    panels = gauss_panels(lambda x: np.exp(-x), np.linspace(0.0, 10.0, 20),
                          n=12)
    mono = bool(np.all(np.diff(qs) >= 0.0) and np.all(panels > 0.0))

    ok = (det and wron < 1e-6 and gram < 1e-4 and abs(total - 1.0) < 1e-6
          and z_ok and dens.tail_mass <= 1e-6 and hrel < 1e-5 and mono)
    _verdict(8, ok,
             f"determinism {det}; wronskian {wron:.1e}; gram {gram:.1e}; "
             f"qsd total {total:.8f}, Z ok {z_ok}; h-spectra rel {hrel:.1e}; "
             f"quadrature monotone {mono}", t0, budget=120.0)
