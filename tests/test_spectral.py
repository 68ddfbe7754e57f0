"""Solver tests against closed forms.

For the index -3/2 radial model everything is elementary trig:

    rho = x^-2,   u1 = cos(kx) + kx sin(kx),
    phi* = (sin(kx) - kx cos(kx)) / k^3,      k = sqrt(2 lam),

and the eigenvalues of the inward-pulled variants are evenly spaced integers,
so the shooting/extrapolation machinery can be pinned to many digits without
ever trusting itself.  phi* below the 1e-5 scale is evaluated by its series
(x^3/3)(1 - (kx)^2/10 + (kx)^4/280 - ...) because the closed form cancels
catastrophically there.
"""
import math

import numpy as np
import pytest

from qsdlab.model import (
    DiffusionModel,
    ScalarField,
    reduce_unit_diffusion,
)
from qsdlab import spectral
from qsdlab.numerics import QsdlabError, cumulative_parabolic
from qsdlab.spectral import (
    PhiSolution,
    SpectralResult,
    _UBuilder,
    build_phi,
    build_u,
    doob_h_transform,
    eigen_fd_oracle,
    eigen_schrodinger,
    eigen_shoot,
    heat_kernel,
    qsd_density,
    shooting_ladder,
)
from qsdlab.zoo import zoo_build

LOG111 = {"mu": 1.0, "c": 1.0, "sigma": 1.0}


def _phi_star(k, x):
    x = np.asarray(x, dtype=float)
    z = k * x
    out = np.empty_like(x)
    small = z < 1e-3
    zs = z[small]
    out[small] = (x[small] ** 3 / 3.0) * (1.0 - zs ** 2 / 10.0
                                          + zs ** 4 / 280.0)
    zl = z[~small]
    out[~small] = (np.sin(zl) - zl * np.cos(zl)) / k ** 3
    return out


# ------------------------------------------------------------ u and phi

def test_left_solution_is_the_sealed_trig_combination():
    m = zoo_build("bessel", {"nu": -1.5})
    lam = 2.0
    k = math.sqrt(2 * lam)
    sol = build_u(m, lam)
    assert sol.contraction_factor <= 0.45
    assert sol.residual < 1e-10
    # the fixed point carries u -> 1 at 0 AND (rho u')(delta) = 0, i.e. the
    # combination u1 + B phi* with B = -k^3 cot(k delta)
    B = -k ** 3 / math.tan(k * sol.delta)
    x = sol.core_grid
    want = np.cos(k * x) + k * x * np.sin(k * x) + B * _phi_star(k, x)
    rel = np.abs(sol.core_u - want) / np.maximum(np.abs(want), 1e-12)
    assert np.max(rel) < 1e-6
    # sealed derivative at delta, exactly by construction
    assert sol.core_w[-1] == 0.0


def test_phi_matches_closed_form_and_series():
    m = zoo_build("bessel", {"nu": -1.5})
    lam = 2.0
    k = math.sqrt(2 * lam)
    ph = build_phi(m, lam, x_to=6.0)
    want = _phi_star(k, ph.grid)
    # relative away from phi's interior zeros, absolute at the envelope scale
    # near them
    assert np.allclose(ph.phi, want, rtol=1e-6,
                       atol=1e-6 * np.max(np.abs(want)))
    # Dirichlet data (0, 1) emerges at the accessible endpoint: rho phi' -> 1
    assert ph.w[0] == pytest.approx(1.0, abs=1e-6)


def test_phi_at_lambda_zero_is_the_scale_function():
    m = zoo_build("bessel", {"nu": -1.5})
    ph = build_phi(m, 0.0, x_to=3.0)
    assert np.allclose(ph.phi, ph.grid ** 3 / 3.0, rtol=1e-8)


def test_wronskian_constant_along_continuation():
    # rho (u phi' - u' phi) == 1 everywhere; on the continuation range this
    # is a pure integrator invariant, not a construction identity.  Both
    # continuations run the same deterministic grid, so the comparison is
    # interpolation-free.
    m = zoo_build("bessel", {"nu": -1.5})
    lam = 3.7
    u = build_u(m, lam, x_to=6.0)
    ph = build_phi(m, lam, x_to=6.0)
    n = len(u.samples.grid)
    assert np.array_equal(ph.grid[-n:], u.samples.grid)
    uf = u.samples.values * np.exp(u.samples.log_scale)[:, None]
    W = uf[:, 0] * ph.w[-n:] - uf[:, 1] * ph.phi[-n:]
    assert np.max(np.abs(W - 1.0)) < 1e-7


# ------------------------------------------------------------ left-end fixed point

PB15 = ("perturbed_bessel", {"nu": -1.5, "c1": 1.0})


def _picard(lv, lam):
    """Reference: iterate u <- 1 + 2 lam K[u] from u = 1 until the increment
    falls below 1e-12 max(1, max|u|); returns u, the increment and passes."""
    grid, rho, inv_rho = lv["grid"], lv["rho"], lv["inv_rho"]
    u = np.ones_like(grid)
    for passes in range(1, 401):
        tail = cumulative_parabolic(-grid[::-1], (u * rho)[::-1])[::-1]
        u_new = 1.0 + 2.0 * lam * cumulative_parabolic(grid, inv_rho * tail)
        inc = float(np.max(np.abs(u_new - u)))
        u = u_new
        if inc < 1e-12 * max(1.0, float(np.max(np.abs(u)))):
            return u, inc, passes
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize("name,params", [PB15, ("bessel", {"nu": -1.5})])
def test_neumann_sum_matches_picard_iteration(name, params):
    m = zoo_build(name, params)
    for level in (0, 1):
        for lam in (0.5, 3.0, 5.0):
            ub = _UBuilder(m)          # fresh basis: its length counts terms
            lv = ub._level(level)
            u, w, residual = ub._iterate(lv, lam)
            u_ref, inc_ref, passes = _picard(lv, lam)
            scale = float(np.max(np.abs(u_ref)))
            assert np.max(np.abs(u - u_ref)) <= 1e-13 * scale, (level, lam)
            assert len(lv["basis"]) - 1 == passes, (level, lam)
            assert abs(residual - inc_ref) <= 1e-14 * scale, (level, lam)
            # rho u' = 2 lam int_x^delta u rho of the reference fixed point
            grid = lv["grid"]
            w_ref = 2.0 * lam * cumulative_parabolic(
                -grid[::-1], (u_ref * lv["rho"])[::-1])[::-1]
            assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))


def test_neumann_basis_is_reused_across_lam(monkeypatch):
    ub = _UBuilder(zoo_build(*PB15))
    lv = ub._level(0)
    calls = []
    real = spectral.cumulative_parabolic
    monkeypatch.setattr(spectral, "cumulative_parabolic",
                        lambda x, y: calls.append(len(x)) or real(x, y))
    ub._iterate(lv, 5.0)
    # two sweeps per basis vector beyond v_1, which the level seeds
    assert len(calls) == 2 * (len(lv["basis"]) - 2) > 0
    calls.clear()
    for lam in (3.0, 0.5, 4.9, 0.0):
        ub._iterate(lv, lam)
    assert calls == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [20.0, 1e4])
def test_fixed_point_stall_is_reported(lam):
    # 2 lam G = 3.4 and 1700: the Neumann sum diverges and must stop at its
    # first non-finite term without leaking overflow warnings
    ub = _UBuilder(zoo_build(*PB15))
    lv = ub._level(0)
    assert 2.0 * lam * lv["G"] > 3.0
    with pytest.raises(QsdlabError, match="fixed-point iteration stalled"):
        ub._iterate(lv, lam)
    assert len(lv["basis"]) < 400


# ------------------------------------------------------------ shooting

@pytest.fixture(scope="module")
def shoot_pb15():
    m = zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0})
    return eigen_shoot(m, K=3)


def test_inward_pulled_spectrum_is_arithmetic(shoot_pb15):
    # unit inward pull on the -3/2 member: 3, 5, 7
    assert np.allclose(shoot_pb15.eigenvalues, [3.0, 5.0, 7.0], atol=2e-5)
    assert shoot_pb15.extrapolation_error < 1e-4
    assert shoot_pb15.gap == pytest.approx(2.0, abs=5e-5)


def test_branching_entry_spectrum_integers():
    m = zoo_build("generalized_feller", {"h0": 0.0, "h1": -1.0, "h2": 0.0})
    res = eigen_shoot(m, K=3)
    assert np.allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=2e-5)


def test_population_spectrum_frozen():
    m = zoo_build("population_N", {"mu": 1.0, "c": 1.0, "sigma": 1.0,
                                   "gamma": 1.0})
    red, _ = reduce_unit_diffusion(m)
    res = eigen_shoot(red, K=3)
    assert res.eigenvalues[0] == pytest.approx(0.485863, abs=5e-6)
    assert res.eigenvalues[1] == pytest.approx(2.428007, abs=2e-5)
    assert res.eigenvalues[2] == pytest.approx(5.086130, abs=5e-5)


def test_shoot_is_deterministic():
    m = zoo_build("generalized_feller", {"h0": 0.0, "h1": -1.0, "h2": 0.0})
    a = eigen_shoot(m, K=1)
    b = eigen_shoot(m, K=1)
    assert a.eigenvalues[0] == b.eigenvalues[0]     # bitwise, no RNG anywhere
    assert a.extrapolation_error == b.extrapolation_error


def test_shoot_eigenfunctions_orthonormal(shoot_pb15):
    pb = zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0})
    base = shoot_pb15.eigenfunctions[0].grid
    rho = pb.speed_density(base)
    G = np.empty((3, 3))
    for i in range(3):
        fi = shoot_pb15.eigenfunctions[i](base)
        for j in range(3):
            fj = shoot_pb15.eigenfunctions[j](base)
            G[i, j] = np.trapezoid(fi * fj * rho, base)
    assert np.max(np.abs(G - np.eye(3))) < 1e-4


def test_shoot_eigenfunctions_are_the_sealed_shots_at_the_roots(shoot_pb15):
    # taken from the widest truncation's shots, they equal a fresh shot at
    # each root, normalized, up to sign
    t_max = shoot_pb15.truncation[-1]
    for ph in shoot_pb15.eigenfunctions:
        shot = build_phi(zoo_build(*PB15), ph.lam, x_to=t_max)
        nrm = math.sqrt(np.trapezoid(shot.phi ** 2 * shot.rho, shot.grid))
        assert np.array_equal(ph.grid, shot.grid)
        assert np.array_equal(np.abs(ph.phi), np.abs(shot.phi / nrm))
        assert np.array_equal(ph.rho, shot.rho)


def test_shooting_ladder_is_the_ladder_eigen_shoot_shoots():
    # `spectrum --oracle` reads the FE window from shooting_ladder, so its T
    # is the widest truncation of the ladder eigen_shoot extrapolates over
    m = zoo_build(*PB15)
    assert tuple(shooting_ladder(m)) == eigen_shoot(m, K=1).truncation
    assert shooting_ladder(m, [5, 6, 7]) == [5.0, 6.0, 7.0]
    for bad, says in (([5.0], "at least two truncations"),
                      ([6.0, 5.0], "truncation ladder not increasing")):
        for call in (shooting_ladder, eigen_shoot):
            with pytest.raises(QsdlabError, match=says):
                call(m, truncations=bad)


def test_shot_counter_matches_continuation_calls(monkeypatch):
    lams = []
    real = spectral.integrate_sl_system
    monkeypatch.setattr(spectral, "integrate_sl_system",
                        lambda *a, **kw: lams.append(a[2]) or real(*a, **kw))
    res = eigen_shoot(zoo_build(*PB15), K=2)
    shots = res.evidence["shots_by_truncation"]
    assert list(shots) == list(res.evidence["roots_by_truncation"])
    # the later truncations replay the first one's bracketing warm and shoot
    # the baseline, the two ends of each bracket and Brent's points
    assert list(shots.values()) == [21, 11, 11]
    # one continuation per distinct lam and truncation; the eigenfunctions
    # come from the widest truncation's shots
    assert len(lams) == sum(shots.values())
    assert "evidence" not in res.to_json()


def test_left_end_core_is_solved_once_per_lam(monkeypatch):
    solved, shot = [], []
    real_solve, real_cont = _UBuilder._solve, spectral.integrate_sl_system
    monkeypatch.setattr(_UBuilder, "_solve",
                        lambda self, lam: solved.append(lam)
                        or real_solve(self, lam))
    monkeypatch.setattr(spectral, "integrate_sl_system",
                        lambda *a, **kw: shot.append(a[2]) or real_cont(*a, **kw))
    eigen_shoot(zoo_build(*PB15), K=2)
    # lam = 0 and the bracket ends recur at every truncation
    assert len(shot) > len(set(shot))
    assert sorted(solved) == sorted(set(shot))


def _custom_ou_shifted():
    return DiffusionModel(
        drift=ScalarField.from_expression("-(x+1)"),
        domain=(-1.0, math.inf), x_ref=0.0, name="custom")


@pytest.mark.parametrize("build,K,warm", [
    (lambda: zoo_build(*PB15), 2, [True, True]),
    (lambda: zoo_build("perturbed_bessel", {"nu": -1.5, "c0": 1.0}), 2,
     [False, None]),
    (lambda: zoo_build(*PB15), 6, [False, True]),
    (_custom_ou_shifted, 2, [True, True]),
], ids=["pb15 K=2", "pbessel c0=1 K=2", "pb15 K=6", "custom -(x+1)"])
def test_warm_ladder_roots_equal_the_cold_search(build, K, warm):
    res = eigen_shoot(build(), K=K)
    roots = res.evidence["roots_by_truncation"]
    shots = res.evidence["shots_by_truncation"]
    for i, t in enumerate(res.truncation):
        key = f"{t:.6g}"
        # the first truncation of any ladder is searched cold
        cold = eigen_shoot(build(), K=K, truncations=[t, 1.5 * t]).evidence
        assert roots[key] == cold["roots_by_truncation"][key]
        assert shots[key] <= cold["shots_by_truncation"][key] + 2
        # which truncations the replay served (True), which it searched
        # cold again (False); None: either, so long as the roots hold
        if i > 0 and warm[i - 1] is not None:
            assert (shots[key] < cold["shots_by_truncation"][key]) \
                == warm[i - 1]


def test_shoot_ladder_and_extrapolation_bits_frozen():
    # recorded from the code before the Richardson step and the cap march
    # became shared helpers, under an OpenBLAS kernel without FMA
    # (OPENBLAS_CORETYPE=Prescott), whose 2x2 products the BLAS-free
    # continuation forms on every host; any change of operation order
    # shows up here
    res = eigen_shoot(zoo_build(*PB15), K=2)
    assert res.truncation == (5.261113440141047, 6.271208950259618,
                              7.547031950791139)
    assert res.eigenvalues.tolist() == [2.999999997338535, 4.999999985140892]
    assert res.extrapolation_error == 2.977394588654647e-07


@pytest.mark.parametrize("expr,domain,x_ref,exact", [
    ("-x", (1.0, math.inf), 2.0, None),
    # the absorbed OU process shifted by one: eigenvalues 1 and 3
    ("-(x+1)", (-1.0, math.inf), 0.0, [1.0, 3.0]),
], ids=["l=1", "l=-1"])
def test_shoot_from_a_left_end_other_than_zero(expr, domain, x_ref, exact):
    # the core levels sit at l + r0 2^-j, so any finite l is shot like l = 0
    m = DiffusionModel(drift=ScalarField.from_expression(expr),
                       domain=domain, x_ref=x_ref, name="custom")
    sh = eigen_shoot(m, K=2)
    fd = eigen_fd_oracle(m, K=2, truncation=sh.truncation[-1])
    assert np.allclose(sh.eigenvalues, fd.eigenvalues, rtol=1e-4, atol=0.0)
    if exact is not None:
        assert np.allclose(sh.eigenvalues, exact, rtol=0.0, atol=1e-6)


def test_shoot_rejects_bad_ladder():
    m = zoo_build("bessel", {"nu": -1.5})
    with pytest.raises(QsdlabError):
        eigen_shoot(m, K=1, truncations=[5.0])
    with pytest.raises(QsdlabError):
        eigen_shoot(m, K=0)


# ------------------------------------------------------------ FD oracle

def test_fd_validated_on_harmonic_oscillator():
    m = DiffusionModel(drift=ScalarField.constant(0.0),
                       killing=ScalarField(eval=lambda x: 0.5 * x * x,
                                           deriv=lambda x: x),
                       domain=(-12.0, 12.0), x_ref=0.0, name="oscillator")
    res = eigen_fd_oracle(m, K=2, left_bc="dirichlet", right_bc="dirichlet")
    assert res.eigenvalues[0] == pytest.approx(0.5, abs=1e-3)
    assert res.eigenvalues[1] == pytest.approx(1.5, abs=1e-2)


def test_fd_stationary_canary_sealed_ends():
    # drift -x with no killing: spectrum 0, 1, 2 and the zero mode constant;
    # pins both the sign conventions and the sealed (reflecting) conditions
    m = DiffusionModel(drift=ScalarField(eval=lambda x: -x,
                                         deriv=lambda x: -1.0 + 0.0 * x),
                       domain=(-10.0, 10.0), x_ref=0.0, name="ou")
    res = eigen_fd_oracle(m, K=3, left_bc="sealed", right_bc="sealed")
    assert np.allclose(res.eigenvalues, [0.0, 1.0, 2.0], atol=1e-3)
    f0 = res.eigenfunctions[0]
    vals = f0(np.linspace(-1.0, 1.0, 9))
    assert np.max(np.abs(vals / vals[4] - 1.0)) < 1e-3


def test_fd_truncation_ladder_reaches_essential_bottom():
    # mu = -1 on (0, inf): the sealed spectrum bottom drifts like 1/T^2, so a
    # single window misses 0.5 by ~5e-3 while the ladder lands within 1e-3
    m = DiffusionModel(drift=ScalarField.constant(-1.0),
                       domain=(0.0, math.inf), x_ref=1.0, name="unitpull")
    single = eigen_fd_oracle(m, K=1, truncation=15.0)
    ladder = eigen_fd_oracle(m, K=1, truncation_ladder=(15.0, 21.0, 30.0))
    assert abs(single.eigenvalues[0] - 0.5) > 2e-3
    assert ladder.eigenvalues[0] == pytest.approx(0.5, abs=1e-3)
    assert len(ladder.evidence["per_truncation"]) == 3


def test_fd_agrees_with_shoot_on_a_mixed_pull():
    m = zoo_build("perturbed_bessel", {"nu": -1.0, "c0": 0.5, "c1": 0.5})
    sh = eigen_shoot(m, K=1)
    fd = eigen_fd_oracle(m, K=1)
    lam = sh.eigenvalues[0]
    assert lam == pytest.approx(1.7408585, abs=2e-5)
    assert abs(lam - fd.eigenvalues[0]) <= 1e-4 * (1.0 + lam)


# ------------------------------------------------------------ Schrodinger

@pytest.fixture(scope="module")
def schr_logistic():
    m = zoo_build("logistic_X_killed", LOG111)
    return eigen_schrodinger(m, K=3)


def test_killed_logistic_spectrum_frozen(schr_logistic):
    want = [1.3785477, 3.2761536, 5.3025625]
    assert np.allclose(schr_logistic.eigenvalues, want, rtol=1e-5)
    assert schr_logistic.gap == pytest.approx(1.8976, abs=2e-4)
    t_l, t_r = schr_logistic.truncation
    assert t_l < -10.0 and t_r > 4.0


def test_schrodinger_unkilled_zero_mode():
    m = DiffusionModel(drift=ScalarField.from_expression("0.5 - exp(x)"),
                       domain=(-math.inf, math.inf), x_ref=0.0,
                       name="logistic_x_unkilled")
    res = eigen_schrodinger(m, K=1)
    assert abs(res.eigenvalues[0]) < 1e-5


def test_schrodinger_guards():
    with pytest.raises(QsdlabError):
        eigen_schrodinger(zoo_build("bessel", {"nu": -1.5}))
    # killing present but the conjugated potential stays bounded on the
    # left: hypothesis check must refuse
    m = DiffusionModel(drift=ScalarField.from_expression("0.5 - exp(x)"),
                       killing=ScalarField.constant(1.0),
                       domain=(-math.inf, math.inf), x_ref=0.0,
                       name="flat_killing")
    with pytest.raises(QsdlabError):
        eigen_schrodinger(m)


# ------------------------------------------------------------ eigenpair record

@pytest.mark.parametrize("solve,name_params", [
    (lambda m: eigen_shoot(m, K=2), PB15),
    (lambda m: eigen_fd_oracle(m, K=2), PB15),
    (lambda m: eigen_schrodinger(m, K=2), ("logistic_X_killed", LOG111)),
], ids=["shoot", "fd", "schrodinger"])
def test_every_route_fills_one_eigenpair_record(solve, name_params):
    m = zoo_build(*name_params)
    res = solve(m)
    assert len(res.eigenfunctions) == 2
    for ph in res.eigenfunctions:
        assert isinstance(ph, PhiSolution)
        assert ph.grid.shape == ph.phi.shape == ph.w.shape == ph.rho.shape
        # rho is the model's speed density on the record's grid, bit for bit
        assert np.array_equal(ph.rho, m.speed_density(ph.grid))
        # one sign rule: phi is positive where |phi| rho peaks
        assert ph.phi[np.argmax(np.abs(ph.phi) * ph.rho)] > 0


# ------------------------------------------------------------ QSD

def test_qsd_density_normalization(schr_logistic):
    dens = qsd_density(schr_logistic)
    assert dens.Z == pytest.approx(1.28097, rel=1e-3)
    grid = dens.grid
    total = np.trapezoid(dens.density(grid), grid)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert dens.tail_mass <= 1e-6
    # bin masses are a proper sub-partition of unity
    edges = np.linspace(-8.0, 4.0, 25)
    masses = dens.bin_masses(edges)
    assert np.all(masses >= 0)
    assert masses.sum() <= 1.0 + 1e-9
    assert masses.sum() > 0.99


def test_qsd_eigen_invariance_dual_route(schr_logistic):
    # the same killed generator handed to the independent FD machinery must
    # reproduce eigenvalue and QSD shape; the window is narrower than the
    # conjugated-form one because the FD route carries the rho weight
    m = zoo_build("logistic_X_killed", LOG111)
    fd = eigen_fd_oracle(m, K=1, truncation=(-10.0, 4.5),
                         left_bc="dirichlet", right_bc="dirichlet")
    assert abs(fd.eigenvalues[0] - schr_logistic.eigenvalues[0]) < 1e-6
    d_schr = qsd_density(schr_logistic)
    d_fd = qsd_density(fd)
    edges = np.linspace(-8.0, 4.0, 61)
    tv = 0.5 * np.sum(np.abs(d_schr.bin_masses(edges) - d_fd.bin_masses(edges)))
    assert tv < 1e-4


def test_fd_refuses_underflowing_window(schr_logistic):
    # the full conjugated-form window spans ~260 decades of speed density;
    # the rho-weighted FD route must refuse it loudly instead of handing
    # LAPACK a matrix of infinities
    m = zoo_build("logistic_X_killed", LOG111)
    t_l, t_r = schr_logistic.truncation
    with pytest.raises(QsdlabError):
        eigen_fd_oracle(m, K=1, truncation=(t_l, t_r),
                        left_bc="dirichlet", right_bc="dirichlet")
    # a reversed window is empty too; it used to be solved as given
    pb = zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0})
    with pytest.raises(QsdlabError, match="empty FD window"):
        eigen_fd_oracle(pb, truncation=(3.0, 2.0))


# ------------------------------------------------------------ Doob

def test_doob_noop_when_absorption_certain():
    m = zoo_build("bessel", {"nu": -1.5})
    res = doob_h_transform(m)
    assert res.noop
    assert res.model is m
    assert "certain" in res.reason


def test_doob_mirrors_outward_drift():
    m = DiffusionModel(drift=ScalarField.constant(2.0),
                       domain=(0.0, math.inf), x_ref=1.0, name="push2")
    res = doob_h_transform(m)
    assert not res.noop
    assert res.model.name == "push2_doob"
    # h has decayed by e^-20 at x = 6; the far-anchored assembly keeps the
    # conditioned drift exact to rounding even out there
    xs = np.linspace(0.2, 6.0, 13)
    assert np.allclose(res.model.drift(xs), -2.0, atol=1e-12)
    # up to the anchor at x = 16, where log rho reaches 60: the anchor's
    # tail, about e^-60, must carry its own relative accuracy
    xs = np.linspace(6.0, 15.9, 34)
    assert np.allclose(res.model.drift(xs), -2.0, atol=1e-11)
    # h is the (normalized) hitting probability e^{-4(x - l)} shape
    assert res.h(1.0) / res.h(2.0) == pytest.approx(math.exp(4.0), rel=1e-12)
    assert res.h.d(1.0) < 0


def test_doob_conditioned_spectrum_matches_mirror():
    push = DiffusionModel(drift=ScalarField.constant(1.0),
                          domain=(0.0, math.inf), x_ref=1.0, name="push")
    pull = DiffusionModel(drift=ScalarField.constant(-1.0),
                          domain=(0.0, math.inf), x_ref=1.0, name="pull")
    conditioned = doob_h_transform(push).model
    win = (0.25, 8.0)
    a = eigen_fd_oracle(conditioned, K=2, truncation=win,
                        left_bc="dirichlet", right_bc="dirichlet")
    b = eigen_fd_oracle(pull, K=2, truncation=win,
                        left_bc="dirichlet", right_bc="dirichlet")
    assert np.allclose(a.eigenvalues, b.eigenvalues, rtol=1e-6)
    assert b.eigenvalues[0] == pytest.approx(0.5 + math.pi ** 2 / (2 * 7.75 ** 2),
                                             rel=5e-3)


def test_doob_guards():
    with pytest.raises(QsdlabError):
        doob_h_transform(zoo_build("logistic_X_killed", LOG111))  # killed
    with pytest.raises(QsdlabError):
        doob_h_transform(zoo_build("logistic_N", LOG111))         # sigma != 1


# ------------------------------------------------------------ heat kernel

def test_heat_kernel_symmetry_and_decay(shoot_pb15):
    a = heat_kernel(shoot_pb15, 0.3, 0.7, 1.9)
    b = heat_kernel(shoot_pb15, 0.3, 1.9, 0.7)
    assert a.value == b.value                       # exactly symmetric
    v1 = heat_kernel(shoot_pb15, 1.0, 1.0, 1.0).value
    v2 = heat_kernel(shoot_pb15, 2.0, 1.0, 1.0).value
    assert 0.0 < v2 < v1
    assert a.truncation_estimate >= 0.0
    with pytest.raises(QsdlabError):
        heat_kernel(shoot_pb15, -1.0, 1.0, 1.0)
    with pytest.raises(QsdlabError):
        heat_kernel(shoot_pb15, 1.0, 1.0, 1.0, K=9)


def test_spectral_result_rejects_unordered_eigenvalues(shoot_pb15):
    with pytest.raises(QsdlabError):
        SpectralResult(eigenvalues=np.array([2.0, 1.0]),
                       eigenfunctions=list(shoot_pb15.eigenfunctions[:2]),
                       truncation=(1.0, 2.0), extrapolation_error=0.0)
    # one line naming where the order breaks, not the whole array
    with pytest.raises(QsdlabError) as err:
        SpectralResult(eigenvalues=[1.0, 3.0, 2.0], eigenfunctions=[],
                       truncation=(5.0, 6.5, 8.25), extrapolation_error=0.0)
    assert str(err.value) == (
        "eigenvalues not strictly increasing: eigenvalues[2] = 2.0 after "
        "eigenvalues[1] = 3.0 (truncation 5, 6.5, 8.25)")
