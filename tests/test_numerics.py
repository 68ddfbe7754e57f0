"""Quadrature / ODE workhorse tests.

Everything here has a closed-form oracle; the divergence-policy cases pin the
exact refusal behavior on the borderline family y^(-p) near p = 1.
"""
import math

import numpy as np
import pytest

from qsdlab.model import DiffusionModel, ScalarField, scale_speed
from qsdlab.numerics import (
    BracketError,
    IndeterminateIntegralError,
    StepUnderflowError,
    TabulatedAntiderivative,
    brent_root,
    cumulative_parabolic,
    gauss_panels,
    improper_integral,
    integrate_sl_system,
)
from qsdlab.zoo import zoo_build


# ---------------------------------------------------------------- improper

def test_finite_endpoint_singularity():
    # int_0^1 y^(-1/2) dy = 2, singular at the lower endpoint
    res = improper_integral(lambda y: y ** -0.5, 0.0, 1.0)
    assert res.finite
    assert res.value == pytest.approx(2.0, abs=1e-8)


def test_finite_infinite_tail():
    res = improper_integral(lambda y: math.exp(-y), 1.0, math.inf)
    assert res.finite
    assert res.value == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_finite_two_sided_gaussian():
    res = improper_integral(lambda y: math.exp(-y * y), -math.inf, math.inf)
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_divergent_by_threshold():
    # int_0^1 y^(-8): level sums grow x128 per refinement and cross the
    # magnitude cutoff before the trend rule is even eligible
    res = improper_integral(lambda y: y ** -8.0, 0.0, 1.0)
    assert res.divergent
    assert res.rule == "threshold"
    assert res.direction == "lower"


def test_divergent_by_trend_inverse_square():
    # int_0^1 y^(-2) doubles per level: monotone growth trips the trend rule
    # while the partial sum is still tiny compared to the magnitude cutoff
    res = improper_integral(lambda y: y ** -2.0, 0.0, 1.0)
    assert res.divergent
    assert res.rule == "trend"
    assert res.direction == "lower"


def test_divergent_by_trend_harmonic():
    # int_1^inf 1/y grows by a constant per dyadic level -> trend rule fires
    # long before the magnitude cutoff would
    res = improper_integral(lambda y: 1.0 / y, 1.0, math.inf)
    assert res.divergent
    assert res.rule == "trend"
    assert res.direction == "upper"


def test_borderline_refuses_rather_than_guessing():
    # y^(-1.001) IS integrable at infinity (value ~1000) but its level
    # increments shrink so slowly that certifying either way would need
    # ~2^200 of dynamic range; the honest outcome is a refusal.
    with pytest.raises(IndeterminateIntegralError):
        improper_integral(lambda y: y ** -1.001, 1.0, math.inf)


def test_borderline_but_resolvable_power():
    # one notch further from the boundary the trend test settles: 5.0 exactly
    res = improper_integral(lambda y: y ** -1.2, 1.0, math.inf)
    assert res.finite
    assert res.value == pytest.approx(5.0, rel=1e-7)


def test_bad_interval_rejected():
    with pytest.raises(ValueError):
        improper_integral(lambda y: y, 2.0, 1.0)


# ---------------------------------------------------------------- panels

def test_gauss_panels_per_panel_polynomial_exactness():
    edges = np.array([0.0, 0.5, 1.25, 2.0])
    panels = gauss_panels(lambda x: 3 * x ** 2, edges, n=8)
    assert panels.shape == (3,)
    assert np.allclose(panels, np.diff(edges ** 3), rtol=1e-14, atol=1e-14)


def test_cumulative_parabolic_quadratic_exact():
    x = np.array([0.0, 0.3, 0.7, 1.1, 2.0, 2.4])   # deliberately non-uniform
    y = 3 * x ** 2 - 2 * x + 1
    want = x ** 3 - x ** 2 + x
    got = cumulative_parabolic(x, y)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_cumulative_parabolic_smooth_convergence():
    x = np.linspace(0.0, 2.0, 401)
    got = cumulative_parabolic(x, np.exp(-x))
    want = 1.0 - np.exp(-x)
    assert np.max(np.abs(got - want)) < 1e-10


# ---------------------------------------------------------------- antider

def test_tabulated_antiderivative_matches_closed_form():
    F = TabulatedAntiderivative(np.cos, 0.0)
    xs = np.array([-3.0, -0.2, 0.0, 0.4, 7.5])
    assert np.allclose(F(xs), np.sin(xs), atol=1e-11)
    # scalar query returns a float and reuses the knot table
    assert isinstance(F(1.0), float)
    assert F(1.0) == pytest.approx(math.sin(1.0), abs=1e-12)


def test_tabulated_antiderivative_singular_endpoint():
    # f = 1/(2 sqrt(x)) on (0, inf), F(x) - F(1) = sqrt(x) - 1; queries
    # close to the singular endpoint ride the geometric knot approach
    F = TabulatedAntiderivative(lambda x: 0.5 / np.sqrt(x), 1.0,
                                domain=(0.0, math.inf))
    xs = np.array([1e-6, 1e-3, 0.5, 4.0])
    assert np.allclose(F(xs), np.sqrt(xs) - 1.0, atol=5e-9)


def test_tabulated_antiderivative_rejects_nonfinite_query():
    F = TabulatedAntiderivative(np.cos, 0.0)
    with pytest.raises(ValueError):
        F(np.inf)


# ---------------------------------------------------------------- roots

def test_brent_root_cubic():
    r = brent_root(lambda x: x ** 3 - 2.0, (1.0, 2.0))
    assert r == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


def test_brent_root_requires_sign_change():
    with pytest.raises(BracketError):
        brent_root(lambda x: 1.0 + x * x, (-1.0, 1.0))


# ---------------------------------------------------------------- SL ODE

def _driftless(killing=None):
    return DiffusionModel(drift=ScalarField.constant(0.0),
                          killing=(None if killing is None
                                   else ScalarField.constant(killing)),
                          domain=(0.0, math.inf), x_ref=1.0,
                          name="driftless")


def test_sl_integration_against_trig():
    # drift 0 => speed density 1, so the pair ODE is u'' = -2 (lam - c) u
    # with constant killing c.  Launch (1, 0) at x=1: for g = lam - c > 0,
    # u = cos(k(x-1)), w = u' = -k sin(k(x-1)) with k = sqrt(2g); for g < 0,
    # u = cosh(k(x-1)), w = k sinh(k(x-1)) with k = sqrt(-2g).  lam = 50
    # (k = 10, 16 zeros on (1, 6)) makes the oscillation, not the sample
    # spacing, set the cell size.
    for lam, c in ((2.0, None), (3.0, 0.75), (0.5, 2.5), (50.0, None)):
        m = _driftless(c)
        ss = scale_speed(m)
        g = lam - (c or 0.0)
        k = math.sqrt(2 * abs(g))
        if g > 0:
            u_of = lambda s: np.cos(k * s)
            w_of = lambda s: -k * np.sin(k * s)
            zeros = math.floor(5 * k / math.pi + 0.5)
        else:
            u_of = lambda s: np.cosh(k * s)
            w_of = lambda s: k * np.sinh(k * s)
            zeros = 0
        traj = integrate_sl_system(m, ss, lam, 1.0, 6.0, (1.0, 0.0),
                                   n_samples=900)
        s = traj.grid - 1.0
        scale = np.exp(traj.log_scale)
        tol = 1e-8 * np.maximum(1.0, np.abs(u_of(s)))
        assert np.all(np.abs(traj.u * scale - u_of(s)) < tol), (lam, c)
        assert np.all(np.abs(traj.w * scale - w_of(s)) < tol), (lam, c)
        # cos(k(x-1)) has floor(5k/pi + 1/2) interior zeros on (1, 6)
        assert traj.sign_changes(0) == zeros, (lam, c)
        u6, w6 = traj.final
        assert u6 * math.exp(traj.final_log_scale) == pytest.approx(
            float(u_of(5.0)), abs=1e-8 * max(1.0, abs(float(u_of(5.0)))))

    # bessel nu = -3/2 has rho = x^-2 and the solution u = cos(kx) + kx sin(kx),
    # rho u' = k^2 cos(kx) / x.  With rho varying, the cell maps no longer
    # commute and are no longer exact, so at lam = 50 the sqrt(2 lam) * h
    # part of the cell rule decides the accuracy (dropping it costs ~2e-6).
    m = zoo_build("bessel", {"nu": -1.5})
    k = 10.0
    traj = integrate_sl_system(m, scale_speed(m), 0.5 * k * k, 1.0, 6.0,
                               (math.cos(k) + k * math.sin(k), k * k * math.cos(k)),
                               n_samples=900)
    x = traj.grid
    scale = np.exp(traj.log_scale)
    u_true = np.cos(k * x) + k * x * np.sin(k * x)
    w_true = k * k * np.cos(k * x) / x
    assert np.all(np.abs(traj.u * scale - u_true)
                  < 1e-7 * np.maximum(1.0, np.abs(u_true)))
    assert np.all(np.abs(traj.w * scale - w_true)
                  < 1e-7 * np.maximum(1.0, np.abs(w_true)))


def test_sl_rescaling_keeps_true_values():
    # strong negative drift => rho = e^{-2(x-1)}; with lam = 0 and init (1,1)
    # the second solution is u = (e^{2(x-1)} - ... ) -- easier: w = rho u'
    # constant along lam=0, so u(x) = 1 + int_1^x e^{+2(s-1)} ds grows like
    # e^{2x} and forces chunk rescaling over a long window.
    m = DiffusionModel(drift=ScalarField.constant(-1.0),
                       domain=(0.0, math.inf), x_ref=1.0, name="unitpull")
    ss = scale_speed(m)
    traj = integrate_sl_system(m, ss, 0.0, 1.0, 180.0, (1.0, 1.0),
                               n_samples=500)
    u_true_log = (math.log(0.5) +
                  np.logaddexp(np.log(1.0), 2.0 * (traj.grid - 1.0)))
    got_log = np.log(np.abs(traj.u)) + traj.log_scale
    # exact: u = 1 + (e^{2(x-1)} - 1)/2 = (1 + e^{2(x-1)})/2
    assert np.max(np.abs(got_log - u_true_log)) < 1e-7
    # rescaling really engaged: raw stored values stay bounded while the
    # reconstructed solution reaches e^{2*179} ~ 1e155
    assert np.max(np.abs(traj.values)) < 1e110
    assert traj.final_log_scale > 100.0
    # growth beyond double range inside one chunk cannot be rescaled away:
    # u'' = 4e7 u grows by e^988 over a chunk of (1, 6)
    m = _driftless()
    with pytest.raises(StepUnderflowError):
        integrate_sl_system(m, scale_speed(m), -2e7, 1.0, 6.0, (1.0, 0.0),
                            n_samples=64)


def test_sl_continuation_values_frozen():
    # exact sums recorded from the chunk-by-chunk continuation; the one-pass
    # scan forms every product in the same order, so they match bit for bit
    pb = zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0})
    be = zoo_build("bessel", {"nu": -1.5})
    killed = _driftless(0.75)
    cases = [
        # perturbed_bessel from its left-end radius to the widest truncation
        (pb, 3.0, 0.75, 7.547, 600,
         (-5.381485591799657e+23, 0.0,
          (-8.557128611398706e+22, -0.011107413297480237), 0.0)),
        (be, 50.0, 1.0, 6.0, 600,
         (-109.2001623906918, 0.0,
          (5.816033655648646, 0.4372914235142308), 0.0)),
        # lam = -50 grows like e^{10x}: the positive rescaling fires
        (be, -50.0, 1.0, 30.0, 600,
         (6.710090073245666e+103, 25717.931368515998,
          (5.0342270994424445e+23, 5.612293310356567e+21), 238.1289941529259)),
        (killed, 3.0, 1.0, 6.0, 900,
         (-324.0291174415249, 0.0,
          (-0.3792379350927157, 1.9628559928429286), 0.0)),
        # 3494 cells per chunk: more than one scan run per shot
        (be, 1e5, 1.0, 6.0, 64,
         (65.92628681231255, 0.0, (4.408008162984785, 50.58735431587429), 0.0)),
    ]
    for m, lam, a, b, n, (vals, logs, final, final_log) in cases:
        traj = integrate_sl_system(m, scale_speed(m), lam, a, b, (1.0, 0.0),
                                   n_samples=n)
        assert math.fsum(traj.values.ravel()) == vals, (m.name, lam)
        assert math.fsum(traj.log_scale) == logs, (m.name, lam)
        assert traj.final == final, (m.name, lam)
        assert traj.final_log_scale == final_log, (m.name, lam)
    m = _driftless()
    with pytest.raises(StepUnderflowError) as err:
        integrate_sl_system(m, scale_speed(m), -2e7, 1.0, 6.0, (1.0, 0.0),
                            n_samples=64)
    assert err.value.last_point == 1.078125
    # killing 1e7 (x/4)^40 overflows in chunk 19 of 32, before the cells of
    # the later chunks (1e8 in the last one) are ever built
    m = DiffusionModel(drift=ScalarField.constant(0.0),
                       killing=ScalarField.from_expression("1e7 * (x / 4)^40"),
                       domain=(0.0, math.inf), x_ref=1.0, name="steep")
    with pytest.raises(StepUnderflowError) as err:
        integrate_sl_system(m, scale_speed(m), 0.0, 1.0, 6.0, (1.0, 0.0),
                            n_samples=64)
    assert err.value.last_point == 4.046875
    assert err.value.last_state == (1.1443278750041225e+155,
                                    6.457602010913294e+158)


def test_sl_grid_monotone_guard():
    m = _driftless()
    ss = scale_speed(m)
    with pytest.raises(Exception):
        integrate_sl_system(m, ss, 1.0, 2.0, 2.0, (1.0, 0.0))
