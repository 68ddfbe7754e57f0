"""Quadrature / ODE workhorse tests.

Everything here has a closed-form oracle; the divergence-policy cases pin the
exact refusal behavior on the borderline family y^(-p) near p = 1.
"""
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qsdlab

from qsdlab.model import DiffusionModel, ScalarField
import qsdlab.numerics
from qsdlab.numerics import (
    SL_CHUNKS,
    SL_MAX_CELLS,
    BracketError,
    IndeterminateIntegralError,
    QsdlabError,
    StepUnderflowError,
    TabulatedAntiderivative,
    _cell_counts,
    _cell_samples,
    _chunk_maps,
    _log_integral,
    _magnus_cells,
    _median,
    _pilot,
    _quantiles,
    _richardson,
    _sorted_unique,
    brent_root,
    cumulative_parabolic,
    gauss_panels,
    improper_integral,
    integrate_sl_system,
    tridiagonal_lowest,
)
from qsdlab import spectral
from qsdlab.zoo import zoo_build


# ---------------------------------------------------------------- improper

def test_finite_endpoint_singularity():
    # int_0^1 y^(-1/2) dy = 2, singular at the lower endpoint
    res = improper_integral(lambda y: -0.5 * np.log(y), 0.0, 1.0)
    assert res.finite
    assert res.value == pytest.approx(2.0, abs=1e-8)


def test_finite_infinite_tail():
    res = improper_integral(lambda y: -y, 1.0, math.inf)
    assert res.finite
    assert res.value == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_finite_two_sided_gaussian():
    res = improper_integral(lambda y: -y * y, -math.inf, math.inf)
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_divergent_by_threshold():
    # int_0^1 y^(-8): level sums grow x128 per refinement and cross the
    # magnitude cutoff before the trend rule is even eligible
    res = improper_integral(lambda y: -8.0 * np.log(y), 0.0, 1.0)
    assert res.verdict == "divergent"
    assert res.rule == "threshold"
    assert res.name == "lower"


def test_divergent_by_trend_inverse_square():
    # int_0^1 y^(-2) doubles per level: monotone growth trips the trend rule
    # while the partial sum is still tiny compared to the magnitude cutoff
    res = improper_integral(lambda y: -2.0 * np.log(y), 0.0, 1.0)
    assert res.verdict == "divergent"
    assert res.rule == "trend"
    assert res.name == "lower"


def test_divergent_by_trend_harmonic():
    # int_1^inf 1/y grows by a constant per dyadic level -> trend rule fires
    # long before the magnitude cutoff would
    res = improper_integral(lambda y: -np.log(y), 1.0, math.inf)
    assert res.verdict == "divergent"
    assert res.rule == "trend"
    assert res.name == "upper"


def test_borderline_refuses_rather_than_guessing():
    # y^(-1.001) IS integrable at infinity (value ~1000) but its level
    # increments shrink so slowly that certifying either way would need
    # ~2^200 of dynamic range; the honest outcome is a refusal.
    with pytest.raises(IndeterminateIntegralError):
        improper_integral(lambda y: -1.001 * np.log(y), 1.0, math.inf)


def test_borderline_but_resolvable_power():
    # one notch further from the boundary the trend test settles: 5.0 exactly
    res = improper_integral(lambda y: -1.2 * np.log(y), 1.0, math.inf)
    assert res.finite
    assert res.value == pytest.approx(5.0, rel=1e-7)


def test_bad_interval_rejected():
    with pytest.raises(ValueError):
        improper_integral(lambda y: np.log(y), 2.0, 1.0)


# ---------------------------------------------------------------- panels

def test_gauss_panels_per_panel_polynomial_exactness():
    edges = np.array([0.0, 0.5, 1.25, 2.0])
    panels = gauss_panels(lambda x: 3 * x ** 2, edges, n=8)
    assert panels.shape == (3,)
    assert np.allclose(panels, np.diff(edges ** 3), rtol=1e-14, atol=1e-14)


# the one log-space panel rule: each case has a closed form, and the rule
# meets it to a few ulps, so each tolerance is 1e-13 relative

def test_log_integral_steep_layer_at_the_left_end():
    # int_0^5 e^{-1000 x} dx = (1 - e^{-5000}) / 1000: all the mass within
    # 1/1000 of the left end of a panel 5000 layer widths long
    got = math.exp(_log_integral(lambda x: -1000.0 * x, 0.0, 5.0))
    assert got == pytest.approx(1e-3, rel=1e-13)


def test_log_integral_steep_layer_at_the_right_end():
    got = math.exp(_log_integral(lambda x: -1000.0 * (5.0 - x), 0.0, 5.0))
    assert got == pytest.approx(1e-3, rel=1e-13)


def test_log_integral_broad_interior_bump():
    # int_0^10 e^{-(x - 5)^2} dx = sqrt(pi) erf(5): the peak is far from
    # both ends, where only the uniform panels see it
    got = math.exp(_log_integral(lambda x: -(x - 5.0) ** 2, 0.0, 10.0))
    assert got == pytest.approx(math.sqrt(math.pi) * math.erf(5.0),
                                rel=1e-13)


def test_log_integral_with_a_log_integrand_of_minus_inf():
    # exp(logf) vanishes on [0, 1), whose panels drop out of the sum; the
    # edge 1 is a panel break, so int_0^2 is int_1^2 e^{-x} dx
    logf = lambda x: np.where(x < 1.0, -np.inf, -x)
    got = math.exp(_log_integral(logf, 0.0, 2.0))
    assert got == pytest.approx(math.exp(-1.0) - math.exp(-2.0), rel=1e-13)
    # -inf everywhere, or an empty interval, is the log of 0
    assert _log_integral(lambda x: np.full_like(x, -np.inf), 0.0, 1.0) \
        == -math.inf
    assert _log_integral(lambda x: -x, 1.0, 1.0) == -math.inf


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


def test_tabulated_antiderivative_inverse():
    # F = sin on (-1.5, 1.5): the inverse is arcsin inside the range F
    # reaches, and a value beyond it is refused, not clipped
    F = TabulatedAntiderivative(np.cos, 0.0, domain=(-1.5, 1.5))
    rs = np.array([-0.99, -0.3, 0.0, 0.5, 0.99])
    assert np.allclose(F.inverse(rs), np.arcsin(rs), rtol=0, atol=1e-14)
    assert isinstance(F.inverse(0.5), float)
    for r in (1.2, -1.2):
        with pytest.raises(QsdlabError, match="beyond"):
            F.inverse(r)


# integrands and domains of the lattice properties; the singular integrands
# are queried at x >= 0.05 on a domain that reaches below 0, where their
# expressions are undefined
_INTEGRANDS = {
    "cos": (np.cos, False),
    "2 drift": (lambda x: 2.0 * (-1.0 - 1.0 / (2.0 * x)), True),
    "half/sqrt": (lambda x: 0.5 / np.sqrt(x), True),
}
_DOMAINS = [(-math.inf, math.inf), (0.0, math.inf), (-1.5, 1.5)]


def _bits(a):
    return np.atleast_1d(np.asarray(a, dtype=float)).view(np.uint64)


@st.composite
def _lattice_case(draw, max_points=12):
    name = draw(st.sampled_from(sorted(_INTEGRANDS)))
    domain = draw(st.sampled_from(_DOMAINS))
    singular = _INTEGRANDS[name][1]
    lo = 0.05 if singular and domain[0] < 0.0 else max(domain[0], -40.0)
    hi = min(domain[1], 40.0)
    # hypothesis's own floats favour the ends and round numbers; finite
    # domain ends are drawn exactly, as the FE oracle queries them; points
    # spread by a drawn seed fill the interior
    ends = [e for e in domain if lo <= e <= hi] or [hi]
    point = st.one_of(st.floats(lo, hi), st.sampled_from(ends))
    pts = draw(st.lists(point, max_size=max_points))
    spread = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(
        lo, hi, draw(st.integers(1, max_points)))
    pts = np.concatenate((pts, spread))
    order = draw(st.permutations(range(len(pts))))
    return name, domain, pts, list(order)


@given(_lattice_case())
def test_tabulated_antiderivative_ignores_query_order(case):
    # F is a pure function of x: one table asked point by point in one
    # order and another asked for the whole batch at once in another order
    # give the same bits at every point
    name, domain, pts, order = case
    f = _INTEGRANDS[name][0]
    with np.errstate(all="ignore"):
        one = TabulatedAntiderivative(f, 1.0, domain)
        singly = np.array([one(float(pts[i])) for i in order])
        batch = TabulatedAntiderivative(f, 1.0, domain)(pts[order][::-1])
    assert np.array_equal(_bits(singly), _bits(batch[::-1]))


@given(_lattice_case(max_points=40))
def test_tabulated_antiderivative_inverse_is_batch_free(case):
    # for a positive integrand (the drift one negated), each r gets the
    # same bits from inverse alone as inside the batch, whatever the order
    name, domain, pts, order = case
    f, sign = _INTEGRANDS[name][0], (-1.0 if name == "2 drift" else 1.0)
    g = lambda x: sign * f(x)
    if name == "cos":
        domain, pts = (-1.5, 1.5), np.clip(pts, -1.5, 1.5)
    elif domain[0] < 0.0:
        domain = (0.0, math.inf)
    pts = pts[(pts > domain[0]) & (pts < domain[1])]
    # the drawn order, restricted to the points kept
    order = [i for i in order if i < len(pts)]
    if not order:
        return
    with np.errstate(all="ignore"):
        rs = TabulatedAntiderivative(g, 1.0, domain)(pts)
        batch = TabulatedAntiderivative(g, 1.0, domain).inverse(rs[::-1])
        table = TabulatedAntiderivative(g, 1.0, domain)
        alone = np.array([table.inverse(float(rs[i])) for i in order])
    assert np.array_equal(_bits(alone), _bits(batch[::-1][order]))
    assert np.allclose(alone, pts[order], rtol=1e-12, atol=1e-12)


def test_tabulated_antiderivative_values_survive_extension():
    # log rho of drift -1 - 1/(2x) on (0, inf) over [5, 25] from a table
    # grown to 30 at once and one grown to 12, then 30: 577 of the 2001
    # points differed while each extension marched from the table's end
    model = DiffusionModel(
        drift=ScalarField.from_expression("-1 - 1/(2*x)"),
        domain=(0.0, math.inf), x_ref=1.0, name="custom")
    xs = np.linspace(5.0, 25.0, 2001)
    a, b = model, replace(model)
    a.log_speed(30.0)
    b.log_speed(12.0)
    b.log_speed(30.0)
    assert np.array_equal(_bits(a.log_speed(xs)), _bits(b.log_speed(xs)))


# ---------------------------------------------------------------- roots

def test_brent_root_cubic():
    r = brent_root(lambda x: x ** 3 - 2.0, (1.0, 2.0))
    assert r == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


def test_brent_root_requires_sign_change():
    with pytest.raises(BracketError):
        brent_root(lambda x: 1.0 + x * x, (-1.0, 1.0))


def test_brent_root_nan_raises_naming_x():
    seen = []

    def f(x):
        seen.append(x)
        return x - 0.3 if x in (0.0, 1.0) else math.nan
    with pytest.raises(QsdlabError, match="NaN") as info:
        brent_root(f, (0.0, 1.0))
    assert repr(seen[-1]) in str(info.value) and seen[-1] not in (0.0, 1.0)
    with pytest.raises(QsdlabError, match=r"NaN at x = 1\.0"):
        brent_root(lambda x: -1.0 if x == 0.0 else math.nan, (0.0, 1.0))


def test_brent_root_maxiter_raises_naming_x():
    with pytest.raises(QsdlabError, match="did not converge in 2 iterations; "
                                          "last x = "):
        brent_root(lambda x: x ** 3 - 2.0, (1.0, 2.0), maxiter=2)


# five families of (f, bracket) with a sign change; math, not numpy, so a
# call costs what scipy's own callback does
def _poly(rng):
    c = rng.standard_normal(4)
    return (lambda x: ((c[3] * x + c[2]) * x + c[1]) * x + c[0]), (-3.0, 3.0)


def _oscillatory(rng):
    w, p, a = rng.uniform(1, 30), rng.uniform(0, 6.3), rng.uniform(0, .5)
    return (lambda x: math.sin(w * x + p) + a * math.cos(3 * w * x)), (-2, 2)


def _exponential(rng):
    a = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0)
    c = rng.uniform(0.1, 10.0)
    return (lambda x: math.exp(a * x) - c), (-6.0, 6.0)


def _steep_tanh(rng):
    s, r = 10.0 ** rng.uniform(0.0, 6.0), rng.uniform(-1.0, 1.0)
    e = rng.uniform(-0.5, 0.5)
    return (lambda x: math.tanh(s * (x - r)) + e), (-2.0, 2.0)


def _kink(rng):
    r = rng.uniform(-1.0, 1.0)
    return (lambda x: x - r if x >= r else 1e-8 * (x - r)), (-2.0, 2.0)


def _traced(solver, f, a, b, xtol, maxiter, failure):
    xs = []

    def g(x):
        xs.append(x)
        return f(x)
    try:
        return solver(g, a, b, xtol, maxiter), xs
    except failure:
        return "no convergence", xs


def test_brent_root_is_scipy_brentq_bit_for_bit():
    # scipy appears here only as the oracle: brent_root ports brentq.c, so
    # every root and every point it evaluates must be brentq's.  brent_root
    # used to call brentq after computing f at both ends itself; the
    # sequence below is brentq's own, i.e. those two repeats removed.
    from scipy.optimize import brentq
    rtol = 4 * np.finfo(float).eps

    def ours(g, a, b, xtol, maxiter):
        return brent_root(g, (a, b), tol=xtol, maxiter=maxiter)

    def oracle(g, a, b, xtol, maxiter):
        return brentq(g, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)

    rng = np.random.default_rng(20261018)
    cases = failures = 0
    for family in (_poly, _oscillatory, _exponential, _steep_tanh, _kink):
        n_brackets = 0
        while n_brackets < 900:
            f, (lo, hi) = family(rng)
            a, b = rng.uniform(lo, hi, size=2)
            fa, fb = f(a), f(b)
            if fa == 0.0 or fb == 0.0 or (fa < 0.0) == (fb < 0.0):
                continue
            n_brackets += 1
            for xtol in 10.0 ** rng.uniform(-14.0, -4.0, size=5):
                maxiter = 200 if rng.random() < 0.9 else int(rng.integers(1, 8))
                got, got_xs = _traced(ours, f, a, b, xtol, maxiter, QsdlabError)
                ref, ref_xs = _traced(oracle, f, a, b, xtol, maxiter,
                                      RuntimeError)
                assert got == ref and got_xs == ref_xs, \
                    (family.__name__, a, b, xtol, maxiter)
                cases += 1
                failures += got == "no convergence"
    assert cases == 22500 and failures > 100


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
        traj = integrate_sl_system(m.killing, m, lam, 1.0, 6.0, (1.0, 0.0),
                                   n_samples=900)
        s = traj.grid - 1.0
        scale = np.exp(traj.log_scale)
        tol = 1e-8 * np.maximum(1.0, np.abs(u_of(s)))
        assert np.all(np.abs(traj.u * scale - u_of(s)) < tol), (lam, c)
        assert np.all(np.abs(traj.w * scale - w_of(s)) < tol), (lam, c)
        # cos(k(x-1)) has floor(5k/pi + 1/2) interior zeros on (1, 6)
        assert traj.sign_changes() == zeros, (lam, c)
        u6, w6 = traj.final
        assert u6 * math.exp(traj.final_log_scale) == pytest.approx(
            float(u_of(5.0)), abs=1e-8 * max(1.0, abs(float(u_of(5.0)))))

    # bessel nu = -3/2 has rho = x^-2 and the solution u = cos(kx) + kx sin(kx),
    # rho u' = k^2 cos(kx) / x.  With rho varying, the cell maps no longer
    # commute and are no longer exact, so at lam = 50 the sqrt(2 lam) * h
    # part of the cell rule decides the accuracy (dropping it costs ~2e-6).
    m = zoo_build("bessel", {"nu": -1.5})
    k = 10.0
    traj = integrate_sl_system(m.killing, m, 0.5 * k * k, 1.0, 6.0,
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
    traj = integrate_sl_system(m.killing, m, 0.0, 1.0, 180.0, (1.0, 1.0),
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
        integrate_sl_system(m.killing, m, -2e7, 1.0, 6.0, (1.0, 0.0),
                            n_samples=64)


def _sl_frozen_cases():
    """The continuation runs whose bits are frozen:
    (model, lam, x_from, x_to, n_samples), each launched from (1, 0)."""
    pb = zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0})
    be = zoo_build("bessel", {"nu": -1.5})
    return [
        # perturbed_bessel from its left-end radius to the widest truncation
        (pb, 3.0, 0.75, 7.547, 600),
        (be, 50.0, 1.0, 6.0, 600),
        # lam = -50 grows like e^{10x}: the positive rescaling fires
        (be, -50.0, 1.0, 30.0, 600),
        (_driftless(0.75), 3.0, 1.0, 6.0, 900),
        # 3494 cells per chunk: more than one scan run per shot
        (be, 1e5, 1.0, 6.0, 64),
    ]


def _sl_digest(m, lam, a, b, n):
    """Exact sums of a continuation run's samples and log scales, and its
    final state and log scale."""
    traj = integrate_sl_system(m.killing, m, lam, a, b, (1.0, 0.0),
                               n_samples=n)
    return (math.fsum(traj.values.ravel()), math.fsum(traj.log_scale),
            traj.final, traj.final_log_scale)


def test_sl_continuation_values_frozen():
    # exact sums recorded from the chunk-by-chunk continuation; the one-pass
    # scan forms every product in the same order, so they match bit for bit.
    # Each product is two roundings and one add, as an OpenBLAS kernel
    # without FMA forms it (OPENBLAS_CORETYPE=Prescott): the values hold on
    # any host, and the composition never calls BLAS
    want = [
        (-5.381485591799659e+23, 0.0,
         (-8.557128611398709e+22, -0.01110741329748024), 0.0),
        (-109.20016239069194, 0.0,
         (5.816033655648637, 0.4372914235142323), 0.0),
        (6.710090073245706e+103, 25717.931368515998,
         (5.034227099442442e+23, 5.612293310356566e+21), 238.1289941529259),
        (-324.0291174415254, 0.0,
         (-0.37923793509271897, 1.9628559928429365), 0.0),
        (65.92628681231204, 0.0, (4.408008162984782, 50.58735431587385), 0.0),
    ]
    for case, digest in zip(_sl_frozen_cases(), want, strict=True):
        assert _sl_digest(*case) == digest, (case[0].name, case[1])
    m = _driftless()
    with pytest.raises(StepUnderflowError) as err:
        integrate_sl_system(m.killing, m, -2e7, 1.0, 6.0, (1.0, 0.0),
                            n_samples=64)
    assert err.value.last_point == 1.078125
    # killing 1e7 (x/4)^40 overflows in chunk 19 of 32, before the cells of
    # the later chunks (1e8 in the last one) are ever built
    m = DiffusionModel(drift=ScalarField.constant(0.0),
                       killing=ScalarField.from_expression("1e7 * (x / 4)^40"),
                       domain=(0.0, math.inf), x_ref=1.0, name="steep")
    with pytest.raises(StepUnderflowError) as err:
        integrate_sl_system(m.killing, m, 0.0, 1.0, 6.0, (1.0, 0.0),
                            n_samples=64)
    assert err.value.last_point == 4.046875
    assert err.value.last_state == (1.144327875004119e+155,
                                    6.457602010913271e+158)


class _CountingModel:
    """Stands in for a model and counts its speed-density calls."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def speed_density(self, x):
        self.calls += 1
        return self.inner.speed_density(x)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _traj_bits(traj):
    return (traj.grid.tobytes(), traj.values.tobytes(),
            traj.log_scale.tobytes(), traj.final, traj.final_log_scale)


def test_lam_free_samples_keep_the_bits_and_evaluate_once_per_layout():
    # rho, 1/rho and kappa at the cells' nodes do not depend on lam: one dict
    # kept across calls holds them per cell layout, and every shot reads the
    # same products as one that evaluates them afresh
    pb = zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0})
    killed = _driftless(0.75)
    for m, lams, a, b, n in ((pb, (3.0, 3.0, 3.0000001, 5.0, 3.0), 0.75,
                              7.547, 600),
                             (killed, (3.0, 0.5, 3.0), 1.0, 6.0, 900)):
        edges = np.linspace(a, b, SL_CHUNKS + 1)
        segs = np.linspace(edges[:-1], edges[1:], n // SL_CHUNKS + 1, axis=1)
        counted, lam_free, layouts = _CountingModel(m), {}, set()
        for lam in lams:
            fresh = integrate_sl_system(m.killing, m, lam, a, b, (1.0, 0.0),
                                        n_samples=n)
            kept = integrate_sl_system(m.killing, counted, lam, a, b,
                                       (1.0, 0.0), n_samples=n,
                                       lam_free=lam_free)
            assert _traj_bits(kept) == _traj_bits(fresh), (m.name, lam)
            layouts.add(_cell_counts(_pilot(m, m.killing, segs), lam,
                                     segs).tobytes())
        assert counted.calls == len(layouts) < len(lams), m.name


def test_lam_free_samples_stop_at_their_cell_budget(monkeypatch):
    # past SL_KEPT_CELLS a new layout is evaluated but not kept, so the dict
    # cannot grow with the shots of a long search
    m = zoo_build("bessel", {"nu": -1.5})
    monkeypatch.setattr(qsdlab.numerics, "SL_KEPT_CELLS", 3000)
    counted, lam_free = _CountingModel(m), {}
    for lam in (1.0, 2000.0, 1.0, 2000.0, 2000.0):
        traj = integrate_sl_system(m.killing, counted, lam, 1.0, 6.0,
                                   (1.0, 0.0), n_samples=64,
                                   lam_free=lam_free)
        assert _traj_bits(traj) == _traj_bits(integrate_sl_system(
            m.killing, m, lam, 1.0, 6.0, (1.0, 0.0), n_samples=64))
    # lam = 1 fits and is kept; lam = 2000 needs more cells and is not
    assert 0 < lam_free["kept cells"] <= 3000
    assert counted.calls == 4


@given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1e-300, 1.0, 1.0 + 2e-16,
                                 3.0, math.inf]), min_size=1, max_size=30))
def test_sorted_unique_is_np_unique(values):
    a = np.array(values).reshape(-1, 1) if len(values) % 2 else np.array(values)
    assert _sorted_unique(a).tobytes() == np.unique(a).tobytes()


_QS = [0.0, 1e-4, 0.005, 0.025, 0.5, 0.975, 0.995, 1 - 1e-4, 1.0]


def _tied_sample(n, seed):
    # long runs of tied zeros of both signs: which sign an order statistic
    # reads depends on where numpy's partition leaves them
    return np.random.default_rng(seed).choice([-0.0, 0.0], n)


@given(st.one_of(
    st.lists(st.one_of(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0]),
                       st.floats(allow_nan=False, allow_infinity=False)),
             min_size=1, max_size=60).map(np.array),
    st.builds(_tied_sample, st.integers(1, 3000), st.integers(0, 2**32 - 1))))
def test_quantile_helpers_are_numpys(a):
    # odd and even sizes, ties and the quantiles that compare, the probe
    # and the survival CI take
    bits = lambda vs: [np.float64(v).tobytes() for v in vs]
    with np.errstate(all="ignore"):       # a spread past the float range
        assert bits(_quantiles(a, _QS)) == bits(np.quantile(a, q)
                                                for q in _QS)
        assert bits(_quantiles(a, [100 * q / 100 for q in _QS])) == bits(
            np.percentile(a, 100 * q) for q in _QS)
        assert bits([_median(a)]) == bits([np.median(a)])


def test_sl_grid_monotone_guard():
    # an empty or a reversed interval is refused, naming both ends
    m = _driftless()
    for x_from, x_to in ((2.0, 2.0), (3.0, 2.0)):
        with pytest.raises(QsdlabError, match=rf"x_to = {x_to} is not past "
                                              rf"x_from = {x_from}"):
            integrate_sl_system(m.killing, m, 1.0, x_from, x_to, (1.0, 0.0))


@pytest.mark.parametrize("killed,lam", [(False, 3.0), (True, 0.5)],
                         ids=["pbessel oscillating", "killed growing"])
def test_chunk_scan_against_chunks_alone_and_a_plain_product(killed, lam):
    # uneven cell counts, so the stacked chunks carry identity padding
    m = (_driftless(0.75) if killed
         else zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0}))
    kappa = m.killing
    edges = np.linspace(0.75, 3.0, 4)
    segs = np.linspace(edges[:-1], edges[1:], 5, axis=1)
    n_cells = np.array([[1, 7, 2, 30], [13, 1, 1, 4], [40, 22, 9, 17]])
    maps = _chunk_maps(lam, n_cells, _cell_samples(m, kappa, segs, n_cells))
    assert maps.shape == (3, 4, 4)
    for i in range(3):
        # the padding after a chunk's real cells changes none of its bits
        alone = _chunk_maps(lam, n_cells[i:i + 1],
                            _cell_samples(m, kappa, segs[i:i + 1],
                                          n_cells[i:i + 1]))
        assert np.array_equal(alone[0], maps[i])
        prod = np.eye(2)
        for j, n in enumerate(n_cells[i]):
            # the n equal cells of interval j alone
            cells = _magnus_cells(lam, *_cell_samples(
                m, kappa, segs[i:i + 1, j:j + 2], np.array([[n]])))
            for cell in np.stack(cells, axis=-1).reshape(n, 2, 2):
                prod = cell @ prod
            assert np.max(np.abs(maps[i, j].reshape(2, 2) - prod)) <= (
                1e-12 * np.max(np.abs(prod))), (i, j)
    # every prefix is a product of determinant-1 maps
    a00, a01, a10, a11 = np.moveaxis(maps, -1, 0)
    size = np.abs(a00 * a11) + np.abs(a01 * a10)
    assert np.all(np.abs(a00 * a11 - a01 * a10 - 1.0) <= 1e-13 * size)


_HOST_PROBE = """
import math, sys
sys.path.insert(0, sys.argv[1])
from test_numerics import _sl_digest, _sl_frozen_cases
from qsdlab.spectral import eigen_shoot
from qsdlab.zoo import zoo_build
res = eigen_shoot(zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0}), K=2)
print(repr([_sl_digest(*case) for case in _sl_frozen_cases()]))
print(repr((res.truncation, res.eigenvalues.tolist(), res.extrapolation_error,
            [(math.fsum(phi.phi), math.fsum(phi.w))
             for phi in res.eigenfunctions])))
"""


def test_shooting_bits_do_not_depend_on_the_openblas_kernel(tmp_path):
    # the continuation composes its maps without BLAS, so forcing OpenBLAS
    # onto a kernel without FMA moves no bit of a shot; where the variable
    # has no effect (another BLAS, or a host without that kernel) the two
    # runs agree trivially
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qsdlab.__file__))
    out = [subprocess.run([sys.executable, "-c", _HOST_PROBE,
                           os.path.dirname(os.path.abspath(__file__))],
                          cwd=tmp_path, env=dict(env, **extra),
                          capture_output=True, text=True, check=True,
                          timeout=300).stdout
           for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"})]
    assert out[0] == out[1]
    assert out[0].count("\n") == 2


def test_a_shot_past_the_cell_budget_is_refused_before_it_is_built():
    # bessel nu = -3/2 at lam = 1e9 oscillates with k = 44721 on (1, 6) and
    # never overflows: nothing but the budget stops its 1.1e7 cells
    m = zoo_build("bessel", {"nu": -1.5})
    edges = np.linspace(1.0, 6.0, SL_CHUNKS + 1)
    segs = np.linspace(edges[:-1], edges[1:], 3, axis=1)
    assert _cell_counts(_pilot(m, None, segs), 1e9, segs).sum() > (
        10 * SL_MAX_CELLS)
    start = time.perf_counter()
    with pytest.raises(QsdlabError,
                       match=r"349386 Magnus cells in chunk 4 of 32 "
                             r"\(x = 1.46875 to 1.625\), 1397544 in all") as err:
        integrate_sl_system(m.killing, m, 1e9, 1.0, 6.0, (1.0, 0.0),
                            n_samples=64)
    assert not isinstance(err.value, StepUnderflowError)
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------- Richardson
# The five hand-written Richardson steps that `_richardson` replaced, copied
# verbatim as references: shooting across the truncation ladder, the FE
# truncation ladder, the FE and Schrodinger mesh pairs, and the derivative
# of `model._fd_derivative`.

def _ref_shoot(roots, truncations):
    ts = np.array(truncations)
    K = roots.shape[1]
    eigenvalues = np.empty(K)
    errors = np.empty(K)
    for k in range(K):
        lam_t = np.array([roots[j][k] for j in range(len(truncations))])
        extr = [(lam_t[i + 1] * ts[i + 1] ** 2 - lam_t[i] * ts[i] ** 2)
                / (ts[i + 1] ** 2 - ts[i] ** 2) for i in range(len(ts) - 1)]
        eigenvalues[k] = extr[-1]
        errors[k] = (abs(extr[-1] - extr[-2]) if len(extr) >= 2
                     else abs(extr[-1] - lam_t[-1]))
    return eigenvalues, errors


def _ref_fd_ladder(lam, lads):
    ts2 = np.array(lads) ** 2
    extr = [(lam[i + 1] * ts2[i + 1] - lam[i] * ts2[i])
            / (ts2[i + 1] - ts2[i]) for i in range(len(lads) - 1)]
    err_t = (np.max(np.abs(extr[-1] - extr[-2])) if len(extr) >= 2
             else np.max(np.abs(extr[-1] - lam[-1])))
    return extr[-1], err_t


def _ref_mesh_pair(coarse, fine):      # _fd_once pair and Schrodinger pair
    ext = (4.0 * fine - coarse) / 3.0
    errs = np.abs(fine - coarse) / 3.0
    return ext, errs


def _ref_fd_derivative(d1, d2):
    return (4.0 * d2 - d1) / 3.0


def test_richardson_reproduces_the_replaced_formulas():
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        n_t, K = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        ts = np.sort(rng.uniform(3.0, 20.0, n_t))
        lam = rng.uniform(0.1, 10.0, K) * (1.0 + rng.normal(0, 1e-3, (n_t, K)))
        # the weights as each call site forms them: eigen_shoot squares
        # floats (libm pow), the FE ladder squares an array (t * t)
        want, want_err = _ref_shoot(lam, ts)
        got, got_err = _richardson(list(lam), [t ** 2 for t in ts.tolist()])
        assert np.array_equal(got, want)
        want_l, want_lerr = _ref_fd_ladder(lam, ts)
        got_l, got_lerr = _richardson(list(lam), ts ** 2)
        assert np.array_equal(got_l, want_l)
        if n_t >= 3:
            assert np.array_equal(got_err, want_err)
            assert np.max(got_lerr) == want_lerr
        else:
            # two levels: |v1 - v0| / (w1/w0 - 1) is the same number as
            # |extrapolant - v1|, without that difference's cancellation
            w0, w1 = ts ** 2
            slack = 8 * np.finfo(float).eps * np.max(np.abs(lam)) \
                * (w1 + w0) / (w1 - w0)
            assert np.all(np.abs(got_err - want_err) <= slack)
            assert abs(np.max(got_lerr) - want_lerr) <= slack

        coarse = rng.normal(size=K) * 10.0 ** rng.uniform(-3, 3)
        fine = coarse * (1.0 + rng.normal(0, 1e-4, K))
        ext, errs = _richardson((coarse, fine), (1.0, 4.0))
        want_ext, want_errs = _ref_mesh_pair(coarse, fine)
        assert np.array_equal(ext, want_ext)
        assert np.array_equal(errs, want_errs)

        d1, d2 = rng.normal(size=(2, 7))
        assert np.array_equal(_richardson((d1, d2), (1.0, 4.0))[0],
                              _ref_fd_derivative(d1, d2))
        assert (_richardson((d1[0], d2[0]), (1.0, 4.0))[0]
                == _ref_fd_derivative(d1[0], d2[0]))


# ---------------------------------------------------------------- tridiagonal
# scipy's eigh_tridiagonal appears here only as the oracle, with tol=1e-300:
# its default tolerance eps ||T|| stops the bisection early

def _lapack_lowest(d, e, K):
    from scipy.linalg import eigh_tridiagonal
    return eigh_tridiagonal(d, e, select="i", select_range=(0, K - 1),
                            tol=1e-300)


def _norm_bound(d, e):
    """max |d_i| + 2 max |e_i|, a bound on ||T||."""
    return float(np.max(np.abs(d)) + 2.0 * np.max(np.abs(e), initial=0.0))


def _same_up_to_sign(x, y):
    return np.array([min(np.max(np.abs(x[:, k] - y[:, k])),
                         np.max(np.abs(x[:, k] + y[:, k])))
                     for k in range(x.shape[1])])


def _solve_twice(d, e, K):
    vals, vecs = tridiagonal_lowest(d, e, K)
    again = tridiagonal_lowest(d, e, K)
    assert np.array_equal(vals, again[0]) and np.array_equal(vecs, again[1])
    assert vals.shape == (K,) and vecs.shape == (len(d), K)
    return vals, vecs


@pytest.fixture(scope="module")
def qsdlab_tridiagonals():
    """(diag, off, K) of every eigensolve in spectrum-pbessel's FE oracle
    (on shooting's widest truncation), in the Schrodinger solve of
    logistic_X_killed, and in the FE solve of the sealed OU process (drift
    -x on (-10, 10)), whose bottom eigenvalue is the zero mode."""
    seen = []

    def spy(d, e, K):
        seen.append((np.array(d), np.array(e), K))
        return tridiagonal_lowest(d, e, K)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "tridiagonal_lowest", spy)
        pb = zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0})
        window = spectral.eigen_shoot(pb, K=2).truncation[-1]
        spectral.eigen_fd_oracle(pb, truncation=window, K=2)
        spectral.eigen_schrodinger(zoo_build(
            "logistic_X_killed", {"mu": 1.0, "c": 1.0, "sigma": 1.0}), K=2)
        ou = DiffusionModel(drift=ScalarField(eval=lambda x: -x,
                                              deriv=lambda x: -1.0 + 0.0 * x),
                            domain=(-10.0, 10.0), x_ref=0.0, name="ou")
        spectral.eigen_fd_oracle(ou, K=3, left_bc="sealed",
                                 right_bc="sealed")
    assert [(len(d), K) for d, _, K in seen] == [
        (798, 2), (1598, 2), (2999, 2), (5999, 2), (799, 3), (1599, 3)]
    return seen


def test_tridiagonal_lowest_matches_lapack_on_qsdlab_matrices(
        qsdlab_tridiagonals):
    for d, e, K in qsdlab_tridiagonals:
        vals, vecs = _solve_twice(d, e, K)
        ref, ref_vecs = _lapack_lowest(d, e, K)
        # relative, except for the OU zero mode (|ref| ~ 1e-13)
        assert np.all(np.abs(vals - ref)
                      <= 1e-11 * np.maximum(np.abs(ref), 1.0)), (len(d), vals)
        assert np.all(_same_up_to_sign(vecs, ref_vecs) <= 1e-10), len(d)
    ou_fine = qsdlab_tridiagonals[-1]
    assert abs(_solve_twice(*ou_fine)[0][0]) < 1e-11


def test_tridiagonal_lowest_harmonic_oscillator():
    # -psi''/2 + x^2 psi/2 on a symmetric grid: eigenvalues k + 1/2, and
    # eigenvectors alternately even and odd, so a start vector with a
    # symmetry would miss every other one
    x = np.linspace(-10.0, 10.0, 2001)[1:-1]
    h = 0.01
    d = 1.0 / h ** 2 + 0.5 * x ** 2
    e = np.full(len(x) - 1, -0.5 / h ** 2)
    vals, vecs = _solve_twice(d, e, 4)
    ref, ref_vecs = _lapack_lowest(d, e, 4)
    assert np.all(np.abs(vals - ref) <= 1e-11 * np.abs(ref))
    assert np.all(_same_up_to_sign(vecs, ref_vecs) <= 1e-10)
    np.testing.assert_allclose(vals, np.arange(4) + 0.5, atol=1e-4)
    parity = np.sum(vecs * vecs[::-1], axis=0)
    np.testing.assert_allclose(parity, [1.0, -1.0, 1.0, -1.0], atol=1e-10)


def _random_tridiagonal(rng, kind, n):
    if kind == "indefinite":
        return rng.standard_normal(n), rng.standard_normal(n - 1)
    d = np.geomspace(1e-3, 1e10, n)
    e = rng.uniform(-0.5, 0.5, n - 1) * np.sqrt(d[:-1] * d[1:])
    return (d[::-1].copy(), e[::-1].copy()) if rng.random() < 0.5 else (d, e)


@pytest.mark.parametrize("kind", ["indefinite", "graded"])
def test_tridiagonal_lowest_random(kind):
    rng = np.random.default_rng(20261018)
    eps = np.finfo(float).eps
    for n in (1, 2, 3, 4, 7, 16, 50, 129, 400) * 4:
        d, e = _random_tridiagonal(rng, kind, n)
        K = int(rng.integers(1, min(4, n) + 1))
        vals, vecs = _solve_twice(d, e, K)
        ref, ref_vecs = _lapack_lowest(d, e, K)
        tnorm = _norm_bound(d, e)
        assert np.all(np.abs(vals - ref) <= 8 * n * eps * tnorm), (n, K)
        # LAPACK's inverse iteration is accurate to about eps ||T|| / gap,
        # so its vectors are a reference where that gap is wide; on the
        # graded matrices it is not (its residuals reach 1e-6 there), and
        # only the residual and orthogonality are checked
        everything = _lapack_lowest(d, e, n)[0]
        for k in range(K):
            gap = np.min(np.abs(np.delete(everything, k) - ref[k]),
                         initial=np.inf)
            if gap > 1e-5 * tnorm:
                assert _same_up_to_sign(vecs[:, k:k + 1],
                                        ref_vecs[:, k:k + 1])[0] <= 1e-10
        tx = d[:, None] * vecs
        tx[:-1] += e[:, None] * vecs[1:]
        tx[1:] += e[:, None] * vecs[:-1]
        assert np.max(np.abs(tx - vecs * vals)) <= 8 * n * eps * tnorm
        assert np.max(np.abs(vecs.T @ vecs - np.eye(K))) <= 1e-12


def test_tridiagonal_lowest_clusters_stay_orthogonal():
    # the lowest eigenvalues of -W21+ (Wilkinson) come in pairs that agree
    # to 1e-14, and a split matrix repeats one exactly: inverse iteration
    # alone would return one vector twice
    eps = np.finfo(float).eps
    for d, e in ((-np.abs(np.arange(21) - 10.0), np.ones(20)),
                 (np.array([1.0, 2.0, 1.0, 2.0]), np.array([0.5, 0.0, 0.5]))):
        K = 4 if len(d) > 4 else 2
        vals, vecs = _solve_twice(d, e, K)
        ref = _lapack_lowest(d, e, K)[0]
        n, tnorm = len(d), _norm_bound(d, e)
        assert np.all(np.abs(vals - ref) <= 8 * n * eps * tnorm)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(K))) <= 1e-12
        tx = d[:, None] * vecs
        tx[:-1] += e[:, None] * vecs[1:]
        tx[1:] += e[:, None] * vecs[:-1]
        assert np.max(np.abs(tx - vecs * vals)) <= 8 * n * eps * tnorm


def _joined_blocks(n=60, coupling=1e-9):
    """Two copies of one tridiagonal block joined by a weak coupling: every
    eigenvalue of the block splits into a pair a few 1e-9 apart, so the
    lowest pairs are clusters the vectors must be re-orthogonalized in."""
    block = 2.0 + (np.arange(n) / n) ** 2
    d = np.concatenate((block, block))
    e = np.concatenate((np.full(n - 1, -1.0), [coupling], np.full(n - 1, -1.0)))
    return d, e


_CLUSTER_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from test_numerics import _joined_blocks
from qsdlab.numerics import tridiagonal_lowest
vals, vecs = tridiagonal_lowest(*_joined_blocks(), 4)
print(vals.tobytes().hex())
print(vecs.tobytes().hex())
"""


def test_tridiagonal_lowest_joined_blocks_are_orthonormal_on_any_kernel(
        tmp_path):
    d, e = _joined_blocks()
    vals, vecs = _solve_twice(d, e, 4)
    ref = _lapack_lowest(d, e, 4)[0]
    assert vals[1] - vals[0] < 1e-3 * abs(vals[0])     # a cluster
    assert np.all(np.abs(vals - ref) <= 1e-13 * np.abs(ref))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(4))) <= 1e-12
    tx = d[:, None] * vecs
    tx[:-1] += e[:, None] * vecs[1:]
    tx[1:] += e[:, None] * vecs[:-1]
    eps, tnorm = np.finfo(float).eps, _norm_bound(d, e)
    assert np.max(np.abs(tx - vecs * vals)) <= 8 * len(d) * eps * tnorm
    # the re-orthogonalization sums by fsum, not a BLAS dot, so forcing
    # OpenBLAS onto a kernel without FMA moves no bit of the vectors
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qsdlab.__file__))
    out = [subprocess.run([sys.executable, "-c", _CLUSTER_PROBE,
                           os.path.dirname(os.path.abspath(__file__))],
                          cwd=tmp_path, env=dict(env, **extra),
                          capture_output=True, text=True, check=True,
                          timeout=300).stdout
           for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"})]
    assert out[0] == out[1]
    assert out[0].split("\n")[1] == vecs.tobytes().hex()


def test_tridiagonal_lowest_rejects_bad_input():
    with pytest.raises(QsdlabError):
        tridiagonal_lowest(np.ones(3), np.ones(3), 1)
    with pytest.raises(QsdlabError):
        tridiagonal_lowest(np.ones(3), np.ones(2), 4)
    with pytest.raises(QsdlabError):
        tridiagonal_lowest(np.array([1.0, np.nan]), np.ones(1), 1)
