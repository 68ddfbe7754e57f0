import math
from dataclasses import replace

import numpy as np
import pytest

from qsdlab.model import (
    ModelValidationError,
    ScalarField,
    feller_transform,
    model_from_json,
    reduce_unit_diffusion,
)
from qsdlab.zoo import ZOO, zoo_build

LOG111 = {"mu": 1.0, "c": 1.0, "sigma": 1.0}
POP1111 = {"mu": 1.0, "c": 1.0, "sigma": 1.0, "gamma": 1.0}

CASES = [
    ("bessel", {"nu": -1.5}),
    ("perturbed_bessel", {"nu": -1.5, "c1": 1.0}),
    ("perturbed_bessel", {"nu": -1.0, "c0": 0.5, "c1": 0.5}),
    ("generalized_feller", {"h0": 0.0, "h1": -1.0, "h2": 0.0}),
    ("logistic_N", LOG111),
    ("logistic_X_killed", LOG111),
    ("population_N", POP1111),
]


def _probe_points(m):
    l, r = m.domain
    lo = m.x_ref - 3.0 if math.isinf(l) else l + 0.05 * max(1.0, abs(l) + 1)
    hi = m.x_ref + 3.0 if math.isinf(r) else r - 0.05
    return np.linspace(lo, hi, 11)


@pytest.mark.parametrize("name,params", CASES)
def test_analytic_drift_derivative_matches_fd(name, params):
    m = zoo_build(name, params)
    xs = _probe_points(m)
    h = 1e-6 * np.maximum(1.0, np.abs(xs))
    fd = (np.array([m.drift(x + hx) for x, hx in zip(xs, h)]) -
          np.array([m.drift(x - hx) for x, hx in zip(xs, h)])) / (2 * h)
    an = np.array([m.drift.d(x) for x in xs])
    assert np.allclose(an, fd, rtol=2e-5, atol=1e-6), name


@pytest.mark.parametrize("name,params", CASES)
def test_closed_log_speed_matches_quadrature(name, params):
    m = zoo_build(name, params)
    work = m if m.unit_diffusion else reduce_unit_diffusion(m)[0]
    if work.log_speed_closed is None:
        pytest.skip("entry has no closed speed form")
    generic = replace(work, log_speed_closed=None)
    l, _ = work.domain
    lo = work.x_ref - 4.0 if math.isinf(l) else l + 1e-3
    xs = np.linspace(lo, work.x_ref + 4.0, 23)
    assert np.allclose(work.log_speed(xs), generic.log_speed(xs),
                       atol=1e-8), name


def test_bessel_drift_formula():
    for nu in (-0.5, -1.0, -1.5, -2.0):
        m = zoo_build("bessel", {"nu": nu})
        xs = np.linspace(0.2, 6.0, 9)
        assert np.allclose(m.drift(xs), (2 * nu + 1) / (2 * xs), rtol=1e-13)


def test_perturbed_bessel_adds_inward_pull():
    m = zoo_build("perturbed_bessel", {"nu": -1.5, "c0": 0.25, "c1": 1.0,
                                       "c2": 0.125})
    b = zoo_build("bessel", {"nu": -1.5})
    xs = np.linspace(0.3, 3.0, 7)
    assert np.allclose(m.drift(xs) - b.drift(xs),
                       -(0.25 + xs + 0.125 * xs ** 2), rtol=1e-12)


def test_generalized_feller_matches_transform():
    h = ScalarField(eval=lambda z: 0.1 - 1.0 * z + 0.2 * z * z,
                    deriv=lambda z: -1.0 + 0.4 * z)
    direct = feller_transform(h)
    entry = zoo_build("generalized_feller", {"h0": 0.1, "h1": -1.0, "h2": 0.2})
    xs = np.linspace(0.2, 5.0, 13)
    assert np.allclose(entry.drift(xs), direct.drift(xs), rtol=1e-12)
    assert np.allclose(entry.drift.d(xs), direct.drift.d(xs), rtol=1e-9)


def test_logistic_killed_twin_coefficients():
    m = zoo_build("logistic_X_killed", LOG111)
    # A = (mu - sigma^2/2)/sigma = 1/2, a = c/sigma = 1
    xs = np.linspace(-2.0, 2.0, 9)
    assert np.allclose(m.drift(xs), 0.5 - np.exp(xs), rtol=1e-12)
    assert np.allclose(m.killing(xs), np.exp(-xs), rtol=1e-12)
    assert m.domain == (-math.inf, math.inf)


def test_logistic_pair_is_one_reduction_apart():
    # the killed twin is (up to the killing term) the log-reduction of the
    # unkilled population model
    n_model = zoo_build("logistic_N", LOG111)
    x_model = zoo_build("logistic_X_killed", LOG111)
    red, tr = reduce_unit_diffusion(n_model)
    xs = np.linspace(-1.5, 1.5, 11)
    assert np.allclose(red.drift(xs), x_model.drift(xs), rtol=1e-9)


def test_population_reduction_is_consistent():
    m = zoo_build("population_N", POP1111)
    red, tr = reduce_unit_diffusion(m)
    assert red.unit_diffusion
    ns = np.geomspace(0.05, 10.0, 21)
    assert tr.roundtrip_error(ns) < 1e-8
    rs = tr.forward(ns)
    sig = m.diffusion
    expect = m.drift(ns) / sig(ns) - 0.5 * sig.d(ns)
    assert np.allclose(red.drift(rs), expect, rtol=1e-7, atol=1e-9)
    # demographic noise makes the left edge of the reduced state space finite
    assert red.domain[0] == 0.0
    assert math.isinf(red.domain[1])


def test_population_diffusion_formula():
    m = zoo_build("population_N", POP1111)
    ns = np.linspace(0.1, 5.0, 9)
    assert np.allclose(m.diffusion(ns), np.sqrt(ns + ns ** 2), rtol=1e-12)


def test_zoo_rejects_unknown_entry_and_params():
    with pytest.raises(ModelValidationError):
        zoo_build("cauchy", {})
    with pytest.raises(ModelValidationError):
        zoo_build("bessel", {"nu": -1.5, "typo": 1.0})
    with pytest.raises(ModelValidationError):
        zoo_build("bessel", {})          # nu is required


def test_every_entry_has_doc_and_defaults():
    for name, entry in ZOO.items():
        assert entry.doc
        assert isinstance(entry.params, dict)


# one parameter set per family, every term switched on
ONE_BODY_PARAMS = {
    "bessel": {"nu": -1.5},
    "perturbed_bessel": {"nu": -1.5, "c0": 0.25, "c1": 1.0, "c2": 0.3},
    "generalized_feller": {"h0": 0.1, "h1": -1.0, "h2": 0.2},
    "logistic_N": {"mu": 0.7, "c": 0.3, "sigma": 0.5},
    "logistic_X_killed": {"mu": 0.7, "c": 0.3, "sigma": 0.5},
    "population_N": {"mu": 0.7, "c": 0.3, "sigma": 0.5, "gamma": 2.0},
}
CUSTOM_DOC = {"name": "custom", "domain": [0, "inf"],
              "drift_expr": "0.5/x - 1 - 0.3*x^3 + sqrt(x)*x^-1.5",
              "killing_expr": "0.2*x^1.5 + (2*x)^2"}


def _model(name):
    if name == "custom":
        return model_from_json(CUSTOM_DOC)
    return zoo_build(name, ONE_BODY_PARAMS[name])


def _interior(domain, rng, n=400):
    l, r = domain
    if math.isinf(l) and math.isinf(r):
        return rng.uniform(-6.0, 6.0, n)
    assert (l, r) == (0.0, math.inf)
    return np.exp(rng.uniform(-4.0, 3.0, n))


def _coefficients(m, rng):
    """(label, callable, sample points, is a ScalarField) for every
    coefficient of `m`, its reduction's included."""
    xs = _interior(m.domain, rng)
    out = [("drift", m.drift, xs, True), ("drift.d", m.drift.d, xs, True)]
    if m.killing is not None:
        out.append(("killing", m.killing, xs, True))
    if m.diffusion is not None:
        out += [("diffusion", m.diffusion, xs, True),
                ("diffusion.d", m.diffusion.d, xs, True)]
    if m.log_speed_closed is not None:
        out.append(("log_speed_closed", m.log_speed_closed, xs, False))
    red = m.reduction
    if red is not None:
        rs = red.forward(xs)
        out += [("reduction.forward", red.forward, xs, False),
                ("reduction.inverse", red.inverse, rs, False),
                ("reduction.drift", red.drift, rs, True),
                ("reduction.drift.d", red.drift.d, rs, True),
                ("reduction.log_speed", red.log_speed, rs, False)]
    return out


@pytest.mark.parametrize("name", list(ZOO) + ["custom"])
def test_every_coefficient_has_one_body(name):
    # a float and an array element go through the same numpy arithmetic,
    # so they get the same bits; a ScalarField owns its output type, a
    # float64 ndarray of the argument's shape (0-d for a float)
    assert set(ONE_BODY_PARAMS) == set(ZOO)
    rng = np.random.default_rng(20261019)
    for label, f, xs, field in _coefficients(_model(name), rng):
        ys = f(xs)
        assert np.result_type(ys) == np.float64, (name, label)
        assert np.shape(ys) == xs.shape, (name, label)
        grid = f(xs.reshape(2, -1))
        assert np.shape(grid) == (2, len(xs) // 2), (name, label)
        assert np.array_equal(grid.ravel(), ys, equal_nan=True), (name, label)
        if field:
            assert isinstance(ys, np.ndarray), (name, label)
        for x, y_arr in zip(xs.tolist(), ys):
            y = f(x)
            assert np.result_type(y) == np.float64 and np.shape(y) == ()
            if field:
                assert isinstance(y, np.ndarray), (name, label)
            assert np.float64(y).tobytes() == y_arr.tobytes(), (
                name, label, x, float(y), float(y_arr))
