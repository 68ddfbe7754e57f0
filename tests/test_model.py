import json
import math

import numpy as np
import pytest

from qsdlab.model import (
    CONVENTION_NOTE,
    DiffusionModel,
    ModelValidationError,
    ScalarField,
    feller_transform,
    model_from_json,
    model_json_str,
    model_to_json,
    reduce_unit_diffusion,
    schrodinger_potential,
)
from qsdlab.zoo import zoo_build


def test_convention_note_names_the_sde_drift():
    assert "drift" in CONVENTION_NOTE
    assert "dX" in CONVENTION_NOTE or "SDE" in CONVENTION_NOTE


# ------------------------------------------------------------- ScalarField

def test_scalarfield_analytic_derivative_wins():
    f = ScalarField(eval=lambda x: x ** 3, deriv=lambda x: 3 * x ** 2)
    assert f.d(2.0) == 12.0


def test_scalarfield_fd_fallback():
    f = ScalarField(eval=lambda x: np.sin(x))
    assert f.d(0.7) == pytest.approx(math.cos(0.7), abs=1e-8)


def test_scalarfield_from_expression_has_derivative():
    f = ScalarField.from_expression("x^2 - 3*x")
    assert f(2.0) == pytest.approx(-2.0)
    assert f.d(2.0) == pytest.approx(1.0, abs=1e-7)
    assert f.expr == "x^2 - 3*x"


def test_scalarfield_constant():
    c = ScalarField.constant(-1.0)
    out = c(np.linspace(0, 1, 4))
    assert np.all(out == -1.0) and out.shape == (4,)


# ------------------------------------------------------------- validation

def test_model_rejects_x_ref_outside_domain():
    with pytest.raises(ModelValidationError):
        DiffusionModel(drift=ScalarField.constant(0.0), domain=(0.0, 1.0),
                       x_ref=2.0)


# x - 5 is negative on part of the sample, sqrt(x - 2) undefined there
# (NaN passes a test for a negative value)
BAD_COEFFICIENTS = [ScalarField(eval=lambda x: x - 5.0),
                    ScalarField.from_expression("sqrt(x - 2)")]


@pytest.mark.parametrize("kappa", BAD_COEFFICIENTS, ids=["negative", "nan"])
def test_model_rejects_negative_killing(kappa):
    with pytest.raises(ModelValidationError,
                       match="negative or undefined killing rate at x=0.001"):
        DiffusionModel(drift=ScalarField.constant(0.0), killing=kappa,
                       domain=(0.0, math.inf), x_ref=1.0)


@pytest.mark.parametrize("sigma", BAD_COEFFICIENTS, ids=["negative", "nan"])
def test_model_rejects_vanishing_diffusion(sigma):
    with pytest.raises(ModelValidationError,
                       match="non-positive or undefined diffusion at x=0.001"):
        DiffusionModel(drift=ScalarField.constant(0.0), diffusion=sigma,
                       domain=(0.0, math.inf), x_ref=1.0)


def test_with_killing_returns_new_model():
    m = DiffusionModel(drift=ScalarField.constant(0.0),
                       domain=(0.0, math.inf), x_ref=1.0)
    k = m.with_killing(ScalarField.constant(2.0))
    assert m.killing is None
    assert k.killing(3.0) == 2.0
    assert k.unit_diffusion


# ------------------------------------------------------------- scale/speed

def test_speed_density_closed_vs_quadrature():
    # the zoo ships closed-form log speed densities; strip one off and make
    # sure the generic quadrature route reproduces it
    m = zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0})
    assert m.log_speed_closed is not None
    from dataclasses import replace
    generic = replace(m, log_speed_closed=None)
    xs = np.geomspace(1e-3, 8.0, 25)
    assert np.allclose(m.speed_density(xs), generic.speed_density(xs),
                       rtol=1e-8)
    assert np.allclose(m.scale_density(xs) * m.speed_density(xs), 1.0,
                       rtol=1e-12)
    # log rho is a float array of the argument's shape on both routes, so
    # callers use it as it comes
    for model in (m, generic):
        for x in (2.0, xs):
            out = model.log_speed(x)
            assert isinstance(out, np.ndarray) and out.dtype == np.float64
            assert out.shape == np.shape(x)


def test_speed_density_reference_normalization():
    m = zoo_build("generalized_feller", {"h0": 0.0, "h1": -1.0, "h2": 0.0})
    assert m.speed_density(m.x_ref) == pytest.approx(1.0, rel=1e-12)
    # log rho is defined for unit diffusion only
    n = zoo_build("logistic_N", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    with pytest.raises(ModelValidationError, match="reduce first"):
        n.log_speed(1.0)


# ------------------------------------------------------------- reduction

def test_reduce_unit_diffusion_identity_on_unit_models():
    m = zoo_build("bessel", {"nu": -1.5})
    red, tr = reduce_unit_diffusion(m)
    assert red is m
    assert tr.forward(2.7) == 2.7


def test_reduce_logistic_closed_forms():
    m = zoo_build("logistic_N", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    red, tr = reduce_unit_diffusion(m)
    assert red.unit_diffusion
    # F and its inverse really invert each other on the original state space
    ns = np.geomspace(0.01, 20.0, 31)
    assert tr.roundtrip_error(ns) < 1e-9
    # Ito: reduced drift = mu/sigma - sigma'/2 evaluated at F^{-1}
    rs = np.linspace(red.x_ref - 1.5, red.x_ref + 2.0, 17)
    ns_back = tr.inverse(rs)
    sig = m.diffusion
    expect = m.drift(ns_back) / sig(ns_back) - 0.5 * sig.d(ns_back)
    assert np.allclose(red.drift(rs), expect, rtol=1e-7, atol=1e-9)


def test_reduce_generic_agrees_with_closed(tmp_path):
    # same logistic model with the packaged closed reduction removed: the
    # quadrature+root-finding fallback must land on the same reduced model
    m = zoo_build("logistic_N", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    from dataclasses import replace
    stripped = replace(m, reduction=None, log_speed_closed=None)
    red_c, tr_c = reduce_unit_diffusion(m)
    red_g, tr_g = reduce_unit_diffusion(stripped)
    ns = np.geomspace(0.05, 10.0, 9)
    assert np.allclose(tr_c.forward(ns), tr_g.forward(ns), atol=1e-9)
    rs = np.linspace(red_c.x_ref - 1.0, red_c.x_ref + 1.0, 7)
    assert np.allclose(red_c.drift(rs), red_g.drift(rs), rtol=1e-6, atol=1e-8)


def _sqrt_noise(sigma_calls=None):
    # dX = (1/4 - X) dt + sqrt(X) dW on (0, inf): 1/sigma is integrable at
    # 0, so F is anchored there, F(x) = 2 sqrt(x), and the reduced drift is
    # mu/sigma - sigma'/2 = -sqrt(x) = -r/2
    def sig(x):
        if sigma_calls is not None:
            sigma_calls.append(np.size(x))
        return np.sqrt(x)

    return DiffusionModel(
        drift=ScalarField.from_expression("0.25 - x"),
        diffusion=ScalarField(eval=sig, deriv=lambda x: 0.5 / np.sqrt(x)),
        domain=(0.0, math.inf), name="sqrt_noise")


def test_reduce_generic_anchored_left():
    red, tr = reduce_unit_diffusion(_sqrt_noise())
    assert red.domain == (0.0, math.inf)
    xs = np.geomspace(1e-6, 20.0, 50)
    assert np.allclose(tr.forward(xs), 2.0 * np.sqrt(xs), rtol=0, atol=1e-11)
    back = tr.inverse(tr.forward(xs))
    assert np.all(np.abs(back - xs) <= 1e-12 * np.maximum(1.0, xs))
    rs = np.linspace(0.05, 8.0, 11)
    assert np.allclose(red.drift(rs), -0.5 * rs, rtol=0, atol=1e-11)
    assert isinstance(tr.inverse(1.0), float)
    assert tr.inverse(rs.reshape(1, 11)).shape == (1, 11)


def test_reduce_generic_inverse_calls_sigma_per_batch():
    # F^-1 inverts a whole array on one knot table: one bracket search per
    # batch (one table extension per widening step) and at most
    # INVERSE_NEWTON_STEPS Newton steps of two calls each, whatever the
    # number of points
    counts = []
    for n in (20, 200, 2000):
        calls = []
        _, tr = reduce_unit_diffusion(_sqrt_noise(calls))
        del calls[:]
        tr.inverse(np.linspace(0.01, 8.0, n))
        counts.append(len(calls))
    assert max(counts) <= 40


def test_reduction_transports_killing():
    m = zoo_build("logistic_X_killed", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    # already unit diffusion; build a scaled variant to exercise transport
    base = zoo_build("logistic_N", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    killed = base.with_killing(ScalarField(eval=lambda n: 0.5 * n))
    red, tr = reduce_unit_diffusion(killed)
    assert red.killing is not None
    rs = np.linspace(red.x_ref - 1.0, red.x_ref + 1.0, 5)
    assert np.allclose(red.killing(rs), 0.5 * tr.inverse(rs), rtol=1e-9)
    assert m.killing is not None  # the packaged killed twin carries its rate


def test_feller_transform_recovers_bessel():
    # h == 0 collapses to the index -1 member: drift -1/(2x)
    m = feller_transform(ScalarField.constant(0.0))
    xs = np.linspace(0.3, 4.0, 9)
    b = zoo_build("bessel", {"nu": -1.0})
    assert np.allclose(m.drift(xs), b.drift(xs), rtol=1e-12)


# ------------------------------------------------------------- potential

def test_potential_sign_canaries():
    # mu = -1: V = mu^2/2 = 1/2 exactly
    m = DiffusionModel(drift=ScalarField.constant(-1.0),
                       domain=(-math.inf, math.inf), x_ref=0.0)
    pot = schrodinger_potential(m)
    assert pot.V(3.3) == pytest.approx(0.5, rel=1e-12)
    assert pot.q(3.3) == pytest.approx(-0.5, rel=1e-12)
    # killing enters q with a minus sign
    k = m.with_killing(ScalarField(eval=lambda x: x * x))
    pot_k = schrodinger_potential(k)
    assert pot_k.V(2.0) == pytest.approx(0.5 + 4.0, rel=1e-10)


def test_potential_requires_unit_diffusion():
    m = zoo_build("logistic_N", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    with pytest.raises(ModelValidationError):
        schrodinger_potential(m)


# ------------------------------------------------------------- JSON

def test_json_roundtrip_zoo_model():
    m = zoo_build("perturbed_bessel", {"nu": -2.0, "c1": 1.0})
    doc = model_to_json(m)
    m2 = model_from_json(doc)
    assert m2.name == m.name and m2.params == m.params
    xs = np.linspace(0.2, 5.0, 7)
    assert np.allclose(m2.drift(xs), m.drift(xs), rtol=1e-12)


def test_json_roundtrip_custom_expressions():
    doc = {"name": "custom", "drift_expr": "-x/2",
           "killing_expr": "x^2/8", "domain": [0.0, "inf"], "x_ref": 1.0}
    m = model_from_json(doc)
    assert m.drift(2.0) == pytest.approx(-1.0)
    assert m.killing(2.0) == pytest.approx(0.5)
    assert m.domain == (0.0, math.inf)
    # and back out again through the string form
    m3 = model_from_json(json.loads(model_json_str(m)))
    assert m3.drift(2.0) == pytest.approx(-1.0)


def test_json_infinite_endpoints_are_strings():
    m = zoo_build("bessel", {"nu": -1.5})
    doc = model_to_json(m)
    assert doc["domain"][1] == "inf"
    assert json.dumps(doc)  # no raw inf leaks into the document


def test_json_unknown_doc_rejected():
    with pytest.raises(Exception):
        model_from_json({"name": "no_such_zoo_entry", "params": {}})


def test_json_bad_endpoint_is_diagnosed():
    # a null endpoint in a hand-written file must come back as a model
    # validation error, not an uncaught TypeError from float(None)
    doc = {"name": "custom", "drift_expr": "1.0",
           "domain": [0.0, None], "x_ref": 1.0}
    with pytest.raises(ModelValidationError, match="endpoint"):
        model_from_json(doc)


@pytest.mark.parametrize("doc, says", [
    # a misspelt domain used to run the model on the default whole line
    ({"name": "custom", "drift_expr": "-x", "domian": [0.0, "inf"]},
     "'domian'"),
    # a JSON model carries no diffusion; this one used to be dropped
    ({"name": "custom", "drift_expr": "-x", "diffusion_expr": "2"},
     "'diffusion_expr'"),
    ({"name": "bessel", "params": {"nu": -1.5}, "drift_expr": "-x"},
     "'drift_expr'"),
    # a zoo family has one domain; another one used to be ignored
    ({"name": "bessel", "params": {"nu": -1.5}, "domain": ["-inf", "inf"]},
     "not the domain of zoo model 'bessel'"),
    ({"name": "custom", "drift_expr": "-x", "domain": [0.0]},
     "pair of endpoints"),
    ({"name": "custom", "drift_expr": "-x", "domain": [0.0, "inf"],
      "x_ref": "a"}, "x_ref"),
    ({"name": "bessel", "params": {"nu": -1.5}, "x_ref": "a"}, "x_ref"),
], ids=["misspelt-key", "diffusion-expr", "expr-on-zoo", "zoo-domain",
        "one-endpoint", "custom-x-ref", "zoo-x-ref"])
def test_json_document_outside_the_schema_is_rejected(doc, says):
    with pytest.raises(ModelValidationError, match=says):
        model_from_json(doc)


def test_json_zoo_document_keeps_its_own_domain():
    doc = model_to_json(zoo_build("logistic_X_killed",
                                  {"mu": 1.0, "c": 1.0, "sigma": 1.0}))
    assert model_from_json(doc).domain == (-math.inf, math.inf)
