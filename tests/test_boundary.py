"""Endpoint classification and the gap certificate.

The expected kinds below are all decidable by hand from the scale/speed
densities (power laws and exponentials), so the module is tested against
exact combinatorics, not against itself.
"""
import math

import numpy as np
import pytest

from qsdlab.boundary import (
    ClassificationError,
    assumption1_check,
    classify,
    positivity_criterion,
)
from qsdlab.model import DiffusionModel, ScalarField, reduce_unit_diffusion
from qsdlab.numerics import QsdlabError
from qsdlab.zoo import zoo_build


def _kinds(model):
    res = classify(model)
    return res.left.kind, res.right.kind, res.absorption_certain


def test_population_model_exit_entrance():
    m = zoo_build("population_N", {"mu": 1.0, "c": 1.0, "sigma": 1.0,
                                   "gamma": 1.0})
    red, _ = reduce_unit_diffusion(m)
    left, right, absorbed = _kinds(red)
    assert (left, right) == ("Exit", "Entrance")
    assert absorbed is True          # extinction happens with certainty


def test_killed_logistic_natural_entrance():
    m = zoo_build("logistic_X_killed", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    left, right, absorbed = _kinds(m)
    assert (left, right) == ("Natural", "Entrance")
    # hitting the boundary is not how this process dies; the verdict is
    # undefined rather than false
    assert absorbed is None


@pytest.mark.parametrize("nu", [-1.0, -1.5, -2.0])
def test_bessel_family_exit_at_origin(nu):
    m = zoo_build("bessel", {"nu": nu})
    left, right, absorbed = _kinds(m)
    assert left == "Exit"
    assert right == "Natural"
    assert absorbed is True


def test_driftless_half_line_regular_natural():
    m = DiffusionModel(drift=ScalarField.constant(0.0),
                       domain=(0.0, math.inf), x_ref=1.0, name="driftless")
    left, right, absorbed = _kinds(m)
    assert (left, right) == ("Regular", "Natural")
    assert absorbed is True


def test_mean_reversion_natural_at_both_ends():
    # drift -x: both ends inaccessible, and the entrance integral diverges
    # only logarithmically (integrand ~ 1/2|x|), so the verdict has to come
    # from the trend rule with the inner boundary layers -- width ~1/2|x| --
    # still resolved thousands of units out along the march
    dom = (-math.inf, math.inf)
    m = DiffusionModel(drift=ScalarField.from_expression("-x", dom),
                       domain=dom, x_ref=0.0, name="mean_reversion")
    res = classify(m)
    assert (res.left.kind, res.right.kind) == ("Natural", "Natural")
    assert res.absorption_certain is None
    assert res.left.evidence[1].rule == "trend"
    assert res.right.evidence[1].rule == "trend"


def test_outward_drift_makes_absorption_uncertain():
    # mu = +1 on (0, inf): the origin stays Regular but the scale tail
    # int^inf e^{-2x} is finite, so escape to +inf competes with hitting 0
    m = DiffusionModel(drift=ScalarField.constant(1.0),
                       domain=(0.0, math.inf), x_ref=1.0, name="unitpush")
    left, right, absorbed = _kinds(m)
    assert left == "Regular"
    assert absorbed is False


def test_entrance_evidence_integrals():
    m = zoo_build("logistic_X_killed", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    res = classify(m)
    access, second = res.right.evidence
    assert not access.finite        # cannot reach +inf
    assert second.finite            # but the flow enters from it
    doc = res.to_json()
    assert doc["right"]["kind"] == "Entrance"
    assert doc["integrals"]["right_second"]["verdict"] == "finite"


def test_classify_requires_unit_diffusion():
    m = zoo_build("logistic_N", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    with pytest.raises(ClassificationError):
        classify(m)


# ------------------------------------------------------------- positivity

def test_hardy_constant_unit_pull():
    m = DiffusionModel(drift=ScalarField.constant(-1.0),
                       domain=(0.0, math.inf), x_ref=1.0, name="unitpull")
    rep = positivity_criterion(m, a=0.0)
    assert rep.positive
    assert rep.A == pytest.approx(0.25, abs=1e-6)
    assert rep.lambda0_lower == pytest.approx(0.5, rel=1e-5)
    assert rep.lambda0_upper == pytest.approx(2.0, rel=1e-5)
    assert rep.lambda0_lower <= rep.lambda0_upper


def test_outward_drift_fails_certificate():
    m = DiffusionModel(drift=ScalarField.constant(1.0),
                       domain=(0.0, math.inf), x_ref=1.0, name="unitpush")
    rep = positivity_criterion(m, a=0.0)
    assert not rep.positive
    assert math.isinf(rep.A)
    assert rep.to_json()["A"] == "inf"       # stays JSON-serializable


def test_positivity_requires_infinite_right_end():
    m = DiffusionModel(drift=ScalarField.constant(-1.0), domain=(0.0, 1.0),
                       x_ref=0.5)
    with pytest.raises(QsdlabError):
        positivity_criterion(m, a=0.0)


def test_positivity_rejects_bad_anchor():
    m = DiffusionModel(drift=ScalarField.constant(-1.0),
                       domain=(0.0, math.inf), x_ref=1.0)
    with pytest.raises(QsdlabError):
        positivity_criterion(m, a=-3.0)


# ------------------------------------------------------------- assumption

def test_sufficient_condition_bessel_route():
    m = zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1.0})
    rep = assumption1_check(m)
    assert rep["satisfied_sufficient"]
    assert rep["details"]["bessel_route"]
    assert rep["details"]["bessel_details"]["absorption_certain"]


def test_sufficient_condition_inconclusive_for_driftless():
    m = DiffusionModel(drift=ScalarField.constant(0.0),
                       domain=(0.0, math.inf), x_ref=1.0, name="driftless")
    rep = assumption1_check(m)
    assert not rep["satisfied_sufficient"]   # inconclusive, not a disproof


def test_assumption_check_domain_guard():
    m = zoo_build("logistic_X_killed", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
    with pytest.raises(QsdlabError):
        assumption1_check(m)



def _custom(expr, domain=(0.0, math.inf), x_ref=1.0):
    return DiffusionModel(drift=ScalarField.from_expression(expr, domain),
                          domain=domain, x_ref=x_ref)


def _pbessel(**params):
    return zoo_build("perturbed_bessel", params)


# (id, model, a, reference A, kind).  "interior": max_x (int_a^x rho^-1)
# (int_x^inf rho) with both integrals and the stationary point of their
# product evaluated by mpmath (quad and findroot at 30 digits) for
# rho = e^{-x^2} (drift -x), e^{-2x^3/3} (drift -x^2) and x^-2 e^{-x^2}
# (perturbed_bessel nu=-1.5, c1=1).  "pull" and "limit": the sup is reached
# only as x -> inf, where a constant pull c gives P -> 1/(4c^2) whatever the
# power-law factor of rho.  "inf": rho is not integrable (drift +1), or P is
# unbounded (~x/4 for drift -1/sqrt(x), ~x^2 for the last two).
_POSITIVITY_REFERENCES = [
    ("drift -x", lambda: _custom("-x"), 0.0, 0.2394064475188621, "interior"),
    ("drift -x^2", lambda: _custom("-x^2"), 0.0, 0.2760422118024827,
     "interior"),
    ("drift -x from a=1", lambda: _custom("-x", (1.0, math.inf), 2.0), 1.0,
     0.0783069998773022, "interior"),
    ("pbessel nu=-1.5 c1=1", lambda: _pbessel(nu=-1.5, c1=1.0), 0.0,
     0.05654056103821802, "interior"),
    ("unit pull", lambda: _custom("-1"), 0.0, 0.25, "pull"),
    ("drift -1-1/(2x)", lambda: _custom("-1 - 1/(2*x)"), 0.0, 0.25, "limit"),
    *[(f"pbessel nu={nu} c0=1", lambda nu=nu: _pbessel(nu=nu, c0=1.0), 0.0,
       0.25, "limit") for nu in (-1.0, -1.5, -2.0, -3.0, -5.0)],
    *[(f"pbessel nu=-1.5 c0={c0}", lambda c0=c0: _pbessel(nu=-1.5, c0=c0),
       0.0, 1.0 / (4.0 * c0 * c0), "limit") for c0 in (0.5, 2.0)],
    ("drift -0.5/x-0.1", lambda: _custom("-0.5/x - 0.1"), 0.0, 25.0, "limit"),
    ("drift -1/sqrt(x)", lambda: _custom("-1/sqrt(x)"), 0.0, math.inf, "inf"),
    ("drift +1", lambda: _custom("1"), 0.0, math.inf, "inf"),
    ("bessel nu=-1.5", lambda: zoo_build("bessel", {"nu": -1.5}), 0.0,
     math.inf, "inf"),
    ("drift -1/(x+1)", lambda: _custom("-1/(x+1)"), 0.0, math.inf, "inf"),
]
_POSITIVITY_TOLERANCE = {"interior": {"rel": 1e-9},
                         "pull": {"rel": 0.0, "abs": 1e-12},
                         "limit": {"rel": 1e-3}, "inf": {}}


@pytest.mark.parametrize("build, a, ref, kind",
                         [pytest.param(*row[1:], id=row[0])
                          for row in _POSITIVITY_REFERENCES])
def test_positivity_against_references(build, a, ref, kind):
    rep = positivity_criterion(build(), a=a)
    assert rep.A == pytest.approx(ref, **_POSITIVITY_TOLERANCE[kind])
    assert rep.positive == (kind != "inf")
    # an argmax only where the sup is attained
    assert (rep.argmax is not None) == (kind == "interior")
