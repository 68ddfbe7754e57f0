"""Diffusion models on an open interval: drift/diffusion/killing fields,
speed and scale densities, coordinate reduction to unit diffusion, the
Bessel-square change of variables, and the ground-state (Schrodinger-form)
potential.

A `DiffusionModel` owns its interval and log rho: log rho, rho and 1/rho
are model methods, read from a zoo closed form or from one knot table of
2 mu per model.  A `ScalarField` coefficient carries no interval.

Conventions
-----------
A model stores the SDE drift mu in  dX = mu(X) dt + sigma(X) dW.  The
generator of the unit-diffusion case is

    L f = 1/2 f'' + mu f' - kappa f = (1/(2 rho)) (rho f')' - kappa f,

with speed density rho(x) = exp(2 int_{x_ref}^x mu(s) ds) and scale density
rho^{-1}.  Families whose natural description is the absorbed operator
-1/2 f'' + b f' enter the zoo with mu = -b; families described directly by an
SDE on R enter with mu = +b.  Every CLI report embeds CONVENTION_NOTE so the
sign mapping stays auditable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .expressions import compile_expression
from .numerics import (IndeterminateIntegralError, QsdlabError,
                       TabulatedAntiderivative, _richardson, improper_integral)

CONVENTION_NOTE = (
    "drift convention: models store the SDE drift mu of dX = mu dt + dW; "
    "absorbed families use mu = -b relative to the generator -1/2 f'' + b f', "
    "killed families on R use mu = +b; speed density rho = exp(2*int mu)")


class ModelValidationError(QsdlabError):
    """Model construction or serialization input is invalid."""


_FD_H_REL = 1e-6             # relative step, floored at 1e-6 absolute


def _fd_derivative(f: Callable, x):
    """Central difference with one Richardson refinement, relative step."""
    x = np.asarray(x, dtype=float)
    h = np.maximum(1e-6, _FD_H_REL * np.abs(x))
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return _richardson((d1, d2), (1.0, 4.0))[0]


@dataclass(frozen=True)
class ScalarField:
    """A scalar coefficient, with optional analytic derivative
    (finite-difference fallback otherwise)."""
    eval: Callable
    deriv: Optional[Callable] = None
    expr: Optional[str] = None     # mini-grammar source, when built from one

    def __call__(self, x) -> np.ndarray:
        """The coefficient at x, as a float array of x's shape."""
        return np.asarray(self.eval(x), dtype=float)

    def d(self, x) -> np.ndarray:
        """The derivative at x, as a float array of x's shape."""
        d = (self.deriv(x) if self.deriv is not None
             else _fd_derivative(self.eval, x))
        return np.asarray(d, dtype=float)

    @staticmethod
    def from_expression(src: str) -> "ScalarField":
        return ScalarField(eval=compile_expression(src), expr=src)

    @staticmethod
    def constant(c: float) -> "ScalarField":
        c = float(c)

        return ScalarField(eval=lambda x: np.full(np.shape(x), c),
                           deriv=lambda x: np.zeros(np.shape(x)), expr=repr(c))


def _default_x_ref(domain):
    l, r = domain
    if l == 0.0 and math.isinf(r):
        return 1.0
    if math.isinf(l) and math.isinf(r):
        return 0.0
    if math.isinf(r):
        return l + 1.0
    if math.isinf(l):
        return r - 1.0
    return 0.5 * (l + r)


@dataclass(frozen=True)
class DiffusionModel:
    drift: ScalarField
    diffusion: Optional[ScalarField] = None
    killing: Optional[ScalarField] = None
    domain: tuple = (0.0, math.inf)
    x_ref: Optional[float] = None
    name: str = "custom"
    params: dict = field(default_factory=dict)
    # optional closed forms supplied by zoo constructors
    log_speed_closed: Optional[Callable] = None
    reduction: Optional["ReductionForms"] = None

    def __post_init__(self):
        l, r = self.domain
        if not l < r:
            raise ModelValidationError(f"empty domain {self.domain}")
        if self.x_ref is None:
            object.__setattr__(self, "x_ref", _default_x_ref(self.domain))
        if not (l < self.x_ref < r):
            raise ModelValidationError(
                f"x_ref {self.x_ref} outside domain {self.domain}")
        xs = self._sample_points(16)
        with np.errstate(all="ignore"):           # a NaN fails either test
            bad_k = self.killing is not None and ~(self.killing(xs) >= 0)
            bad_s = self.diffusion is not None and ~(self.diffusion(xs) > 0)
        for bad, what in ((bad_k, "negative or undefined killing rate"),
                          (bad_s, "non-positive or undefined diffusion")):
            if np.any(bad):
                raise ModelValidationError(f"{what} at x={xs[np.argmax(bad)]}")

    def _sample_points(self, n):
        l, r = self.domain
        lo = self.x_ref - 8.0 if math.isinf(l) else l + 1e-3 * max(1.0, abs(l))
        hi = self.x_ref + 8.0 if math.isinf(r) else r - 1e-3 * max(1.0, abs(r))
        if not lo < hi:
            lo, hi = l + 0.01 * (r - l), r - 0.01 * (r - l)
        return np.linspace(lo, hi, n)

    @property
    def unit_diffusion(self) -> bool:
        return self.diffusion is None

    def with_killing(self, killing: Optional[ScalarField]) -> "DiffusionModel":
        return replace(self, killing=killing)

    @cached_property
    def _log_speed_source(self) -> Callable:
        """The zoo closed form of log rho, else one knot table of 2 mu from
        x_ref, built on first use; its values do not depend on query order."""
        if not self.unit_diffusion:
            raise ModelValidationError(
                "log rho needs a unit-diffusion model; reduce first")
        if self.log_speed_closed is not None:
            return self.log_speed_closed
        drift = self.drift
        return TabulatedAntiderivative(lambda x: 2.0 * drift(x), self.x_ref,
                                       domain=self.domain)

    def log_speed(self, x) -> np.ndarray:
        """log rho(x) = 2 int_{x_ref}^x mu, as a float array of x's shape."""
        return np.asarray(self._log_speed_source(x), dtype=float)

    def speed_density(self, x) -> np.ndarray:
        """rho(x), its exponent clipped to (-700, 709)."""
        return np.exp(np.clip(self.log_speed(x), -700.0, 709.0))

    def scale_density(self, x) -> np.ndarray:
        """1/rho(x), its exponent clipped to (-700, 709)."""
        return np.exp(np.clip(-self.log_speed(x), -700.0, 709.0))


class ReductionForms(NamedTuple):
    """Closed forms carried by zoo models whose reduction to unit diffusion
    is known analytically (keeps the reduced coefficients free of nested
    quadrature/root-finding)."""
    forward: Callable            # F
    inverse: Callable            # F^{-1}
    drift: ScalarField           # reduced drift, analytic derivative included
    domain: tuple
    x_ref: float
    log_speed: Optional[Callable] = None


class Transform(NamedTuple):
    forward: Callable
    inverse: Callable

    def roundtrip_error(self, xs) -> float:
        xs = np.asarray(xs, dtype=float)
        return float(np.max(np.abs(self.inverse(self.forward(xs)) - xs)))


# ---------------------------------------------------------------------------
# reduction to unit diffusion
# ---------------------------------------------------------------------------

def reduce_unit_diffusion(model: DiffusionModel):
    """Map the state through F(x) = int dy/sigma(y) so the image process has
    unit diffusion; by Ito the reduced drift is

        mu_R(r) = mu(F^{-1}(r)) / sigma(F^{-1}(r)) - sigma'(F^{-1}(r)) / 2.

    Returns (reduced model, Transform); killing transports as kappa o F^{-1}.
    F is anchored at the left endpoint when 1/sigma is integrable there
    (F(l) = 0), at x_ref otherwise.  Zoo models carry F, F^{-1} and the
    reduced drift in closed form.  Otherwise F is tabulated on a knot table
    of 1/sigma (`TabulatedAntiderivative`), and F^{-1} inverts a whole array
    at once on that table: one bracket search per batch, then Newton steps
    with F' = 1/sigma.
    """
    if model.unit_diffusion:
        ident = Transform(forward=lambda x: x, inverse=lambda rr: rr)
        return model, ident

    if model.reduction is not None:
        red = model.reduction
        F, Finv = red.forward, red.inverse
        kill = None
        if model.killing is not None:
            kill = ScalarField(eval=lambda rr: model.killing(Finv(rr)))
        reduced = DiffusionModel(
            drift=red.drift, diffusion=None, killing=kill,
            domain=red.domain, x_ref=red.x_ref,
            name=model.name + "_reduced", params=dict(model.params),
            log_speed_closed=red.log_speed)
        return reduced, Transform(forward=F, inverse=Finv)

    sig = model.diffusion
    l, r = model.domain

    def inv_sigma(x):
        return 1.0 / sig(x)

    def log_inv_sigma(x):
        return -np.log(sig(x))

    # decide the anchor of F; shift = F(x_ref) = int_l^x_ref 1/sigma if there
    anchored_left = False
    shift = 0.0
    if not math.isinf(l):
        try:
            res = improper_integral(log_inv_sigma, l, model.x_ref, tol=1e-12,
                                    split=0.5 * (l + model.x_ref))
            if res.finite:
                anchored_left = True
                shift = res.value
        except IndeterminateIntegralError:
            pass

    core = TabulatedAntiderivative(inv_sigma, model.x_ref, domain=model.domain)

    def F(x):
        return core(x) + shift

    def Finv(rv):
        return core.inverse(np.subtract(rv, shift))

    # reduced domain endpoints: toward l, F reaches 0 when anchored there
    # and diverges otherwise
    dom_lo = 0.0 if anchored_left else -math.inf
    try:
        res_r = improper_integral(log_inv_sigma, model.x_ref, r, tol=1e-12,
                                  split=model.x_ref + (1.0 if math.isinf(r)
                                                       else 0.5 * (r - model.x_ref)))
        dom_hi = shift + res_r.value if res_r.finite else math.inf
    except IndeterminateIntegralError:
        dom_hi = math.inf

    def mu_R(rv):
        x = Finv(rv)
        return model.drift(x) / sig(x) - 0.5 * sig.d(x)

    dom_R = (dom_lo, dom_hi)
    kill = None
    if model.killing is not None:
        kill = ScalarField(eval=lambda rv: model.killing(Finv(rv)))
    reduced = DiffusionModel(
        drift=ScalarField(eval=mu_R),
        diffusion=None, killing=kill, domain=dom_R,
        x_ref=float(F(model.x_ref)),
        name=model.name + "_reduced", params=dict(model.params))
    return reduced, Transform(forward=F, inverse=Finv)


# ---------------------------------------------------------------------------
# Bessel-square change of variables
# ---------------------------------------------------------------------------

def feller_transform(h: ScalarField) -> DiffusionModel:
    """Model of X = 2 sqrt(Z) for the branching-type diffusion Z whose
    reproduction term is h; the image drift on (0, inf) is

        mu(x) = -(1/x) (1/2 - 2 h(x^2/4)).

    h == 0 reproduces the Bessel family member with index -1.
    """
    def mu(x):
        return -(1.0 / x) * (0.5 - 2.0 * h(x * x / 4.0))

    dmu = None
    if h.deriv is not None:
        def dmu(x):
            z = x * x / 4.0
            return 1.0 / (2.0 * x * x) - 2.0 * h(z) / (x * x) + h.d(z)

    return DiffusionModel(
        drift=ScalarField(eval=mu, deriv=dmu),
        domain=(0.0, math.inf), x_ref=1.0, name="feller_transform")


# ---------------------------------------------------------------------------
# ground-state transformation
# ---------------------------------------------------------------------------

class SchrodingerPotential(NamedTuple):
    q: ScalarField     # q = -kappa - (mu^2 + mu')/2
    V: ScalarField     # V = -q, potential of -1/2 d^2/dx^2 + V


def schrodinger_potential(model: DiffusionModel) -> SchrodingerPotential:
    """Conjugating the generator by sqrt(rho) gives 1/2 d^2/dx^2 + q with

        q(x) = -kappa(x) - (mu(x)^2 + mu'(x)) / 2

    in terms of the stored SDE drift (checks: mu = -1, kappa = 0 gives
    V = 1/2; kappa = x^2/2 with mu = 0 gives the harmonic oscillator; the
    unkilled drift -x case has eigenvalues 0, 1, 2, ... which pins the sign
    of the mu' term)."""
    if not model.unit_diffusion:
        raise ModelValidationError("schrodinger_potential needs sigma == 1")
    mu = model.drift
    kap = model.killing

    def q(x):
        k = kap(x) if kap is not None else 0.0
        m = mu(x)
        return -k - 0.5 * (m * m + mu.d(x))

    def V(x):
        return -q(x)

    return SchrodingerPotential(q=ScalarField(eval=q), V=ScalarField(eval=V))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _endpoint_to_json(v):
    if math.isinf(v):
        return "-inf" if v < 0 else "inf"
    return v


def _endpoint_from_json(v):
    if v == "-inf":
        return -math.inf
    if v == "inf":
        return math.inf
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ModelValidationError(
            f"domain endpoint must be a number, 'inf' or '-inf', got {v!r}") from None


def model_to_json(model: DiffusionModel) -> dict:
    if model.name != "custom":
        return {"name": model.name, "params": dict(model.params),
                "domain": [_endpoint_to_json(model.domain[0]),
                           _endpoint_to_json(model.domain[1])],
                "x_ref": model.x_ref}
    if model.drift.expr is None:
        raise ModelValidationError(
            "custom model built from raw callables is not serializable")
    return {"name": "custom",
            "params": {},
            "drift_expr": model.drift.expr,
            "killing_expr": model.killing.expr if model.killing is not None else None,
            "domain": [_endpoint_to_json(model.domain[0]),
                       _endpoint_to_json(model.domain[1])],
            "x_ref": model.x_ref}


def model_from_json(doc: dict) -> DiffusionModel:
    """The model a `model_to_json` document describes.  A key outside that
    schema, or a zoo domain other than the family's, would run a different
    model, so either is a ModelValidationError."""
    if not isinstance(doc, dict) or "name" not in doc:
        raise ModelValidationError("model document must be an object with 'name'")
    name = doc["name"]
    allowed = ("name", "params", "domain", "x_ref") + (
        ("drift_expr", "killing_expr") if name == "custom" else ())
    for key in doc:
        if key not in allowed:
            raise ModelValidationError(
                f"unknown key {key!r} in a {name!r} model document; "
                f"allowed keys: {list(allowed)}")
    raw = doc.get("domain", ["-inf", "inf"])
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ModelValidationError(
            f"domain must be a pair of endpoints, got {raw!r}")
    dom = tuple(_endpoint_from_json(v) for v in raw)
    x_ref = doc.get("x_ref")       # a JSON number; true and "1" are not
    if x_ref is not None and not (type(x_ref) in (int, float)
                                  and math.isfinite(x_ref)):
        raise ModelValidationError(f"x_ref must be a finite number, "
                                   f"got {x_ref!r}")
    if name != "custom":
        from .zoo import zoo_build
        built = zoo_build(name, doc.get("params", {}))
        if "domain" in doc and dom != built.domain:
            raise ModelValidationError(
                f"domain {raw!r} is not the domain of zoo model {name!r}")
        if x_ref is not None:
            built = replace(built, x_ref=float(x_ref))
        return built
    if "drift_expr" not in doc or not doc["drift_expr"]:
        raise ModelValidationError("custom model requires drift_expr")
    drift = ScalarField.from_expression(doc["drift_expr"])
    killing = None
    if doc.get("killing_expr"):
        killing = ScalarField.from_expression(doc["killing_expr"])
    return DiffusionModel(drift=drift, killing=killing, domain=dom,
                          x_ref=x_ref, name="custom")


def model_json_str(model: DiffusionModel) -> str:
    return json.dumps(model_to_json(model), sort_keys=True)
