"""Model zoo.

Every entry ships analytic drift, analytic drift derivative and a closed-form
log speed density, so downstream solvers never fall back to finite
differences or quadrature for coefficients.  Each coefficient is one numpy
expression, so a float and an array element get the same bits; a power of
the state is written `np.power`, since Python's `**` on a float rounds
differently from numpy's.  The two logistic entries share one definition of
their unit-diffusion coefficients (`_logistic_line`).  Sign mapping per
CONVENTION_NOTE: absorbed families (bessel, perturbed_bessel,
generalized_feller, and the population models in their natural coordinates)
store mu = -b; the killed logistic family on R stores mu = +b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (DiffusionModel, ModelValidationError, ReductionForms,
                    ScalarField)

_LINE = (-math.inf, math.inf)
_HALF_LINE = (0.0, math.inf)


@dataclass(frozen=True)
class ZooEntry:
    params: dict                 # parameter name -> default (None = required)
    build: Callable              # the merged, validated params -> model
    doc: str = ""


def _bessel(p):
    nu = p["nu"]
    c1 = (2.0 * nu + 1.0) / 2.0

    def mu(x):
        return c1 / x

    def dmu(x):
        return -c1 / (x * x)

    def log_speed(x):
        return (2.0 * nu + 1.0) * np.log(x)

    return DiffusionModel(
        drift=ScalarField(eval=mu, deriv=dmu),
        domain=_HALF_LINE, x_ref=1.0, name="bessel", params=p,
        log_speed_closed=log_speed)


def _perturbed_bessel(p):
    nu, c0, c1, c2 = p["nu"], p["c0"], p["c1"], p["c2"]
    a = (2.0 * nu + 1.0) / 2.0

    def mu(x):
        return a / x - (c0 + c1 * x + c2 * x * x)

    def dmu(x):
        return -a / (x * x) - (c1 + 2.0 * c2 * x)

    def log_speed(x):
        return ((2.0 * nu + 1.0) * np.log(x)
                - 2.0 * (c0 * (x - 1.0) + c1 * (x * x - 1.0) / 2.0
                         + c2 * (np.power(x, 3) - 1.0) / 3.0))

    return DiffusionModel(
        drift=ScalarField(eval=mu, deriv=dmu),
        domain=_HALF_LINE, x_ref=1.0, name="perturbed_bessel", params=p,
        log_speed_closed=log_speed)


def _generalized_feller(p):
    h0, h1, h2 = p["h0"], p["h1"], p["h2"]
    # image of the branching diffusion under x = 2 sqrt(z), with
    # reproduction term h(z) = h0 + h1 z + h2 z^2

    def mu(x):
        return ((4.0 * h0 - 1.0) / (2.0 * x) + h1 * x / 2.0
                + h2 * np.power(x, 3) / 8.0)

    def dmu(x):
        return -(4.0 * h0 - 1.0) / (2.0 * x * x) + h1 / 2.0 + 3.0 * h2 * x * x / 8.0

    def log_speed(x):
        return ((4.0 * h0 - 1.0) * np.log(x) + h1 * (x * x - 1.0) / 2.0
                + h2 * (np.power(x, 4) - 1.0) / 16.0)

    return DiffusionModel(
        drift=ScalarField(eval=mu, deriv=dmu),
        domain=_HALF_LINE, x_ref=1.0, name="generalized_feller", params=p,
        log_speed_closed=log_speed)


def _logistic_line(p, name):
    """(drift, log rho) of dX = (A - a e^{sigma X}) dt + dW on R, with
    A = (mu - sigma^2/2)/sigma and a = c/sigma: the image of the logistic
    diffusion under X = log(N)/sigma.  log rho = 2 A x - (2a/sigma)
    (e^{sigma x} - 1), and every exponent is clipped at 700."""
    gr, c, s = p["mu"], p["c"], p["sigma"]
    if s <= 0:
        raise ModelValidationError(f"{name} needs sigma > 0")
    if c <= 0:
        raise ModelValidationError(f"{name} needs c > 0")
    A = (gr - s * s / 2.0) / s
    a = c / s

    def growth(x):
        return np.exp(np.minimum(s * x, 700.0))

    def mu(x):
        return A - a * growth(x)

    def dmu(x):
        return -a * s * growth(x)

    def log_speed(x):
        return 2.0 * A * x - (2.0 * a / s) * (growth(x) - 1.0)

    return ScalarField(eval=mu, deriv=dmu), log_speed


def _logistic_N(p):
    gr, c, s = p["mu"], p["c"], p["sigma"]
    drift_R, log_speed_R = _logistic_line(p, "logistic_N")

    def drift(n):
        return gr * n - c * n * n

    def ddrift(n):
        return gr - 2.0 * c * n

    def diff(n):
        return s * n

    def ddiff(n):
        return np.full(np.shape(n), s)

    def F(n):
        return np.log(n) / s

    def Finv(rv):
        return np.exp(s * rv)

    red = ReductionForms(forward=F, inverse=Finv, drift=drift_R, domain=_LINE,
                         x_ref=0.0, log_speed=log_speed_R)

    return DiffusionModel(
        drift=ScalarField(eval=drift, deriv=ddrift),
        diffusion=ScalarField(eval=diff, deriv=ddiff),
        domain=_HALF_LINE, x_ref=1.0, name="logistic_N", params=p,
        reduction=red)


def _logistic_X_killed(p):
    s = p["sigma"]
    drift, log_speed = _logistic_line(p, "logistic_X_killed")

    def kappa(x):
        return np.exp(np.minimum(-s * x, 700.0))

    def dkappa(x):
        return -s * kappa(x)

    return DiffusionModel(
        drift=drift,
        killing=ScalarField(eval=kappa, deriv=dkappa),
        domain=_LINE, x_ref=0.0, name="logistic_X_killed", params=p,
        log_speed_closed=log_speed)


def _population_N(p):
    gr, c, s, g = p["mu"], p["c"], p["sigma"], p["gamma"]
    if s <= 0 or g <= 0:
        raise ModelValidationError("population_N needs sigma > 0 and gamma > 0")
    if c <= 0:
        raise ModelValidationError("population_N needs c > 0")

    def drift(n):
        return gr * n - c * n * n

    def ddrift(n):
        return gr - 2.0 * c * n

    def sig(n):
        return np.sqrt(g * n + s * s * n * n)

    def dsig(n):
        return (g + 2.0 * s * s * n) / (2.0 * sig(n))

    # closed reduction to unit diffusion: F(n) = (2/s) asinh(s sqrt(n/g))
    def F(n):
        return (2.0 / s) * np.arcsinh(s * np.sqrt(n / g))

    def Finv(rv):
        sh = np.sinh(s * rv / 2.0)
        return (g / (s * s)) * sh * sh

    def mu_R(rv):
        n = Finv(rv)
        return drift(n) / sig(n) - 0.5 * dsig(n)

    def dmu_R(rv):
        n = Finv(rv)
        s2, sg = g * n + s * s * n * n, sig(n)
        d2sg = s * s / sg - np.square(g + 2.0 * s * s * n) / (4.0 * s2 * sg)
        inner = (ddrift(n) * sg - drift(n) * dsig(n)) / s2 - 0.5 * d2sg
        return inner * sg          # chain rule: dn/dr = sigma(n)

    def pieces(n):
        return (2.0 * (gr * s * s + c * g) / s ** 4 * np.log(g + s * s * n)
                - 2.0 * c * n / (s * s)
                - 0.5 * np.log(g * n + s * s * n * n))

    r_ref = float(F(1.0))
    log_speed_ref = pieces(Finv(r_ref))

    def log_speed_R(rv):
        return pieces(Finv(rv)) - log_speed_ref

    red = ReductionForms(
        forward=F, inverse=Finv,
        drift=ScalarField(eval=mu_R, deriv=dmu_R),
        domain=_HALF_LINE, x_ref=r_ref, log_speed=log_speed_R)

    return DiffusionModel(
        drift=ScalarField(eval=drift, deriv=ddrift),
        diffusion=ScalarField(eval=sig, deriv=dsig),
        domain=_HALF_LINE, x_ref=1.0, name="population_N", params=p,
        reduction=red)


ZOO = {
    "bessel": ZooEntry(
        params={"nu": None}, build=_bessel,
        doc="radial diffusion on (0,inf): mu = (2 nu + 1)/(2x); "
            "exit at 0 for nu <= -1"),
    "perturbed_bessel": ZooEntry(
        params={"nu": None, "c0": 0.0, "c1": 0.0, "c2": 0.0},
        build=_perturbed_bessel,
        doc="bessel drift plus inward polynomial pull c(x) = c0 + c1 x + c2 x^2"),
    "generalized_feller": ZooEntry(
        params={"h0": 0.0, "h1": 0.0, "h2": 0.0}, build=_generalized_feller,
        doc="branching-type diffusion mapped through x = 2 sqrt(z); "
            "h(z) = h0 + h1 z + h2 z^2"),
    "logistic_N": ZooEntry(
        params={"mu": None, "c": None, "sigma": None}, build=_logistic_N,
        doc="dN = (mu N - c N^2) dt + sigma N dW on (0,inf); "
            "log(N)/sigma reduces it to unit diffusion"),
    "logistic_X_killed": ZooEntry(
        params={"mu": None, "c": None, "sigma": None},
        build=_logistic_X_killed,
        doc="dX = (A - a e^{sigma X}) dt + dW on R with killing rate "
            "e^{-sigma X}; A = (mu - sigma^2/2)/sigma, a = c/sigma"),
    "population_N": ZooEntry(
        params={"mu": None, "c": None, "sigma": None, "gamma": None},
        build=_population_N,
        doc="dN = (mu N - c N^2) dt + sqrt(gamma N + sigma^2 N^2) dW; "
            "demographic + environmental noise"),
}


def zoo_build(name: str, params: dict) -> DiffusionModel:
    """The zoo model `name`, its parameters the entry's defaults updated by
    `params` (each taken as a float)."""
    if name not in ZOO:
        raise ModelValidationError(
            f"unknown zoo model {name!r}; available: {sorted(ZOO)}")
    entry = ZOO[name]
    merged = dict(entry.params)
    for key, val in (params or {}).items():
        if key not in entry.params:
            raise ModelValidationError(f"unknown parameter {key!r} for {name}")
        merged[key] = float(val)
    missing = [k for k, v in merged.items() if v is None]
    if missing:
        raise ModelValidationError(f"{name} missing parameters {missing}")
    return entry.build(merged)
