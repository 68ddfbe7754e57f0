"""Feller boundary classification, certain-absorption test, the tail-product
spectral-positivity criterion A(b, a), and a sufficient-condition checker for
the singular-endpoint spectral pipeline.

Classification tests the two nested integrals toward each endpoint e with
interior reference c:

    access(e) = int_e^c [ int_t^c rho(s) ds ] rho(t)^{-1} dt     (finite <=> e accessible)
    second(e) = int_e^c [ int_t^c rho(s)^{-1} ds ] rho(t) dt

(orientation mirrored for the right endpoint) and maps the verdict pair to
Regular / Exit / Entrance / Natural.  Both integrands are evaluated in paired
log space, exp(L(s) - L(t)) with L = log rho read from the model's
`log_speed`, so no intermediate rho value is ever formed and
doubly-exponential speed densities cannot overflow.  The quadrature is all
in `numerics`: the outer level march and its Finite/Divergent rules, the
Gauss sum of each outer panel (`_gauss`), and the one log-space panel rule
(`_log_integral`) that integrates each inner integral, the one-sided tails
(certain absorption, speed tails) and the stretches of the positivity
ladder.  This module composes them into the nested integrals and the
positivity scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import DiffusionModel
from .numerics import (_LOG_CLIP, DIVERGENCE_THRESHOLD,
                       IndeterminateIntegralError, IntegralVerdict,
                       LevelAccumulator, QsdlabError, _gauss, _level_verdict,
                       _log_integral, _Record, _richardson, improper_integral,
                       tail_integral)

REGULAR, EXIT, ENTRANCE, NATURAL = "Regular", "Exit", "Entrance", "Natural"

_FELLER_MAX_LEVELS = 120     # level cap of a classification integral
_POSITIVITY_TOL = 1e-8       # tolerance of the positivity level rules
# The positivity ladder stops at its first knot past a + d where |log rho|
# reaches the cap: further out log S and log R are so large that their sum
# keeps too few digits of P (a reach of 2^40 left the unit pull's 1/4 wrong
# in the 7th digit), while a cap of 700 leaves limits at infinity coarse.
_POSITIVITY_LOG_CAP = 3000.0
_POSITIVITY_MAX_J = 47        # and never past the knot a + d 2^47 (~1.4e14 d)
# accepted Richardson error of a sup reached in the limit, relative to A:
# the sandwich 1/(8A) <= lambda0 <= 1/(2A) is a factor of 4 wide anyway
_POSITIVITY_LIMIT_RTOL = 1e-3


class ClassificationError(QsdlabError):
    """classify was handed a model it cannot classify (nonunit diffusion)."""


@dataclass(frozen=True)
class BoundaryKind(_Record):
    kind: str
    evidence: tuple               # (access verdict, second verdict)


@dataclass(frozen=True)
class ClassificationResult(_Record):
    left: BoundaryKind
    right: BoundaryKind
    absorption_certain: Optional[bool]
    scale_tail: Optional[IntegralVerdict] = None

    def to_json(self):
        """The fields, with each end's evidence and the scale tail (where
        there is one) also listed by name under "integrals"."""
        out = super().to_json()
        tail = out.pop("scale_tail")
        (la, ls), (ra, rs) = out["left"]["evidence"], out["right"]["evidence"]
        out["integrals"] = {"left_access": la, "left_second": ls,
                            "right_access": ra, "right_second": rs}
        if tail is not None:
            out["integrals"]["scale_tail"] = tail
        return out


# ---------------------------------------------------------------------------
# classification integrals
# ---------------------------------------------------------------------------

def _nested_feller_integral(model: DiffusionModel, c: float, endpoint: float,
                            kind: str, tol: float = 1e-9) -> IntegralVerdict:
    """One of the two classification integrals toward `endpoint`.

    kind = "access":  outer weight rho^{-1}, inner weight rho
    kind = "second":  outer weight rho,      inner weight rho^{-1}
    """
    sign = +1.0 if kind == "access" else -1.0

    def outer(ts):
        # one inner integral per outer Gauss node t, between t and c
        return np.array([
            math.exp(min(_log_integral(
                lambda s, Lt=Lt: sign * (model.log_speed(s) - Lt),
                min(t, c), max(t, c)), _LOG_CLIP))
            for t, Lt in zip(ts, model.log_speed(ts))])

    def panel(lo, hi):
        return float(_gauss(outer, np.array([lo]), np.array([hi]), 24)[0])

    name = f"{'left' if endpoint < c else 'right'}_{kind}"
    return _level_verdict(name, panel, c, endpoint, tol, _FELLER_MAX_LEVELS)


def _kind_from(access: IntegralVerdict, second: IntegralVerdict) -> str:
    if access.finite:
        return REGULAR if second.finite else EXIT
    return ENTRANCE if second.finite else NATURAL


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def classify(model: DiffusionModel, tol: float = 1e-9) -> ClassificationResult:
    """Feller classification of both endpoints plus the certain-absorption
    verdict (meaningful only when the left endpoint is accessible)."""
    if not model.unit_diffusion:
        raise ClassificationError("classify needs a unit-diffusion model; reduce first")
    l, r = model.domain
    c = model.x_ref

    ev_left = (_nested_feller_integral(model, c, l, "access", tol),
               _nested_feller_integral(model, c, l, "second", tol))
    ev_right = (_nested_feller_integral(model, c, r, "access", tol),
                _nested_feller_integral(model, c, r, "second", tol))
    left = BoundaryKind(kind=_kind_from(*ev_left), evidence=ev_left)
    right = BoundaryKind(kind=_kind_from(*ev_right), evidence=ev_right)

    absorption = None
    tail = None
    if left.kind in (REGULAR, EXIT):
        tail = tail_integral(
            lambda x: -model.log_speed(x), c, r, tol, name="scale_tail")
        absorption = not tail.finite
    return ClassificationResult(left=left, right=right,
                                absorption_certain=absorption,
                                scale_tail=tail)


@dataclass(frozen=True)
class PositivityReport(_Record):
    A: float                      # may be math.inf
    a: float
    lambda0_lower: float
    lambda0_upper: float
    positive: bool
    argmax: Optional[float] = None


def positivity_criterion(model: DiffusionModel, a: float) -> PositivityReport:
    """A = sup_{x>a} (int_a^x rho^{-1}) (int_x^inf rho); finite A certifies a
    spectral gap with 1/(8A) <= lambda0 <= 1/(2A) for the Dirichlet-at-a
    generator.  Both factors accumulate in log space over one ladder of
    knots a + d 2^j, d = max(1, |a|), j = -20, -19, ...; the speed tail past
    the last knot is left out, so the product is read at every knot but that
    one.
    An interior maximum is refined by golden section.  One at the far end is
    a divergence under the shared level rules, or a limit P = A - c/x + ...
    taken by Richardson over the last three knots, with argmax None."""
    l, r = model.domain
    if not math.isinf(r):
        raise QsdlabError("positivity_criterion expects an infinite right end")
    if not (l <= a < r):
        raise QsdlabError(f"a = {a} not admissible for domain {model.domain}")
    Lp = model.log_speed                    # log rho
    Lm = lambda x: -model.log_speed(x)      # log rho^{-1}
    infinite = PositivityReport(A=math.inf, a=a, lambda0_lower=0.0,
                                lambda0_upper=0.0, positive=False)

    # the speed tail must be integrable somewhere, else A = inf immediately
    probe = max(a + 1.0, model.x_ref + 1.0)
    if not tail_integral(Lp, probe, math.inf, _POSITIVITY_TOL).finite:
        return infinite

    xs = [a]
    for j in range(-20, _POSITIVITY_MAX_J + 1):
        xs.append(a + max(1.0, abs(a)) * 2.0 ** j)
        if j > 0 and not abs(float(Lp(xs[-1]))) < _POSITIVITY_LOG_CAP:
            break
    xs = np.array(xs)
    # logS[i] = log int_a^xs[i] rho^{-1}, logR[i] = log int_xs[i]^xs[-1] rho
    logS = np.logaddexp.accumulate([-math.inf] + [
        _log_integral(Lm, lo, hi) for lo, hi in zip(xs[:-1], xs[1:])])
    logR = np.logaddexp.accumulate([-math.inf] + [
        _log_integral(Lp, lo, hi)
        for lo, hi in zip(xs[-2::-1], xs[:0:-1])])[::-1]
    logP = logS + logR                       # -inf at both ends of the ladder
    if not np.isfinite(logP[1:-1]).all():
        raise IndeterminateIntegralError("tail product is not finite")
    k = int(np.argmax(logP))
    best = float(logP[k])
    # a plateau flat to the rounding of log S + log R counts as the far end
    flat = 8.0 * np.finfo(float).eps * (abs(logS[-2]) + abs(logR[-2]))

    if logP[-3:-1].max() >= best - flat:
        P = np.exp(np.minimum(logP[1:-1], _LOG_CLIP))
        acc = LevelAccumulator(_POSITIVITY_TOL)
        trend = [acc.add(v) for v in np.diff(P)][-1]
        if best > math.log(DIVERGENCE_THRESHOLD) or trend == "divergent":
            return infinite
        A, err = map(float, _richardson(P[-3:], xs[-4:-1]))
        if not err <= _POSITIVITY_LIMIT_RTOL * A:
            raise IndeterminateIntegralError(
                "tail product neither converged nor certified divergent "
                f"(last products {P[-3:].tolist()}, limit {A} +- {err})")
        argmax = None
    else:
        def logP_at(xq):                     # xs[i] < xq < xs[i + 1]
            i = int(np.searchsorted(xs, xq)) - 1
            return float(
                np.logaddexp(logS[i], _log_integral(Lm, xs[i], xq))
                + np.logaddexp(logR[i + 1],
                               _log_integral(Lp, xq, xs[i + 1])))

        lo, hi = xs[k - 1], xs[k + 1]
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c1, c2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        f1, f2 = logP_at(c1), logP_at(c2)
        while hi - lo >= 1e-10 * max(1.0, abs(hi)):
            if f1 < f2:
                lo, c1, f1 = c1, c2, f2
                c2 = lo + invphi * (hi - lo)
                f2 = logP_at(c2)
            else:
                hi, c2, f2 = c2, c1, f1
                c1 = hi - invphi * (hi - lo)
                f1 = logP_at(c1)
        A = math.exp(max(best, f1, f2))
        argmax = float(0.5 * (lo + hi))

    return PositivityReport(A=A, a=a, lambda0_lower=1.0 / (8.0 * A),
                            lambda0_upper=1.0 / (2.0 * A), positive=True,
                            argmax=argmax)


def assumption1_check(model: DiffusionModel) -> dict:
    """Sufficient-condition check for the singular spectral pipeline on
    (0, inf): either the generic route (inf (b^2 - b') > 0 together with
    int_0^1 s sqrt(rho) ds < inf, where b = -mu) or, for the Bessel-type zoo
    entries, the perturbation route (index <= -1, polynomial pull bounded
    below in the relevant senses, absorption certain).  A False verdict is
    inconclusive, never a disproof."""
    l, r = model.domain
    if l != 0.0 or not math.isinf(r):
        raise QsdlabError("assumption1_check expects a model on (0, inf)")
    xs = np.geomspace(1e-6, 1e6, 241)
    b2_minus_bp = model.drift(xs) ** 2 + model.drift.d(xs)   # b=-mu: b^2-b' = mu^2+mu'
    inf_generic = float(np.min(b2_minus_bp))

    log_integrand = lambda sv: np.log(sv) + 0.5 * model.log_speed(sv)
    try:
        res = improper_integral(log_integrand, 0.0, 1.0, tol=1e-8, split=0.5)
        eint_finite = res.finite
        eint_value = res.value if res.finite else None
    except IndeterminateIntegralError:
        eint_finite, eint_value = False, None

    route_generic = bool(inf_generic > 0.0 and eint_finite)

    route_bessel = False
    details_bessel = None
    if model.name in ("bessel", "perturbed_bessel"):
        nu = model.params["nu"]
        c0 = model.params.get("c0", 0.0)
        c1 = model.params.get("c1", 0.0)
        c2 = model.params.get("c2", 0.0)
        cvals = c0 + c1 * xs + c2 * xs ** 2
        cprime = c1 + 2.0 * c2 * xs
        inf_c = float(np.min(cvals ** 2 - cprime))
        inf_cs = float(np.min((cvals / xs)[xs >= 1.0]))
        tail = tail_integral(lambda x: -model.log_speed(x), model.x_ref,
                             math.inf)
        certain = not tail.finite
        route_bessel = bool(nu <= -1.0 and math.isfinite(inf_c)
                            and math.isfinite(inf_cs) and certain)
        details_bessel = {"nu": nu, "inf_c2_minus_cprime": inf_c,
                          "inf_c_over_s": inf_cs, "absorption_certain": certain}

    return {"satisfied_sufficient": route_generic or route_bessel,
            "details": {"inf_b2_minus_bprime": inf_generic,
                        "int_s_sqrt_rho_finite": eint_finite,
                        "int_s_sqrt_rho": eint_value,
                        "generic_route": route_generic,
                        "bessel_route": route_bessel,
                        "bessel_details": details_bessel}}
