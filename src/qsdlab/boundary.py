"""Feller boundary classification, certain-absorption test, the tail-product
spectral-positivity criterion A(b, a), and a sufficient-condition checker for
the singular-endpoint spectral pipeline.

Classification tests the two nested integrals toward each endpoint e with
interior reference c:

    access(e) = int_e^c [ int_t^c rho(s) ds ] rho(t)^{-1} dt     (finite <=> e accessible)
    second(e) = int_e^c [ int_t^c rho(s)^{-1} ds ] rho(t) dt

(orientation mirrored for the right endpoint) and maps the verdict pair to
Regular / Exit / Entrance / Natural.  Both integrands are evaluated in paired
log space, exp(L(s) - L(t)) with L = log rho, so no intermediate rho value is
ever formed and doubly-exponential speed densities cannot overflow.  The
outer level march, its Finite/Divergent rules and the one-sided log-space
tail integral (certain absorption, speed tails) are the shared engine in
`numerics`; this module adds only the nested inner quadrature and the
positivity scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import DiffusionModel, ScaleSpeed, scale_speed
from .numerics import (_LOG_CLIP, DIVERGENCE_THRESHOLD,
                       IndeterminateIntegralError, IntegralVerdict,
                       LevelAccumulator, QsdlabError, _level_verdict,
                       _log_integral, _side_levels, improper_integral,
                       logsumexp_panels, tail_integral)

REGULAR, EXIT, ENTRANCE, NATURAL = "Regular", "Exit", "Entrance", "Natural"

_FELLER_MAX_LEVELS = 120     # level cap of a classification integral
_POSITIVITY_TOL = 1e-8       # tolerance of the positivity scan's speed tails


class ClassificationError(QsdlabError):
    """classify was handed a model it cannot classify (nonunit diffusion)."""


@dataclass(frozen=True)
class BoundaryKind:
    kind: str
    evidence: tuple               # (access verdict, second verdict)

    def to_json(self):
        return {"kind": self.kind,
                "evidence": [v.to_json() for v in self.evidence]}


@dataclass(frozen=True)
class ClassificationResult:
    left: BoundaryKind
    right: BoundaryKind
    absorption_certain: Optional[bool]
    scale_tail: Optional[IntegralVerdict] = None

    def to_json(self):
        out = {"left": self.left.to_json(), "right": self.right.to_json(),
               "absorption_certain": self.absorption_certain,
               "integrals": {
                   "left_access": self.left.evidence[0].to_json(),
                   "left_second": self.left.evidence[1].to_json(),
                   "right_access": self.right.evidence[0].to_json(),
                   "right_second": self.right.evidence[1].to_json()}}
        if self.scale_tail is not None:
            out["integrals"]["scale_tail"] = self.scale_tail.to_json()
        return out


# ---------------------------------------------------------------------------
# log-space quadrature helpers
# ---------------------------------------------------------------------------

def _graded_breaks(a: float, b: float, m: int = 12) -> np.ndarray:
    """Breakpoints on [a, b] refined geometrically toward both ends."""
    g = np.concatenate(([0.0], 2.0 ** np.arange(-m, 0.0),
                        1.0 - 2.0 ** np.arange(-2.0, -m - 1.0, -1.0), [1.0]))
    g = np.unique(g)
    return a + (b - a) * g


def _inner_log_integral(logf, lo: float, hi: float) -> float:
    """log of int_lo^hi exp(logf) on a graded-plus-uniform panel set,
    evaluated in one vectorized pass.  The grading depth follows the endpoint
    slopes of logf: the paired-exponent integrands develop boundary layers of
    width ~1/|logf'| at the moving endpoint, and far out along the outer
    march those layers get orders of magnitude thinner than the interval, so
    a fixed depth would step right over them and silently drop the level's
    mass.  The uniform panels catch an interior peak.  Cheap enough to be
    called once per outer quadrature node."""
    if hi <= lo:
        return -math.inf
    span = hi - lo
    m = 13
    h = span * 1e-6
    if lo + 2.0 * h < hi - 2.0 * h:
        for a, b in ((lo + h, lo + 2.0 * h), (hi - 2.0 * h, hi - h)):
            va, vb = float(logf(a)), float(logf(b))
            if math.isfinite(va) and math.isfinite(vb):
                rise = abs(vb - va) / h * span
                if rise > 2.0:
                    m = max(m, min(44, int(math.ceil(math.log2(rise))) + 3))
    breaks = np.unique(np.concatenate((_graded_breaks(lo, hi, m=m),
                                       np.linspace(lo, hi, 17))))
    piece = logsumexp_panels(logf, breaks, n=16)
    peak = piece.max()
    if not np.isfinite(peak):
        return -math.inf
    return float(peak + np.log(np.exp(piece - peak).sum()))


def _nested_feller_integral(ss: ScaleSpeed, c: float, endpoint: float,
                            kind: str, tol: float = 1e-9) -> IntegralVerdict:
    """One of the two classification integrals toward `endpoint`.

    kind = "access":  outer weight rho^{-1}, inner weight rho
    kind = "second":  outer weight rho,      inner weight rho^{-1}
    """
    L = lambda x: np.asarray(ss.log_speed(x), dtype=float)
    sign = +1.0 if kind == "access" else -1.0
    gl_x, gl_w = np.polynomial.legendre.leggauss(24)

    def panel(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        ts = mid + half * gl_x
        Lts = np.asarray(L(ts), dtype=float)
        fs = np.empty_like(ts)
        for i, t in enumerate(ts):
            inner_lo, inner_hi = (t, c) if t < c else (c, t)
            Lt = Lts[i]
            logf = (lambda s, Lt=Lt: sign * (L(s) - Lt))
            fs[i] = math.exp(min(_inner_log_integral(logf, inner_lo, inner_hi),
                                 _LOG_CLIP))
        return float(half * np.dot(gl_w, fs))

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
    ss = scale_speed(model)
    l, r = model.domain
    c = model.x_ref

    ev_left = (_nested_feller_integral(ss, c, l, "access", tol),
               _nested_feller_integral(ss, c, l, "second", tol))
    ev_right = (_nested_feller_integral(ss, c, r, "access", tol),
                _nested_feller_integral(ss, c, r, "second", tol))
    left = BoundaryKind(kind=_kind_from(*ev_left), evidence=ev_left)
    right = BoundaryKind(kind=_kind_from(*ev_right), evidence=ev_right)

    absorption = None
    tail = None
    if left.kind in (REGULAR, EXIT):
        tail = tail_integral(
            lambda x: -np.asarray(ss.log_speed(x), dtype=float), c, r, tol,
            name="scale_tail")
        absorption = not tail.finite
    return ClassificationResult(left=left, right=right,
                                absorption_certain=absorption,
                                scale_tail=tail)


@dataclass(frozen=True)
class PositivityReport:
    A: float                      # may be math.inf
    a: float
    lambda0_lower: float
    lambda0_upper: float
    positive: bool
    argmax: Optional[float] = None

    def to_json(self):
        return {"A": self.A if math.isfinite(self.A) else "inf", "a": self.a,
                "lambda0_lower": self.lambda0_lower,
                "lambda0_upper": self.lambda0_upper,
                "positive": self.positive, "argmax": self.argmax}


def positivity_criterion(model: DiffusionModel, a: float) -> PositivityReport:
    """A = sup_{x>a} (int_a^x rho^{-1}) (int_x^inf rho); finite A certifies a
    spectral gap with 1/(8A) <= lambda0 <= 1/(2A) for the Dirichlet-at-a
    generator.  The sup runs over a doubling grid with golden-section
    refinement around the running maximum; products are formed in log space."""
    if not model.unit_diffusion:
        raise QsdlabError("positivity_criterion needs a unit-diffusion model")
    ss = scale_speed(model)
    l, r = model.domain
    if not math.isinf(r):
        raise QsdlabError("positivity_criterion expects an infinite right end")
    if not (l <= a < r):
        raise QsdlabError(f"a = {a} not admissible for domain {model.domain}")
    Lp = lambda x: np.asarray(ss.log_speed(x), dtype=float)    # log rho
    Lm = lambda x: -np.asarray(ss.log_speed(x), dtype=float)   # log rho^{-1}

    # 1. speed tail must be integrable somewhere, else A = inf immediately
    probe = max(a + 1.0, model.x_ref + 1.0)
    if not tail_integral(Lp, probe, math.inf, _POSITIVITY_TOL).finite:
        return PositivityReport(A=math.inf, a=a, lambda0_lower=0.0,
                                lambda0_upper=0.0, positive=False)

    # 2. grid scan of the product in log space
    def lse(u, v):
        m = max(u, v)
        if math.isinf(m) and m < 0:
            return -math.inf
        return m + math.log(math.exp(u - m) + math.exp(v - m))

    # sliver of the scale integral just above a (graded in case a is the
    # singular left endpoint of the domain)
    x0 = a + max(1e-6, 1e-6 * abs(a))
    first = a + 0.125 * max(1.0, abs(a))
    breaks = _graded_breaks(x0, first, m=24)
    logS = -math.inf
    for j in range(len(breaks) - 1):
        logS = lse(logS, _log_integral(Lm, breaks[j], breaks[j + 1]))

    # grow the scan window (sqrt(2) steps early for bracketing resolution,
    # doubling later) while the quadrature stays reliable: stop once a single
    # step spans an exponent range beyond what the sub-panel budget resolves
    # -- by then an exponential-order density has either plateaued or been
    # caught by the divergence rule, and super-exponential ones peak early
    xs = [first]
    logSs = [logS]
    x = first
    while True:
        factor = math.sqrt(2.0) if len(xs) < 16 else 2.0
        nx = a + factor * (x - a)
        if abs(float(Lm(nx)) - float(Lm(x))) > 1500.0:
            break
        logS = lse(logS, _log_integral(Lm, x, nx))
        xs.append(nx)
        logSs.append(logS)
        x = nx
        if len(xs) > 120 or nx > 1e14:
            break

    # tail of the speed integral beyond the scan window
    log_tail_end = -math.inf
    acc2 = LevelAccumulator(_POSITIVITY_TOL)
    for lvl2, (lo, hi) in enumerate(_side_levels(xs[-1], math.inf)):
        seg = _log_integral(Lp, lo, hi)
        log_tail_end = lse(log_tail_end, seg)
        v = acc2.add(math.exp(min(seg, _LOG_CLIP)))
        if v == "finite":
            break
        if v == "divergent" or lvl2 > 200:
            # cannot normally happen: the tail was already certified finite
            raise IndeterminateIntegralError(
                "speed tail beyond the scan window did not converge")

    logRs = np.full(len(xs), -math.inf)
    logR = log_tail_end
    logRs[-1] = logR
    for j in range(len(xs) - 2, -1, -1):
        logR = lse(logR, _log_integral(Lp, xs[j], xs[j + 1]))
        logRs[j] = logR

    logP = np.array(logSs) + logRs
    jstar = int(np.argmax(logP))
    best = float(logP[jstar])

    if jstar == len(logP) - 1:
        # maximum at the window edge: certified growth, a plateau (sup
        # attained in the limit), or genuinely unresolved
        if (best > math.log(DIVERGENCE_THRESHOLD) and len(logP) >= 4
                and np.all(np.diff(logP[-4:]) > 0)):
            return PositivityReport(A=math.inf, a=a, lambda0_lower=0.0,
                                    lambda0_upper=0.0, positive=False)
        if len(logP) >= 2 and abs(logP[-1] - logP[-2]) <= 1e-10:
            A = math.exp(best)
            argmax = None
        else:
            raise IndeterminateIntegralError(
                "tail product neither plateaued nor certified divergent "
                f"within the scan window (last log products {list(logP[-3:])})")
    else:
        # interior maximum: golden-section refinement on log P
        def logP_at(xq):
            if xq <= xs[0]:
                # below the first grid knot: scale part integrated directly
                bq = _graded_breaks(x0, xq, m=24)
                s_val = -math.inf
                for j in range(len(bq) - 1):
                    s_val = lse(s_val, _log_integral(Lm, bq[j], bq[j + 1]))
                r_val = lse(logRs[0], _log_integral(Lp, xq, xs[0]))
                return s_val + r_val
            # S and R re-anchored from the nearest grid knots
            jl = int(np.searchsorted(xs, xq)) - 1
            jl = max(0, min(jl, len(xs) - 2))
            s_val = lse(logSs[jl], _log_integral(Lm, xs[jl], xq))
            r_val = lse(logRs[jl + 1], _log_integral(Lp, xq, xs[jl + 1]))
            return s_val + r_val

        lo = xs[jstar - 1] if jstar >= 1 else x0 + 0.02 * (xs[0] - x0)
        hi = xs[jstar + 1]
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c1 = hi - invphi * (hi - lo)
        c2 = lo + invphi * (hi - lo)
        f1, f2 = logP_at(c1), logP_at(c2)
        for _ in range(60):
            if f1 < f2:
                lo, c1, f1 = c1, c2, f2
                c2 = lo + invphi * (hi - lo)
                f2 = logP_at(c2)
            else:
                hi, c2, f2 = c2, c1, f1
                c1 = hi - invphi * (hi - lo)
                f1 = logP_at(c1)
            if hi - lo < 1e-10 * max(1.0, abs(hi)):
                break
        best = max(best, f1, f2)
        A = math.exp(best)
        argmax = 0.5 * (lo + hi)

    A = float(A)
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
    ss = scale_speed(model)
    xs = np.geomspace(1e-6, 1e6, 241)
    b2_minus_bp = model.drift(xs) ** 2 + model.drift.d(xs)   # b=-mu: b^2-b' = mu^2+mu'
    inf_generic = float(np.min(b2_minus_bp))

    log_integrand = lambda sv: (np.log(sv) + 0.5 * np.asarray(
        ss.log_speed(sv), dtype=float))
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
        tail = tail_integral(
            lambda x: -np.asarray(ss.log_speed(x), dtype=float),
            model.x_ref, math.inf)
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
