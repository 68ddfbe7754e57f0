"""qsdlab command line: classify | spectrum | qsd | simulate | compare | zoo.

Reports are deterministic: JSON with sorted keys and no timestamps, every
numeric setting (seed, dt, truncations, tolerances) echoed back, and the
drift-sign convention note embedded.  CSV output uses '.' decimals, LF line
endings and %.17g floats.  Exit codes: 0 success, 2 usage error (argparse's,
or an input the chosen route would drop: one line on stderr), 3 numerical
failure -- in which case a diagnostic.json is written with the error, the
settings and the partial report: every field the command had filled in
before the failing stage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import signal
import sys
import warnings

import numpy as np

from . import __version__
from .boundary import classify, positivity_criterion
from .model import (CONVENTION_NOTE, DiffusionModel, model_from_json,
                    reduce_unit_diffusion)
from .montecarlo import (SimConfig, dichotomy_probe, histogram_masses,
                         run_ensemble, survival_curve, tv_distance)
from .numerics import QsdlabError, _quantiles
from .spectral import (eigen_fd_oracle, eigen_schrodinger, eigen_shoot,
                       qsd_density, shooting_ladder)
from .zoo import ZOO, zoo_build

__all__ = ["main"]


def _env_settings() -> dict:
    return {"qsdlab": __version__, "numpy": np.__version__}


def _emit_json(doc: dict, out: str | None) -> None:
    text = json.dumps(_jsonable(doc), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(x):
    """`x` with numpy values as Python ones and nonfinite floats as the
    strings "nan", "inf" and "-inf", so that strict JSON can hold it."""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, np.floating):
        return _jsonable(float(x))
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % float(v) for v in row) + "\n")


def _usage(message: str):
    """Exit 2 with a one-line message, as argparse does for its own errors."""
    print(f"qsdlab: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_ranges(args) -> None:
    """Refuse a size or tolerance option that no route can use, before any
    work is done."""
    for opt, least in (("points", 1), ("bins", 1), ("grid_size", 4),
                       ("seed", 0)):
        val = getattr(args, opt, None)
        if val is not None and val < least:
            _usage(f"--{opt.replace('_', '-')} must be at least {least}, "
                   f"got {val}")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        _usage(f"--tol must be a positive finite number, got {tol}")


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            _usage(f"--param needs key=value, got {pair!r}")
        k, v = pair.split("=", 1)
        try:
            out[k.strip()] = float(v)
        except ValueError:
            _usage(f"--param {k.strip()} needs a number, got {v!r}")
    return out


def _load_model(args) -> DiffusionModel:
    if getattr(args, "model_json", None):
        try:
            with open(args.model_json) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            _usage(f"cannot read --model-json {args.model_json}: {exc}")
        return model_from_json(doc)
    if getattr(args, "zoo", None):
        return zoo_build(args.zoo, _parse_params(getattr(args, "param", None)))
    _usage("specify a model with --zoo NAME or --model-json FILE")


def _reduced(model: DiffusionModel):
    """(unit-diffusion model, transform-or-None, report fragment)"""
    if model.unit_diffusion:
        return model, None, {"reduced": False}
    red, tr = reduce_unit_diffusion(model)
    return red, tr, {"reduced": True,
                     "reduced_domain": list(red.domain),
                     "note": "analysis runs in the unit-diffusion coordinate"}


def _model_report(model: DiffusionModel) -> dict:
    return {"name": model.name, "params": model.params,
            "domain": list(model.domain),
            "killed": model.killing is not None}


def _spectral(model: DiffusionModel, args):
    """Resolve the spectral route for `model` and check the options of
    `_add_spectral_args` against it before any work is done.  Returns the
    solve and the FE oracle that cross-checks it (None on the FE route) as
    thunks; the oracle works on the window of the widest shooting
    truncation, or on the whole line on a window of its own."""
    method = args.method
    if method == "auto":
        both_inf = math.isinf(model.domain[0]) and math.isinf(model.domain[1])
        method = "schrodinger" if both_inf else "shoot"
    if args.k is not None and args.k < 1:
        _usage(f"--k must be at least 1, got {args.k}")
    k = args.k or (2 if method == "schrodinger" else 1)
    trunc = args.truncation
    if method == "shoot":
        if args.grid_size is not None:
            _usage("--grid-size does not apply to the shooting route, "
                   "which has no grid")
        return (lambda: eigen_shoot(model, K=k, truncations=trunc),
                lambda: eigen_fd_oracle(
                    model, truncation=shooting_ladder(model, trunc)[-1], K=k))
    if method == "fd":
        if trunc is not None and len(trunc) > 2:
            _usage("--method fd takes one truncation T or a window LO HI, "
                   f"got {len(trunc)} values")
        tr = None
        if trunc:
            tr = tuple(trunc) if len(trunc) == 2 else float(trunc[0])
        return (lambda: eigen_fd_oracle(model,
                                        grid_size=args.grid_size or 1600,
                                        truncation=tr, K=k), None)
    if trunc is not None:
        _usage("--truncation does not apply to the Schrodinger route, "
               "which chooses its own window")
    # on the whole line FE picks its own window: the Schrodinger one spans
    # more decades of rho than its element masses can hold
    return (lambda: eigen_schrodinger(model, K=k,
                                      grid_size=args.grid_size or 6000),
            lambda: eigen_fd_oracle(model, K=k))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------
# Each handler fills the report dict it is handed, stage by stage, so that
# on a QsdlabError `main` can save what was already found.

def _cmd_zoo(args, doc: dict) -> None:
    doc["models"] = {name: {"params": entry.params,
                            "doc": entry.doc} for name, entry in ZOO.items()}


def _cmd_classify(args, doc: dict) -> None:
    model = _load_model(args)
    red, _, red_info = _reduced(model)
    doc.update(model=_model_report(model), convention=CONVENTION_NOTE,
               settings={"tol": args.tol, **_env_settings()}, **red_info)
    doc["classification"] = classify(red, tol=args.tol).to_json()


def _cmd_spectrum(args, doc: dict) -> None:
    """The spectrum and, with --oracle, its FE cross-check.  The oracle runs
    in a forked child beside the spectral solve and is read after it, so
    failures and the partial report come out as if it ran in-process."""
    model = _load_model(args)
    red, _, red_info = _reduced(model)
    doc.update(model=_model_report(model), convention=CONVENTION_NOTE,
               **red_info)
    solve, oracle = _spectral(red, args)
    if args.oracle and oracle is None:
        _usage("--oracle does not apply to the FE route, which is the "
               "oracle itself")
    with (_Forked(oracle, "the FE oracle") if args.oracle
          else contextlib.nullcontext()) as fe:
        spec = solve()
        doc.update(spectrum=spec.to_json(), gap=spec.gap,
                   settings={"method": spec.method,
                             "k": len(spec.eigenvalues), **_env_settings()})
        if fe is None:
            return
        ref = fe.result()
    kk = min(len(spec.eigenvalues), len(ref.eigenvalues))
    diff = float(np.max(np.abs(spec.eigenvalues[:kk] - ref.eigenvalues[:kk])))
    doc["oracle"] = {"eigenvalues": ref.eigenvalues, "max_difference": diff,
                     "agrees_rel": diff <= 1e-4 * (1.0 + abs(spec.lambda0))}


def _cmd_qsd(args, doc: dict) -> None:
    model = _load_model(args)
    red, _, red_info = _reduced(model)
    doc.update(model=_model_report(model), convention=CONVENTION_NOTE,
               **red_info)
    spec = _spectral(red, args)[0]()
    doc.update(lambda0=spec.lambda0,
               settings={"method": spec.method, "points": args.points,
                         **_env_settings()})
    dens = qsd_density(spec)
    xs = np.linspace(dens.support[0], dens.support[1], args.points)
    ys = dens.density(xs)
    doc.update(Z=dens.Z, support=list(dens.support), tail_mass=dens.tail_mass)
    if args.csv:
        _write_csv(args.csv, ["x", "density"], zip(xs, ys))
        doc["csv"] = args.csv
    else:
        doc["x"] = xs
        doc["density"] = ys


def _sim_config(args) -> SimConfig:
    return SimConfig(dt=args.dt, n=args.n, t_max=args.t_max, seed=args.seed,
                     bridge=not args.no_bridge,
                     resample=getattr(args, "resample", False))


def _start(args, red: DiffusionModel, tr) -> float:
    """The start position in the reduced coordinate: `--x0` (given in the
    original coordinate) mapped through the reduction, else `red.x_ref`."""
    if args.x0 is None:
        return float(red.x_ref)
    if tr is not None:
        return float(tr.forward(np.asarray(args.x0)))
    return float(args.x0)


def _cmd_simulate(args, doc: dict) -> None:
    for t in args.record or []:   # run_ensemble would clamp into [dt, t_max]
        if not 0.0 < t <= args.t_max:
            _usage(f"--record {t:g} is outside (0, t_max = {args.t_max:g}]")
    model = _load_model(args)
    red, tr, red_info = _reduced(model)
    x0 = _start(args, red, tr)
    cfg = _sim_config(args)
    doc.update(model=_model_report(model), convention=CONVENTION_NOTE,
               settings={"x0": x0, **cfg.to_json(), **_env_settings()},
               **red_info)
    record = [float(t) for t in args.record] if args.record else [cfg.t_max]
    res = run_ensemble(red, x0, cfg, record_times=record)
    doc["result"] = res.to_json()
    if args.fit_survival:
        curve = survival_curve(res)
        doc["survival"] = curve.to_json()
    if args.csv_hist:
        pos = res.final_positions
        if tr is not None:
            pos = np.asarray(tr.inverse(pos), dtype=float)
        if len(pos) == 0:
            raise QsdlabError("no survivors to histogram")
        edges = np.linspace(float(np.min(pos)), float(np.max(pos)),
                            args.bins + 1)
        masses = histogram_masses(pos, edges)
        _write_csv(args.csv_hist, ["bin_lo", "bin_hi", "mass"],
                   zip(edges[:-1], edges[1:], masses))
        doc["csv_hist"] = args.csv_hist


class _Forked:
    """`fn()` computed in a forked child while the parent works on; `name`
    says what the child computes, in the message of a child that dies.

    `result()` returns fn's value or raises its exception, which come back
    pickled through a pipe.  Leaving the block kills and reaps a child whose
    result was not read, so no exit path leaves a process behind.  Where
    `os.fork` is missing or fails, `result()` calls `fn()` in-process, with
    the same value: every random stream is keyed from a seed, and a model's
    log rho is a pure function of x."""

    def __init__(self, fn, name: str):
        self._fn, self._name = fn, name
        self._pid = self._fd = None

    def __enter__(self):
        fork = getattr(os, "fork", None)
        if fork is None:
            return self
        r, w = os.pipe()
        try:
            # Python 3.12+ warns on fork in a process with threads, such as
            # the idle BLAS workers numpy starts; the child runs no code that
            # needs them, and a warning raised as an error would orphan it
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = fork()
        except OSError:
            os.close(r)
            os.close(w)
            return self
        if pid == 0:                            # the child never returns
            os.close(r)
            status = 1
            try:
                try:
                    payload = (True, self._fn())
                except Exception as exc:
                    payload = (False, exc)
                # pickled whole before writing, so the pipe carries all of
                # the result or none of it
                data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                with os.fdopen(w, "wb") as fh:
                    fh.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self._pid, self._fd = pid, r
        return self

    def result(self):
        if self._pid is None:
            return self._fn()
        with os.fdopen(self._fd, "rb") as fh:
            self._fd = None
            data = fh.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if os.WIFSIGNALED(status):
            sig = signal.Signals(os.WTERMSIG(status)).name
            raise QsdlabError(f"{self._name}'s process was killed by {sig}")
        if not data:
            raise QsdlabError(f"{self._name}'s process exited with "
                              f"status {os.waitstatus_to_exitcode(status)} "
                              f"and no result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def __exit__(self, *exc_info):
        if self._fd is not None:
            os.close(self._fd)
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)


def _plain_fit(red: DiffusionModel, x0: float, cfg: SimConfig):
    """The plain run (compare has no --resample) and its survival fit.  A
    fit that fails comes back as its QsdlabError, which the report keeps; a
    run that fails raises."""
    res = run_ensemble(red, x0, cfg)
    try:
        return survival_curve(res)
    except QsdlabError as exc:
        return exc


def _compare_stages(red: DiffusionModel, x0: float, cfg: SimConfig,
                    solve) -> dict:
    """compare's stages other than the probe, in order: the classification,
    positivity where it applies and, unless positivity degrades the run,
    the plain run with its survival fit and the spectral solve.  Each stage
    maps to (True, value) or to (False, the QsdlabError that ended it); a
    failed classification ends the sequence."""
    stages = {}

    def stage(name, fn):
        try:
            stages[name] = (True, fn())
        except QsdlabError as exc:
            stages[name] = (False, exc)
        return stages[name]

    if not stage("classification", lambda: classify(red).to_json())[0]:
        return stages
    l, r = red.domain
    if not (red.killing is not None and math.isinf(l) and math.isinf(r)):
        ok, pos = stage("positivity", lambda: positivity_criterion(
            red, a=l if math.isfinite(l) else red.x_ref).to_json())
        if not (ok and pos["positive"]):
            return stages
    stage("survival", lambda: _plain_fit(red, x0, cfg))
    stage("spectrum", solve)
    return stages


def _settled(outcome):
    """A stage's value, or the QsdlabError that ended it raised."""
    ok, value = outcome
    if not ok:
        raise value
    return value


def _cmd_compare(args, doc: dict) -> None:
    """Cross-validate spectral predictions against killed-path sampling.

    Two ensembles share the seed: the dichotomy probe's resampled run, whose
    t_max positions are the conditioned sample histogrammed against the
    spectral QSD for `tv_distance`, and a plain run for the survival fit.
    Only the probe runs in this process; every other stage shares no state
    with it and runs in a forked child beside it (`_compare_stages`).  The
    stages are written into the report, and the first failure raised, in
    the order in which they would run one after the other, so the report
    and the partial report of a failure come out as if they did."""
    model = _load_model(args)
    red, tr, red_info = _reduced(model)
    x0 = _start(args, red, tr)
    solve = _spectral(red, args)[0]
    doc.update(model=_model_report(model), convention=CONVENTION_NOTE,
               settings={"x0": x0, "dt": args.dt, "n": args.n,
                         "t_max": args.t_max, "seed": args.seed,
                         **_env_settings()}, **red_info)
    cfg = _sim_config(args)
    with _Forked(lambda: _compare_stages(red, x0, cfg, solve),
                 "the classification, plain ensemble and spectrum") as child:
        try:
            probe = dichotomy_probe(red, x0, cfg)
        except QsdlabError as exc:
            probe = exc
        stages = child.result()

    doc["classification"] = _settled(stages["classification"])
    if "positivity" in stages:
        ok, pos = stages["positivity"]
        doc["positivity"] = pos if ok else {"error": str(pos)}
    if isinstance(probe, QsdlabError):
        raise probe
    doc["dichotomy"] = probe.to_json()
    # the child skips the solve exactly when positivity degrades the run
    if "spectrum" not in stages or probe.verdict == "Escapes":
        doc["mode"] = "dichotomy-only"
        doc["tv_distance"] = None
        return

    spec = _settled(stages["spectrum"])
    doc["spectrum"] = spec.to_json()
    doc["gap"] = spec.gap
    curve = _settled(stages["survival"])
    if isinstance(curve, QsdlabError):
        doc["survival"] = {"error": str(curve)}
    else:
        doc["survival"] = curve.to_json()
        doc["rate_matches_lambda0"] = bool(
            curve.rate_ci[0] <= spec.lambda0 <= curve.rate_ci[1])

    dens = qsd_density(spec)
    sample = probe.final_positions
    s_lo, s_hi = _quantiles(sample, (1e-4, 1 - 1e-4))
    lo, hi = max(dens.support[0], s_lo), min(dens.support[1], s_hi)
    if not hi > lo:
        raise QsdlabError(
            f"the probe's sample (its 1e-4 to 1 - 1e-4 quantiles, "
            f"[{s_lo:.6g}, {s_hi:.6g}]) does not overlap the QSD support "
            f"[{dens.support[0]:.6g}, {dens.support[1]:.6g}]")
    edges = np.linspace(lo, hi, args.bins + 1)
    doc["tv_distance"] = tv_distance(histogram_masses(sample, edges),
                                     dens.bin_masses(edges))
    doc["mode"] = "full"


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def _add_model_args(p):
    p.add_argument("--zoo", help="zoo model name (see `qsdlab zoo`)")
    p.add_argument("--param", action="append",
                   help="zoo parameter key=value (repeatable)")
    p.add_argument("--model-json", help="path to a serialized model")


def _add_spectral_args(p):
    p.add_argument("--method", choices=["auto", "shoot", "fd", "schrodinger"],
                   default="auto")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--truncation", type=float, nargs="+", default=None)
    p.add_argument("--grid-size", type=int, default=None)


def _add_sim_args(p):
    p.add_argument("--x0", type=float, default=None,
                   help="start position (original coordinates); default x_ref")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=20260814)
    p.add_argument("--no-bridge", action="store_true",
                   help="disable the intra-step boundary-hit correction")
    p.add_argument("--bins", type=int, default=40)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qsdlab",
        description="boundary classification, principal spectrum, "
                    "quasistationary laws and killed-path Monte Carlo for "
                    "one-dimensional diffusions")
    ap.add_argument("--out", help="write the JSON report here instead of stdout")
    ap.add_argument("--diagnostic", default="diagnostic.json",
                    help="where to write failure diagnostics (exit code 3)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zoo", help="list built-in model families")

    p = sub.add_parser("classify", help="Feller boundary classification")
    _add_model_args(p)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("spectrum", help="bottom eigenvalues")
    _add_model_args(p)
    _add_spectral_args(p)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the finite-element oracle")

    p = sub.add_parser("qsd", help="quasistationary density")
    _add_model_args(p)
    _add_spectral_args(p)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--csv", help="write (x, density) rows to this CSV")

    p = sub.add_parser("simulate", help="killed-path ensemble")
    _add_model_args(p)
    _add_sim_args(p)
    p.add_argument("--resample", action="store_true",
                   help="respawn dead particles at surviving ones")
    p.add_argument("--record", type=float, nargs="+", default=None)
    p.add_argument("--fit-survival", action="store_true")
    p.add_argument("--csv-hist", help="write the final histogram to this CSV")

    p = sub.add_parser("compare", help="spectral vs Monte Carlo cross-validation")
    _add_model_args(p)
    _add_sim_args(p)
    _add_spectral_args(p)
    return ap


_HANDLERS = {"zoo": _cmd_zoo, "classify": _cmd_classify,
             "spectrum": _cmd_spectrum, "qsd": _cmd_qsd,
             "simulate": _cmd_simulate, "compare": _cmd_compare}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _check_ranges(args)
    doc: dict = {}
    try:
        _HANDLERS[args.command](args, doc)
    except QsdlabError as exc:
        diag = {"command": args.command, "error": type(exc).__name__,
                "message": str(exc), "settings": _env_settings(),
                "partial": doc}
        try:
            with open(args.diagnostic, "w", newline="\n") as fh:
                json.dump(_jsonable(diag), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError:
            pass
        print(f"qsdlab: numerical failure: {exc}", file=sys.stderr)
        return 3
    _emit_json(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
