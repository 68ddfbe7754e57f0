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
import struct
import sys
import warnings
from collections import namedtuple
from typing import NoReturn

import numpy as np

from . import __version__
from .boundary import classify, positivity_criterion
from .model import (CONVENTION_NOTE, DiffusionModel, model_from_json,
                    reduce_unit_diffusion)
from .montecarlo import (SimConfig, dichotomy_probe, histogram_masses,
                         run_ensemble, survival_curve, tv_distance)
from .numerics import QsdlabError, _jsonable, _quantiles
from .spectral import (eigen_fd_oracle, eigen_schrodinger, eigen_shoot,
                       qsd_density, shooting_ladder)
from .zoo import ZOO, zoo_build

__all__ = ["main", "run"]


def _env_settings() -> dict:
    return {"qsdlab": __version__, "numpy": np.__version__}


def _emit_json(doc: dict, path: str | None) -> None:
    """Write `doc` as sorted, indented strict JSON to the file `path`, or to
    stdout where `path` is None."""
    text = json.dumps(_jsonable(doc), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


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
    """Refuse a size, step or tolerance option that no route can use,
    before any work is done."""
    for opt, least in (("points", 1), ("bins", 1), ("grid_size", 4),
                       ("seed", 0), ("n", 2)):
        val = getattr(args, opt, None)
        if val is not None and val < least:
            _usage(f"--{opt.replace('_', '-')} must be at least {least}, "
                   f"got {val}")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        _usage(f"--tol must be a positive finite number, got {tol}")
    dt = getattr(args, "dt", None)
    if dt is not None:                  # the Monte Carlo commands
        if not dt > 0:
            _usage(f"--dt must be positive, got {dt}")
        if not math.isfinite(args.t_max):
            _usage(f"--t-max must be finite, got {args.t_max}")
        if args.t_max < dt:
            _usage(f"--t-max {args.t_max:g} is shorter than one step "
                   f"(--dt {dt:g})")


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
    """(unit-diffusion model, transform-or-None, the model's report fields)"""
    info = {"model": {"name": model.name, "params": model.params,
                      "domain": list(model.domain),
                      "killed": model.killing is not None},
            "convention": CONVENTION_NOTE, "reduced": not model.unit_diffusion}
    if model.unit_diffusion:
        return model, None, info
    red, tr = reduce_unit_diffusion(model)
    return red, tr, {**info, "reduced_domain": list(red.domain),
                     "note": "analysis runs in the unit-diffusion coordinate"}


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
    red, _, info = _reduced(model)
    doc.update(info, settings={"tol": args.tol, **_env_settings()})
    doc["classification"] = classify(red, tol=args.tol).to_json()


def _cmd_spectrum(args, doc: dict) -> None:
    """The spectrum and, with --oracle, its FE cross-check in a child."""
    model = _load_model(args)
    red, _, info = _reduced(model)
    doc.update(info)
    solve, oracle = _spectral(red, args)
    if args.oracle and oracle is None:
        _usage("--oracle does not apply to the FE route, which is the "
               "oracle itself")
    check = [_Stage("oracle", lambda v: oracle(), _oracle_fields,
                    child=True)] if args.oracle else []
    _run_stages([_Stage("spectrum", lambda v: solve(), lambda spec, v: {
        "spectrum": spec.to_json(), "gap": spec.gap,
        "settings": {"method": spec.method, "k": len(spec.eigenvalues),
                     **_env_settings()}}), *check], doc, "the FE oracle")


def _oracle_fields(ref, values: dict) -> dict:
    spec = values["spectrum"]
    kk = min(len(spec.eigenvalues), len(ref.eigenvalues))
    diff = float(np.max(np.abs(spec.eigenvalues[:kk] - ref.eigenvalues[:kk])))
    return {"oracle": {"eigenvalues": ref.eigenvalues, "max_difference": diff,
                       "agrees_rel": diff <= 1e-4 * (1.0 + abs(spec.lambda0))}}


def _cmd_qsd(args, doc: dict) -> None:
    model = _load_model(args)
    red, _, info = _reduced(model)
    doc.update(info)
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
    red, tr, info = _reduced(model)
    x0 = _start(args, red, tr)
    cfg = _sim_config(args)
    doc.update(info, settings={"x0": x0, **cfg.to_json(), **_env_settings()})
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
    """The values of the iterator `values`, computed in a forked child while
    the parent works on; `name` names the child in the error of its death.

    `next()` gives the values in order, or raises the iterator's exception,
    and past the last one fails as for a dead child.  Each value is sent as
    soon as the child has it, pickled whole and framed by its length, so a
    frame is read whole or the child is known dead; what the pipe has no
    room for waits in the child, which computes on.  Leaving the block kills
    and reaps the child, so no exit path leaves a process behind.  Where
    `os.fork` is missing or fails, `next()` advances `values` in-process,
    with the same values: every random stream is keyed from a seed, and a
    model's log rho is a pure function of x."""

    _FRAME = struct.Struct("<Q")

    def __init__(self, values, name: str):
        self._values, self._name = values, name
        self._pid = self._fh = None

    def __enter__(self):
        r, w = os.pipe()
        try:
            # Python 3.12+ warns on fork in a process with threads, such as
            # the idle BLAS workers numpy starts; the child runs no code that
            # needs them, and a warning raised as an error would orphan it
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except (AttributeError, OSError):       # no os.fork, or no process
            os.close(r)
            os.close(w)
            return self
        if pid == 0:                            # the child never returns
            os.close(r)
            os.set_blocking(w, False)
            status, pending = 1, bytearray()
            try:
                try:
                    for value in self._values:
                        self._send(w, pending, (True, value))
                except Exception as exc:
                    self._send(w, pending, (False, exc))
                os.set_blocking(w, True)
                self._send(w, pending)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self._pid, self._fh = pid, os.fdopen(r, "rb")
        return self

    @classmethod
    def _send(cls, fd: int, pending: bytearray, payload=None) -> None:
        """Frame `payload` onto `pending`; write out what the pipe takes."""
        if payload is not None:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
            pending += cls._FRAME.pack(len(data)) + data
        with contextlib.suppress(BlockingIOError):
            while pending:
                del pending[:os.write(fd, pending)]

    def __next__(self):
        if self._fh is None:
            return next(self._values)
        head = self._fh.read(self._FRAME.size)
        if len(head) == self._FRAME.size:
            (size,) = self._FRAME.unpack(head)
            data = self._fh.read(size)
            if len(data) == size:
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                return value
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if os.WIFSIGNALED(status):
            sig = signal.Signals(os.WTERMSIG(status)).name
            raise QsdlabError(f"{self._name}'s process was killed by {sig}")
        raise QsdlabError(f"{self._name}'s process exited with status "
                          f"{os.waitstatus_to_exitcode(status)} and no result")

    def __exit__(self, *exc_info):
        if self._fh is not None:
            self._fh.close()
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)


# A stage: `run(values)` computes its value from earlier ones, in the child
# where `child`, if `when(values)`; `fields(value, values)` its report fields.
_Stage = namedtuple("_Stage", "name run fields child when", defaults=(
    lambda value, values: value, False, lambda values: True))


def _stage_values(stages, values: dict):
    """Run `stages` in turn here, adding each value to `values` and yielding
    it; a QsdlabError is the value of the stage that raised it, and ends."""
    for s in stages:
        if (not any(isinstance(v, QsdlabError) for v in values.values())
                and s.when(values)):
            try:
                values[s.name] = s.run(values)
            except QsdlabError as exc:
                values[s.name] = exc
            yield values[s.name]


def _run_stages(stages: list, doc: dict, child_name: str) -> None:
    """Run a command's `stages` and write their fields into `doc`.

    The `child` stages run in a process forked first, while this one runs
    the stages before the child's last one; it then reads the child's values
    in list order up to a failed stage or a child stage whose condition
    fails here (a dead child fails its first stage), and runs the rest.  A
    condition holds where a value it reads is the other process's.  The
    fields are written and the first QsdlabError raised in list order."""
    child = [s for s in stages if s.child]
    last = stages.index(child[-1]) if child else -1
    values: dict = {}
    if child:
        with _Forked(_stage_values(child, {}), child_name) as forked:
            list(_stage_values([s for s in stages[:last] if not s.child],
                               values))
            try:
                for s in stages[:last + 1]:
                    if s.child:
                        if not s.when(values):
                            break
                        values[s.name] = next(forked)
                    if isinstance(values.get(s.name), QsdlabError):
                        break
            except QsdlabError as exc:          # the child died
                values[child[0].name] = exc
    list(_stage_values(stages[last + 1:], values))
    for s in stages:
        if s.name in values:
            if isinstance(values[s.name], QsdlabError):
                raise values[s.name]
            doc.update(s.fields(values[s.name], values))


def _positivity(red: DiffusionModel) -> dict:
    """The positivity criterion's report fields: none where it does not
    apply (killing on the whole line), {"error": message} where it fails."""
    l, r = red.domain
    if red.killing is not None and math.isinf(l) and math.isinf(r):
        return {}
    try:
        return {"positivity": positivity_criterion(
            red, a=l if math.isfinite(l) else red.x_ref).to_json()}
    except QsdlabError as exc:
        return {"positivity": {"error": str(exc)}}


def _goes_on(values: dict) -> bool:
    """Positivity holds or does not apply, and the probe saw no escape."""
    pos = values["positivity"].get("positivity", {"positive": True})
    escaped = getattr(values.get("dichotomy"), "verdict", "") == "Escapes"
    return pos.get("positive", False) and not escaped


def _plain_fit(red, x0: float, cfg: SimConfig, values: dict) -> dict:
    """The plain run's survival fit against the spectrum as report fields,
    {"error": message} where the fit fails."""
    res = run_ensemble(red, x0, cfg)
    try:
        curve = survival_curve(res)
    except QsdlabError as exc:
        return {"survival": {"error": str(exc)}}
    lam0 = values["spectrum"].lambda0
    return {"survival": curve.to_json(), "rate_matches_lambda0": bool(
        curve.rate_ci[0] <= lam0 <= curve.rate_ci[1])}


def _tv(values: dict, bins: int) -> dict:
    """The TV distance of the probe's sample from the spectral QSD and the
    mode, "dichotomy-only" with no distance where there is no spectrum."""
    if "spectrum" not in values:
        return {"mode": "dichotomy-only", "tv_distance": None}
    dens = qsd_density(values["spectrum"])
    sample = values["dichotomy"].final_positions
    s_lo, s_hi = _quantiles(sample, (1e-4, 1 - 1e-4))
    lo, hi = max(dens.support[0], s_lo), min(dens.support[1], s_hi)
    if not hi > lo:
        raise QsdlabError(
            f"the probe's sample (its 1e-4 to 1 - 1e-4 quantiles, "
            f"[{s_lo:.6g}, {s_hi:.6g}]) does not overlap the QSD support "
            f"[{dens.support[0]:.6g}, {dens.support[1]:.6g}]")
    edges = np.linspace(lo, hi, bins + 1)
    return {"mode": "full", "tv_distance": tv_distance(
        histogram_masses(sample, edges), dens.bin_masses(edges))}


def _cmd_compare(args, doc: dict) -> None:
    """Cross-validate spectral predictions against killed-path sampling.

    Two ensembles share the seed: the dichotomy probe's resampled run, whose
    t_max positions are the conditioned sample histogrammed against the
    spectral QSD for `tv_distance`, and a plain run for the survival fit."""
    model = _load_model(args)
    red, tr, info = _reduced(model)
    x0 = _start(args, red, tr)
    solve = _spectral(red, args)[0]
    doc.update(info, settings={"x0": x0, "dt": args.dt, "n": args.n,
                               "t_max": args.t_max, "seed": args.seed,
                               **_env_settings()})
    cfg = _sim_config(args)
    _run_stages([
        _Stage("classification", lambda v: {
            "classification": classify(red).to_json()}, child=True),
        _Stage("positivity", lambda v: _positivity(red), child=True),
        _Stage("dichotomy", lambda v: dichotomy_probe(red, x0, cfg),
               lambda probe, v: {"dichotomy": probe.to_json()}),
        _Stage("spectrum", lambda v: solve(),
               lambda spec, v: {"spectrum": spec.to_json(), "gap": spec.gap},
               child=True, when=_goes_on),
        _Stage("survival", lambda v: _plain_fit(red, x0, cfg, v),
               child=True, when=_goes_on),
        _Stage("tv_distance", lambda v: _tv(v, args.bins)),
    ], doc, "the classification, plain ensemble and spectrum")


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
        with contextlib.suppress(OSError):
            _emit_json(diag, args.diagnostic)
        print(f"qsdlab: numerical failure: {exc}", file=sys.stderr)
        return 3
    _emit_json(doc, args.out or None)      # `--out ""` is stdout
    return 0


def run() -> NoReturn:
    """The command line's entry point: `main()` on sys.argv, then the end of
    the process with its code.  stdout and stderr are flushed and the process
    ends by `os._exit`, skipping the interpreter's teardown of numpy and the
    package, which only frees memory.  Where the flush fails (a closed or
    broken stdout), the process exits by `sys.exit` instead, so the exit
    status (120) and stderr are the interpreter's own; where the report's
    own write breaks the pipe, it exits 120 too."""
    try:
        rc = main()
    except BrokenPipeError:                 # stdout's reader has gone
        sys.exit(120)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:          # None where the fd was closed
                stream.flush()
    except (OSError, ValueError):           # a broken pipe, a closed stream
        sys.exit(rc)
    os._exit(rc)


if __name__ == "__main__":
    run()
