"""Run one `qsdlab` CLI invocation with outside-in layer tracing.

Usage:
    python3 perfbench/traced_cli.py --spans OUT.jsonl --invocation ID \
        -- <qsdlab arguments>

The tracer imports `qsdlab.cli`, wraps every public function of the `cli`,
`boundary`, `spectral`, `numerics` and `montecarlo` modules under every name
a qsdlab module binds it to (so `qsdlab.cli.run_ensemble` and
`qsdlab.montecarlo.run_ensemble` both record), then calls `qsdlab.cli.main`.
No qsdlab source is changed.  The report on stdout is the CLI's own, byte for
byte; spans and counters stay in memory and are written to OUT.jsonl when
the invocation ends:

    {"inv": ID, "id": 3, "parent": 1, "name": "spectral.eigen_shoot",
     "start": 0.41, "end": 7.02, "tags": {...}}
    ...
    {"inv": ID, "counters": {"numerics.sl_rhs_evals": 226742, ...}}

Times are seconds on `time.perf_counter`.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
import time
import types
from collections import Counter

TRACED_MODULES = ("cli", "boundary", "spectral", "numerics", "montecarlo")


class Recorder:
    """Spans and counters of one invocation, kept in memory."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()

    def open(self, name: str) -> dict:
        span = {"inv": self.invocation, "id": len(self.spans),
                "parent": self.stack[-1]["id"] if self.stack else None,
                "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(s["name"] == name for s in self.stack)

    def write(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
            fh.write(json.dumps({"inv": self.invocation,
                                 "counters": dict(self.counters)},
                                sort_keys=True) + "\n")


class _CountingScaleSpeed:
    """Stands in for the ScaleSpeed handed to integrate_sl_system and counts
    speed-density calls, one per right-hand-side evaluation."""

    def __init__(self, inner, rec: Recorder):
        self._inner, self._rec = inner, rec

    def speed_density(self, x):
        self._rec.counters["numerics.sl_rhs_evals"] += 1
        return self._inner.speed_density(x)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _before_integrate_sl_system(rec, span, args, kwargs):
    if rec.inside("spectral.eigen_shoot"):
        rec.counters["spectral.shots"] += 1
    if len(args) > 1:
        args = (args[0], _CountingScaleSpeed(args[1], rec)) + tuple(args[2:])
    else:
        kwargs["scale_speed"] = _CountingScaleSpeed(kwargs["scale_speed"], rec)
    return args, kwargs


def _before_brent_root(rec, span, args, kwargs):
    f = args[0] if args else kwargs.pop("f")

    def counted(x):
        rec.counters["spectral.brent_evals"] += 1
        return f(x)
    return (counted,) + tuple(args[1:]), kwargs


def _after_run_ensemble(rec, span, result):
    cfg = result.config
    n_steps = int(round(cfg.t_max / cfg.dt))
    nominal = cfg.n * n_steps
    if cfg.resample:
        live = nominal
    else:
        # a particle that died at step s was advanced in steps 1..s
        live = sum(min(int(round(t / cfg.dt)), n_steps) if math.isfinite(t)
                   else n_steps for t in result.death_times.tolist())
    kind = "resample" if cfg.resample else "plain"
    span["tags"] = {"mode": kind, "n": cfg.n, "steps": n_steps}
    c = rec.counters
    c["montecarlo.particle_steps"] += nominal
    c["montecarlo.live_particle_steps"] += live
    c[f"montecarlo.{kind}.particle_steps"] += nominal
    c[f"montecarlo.{kind}.live_particle_steps"] += live
    c["montecarlo.deaths.absorbed"] += result.n_absorbed
    c["montecarlo.deaths.killed"] += result.n_killed
    c["montecarlo.deaths.blown"] += result.n_blown


_HOOKS = {
    "numerics.integrate_sl_system": (_before_integrate_sl_system, None),
    "numerics.brent_root": (_before_brent_root, None),
    "montecarlo.run_ensemble": (None, _after_run_ensemble),
}


def _wrap(fn, name: str, rec: Recorder):
    before, after = _HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            if before is not None:
                args, kwargs = before(rec, span, args, kwargs)
            out = fn(*args, **kwargs)
            if after is not None:
                after(rec, span, out)
            return out
        finally:
            rec.close(span)
    return traced


def install(rec: Recorder) -> int:
    """Wrap the public functions of TRACED_MODULES and rebind every name
    under which any loaded qsdlab module holds them.  Returns the number of
    rebound names."""
    wrapped = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"qsdlab.{short}")
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = _wrap(obj, f"{short}.{attr}", rec)
    rebound = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "qsdlab" and not mod_name.startswith("qsdlab."):
            continue
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
                rebound += 1
    return rebound


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="JSONL output path")
    ap.add_argument("--invocation", required=True, help="invocation id")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    rec = Recorder(opts.invocation)
    span = rec.open("cli.import")
    try:
        import qsdlab.cli
    finally:
        rec.close(span)
    rec.counters["trace.rebound_names"] = install(rec)
    rc = 1
    try:
        rc = qsdlab.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        rec.write(opts.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
