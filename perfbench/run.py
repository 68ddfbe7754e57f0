"""qsdlab benchmark: two CLI workloads timed end to end, then traced.

Usage (from the root of a qsdlab checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation runs the `qsdlab` CLI (`python3 -m qsdlab.cli`, sources
from ./src) in a child process with a fixed environment (one BLAS/OpenMP
thread), one at a time.
Each round of a run times a fresh `import qsdlab.cli` (set-up) and one
invocation of the workload with the CLI seed derived from --seed; rounds
repeat until --seconds have been spent (at least two invocations and four
set-ups).  Every report is checked against an independent reference, and
all repeats must print byte-identical stdout.

--trace 0 reports the end-to-end metrics:
    wall_s       median wall time of one CLI invocation, start-up included
    setup_s      median time of a no-work invocation (`import qsdlab.cli`)
    peak_rss_mb  median of the child's max RSS
Both times are rescaled to the nominal host speed: divided by the speed
factor, the median time of a fixed reference computation (host_reference,
timed in this process at the start of each round and at the end) over
REF_NOMINAL_S.  On a shared host the raw times of the same code
move by up to 1.5x with the neighbours' load for minutes at a time; the
reference moves with them, and qsdlab's own cost stays in the ratio.
--trace 1 alternates untraced invocations with ones run under
perfbench/traced_cli.py and reports per-layer medians from the spans, with
the speed factor and the raw (not rescaled) wall and set-up times.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; progress goes to stderr.  Scratch files go to
.bench_build/perfbench/.  Exits 2 without a result when ./src/qsdlab is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SETUP_REPEATS = 4             # set-up timings per run, at least
MIN_REPEATS = 2               # invocations per run, for the determinism check
RUN_DEADLINE_S = 165.0        # hard stop for one run, under the 180 s limit
REF_NOMINAL_S = 0.1           # reference time at the nominal host speed

# frozen references (tests/test_spectral.py, tests/test_cli.py)
PBESSEL_EIGENVALUES = (3.0, 5.0)
PBESSEL_TOL = 2e-5
LOGISTIC_LAMBDA0 = 1.3785477
LOGISTIC_LAMBDA0_REL = 1e-6
TV_BOUND = 0.05               # acceptance criterion 5
Z_BOUND = 4.0                 # statistical checks allow 4 standard errors
COMPARE_N, COMPARE_T_MAX = 10000, 4.0


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# workloads and their output checks
# ---------------------------------------------------------------------------

def _check_spectrum(doc: dict) -> list:
    errs = []
    ev = doc["spectrum"]["eigenvalues"]
    worst = max(abs(a - b) for a, b in zip(ev, PBESSEL_EIGENVALUES))
    if len(ev) != 2 or not worst <= PBESSEL_TOL:
        errs.append(f"eigenvalues {ev} not within {PBESSEL_TOL} of "
                    f"{list(PBESSEL_EIGENVALUES)}")
    if doc.get("oracle", {}).get("agrees_rel") is not True:
        errs.append(f"FE oracle disagrees: {doc.get('oracle')}")
    return errs


def _check_compare(doc: dict) -> list:
    if doc.get("mode") != "full":
        return [f"mode {doc.get('mode')!r}, expected 'full'"]
    errs = []
    lam0 = doc["spectrum"]["eigenvalues"][0]
    if abs(lam0 - LOGISTIC_LAMBDA0) > LOGISTIC_LAMBDA0_REL * LOGISTIC_LAMBDA0:
        errs.append(f"lambda0 {lam0} != {LOGISTIC_LAMBDA0}")
    surv = doc["survival"]
    if "rate" not in surv:
        return errs + [f"no survival fit: {surv}"]
    se = (surv["rate_ci"][1] - surv["rate_ci"][0]) / (2 * 1.959963984540054)
    if not abs(surv["rate"] - LOGISTIC_LAMBDA0) <= Z_BOUND * se:
        errs.append(f"rate {surv['rate']} vs lambda0 {LOGISTIC_LAMBDA0}: "
                    f"more than {Z_BOUND} SE ({se:.4g})")
    if not doc["tv_distance"] <= TV_BOUND:
        errs.append(f"tv_distance {doc['tv_distance']} > {TV_BOUND}")
    return errs


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: Callable[[int], list]
    check: Callable[[dict], list]


def _cli_seed(seed: int) -> int:
    # spread benchmark seeds so neighbouring seeds share no CLI streams
    # (compare uses seed, seed + 1 and seed + 7 internally)
    return random.Random(seed).getrandbits(31)


WORKLOADS = {w.name: w for w in (
    Workload("spectrum-pbessel",
             lambda seed: ["spectrum", "--zoo", "perturbed_bessel",
                           "--param", "nu=-1.5", "--param", "c1=1",
                           "--k", "2", "--oracle"],
             _check_spectrum),
    Workload("compare-logistic",
             lambda seed: ["compare", "--zoo", "logistic_X_killed",
                           "--param", "mu=1", "--param", "c=1",
                           "--param", "sigma=1", "--n", str(COMPARE_N),
                           "--t-max", str(COMPARE_T_MAX),
                           "--seed", str(_cli_seed(seed))],
             _check_compare),
)}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


class Runner:
    def __init__(self, root: Path, out: Path, deadline: float):
        self.root, self.out, self.deadline = root, out, deadline
        # fixed environment: no QSDLAB_THREADS (the reports echo it), and
        # one BLAS/OpenMP thread, so an idle BLAS worker spinning on the other
        # core of a small host does not add to the noise of the timings
        self.env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                    "LANG": "C.UTF-8", "LC_ALL": "C.UTF-8",
                    "PYTHONHASHSEED": "0",
                    "PYTHONPATH": str(root / "src"),
                    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}

    def run(self, argv: list) -> Child:
        out_path, err_path = self.out / "child.out", self.out / "child.err"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.root,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe)
            # block until the child exits (no polling while it is timed); a
            # timer kills it at the run deadline
            overran = threading.Event()

            def overrun():
                overran.set()
                proc.kill()

            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    overrun)
            timer.start()
            try:
                # WNOWAIT leaves the child unreaped, so the timer can never
                # signal a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - t0
            except BaseException:
                proc.kill()
                raise
            finally:
                timer.cancel()
                timer.join()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if overran.is_set():
                raise BenchError(f"child exceeded the run deadline: {argv}")
        return Child(rc=proc.returncode, wall_s=wall,
                     cpu_s=usage.ru_utime + usage.ru_stime,
                     maxrss_mb=usage.ru_maxrss / 1024.0,
                     stdout=out_path.read_bytes(), stderr=err_path.read_bytes())

    def setup(self) -> float:
        """Wall time of a fresh `import qsdlab.cli` invocation."""
        child = self.run(["-c", "import qsdlab.cli"])
        if child.rc != 0:
            raise BenchError("import qsdlab.cli failed:\n"
                             + child.stderr.decode(errors="replace"))
        return child.wall_s


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

def host_reference() -> float:
    """Median of three timings of a fixed mix of interpreted-loop and numpy
    work (about 0.1 s each).  Neighbours on a shared host slow the program
    and this code alike, by up to 1.5x for minutes at a time; dividing by
    the reference removes that from the reported times and keeps every
    change in qsdlab's own cost, since the reference is fixed code."""
    times = []
    for _ in range(3):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        x = rng.standard_normal(10_000)
        for _ in range(300):
            x = x + 0.01 * (1.0 - x * x) * x + 0.1 * rng.standard_normal(10_000)
            x = np.where(np.abs(x) < 5.0, x, 0.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# trace analysis
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.main_s": "s", "cli.trace_overhead_s": "s",
    "trace.covered_frac": "ratio",
    "spectral.eigen_shoot_s": "s", "spectral.shots": "count",
    "spectral.brent_evals": "count",
    "numerics.integrate_sl_system_s": "s", "numerics.sl_rhs_evals": "count",
    "spectral.eigen_fd_oracle_s": "s", "spectral.eigen_schrodinger_s": "s",
    "spectral.qsd_density_s": "s",
    "boundary.classify_s": "s", "boundary.classify_levels": "count",
    "montecarlo.run_ensemble_s": "s",
    "montecarlo.run_ensemble.plain_s": "s",
    "montecarlo.run_ensemble.resample_s": "s",
    "montecarlo.particle_steps": "count",
    "montecarlo.ns_per_particle_step": "ns",
    "montecarlo.live_frac": "ratio", "montecarlo.plain_live_frac": "ratio",
    "montecarlo.deaths.absorbed": "count", "montecarlo.deaths.killed": "count",
    "montecarlo.deaths.blown": "count",
    "montecarlo.dichotomy_probe_s": "s", "montecarlo.survival_curve_s": "s",
    "spectral.lambda_abs_err": "1",
}


def read_trace(path: Path) -> dict:
    spans, counters = [], {}
    if not path.exists():           # the traced child died before writing
        return {"spans": spans, "counters": counters}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counters" in rec:
                counters = rec["counters"]
            else:
                spans.append(rec)
    return {"spans": spans, "counters": counters}


def _classify_levels(doc: dict) -> int:
    integrals = doc.get("classification", {}).get("integrals", {})
    return sum(int(v.get("levels") or 0) for v in integrals.values())


def layer_metrics(trace: dict, doc: dict, workload: str) -> dict:
    spans, counters = trace["spans"], trace["counters"]
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = dict.fromkeys(by_id, 0.0)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def outer(name):
        # spans of `name` not nested in another span of the same name
        return [s for s in spans if s["name"] == name
                and all(a["name"] != name for a in ancestors(s))]

    def total(name, pred=lambda s: True):
        return sum((dur[s["id"]] for s in outer(name) if pred(s)), 0.0)

    def self_time(name):
        return sum((dur[s["id"]] - child_time[s["id"]]
                    for s in spans if s["name"] == name), 0.0)

    main_s = total("cli.main")
    steps = counters.get("montecarlo.particle_steps", 0)
    plain_steps = counters.get("montecarlo.plain.particle_steps", 0)
    ens_s = total("montecarlo.run_ensemble")
    lam_err = 0.0
    if workload == "spectrum-pbessel":
        lam_err = max(abs(a - b) for a, b in
                      zip(doc["spectrum"]["eigenvalues"], PBESSEL_EIGENVALUES))
    return {
        "cli.import_s": total("cli.import"),
        "cli.main_s": main_s,
        "trace.covered_frac": 1.0 - self_time("cli.main") / main_s,
        "spectral.eigen_shoot_s": total("spectral.eigen_shoot"),
        "spectral.shots": counters.get("spectral.shots", 0),
        "spectral.brent_evals": counters.get("spectral.brent_evals", 0),
        "numerics.integrate_sl_system_s": total("numerics.integrate_sl_system"),
        "numerics.sl_rhs_evals": counters.get("numerics.sl_rhs_evals", 0),
        "spectral.eigen_fd_oracle_s": total("spectral.eigen_fd_oracle"),
        "spectral.eigen_schrodinger_s": total("spectral.eigen_schrodinger"),
        "spectral.qsd_density_s": total("spectral.qsd_density"),
        "boundary.classify_s": total("boundary.classify"),
        "boundary.classify_levels": _classify_levels(doc),
        "montecarlo.run_ensemble_s": ens_s,
        "montecarlo.run_ensemble.plain_s": total(
            "montecarlo.run_ensemble", lambda s: s["tags"]["mode"] == "plain"),
        "montecarlo.run_ensemble.resample_s": total(
            "montecarlo.run_ensemble", lambda s: s["tags"]["mode"] == "resample"),
        "montecarlo.particle_steps": steps,
        "montecarlo.ns_per_particle_step": 1e9 * ens_s / steps if steps else 0.0,
        "montecarlo.live_frac":
            counters["montecarlo.live_particle_steps"] / steps if steps else 0.0,
        "montecarlo.plain_live_frac":
            counters["montecarlo.plain.live_particle_steps"] / plain_steps
            if plain_steps else 0.0,
        "montecarlo.deaths.absorbed": counters.get("montecarlo.deaths.absorbed", 0),
        "montecarlo.deaths.killed": counters.get("montecarlo.deaths.killed", 0),
        "montecarlo.deaths.blown": counters.get("montecarlo.deaths.blown", 0),
        "montecarlo.dichotomy_probe_s": self_time("montecarlo.dichotomy_probe"),
        "montecarlo.survival_curve_s": total("montecarlo.survival_curve"),
        "spectral.lambda_abs_err": lam_err,
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, trace: bool,
        root: Path) -> dict:
    start = time.monotonic()
    out = root / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, out, start + RUN_DEADLINE_S)

    cli_argv = ["-m", "qsdlab.cli", "--diagnostic", str(out / "diagnostic.json")]
    cli_argv += workload.cli_args(seed)
    attempted = failed = 0
    first_stdout = None
    walls, rss, layers, refs, setup = [], [], [], [], []
    t0 = time.monotonic()
    while True:
        traced_child = None
        # set-up and reference are sampled in every round, so that each
        # median spans the whole run, not the host's state at its start
        refs.append(host_reference())
        setup.append(runner.setup())
        plain = runner.run(cli_argv)
        children = [(plain, None)]
        if trace:
            spans_path = out / f"spans-{len(walls)}.jsonl"
            spans_path.unlink(missing_ok=True)
            tr_argv = [str(root / "perfbench" / "traced_cli.py"),
                       "--spans", str(spans_path),
                       "--invocation", f"{workload.name}/{seed}/{len(walls)}"]
            traced_child = runner.run(tr_argv + ["--"] + cli_argv[2:])
            children.append((traced_child, read_trace(spans_path)))
        for child, tr in children:
            attempted += 1
            errs = []
            if child.rc != 0:
                errs.append(f"exit code {child.rc}: "
                            + child.stderr.decode(errors="replace")[-2000:])
            else:
                if first_stdout is None:
                    first_stdout = child.stdout
                elif child.stdout != first_stdout:
                    errs.append("stdout differs from the first invocation at this seed")
                try:
                    doc = json.loads(child.stdout)
                    errs += workload.check(doc)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    errs.append(f"unreadable report: {exc!r}")
                if not errs and tr is not None:
                    layers.append(layer_metrics(tr, doc, workload.name))
            if errs:
                failed += 1
                print(f"[{workload.name}] FAILED: " + "; ".join(errs), file=sys.stderr)
        walls.append(plain.wall_s)
        rss.append(plain.maxrss_mb)
        print(f"[{workload.name}] wall {plain.wall_s:.3f} s cpu {plain.cpu_s:.3f} s"
              + (f", traced {traced_child.wall_s:.3f} s" if traced_child else ""),
              file=sys.stderr)
        elapsed = time.monotonic() - t0
        per_round = elapsed / len(walls)
        if attempted >= MIN_REPEATS and elapsed + per_round > seconds:
            break

    while len(setup) < SETUP_REPEATS:
        setup.append(runner.setup())
    refs.append(host_reference())
    speed_factor = statistics.median(refs) / REF_NOMINAL_S
    setup_s = statistics.median(setup)
    wall_s = statistics.median(walls)
    print(f"[{workload.name}] raw wall {wall_s:.3f} s, raw setup {setup_s:.3f} s, "
          f"speed factor {speed_factor:.3f}", file=sys.stderr)
    if not trace:
        metrics = {"wall_s": (wall_s / speed_factor, "s"),
                   "setup_s": (setup_s / speed_factor, "s"),
                   "peak_rss_mb": (statistics.median(rss), "MB")}
    else:
        metrics = {"host.speed_factor": (speed_factor, "ratio"),
                   "host.raw_wall_s": (wall_s, "s"),
                   "host.raw_setup_s": (setup_s, "s")}
        for name, unit in PER_LAYER_UNITS.items():
            if name == "cli.trace_overhead_s":
                continue
            vals = [m[name] for m in layers]
            value = statistics.median(vals) if vals else 0
            if unit == "count":
                value = int(value)
            metrics[name] = (value, unit)
        metrics["cli.trace_overhead_s"] = (
            metrics["cli.main_s"][0] - (wall_s - setup_s), "s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qsdlab CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qsdlab" / "cli.py").is_file():
        print("perfbench: no qsdlab sources under ./src; run from the root "
              "of a qsdlab checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an interrupt, so the running child is killed and
    # reaped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
