"""Driver-level tests: every subcommand exercised in-process through main().

argparse, the handlers and the report serialization are all importable, so
the assertions can freeze exit codes, whole documents and CSV bytes.  Two
kinds of test start processes: `compare` forks a child for every stage but
its probe, `spectrum --oracle` one for its oracle, and the tests of those
children watch them from this process; and what a fresh
interpreter loads or warns about (the start-up test at the end, and
`compare` under `-W error`) can only be seen in a subprocess.
"""
import dataclasses
import json
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import qsdlab
import qsdlab.cli
import qsdlab.montecarlo
import qsdlab.spectral
from qsdlab.cli import main
from qsdlab.model import CONVENTION_NOTE, reduce_unit_diffusion
from qsdlab.montecarlo import (SimConfig, dichotomy_probe, histogram_masses,
                               tv_distance)
from qsdlab.numerics import QsdlabError, TabulatedAntiderivative
from qsdlab.spectral import eigen_schrodinger, qsd_density
from qsdlab.zoo import zoo_build

LOGISTIC = ["--param", "mu=1", "--param", "c=1", "--param", "sigma=1"]


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out else None)


# ------------------------------------------------------------- listing

def test_zoo_lists_model_families(capsys):
    rc, doc = run_cli(capsys, ["zoo"])
    assert rc == 0
    assert sorted(doc["models"]) == ["bessel", "generalized_feller",
                                     "logistic_N", "logistic_X_killed",
                                     "perturbed_bessel", "population_N"]
    for entry in doc["models"].values():
        assert entry["doc"]
        assert isinstance(entry["params"], dict)


# ------------------------------------------------------------- classify

def test_classify_report(capsys):
    rc, doc = run_cli(capsys, ["classify", "--zoo", "bessel",
                               "--param", "nu=-1.5"])
    assert rc == 0
    cls = doc["classification"]
    assert cls["left"]["kind"] == "Exit"
    assert cls["right"]["kind"] == "Natural"
    assert cls["absorption_certain"] is True
    assert doc["convention"] == CONVENTION_NOTE
    assert doc["settings"] == {"tol": 1e-9, "qsdlab": qsdlab.__version__,
                               "numpy": np.__version__}
    assert doc["model"]["params"] == {"nu": -1.5}
    assert doc["model"]["domain"] == [0.0, "inf"]
    assert doc["reduced"] is False


def test_classify_reduces_first(capsys):
    rc, doc = run_cli(capsys, ["classify", "--zoo", "population_N",
                               "--param", "mu=1", "--param", "c=1",
                               "--param", "sigma=1", "--param", "gamma=1"])
    assert rc == 0
    assert doc["reduced"] is True
    # the reduced domain reaches infinity; the report must still be JSON
    assert doc["reduced_domain"] == [0.0, "inf"]
    assert doc["classification"]["left"]["kind"] == "Exit"
    assert doc["classification"]["right"]["kind"] == "Entrance"


def test_classify_custom_model_from_file(tmp_path, capsys):
    path = tmp_path / "ou.json"
    path.write_text(json.dumps({"name": "custom", "drift_expr": "-x",
                                "domain": ["-inf", "inf"], "x_ref": 0.0}))
    rc, doc = run_cli(capsys, ["classify", "--model-json", str(path)])
    assert rc == 0
    assert doc["model"]["name"] == "custom"
    assert doc["model"]["killed"] is False
    assert doc["classification"]["left"]["kind"] == "Natural"
    assert doc["classification"]["right"]["kind"] == "Natural"
    assert doc["classification"]["absorption_certain"] is None


# ------------------------------------------------------------- spectrum

def test_spectrum_auto_uses_schrodinger_on_the_line(capsys):
    rc, doc = run_cli(capsys, ["spectrum", "--zoo", "logistic_X_killed",
                               *LOGISTIC, "--grid-size", "3000"])
    assert rc == 0
    assert doc["settings"]["method"] == "schrodinger"
    ev = doc["spectrum"]["eigenvalues"]
    assert len(ev) == 2                       # default k on the full line
    assert ev[0] == pytest.approx(1.3785477, rel=1e-6)
    assert doc["gap"] == pytest.approx(1.8976, rel=1e-3)


def test_spectrum_k1_on_the_line_gives_one_eigenvalue(capsys):
    # --k 1 used to be raised to 2 on the Schrodinger route
    rc, doc = run_cli(capsys, ["spectrum", "--zoo", "logistic_X_killed",
                               *LOGISTIC, "--k", "1"])
    assert rc == 0
    assert doc["settings"]["method"] == "schrodinger"
    assert doc["settings"]["k"] == 1
    ev = doc["spectrum"]["eigenvalues"]
    assert len(ev) == 1
    assert ev[0] == pytest.approx(1.3785477, rel=1e-6)
    assert doc["gap"] is None


def test_spectrum_shoot_with_oracle_crosscheck(capsys):
    rc, doc = run_cli(capsys, ["spectrum", "--zoo", "perturbed_bessel",
                               "--param", "nu=-1", "--param", "c0=0.5",
                               "--param", "c1=0.5", "--oracle"])
    assert rc == 0
    assert doc["settings"]["method"] == "shoot"
    lam0 = doc["spectrum"]["eigenvalues"][0]
    assert lam0 == pytest.approx(1.7408585, rel=1e-5)
    assert doc["oracle"]["agrees_rel"] is True
    assert doc["oracle"]["max_difference"] <= 1e-4 * (1.0 + lam0)


def test_spectrum_oracle_on_the_whole_line(capsys):
    # FE picks its own window; the Schrodinger window spans ~260 decades of
    # rho, which FE refuses
    rc, doc = run_cli(capsys, ["spectrum", "--zoo", "logistic_X_killed",
                               "--param", "mu=1", "--param", "c=1",
                               "--param", "sigma=1", "--oracle"])
    assert rc == 0
    assert doc["settings"]["method"] == "schrodinger"
    assert doc["oracle"]["agrees_rel"] is True


def test_spectrum_k2_arithmetic_progression(capsys):
    rc, doc = run_cli(capsys, ["spectrum", "--zoo", "perturbed_bessel",
                               "--param", "nu=-1.5", "--param", "c1=1",
                               "--k", "2"])
    assert rc == 0
    np.testing.assert_allclose(doc["spectrum"]["eigenvalues"], [3.0, 5.0],
                               atol=1e-5)
    assert doc["gap"] == pytest.approx(2.0, abs=1e-5)


# ------------------------------------------------------------- qsd

def test_qsd_csv_output(tmp_path, capsys):
    csv = tmp_path / "density.csv"
    rc, doc = run_cli(capsys, ["qsd", "--zoo", "perturbed_bessel",
                               "--param", "nu=-1.5", "--param", "c1=1",
                               "--csv", str(csv), "--points", "250"])
    assert rc == 0
    assert doc["lambda0"] == pytest.approx(3.0, abs=1e-6)
    assert doc["Z"] == pytest.approx(1.0111481164237088, rel=1e-9)
    assert doc["tail_mass"] < 1e-12
    assert doc["csv"] == str(csv)
    assert "x" not in doc and "density" not in doc

    raw = csv.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 251
    xs, ys = np.loadtxt(str(csv), delimiter=",", skiprows=1, unpack=True)
    assert np.all(ys >= 0.0)
    # the printed table is itself a normalized density
    assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("argv", [
    ["qsd"], ["spectrum", "--k", "2", "--oracle"],
    ["compare", "--n", "2000", "--t-max", "3", "--seed", "5"],
], ids=["qsd", "spectrum-oracle", "compare"])
def test_a_model_file_builds_one_log_rho_table(argv, tmp_path, monkeypatch,
                                               capsys):
    # the model owns its log-rho table, so classification, shooting, the
    # oracle and the density all read the one table its first use built.
    # With os.fork removed every stage runs in this process, where the
    # builds can be counted (a forked child builds its own copy)
    monkeypatch.delattr(os, "fork")
    built = []
    init = TabulatedAntiderivative.__init__
    monkeypatch.setattr(TabulatedAntiderivative, "__init__",
                        lambda self, *a, **kw: built.append(a)
                        or init(self, *a, **kw))
    path = tmp_path / "pull.json"
    path.write_text(json.dumps(dict(PULL, drift_expr="-1 - 1/(2*x)")))
    rc, _ = run_cli(capsys, [argv[0], "--model-json", str(path), *argv[1:]])
    assert rc == 0
    assert len(built) == 1


# ------------------------------------------------------------- simulate

def test_simulate_is_deterministic(tmp_path, capsys):
    h1, h2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
    argv = ["simulate", "--zoo", "bessel", "--param", "nu=-1.5",
            "--n", "400", "--dt", "0.01", "--t-max", "0.5", "--seed", "7",
            "--record", "0.25", "0.5", "--csv-hist"]
    rc1, d1 = run_cli(capsys, argv + [str(h1)])
    rc2, d2 = run_cli(capsys, argv + [str(h2)])
    assert rc1 == rc2 == 0
    d1.pop("csv_hist"), d2.pop("csv_hist")
    assert d1 == d2
    assert h1.read_bytes() == h2.read_bytes()

    res = d1["result"]
    assert res["n_survivors"] == 169
    assert res["n_absorbed"] == 231
    assert res["n_killed"] == 0
    assert res["recorded_times"] == [0.25, 0.5]
    assert res["n_alive"] == [309, 169]
    assert d1["settings"]["x0"] == 1.0        # defaulted to x_ref


def test_simulate_maps_x0_into_the_reduced_coordinate(capsys):
    rc, doc = run_cli(capsys, ["simulate", "--zoo", "population_N",
                               "--param", "mu=1", "--param", "c=1",
                               "--param", "sigma=1", "--param", "gamma=1",
                               "--x0", "2.0", "--n", "50", "--dt", "0.01",
                               "--t-max", "0.1", "--seed", "3"])
    assert rc == 0
    assert doc["reduced"] is True
    m = zoo_build("population_N", {"mu": 1, "c": 1, "sigma": 1, "gamma": 1})
    _, tr = reduce_unit_diffusion(m)
    assert doc["settings"]["x0"] == pytest.approx(float(tr.forward(2.0)),
                                                  rel=1e-12)


def test_no_bridge_misses_crossings_between_steps(capsys):
    # Brownian motion absorbed at 0 (bessel nu = -1/2) from 0.5, in four
    # steps of 0.25: P(absorbed by t = 1) = 2 (1 - Phi(0.5)) = 0.617, and a
    # path that dips below 0 and back within a step is caught only by the
    # bridge, so without it markedly fewer absorptions register
    n = 4000
    argv = ["simulate", "--zoo", "bessel", "--param", "nu=-0.5", "--x0",
            "0.5", "--n", str(n), "--dt", "0.25", "--t-max", "1",
            "--seed", "5"]
    rc1, bridged = run_cli(capsys, argv)
    rc2, plain = run_cli(capsys, argv + ["--no-bridge"])
    assert rc1 == rc2 == 0
    assert bridged["settings"]["bridge"] is True
    assert plain["settings"]["bridge"] is False
    a, b = bridged["result"]["n_absorbed"], plain["result"]["n_absorbed"]
    se = math.sqrt(a * (n - a) / n + b * (n - b) / n)
    assert a - b >= 10.0 * se


def test_simulate_fits_the_survival_rate(capsys):
    rc, doc = run_cli(capsys, ["simulate", "--zoo", "logistic_X_killed",
                               *LOGISTIC, "--n", "2000", "--dt", "0.01",
                               "--t-max", "2", "--seed", "9",
                               "--fit-survival"])
    assert rc == 0
    fit = doc["survival"]
    assert fit["rate_ci"][0] < fit["rate"] < fit["rate_ci"][1]
    # the bootstrap band brackets the true decay rate of this model
    assert fit["rate_ci"][0] < 1.3785477 < fit["rate_ci"][1]
    assert fit["r_squared"] > 0.99


# ------------------------------------------------------------- compare

def test_compare_outward_push_degrades_to_dichotomy(tmp_path, capsys):
    path = tmp_path / "push.json"
    path.write_text(json.dumps({"name": "custom", "drift_expr": "1",
                                "domain": [0.0, "inf"], "x_ref": 1.0}))
    rc, doc = run_cli(capsys, ["compare", "--model-json", str(path),
                               "--n", "6000", "--dt", "0.01",
                               "--t-max", "24", "--seed", "11"])
    assert rc == 0
    assert doc["positivity"]["A"] == "inf"
    assert doc["positivity"]["positive"] is False
    assert doc["dichotomy"]["verdict"] == "Escapes"
    assert doc["mode"] == "dichotomy-only"
    assert doc["tv_distance"] is None
    assert "spectrum" not in doc              # no eigenproblem was attempted


def test_compare_full_mode_with_a_constant_pull(capsys):
    # a constant pull c0 at infinity: the tail product reaches its sup
    # 1/(4 c0^2) only in the limit, and that certificate is enough
    rc, doc = run_cli(capsys, ["compare", "--zoo", "perturbed_bessel",
                               "--param", "nu=-1.5", "--param", "c0=1",
                               "--n", "4000", "--t-max", "3", "--seed", "3"])
    assert rc == 0
    assert doc["positivity"]["positive"] is True
    assert doc["positivity"]["argmax"] is None
    assert doc["mode"] == "full"


def test_compare_full_mode_on_killed_logistic(capsys):
    rc, doc = run_cli(capsys, ["compare", "--zoo", "logistic_X_killed",
                               *LOGISTIC, "--n", "6000", "--dt", "5e-3",
                               "--t-max", "8", "--seed", "11"])
    assert rc == 0
    assert doc["mode"] == "full"
    assert doc["dichotomy"]["verdict"] == "Converges"
    assert doc["spectrum"]["method"] == "schrodinger"
    assert doc["spectrum"]["eigenvalues"][0] == pytest.approx(1.3785477,
                                                              rel=1e-5)
    assert doc["gap"] > 1.5
    assert "survival" in doc
    assert 0.0 < doc["tv_distance"] < 0.1


def test_compare_takes_the_tv_sample_from_the_probe(tmp_path, monkeypatch,
                                                   capsys):
    # the plain run happens in a forked child, where appending to a list
    # would not reach this process: both processes append to one file
    log = tmp_path / "modes.txt"

    def counting(run):
        def wrapped(model, x0, config, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{config.resample}\n")
            return run(model, x0, config, *args, **kwargs)
        return wrapped
    for mod in (qsdlab.montecarlo, qsdlab.cli):
        monkeypatch.setattr(mod, "run_ensemble", counting(mod.run_ensemble))
    rc, doc = run_cli(capsys, ["compare", "--zoo", "logistic_X_killed",
                               *LOGISTIC, "--n", "3000", "--dt", "0.01",
                               "--t-max", "4", "--seed", "5", "--bins", "30"])
    assert rc == 0
    assert doc["mode"] == "full"
    modes = [line == "True" for line in log.read_text().split()]
    assert sorted(modes) == [False, True]     # the probe and the plain run

    m = zoo_build("logistic_X_killed", {"mu": 1, "c": 1, "sigma": 1})
    pos = dichotomy_probe(m, 0.0, SimConfig(dt=0.01, n=3000, t_max=4.0,
                                            seed=5)).final_positions
    dens = qsd_density(eigen_schrodinger(m, K=2, grid_size=6000))
    lo = max(dens.support[0], float(np.quantile(pos, 1e-4)))
    hi = min(dens.support[1], float(np.quantile(pos, 1 - 1e-4)))
    edges = np.linspace(lo, hi, 31)
    assert doc["tv_distance"] == tv_distance(histogram_masses(pos, edges),
                                             dens.bin_masses(edges))


def test_compare_maps_x0_into_the_reduced_coordinate(monkeypatch, capsys):
    starts = []

    def spy(model, x0, config, **kwargs):
        starts.append(x0)
        return dichotomy_probe(model, x0, config, **kwargs)
    monkeypatch.setattr(qsdlab.cli, "dichotomy_probe", spy)
    rc, doc = run_cli(capsys, ["compare", "--zoo", "population_N",
                               "--param", "mu=1", "--param", "c=1",
                               "--param", "sigma=1", "--param", "gamma=1",
                               "--x0", "2", "--n", "300", "--dt", "0.01",
                               "--t-max", "1", "--seed", "3"])
    assert rc == 0
    m = zoo_build("population_N", {"mu": 1, "c": 1, "sigma": 1, "gamma": 1})
    _, tr = reduce_unit_diffusion(m)
    assert starts == [pytest.approx(float(tr.forward(2.0)), rel=1e-12)]
    assert doc["settings"]["x0"] == starts[0]


# ------------------------------------------------------------- the forked children

@pytest.fixture
def forks(monkeypatch):
    """The pids of the children `os.fork` started in this process."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_no_child_left():
    # a child still running or not yet reaped would be returned here
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


PULL = {"name": "custom", "drift_expr": "-1", "domain": [0.0, "inf"],
        "x_ref": 1.0}
PB15 = ["--zoo", "perturbed_bessel", "--param", "nu=-1.5", "--param", "c1=1"]
SMALL = ["--n", "1000", "--dt", "0.01", "--t-max", "2", "--seed", "3"]


@pytest.mark.parametrize("argv", [
    ["compare", "--zoo", "logistic_X_killed", *LOGISTIC, "--n", "2000",
     "--dt", "0.01", "--t-max", "4", "--seed", "5"],
    # fewer than 100 paths, so the survival fit fails: its message comes
    # back from the child as a value, and the report keeps it
    ["compare", "--zoo", "population_N", "--param", "mu=1", "--param", "c=1",
     "--param", "sigma=1", "--param", "gamma=1", "--x0", "2", "--n", "90",
     "--dt", "0.01", "--t-max", "1", "--seed", "3"],
    # an expression model with an absorbing end, so the bridge runs
    ["compare", "--model-json", "{json}", "--n", "1000", "--dt", "0.01",
     "--t-max", "3", "--seed", "3"],
    # the FE oracle on the widest truncation of the default ladder
    ["spectrum", *PB15, "--k", "2", "--oracle"],
    ["spectrum", *PB15, "--k", "2", "--truncation", "5", "6", "7", "--oracle"],
    # the Schrodinger route, whose oracle picks its own window
    ["spectrum", "--zoo", "logistic_X_killed", *LOGISTIC, "--k", "3",
     "--oracle"],
], ids=["compare-logistic_X_killed", "compare-population_N",
        "compare-model-json", "spectrum-pb15", "spectrum-pb15-truncation",
        "spectrum-logistic_X_killed"])
def test_report_is_the_same_forked_and_in_process(
        argv, tmp_path, monkeypatch, forks, capsys):
    path = tmp_path / "pull.json"
    path.write_text(json.dumps(PULL))
    argv = [str(path) if a == "{json}" else a for a in argv]
    forked = main(argv), capsys.readouterr().out
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    in_process = main(argv), capsys.readouterr().out
    forked_child = "survival" if argv[0] == "compare" else "oracle"
    assert forked[0] == 0 and forked_child in json.loads(forked[1])
    assert forked == in_process


def _raise_probe_error(*args, **kwargs):
    raise QsdlabError("probe failed")


def _escaping_probe(model, x0, config, **kwargs):
    verdict = dichotomy_probe(model, x0, config, **kwargs)
    return dataclasses.replace(verdict, verdict="Escapes")


def _raising(message):
    def raise_it(*args, **kwargs):
        raise QsdlabError(message)
    return raise_it


COMPARE_LXK = ["compare", "--zoo", "logistic_X_killed", *LOGISTIC, *SMALL]


@pytest.mark.parametrize("argv, patches, rc", [
    (COMPARE_LXK, (), 0),
    # positivity fails in the child, so it runs neither the plain ensemble
    # nor the spectral solve
    (["compare", "--model-json", "{json}", *SMALL], (), 0),
    # an escaping probe ends the report after the dichotomy
    (COMPARE_LXK, (("dichotomy_probe", _escaping_probe),), 0),
    # qsd_density fails after the child's result was read
    (["compare", "--zoo", "logistic_N", *LOGISTIC, *SMALL], (), 3),
    (COMPARE_LXK, (("dichotomy_probe", _raise_probe_error),), 3),
    # the child's first stage fails, so the report holds no stage
    (COMPARE_LXK, (("classify", _raising("classification failed")),), 3),
    # the child's solve fails, but the escaping probe ends the report first
    (COMPARE_LXK, (("dichotomy_probe", _escaping_probe),
                   ("eigen_schrodinger", _raising("solve failed"))), 0),
    # the child's solve fails, and its error is raised where it is read
    (COMPARE_LXK, (("eigen_schrodinger", _raising("solve failed")),), 3),
    # the parent's solve fails while the oracle's child runs
    (["spectrum", *PB15, "--k", "2", "--oracle"],
     (("eigen_shoot", _raising("shooting failed")),), 3),
    # the child's oracle fails, and its error is raised where it is read
    (["spectrum", *PB15, "--k", "2", "--oracle"],
     (("eigen_fd_oracle", _raising("oracle failed")),), 3),
], ids=["full", "outward-push", "escapes", "qsd-density-fails",
        "probe-raises", "classification-raises", "escapes-solve-raises",
        "solve-raises", "shooting-fails", "oracle-fails"])
def test_compare_leaves_no_child_behind(argv, patches, rc, tmp_path,
                                        monkeypatch, forks, capsys):
    path = tmp_path / "push.json"
    path.write_text(json.dumps({"name": "custom", "drift_expr": "1",
                                "domain": [0.0, "inf"], "x_ref": 1.0}))
    for patch in patches:
        monkeypatch.setattr(qsdlab.cli, *patch)
    argv = [str(path) if a == "{json}" else a for a in argv]
    runs = []
    for forked in (True, False):
        if not forked:
            monkeypatch.delattr(os, "fork")
        diag = tmp_path / f"diag-{forked}.json"
        got = main(["--diagnostic", str(diag), *argv])
        captured = capsys.readouterr()
        runs.append((got, captured.out, captured.err,
                     diag.read_text() if diag.exists() else None))
    assert runs[0][0] == rc
    assert len(forks) == 1
    assert_no_child_left()
    # the report, rc, stderr and diagnostic.json are those of the
    # in-process run
    assert runs[0] == runs[1]


def test_a_spectral_error_after_an_escapes_verdict_never_surfaces(
        monkeypatch, capsys):
    monkeypatch.setattr(qsdlab.cli, "dichotomy_probe", _escaping_probe)
    monkeypatch.setattr(qsdlab.cli, "eigen_schrodinger",
                        _raising("solve failed"))
    rc, doc = run_cli(capsys, COMPARE_LXK)
    assert rc == 0
    assert doc["mode"] == "dichotomy-only" and doc["tv_distance"] is None
    assert not {"spectrum", "gap", "survival"} & set(doc)


def test_compare_leaves_no_child_behind_an_exception(monkeypatch, forks,
                                                     capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("not a numerical failure")
    monkeypatch.setattr(qsdlab.cli, "dichotomy_probe", broken)
    with pytest.raises(RuntimeError, match="not a numerical failure"):
        main(["compare", "--zoo", "logistic_X_killed", *LOGISTIC,
              "--n", "1000", "--dt", "0.01", "--t-max", "2"])
    assert len(forks) == 1
    assert_no_child_left()


def test_plain_run_failure_in_the_child_matches_in_process(
        tmp_path, monkeypatch, forks, capsys):
    def failing(*args, **kwargs):
        raise QsdlabError("plain run failed")
    monkeypatch.setattr(qsdlab.cli, "run_ensemble", failing)
    runs = []
    for forked in (True, False):
        if not forked:
            monkeypatch.delattr(os, "fork")
        diag = tmp_path / f"diag-{forked}.json"
        rc = main(["--diagnostic", str(diag), "compare", "--zoo",
                   "logistic_X_killed", *LOGISTIC, "--n", "1000", "--dt",
                   "0.01", "--t-max", "2", "--seed", "3"])
        captured = capsys.readouterr()
        runs.append((rc, captured.out, captured.err,
                     json.loads(diag.read_text())))
    assert len(forks) == 1
    assert runs[0] == runs[1]
    rc, out, err, saved = runs[0]
    assert rc == 3 and out == ""
    assert err == "qsdlab: numerical failure: plain run failed\n"
    assert saved["message"] == "plain run failed"
    assert {"dichotomy", "spectrum", "gap"} <= set(saved["partial"])
    assert "survival" not in saved["partial"]


# the partial report keeps the stages before the child's first one
@pytest.mark.parametrize("argv, target, child, kept, lost", [
    (COMPARE_LXK, "run_ensemble",
     "the classification, plain ensemble and spectrum", "settings",
     "classification"),
    (["spectrum", *PB15, "--k", "2", "--oracle"], "eigen_fd_oracle",
     "the FE oracle", "spectrum", "oracle"),
], ids=["compare", "spectrum-oracle"])
def test_a_child_killed_by_a_signal_exits_3_naming_it(argv, target, child,
                                                      kept, lost, tmp_path,
                                                      monkeypatch, forks,
                                                      capsys):
    parent = os.getpid()

    def killed(*args, **kwargs):
        # only ever in the child: the in-process fallback would kill pytest
        assert os.getpid() != parent
        os.kill(os.getpid(), signal.SIGKILL)
    monkeypatch.setattr(qsdlab.cli, target, killed)
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), *argv])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == (f"qsdlab: numerical failure: {child}'s "
                            f"process was killed by SIGKILL\n")
    partial = json.loads(diag.read_text())["partial"]
    assert kept in partial and lost not in partial
    assert len(forks) == 1
    assert_no_child_left()


def _run_with_warnings_as_errors(tmp_path, argv):
    # a fresh interpreter with the BLAS thread pools at their defaults, so
    # that a warning about forking a process with threads would show
    src = os.path.dirname(os.path.dirname(qsdlab.__file__))
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qsdlab.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_compare_with_warnings_as_errors_prints_nothing_to_stderr(tmp_path):
    doc = _run_with_warnings_as_errors(
        tmp_path, COMPARE_LXK)
    assert doc["mode"] == "full"


def test_spectrum_oracle_with_warnings_as_errors_prints_nothing_to_stderr(
        tmp_path):
    doc = _run_with_warnings_as_errors(
        tmp_path, ["spectrum", *PB15, "--k", "2", "--oracle"])
    assert doc["oracle"]["agrees_rel"] is True


# ------------------------------------------------------------- failure modes

def test_numerical_failure_exits_3_with_diagnostic(tmp_path, capsys):
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "spectrum", "--zoo", "bessel",
               "--param", "nu=-1.5", "--method", "schrodinger"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "numerical failure" in captured.err
    saved = json.loads(diag.read_text())
    assert saved["command"] == "spectrum"
    assert saved["error"] == "QsdlabError"
    assert "whole line" in saved["message"]
    assert "settings" in saved
    assert saved["partial"]["model"]["name"] == "bessel"
    assert "spectrum" not in saved["partial"]


def test_non_integrable_speed_on_the_line_exits_3(tmp_path, capsys):
    # drift x on the line: rho = e^{x^2}, no quasistationary regime
    path = tmp_path / "outward.json"
    path.write_text(json.dumps({"name": "custom", "drift_expr": "x",
                                "killing_expr": "1",
                                "domain": ["-inf", "inf"]}))
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "spectrum", "--model-json",
               str(path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "speed density not integrable" in json.loads(
        diag.read_text())["message"]


def test_root_finding_failure_exits_3_with_diagnostic(tmp_path, capsys,
                                                     monkeypatch):
    # cap the polish of each eigenvalue at one zeroin step: the root finder's
    # non-convergence must surface as a numerical failure, not a traceback
    brent_root = qsdlab.spectral.brent_root
    monkeypatch.setattr(qsdlab.spectral, "brent_root",
                        lambda f, bracket, tol: brent_root(f, bracket, tol,
                                                           maxiter=1))
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "spectrum", "--zoo",
               "perturbed_bessel", "--param", "nu=-1.5", "--param", "c1=1"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    saved = json.loads(diag.read_text())
    assert saved["error"] == "QsdlabError"
    assert "did not converge in 1 iterations; last x = " in saved["message"]
    assert saved["partial"]["model"]["name"] == "perturbed_bessel"


def test_compare_failure_keeps_the_partial_report(tmp_path, capsys):
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "compare", "--zoo", "logistic_N",
               *LOGISTIC, "--n", "500", "--dt", "0.01", "--t-max", "2"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    saved = json.loads(diag.read_text())
    assert "tail mass" in saved["message"]
    partial = saved["partial"]
    assert partial["dichotomy"]["verdict"] in {"Converges", "Undecided"}
    assert {"classification", "spectrum", "settings"} <= set(partial)
    assert "tv_distance" not in partial       # qsd_density was the failing stage


def test_compare_sample_outside_the_qsd_support_exits_3(tmp_path, capsys):
    # started at 50 and run to t = 0.02, the probe's sample never reaches
    # the QSD's window, so the TV histogram has no bins: this used to end
    # in numpy's "bins must increase monotonically" traceback (exit 1)
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "compare", *PB15, "--x0", "50",
               "--n", "500", "--t-max", "0.02", "--dt", "0.001",
               "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    saved = json.loads(diag.read_text())
    assert saved["message"] == (
        "the probe's sample (its 1e-4 to 1 - 1e-4 quantiles, [48.5656, "
        "49.5793]) does not overlap the QSD support [3.75e-09, 7.54703]")
    assert captured.err == f"qsdlab: numerical failure: {saved['message']}\n"
    assert {"dichotomy", "spectrum", "survival"} <= set(saved["partial"])
    assert "tv_distance" not in saved["partial"]


def test_non_finite_x0_exits_3(tmp_path, capsys):
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "simulate", "--zoo",
               "logistic_X_killed", *LOGISTIC, "--x0", "nan", "--n", "50",
               "--dt", "0.01", "--t-max", "0.1"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert json.loads(diag.read_text())["message"] == (
        "initial positions must be finite")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_killing_rate_exits_3(tmp_path, capsys):
    # the rate is NaN past x = 20, which the drift carries the mean to by
    # t = 19; a NaN clock never fires, so 102 of 200 particles used to run
    # on past x = 20 unkilled, and the run exited 0
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "custom", "drift_expr": "1",
                                "killing_expr": "0.01*sqrt(20-x)",
                                "domain": [0.0, "inf"]}))
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "simulate", "--model-json",
               str(path), "--n", "200", "--t-max", "40", "--dt", "0.01",
               "--seed", "1"])
    assert rc == 3 and capsys.readouterr().out == ""
    saved = json.loads(diag.read_text())
    assert saved["error"] == "QsdlabError"
    assert saved["message"].startswith(
        "non-finite killing rate nan read by a live particle at x = 20.")


def test_nan_drift_exits_3(tmp_path, capsys, recwarn):
    # the drift is NaN past x = 20; a NaN proposal crosses no end and is no
    # blow-up, so 190 of 200 particles used to run on at NaN, and the run
    # exited 0 with a RuntimeWarning
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "custom", "drift_expr": "0.3*sqrt(20-x)",
                                "domain": [0.0, "inf"]}))
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "simulate", "--model-json",
               str(path), "--n", "200", "--t-max", "40", "--dt", "0.01",
               "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert "RuntimeWarning" not in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    saved = json.loads(diag.read_text())
    assert saved["error"] == "QsdlabError"
    assert saved["message"].startswith("drift reads nan at x = 20.")


@pytest.mark.parametrize("size", ["4", "5"])
def test_schrodinger_grid_below_k_exits_3(size, tmp_path, capsys):
    # the coarse mesh of grid_size // 2 cells has one interior node for K = 2
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "spectrum", "--zoo",
               "logistic_X_killed", *LOGISTIC, "--grid-size", size])
    assert rc == 3 and capsys.readouterr().out == ""
    assert json.loads(diag.read_text())["message"] == (
        f"grid_size = {size} gives the coarse mesh fewer interior nodes (1) "
        f"than K = 2; grid_size must be at least 6")


def test_unknown_zoo_name_exits_3(tmp_path, capsys):
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "classify", "--zoo", "cauchy"])
    capsys.readouterr()
    assert rc == 3
    assert json.loads(diag.read_text())["error"] == "ModelValidationError"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_expression_in_a_model_file_is_no_crash(tmp_path, capsys):
    # x^10000 overflows at every probe point; numpy rules give -inf there,
    # where Python float arithmetic raised an uncaught OverflowError
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "custom", "drift_expr": "-x^10000",
                                "domain": [0.0, "inf"]}))
    rc = main(["--diagnostic", str(tmp_path / "diag.json"), "classify",
               "--model-json", str(path)])
    capsys.readouterr()
    assert rc in (0, 3)


def test_bad_expression_in_a_model_file_exits_3(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "custom", "drift_expr": "foo(x)",
                                "domain": [0.0, "inf"]}))
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "classify",
               "--model-json", str(path)])
    assert rc == 3 and capsys.readouterr().out == ""
    found = json.loads(diag.read_text())
    assert found["error"] == "ExpressionError"
    assert "'foo(x)'" in found["message"]


def test_unknown_key_in_a_model_file_exits_3(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "custom", "drift_expr": "-x",
                                "domian": [0.0, "inf"]}))
    diag = tmp_path / "diag.json"
    rc = main(["--diagnostic", str(diag), "classify",
               "--model-json", str(path)])
    assert rc == 3 and capsys.readouterr().out == ""
    assert "'domian'" in json.loads(diag.read_text())["message"]


@pytest.mark.parametrize("content", [None, '{"name": ', "\xff"],
                         ids=["missing", "not-json", "not-utf8"])
def test_unreadable_model_file_exits_2(content, tmp_path, capsys):
    path = tmp_path / "m.json"
    if content is not None:
        path.write_bytes(content.encode("latin-1"))
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--model-json", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qsdlab: error: cannot read --model-json")
    assert captured.err.count("\n") == 1


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--zoo", "bessel", "--param", "nu=-1.5",
              "--method", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    assert "--zoo" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--zoo", "bessel", "--param", "nu"])
    assert exc.value.code == 2
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("argv, says", [
    # fd takes one truncation or a window; a third value was dropped
    (["spectrum", "--zoo", "bessel", "--param", "nu=-1.5", "--method", "fd",
      "--truncation", "5", "6", "7"], "got 3 values"),
    # the whole-line (Schrodinger) route picks its own window
    (["spectrum", "--zoo", "logistic_X_killed", *LOGISTIC,
      "--truncation", "8"], "--truncation does not apply"),
    # checked before the Monte Carlo runs, not after it
    (["compare", "--zoo", "logistic_X_killed", *LOGISTIC,
      "--truncation", "8"], "--truncation does not apply"),
    # --k 0 used to fall back to the default K
    (["spectrum", "--zoo", "bessel", "--param", "nu=-1.5", "--k", "0"],
     "--k must be at least 1"),
    # shooting has no grid; the flag used to be ignored
    (["spectrum", "--zoo", "perturbed_bessel", "--param", "nu=-1.5",
      "--param", "c1=1", "--grid-size", "10"],
     "--grid-size does not apply to the shooting route"),
    # the FE route has no second route to check; the flag used to be ignored
    (["spectrum", *PB15, "--method", "fd", "--oracle"],
     "--oracle does not apply to the FE route"),
    (["classify"], "specify a model with --zoo NAME or --model-json FILE"),
    (["classify", "--zoo", "bessel", "--param", "nu"], "needs key=value"),
    (["classify", "--zoo", "bessel", "--param", "nu=x"],
     "--param nu needs a number, got 'x'"),
    # run_ensemble used to clamp these into [dt, t_max]
    (["simulate", "--zoo", "bessel", "--param", "nu=-1.5", "--t-max", "1",
      "--dt", "0.01", "--n", "100", "--record", "0.5", "3", "-1"],
     "--record 3 is outside (0, t_max = 1]"),
    # these used to end in a traceback (exit 1) or in a silent answer
    (["qsd", "--zoo", "bessel", "--param", "nu=-1.5", "--points", "-3"],
     "--points must be at least 1, got -3"),
    (["spectrum", "--zoo", "perturbed_bessel", "--param", "nu=-1.5",
      "--param", "c1=1", "--method", "fd", "--grid-size", "2"],
     "--grid-size must be at least 4, got 2"),
    (["spectrum", "--zoo", "logistic_X_killed", *LOGISTIC, "--grid-size",
      "3"], "--grid-size must be at least 4, got 3"),
    (["compare", "--zoo", "logistic_X_killed", *LOGISTIC, "--n", "4000",
      "--t-max", "3", "--seed", "7", "--bins", "0"],
     "--bins must be at least 1, got 0"),
    (["classify", "--zoo", "bessel", "--param", "nu=-1.5", "--tol", "-1"],
     "--tol must be a positive finite number, got -1.0"),
    (["classify", "--zoo", "bessel", "--param", "nu=-1.5", "--tol", "nan"],
     "--tol must be a positive finite number, got nan"),
    # SeedSequence used to end this in a traceback (exit 1)
    (["simulate", "--zoo", "bessel", "--param", "nu=-1.5", "--seed", "-1"],
     "--seed must be at least 0, got -1"),
], ids=["fd-three-truncations", "schrodinger-truncation",
        "compare-truncation", "k-zero", "shoot-grid-size", "fd-oracle",
        "no-model",
        "param-without-value", "param-not-a-number", "record-outside-run",
        "points-negative", "fd-grid-size-2", "schrodinger-grid-size-3",
        "compare-bins-0", "tol-negative", "tol-nan", "seed-negative"])
def test_dropped_or_malformed_inputs_exit_2(argv, says, monkeypatch, capsys):
    def no_simulation(*args, **kwargs):
        raise AssertionError("the usage check must come before the probe")
    monkeypatch.setattr(qsdlab.cli, "dichotomy_probe", no_simulation)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qsdlab: error: ")
    assert captured.err.count("\n") == 1 and says in captured.err


# ------------------------------------------------------------- output plumbing

def test_out_flag_writes_the_exact_stdout_document(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["--out", str(out), "zoo"])
    assert rc == 0
    assert capsys.readouterr().out == ""
    raw = out.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    doc = json.loads(raw)
    want = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert raw.decode() == want               # sorted keys, stable layout


# ------------------------------------------------------------- start-up

# each command in turn in one fresh interpreter, by default with os.fork
# removed so that a forked child's work runs in this process, where
# sys.modules shows what it loaded
_LOAD_PROBE = """
import contextlib, io, json, os, sys
scipy_modules = lambda: sorted(m for m in sys.modules
                               if m.partition(".")[0] == "scipy")
if sys.argv[2] == "in-process":
    del os.fork
import qsdlab
after = {"qsdlab": scipy_modules()}
import qsdlab.cli
after["qsdlab.cli"] = scipy_modules()
rcs, numpy_ma, numpy_polynomial = [], [], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rcs.append(qsdlab.cli.main(argv))
    after[argv[0]] = scipy_modules()
    numpy_ma.append("numpy.ma" in sys.modules)
    numpy_polynomial.append("numpy.polynomial" in sys.modules)
print(json.dumps({"rc": rcs, "after": after, "numpy.ma": numpy_ma,
                  "numpy.polynomial": numpy_polynomial}))
"""


def _load_probe(tmp_path, commands, forked=False) -> dict:
    src = os.path.dirname(os.path.dirname(qsdlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, json.dumps(commands),
         "forked" if forked else "in-process"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout)


# the library's improper integrals (the generic reduction's anchor and
# domain end, the three integrals of the Doob transform and assumption 1's
# int s sqrt(rho)) and the series branch of log_iv
_LIBRARY_PROBE = """
import json, math, sys
from dataclasses import replace
from qsdlab import (DiffusionModel, ScalarField, assumption1_check,
                    doob_h_transform, log_iv, reduce_unit_diffusion,
                    zoo_build)
m = zoo_build("logistic_N", {"mu": 1.0, "c": 1.0, "sigma": 1.0})
red, _ = reduce_unit_diffusion(replace(m, reduction=None,
                                       log_speed_closed=None))
push = DiffusionModel(drift=ScalarField.constant(1.0),
                      domain=(0.0, math.inf), x_ref=1.0, name="push")
rep = assumption1_check(zoo_build("perturbed_bessel", {"nu": -1.5, "c1": 1}))
print(json.dumps({"reduced_domain": [str(v) for v in red.domain],
                  "doob_noop": doob_h_transform(push).noop,
                  "int_s_sqrt_rho_finite":
                      rep["details"]["int_s_sqrt_rho_finite"],
                  "log_iv_finite": math.isfinite(log_iv(1.5, 2.0)),
                  "loaded": sorted(m for m in sys.modules
                                   if m.partition(".")[0] == "scipy")}))
"""


def test_scipy_submodules_load_only_when_a_command_uses_them(tmp_path):
    # structure, not timing: a fresh interpreter, so this process's own
    # imports (scipy oracles in other tests) cannot leak into the answer.
    # Shooting polishes with the in-repo zeroin, every improper integral runs
    # the log-space level march, the FE oracle and the Schrodinger solve
    # share the in-repo tridiagonal eigensolver, log_iv sums its series with
    # math.lgamma, and the reports carry no scipy version, so no import, no
    # command and no library call loads any scipy module at all
    commands = [["zoo"],
                ["classify", "--zoo", "logistic_N", *LOGISTIC],
                ["spectrum", *PB15, "--k", "2", "--oracle"],
                ["spectrum", "--zoo", "logistic_X_killed", *LOGISTIC,
                 "--oracle"],
                ["qsd", *PB15, "--points", "5"],
                ["simulate", "--zoo", "bessel", "--param", "nu=-1.5",
                 "--n", "500", "--t-max", "1", "--fit-survival"],
                COMPARE_LXK]
    probe = _load_probe(tmp_path, commands)
    assert probe["rc"] == [0] * len(commands)
    assert probe["after"] == dict.fromkeys(
        ["qsdlab", "qsdlab.cli", "zoo", "classify", "spectrum", "qsd",
         "simulate", "compare"], [])
    src = os.path.dirname(os.path.dirname(qsdlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _LIBRARY_PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"reduced_domain": ["-inf", "inf"],
                                       "doob_noop": False,
                                       "int_s_sqrt_rho_finite": True,
                                       "log_iv_finite": True,
                                       "loaded": []}


def test_no_command_loads_numpy_ma(tmp_path):
    # np.unique, np.quantile, np.percentile and np.median import numpy.ma on
    # first use (numpy 2.4), so the level march, the FE mesh and the
    # tridiagonal bisection dedupe by sorting, and the probe's window, the
    # TV window and the survival CI take their quantiles from numerics.
    # With os.fork removed, compare's child stages load in this process too
    commands = [["classify", "--zoo", "logistic_N", *LOGISTIC],
                ["spectrum", *PB15, "--k", "2", "--oracle"],
                ["spectrum", "--zoo", "logistic_X_killed", *LOGISTIC, "--k",
                 "3", "--oracle"],
                ["simulate", "--zoo", "logistic_N", *LOGISTIC, "--n", "2000",
                 "--t-max", "3", "--seed", "3", "--fit-survival"],
                COMPARE_LXK]
    probe = _load_probe(tmp_path, commands)
    assert probe["rc"] == [0] * len(commands)
    assert probe["numpy.ma"] == [False] * len(commands)


def test_compares_main_process_runs_no_quadrature(tmp_path):
    # the main process runs only the probe and the TV histogram: the
    # classification and the spectral solve, whose Gauss nodes come from
    # numpy.polynomial, run in the forked child
    probe = _load_probe(tmp_path, [COMPARE_LXK], forked=True)
    assert probe["rc"] == [0]
    assert probe["numpy.ma"] == probe["numpy.polynomial"] == [False]


# ------------------------------------------------------------- host independence

def test_reports_do_not_depend_on_the_openblas_kernel(tmp_path):
    # the quadrature sums run node by node and the line fits are closed
    # forms, so no report calls BLAS or LAPACK and forcing OpenBLAS onto a
    # kernel without FMA moves no byte; where the variable has no effect
    # (another BLAS, or a host without that kernel) the runs agree trivially
    path = tmp_path / "pull.json"
    path.write_text(json.dumps(dict(PULL, drift_expr="-1 - 1/(2*x)")))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qsdlab.__file__))
    for argv in (["classify", "--zoo", "population_N", *LOGISTIC,
                  "--param", "gamma=1"],
                 ["simulate", "--zoo", "bessel", "--param", "nu=-1.5",
                  "--n", "4000", "--t-max", "3", "--seed", "3",
                  "--fit-survival"],
                 ["spectrum", "--model-json", str(path), "--k", "2",
                  "--oracle"]):
        out = [subprocess.run([sys.executable, "-m", "qsdlab.cli", *argv],
                              cwd=tmp_path, env=dict(env, **extra),
                              capture_output=True, check=True,
                              timeout=300).stdout
               for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"})]
        assert out[0] == out[1], argv
        assert json.loads(out[0])
