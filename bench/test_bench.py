"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Shortened workloads must pass every output check, every check must fail
on a corrupted copy of those outputs, the risk record must not depend on
the thread count, and the traced layer times must add up to the wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

workloads.require_program()

SHORT = {
    "qpt_adaptive": {"n_particles": 400, "n_experiments": 120},
    "risk_qutrit": {"n_particles": 300, "n_experiments": 10, "n_trials": 20},
    "track_coin": {"n_particles": 300, "n_steps": 400},
}


def short_op(name: str, out_dir: Path, seed: int = 11):
    """Config, argv and output directory of one shortened operation."""
    wl = workloads.WORKLOADS[name]
    cfg = workloads.op_config(wl, workloads.op_seed(seed, name, 0), out_dir.as_posix(),
                              SHORT[name])
    path = workloads.write_config(cfg, out_dir.parent / f"{out_dir.name}.json")
    return cfg, [wl.mode, "--config", str(path), "--out", out_dir.as_posix()]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One checked-clean output directory per shortened workload."""
    root = tmp_path_factory.mktemp("ops")
    made = {}
    for name in SHORT:
        cfg, argv = short_op(name, root / name)
        code, text = run.call_cli(argv)
        assert code == 0, text
        made[name] = (root / name, cfg)
    return made


def corrupted(outputs, tmp_path, name, edit):
    """Copy a workload's outputs, apply ``edit(record, out_dir)``, rewrite
    record.json canonically, and return the check's messages."""
    src, cfg = outputs[name]
    out = tmp_path / name
    shutil.copytree(src, out)
    record = json.loads((out / "record.json").read_text())
    edit(record, out)
    (out / "record.json").write_text(json.dumps(record, sort_keys=True, indent=2))
    return checks.CHECKS[cfg["mode"]](out, cfg, {})


def assert_flags(errors, fragment):
    assert any(fragment in e for e in errors), errors


@pytest.mark.parametrize("name", sorted(SHORT))
def test_short_workload_passes_all_checks(outputs, name):
    out, cfg = outputs[name]
    stats = {}
    assert checks.CHECKS[cfg["mode"]](out, cfg, stats) == []
    run_check = checks.RUN_CHECKS.get(cfg["mode"])
    assert run_check is None or run_check(stats) == []


@pytest.mark.parametrize("name", sorted(SHORT))
def test_non_canonical_json_fails(outputs, tmp_path, name):
    src, cfg = outputs[name]
    out = tmp_path / name
    shutil.copytree(src, out)
    record = json.loads((out / "record.json").read_text())
    unsorted = dict(reversed(list(record.items())))
    (out / "record.json").write_text(json.dumps(unsorted, indent=2))
    assert_flags(checks.CHECKS[cfg["mode"]](out, cfg, {}), "not canonical")


def _shift_truth(rec, out):
    rec["summary"]["truth"] = rec["summary"]["truth"][1:] + rec["summary"]["truth"][:1]


def _bad_ess(rec, out):
    rec["steps"][3]["ess"] = rec["config"]["n_particles"] + 1.0


def _positive_log_norm(rec, out):
    rec["steps"][2]["log_norm"] = 1e-6


def _drop_row(rec, out):
    rec["steps"].pop()


def _bad_summary_loss(rec, out):
    rec["summary"]["loss"] *= 1.01


def _row_loss(rec, out):
    rec["steps"][5]["loss"] += 1e-6


def _not_psd(rec, out):
    # Push the ZZ coordinate far out: the mean keeps unit trace and TP
    # but gets a negative eigenvalue.
    rec["summary"]["mean"][15] = 2.0


def _not_unit_trace(rec, out):
    rec["summary"]["mean"][0] *= 1.1


def _not_trace_preserving(rec, out):
    # ZI shifts the input marginal by a traceless term.
    rec["summary"]["mean"][12] += 0.05


def _no_learning(rec, out):
    first = rec["steps"][0]
    rec["summary"]["mean"] = first["est"]
    rec["summary"]["loss"] = first["loss"]


@pytest.mark.parametrize("edit, fragment", [
    (_shift_truth, "truth is not the Choi state"),
    (_bad_ess, "ESS"),
    (_positive_log_norm, "log_norm"),
    (_drop_row, "step rows"),
    (_bad_summary_loss, "summary loss"),
    (_row_loss, "loss is not |est - truth|"),
    (_not_psd, "not positive semidefinite"),
    (_not_unit_trace, "unit trace"),
    (_not_trace_preserving, "not trace preserving"),
    (_no_learning, "final loss"),
])
def test_qpt_check_catches(outputs, tmp_path, edit, fragment):
    assert_flags(corrupted(outputs, tmp_path, "qpt_adaptive", edit), fragment)


def test_qpt_run_check_wants_the_run_to_learn():
    """Nine operations with typical ratios pass even when one lags at the
    worst ratio seen (0.49); the same operations with estimates ten times
    worse fail."""
    typical = [0.004, 0.008, 0.012, 0.015, 0.018, 0.025, 0.045, 0.1, 0.49]
    assert checks.check_qpt_run({"loss_ratio": typical}) == []
    worse = [10 * r for r in typical[:-1]] + [0.9]
    assert_flags(checks.check_qpt_run({"loss_ratio": worse}), "geometric mean")


def test_track_run_check_wants_the_run_to_track():
    """Twenty operations at typical ratios pass even when one lags at the
    worst ratio seen (0.56); the same operations 30% worse fail."""
    typical = [0.28, 0.3, 0.31, 0.32, 0.33, 0.35] * 3 + [0.4, 0.56]
    assert checks.check_track_run({"mse_ratio": typical}) == []
    worse = [1.3 * r for r in typical]
    assert_flags(checks.check_track_run({"mse_ratio": worse}), "geometric mean")


def _shift_truth_column(rec, out):
    truths = [row["truth"] for row in rec["steps"]]
    for row, truth in zip(rec["steps"], truths[1:] + truths[:1]):
        row["truth"] = truth


def _estimate_out_of_range(rec, out):
    row = rec["steps"][7]
    row["est"][0] = 1.5
    row["loss"] = abs(1.5 - row["truth"][0])


def _negative_eta(rec, out):
    rec["steps"][9]["eta_mean"] = -1e-3


def _constant_estimate(rec, out):
    for row in rec["steps"]:
        row["est"][0] = 0.5
        row["loss"] = abs(0.5 - row["truth"][0])


@pytest.mark.parametrize("edit, fragment", [
    (_shift_truth_column, "two-tone"),
    (_estimate_out_of_range, "outside [0, 1]"),
    (_negative_eta, "learned eta"),
    (_constant_estimate, "tracked MSE"),
    (_bad_ess, "ESS"),
    (_bad_summary_loss, "summary loss"),
])
def test_track_check_catches(outputs, tmp_path, edit, fragment):
    assert_flags(corrupted(outputs, tmp_path, "track_coin", edit), fragment)


def _rewrite_trials(out, rec, change):
    trials = np.loadtxt(out / "trials_loss.csv", delimiter=",", ndmin=2)
    change(trials)
    np.savetxt(out / "trials_loss.csv", trials, delimiter=",")
    curve = trials.mean(axis=0)
    rec["curve"] = [float(v) for v in curve]
    np.savetxt(out / "risk_curve.csv", np.column_stack([np.arange(curve.size), curve]),
               delimiter=",", header="step,risk", comments="")


def _curve_off_mean(rec, out):
    rec["curve"][3] += 1e-3


def _failed_trials(rec, out):
    rec["n_failed"] = 1


def _rising_curve(rec, out):
    def change(trials):
        trials[:, -1] = trials[:, 0] + 0.01
    _rewrite_trials(out, rec, change)


def _step0_off_prior(rec, out):
    def change(trials):
        trials[:, 0] += 0.5
    _rewrite_trials(out, rec, change)


def _stale_curve_csv(rec, out):
    saved = np.loadtxt(out / "risk_curve.csv", delimiter=",", skiprows=1)
    saved[2, 1] += 1e-3
    np.savetxt(out / "risk_curve.csv", saved, delimiter=",", header="step,risk", comments="")


@pytest.mark.parametrize("edit, fragment", [
    (_curve_off_mean, "column mean"),
    (_failed_trials, "heralded"),
    (_rising_curve, "does not fall"),
    (_step0_off_prior, "Monte Carlo"),
    (_stale_curve_csv, "risk_curve.csv"),
])
def test_risk_check_catches(outputs, tmp_path, edit, fragment):
    assert_flags(corrupted(outputs, tmp_path, "risk_qutrit", edit), fragment)


def test_risk_record_independent_of_threads(tmp_path, monkeypatch):
    cfg, argv = short_op("risk_qutrit", tmp_path / "risk", seed=5)
    files = ("record.json", "trials_loss.csv", "risk_curve.csv")
    written = []
    for threads in ("1", "2"):
        monkeypatch.setenv("TOMOLAB_THREADS", threads)
        code, text = run.call_cli(argv)
        assert code == 0, text
        written.append([(tmp_path / "risk" / f).read_bytes() for f in files])
    assert written[0] == written[1]


def test_references():
    beta, rho_star = checks.damping([0.9, 0.05, 0.05])
    assert beta == pytest.approx(3.0 / 17.0)
    assert np.allclose(rho_star, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    states = checks.damped_ginibre_states([0.9, 0.05, 0.05], 40000, np.random.default_rng(3))
    assert np.allclose(states.mean(axis=0), np.diag([0.9, 0.05, 0.05]), atol=5e-3)
    choi = checks.hadamard_mix_choi()
    assert np.linalg.eigvalsh(choi).min() > -1e-12
    assert np.allclose(np.einsum("abcb->ac", choi.reshape(2, 2, 2, 2)), np.eye(2) / 2)
    assert checks.two_tone(0.0, 0.1, 0.2) == 1.0


def test_step0_distribution_test_catches_a_scaled_loss():
    """100 trials whose step-0 losses are 1.2 or sqrt(2) times too large
    fail the distribution test; 100 right ones pass it by a wide margin."""
    cfg = {"prior": {"gad_mean": {"diag": [0.9, 0.05, 0.05]}}, "n_particles": 2000}
    cfg["truth"] = {"prior": cfg["prior"]}
    reference = checks.step0_losses(cfg, checks.RISK_MC_SAMPLES, np.random.default_rng(1))
    trials = checks.step0_losses(cfg, 100, np.random.default_rng(2))
    limit = checks.ks_limit(100, reference.size, checks.RISK_KS_ALPHA)
    assert checks.ks_distance(trials, reference) < limit / 2
    assert checks.ks_distance(np.sqrt(2.0) * trials, reference) > limit
    assert checks.ks_distance(1.2 * trials, reference) > limit
    assert checks.ks_distance([0.5, 1.5], [1.0]) == 0.5


def test_op_seeds_are_derived_and_distinct():
    seeds = [workloads.op_seed(7, "track_coin", i) for i in range(50)]
    assert seeds == [workloads.op_seed(7, "track_coin", i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert seeds[0] != workloads.op_seed(8, "track_coin", 0)


@pytest.mark.parametrize("name, threads, n_threads",
                         [("track_coin", "1", 1), ("risk_qutrit", "2", 3)])
def test_layer_self_times_add_up(tmp_path, monkeypatch, name, threads, n_threads):
    monkeypatch.setenv("TOMOLAB_THREADS", threads)
    cfg, argv = short_op(name, tmp_path / name)
    tracer = Tracer()
    tracer.install()
    try:
        (code, text), totals = tracer.run_op(run.call_cli, argv)
    finally:
        tracer.uninstall()
    assert code == 0, text
    assert sum(totals[layer] for layer in LAYERS) == pytest.approx(totals["wall_s"], rel=1e-9)
    assert all(totals[layer] >= 0.0 for layer in LAYERS)
    assert totals["smc.updates"] == workloads.updates_per_op(cfg)
    assert totals["design.designs"] == workloads.updates_per_op(cfg)
    assert totals["threads"] == n_threads
    from tomolab import harness
    assert not hasattr(harness.bayes_update, "__wrapped__")


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "track_coin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
