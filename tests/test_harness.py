from __future__ import annotations

import importlib.util
import json
import math
import multiprocessing
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import tomolab
from tomolab import harness
from tomolab.cli import main
from tomolab.harness import (
    ConfigError,
    PriorSpec,
    RunConfig,
    _filter,
    _set_up,
    _workers,
    build_prior,
    decode_matrix,
    loss_norm,
    quadratic_loss,
    run,
)
from tomolab.qobj import gell_mann_basis, pauli_basis
from tomolab.randq import RngStream

from conftest import random_state_matrix

INV_SQRT2 = 1.0 / math.sqrt(2.0)
REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def coin_config(**over):
    base = {
        "mode": "estimate", "seed": 11, "model": "coin",
        "prior": {"fiducial": "coin_uniform"},
        "truth": {"kind": "coin", "p": 0.3},
        "heuristic": {"kind": "coin", "n_meas": 10},
        "n_particles": 200, "n_experiments": 8,
    }
    base.update(over)
    return base


def state_config(**over):
    base = {
        "mode": "estimate", "seed": 5, "model": "state", "dim": 2,
        "prior": {"fiducial": "ginibre"},
        "truth": {"kind": "explicit", "matrix": {"diag": [0.8, 0.2]}},
        "heuristic": {"kind": "random_pauli", "n_meas": 20},
        "n_particles": 300, "n_experiments": 10,
    }
    base.update(over)
    return base


def qutrit_config(**over):
    return state_config(**{"dim": 3,
                           "truth": {"kind": "explicit", "matrix": {"diag": [0.5, 0.3, 0.2]}},
                           "heuristic": {"kind": "stabilizer_qutrit", "n_meas": 20},
                           **over})


def risk_config(**over):
    base = {
        "mode": "risk", "seed": 21, "model": "state", "dim": 2,
        "prior": {"fiducial": "ginibre"},
        "truth": {"kind": "from_distribution", "prior": {"fiducial": "bures"}},
        "heuristic": {"kind": "random_pauli", "n_meas": 10},
        "n_particles": 150, "n_experiments": 6, "n_trials": 3,
    }
    base.update(over)
    return base


def track_config(**over):
    base = {
        "mode": "track", "seed": 9, "model": "coin",
        "prior": {"fiducial": "coin_uniform"},
        "truth": {"kind": "coin", "p": 0.5},
        "heuristic": {"kind": "coin", "n_meas": 5},
        "n_particles": 400,
        "tracking": {"dt": 1.0, "n_steps": 25,
                     "trajectory": {"kind": "two_tone_coin",
                                    "f1": 0.0125, "f2": 1.0 / 294.0},
                     "eta_mean": 0.01, "eta_log_std": 1.0},
    }
    base.update(over)
    return base


# A coin prior damped toward mean 2e-6 puts its particles at p = 0 exactly
# (its Beta(1, 4e-6) mixing weight is 1 in double precision), so the first
# success of a p = 1 coin has a true zero likelihood under every particle.
IMPOSSIBLE_DATA = {"prior": {"fiducial": "coin_uniform", "gad_mean": 2e-6},
                   "truth": {"kind": "coin", "p": 1.0},
                   "heuristic": {"kind": "coin", "n_meas": 1}}
FAIL_CONFIG = coin_config(seed=0, n_particles=2, n_experiments=1, **IMPOSSIBLE_DATA)


class InjectedError(RuntimeError):
    """Raised by a patched trial step; module level, so a worker can pickle it."""


class TestLoss:
    def test_orthogonal_pure_states(self):
        basis = pauli_basis(1)
        a = basis.vectorize(np.diag([1.0, 0.0]).astype(complex))
        b = basis.vectorize(np.diag([0.0, 1.0]).astype(complex))
        assert abs(quadratic_loss(a, b) - 2.0) < 1e-14
        assert abs(loss_norm(a, b) - math.sqrt(2.0)) < 1e-14

    def test_matches_hilbert_schmidt_distance(self):
        basis = pauli_basis(1)
        rng = np.random.default_rng(31)
        for _ in range(100):
            r1 = random_state_matrix(rng, 2)
            r2 = random_state_matrix(rng, 2)
            direct = float(np.trace((r1 - r2) @ (r1 - r2)).real)
            viacoords = quadratic_loss(basis.vectorize(r1), basis.vectorize(r2))
            assert abs(direct - viacoords) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            quadratic_loss(np.zeros((2, 2)), np.zeros((2, 2)))


class TestDecodeMatrix:
    def test_diag(self):
        m = decode_matrix({"diag": [0.9, 0.1]})
        assert np.array_equal(m, np.diag([0.9, 0.1]).astype(complex))

    def test_re_im(self):
        m = decode_matrix({"re": [[0.5, 0.0], [0.0, 0.5]],
                           "im": [[0.0, -0.25], [0.25, 0.0]]})
        assert m[0, 1] == -0.25j
        assert np.allclose(m, m.conj().T)

    def test_nested_lists(self):
        m = decode_matrix([[1.0, 0.0], [0.0, 0.0]])
        assert m.dtype == complex
        assert m[0, 0] == 1.0

    def test_errors(self):
        with pytest.raises(ConfigError):
            decode_matrix({"re": [[1.0]], "im": [[0.0, 0.0]]})
        with pytest.raises(ConfigError):
            decode_matrix({"nope": 1})
        with pytest.raises(ConfigError):
            decode_matrix([1.0, 2.0])
        for empty in ({"diag": []}, [], [[]], {"re": [[]]}):
            with pytest.raises(ConfigError, match="matrix spec must not be empty"):
                decode_matrix(empty)


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig.from_dict(state_config())
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(coin_config()), encoding="utf-8")
        assert RunConfig.from_json_file(path) == RunConfig.from_dict(coin_config())

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(state_config(n_shots=10))

    def test_unknown_mode_and_model(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(state_config(mode="guess"))
        with pytest.raises(ConfigError):
            RunConfig.from_dict(state_config(model="die"))

    def test_schema_version(self):
        for version in (99, True, 1.0):
            with pytest.raises(ConfigError):
                RunConfig.from_dict(state_config(schema_version=version))

    def test_missing_pieces(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(state_config(prior=None))
        with pytest.raises(ConfigError):
            RunConfig.from_dict(state_config(truth=None))
        with pytest.raises(ConfigError):
            RunConfig.from_dict(state_config(heuristic=None))

    def test_qpt_needs_channel(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(state_config(mode="qpt"))

    def test_track_needs_spec(self):
        cfg = track_config()
        del cfg["tracking"]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(cfg)

    def test_numeric_bounds(self):
        for bad in (state_config(n_particles=1),
                    state_config(n_experiments=0),
                    state_config(seed=-1),
                    state_config(resample_a=0.0),
                    state_config(resample_a=1.5),
                    state_config(resample_threshold=0.0),
                    risk_config(n_trials=0)):
            with pytest.raises(ConfigError):
                RunConfig.from_dict(bad)

    def test_integers_widen_to_float_fields(self):
        cfg = RunConfig.from_dict(track_config(
            resample_a=1, tracking=dict(track_config()["tracking"], dt=2)))
        assert type(cfg.resample_a) is float and cfg.resample_a == 1.0
        assert type(cfg.tracking.dt) is float and cfg.tracking.dt == 2.0

    def test_truth_spec_checks(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(state_config(truth={"kind": "mystery"}))
        with pytest.raises(ConfigError):
            RunConfig.from_dict(state_config(truth={"kind": "from_distribution"}))

    def test_heuristic_checks(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(state_config(heuristic={"kind": "random_pauli",
                                                        "n_meas": 0}))
        with pytest.raises(ConfigError):
            RunConfig.from_dict(state_config(heuristic={"kind": "random_pauli",
                                                        "n_meas": 5, "extra": 1}))


class TestBuildPrior:
    def test_model_fiducial_pairing(self):
        with pytest.raises(ConfigError):
            build_prior(PriorSpec(fiducial="coin_uniform"), "state", 2)
        with pytest.raises(ConfigError):
            build_prior(PriorSpec(fiducial="ginibre"), "coin", 2)
        with pytest.raises(ConfigError):
            build_prior(PriorSpec(fiducial="bcsz"), "state", 2)
        with pytest.raises(ConfigError):
            build_prior(PriorSpec(fiducial="ginibre"), "channel", 2)
        with pytest.raises(ConfigError):
            build_prior(PriorSpec(fiducial="rebit_ginibre"), "state", 3)

    def test_damped_mean_changes_prior(self):
        plain = build_prior(PriorSpec(fiducial="ginibre"), "state", 2)
        damped = build_prior(
            PriorSpec(fiducial="ginibre", gad_mean={"diag": [0.9, 0.1]}),
            "state", 2)
        assert damped.name != plain.name
        mean = damped.sample(2000, RngStream(3)).mean(axis=0)
        target = pauli_basis(1).vectorize(np.diag([0.9, 0.1]).astype(complex))
        assert np.abs(mean - target).max() < 0.03

    def test_coin_damped_mean(self):
        plain = build_prior(PriorSpec(fiducial="coin_uniform"), "coin", 2)
        damped = build_prior(PriorSpec(fiducial="coin_uniform", gad_mean=0.25),
                             "coin", 2)
        assert damped.name != plain.name


class TestEstimation:
    def test_record_shape(self):
        rec = run(RunConfig.from_dict(state_config()))
        assert rec.mode == "estimate"
        assert not rec.failed
        assert len(rec.steps) == 11
        assert rec.steps[0]["step"] == 0
        assert rec.steps[0]["n_meas"] == 0
        assert all(row["loss"] >= 0.0 for row in rec.steps)
        assert len(rec.summary["mean"]) == 4
        assert len(rec.summary["covariance"]) == 4
        assert rec.summary["loss"] == rec.steps[-1]["loss"]

    def test_learning_happens(self):
        rec = run(RunConfig.from_dict(state_config(
            n_experiments=40, n_particles=1000)))
        assert rec.summary["loss"] < rec.steps[0]["loss"]
        assert rec.steps[-1]["cov_trace"] < rec.steps[0]["cov_trace"]

    def test_deterministic_json(self):
        a = run(RunConfig.from_dict(state_config()))
        b = run(RunConfig.from_dict(state_config()))
        assert a.to_json() == b.to_json()

    def test_seed_matters(self):
        a = run(RunConfig.from_dict(state_config(seed=5)))
        b = run(RunConfig.from_dict(state_config(seed=6)))
        assert a.to_json() != b.to_json()

    def test_heralded_failure_flagged(self):
        rec = run(RunConfig.from_dict(FAIL_CONFIG))
        assert rec.failed
        assert "step 1" in rec.failure_reason
        assert len(rec.steps) == 1

    def test_truth_from_prior(self):
        cfg = state_config(truth={"kind": "from_prior"})
        rec = run(RunConfig.from_dict(cfg))
        truth = np.array(rec.summary["truth"])
        assert abs(truth[0] - INV_SQRT2) < 1e-12
        assert np.linalg.norm(truth[1:]) <= INV_SQRT2 + 1e-12

    def test_written_outputs(self, tmp_path):
        cfg = RunConfig.from_dict(state_config(dump_cloud=True))
        rec = run(cfg)
        out = rec.write(tmp_path / "run")
        assert json.loads((out / "record.json").read_text())["mode"] == "estimate"
        assert "wall_time_s" in json.loads((out / "meta.json").read_text())
        header = (out / "steps.csv").read_text().splitlines()[0]
        assert header.startswith("step,")
        cov = np.loadtxt(out / "covariance.csv", delimiter=",")
        assert cov.shape == (4, 4)
        cloud = (out / "final_cloud.csv").read_text().splitlines()
        assert cloud[0].startswith("weight,x0")
        assert len(cloud) == cfg.n_particles + 1

    def test_underflowing_likelihoods_do_not_herald(self):
        # 100000 successes of a p = 1 coin: every particle's likelihood
        # underflows in linear space, but none is zero.
        cfg = coin_config(seed=0, n_particles=2, n_experiments=1,
                          truth={"kind": "coin", "p": 1.0},
                          heuristic={"kind": "coin", "n_meas": 100_000})
        rec = run(RunConfig.from_dict(cfg))
        assert not rec.failed
        assert rec.steps[1]["log_norm"] < -1000.0
        assert 1.0 <= rec.steps[1]["ess"] <= 2.0

    def test_written_bytes_deterministic(self, tmp_path):
        cfg = RunConfig.from_dict(state_config())
        run(cfg).write(tmp_path / "a")
        run(cfg).write(tmp_path / "b")
        assert ((tmp_path / "a" / "record.json").read_bytes()
                == (tmp_path / "b" / "record.json").read_bytes())


class TestQpt:
    CONFIG = {
        "mode": "qpt", "seed": 17, "model": "channel", "dim": 2,
        "prior": {"fiducial": "bcsz"},
        "truth": {"kind": "kraus",
                  "kraus": [{"re": [[INV_SQRT2, INV_SQRT2],
                                    [INV_SQRT2, -INV_SQRT2]]}]},
        "heuristic": {"kind": "process_random", "n_meas": 10},
        "n_particles": 300, "n_experiments": 12,
    }

    def test_run(self):
        rec = run(RunConfig.from_dict(self.CONFIG))
        assert not rec.failed
        assert len(rec.steps) == 13
        assert len(rec.summary["mean"]) == 16
        assert rec.summary["principal_eigenvalue"] >= 0.0
        assert len(rec.summary["principal_component"]) == 16
        assert rec.summary["loss"] < rec.steps[0]["loss"]

    def test_adaptive_mix_runs(self):
        cfg = dict(self.CONFIG)
        cfg["heuristic"] = {"kind": "process_adaptive_mix", "n_meas": 10,
                            "n_proposals": 10, "adaptive_fraction": 0.5}
        cfg["n_experiments"] = 8
        rec = run(RunConfig.from_dict(cfg))
        assert not rec.failed

    @pytest.mark.parametrize("fraction", [1.0, 0.8])
    def test_one_covariance_per_row(self, monkeypatch, fraction):
        # The adaptive rule scores against the covariance the row built.
        calls = []
        original = harness.posterior_covariance

        def counted(cloud):
            calls.append(None)
            return original(cloud)
        monkeypatch.setattr(harness, "posterior_covariance", counted)
        cfg = dict(self.CONFIG, n_experiments=20, heuristic={
            "kind": "process_adaptive_mix", "n_meas": 10, "n_proposals": 10,
            "adaptive_fraction": fraction})
        rec = run(RunConfig.from_dict(cfg))
        assert not rec.failed
        assert len(calls) == len(rec.steps) == 21


class TestRisk:
    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        # The worker cap then leaves up to three workers on any machine.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def test_curve_is_mean_of_trials(self):
        result = run(RunConfig.from_dict(risk_config()))
        assert result.n_failed == 0
        per_trial = np.array(result.per_trial)
        assert per_trial.shape == (3, 7)
        assert np.abs(per_trial.mean(axis=0) - np.array(result.curve)).max() < 1e-12
        assert min(result.curve) >= 0.0

    def test_single_trial_curve(self):
        result = run(RunConfig.from_dict(risk_config(n_trials=1)))
        assert np.array_equal(result.curve, result.per_trial[0])

    def test_trials_are_paired_across_priors(self):
        cfg_a = RunConfig.from_dict(risk_config())
        cfg_b = RunConfig.from_dict(risk_config(prior={"fiducial": "ginibre",
                                                       "rank": 1}))
        rec_a = _filter(cfg_a, RngStream(cfg_a.seed).child(2), _set_up(cfg_a))
        rec_b = _filter(cfg_b, RngStream(cfg_b.seed).child(2), _set_up(cfg_b))
        assert rec_a.summary["truth"] == rec_b.summary["truth"]
        outcomes_a = [row["n_success"] for row in rec_a.steps]
        outcomes_b = [row["n_success"] for row in rec_b.steps]
        assert outcomes_a == outcomes_b
        assert rec_a.summary["mean"] != rec_b.summary["mean"]

    def test_trials_differ(self):
        cfg = RunConfig.from_dict(risk_config())
        t0 = _filter(cfg, RngStream(cfg.seed).child(0), _set_up(cfg))
        t1 = _filter(cfg, RngStream(cfg.seed).child(1), _set_up(cfg))
        assert t0.summary["truth"] != t1.summary["truth"]

    def test_deterministic(self):
        a = run(RunConfig.from_dict(risk_config()))
        b = run(RunConfig.from_dict(risk_config()))
        assert a.to_json() == b.to_json()

    def test_thread_count_invariance(self, monkeypatch):
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setenv("TOMOLAB_THREADS", str(workers))
            result = run(RunConfig.from_dict(risk_config(n_trials=5)))
            assert result.workers == workers
            assert multiprocessing.active_children() == []
            results[workers] = (result.to_json(), result.per_trial)
        assert results[1] == results[2] == results[3]

    def test_worker_count_is_capped(self, monkeypatch):
        for raw, n_trials, expected in [("1000000", 2, 2), ("1000000", 100, 3),
                                        ("0", 5, 1), ("-3", 5, 1), ("2", 1, 1)]:
            monkeypatch.setenv("TOMOLAB_THREADS", raw)
            assert _workers(n_trials) == expected
        monkeypatch.setenv("TOMOLAB_THREADS", "1")
        serial = run(RunConfig.from_dict(risk_config(n_trials=2)))
        monkeypatch.setenv("TOMOLAB_THREADS", "1000000")
        capped = run(RunConfig.from_dict(risk_config(n_trials=2)))
        assert capped.workers == 2
        assert (capped.to_json(), capped.per_trial) == (serial.to_json(), serial.per_trial)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setenv("TOMOLAB_THREADS", "4")
        assert _workers(100) == 1

    def test_bad_thread_env(self, monkeypatch):
        monkeypatch.setenv("TOMOLAB_THREADS", "lots")
        with pytest.raises(ConfigError):
            run(RunConfig.from_dict(risk_config()))

    def test_failed_trials_counted(self, monkeypatch):
        cfg = risk_config(model="coin", n_trials=2, n_particles=2,
                          n_experiments=1, seed=0, **IMPOSSIBLE_DATA)
        seen = []
        for workers in ("1", "2"):
            monkeypatch.setenv("TOMOLAB_THREADS", workers)
            result = run(RunConfig.from_dict(cfg))
            assert result.n_failed >= 1
            assert len(result.per_trial) == 2 - result.n_failed
            seen.append((result.n_failed, result.per_trial))
        assert seen[0] == seen[1]

    def test_worker_error_reaches_caller(self, monkeypatch):
        def broken(*args, **kwargs):
            raise InjectedError("injected in a trial")
        # The forked workers inherit the patched name.
        monkeypatch.setattr(harness, "simulate_experiment", broken)
        monkeypatch.setenv("TOMOLAB_THREADS", "2")
        with pytest.raises(InjectedError, match="injected in a trial"):
            run(RunConfig.from_dict(risk_config(n_trials=4)))
        assert multiprocessing.active_children() == []

    def test_meta_records_workers_and_resamples(self, tmp_path, monkeypatch):
        written = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("TOMOLAB_THREADS", workers)
            out = run(RunConfig.from_dict(risk_config(n_trials=4))).write(tmp_path / workers)
            written[workers] = (json.loads((out / "meta.json").read_text(encoding="utf-8")),
                                (out / "record.json").read_bytes())
        (meta_1, record_1), (meta_2, record_2) = written["1"], written["2"]
        assert (meta_1["workers"], meta_2["workers"]) == (1, 2)
        assert meta_1["n_resamples"] == meta_2["n_resamples"] > 0
        assert record_1 == record_2
        assert b"workers" not in record_1 and b"n_resamples" not in record_1

    def test_trials_free_their_clouds(self, monkeypatch):
        monkeypatch.setenv("TOMOLAB_THREADS", "1")
        filter_run = harness._filter
        clouds = []

        def tracked(*args, **kwargs):
            alive = [i for i, ref in enumerate(clouds) if ref() is not None]
            assert alive == [], f"trial {len(clouds)} starts with clouds {alive} alive"
            record = filter_run(*args, **kwargs)
            clouds.append(weakref.ref(record.final_cloud))
            return record

        monkeypatch.setattr(harness, "_filter", tracked)
        result = run(RunConfig.from_dict(risk_config(n_trials=10)))
        assert len(clouds) == 10
        assert len(result.per_trial) == 10

    @pytest.mark.parametrize("cfg", [
        risk_config(),
        dict(TestQpt.CONFIG, mode="risk", n_trials=2,
             truth={"kind": "from_distribution", "prior": {"fiducial": "bcsz"}},
             heuristic={"kind": "process_adaptive_mix", "n_meas": 10,
                        "n_proposals": 10, "adaptive_fraction": 0.8}),
    ], ids=["state", "channel_adaptive"])
    def test_loss_only_trial_matches_full_rows(self, cfg):
        config = RunConfig.from_dict(cfg)
        for i in range(2):
            full = _filter(config, RngStream(config.seed).child(i), _set_up(config))
            lean = _filter(config, RngStream(config.seed).child(i), _set_up(config),
                           losses_only=True)
            assert lean.steps == [{"loss": row["loss"]} for row in full.steps]
            assert lean.failed is full.failed is False
            assert np.array_equal(lean.final_cloud.locations, full.final_cloud.locations)

    def test_setup_is_built_once_per_run(self, monkeypatch):
        counts = {"build_prior": 0, "make_heuristic": 0}
        for name in counts:
            original = getattr(harness, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(harness, name, counted)
        seen = []
        for n_trials in (1, 4):
            counts.update(dict.fromkeys(counts, 0))
            run(RunConfig.from_dict(risk_config(n_trials=n_trials)))
            seen.append(dict(counts))
        # The prior and the truth distribution's prior, and one rule.
        assert seen == [{"build_prior": 2, "make_heuristic": 1}] * 2

    def test_non_adaptive_risk_builds_no_covariance(self, monkeypatch):
        calls = []
        original = harness.posterior_covariance

        def counted(cloud):
            calls.append(None)
            return original(cloud)
        monkeypatch.setattr(harness, "posterior_covariance", counted)
        result = run(RunConfig.from_dict(risk_config()))
        assert result.n_failed == 0 and len(result.per_trial) == 3
        assert calls == []

    def test_written_outputs(self, tmp_path):
        result = run(RunConfig.from_dict(risk_config()))
        out = result.write(tmp_path / "risk")
        curve = np.loadtxt(out / "risk_curve.csv", delimiter=",", skiprows=1)
        assert curve.shape == (7, 2)
        trials = np.loadtxt(out / "trials_loss.csv", delimiter=",")
        assert trials.shape == (3, 7)


class TestTracking:
    def test_two_tone_truth_column(self):
        rec = run(RunConfig.from_dict(track_config()))
        assert not rec.failed
        for row in rec.steps:
            t = row["time"]
            expected = 0.25 * (2.0 + math.cos(2.0 * math.pi * 0.0125 * t)
                               + math.cos(2.0 * math.pi * t / 294.0))
            assert abs(row["truth"][0] - expected) < 1e-12
            assert row["eta_mean"] > 0.0

    def test_single_tone_clipped(self):
        cfg = track_config()
        cfg["tracking"] = {"dt": 1.0, "n_steps": 10,
                           "trajectory": {"kind": "single_tone_coin", "f": 0.05,
                                          "offset": 0.9, "amplitude": 0.3},
                           "eta_mean": 0.01}
        rec = run(RunConfig.from_dict(cfg))
        values = [row["truth"][0] for row in rec.steps]
        assert max(values) <= 1.0
        assert values[0] == 1.0

    def test_static_truth_converges(self):
        cfg = track_config(truth={"kind": "coin", "p": 0.7})
        cfg["tracking"] = {"dt": 1.0, "n_steps": 25,
                           "trajectory": {"kind": "static"}, "eta_mean": 0.0}
        rec = run(RunConfig.from_dict(cfg))
        assert abs(rec.steps[0]["loss"] - 0.2) < 0.05
        assert rec.summary["loss"] < 0.1
        assert rec.summary["eta_mean"] == 0.0

    def test_diffusing_state_trajectory(self):
        cfg = {
            "mode": "track", "seed": 3, "model": "state", "dim": 2,
            "prior": {"fiducial": "ginibre"},
            "truth": {"kind": "explicit", "matrix": {"diag": [0.7, 0.3]}},
            "heuristic": {"kind": "random_pauli", "n_meas": 5},
            "n_particles": 300,
            "tracking": {"dt": 1.0, "n_steps": 15,
                         "trajectory": {"kind": "diffusing_state",
                                        "step_std": 0.02},
                         "eta_mean": 0.01},
        }
        rec = run(RunConfig.from_dict(cfg))
        assert not rec.failed
        truths = np.array([row["truth"] for row in rec.steps])
        assert abs(truths[0, 0] - INV_SQRT2) < 1e-12
        assert not np.allclose(truths[0], truths[-1])
        assert np.abs(truths[:, 0] - INV_SQRT2).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_high_shot_two_tone_does_not_herald(self, seed):
        # With 5000 shots per step the likelihoods underflow in linear
        # space; these seeds once heralded a failure at steps 108, 18,
        # 108 and 110.
        cfg = json.loads((CONFIGS / "track_two_tone.json").read_text(encoding="utf-8"))
        cfg["seed"] = seed
        cfg["heuristic"]["n_meas"] = 5000
        cfg["tracking"]["n_steps"] = 150
        rec = run(RunConfig.from_dict(cfg))
        assert not rec.failed, rec.failure_reason
        assert len(rec.steps) == 151

    def test_deterministic(self):
        a = run(RunConfig.from_dict(track_config()))
        b = run(RunConfig.from_dict(track_config()))
        assert a.to_json() == b.to_json()

    def test_dispatcher(self):
        rec = run(RunConfig.from_dict(track_config()))
        assert rec.mode == "track"
        result = run(RunConfig.from_dict(risk_config()))
        assert hasattr(result, "curve")


class TestTracer:
    def test_spans_attribute_a_coin_track(self):
        # bench/spans.py times each layer by wrapping names it looks up on
        # the harness module; a rename it misses would read zero here.
        spec = importlib.util.spec_from_file_location("spans", REPO / "bench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        cfg = track_config()
        cfg["tracking"]["n_steps"] = 10
        tracer = spans.Tracer()
        tracer.install()
        try:
            rec, totals = tracer.run_op(run, RunConfig.from_dict(cfg))
        finally:
            tracer.uninstall()
        assert not rec.failed
        assert totals["smc.updates"] == 10
        assert totals["tracking.diffuse_s"] > 0.0
        assert not hasattr(harness.bayes_update, "__wrapped__")


class TestCli:
    def write_cfg(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    def test_estimate_ok(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, coin_config())
        code = main(["estimate", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "record.json").exists()
        assert "ok" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        path = self.write_cfg(tmp_path, coin_config())
        main(["estimate", "--config", path, "--seed", "99",
              "--out", str(tmp_path / "a")])
        rec = json.loads((tmp_path / "a" / "record.json").read_text())
        assert rec["config"]["seed"] == 99

    @pytest.mark.parametrize("mode, cfg, message", [
        pytest.param("estimate", state_config(mode="guess"), "unknown mode",
                     id="unknown_mode"),
        pytest.param("track", track_config(tracking=dict(
            track_config()["tracking"], trajectory={"kind": "two_tone_coin", "f1": 0.0125})),
            "'f2'", id="two_tone_without_f2"),
        pytest.param("track", track_config(tracking=dict(
            track_config()["tracking"], trajectory={"kind": "single_tone_coin", "f": "x"})),
            "'f'", id="single_tone_f_not_a_number"),
        pytest.param("estimate", state_config(prior={"fiducial": "ginibre", "rank": "two"}),
                     "prior rank must be an integer, got 'two'",
                     id="rank_not_an_integer"),
        pytest.param("estimate", qutrit_config(prior={"fiducial": "ginibre", "rank": 7}),
                     "rank 7 must lie in [1, 3]", id="rank_above_dim"),
        pytest.param("estimate", qutrit_config(
            prior={"fiducial": "ginibre", "gad_mean": {"diag": [0.9, 0.1]}}),
            "dimension does not match", id="mean_of_wrong_dim"),
        pytest.param("estimate", state_config(dim=1), "dim must be at least 2",
                     id="dim_1_random_pauli"),
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"],
                                                         n_steps=0)),
                     "n_steps must be positive", id="zero_tracking_steps"),
        pytest.param("estimate", state_config(prior="ginibre"),
                     "prior must be a JSON object", id="prior_not_an_object"),
        pytest.param("estimate", coin_config(truth={"kind": "coin", "p": "x"}),
                     "truth p must be a number, got 'x'",
                     id="coin_p_not_a_number"),
        pytest.param("estimate", state_config(truth={
            "kind": "explicit", "matrix": {"re": [[0.5, 0.4], [0.1, 0.5]]}}),
            "explicit truth: density operator is not Hermitian", id="non_hermitian_truth"),
        pytest.param("qpt", dict(TestQpt.CONFIG, truth={
            "kind": "kraus", "kraus": [{"diag": [1.0, 1.0]}, {"diag": [1.0, 0.0]}]}),
            "kraus truth: Kraus operators", id="kraus_not_trace_preserving"),
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"],
                                                         eta_log_std=-1.0)),
                     "eta_log_std must be nonnegative", id="negative_eta_log_std"),
        pytest.param("estimate", state_config(dump_cloud="no"),
                     "dump_cloud must be true or false, got 'no'", id="dump_cloud_string"),
        pytest.param("estimate", state_config(dump_cloud=1),
                     "dump_cloud must be true or false, got 1", id="dump_cloud_integer"),
        pytest.param("estimate", state_config(n_particles=2000.7),
                     "n_particles must be an integer, got 2000.7", id="fractional_particles"),
        pytest.param("estimate", state_config(seed=True),
                     "seed must be an integer, got True", id="boolean_seed"),
        pytest.param("estimate", state_config(seed=5.0),
                     "seed must be an integer, got 5.0", id="float_seed"),
        pytest.param("estimate", state_config(dim="2"),
                     "dim must be an integer, got '2'", id="string_dim"),
        pytest.param("estimate", state_config(n_experiments=10.0),
                     "n_experiments must be an integer, got 10.0", id="float_experiments"),
        pytest.param("risk", risk_config(n_trials=2.5),
                     "n_trials must be an integer, got 2.5", id="fractional_trials"),
        pytest.param("estimate", state_config(heuristic={"kind": "random_pauli",
                                                         "n_meas": 20.5}),
                     "heuristic n_meas must be an integer, got 20.5", id="fractional_n_meas"),
        pytest.param("qpt", dict(TestQpt.CONFIG, heuristic={
            "kind": "process_adaptive_mix", "n_meas": 10, "n_proposals": False}),
            "heuristic n_proposals must be an integer, got False", id="boolean_proposals"),
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"],
                                                         n_steps=25.0)),
                     "tracking n_steps must be an integer, got 25.0", id="float_tracking_steps"),
        pytest.param("estimate", state_config(resample_a="0.5"),
                     "resample_a must be a number, got '0.5'", id="string_resample_a"),
        pytest.param("estimate", state_config(resample_threshold=True),
                     "resample_threshold must be a number, got True",
                     id="boolean_resample_threshold"),
        pytest.param("qpt", dict(TestQpt.CONFIG, heuristic={
            "kind": "process_adaptive_mix", "n_meas": 10, "adaptive_fraction": True}),
            "heuristic adaptive_fraction must be a number, got True",
            id="boolean_adaptive_fraction"),
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"],
                                                         dt=True)),
                     "tracking dt must be a number, got True", id="boolean_dt"),
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"],
                                                         eta_mean="0.1")),
                     "tracking eta_mean must be a number, got '0.1'", id="string_eta_mean"),
        pytest.param("estimate", state_config(out_dir=5),
                     "out_dir must be a string, got 5", id="integer_out_dir"),
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"],
                                                         trajectory=5)),
                     "tracking trajectory must be a JSON object, got 5",
                     id="trajectory_not_an_object"),
        pytest.param("track", track_config(tracking=dict(
            track_config()["tracking"], trajectory={"kind": "two_tone_coin",
                                                    "f1": True, "f2": 0.02})),
            "'f1' must be a number, got True", id="boolean_trajectory_f1"),
        pytest.param("estimate", coin_config(prior={"fiducial": "coin_uniform",
                                                    "gad_mean": "0.3"}),
                     "prior gad_mean must be a number, got '0.3'", id="string_coin_gad_mean"),
        pytest.param("estimate", state_config(truth={
            "kind": "explicit", "matrix": {"diag": ["0.8", "0.2"]}}),
            "matrix spec entry must be a number, got '0.8'", id="string_in_diag"),
        pytest.param("estimate", state_config(prior={
            "fiducial": "ginibre", "gad_mean": {"re": [[0.9, False], [0, 0.1]]}}),
            "matrix spec entry must be a number, got False", id="boolean_in_re"),
        pytest.param("qpt", dict(TestQpt.CONFIG, truth={
            "kind": "kraus", "kraus": [{"diag": [1.0, "1.0"]}]}),
            "matrix spec entry must be a number, got '1.0'", id="string_in_kraus"),
        pytest.param("qpt", dict(TestQpt.CONFIG, truth={"kind": "kraus", "kraus": 5}),
                     "kraus truth needs a non-empty list of matrix specs",
                     id="kraus_not_a_list"),
        pytest.param("qpt", dict(TestQpt.CONFIG, truth={"kind": "kraus"}),
                     "kraus truth needs a non-empty list of matrix specs",
                     id="kraus_missing"),
        pytest.param("estimate", state_config(truth={
            "kind": "explicit", "matrix": {"diag": [math.nan, 1.0]}}),
            "matrix spec entry must be finite, got nan", id="nan_in_diag"),
        pytest.param("track", track_config(tracking=dict(
            track_config()["tracking"], trajectory={"kind": "two_tone_coin",
                                                    "f1": math.nan, "f2": 0.02})),
            "'f1' must be finite, got nan", id="nan_trajectory_f1"),
        pytest.param("estimate", state_config(resample_a=math.inf),
                     "resample_a must be finite, got inf", id="infinite_resample_a"),
        pytest.param("estimate", dict(
            json.loads((CONFIGS / "estimate_wrong_prior.json").read_text(encoding="utf-8")),
            prior={"fiducial": "bures", "rank": 1}),
            "bures prior takes no rank", id="rank_on_bures"),
        pytest.param("estimate", coin_config(prior={"fiducial": "coin_uniform", "rank": 1}),
                     "coin_uniform prior takes no rank", id="rank_on_coin_uniform"),
        pytest.param("estimate", state_config(truth={
            "kind": "explicit", "matrix": {"diag": []}}),
            "matrix spec must not be empty", id="empty_diag"),
    ])
    def test_config_error_exit(self, tmp_path, capsys, mode, cfg, message):
        path = self.write_cfg(tmp_path, cfg)
        assert main([mode, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert message in err

    def test_mode_mismatch_exit(self, tmp_path):
        path = self.write_cfg(tmp_path, coin_config())
        assert main(["risk", "--config", path]) == 2

    def test_missing_file_exit(self, tmp_path):
        assert main(["estimate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_heralded_failure_exit(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, FAIL_CONFIG)
        code = main(["estimate", "--config", path, "--out", str(tmp_path / "f")])
        assert code == 3
        assert "FAILED" in capsys.readouterr().out
        rec = json.loads((tmp_path / "f" / "record.json").read_text())
        assert rec["failed"] is True

    def test_risk_cli(self, tmp_path):
        path = self.write_cfg(tmp_path, risk_config(n_trials=2))
        code = main(["risk", "--config", path, "--out", str(tmp_path / "risk")])
        assert code == 0
        assert (tmp_path / "risk" / "risk_curve.csv").exists()

    def test_track_cli(self, tmp_path):
        cfg = track_config()
        cfg["tracking"]["n_steps"] = 8
        path = self.write_cfg(tmp_path, cfg)
        assert main(["track", "--config", path, "--out", str(tmp_path / "tr")]) == 0

    def test_sample_flags(self, tmp_path, capsys):
        code = main(["sample", "--prior", "ginibre", "--dim", "3", "--rank", "2",
                     "--n", "50", "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        rows = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1)
        assert rows.shape == (50, 9)
        assert np.abs(rows[:, 0] - 1.0 / math.sqrt(3.0)).max() < 1e-12

    def test_sample_coin(self, tmp_path):
        code = main(["sample", "--prior", "coin_uniform", "--n", "20",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        rows = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1)
        assert rows.shape == (20,)
        assert rows.min() >= 0.0 and rows.max() <= 1.0

    def test_sample_from_config(self, tmp_path):
        cfg = {"mode": "sample", "seed": 4,
               "prior": {"fiducial": "ginibre"}}
        path = self.write_cfg(tmp_path, cfg)
        code = main(["sample", "--config", path, "--n", "5",
                     "--out", str(tmp_path / "s")])
        assert code == 0
        assert (tmp_path / "s" / "samples.csv").exists()

    def test_sample_config_matches_one_draw_at_a_time(self, tmp_path):
        # The batched draw writes the bytes of the earlier loop of single
        # Ginibre draws: each consumes its real, then imaginary, normals.
        # The states are vectorized in one call, as the sampler does: a
        # product over one row may round it differently from one over n.
        path = CONFIGS / "sample_ginibre_qutrit.json"
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "batch")]) == 0
        cfg = json.loads(path.read_text(encoding="utf-8"))
        dim, rank = cfg["dim"], cfg["prior"]["rank"]
        basis = gell_mann_basis(dim)
        stream = RngStream(cfg["seed"])
        states = []
        for _ in range(100):
            block = stream.generator.standard_normal((2, dim, rank))
            a = block[0] + 1j * block[1]
            rho = a @ a.conj().T
            states.append(rho / np.trace(rho).real)
        np.savetxt(tmp_path / "loop.csv", basis.vectorize(np.stack(states)), delimiter=",",
                   header=",".join(basis.labels), comments="")
        assert ((tmp_path / "batch" / "samples.csv").read_bytes()
                == (tmp_path / "loop.csv").read_bytes())

    def test_sample_needs_prior(self):
        assert main(["sample"]) == 2

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--prior", "bures", "--dim", "3", "--rank", "1", "--n", "2"],
                     "bures prior takes no rank", id="rank_on_bures"),
        pytest.param(["--prior", "coin_uniform", "--rank", "1"],
                     "coin_uniform prior takes no rank", id="rank_on_coin_uniform"),
        pytest.param(["--prior", "ginibre", "--dim", "1"], "dim must be at least 2",
                     id="dim_1"),
        pytest.param(["--prior", "ginibre", "--seed", "-1"],
                     "seed must be a nonnegative integer", id="negative_seed"),
    ])
    def test_sample_flag_error_exit(self, tmp_path, capsys, flags, message):
        assert main(["sample", *flags, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert message in err
        assert not (tmp_path / "samples.csv").exists()

    def test_record_does_not_depend_on_out_dir(self, tmp_path):
        path = self.write_cfg(tmp_path, state_config(out_dir="ignored"))
        for sub in ("A", "B"):
            assert main(["estimate", "--config", path, "--out", str(tmp_path / sub)]) == 0
            meta = json.loads((tmp_path / sub / "meta.json").read_text())
            assert meta["out_dir"] == (tmp_path / sub).as_posix()
        assert ((tmp_path / "A" / "record.json").read_bytes()
                == (tmp_path / "B" / "record.json").read_bytes())

    def test_sample_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            main(["sample", "--prior", "bures", "--n", "10", "--seed", "12",
                  "--out", str(tmp_path / sub)])
        assert ((tmp_path / "a" / "samples.csv").read_bytes()
                == (tmp_path / "b" / "samples.csv").read_bytes())


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tomolab", "sample", "--prior", "ginibre",
             "--n", "5", "--seed", "3", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "samples.csv").exists()

    def test_console_script(self, tmp_path):
        # Run the declared [project.scripts] target the way an installed
        # launcher does, against the tomolab this test imported, so the
        # check needs no install and cannot pick up another checkout's copy.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts.get("tomolab") == "tomolab.cli:entry"
        module, attr = scripts["tomolab"].split(":")
        launcher = (f"import sys\nfrom {module} import {attr}\n"
                    f"sys.argv[0] = 'tomolab'\nsys.exit({attr}())\n")
        src_dir = str(Path(tomolab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, "-c", launcher, "sample", "--prior", "coin_uniform",
             "--n", "3", "--seed", "1", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        draws = np.loadtxt(tmp_path / "out" / "samples.csv", skiprows=1, ndmin=2)
        assert draws.shape[0] == 3
