from __future__ import annotations

import importlib.util
import json
import math
import multiprocessing
import os
import subprocess
import sys
import weakref
from dataclasses import MISSING, fields
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
from tomolab.smc import (
    effective_sample_size,
    init_cloud,
    posterior_covariance,
    posterior_mean_coords,
)

from conftest import random_state_matrix, written_record

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
WRONG_PRIOR = json.loads((CONFIGS / "estimate_wrong_prior.json").read_text(encoding="utf-8"))
SAMPLE_CONFIG = {"mode": "sample", "seed": 4, "prior": {"fiducial": "ginibre"}}


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
        for stray in ({"diag": [0.5, 0.5], "im": [[0, 1], [-1, 0]]},
                      {"re": [[0.5, 0], [0, 0.5]], "junk": 1}):
            with pytest.raises(ConfigError, match="matrix spec keys must be"):
                decode_matrix(stray)
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

    def test_readme_table_matches_defaults(self):
        # README's "Configuration schema" table, from its header to the first blank line.
        lines = (REPO / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | default | meaning |")
        rows = [line.split("|")[1:3] for line in lines[start + 2:lines.index("", start)]]
        table = {key.strip().strip("`"): cell.strip().strip("`") for key, cell in rows}
        defaults = {f.name: None if f.default is MISSING else f.default
                    for f in fields(RunConfig)}
        assert list(table) == list(defaults)
        for key, cell in table.items():
            if cell in ("required", "required*", "-"):
                assert defaults[key] is None, key
                continue
            try:
                value = json.loads(cell)
            except json.JSONDecodeError:
                value = cell
            assert (value, type(value)) == (defaults[key], type(defaults[key])), key

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


    def test_sample_config_has_no_runner(self):
        with pytest.raises(ConfigError, match="mode 'sample' has no runner"):
            run(RunConfig.from_dict(SAMPLE_CONFIG))

    def test_model_fiducial_pairing(self):
        for model, fiducial, served in (("state", "coin_uniform", "coin"),
                                        ("coin", "ginibre", "state"),
                                        ("state", "bcsz", "channel"),
                                        ("channel", "ginibre", "state")):
            with pytest.raises(ConfigError, match=f"{fiducial} prior needs the {served} model"):
                RunConfig.from_dict({"mode": "sample", "seed": 0, "model": model,
                                     "prior": {"fiducial": fiducial}})


class TestBuildPrior:
    def test_rebit_is_two_dimensional(self):
        with pytest.raises(ConfigError, match="rebit priors are two dimensional"):
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

    def test_space_matches_the_fiducial_table(self):
        """Every prior, plain or damped, lives in the space of the model
        that FIDUCIALS names for its fiducial, and a tracked cloud keeps
        that space's basis with one diffusion-rate column."""
        means = {"state": {"diag": [0.9, 0.1]}, "channel": {"diag": [0.4, 0.1, 0.1, 0.4]},
                 "coin": 0.25}
        for fiducial, model in harness.FIDUCIALS.items():
            for gad_mean in (None, means[model]):
                prior = build_prior(PriorSpec(fiducial=fiducial, gad_mean=gad_mean), model, 2)
                assert (gad_mean is None) == (prior.fiducial is None), prior.name
                space = prior.space
                assert space.kind == model, prior.name
                assert (space.basis is None) == (model == "coin"), prior.name
                cloud = init_cloud(prior, 4, RngStream(1), rates=(0.01, 1.0))
                assert cloud.space.kind == model and cloud.space.basis is space.basis
                assert (space.n_hyper, cloud.space.n_hyper) == (0, 1)


# Each model's prior and heuristic, and a spec of every kind, at sizes that
# keep a one-step run cheap; the pairing test swaps one kind in at a time.
PAIRING_BASE = {
    "state": {"prior": {"fiducial": "ginibre"},
              "heuristic": {"kind": "random_pauli", "n_meas": 2}},
    "channel": {"prior": {"fiducial": "bcsz"},
                "heuristic": {"kind": "process_random", "n_meas": 2}},
    "coin": {"prior": {"fiducial": "coin_uniform"},
             "heuristic": {"kind": "coin", "n_meas": 2}},
}
TRUTH_SPECS = {"explicit": {"matrix": {"diag": [0.8, 0.2]}},
               "kraus": {"kraus": [{"diag": [1.0, 1.0]}]}, "from_prior": {},
               "from_distribution": {}, "coin": {"p": 0.3}}
TRAJECTORIES = {"two_tone_coin": {"f1": 0.01, "f2": 0.02}, "single_tone_coin": {"f": 0.01},
                "diffusing_state": {"step_std": 0.01}, "static": {}}
# Table -> kind -> the models that the harness tables say it serves.
SERVED = {"prior": {kind: (model,) for kind, model in harness.FIDUCIALS.items()},
          "heuristic": {kind: (model,) for kind, model in harness.HEURISTICS.items()},
          "truth": {kind: models for kind, (models, _) in harness.TRUTH_FIELDS.items()},
          "trajectory": {kind: models
                         for kind, (models, _) in harness.TRAJECTORY_KEYS.items()}}


def pairing_config(table: str, kind: str, model: str) -> dict:
    cfg = {"mode": "estimate", "seed": 1, "model": model, "n_particles": 4,
           "n_experiments": 1, "truth": {"kind": "from_prior"}, **PAIRING_BASE[model]}
    if table == "prior":
        cfg["prior"] = {"fiducial": kind}
    elif table == "heuristic":
        cfg["heuristic"] = {"kind": kind, "n_meas": 2}
        if kind == "stabilizer_qutrit" and model != "coin":
            cfg["dim"] = 3
    elif table == "truth":
        cfg["truth"] = {"kind": kind, **TRUTH_SPECS[kind]}
        if kind == "explicit" and model == "channel":  # the completely depolarizing channel
            cfg["truth"]["matrix"] = {"diag": [0.25] * 4}
        if kind == "from_distribution":
            cfg["truth"]["prior"] = cfg["prior"]
    else:
        del cfg["n_experiments"]
        cfg.update(mode="track", tracking={"n_steps": 1,
                                           "trajectory": {"kind": kind, **TRAJECTORIES[kind]}})
    return cfg


@pytest.mark.parametrize("table, kind, model", [
    pytest.param(table, kind, model, id=f"{kind}_{table}-{model}")
    for table, kinds in SERVED.items() for kind in kinds for model in harness.MODELS])
def test_tables_decide_model_pairing(table, kind, model):
    """A config parses exactly when the tables pair its kind with its
    model, and every pair they allow runs a step."""
    cfg = pairing_config(table, kind, model)
    if model not in SERVED[table][kind]:
        with pytest.raises(ConfigError, match=f"{kind} {table} needs the"):
            RunConfig.from_dict(cfg)
        return
    rec = run(RunConfig.from_dict(cfg))
    assert not rec.failed and len(rec.columns["loss"]) == 2


class TestEstimation:
    def test_record_shape(self):
        rec = run(RunConfig.from_dict(state_config()))
        assert rec.mode == "estimate"
        assert not rec.failed
        cols = rec.columns
        assert list(cols) == ["step", "time", "n_meas", "n_success", "ess", "log_norm",
                              "cov_trace", "loss", "est"]
        assert all(len(col) == 11 for col in cols.values())
        assert cols["step"].tolist() == list(range(11))
        assert cols["n_meas"].tolist() == [0] + [20] * 10
        assert cols["est"].shape == (11, 4)
        assert (cols["loss"] >= 0.0).all()
        assert len(rec.summary["mean"]) == 4
        assert len(rec.summary["covariance"]) == 4
        assert rec.summary["loss"] == cols["loss"][-1]

    def test_learning_happens(self):
        rec = run(RunConfig.from_dict(state_config(
            n_experiments=40, n_particles=1000)))
        assert rec.summary["loss"] < rec.columns["loss"][0]
        assert rec.columns["cov_trace"][-1] < rec.columns["cov_trace"][0]

    def test_deterministic_json(self, tmp_path):
        a = run(RunConfig.from_dict(state_config()))
        b = run(RunConfig.from_dict(state_config()))
        assert written_record(a, tmp_path / "a") == written_record(b, tmp_path / "b")

    def test_seed_matters(self, tmp_path):
        a = run(RunConfig.from_dict(state_config(seed=5)))
        b = run(RunConfig.from_dict(state_config(seed=6)))
        assert written_record(a, tmp_path / "a") != written_record(b, tmp_path / "b")

    def test_heralded_failure_flagged(self):
        rec = run(RunConfig.from_dict(FAIL_CONFIG))
        assert rec.failed
        assert "step 1" in rec.failure_reason
        assert all(len(col) == 1 for col in rec.columns.values())

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
        assert rec.columns["log_norm"][1] < -1000.0
        assert 1.0 <= rec.columns["ess"][1] <= 2.0

    def test_written_bytes_deterministic(self, tmp_path):
        cfg = RunConfig.from_dict(state_config())
        run(cfg).write(tmp_path / "a")
        run(cfg).write(tmp_path / "b")
        assert ((tmp_path / "a" / "record.json").read_bytes()
                == (tmp_path / "b" / "record.json").read_bytes())

    def test_coin_evidence_matches_its_exact_value(self):
        # Under a uniform prior the evidence of k_i successes in 5 shots at
        # each step is prod C(5, k_i) * B(K + 1, N - K + 1).  The SMC
        # estimate exp(total_log_norm) is unbiased for it, so its ratio to
        # the exact value averages to 1 over seeds, within 4 standard errors.
        ratios = []
        for seed in range(100, 140):
            rec = run(RunConfig.from_dict(coin_config(
                seed=seed, n_particles=1000, n_experiments=200,
                heuristic={"kind": "coin", "n_meas": 5})))
            assert not rec.failed
            k = rec.columns["n_success"][1:].tolist()
            n, total = 5 * len(k), sum(k)
            log_z = sum(math.lgamma(6) - math.lgamma(ki + 1) - math.lgamma(6 - ki) for ki in k)
            log_z += (math.lgamma(total + 1) + math.lgamma(n - total + 1)
                      - math.lgamma(n + 2))
            ratios.append(math.exp(rec.summary["total_log_norm"] - log_z))
        assert n == 1000
        mean, s = np.mean(ratios), np.std(ratios, ddof=1)
        assert abs(mean - 1.0) <= 4.0 * s / math.sqrt(len(ratios)), (mean, s)


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
        assert len(rec.columns["loss"]) == 13
        assert len(rec.summary["mean"]) == 16
        assert rec.summary["principal_eigenvalue"] >= 0.0
        assert len(rec.summary["principal_component"]) == 16
        assert rec.summary["loss"] < rec.columns["loss"][0]

    def test_adaptive_mix_runs(self):
        cfg = dict(self.CONFIG)
        cfg["heuristic"] = {"kind": "process_adaptive_mix", "n_meas": 10,
                            "n_proposals": 10, "adaptive_fraction": 0.5}
        cfg["n_experiments"] = 8
        rec = run(RunConfig.from_dict(cfg))
        assert not rec.failed

    @pytest.mark.parametrize("fraction", [1.0, 0.8])
    def test_one_covariance_per_row(self, monkeypatch, fraction):
        # Each row builds one summary, and the adaptive rule scores against
        # the covariance in it.
        calls = {"summarize": 0, "posterior_covariance": 0,
                 "posterior_mean_coords": 0, "effective_sample_size": 0}
        for name in calls:
            def counted(cloud, _name=name, _original=getattr(harness, name)):
                calls[_name] += 1
                return _original(cloud)
            monkeypatch.setattr(harness, name, counted)
        cfg = dict(self.CONFIG, n_experiments=20, heuristic={
            "kind": "process_adaptive_mix", "n_meas": 10, "n_proposals": 10,
            "adaptive_fraction": fraction})
        rec = run(RunConfig.from_dict(cfg))
        assert not rec.failed
        assert len(rec.columns["loss"]) == 21
        assert calls == {"summarize": 21, "posterior_covariance": 0,
                         "posterior_mean_coords": 0, "effective_sample_size": 0}


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
        assert np.array_equal(rec_a.columns["n_success"], rec_b.columns["n_success"])
        assert rec_a.summary["mean"] != rec_b.summary["mean"]

    def test_trials_differ(self):
        cfg = RunConfig.from_dict(risk_config())
        t0 = _filter(cfg, RngStream(cfg.seed).child(0), _set_up(cfg))
        t1 = _filter(cfg, RngStream(cfg.seed).child(1), _set_up(cfg))
        assert t0.summary["truth"] != t1.summary["truth"]

    def test_deterministic(self, tmp_path):
        a = run(RunConfig.from_dict(risk_config()))
        b = run(RunConfig.from_dict(risk_config()))
        assert written_record(a, tmp_path / "a") == written_record(b, tmp_path / "b")

    def test_thread_count_invariance(self, monkeypatch, tmp_path):
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setenv("TOMOLAB_THREADS", str(workers))
            result = run(RunConfig.from_dict(risk_config(n_trials=5)))
            assert result.workers == workers
            assert multiprocessing.active_children() == []
            results[workers] = (written_record(result, tmp_path / str(workers)),
                                result.per_trial)
        assert results[1] == results[2] == results[3]

    def test_worker_count_is_capped(self, monkeypatch, tmp_path):
        for raw, n_trials, expected in [("1000000", 2, 2), ("1000000", 100, 3),
                                        ("0", 5, 1), ("-3", 5, 1), ("2", 1, 1)]:
            monkeypatch.setenv("TOMOLAB_THREADS", raw)
            assert _workers(n_trials) == expected
        monkeypatch.setenv("TOMOLAB_THREADS", "1")
        serial = run(RunConfig.from_dict(risk_config(n_trials=2)))
        monkeypatch.setenv("TOMOLAB_THREADS", "1000000")
        capped = run(RunConfig.from_dict(risk_config(n_trials=2)))
        assert capped.workers == 2
        assert written_record(capped, tmp_path / "a") == written_record(serial, tmp_path / "b")
        assert capped.per_trial == serial.per_trial
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
            assert list(lean.columns) == ["loss"]
            assert np.array_equal(lean.columns["loss"], full.columns["loss"])
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
        cols = rec.columns
        for t, truth in zip(cols["time"], cols["truth"][:, 0]):
            expected = 0.25 * (2.0 + math.cos(2.0 * math.pi * 0.0125 * t)
                               + math.cos(2.0 * math.pi * t / 294.0))
            assert abs(truth - expected) < 1e-12
        assert (cols["eta_mean"] > 0.0).all()
        assert np.array_equal(cols["eta_mean"], cols["est"][:, -1])

    def test_single_tone_clipped(self):
        cfg = track_config()
        cfg["tracking"] = {"dt": 1.0, "n_steps": 10,
                           "trajectory": {"kind": "single_tone_coin", "f": 0.05,
                                          "offset": 0.9, "amplitude": 0.3},
                           "eta_mean": 0.01}
        rec = run(RunConfig.from_dict(cfg))
        values = rec.columns["truth"][:, 0]
        assert max(values) <= 1.0
        assert values[0] == 1.0

    def test_static_truth_converges(self):
        cfg = track_config(truth={"kind": "coin", "p": 0.7})
        cfg["tracking"] = {"dt": 1.0, "n_steps": 25,
                           "trajectory": {"kind": "static"}, "eta_mean": 0.0}
        rec = run(RunConfig.from_dict(cfg))
        assert abs(rec.columns["loss"][0] - 0.2) < 0.05
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
        truths = rec.columns["truth"]
        assert abs(truths[0, 0] - INV_SQRT2) < 1e-12
        assert not np.allclose(truths[0], truths[-1])
        assert np.abs(truths[:, 0] - INV_SQRT2).max() < 1e-12

    def test_heralded_failure_cuts_every_column(self, tmp_path):
        cfg = track_config(seed=0, n_particles=2, **IMPOSSIBLE_DATA)
        cfg["tracking"] = {"dt": 1.0, "n_steps": 5, "trajectory": {"kind": "static"},
                           "eta_mean": 0.0}
        rec = run(RunConfig.from_dict(cfg))
        assert rec.failed
        assert rec.failure_reason.startswith("step 1:")
        assert {"truth", "eta_mean"} <= set(rec.columns)
        assert all(len(col) == 1 for col in rec.columns.values())
        out = rec.write(tmp_path / "run")
        written = json.loads((out / "record.json").read_text(encoding="utf-8"))
        assert written["failed"]
        assert [row["truth"] for row in written["steps"]] == [[1.0]]
        assert len((out / "steps.csv").read_text(encoding="utf-8").splitlines()) == 2

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
        assert len(rec.columns["loss"]) == 151

    def test_deterministic(self, tmp_path):
        a = run(RunConfig.from_dict(track_config()))
        b = run(RunConfig.from_dict(track_config()))
        assert written_record(a, tmp_path / "a") == written_record(b, tmp_path / "b")

    def test_dispatcher(self):
        rec = run(RunConfig.from_dict(track_config()))
        assert rec.mode == "track"
        result = run(RunConfig.from_dict(risk_config()))
        assert hasattr(result, "curve")


class TestSummaryMeaning:
    """The record's summary describes the run's final cloud, and its total
    log norm is the sum of the per-step log norms."""

    def check(self, rec):
        assert not rec.failed
        cloud, summary = rec.final_cloud, rec.summary
        assert summary["mean"] == posterior_mean_coords(cloud).tolist()
        assert summary["covariance"] == posterior_covariance(cloud).tolist()
        assert summary["ess"] == effective_sample_size(cloud)
        total = 0.0
        for log_norm in rec.columns["log_norm"].tolist():
            total += log_norm
        assert summary["total_log_norm"] == total

    def test_qpt_summary(self):
        rec = run(RunConfig.from_dict(dict(TestQpt.CONFIG, n_particles=200,
                                           n_experiments=8)))
        self.check(rec)
        cov = posterior_covariance(rec.final_cloud)
        lam, vecs = np.linalg.eigh(cov)
        top = vecs[:, -1]
        comp = np.array(rec.summary["principal_component"])
        assert rec.summary["principal_eigenvalue"] == lam[-1] > lam[-2]
        assert abs(np.linalg.norm(comp) - 1.0) < 1e-12
        assert min(np.abs(comp - top).max(), np.abs(comp + top).max()) < 1e-12

    def test_track_summary(self):
        cfg = track_config()
        cfg["tracking"]["n_steps"] = 12
        rec = run(RunConfig.from_dict(cfg))
        self.check(rec)
        assert rec.summary["eta_mean"] == posterior_mean_coords(rec.final_cloud)[-1]


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


# A channel track config: a track run reads n_steps, not n_experiments.
TRACKED_QPT = dict({k: v for k, v in TestQpt.CONFIG.items() if k != "n_experiments"},
                   mode="track")
TRACKED_STATE = dict({k: v for k, v in state_config().items() if k != "n_experiments"},
                     mode="track")


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
        # Means that the smallest eigenvalue alone would pass as I/d.
        pytest.param("estimate", state_config(
            prior={"fiducial": "ginibre", "gad_mean": {"diag": [0.6, 0.6]}}),
            "bad ginibre prior: prior mean must have unit trace", id="mean_trace_above_1"),
        pytest.param("estimate", state_config(
            prior={"fiducial": "ginibre", "gad_mean": {"re": [[0.5, 0.2], [0.0, 0.5]]}}),
            "bad ginibre prior: prior mean is not Hermitian", id="non_hermitian_mean"),
        pytest.param("qpt", dict(TestQpt.CONFIG, prior={
            "fiducial": "bcsz", "gad_mean": {"diag": [0.3, 0.3, 0.3, 0.3]}}),
            "bad bcsz prior: prior mean must have unit trace", id="channel_mean_trace_above_1"),
        pytest.param("estimate", state_config(dim=1), "dim must be at least 2",
                     id="dim_1_random_pauli"),
        pytest.param("estimate", dict(TestQpt.CONFIG, mode="estimate", heuristic={
            "kind": "random_pauli", "n_meas": 10}),
            "random_pauli heuristic needs the state model", id="random_pauli_on_a_channel"),
        pytest.param("estimate", dict(TestQpt.CONFIG, mode="estimate", dim=3, truth={
            "kind": "kraus", "kraus": [{"diag": [1.0, 1.0, 1.0]}]}, heuristic={
            "kind": "stabilizer_qutrit", "n_meas": 10}),
            "stabilizer_qutrit heuristic needs the state model",
            id="stabilizer_qutrit_on_a_channel"),
        pytest.param("estimate", coin_config(heuristic={"kind": "random_pauli", "n_meas": 10}),
                     "random_pauli heuristic needs the state model", id="random_pauli_on_a_coin"),
        pytest.param("track", track_config(tracking=dict(
            track_config()["tracking"], trajectory={"kind": "single_tone_coin", "f": 0.01,
                                                    "ofset": 0.2, "amplitud": 0.1})),
            "unknown single_tone_coin trajectory keys: ['amplitud', 'ofset']",
            id="misspelt_trajectory_keys"),
        pytest.param("track", track_config(tracking=dict(
            track_config()["tracking"], trajectory={"kind": "three_tone_coin"})),
            "unknown trajectory kind 'three_tone_coin'", id="unknown_trajectory_kind"),
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
        pytest.param("track", track_config(tracking=dict(
            track_config()["tracking"], trajectory={"kind": "diffusing_state",
                                                    "step_std": 0.01})),
            "diffusing_state trajectory needs the state model",
            id="diffusing_state_on_a_coin"),
        pytest.param("track", dict(TRACKED_QPT, truth={
            "kind": "kraus", "kraus": [{"diag": [1.0, 1.0]}]}, tracking={
            "n_steps": 50, "trajectory": {"kind": "diffusing_state", "step_std": 0.05}}),
            "diffusing_state trajectory needs the state model",
            id="diffusing_state_on_a_channel"),
        pytest.param("estimate", coin_config(truth={
            "kind": "coin", "p": 0.3, "matrix": {"diag": [0.9, 0.1]}}),
            "coin truth does not read matrix", id="matrix_on_a_coin_truth"),
        pytest.param("estimate", state_config(truth={
            "kind": "explicit", "matrix": {"diag": [0.8, 0.2]}, "p": 0.3}),
            "explicit truth does not read p", id="p_on_an_explicit_truth"),
        pytest.param("risk", risk_config(truth={
            "kind": "from_distribution", "prior": {"fiducial": "bures"},
            "kraus": [{"diag": [1.0, 1.0]}]}),
            "from_distribution truth does not read kraus", id="kraus_on_a_drawn_truth"),
        pytest.param("estimate", coin_config(heuristic={
            "kind": "coin", "n_meas": 10, "n_proposals": 7, "adaptive_fraction": 0.1}),
            "coin heuristic does not read n_proposals, adaptive_fraction",
            id="adaptive_fields_on_a_coin_heuristic"),
        pytest.param("qpt", dict(TestQpt.CONFIG, heuristic={
            "kind": "process_random", "n_meas": 10, "adaptive_fraction": 0.5}),
            "process_random heuristic does not read adaptive_fraction",
            id="adaptive_fraction_on_random_designs"),
        pytest.param("estimate", dict(WRONG_PRIOR, tracking=track_config()["tracking"]),
                     "estimate mode does not read tracking", id="tracking_outside_track"),
        pytest.param("estimate", dict(WRONG_PRIOR, n_trials=7),
                     "estimate mode does not read n_trials", id="n_trials_outside_risk"),
        pytest.param("track", track_config(n_experiments=12),
                     "track mode does not read n_experiments",
                     id="n_experiments_in_track_mode"),
        pytest.param("track", dict(TRACKED_STATE, tracking=track_config()["tracking"]),
                     "two_tone_coin trajectory needs the coin model",
                     id="two_tone_coin_on_a_state"),
        pytest.param("track", dict(TRACKED_QPT, tracking={
            "n_steps": 3, "trajectory": {"kind": "single_tone_coin", "f": 0.01}}),
            "single_tone_coin trajectory needs the coin model",
            id="single_tone_coin_on_a_channel"),
        pytest.param("estimate", coin_config(dim=7), "coin model does not read dim",
                     id="dim_on_a_coin"),
        pytest.param("risk", risk_config(dump_cloud=True),
                     "risk mode does not read dump_cloud", id="dump_cloud_in_risk_mode"),
        pytest.param("estimate", state_config(heuristic={"kind": "mystery", "n_meas": 5}),
                     "unknown heuristic kind 'mystery'", id="unknown_heuristic_kind"),
        pytest.param("estimate", coin_config(truth={"kind": "coin", "p": 1.5}),
                     "coin truth needs p in [0, 1]", id="coin_p_above_1"),
        pytest.param("estimate", coin_config(truth={
            "kind": "explicit", "matrix": {"diag": [0.8, 0.2]}}),
            "explicit truth needs the state or channel model", id="explicit_truth_on_a_coin"),
        # Sizes that only the prior or the design rule checks.
        pytest.param("estimate", qutrit_config(prior={"fiducial": "rebit_ginibre"}),
                     "rebit priors are two dimensional", id="rebit_at_dim_3"),
        pytest.param("estimate", qutrit_config(heuristic={"kind": "random_pauli",
                                                          "n_meas": 20}),
                     "random_pauli needs a power-of-two dimension", id="random_pauli_at_dim_3"),
        pytest.param("estimate", state_config(
            dim=4, truth={"kind": "explicit", "matrix": {"diag": [0.25] * 4}},
            heuristic={"kind": "stabilizer_qutrit", "n_meas": 20}),
            "stabilizer_qutrit needs dim 3", id="stabilizer_qutrit_at_dim_4"),
        pytest.param("qpt", dict(TestQpt.CONFIG, dim=3, truth={
            "kind": "kraus", "kraus": [{"diag": [1.0, 1.0, 1.0]}]}),
            "process heuristics cover single-qubit channels", id="process_heuristic_at_dim_3"),
        pytest.param("risk", risk_config(truth={
            "kind": "from_distribution", "prior": {"fiducial": "ginibre", "rank": 3}}),
            "rank 3 must lie in [1, 2]", id="truth_prior_rank_above_dim"),
        pytest.param("risk", risk_config(truth={
            "kind": "explicit", "matrix": {"diag": [1.2, -0.2]}}),
            "explicit truth: density operator must be positive semidefinite",
            id="non_psd_truth_in_risk_mode"),
        # Matrix spec keys that the spec's form does not read.
        pytest.param("estimate", state_config(truth={
            "kind": "explicit", "matrix": {"diag": [0.5, 0.5], "im": [[0, 1], [-1, 0]]}}),
            "matrix spec keys must be diag, re, or re and im, got ['diag', 'im']",
            id="im_beside_diag_in_truth"),
        pytest.param("estimate", state_config(prior={
            "fiducial": "ginibre", "gad_mean": {"re": [[0.5, 0], [0, 0.5]], "junk": 1}}),
            "matrix spec keys must be diag, re, or re and im, got ['junk', 're']",
            id="junk_key_in_gad_mean"),
        # Checks of the specs, the priors and the matrix specs.
        pytest.param("estimate", state_config(heuristic={"kind": "random_pauli"}),
                     "heuristic n_meas is required", id="heuristic_without_n_meas"),
        pytest.param("estimate", state_config(prior={"fiducial": "haar"}),
                     "unknown fiducial prior 'haar'", id="unknown_fiducial"),
        pytest.param("estimate", state_config(prior={"fiducial": "ginibre", "rank": 0}),
                     "prior rank must be a positive integer, got 0", id="rank_0"),
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"], dt=0)),
                     "dt must be positive", id="zero_dt"),
        pytest.param("estimate", state_config(prior={"fiducial": "rebit_ginibre", "rank": 3}),
                     "rebit rank 3 must be 1 or 2", id="rebit_rank_3"),
        pytest.param("qpt", dict(TestQpt.CONFIG, prior={"fiducial": "bcsz", "rank": 5}),
                     "Kraus rank 5 must lie in [1, 4]", id="bcsz_rank_5_at_dim_2"),
        pytest.param("estimate", coin_config(prior={"fiducial": "coin_uniform",
                                                    "gad_mean": 1.5}),
                     "coin mean must lie in [0, 1]", id="coin_gad_mean_above_1"),
        pytest.param("estimate", state_config(truth={
            "kind": "explicit", "matrix": [[0.8, 0.0], [0.2]]}),
            "matrix spec rows must be equal in length", id="ragged_truth_matrix"),
        pytest.param("estimate", state_config(resample_a=10**400),
                     "resample_a must be finite, got 1000", id="resample_a_beyond_floats"),
        pytest.param("sample", {"mode": "sample", "seed": 4},
                     "sample config needs a prior spec", id="sample_without_prior"),
        pytest.param("estimate", state_config(heuristic={"kind": "random_pauli", "n_meas": 0}),
                     "heuristic n_meas must be positive", id="zero_n_meas"),
        pytest.param("qpt", dict(TestQpt.CONFIG, heuristic={
            "kind": "process_adaptive_mix", "n_meas": 10, "n_proposals": 0}),
            "heuristic n_proposals must be positive", id="zero_n_proposals"),
        pytest.param("qpt", dict(TestQpt.CONFIG, heuristic={
            "kind": "process_adaptive_mix", "n_meas": 10, "adaptive_fraction": 1.2}),
            "heuristic adaptive_fraction must lie in [0, 1]", id="adaptive_fraction_above_1"),
        # Counts that numpy cannot hold, and a clock that overflows.
        pytest.param("estimate", coin_config(heuristic={"kind": "coin", "n_meas": 2**63}),
                     "heuristic n_meas must be positive and below 2**63", id="n_meas_2**63"),
        pytest.param("estimate", coin_config(n_particles=2**63),
                     "n_particles must be at least 2 and below 2**63", id="n_particles_2**63"),
        pytest.param("estimate", coin_config(n_experiments=2**63),
                     "n_experiments must be positive and below 2**63",
                     id="n_experiments_2**63"),
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"],
                                                         n_steps=2**63)),
                     "n_steps must be positive and below 2**63", id="n_steps_2**63"),
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"],
                                                         n_steps=10**400, dt=1e308)),
                     "n_steps must be positive and below 2**63", id="n_steps_10**400"),
        pytest.param("qpt", dict(TestQpt.CONFIG, heuristic={
            "kind": "process_adaptive_mix", "n_meas": 10, "n_proposals": 2**63}),
            "heuristic n_proposals must be positive and below 2**63", id="n_proposals_2**63"),
        pytest.param("track", track_config(tracking={
            "dt": 1e308, "n_steps": 5, "trajectory": {"kind": "static"}}),
            "n_steps * dt must be finite, got inf", id="clock_beyond_floats"),
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"],
                                                         eta_log_std=1e200)),
                     "eta_log_std squared must be finite, got 1e+200",
                     id="eta_log_std_squared_beyond_floats"),
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"], trajectory={
            "kind": "two_tone_coin", "f1": 1e308, "f2": 0.01})),
            "two_tone_coin trajectory phase 2*pi*f1*n_steps*dt must be finite, got f1=1e+308",
            id="tone_f1_beyond_floats"),
        # 2*pi*f is finite here; only the phase after 25 steps is not.
        pytest.param("track", track_config(tracking=dict(track_config()["tracking"], trajectory={
            "kind": "single_tone_coin", "f": 1e307})),
            "single_tone_coin trajectory phase 2*pi*f*n_steps*dt must be finite, got f=1e+307",
            id="tone_phase_beyond_floats"),
        *(pytest.param("track", dict(TRACKED_STATE, truth={"kind": "from_prior"}, tracking={
            "n_steps": 20, "trajectory": {"kind": "diffusing_state", "step_std": std}}),
            "diffusing_state trajectory 'step_std' must be nonnegative with a finite square, "
            f"got {std!r}", id=case) for case, std in [
                ("negative_step_std", -0.1), ("step_std_beyond_floats", 1e308)]),
        # Fields that sample mode does not read.
        *(pytest.param("sample", dict(SAMPLE_CONFIG, **{field: value}),
                       f"sample mode does not read {field}", id=f"{field}_in_sample_mode")
          for field, value in [
              ("n_particles", 10), ("resample_a", 0.5), ("dump_cloud", True),
              ("heuristic", {"kind": "random_pauli", "n_meas": 10}),
              ("truth", {"kind": "explicit", "matrix": {"diag": [0.8, 0.2]}})]),
    ])
    def test_config_error_exit(self, tmp_path, capsys, monkeypatch, mode, cfg, message):
        # Risk errors must also be raised before any trial reaches a worker.
        monkeypatch.setenv("TOMOLAB_THREADS", "2")
        path = self.write_cfg(tmp_path, cfg)
        assert main([mode, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_bad_thread_env_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOMOLAB_THREADS", "two")
        path = self.write_cfg(tmp_path, risk_config())
        assert main(["risk", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: TOMOLAB_THREADS must be an integer, got 'two'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["process_adaptive_mix", "process_random"])
    def test_tracked_channel_runs(self, tmp_path, kind):
        # A tracked cloud's covariance also covers the diffusion rate;
        # adaptive designs score against the channel block alone.
        cfg = json.loads((CONFIGS / "qpt_hadamard_mix.json").read_text(encoding="utf-8"))
        del cfg["n_experiments"]
        cfg.update(mode="track", n_particles=100, heuristic={"kind": kind, "n_meas": 25},
                   tracking={"n_steps": 3, "trajectory": {"kind": "static"}})
        path = self.write_cfg(tmp_path, cfg)
        assert main(["track", "--config", path, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("argv", [
        pytest.param(["sample", "--prior", "ginibre", "--n", "2"], id="sample"),
        pytest.param(["estimate", "--config", None], id="estimate"),
    ])
    def test_out_naming_a_file_exit(self, tmp_path, capsys, monkeypatch, argv):
        # Nothing runs: the output directory is made before the run.
        monkeypatch.setattr(harness, "_filter", None)
        taken = tmp_path / "taken"
        taken.write_text("not a directory", encoding="utf-8")
        argv = [self.write_cfg(tmp_path, coin_config()) if a is None else a for a in argv]
        assert main([*argv, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output directory")
        assert err.count("\n") == 1, err
        assert taken.read_text(encoding="utf-8") == "not a directory"

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
        pytest.param(["--prior", "coin_uniform", "--dim", "3"],
                     "coin model does not read dim", id="dim_on_coin_uniform"),
        pytest.param(["--config", str(CONFIGS / "sample_ginibre_qutrit.json"),
                      "--prior", "bures", "--dim", "5"],
                     "--prior, --dim and --rank cannot be combined with --config",
                     id="flags_with_config"),
        pytest.param(["--config", str(CONFIGS / "estimate_wrong_prior.json"), "--n", "3"],
                     "config declares mode 'estimate' but 'sample' was requested",
                     id="non_sample_config"),
        pytest.param(["--prior", "ginibre", "--n", "0"], "--n must be positive", id="n_0"),
        pytest.param(["--prior", "ginibre", "--n", str(2**63)],
                     "--n must be positive and below 2**63", id="n_2_63"),
    ])
    def test_sample_flag_error_exit(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["sample", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert message in err
        assert not out.exists()

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
