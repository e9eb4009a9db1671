"""Golden records: every shipped config, run at its own seed, writes the
same bytes as when these hashes were taken.

A refactor of the run path must leave them unchanged; a change that
alters results on purpose updates the hashes and says why.  ``meta.json``
holds wall time and the output directory, so it is not compared.

The hashes hold for one numpy and BLAS build: basis coordinates, the
Choi trace-preservation repair and the adaptive scores are BLAS
products, and another build may sum them in another order.  They do not
depend on the BLAS thread count (checked at the end of this file).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tomolab
from tomolab.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "estimate_wrong_prior": {
        "covariance.csv": "f0c0e9ab8c8b42a39735f388b9c428741644a1e04d4faa77fdadd73bda8ec6ec",
        "record.json": "f944ca5f024f534871d2e0b1c916daf4fdf569b172fced83ad298afcbae4b352",
        "steps.csv": "30ef7b6f8232c31225a2270010fce624eecc6385c003abbfa00a1b10fe8311df",
    },
    "qpt_hadamard_mix": {
        "covariance.csv": "f463b20bde613a3da727f39c290b16f2bb28f2ae33f43b9388998c59df9c4e5d",
        "record.json": "c515b93d40bd70d2da834a6509097035e7efbd8b4c45c52fe7fa24ac935cd114",
        "steps.csv": "244b51744bddb57dcf318f2484b883244e2fc1284060d1eb6116d1a8b984161b",
    },
    "risk_qutrit_matched": {
        "record.json": "33d020878e2e1935b078a59f35a2ab73a89959ab9a40e777531089fdb7834821",
        "risk_curve.csv": "ad73d86bd0fa399a8005e5b98cbe5a74a4fd4932e44632f2dee9eeee0eaea7ec",
        "trials_loss.csv": "e75639015f12edab1eeae553379372191eb2bb130496f45e44b1c54a7e923257",
    },
    "sample_ginibre_qutrit": {
        "samples.csv": "f47e87c50dc2272ae6ce18d971faa4b0f5b61e55db5a44c0b9ea06dc86b81b9b",
    },
    "track_two_tone": {
        "covariance.csv": "7d255a3a2e7be803de6bcb949006eb4f77b9698718d24bb78e861309bd6971cf",
        "record.json": "f45745d520175959dca88ac9ec707a70db82efd0f41a31364e4b4d0ad8f66177",
        "steps.csv": "ce478586b1ddc454ed6684a02c45bb46cf75bfdc6f33ba60462bd1bffb49a4a4",
    },
}


@pytest.mark.parametrize("name, threads", [
    ("estimate_wrong_prior", "1"),
    ("qpt_hadamard_mix", "1"),
    ("risk_qutrit_matched", "1"),
    ("risk_qutrit_matched", "2"),
    ("sample_ginibre_qutrit", "1"),
    ("track_two_tone", "1"),
])
def test_shipped_config_outputs(name, threads, tmp_path, monkeypatch):
    monkeypatch.setenv("TOMOLAB_THREADS", threads)
    path = CONFIGS / f"{name}.json"
    mode = json.loads(path.read_text(encoding="utf-8"))["mode"]
    assert main([mode, "--config", str(path), "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.name != "meta.json"}
    assert written == GOLDEN[name]


# configs/qpt_hadamard_mix.json at other seeds, and with random designs.
# Adaptive designs pick the proposal with the largest score, so a change
# of a few ulps in the scoring can flip a near tie: seed 0 alone does not
# catch that.
QPT_GOLDEN = {
    ("process_adaptive_mix", 1): {
        "record.json": "05d5bf95e5a0e2788f6d8096a6cbe6a1eddd64f6b7d0361e9f5452bb9879bdf7",
        "steps.csv": "356c58edcb21a9bfb5bdadcab8849146ac5bdb6d1266a86f3e357e6a67c38102",
    },
    ("process_adaptive_mix", 2): {
        "record.json": "c559fb14c460a5dc903d9c6e9b7e6d7eff52a113a102e4b566ded18bf9d52ccd",
        "steps.csv": "b5f65d02b2461a1a11463ea73dd80b57859800093b33232aa174cb80d1eca04d",
    },
    ("process_adaptive_mix", 4): {
        "record.json": "8093b89971817de6a2fe1c528709f6a6f0f8e4fb5549a4c73cda96c1264e4506",
        "steps.csv": "e72df670689ab4b38f619af051f684240865e73ad7c7a1dbf4d1a9660f104269",
    },
    ("process_random", 0): {
        "record.json": "76f459bd0bb1e40c5b617e4f1e69b94cfc0ef7d21c83613e9c4dd27732425b9a",
        "steps.csv": "30e53a9b1ca83957c2609494d1e976eda2a6d3f05d10dda19a9fc57862afa5e4",
    },
}


@pytest.mark.parametrize("kind, seed", sorted(QPT_GOLDEN))
def test_qpt_outputs_at_other_seeds(kind, seed, tmp_path):
    cfg = json.loads((CONFIGS / "qpt_hadamard_mix.json").read_text(encoding="utf-8"))
    cfg["seed"] = seed
    cfg["heuristic"]["kind"] = kind
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["qpt", "--config", str(path), "--out", str(out)]) == 0
    written = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("record.json", "steps.csv")}
    assert written == QPT_GOLDEN[kind, seed]


# Track runs along the trajectories no shipped config follows.  At dt 0.1
# the interval s*dt - (s-1)*dt differs from dt in the last bit for s >= 3,
# so these bytes also pin the interval the cloud and the walk diffuse over.
COIN_TRACK = {
    "mode": "track", "seed": 5, "model": "coin",
    "prior": {"fiducial": "coin_uniform"},
    "truth": {"kind": "coin", "p": 0.7},
    "heuristic": {"kind": "coin", "n_meas": 5},
    "n_particles": 500,
}
TRACK_CONFIGS = {
    # The tone peaks at 1.1, so the truth clips at 1.
    "single_tone_coin": dict(COIN_TRACK, tracking={
        "dt": 0.1, "n_steps": 300,
        "trajectory": {"kind": "single_tone_coin", "f": 0.05, "offset": 0.6,
                       "amplitude": 0.5}}),
    "static": dict(COIN_TRACK, tracking={
        "dt": 0.1, "n_steps": 200, "eta_mean": 0.01, "trajectory": {"kind": "static"}}),
    # Static runs from a damped coin prior, its target 0 and 1 in turn.
    **{f"static_damped_{g}": dict(
        COIN_TRACK, prior={"fiducial": "coin_uniform", "gad_mean": g},
        tracking={"dt": 0.1, "n_steps": 200, "eta_mean": 0.01,
                  "trajectory": {"kind": "static"}}) for g in (0.25, 0.8)},
    "diffusing_state": {
        "mode": "track", "seed": 5, "model": "state", "dim": 2,
        "prior": {"fiducial": "ginibre"},
        "truth": {"kind": "explicit", "matrix": {"diag": [0.7, 0.3]}},
        "heuristic": {"kind": "random_pauli", "n_meas": 5},
        "n_particles": 300,
        "tracking": {"dt": 0.1, "n_steps": 100,
                     "trajectory": {"kind": "diffusing_state", "step_std": 0.05}},
    },
}
TRACK_GOLDEN = {
    "single_tone_coin": {
        "record.json": "c07ddc1ebe3a4082a029dfa75689f2bac9a507900a3ee3a397cdb098e53bbbbb",
        "steps.csv": "00910eb592e2b4fba4bbdc0c98e584e97fe048e5b7f43205d9415ff6285b178d",
    },
    "static": {
        "record.json": "aa07eec2d324b7ab01fba2f1a0c3dc013bc877e5bfdc9fd8618f810a418be870",
        "steps.csv": "55e074eaf7f1e53bfde29e549590cb3bd328856755ca146916b5d3d892efff67",
    },
    "static_damped_0.25": {
        "record.json": "823f7138dcaddc2d1c462f20de1359326d02a7cd177d203f02c07b80f998bb2e",
        "steps.csv": "ba441ebb31ec198cf4a9be556aa97bbac20b6e679500f9b9b6d80825301a4494",
    },
    "static_damped_0.8": {
        "record.json": "09ba02119336f99fbe84ad42fa3d48625ebf86ee6835fd1dd24ef0ce0f3bb65d",
        "steps.csv": "5cb4a1d65f67bdf439595a16fca8fad76831dc8ca77c1da73d529c4acc27e369",
    },
    "diffusing_state": {
        "record.json": "9e5f0470d91f423422bf370e22694e6eda397d2762321565f418322cd06d84c5",
        "steps.csv": "4fe96fb2951fef29a301b24765d5a4a3255c63ebb7ad4aa31e15d57857e20d91",
    },
}


@pytest.mark.parametrize("kind", sorted(TRACK_GOLDEN))
def test_track_outputs_along_each_trajectory(kind, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TRACK_CONFIGS[kind]), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["track", "--config", str(path), "--out", str(out)]) == 0
    written = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("record.json", "steps.csv")}
    assert written == TRACK_GOLDEN[kind]


# A channel risk ensemble with adaptive designs: its trials record only
# their losses, so the adaptive rule builds each step's covariance itself.
RISK_ADAPTIVE_GOLDEN = {
    "record.json": "c471cc67e46dbb95c8e7c4079c5e846ed5c4eee43a1e21ef87a955859168b3a3",
    "risk_curve.csv": "704d98ccad7c96235f7285b27fa33f6d2981bd60e09589342c5da313402dfb39",
    "trials_loss.csv": "5b03182c722fa359eba7afb8beb4de6c7eb34005bda16df3d41bb7801a7440ff",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_adaptive_channel_risk_outputs(threads, tmp_path, monkeypatch):
    monkeypatch.setenv("TOMOLAB_THREADS", threads)
    cfg = json.loads((CONFIGS / "qpt_hadamard_mix.json").read_text(encoding="utf-8"))
    cfg.update(mode="risk", seed=3, n_particles=300, n_experiments=40, n_trials=4,
               truth={"kind": "from_distribution", "prior": {"fiducial": "bcsz"}})
    cfg["heuristic"]["n_proposals"] = 20
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["risk", "--config", str(path), "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "meta.json"}
    assert written == RISK_ADAPTIVE_GOLDEN


# Records must not depend on the BLAS thread count.  OpenBLAS reads
# OPENBLAS_NUM_THREADS when numpy loads, so each count runs in its own
# process.  With 2000 particles the basis products of prior draws and
# projections are large enough for OpenBLAS to split them over two
# threads; both runs resample a few times.
BLAS_THREAD_CONFIGS = {
    "qpt_adaptive": dict(
        json.loads((CONFIGS / "qpt_hadamard_mix.json").read_text(encoding="utf-8")),
        seed=1, n_particles=2000, n_experiments=200),
    "estimate_qutrit": {
        "mode": "estimate", "seed": 11, "model": "state", "dim": 3,
        "prior": {"fiducial": "ginibre", "gad_mean": {"diag": [0.9, 0.05, 0.05]}},
        "truth": {"kind": "from_distribution", "prior": {"fiducial": "ginibre"}},
        "heuristic": {"kind": "stabilizer_qutrit", "n_meas": 20},
        "n_particles": 2000, "n_experiments": 40,
    },
}


@pytest.mark.parametrize("name", sorted(BLAS_THREAD_CONFIGS))
def test_records_do_not_depend_on_blas_threads(name, tmp_path):
    cfg = BLAS_THREAD_CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    src_dir = str(Path(tomolab.__file__).resolve().parents[1])
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "tomolab", cfg["mode"], "--config", str(path),
             "--out", str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        written.append({n: (out / n).read_bytes() for n in ("record.json", "steps.csv")})
    assert written[0] == written[1]
