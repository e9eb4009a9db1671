"""Each study script runs a shipped config and replaces only the values its
study sweeps, so at its defaults it builds that config: the scripts cannot
drift from what the benchmark and the goldens run."""

from __future__ import annotations

from importlib import import_module
from pathlib import Path

import pytest

from tomolab.harness import RunConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name, study", [
    ("estimate_wrong_prior.json", "wrong_prior"),
    ("risk_qutrit_matched.json", "qutrit_risk"),
    ("qpt_hadamard_mix.json", "qpt_adaptive"),
    ("track_two_tone.json", "coin_tracking"),
])
def test_study_at_the_shipped_values_is_the_shipped_config(name, study):
    assert import_module(f"run_{study}").config_for() == RunConfig.from_json_file(CONFIGS / name)


# Tiny arguments, and the first line of each file or directory main writes.
MAIN_RUNS = {
    "wrong_prior": ("--seeds 1", {"ensemble.csv": "seed,initial_loss,final_loss,improved,covered",
                                  "seed0/record.json": "{"}),
    "qutrit_risk": ("--trials 1 --experiments 2",
                    {"risk_curves.csv": "step,default,matched,biased,orthogonal"}),
    "qpt_adaptive": ("--pairs 1 --experiments 3", {"final_losses.csv": "seed,adaptive,random",
                                                   "seed0_adaptive/record.json": "{",
                                                   "seed0_random/record.json": "{"}),
    "coin_tracking": ("--seeds 1 --steps 20", {"two_tone_seed0.csv": "truth,tracked,static",
                                               "single_tone_f0.1.csv": "truth,tracked",
                                               "single_tone_f0.5.csv": "truth,tracked"}),
}


@pytest.mark.parametrize("study", MAIN_RUNS)
def test_main_writes_its_files(tmp_path, study):
    argv, first_lines = MAIN_RUNS[study]
    import_module(f"run_{study}").main(argv.split() + ["--out", str(tmp_path)])
    assert {p.name for p in tmp_path.iterdir()} == {n.split("/")[0] for n in first_lines}
    for name, line in first_lines.items():
        assert (tmp_path / name).read_text(encoding="utf-8").splitlines()[0] == line
