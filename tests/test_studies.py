"""Each study script runs a shipped config and replaces only the values
its study sweeps, so at the shipped config's own values it builds that
config: the scripts cannot drift from what the benchmark and the goldens
run."""

from __future__ import annotations

from pathlib import Path

import pytest

import run_coin_tracking
import run_qpt_adaptive
import run_qutrit_risk
import run_wrong_prior
from tomolab.harness import RunConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def wrong_prior(c):
    return run_wrong_prior.config_for(c.seed, c.resample_a)


def qutrit_risk(c):
    return run_qutrit_risk.config_for(c.seed, run_qutrit_risk.PRIORS["matched"], c.n_trials,
                                      c.n_experiments, c.heuristic.n_meas)


def qpt_adaptive(c):
    return run_qpt_adaptive.config_for(c.seed, run_qpt_adaptive.ADAPTIVE, c.n_experiments,
                                       c.heuristic.n_meas)


def coin_tracking(c):
    return run_coin_tracking.config_for(c.seed, c.tracking.eta_mean, run_coin_tracking.TWO_TONE,
                                        c.tracking.n_steps)


@pytest.mark.parametrize("name, build", [
    ("estimate_wrong_prior.json", wrong_prior),
    ("risk_qutrit_matched.json", qutrit_risk),
    ("qpt_hadamard_mix.json", qpt_adaptive),
    ("track_two_tone.json", coin_tracking),
])
def test_study_at_the_shipped_values_is_the_shipped_config(name, build):
    shipped = RunConfig.from_json_file(CONFIGS / name)
    assert build(shipped).to_dict() == shipped.to_dict()
