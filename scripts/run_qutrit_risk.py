#!/usr/bin/env python3
"""Qutrit risk curves under four priors.

Runs the shipped ``configs/risk_qutrit_matched.json`` with its prior
swapped.  Truths are drawn from a damped-Ginibre distribution with mean
diag(0.9, 0.05, 0.05); the four estimation priors are plain Ginibre, the
matched damped prior, a slightly biased one, and a nearly orthogonal one.
Trials are paired: every prior sees identical truths, designs, and data.
"""
from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from tomolab.harness import PriorSpec, RunConfig, run

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "risk_qutrit_matched.json"

PRIORS = {
    "default": None,
    "matched": [0.9, 0.05, 0.05],
    "biased": [0.87, 0.065, 0.065],
    "orthogonal": [0.065, 0.065, 0.87],
}


def config_for(seed: int, gad_mean, n_trials: int, n_experiments: int,
               shots: int) -> RunConfig:
    """The shipped risk run with the prior damped toward diag(gad_mean)
    (plain Ginibre for None)."""
    config = RunConfig.from_json_file(CONFIG)
    prior = PriorSpec("ginibre", gad_mean=None if gad_mean is None else {"diag": gad_mean})
    return replace(config, seed=seed, prior=prior, n_trials=n_trials, n_experiments=n_experiments,
                   heuristic=replace(config.heuristic, n_meas=shots))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--experiments", type=int, default=25)
    ap.add_argument("--shots", type=int, default=20)
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--out", default="results/qutrit_risk")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    curves = {}
    for name, gad_mean in PRIORS.items():
        result = run(config_for(args.seed, gad_mean, args.trials, args.experiments,
                                args.shots))
        curves[name] = np.array(result.curve)
        print(f"{name:>10}: first {curves[name][0]:.4f}  last {curves[name][-1]:.4f}"
              f"  ({result.n_failed} failed trials)")

    steps = np.arange(args.experiments + 1)
    table = np.column_stack([steps] + [curves[n] for n in PRIORS])
    np.savetxt(out / "risk_curves.csv", table, delimiter=",",
               header="step," + ",".join(PRIORS), comments="")
    print(f"matched <= default at every step: "
          f"{bool(np.all(curves['matched'] <= curves['default']))}")
    print(f"curves in {out}/risk_curves.csv")


if __name__ == "__main__":
    main()
