#!/usr/bin/env python3
"""Qutrit risk curves under four priors.

Runs the shipped ``configs/risk_qutrit_matched.json`` with its prior
swapped.  Truths are drawn from a damped-Ginibre distribution with mean
diag(0.9, 0.05, 0.05); the four estimation priors are plain Ginibre, the
shipped prior matched to that distribution, a slightly biased one, and a
nearly orthogonal one.  Trials are paired: every prior sees identical
truths, designs, and data.  Acceptance C7 runs ``curves``.
"""
from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from tomolab.harness import PriorSpec, RunConfig, run

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "risk_qutrit_matched.json"

PRIORS = {
    "default": PriorSpec("ginibre"),
    "matched": None,  # the shipped prior
    "biased": PriorSpec("ginibre", gad_mean={"diag": [0.87, 0.065, 0.065]}),
    "orthogonal": PriorSpec("ginibre", gad_mean={"diag": [0.065, 0.065, 0.87]}),
}


def config_for(prior=None, seed=None, n_trials=None, n_experiments=None, shots=None) -> RunConfig:
    """The shipped risk run, with each given value replaced."""
    config = RunConfig.from_json_file(CONFIG)
    rule = config.heuristic if shots is None else replace(config.heuristic, n_meas=shots)
    given = {"prior": prior, "seed": seed, "n_trials": n_trials, "n_experiments": n_experiments}
    return replace(config, heuristic=rule, **{k: v for k, v in given.items() if v is not None})


def curves(seed=None, n_trials=None, n_experiments=None, shots=None):
    """Each prior's ``RiskResult`` by name, and the table of their risk
    curves by step, with ``PRIORS``'s names after ``step``."""
    results = {name: run(config_for(prior, seed, n_trials, n_experiments, shots))
               for name, prior in PRIORS.items()}
    risks = [np.array(result.curve) for result in results.values()]
    return results, np.column_stack([np.arange(len(risks[0]))] + risks)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 epilog="Every flag but --out defaults to the shipped config.")
    ap.add_argument("--trials", type=int)
    ap.add_argument("--experiments", type=int)
    ap.add_argument("--shots", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", default="results/qutrit_risk")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    results, table = curves(args.seed, args.trials, args.experiments, args.shots)
    for name, result in results.items():
        print(f"{name:>10}: first {result.curve[0]:.4f}  last {result.curve[-1]:.4f}"
              f"  ({result.n_failed} failed trials)")
    np.savetxt(out / "risk_curves.csv", table, delimiter=",",
               header="step," + ",".join(PRIORS), comments="")
    matched = np.array(results["matched"].curve)
    print(f"matched <= default at every step: "
          f"{bool(np.all(matched <= results['default'].curve))}")
    print(f"curves in {out}/risk_curves.csv")


if __name__ == "__main__":
    main()
