#!/usr/bin/env python3
"""Process tomography of 0.7 rho + 0.3 H rho H: adaptive vs random designs.

Runs the shipped ``configs/qpt_hadamard_mix.json`` in two arms.  Both
use its damped prior (mean = 0.9 x true Choi + 0.1 x depolarizing) and
matched seeds; the adaptive arm replaces 80% of the experiments with the
best of 50 proposed preparation/measurement pairs by posterior-covariance
overlap.
"""
from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from tomolab.harness import DesignHeuristic, RunConfig, run

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "qpt_hadamard_mix.json"
ADAPTIVE = {"kind": "process_adaptive_mix", "n_proposals": 50, "adaptive_fraction": 0.8}
RANDOM = {"kind": "process_random"}


def config_for(seed: int, heuristic: dict, n_experiments: int, shots: int) -> RunConfig:
    """The shipped qpt run with the design rule ``heuristic`` at ``shots``."""
    return replace(RunConfig.from_json_file(CONFIG), seed=seed,
                   heuristic=DesignHeuristic(**heuristic, n_meas=shots),
                   n_experiments=n_experiments)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--experiments", type=int, default=450)
    ap.add_argument("--shots", type=int, default=25)
    ap.add_argument("--out", default="results/qpt_adaptive")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for seed in range(args.pairs):
        rec_a = run(config_for(seed, ADAPTIVE, args.experiments, args.shots))
        rec_r = run(config_for(seed, RANDOM, args.experiments, args.shots))
        rows.append((seed, rec_a.summary["loss"], rec_r.summary["loss"]))
        print(f"seed {seed:2d}: adaptive {rows[-1][1]:.5f}  random {rows[-1][2]:.5f}")
        if seed == 0:
            rec_a.write(out / "seed0_adaptive")
            rec_r.write(out / "seed0_random")

    arr = np.array(rows)
    np.savetxt(out / "final_losses.csv", arr, delimiter=",",
               header="seed,adaptive,random", comments="")
    print(f"median adaptive {np.median(arr[:, 1]):.5f}  "
          f"median random {np.median(arr[:, 2]):.5f}")


if __name__ == "__main__":
    main()
