#!/usr/bin/env python3
"""Process tomography of 0.7 rho + 0.3 H rho H: adaptive vs random designs.

Both arms use the same damped prior (mean = 0.9 x true Choi + 0.1 x
depolarizing) and matched seeds; the adaptive arm replaces 80% of the
experiments with the best of 50 proposed preparation/measurement pairs
by posterior-covariance overlap.
"""
from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np

from tomolab.harness import RunConfig, run
from tomolab.qobj import choi_of_channel

H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
KRAUS = [math.sqrt(0.7) * np.eye(2, dtype=complex), math.sqrt(0.3) * H]
ADAPTIVE = {"kind": "process_adaptive_mix", "n_proposals": 50, "adaptive_fraction": 0.8}
RANDOM = {"kind": "process_random"}


def config_for(seed: int, heuristic: dict, n_experiments: int, shots: int) -> RunConfig:
    j_true = choi_of_channel(KRAUS).matrix
    gad_mean = 0.9 * j_true + 0.1 * np.eye(4) / 4.0
    return RunConfig.from_dict({
        "mode": "qpt", "seed": seed, "model": "channel", "dim": 2,
        "prior": {"fiducial": "bcsz",
                  "gad_mean": {"re": gad_mean.real.tolist(),
                               "im": gad_mean.imag.tolist()}},
        "truth": {"kind": "kraus",
                  "kraus": [{"re": k.real.tolist(), "im": k.imag.tolist()}
                            for k in KRAUS]},
        "heuristic": dict(heuristic, n_meas=shots),
        "n_particles": 2000, "n_experiments": n_experiments,
    })


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
