#!/usr/bin/env python3
"""Recovery-from-a-wrong-prior ensemble.

True state 1/2(I + 0.9X), prior damped toward 1/2(I - 0.9X), 30 random
Pauli designs x 10 shots, 2000 particles.  Reports how often the final
loss beats the initial one and how often the truth lands inside the z=3
credible ellipsoid, and writes the per-seed numbers plus one full loss
curve to CSV.
"""
from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

from tomolab.harness import RunConfig, run
from tomolab.qobj import pauli_basis
from tomolab.smc import credible_ellipsoid


def config_for(seed: int, resample_a: float) -> RunConfig:
    return RunConfig.from_dict({
        "mode": "estimate", "seed": seed, "model": "state", "dim": 2,
        "prior": {"fiducial": "rebit_ginibre",
                  "gad_mean": {"re": [[0.5, -0.45], [-0.45, 0.5]]}},
        "truth": {"kind": "explicit", "matrix": {"re": [[0.5, 0.45], [0.45, 0.5]]}},
        "heuristic": {"kind": "random_pauli", "n_meas": 10},
        "n_particles": 2000, "n_experiments": 30,
        "resample_a": resample_a,
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--resample-a", type=float, default=0.85,
                    help="Liu-West shrinkage; the wide kernel helps escape the bad prior")
    ap.add_argument("--out", default="results/wrong_prior")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    basis = pauli_basis(1)
    truth_coords = basis.vectorize(
        0.5 * np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex))

    rows = []
    for seed in range(args.seeds):
        rec = run(config_for(seed, args.resample_a))
        if rec.failed:
            rows.append((seed, np.nan, np.nan, 0, 0))
            continue
        covered = credible_ellipsoid(rec.final_cloud, 3.0).contains(truth_coords)
        initial = float(rec.columns["loss"][0])
        rows.append((seed, initial, rec.summary["loss"],
                     int(rec.summary["loss"] < initial), int(covered)))
        if seed == 0:
            rec.write(out / "seed0")

    with open(out / "ensemble.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "initial_loss", "final_loss", "improved", "covered"])
        writer.writerows(rows)

    improved = sum(r[3] for r in rows)
    covered = sum(r[4] for r in rows)
    print(f"improved {improved}/{args.seeds}, truth in z=3 ellipsoid "
          f"{covered}/{args.seeds}, details in {out}/ensemble.csv")


if __name__ == "__main__":
    main()
