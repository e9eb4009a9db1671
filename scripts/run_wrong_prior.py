#!/usr/bin/env python3
"""Recovery-from-a-wrong-prior ensemble.

Runs the shipped ``configs/estimate_wrong_prior.json`` over a range of
seeds: true state 1/2(I + 0.9X), prior damped toward 1/2(I - 0.9X),
random Pauli designs, and a wide Liu-West kernel to escape the bad
prior.  Reports how often the final loss beats the initial one and how
often the truth lands inside the z=3 credible ellipsoid, and writes the
per-seed numbers plus one full loss curve to CSV.  Acceptance C6 runs
``ensemble``.
"""
from __future__ import annotations

import argparse
import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from tomolab.harness import RunConfig, run
from tomolab.smc import credible_ellipsoid

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "estimate_wrong_prior.json"


def config_for(seed=None, resample_a=None) -> RunConfig:
    """The shipped run, with ``seed`` and Liu-West ``resample_a`` replaced if given."""
    given = {"seed": seed, "resample_a": resample_a}
    return replace(RunConfig.from_json_file(CONFIG),
                   **{k: v for k, v in given.items() if v is not None})


def ensemble(seeds, resample_a=None):
    """One row (seed, initial loss, final loss, improved, covered) per seed,
    NaN and 0 for a heralded failure, and the record of the first seed."""
    rows, first = [], None
    for seed in seeds:
        rec = run(config_for(seed, resample_a))
        first = first or rec
        if rec.failed:
            rows.append((seed, np.nan, np.nan, 0, 0))
            continue
        covered = credible_ellipsoid(rec.final_cloud, 3.0).contains(np.array(rec.summary["truth"]))
        initial = float(rec.columns["loss"][0])
        rows.append((seed, initial, rec.summary["loss"],
                     int(rec.summary["loss"] < initial), int(covered)))
    return rows, first


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--resample-a", type=float,
                    help="Liu-West shrinkage (default: the shipped config's)")
    ap.add_argument("--out", default="results/wrong_prior")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows, first = ensemble(range(args.seeds), args.resample_a)
    if first is not None and not first.failed:
        first.write(out / "seed0")
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
