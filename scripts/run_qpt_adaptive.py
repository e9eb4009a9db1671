#!/usr/bin/env python3
"""Process tomography of 0.7 rho + 0.3 H rho H: adaptive vs random designs.

Runs the shipped ``configs/qpt_hadamard_mix.json`` in two arms.  Both
use its damped prior (mean = 0.9 x true Choi + 0.1 x depolarizing) and
matched seeds.  The adaptive arm keeps the shipped design rule, which
picks most experiments as the best of several proposed
preparation/measurement pairs by posterior-covariance overlap; the other
arm draws every pair at random.  Acceptance C8 runs ``pair``.
"""
from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from tomolab.harness import DesignHeuristic, RunConfig, run

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "qpt_hadamard_mix.json"


def config_for(seed=None, kind=None, n_experiments=None, shots=None) -> RunConfig:
    """The shipped qpt run, with the design rule ``kind`` and each given value replaced."""
    config = RunConfig.from_json_file(CONFIG)
    rule = config.heuristic if kind is None else DesignHeuristic(kind, config.heuristic.n_meas)
    rule = rule if shots is None else replace(rule, n_meas=shots)
    given = {"seed": seed, "n_experiments": n_experiments}
    return replace(config, heuristic=rule, **{k: v for k, v in given.items() if v is not None})


def pair(seed: int, n_experiments=None, shots=None):
    """The records of the adaptive (shipped) and the random arm at ``seed``."""
    return tuple(run(config_for(seed, kind, n_experiments, shots))
                 for kind in (None, "process_random"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 epilog="--experiments and --shots default to the shipped config.")
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--experiments", type=int)
    ap.add_argument("--shots", type=int)
    ap.add_argument("--out", default="results/qpt_adaptive")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for seed in range(args.pairs):
        rec_a, rec_r = pair(seed, args.experiments, args.shots)
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
