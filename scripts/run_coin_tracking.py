#!/usr/bin/env python3
"""Track a drifting coin with one shot per step.

Runs the shipped ``configs/track_two_tone.json``: its two-tone trajectory
with the diffusive filter and with a static baseline (eta_mean = 0), then
two single-tone runs: one inside the filter bandwidth (f = 0.1) and one at
the Nyquist tone (f = 0.5) where the estimate should park at 1/2 instead
of chasing the flips.
"""
from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from tomolab.harness import RunConfig, run
from tomolab.tracking import tracking_bandwidth

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "track_two_tone.json"
TWO_TONE = {"kind": "two_tone_coin", "f1": 1.0 / 80.0, "f2": 1.0 / 294.0}  # the shipped one


def config_for(seed: int, eta_mean: float, trajectory: dict, n_steps: int) -> RunConfig:
    """The shipped track run along ``trajectory`` for ``n_steps`` steps."""
    config = RunConfig.from_json_file(CONFIG)
    return replace(config, seed=seed, tracking=replace(
        config.tracking, eta_mean=eta_mean, trajectory=trajectory, n_steps=n_steps))


def track(seed: int, eta_mean: float, trajectory: dict, n_steps: int):
    """Estimated and true coin bias at steps 1 to ``n_steps``."""
    rec = run(config_for(seed, eta_mean, trajectory, n_steps))
    if rec.failed:
        raise RuntimeError(f"seed {seed}: {rec.failure_reason}")
    return rec.columns["est"][1:, 0], rec.columns["truth"][1:, 0]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--out", default="results/coin_tracking")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    wins = 0
    for seed in range(args.seeds):
        est_t, tru = track(seed, 0.01, TWO_TONE, args.steps)
        est_b, _ = track(seed, 0.0, TWO_TONE, args.steps)
        mse_t = float(np.mean((est_t - tru) ** 2))
        mse_b = float(np.mean((est_b - tru) ** 2))
        wins += mse_t < mse_b
        print(f"seed {seed:2d}: tracked mse {mse_t:.5f}  static mse {mse_b:.5f}")
        if seed == 0:
            np.savetxt(out / "two_tone_seed0.csv",
                       np.column_stack([tru, est_t, est_b]), delimiter=",",
                       header="truth,tracked,static", comments="")
    print(f"tracked beats static on {wins}/{args.seeds} seeds")

    for f in (0.1, 0.5):
        est, tru = track(0, 0.1, {"kind": "single_tone_coin", "f": f}, 1500)
        corr = float(np.corrcoef(est, tru)[0, 1])
        tvar = float(np.mean((est - 0.5) ** 2))
        print(f"single tone f={f}: corr {corr:.3f}  var about 1/2 {tvar:.2e}")
        np.savetxt(out / f"single_tone_f{f}.csv",
                   np.column_stack([tru, est]), delimiter=",",
                   header="truth,tracked", comments="")

    n_meas, f_max = tracking_bandwidth(0.05, 1.9599, 1.0)
    print(f"bandwidth at sigma=0.05: n_meas {n_meas}, f_max {f_max:.6g}")


if __name__ == "__main__":
    main()
