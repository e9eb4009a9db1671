#!/usr/bin/env python3
"""Track a drifting coin with one shot per step.

Runs the shipped ``configs/track_two_tone.json``: its two-tone trajectory
with the diffusive filter and with a static baseline (eta_mean = 0), then
two single-tone runs: one inside the filter bandwidth (f = 0.1) and one at
the Nyquist tone (f = 0.5) where the estimate should park at 1/2 instead
of chasing the flips.  Acceptance C9 runs ``two_tone`` and ``single_tone``.
"""
from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from tomolab.design import tracking_bandwidth
from tomolab.harness import RunConfig, run

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "track_two_tone.json"
TONES = (0.1, 0.5)  # inside the bandwidth and at the Nyquist tone


def config_for(seed=None, **tracking) -> RunConfig:
    """The shipped track run, with ``seed`` and each given tracking field replaced."""
    config = RunConfig.from_json_file(CONFIG)
    tracking = replace(config.tracking, **{k: v for k, v in tracking.items() if v is not None})
    return replace(config, seed=config.seed if seed is None else seed, tracking=tracking)


def _track(seed: int, **tracking):
    """Estimated and true coin bias at steps 1 to the last."""
    rec = run(config_for(seed, **tracking))
    if rec.failed:
        raise RuntimeError(f"seed {seed}: {rec.failure_reason}")
    return rec.columns["est"][1:, 0], rec.columns["truth"][1:, 0]


def two_tone(seed: int, n_steps=None):
    """Mean squared errors of the shipped filter and of a static one (no
    diffusion), and the table of the truth and both estimates by step."""
    est_t, truth = _track(seed, n_steps=n_steps)
    est_b, _ = _track(seed, eta_mean=0.0, n_steps=n_steps)
    return (float(np.mean((est_t - truth) ** 2)), float(np.mean((est_b - truth) ** 2)),
            np.column_stack([truth, est_t, est_b]))


def single_tone(seed: int, f: float):
    """The estimate's correlation with a tone of frequency ``f`` and its mean
    squared distance from 1/2, and the table of truth and estimate by step."""
    est, truth = _track(seed, eta_mean=0.1, n_steps=1500,
                        trajectory={"kind": "single_tone_coin", "f": f})
    return (float(np.corrcoef(est, truth)[0, 1]), float(np.mean((est - 0.5) ** 2)),
            np.column_stack([truth, est]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--steps", type=int,
                    help="two-tone run length (default: the shipped config's)")
    ap.add_argument("--out", default="results/coin_tracking")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    wins = 0
    for seed in range(args.seeds):
        mse_t, mse_b, table = two_tone(seed, args.steps)
        wins += mse_t < mse_b
        print(f"seed {seed:2d}: tracked mse {mse_t:.5f}  static mse {mse_b:.5f}")
        if seed == 0:
            np.savetxt(out / "two_tone_seed0.csv", table, delimiter=",",
                       header="truth,tracked,static", comments="")
    print(f"tracked beats static on {wins}/{args.seeds} seeds")

    for f in TONES:
        corr, tvar, table = single_tone(0, f)
        print(f"single tone f={f}: corr {corr:.3f}  var about 1/2 {tvar:.2e}")
        np.savetxt(out / f"single_tone_f{f}.csv", table, delimiter=",",
                   header="truth,tracked", comments="")

    n_meas, f_max = tracking_bandwidth(0.05, 1.9599, 1.0)
    print(f"bandwidth at sigma=0.05: n_meas {n_meas}, f_max {f_max:.6g}")


if __name__ == "__main__":
    main()
