"""Command line front end.

    tomolab <mode> --config <path> [--seed <u64>] [--out <dir>]

with modes ``estimate``, ``qpt``, ``track``, ``risk``, and ``sample``.
``sample`` can run without a config:

    tomolab sample --prior ginibre --dim 3 --rank 2 --n 1000 --seed 7 --out draws

Exit codes: 0 success, 2 configuration error, 3 heralded inference
failure.  ``TOMOLAB_THREADS`` sets the number of forked worker processes
for risk ensembles, capped by the trial count and by the CPUs the process
may run on; it never changes the results.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .harness import (COUNT_END, FIDUCIALS, ConfigError, PriorSpec, RunConfig, RunRecord,
                      build_prior, make_out_dir, run)
from .randq import RngStream


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomolab",
        description="Bayesian tomography simulations with sequential Monte Carlo")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("estimate", "qpt", "track", "risk"):
        p = sub.add_parser(mode, help=f"run a {mode} simulation")
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
    p = sub.add_parser("sample", help="draw from a prior and dump coordinates")
    p.add_argument("--config", default=None, help="optional JSON config with a prior spec")
    p.add_argument("--prior", default=None, choices=FIDUCIALS)
    p.add_argument("--dim", type=int, default=None, help=f"default {RunConfig.dim}")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    return parser


def _load(args) -> RunConfig:
    """The ``--config`` file, which must declare the requested mode."""
    config = RunConfig.from_json_file(args.config)
    if config.mode != args.mode:
        raise ConfigError(
            f"config declares mode {config.mode!r} but {args.mode!r} was requested")
    return config


def _sample(args) -> int:
    if args.config is not None:
        if any(getattr(args, flag) is not None for flag in ("prior", "dim", "rank")):
            raise ConfigError("--prior, --dim and --rank cannot be combined with --config")
        config = _load(args)
    else:
        if args.prior is None:
            raise ConfigError("sample needs --prior or --config")
        config = RunConfig(mode="sample", seed=0, model=FIDUCIALS[args.prior],
                           dim=RunConfig.dim if args.dim is None else args.dim,
                           prior=PriorSpec(fiducial=args.prior, rank=args.rank))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    prior = build_prior(config.prior, config.model, config.dim)
    if not 1 <= args.n < COUNT_END:
        raise ConfigError("--n must be positive and below 2**63")
    out = make_out_dir(args.out or config.out_dir or ".")
    rows = prior.sample(args.n, RngStream(config.seed))
    space = prior.space
    labels = ("p",) if space.kind == "coin" else space.basis.labels
    path = out / "samples.csv"
    np.savetxt(path, rows, delimiter=",", header=",".join(labels), comments="")
    print(f"wrote {args.n} draws from {prior.name} to {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.mode == "sample":
            return _sample(args)
        config = _load(args)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        out_dir = args.out or config.out_dir or "tomolab_out"
        result = run(config, out_dir)
        if isinstance(result, RunRecord):
            failed = result.failed
            status = "FAILED (heralded)" if failed else "ok"
            print(f"{config.mode}: {status}, final loss {result.summary['loss']:.6g}, "
                  f"outputs in {out_dir}")
        else:
            failed = not result.curve
            status = "FAILED (all trials heralded)" if failed else "ok"
            print(f"risk: {status}, {len(result.per_trial)} usable trials, "
                  f"outputs in {out_dir}")
        return 3 if failed else 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
