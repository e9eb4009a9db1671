"""Workload definitions of the tomolab benchmark.

Each workload is one shipped config run through ``tomolab.cli.main``.
An operation is one ``tomolab <mode>`` invocation on a generated copy of
that config whose seed is derived from the benchmark seed and the
operation's index.  This module imports nothing heavy, so the set-up
probe can load it before it starts its clock.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str   # file name under configs/
    mode: str     # tomolab sub-command
    threads: int  # TOMOLAB_THREADS for the run


WORKLOADS = {
    w.name: w for w in (
        # Adaptive process tomography: design scoring dominates, prior
        # draws (BCSZ) come second, resampling is almost idle.
        Workload("qpt_adaptive", "qpt_hadamard_mix.json", "qpt", 1),
        # Qutrit risk: prior sampling of 100 clouds dominates, heavy 3x3
        # projections in resampling come second; two worker threads.
        Workload("risk_qutrit", "risk_qutrit_matched.json", "risk", 2),
        # Coin tracking: the per-step engine (update, diffusion, resample
        # check, row summaries) and record writing; no prior or design cost.
        Workload("track_coin", "track_two_tone.json", "track", 1),
    )
}


def require_program() -> None:
    """Exit with code 2 when the checkout lacks the program or its configs."""
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "tomolab" / "cli.py", CONFIGS)
               if not p.exists()]
    if missing:
        print(f"bench: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def op_seed(bench_seed: int, workload: str, index: int) -> int:
    """Config seed of operation ``index``: a pure function of its arguments."""
    digest = hashlib.sha256(f"{bench_seed}/{workload}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def base_config(workload: Workload) -> dict:
    with open(CONFIGS / workload.config, encoding="utf-8") as fh:
        return json.load(fh)


def op_config(workload: Workload, seed: int, out_dir: str, overrides=None) -> dict:
    """The shipped config with the operation's seed and output directory.

    ``overrides`` replaces top-level keys, or keys of ``tracking``, to make
    the shortened workloads of the benchmark's tests.
    """
    cfg = base_config(workload)
    for key, value in (overrides or {}).items():
        if key == "n_steps":
            cfg["tracking"] = dict(cfg["tracking"], **{key: value})
        else:
            cfg[key] = value
    cfg["seed"] = seed
    cfg["out_dir"] = out_dir
    return cfg


def updates_per_op(cfg: dict) -> int:
    """Bayes updates one operation makes: experiments x trials, or steps."""
    if cfg["mode"] == "track":
        return int(cfg["tracking"]["n_steps"])
    return int(cfg["n_experiments"]) * int(cfg.get("n_trials", 1))


def write_config(cfg: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")
    return path


def warm(config_path) -> None:
    """Load and validate a config, build its priors and design rule, and
    emit one design, which fills the lazy caches of bases and designs."""
    from tomolab.harness import RunConfig, build_prior, make_heuristic
    from tomolab.randq import RngStream
    from tomolab.smc import init_cloud

    config = RunConfig.from_json_file(config_path)
    prior = build_prior(config.prior, config.model, config.dim)
    if config.truth.prior is not None:
        build_prior(config.truth.prior, config.model, config.dim)
    rule = make_heuristic(config, prior)
    rng = RngStream(config.seed)
    rule(1, init_cloud(prior, 2, rng), rng)
