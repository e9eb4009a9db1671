"""tomolab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {qpt_adaptive,risk_qutrit,track_coin}
                         --seed N --seconds S --trace {0,1}

Runs ``tomolab <mode>`` in-process through ``tomolab.cli.main`` on
generated copies of a shipped config, one per operation, until S seconds
have passed, and checks every operation's outputs.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The traced run also writes
``bench_out/trace_<workload>.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import COUNTS, LAYERS, Tracer

SETUP_PROBES = 5
OUT = "bench_out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(config_path: Path) -> dict:
    """Import and warm-up times from a fresh interpreter, as the median of
    SETUP_PROBES probes: ``{"import_s", "warm_s", "setup_s"}``."""
    probe = Path(__file__).with_name("probe_setup.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), str(config_path)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {
        "import_s": statistics.median(s["import_s"] for s in samples),
        "warm_s": statistics.median(s["warm_s"] for s in samples),
        "setup_s": statistics.median(s["import_s"] + s["warm_s"] for s in samples),
    }


class Operations:
    """Generated configs and output directories of one run's operations."""

    def __init__(self, workload, bench_seed: int, run_dir: Path):
        self.workload = workload
        self.bench_seed = bench_seed
        self.run_dir = run_dir

    def prepare(self, index: int, tag: str = ""):
        """Write the config of operation ``index``; return (argv, cfg, out_dir)."""
        op_dir = self.run_dir / f"op{index}{tag}"
        out_dir = (op_dir / "out").as_posix()
        seed = workloads.op_seed(self.bench_seed, self.workload.name, index)
        cfg = workloads.op_config(self.workload, seed, out_dir)
        path = workloads.write_config(cfg, op_dir / "config.json")
        argv = [self.workload.mode, "--config", path.as_posix(), "--out", out_dir]
        return argv, cfg, out_dir


def call_cli(argv):
    """One ``tomolab`` invocation; returns (exit code, captured output)."""
    from tomolab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Ledger:
    """Attempted and failed operations, check failures, and timings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.times = []
        self.updates = 0
        self.stats = {}

    def record(self, code, output, elapsed, cfg, out_dir, check):
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"  seed {cfg['seed']}: exit {code}: {output.strip()}", file=sys.stderr)
            return
        self.times.append(elapsed)
        self.updates += workloads.updates_per_op(cfg)
        errors = check(out_dir, cfg, self.stats)
        if errors:
            self.errors.extend(f"seed {cfg['seed']}: {e}" for e in errors)
            return
        shutil.rmtree(Path(out_dir).parent)


def run_ops(ops: Operations, check, seconds=None, n_ops=None, tag="", tracer=None):
    """Run operations until ``seconds`` have passed, or exactly ``n_ops``.

    With a tracer, every operation is traced and its layer totals are
    returned with the ledger."""
    ledger = Ledger()
    per_op = []
    start = time.perf_counter()
    i = 0
    while True:
        argv, cfg, out_dir = ops.prepare(i, tag)
        totals = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code, output = call_cli(argv)
            else:
                (code, output), totals = tracer.run_op(call_cli, argv)
        except Exception as err:  # a crash is a failed operation, not a lost run
            code, output = 1, repr(err)
        elapsed = time.perf_counter() - t0 if totals is None else totals["wall_s"]
        if code == 0 and totals is not None:
            totals["cli.bytes_written"] = dir_bytes(out_dir)
            per_op.append(totals)
        ledger.record(code, output, elapsed, cfg, out_dir, check)
        i += 1
        if n_ops is not None and i >= n_ops:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return ledger, per_op


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(ops, check, seconds, setup):
    ledger, _ = run_ops(ops, check, seconds=seconds)
    metrics = {}
    if ledger.times:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "run_s": (statistics.median(ledger.times), "s"),
            "updates_per_s": (ledger.updates / sum(ledger.times), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    notes = {"run_s samples": len(ledger.times)}
    if ledger.times:
        notes.update({"run_s min": min(ledger.times), "run_s max": max(ledger.times)})
    return ledger, metrics, notes


def per_layer(ops, check, seconds, setup, workload):
    tracer = Tracer()
    tracer.install()
    try:
        traced, per_op = run_ops(ops, check, seconds=seconds, tag="t", tracer=tracer)
    finally:
        tracer.uninstall()
    # The same operations again without wrappers, for the tracing overhead.
    plain, _ = run_ops(ops, check, n_ops=traced.attempted, tag="u")
    ledger = Ledger()
    for part in (traced, plain):
        ledger.attempted += part.attempted
        ledger.failed += part.failed
        ledger.errors += part.errors
        for key, values in part.stats.items():
            ledger.stats.setdefault(key, []).extend(values)
    if not per_op or not plain.times:
        return ledger, {}, {}

    def mean(key):
        return statistics.fmean(t[key] for t in per_op)

    traced_run = mean("wall_s")
    metrics = {name: (mean(name), "s") for name in LAYERS}
    metrics.update({name: (mean(name), "count") for name in COUNTS
                    if name != "randq.matrices"})
    draws = sum(t["priors.draws"] for t in per_op)
    metrics["randq.matrices_per_draw"] = (
        sum(t["randq.matrices"] for t in per_op) / draws if draws else 0.0, "matrices/draw")
    metrics["cli.bytes_written"] = (mean("cli.bytes_written"), "B")
    metrics["setup.import_s"] = (setup["import_s"], "s")
    metrics["setup.warm_s"] = (setup["warm_s"], "s")
    metrics["trace.run_s"] = (traced_run, "s")
    metrics["trace.overhead_s"] = (traced_run - statistics.fmean(plain.times), "s")
    residual = traced_run - sum(metrics[name][0] for name in LAYERS)
    notes = {"traced ops": len(per_op), "spans per op": mean("spans"),
             "threads": per_op[0]["threads"], "layer sum residual s": residual}
    out = Path(OUT)
    out.mkdir(exist_ok=True)
    (out / f"trace_{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "bench_seed": ops.bench_seed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "untraced_run_s": plain.times, "per_op": per_op,
    }, indent=2, sort_keys=True), encoding="utf-8")
    return ledger, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads.require_program()
    os.chdir(workloads.ROOT)
    import checks

    workload = workloads.WORKLOADS[args.workload]
    os.environ["TOMOLAB_THREADS"] = str(workload.threads)
    run_dir = Path(OUT) / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    check = checks.CHECKS[workload.mode]
    ops = Operations(workload, args.seed, run_dir)
    try:
        argv0, _, _ = ops.prepare(0, "w")
        setup = probe_setup(Path(argv0[2]))
        workloads.warm(argv0[2])
        if args.trace:
            ledger, metrics, notes = per_layer(ops, check, args.seconds, setup, workload)
        else:
            ledger, metrics, notes = end_to_end(ops, check, args.seconds, setup)
    finally:
        if run_dir.exists() and not any(run_dir.rglob("record.json")):
            shutil.rmtree(run_dir)
    run_check = checks.RUN_CHECKS.get(workload.mode)
    if run_check is not None:
        ledger.errors += run_check(ledger.stats)
    correct = not ledger.errors and bool(metrics)
    for err in ledger.errors:
        print(f"CHECK FAILED {err}", file=sys.stderr)
    print(f"{workload.name}  seed {args.seed}  attempted {ledger.attempted}  "
          f"failed {ledger.failed}  correct {correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for name, value in notes.items():
        print(f"  ({name}: {value:.6g})")
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
