"""Steadiness check: run each workload several times with different seeds.

    python3 bench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs ``bench/run.py --trace 0`` once per seed, one run at a time, each
for the ``run_seconds`` of ``BENCHMARK.json`` that the bounds apply to, and
prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
(q3 - q1) / median, and the bound from ``BENCHMARK.json``, plus the share
of failed operations.  The runs' results go to
``bench_out/steady_<workload>_<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    notes = [l.strip() for l in lines if l.strip().startswith("(")]
    print("    " + " ".join(notes), flush=True)
    return json.loads(lines[-1])


def summarize(results: list, bounds: dict) -> list:
    rows = []
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rows.append({"metric": name, "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "bound": bound,
                     "unit": results[0]["metrics"][name]["unit"]})
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = ROOT / "bench_out"
    out.mkdir(exist_ok=True)
    for workload in args.workload or names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()),
                flush=True)
        rows = summarize(results, bounds)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"failed share {shares}, all correct {all(r['correct'] for r in results)}")
        print(f"  {'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
        for row in rows:
            flag = "" if row["spread"] <= row["bound"] / 3 else "  (above bound/3)"
            print(f"  {row['metric']:<14} {row['median']:>11.5g} {row['q1']:>11.5g} "
                  f"{row['q3']:>11.5g} {row['spread']:>8.4f} {row['bound']:>6}{flag}")
        (out / f"steady_{workload}_{args.first_seed}.json").write_text(
            json.dumps({"seeds": list(seeds), "seconds": spec["run_seconds"],
                        "results": results, "summary": rows}, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
