"""The run record's one-pass writer.

``RunRecord.write`` streams the step rows from the record's columns.  It
must give the bytes of ``json.dumps(payload, sort_keys=True, indent=2)``
and of ``csv.DictWriter`` on the flattened rows, and the outputs of short
real runs must pass the benchmark's own output checks
(``bench/checks.py``).
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import written_record
from tomolab import harness
from tomolab.harness import RunConfig, RunRecord, run

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def load_bench_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", REPO / "bench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKS = load_bench_checks()


def reference_rows(columns: dict) -> list:
    """The step rows as dicts of Python numbers and lists."""
    n = len(next(iter(columns.values())))
    return [{name: col[i].tolist() for name, col in columns.items()} for i in range(n)]


def reference_json(record: RunRecord) -> str:
    payload = {"config": record.config, "mode": record.mode,
               "steps": reference_rows(record.columns), "summary": record.summary,
               "failed": record.failed, "failure_reason": record.failure_reason}
    return json.dumps(payload, sort_keys=True, indent=2)


def reference_csv(columns: dict) -> bytes:
    flat_rows = []
    for row in reference_rows(columns):
        flat = {}
        for key, value in row.items():
            if isinstance(value, list):
                for i, item in enumerate(value):
                    flat[f"{key}_{i}"] = item
            else:
                flat[key] = value
        flat_rows.append(flat)
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=list(flat_rows[0]))
    writer.writeheader()
    writer.writerows(flat_rows)
    return buf.getvalue().encode("utf-8")


def odd_columns(n_rows: int, seed: int) -> dict:
    """Columns of every kind the filter writes, holding values whose text
    is easy to get wrong: ints, -0.0, the smallest subnormal, large
    exponents, -inf, +inf and NaN."""
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e-300, 1e16, 0.1,
                         1.0 / 3.0, -math.inf, math.inf, math.nan])

    def floats(*shape):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        mask = rng.random(shape) < 0.3
        values[mask] = rng.choice(specials, size=int(mask.sum()))
        return values

    step = np.arange(n_rows)
    log_norm = floats(n_rows)
    log_norm[-1] = -math.inf
    est, truth = floats(n_rows, 3), floats(n_rows, 2)
    est[0] = [-0.0, math.nan, 5e-324]
    truth[0] = [1e300, math.inf]
    return {"step": step, "time": step * 0.5, "n_meas": np.full(n_rows, 7),
            "n_success": rng.integers(0, 8, n_rows), "ess": floats(n_rows),
            "log_norm": log_norm, "cov_trace": floats(n_rows), "loss": floats(n_rows),
            "est": est, "truth": truth, "eta_mean": floats(n_rows)}


def odd_record(columns: dict) -> RunRecord:
    summary = {"n_resamples": 3, "mean": [-0.0, 5e-324, 1e300], "ess": 1.5,
               "covariance": [[1.0, -0.0], [-0.0, 2.5e-10]], "loss": 0.25,
               "total_log_norm": -1e-320, "truth": [0.5]}
    config = {"schema_version": 1, "mode": "track", "seed": 4,
              "tracking": {"n_steps": 3, "trajectory": {"kind": "static"}}, "out_dir": None}
    return RunRecord(config=config, mode="track", columns=columns, summary=summary,
                     failed=True, failure_reason="step 3: \"quoted\" é")


@pytest.mark.parametrize("n_rows", [1, 2, harness._ROW_BLOCK, 2 * harness._ROW_BLOCK + 5])
def test_writer_matches_json_dumps_and_dict_writer(tmp_path, n_rows):
    columns = odd_columns(n_rows, seed=n_rows)
    record = odd_record(columns)
    expected = reference_json(record)
    assert "NaN" in expected and "-Infinity" in expected and "-0.0" in expected
    assert written_record(record, tmp_path) == expected
    table = (tmp_path / "steps.csv").read_bytes()
    assert table == reference_csv(columns)
    assert b"nan" in table and b"-inf" in table


def test_losses_only_columns(tmp_path):
    columns = {"loss": np.array([0.5, -0.0, 5e-324])}
    record = RunRecord(config={}, mode="risk", columns=columns, summary={})
    assert written_record(record, tmp_path) == reference_json(record)


def shipped(name: str, **over) -> dict:
    cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    for key, value in over.items():
        if key == "n_steps":
            cfg["tracking"][key] = value
        else:
            cfg[key] = value
    return cfg


@pytest.mark.parametrize("seed", [0, 5])
def test_track_outputs_pass_the_benchmark_checks(tmp_path, seed):
    cfg = shipped("track_two_tone", seed=seed, n_particles=300, n_steps=400)
    run(RunConfig.from_dict(cfg)).write(tmp_path)
    assert CHECKS.check_track(tmp_path, cfg, {}) == []
    table = (tmp_path / "steps.csv").read_bytes()
    assert table.endswith(b"\r\n") and table.count(b"\r\n") == 1 + 401


def test_qpt_outputs_pass_the_benchmark_checks(tmp_path):
    cfg = shipped("qpt_hadamard_mix", n_particles=400, n_experiments=120)
    run(RunConfig.from_dict(cfg)).write(tmp_path)
    assert CHECKS.check_qpt(tmp_path, cfg, {}) == []


def test_heralded_record_is_canonical_and_holds_the_filled_rows(tmp_path):
    # Coin particles at p = 0 exactly and no diffusion: the truth
    # cos(pi t / 2), clipped to [0, 1], gives failures until step 4,
    # whose certain success no particle can explain.
    cfg = {"mode": "track", "seed": 3, "model": "coin",
           "prior": {"fiducial": "coin_uniform", "gad_mean": 2e-6},
           "truth": {"kind": "coin", "p": 0.5},
           "heuristic": {"kind": "coin", "n_meas": 1}, "n_particles": 50,
           "tracking": {"n_steps": 10, "eta_mean": 0.0,
                        "trajectory": {"kind": "single_tone_coin", "f": 0.25,
                                       "offset": 0.0, "amplitude": 1.0}}}
    record = run(RunConfig.from_dict(cfg))
    assert record.failed and record.failure_reason.startswith("step 4:")
    record.write(tmp_path)
    text = (tmp_path / "record.json").read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) == text
    assert text == reference_json(record)
    assert [row["step"] for row in json.loads(text)["steps"]] == [0, 1, 2, 3]
    table = (tmp_path / "steps.csv").read_bytes()
    assert table == reference_csv(record.columns)
    assert table.count(b"\r\n") == 1 + 4
