"""Output checks of the benchmark operations.

Every check compares an output file against a property of the method or
against a quantity computed here with plain numpy, never against a
stored copy of earlier output.  Each ``check_<mode>(out_dir, cfg, stats)``
returns a list of failure messages, an empty list when the operation's
outputs are right, and may add per-operation figures to ``stats`` for the
run-level checks of ``RUN_CHECKS``.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import numpy as np

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

ESS_TOL = 1e-9        # relative slack on 1 <= ESS <= n_particles
LOG_NORM_TOL = 1e-12  # log predictive probability may not exceed 0
LOSS_TOL = 1e-12      # recomputed loss norms
TRUTH_TOL = 1e-12     # truth coordinates rebuilt here
CHOI_TOL = 1e-8       # PSD, unit trace, and trace preservation of the mean
QPT_LOSS_RATIO = 0.15  # geometric mean over a run's operations of final / step-0 loss
TRACK_MSE_RATIO = 0.4  # geometric mean over a run's operations of tracked / constant-1/2 MSE
RISK_KS_ALPHA = 1e-6  # false-alarm rate of the step-0 loss distribution test
RISK_MC_SAMPLES = 40000
RISK_MC_CHUNKS = 8     # drawn in chunks, to add little to the run's peak memory


def two_qubit_pauli_basis() -> np.ndarray:
    """16 Hermitian elements kron(P_a, P_b) / 2 in IXYZ order, input factor first."""
    paulis = (_I, _X, _Y, _Z)
    return np.array([np.kron(a, b) / 2.0 for a in paulis for b in paulis])


def hadamard_mix_choi() -> np.ndarray:
    """Unit-trace Choi matrix of rho -> 0.7 rho + 0.3 H rho H, input first:
    J / 2 with J = sum_ac |a><c| (x) Lambda(|a><c|)."""
    j = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for c in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, c] = 1.0
            j += np.kron(unit, 0.7 * unit + 0.3 * _H @ unit @ _H)
    return j / 2.0


def two_tone(t: float, f1: float, f2: float) -> float:
    return 0.25 * (2.0 + math.cos(2.0 * math.pi * f1 * t) + math.cos(2.0 * math.pi * f2 * t))


def damping(mean_diag) -> tuple:
    """(beta, rho_star) of the damped prior with mean diag(mean_diag):
    beta = d lam / (1 - d lam) for the smallest entry lam, and
    rho_star = (1 + beta) mu - beta I / d."""
    mu = np.diag(np.asarray(mean_diag, dtype=float)).astype(complex)
    d = mu.shape[0]
    lam = float(np.min(mean_diag))
    beta = d * lam / (1.0 - d * lam)
    return beta, (1.0 + beta) * mu - beta * np.eye(d) / d


def damped_ginibre_states(mean_diag, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of (1 - eps) rho_f + eps rho_star, with rho_f a full-rank
    Ginibre state and eps ~ Beta(1, beta), so that the mean is diag(mean_diag)."""
    beta, rho_star = damping(mean_diag)
    d = rho_star.shape[0]
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    rho_f = g @ np.conj(np.swapaxes(g, 1, 2))
    rho_f /= np.trace(rho_f, axis1=1, axis2=2).real[:, None, None]
    eps = rng.beta(1.0, beta, size=n)[:, None, None]
    return (1.0 - eps) * rho_f + eps * rho_star


def step0_losses(cfg: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of the step-0 loss |mu_hat - rho| of a risk trial.

    rho is drawn from the truth prior.  mu_hat, the mean of the initial
    cloud of n_particles prior draws, is the prior mean plus Gaussian noise
    with the prior covariance / n_particles: without that noise the spike
    of losses at |mu - rho_star| is sharper than in any real cloud."""
    mean_diag = cfg["prior"]["gad_mean"]["diag"]
    mu = np.diag(np.asarray(mean_diag, dtype=float)).astype(complex)
    truths = damped_ginibre_states(cfg["truth"]["prior"]["gad_mean"]["diag"], n, rng)
    spread = (damped_ginibre_states(mean_diag, n, rng) - mu).view(float).reshape(n, -1)
    noise = rng.multivariate_normal(np.zeros(spread.shape[1]),
                                    np.cov(spread.T) / cfg["n_particles"], size=n,
                                    method="eigh")
    return np.linalg.norm((mu - truths).view(float).reshape(n, -1) + noise, axis=1)


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, the largest gap between
    the empirical distribution functions of a and b."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    gap = (np.searchsorted(a, x, side="right") / a.size
           - np.searchsorted(b, x, side="right") / b.size)
    return float(np.abs(gap).max())


def ks_limit(n: int, m: int, alpha: float) -> float:
    """Asymptotic critical value of the two-sample statistic at level alpha."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0 * (n + m) / (n * m))


def _read_record(out: Path, errors: list):
    text = (out / "record.json").read_text(encoding="utf-8")
    record = json.loads(text)
    if json.dumps(record, sort_keys=True, indent=2) != text:
        errors.append("record.json is not canonical")
    return record


def _norm(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _check_steps(record: dict, cfg: dict, n_steps: int, errors: list) -> list:
    """Row count, ESS range, log_norm sign, and the loss of every row and
    of the summary, recomputed over the state coordinates."""
    steps, summary = record["steps"], record["summary"]
    if record["failed"]:
        errors.append(f"record is marked failed: {record['failure_reason']}")
    if record["config"]["seed"] != cfg["seed"]:
        errors.append("record config seed differs from the generated config")
    if len(steps) != n_steps + 1:
        errors.append(f"{len(steps)} step rows, expected {n_steps + 1}")
    n = cfg["n_particles"]
    for row in steps:
        if not 1.0 - ESS_TOL <= row["ess"] <= n * (1.0 + ESS_TOL):
            errors.append(f"step {row['step']}: ESS {row['ess']} outside [1, {n}]")
            break
        if row["log_norm"] > LOG_NORM_TOL:
            errors.append(f"step {row['step']}: log_norm {row['log_norm']} > 0")
            break
    truth = summary["truth"]
    w = len(truth)
    if abs(summary["loss"] - _norm(summary["mean"][:w], truth)) > LOSS_TOL:
        errors.append("summary loss is not |mean - truth| over the state coordinates")
    return truth


def check_qpt(out_dir, cfg: dict, stats: dict) -> list:
    out = Path(out_dir)
    errors = []
    record = _read_record(out, errors)
    truth = _check_steps(record, cfg, cfg["n_experiments"], errors)
    basis = two_qubit_pauli_basis()
    expected = np.einsum("kij,ji->k", basis, hadamard_mix_choi()).real
    if np.abs(np.asarray(truth) - expected).max() > TRUTH_TOL:
        errors.append("truth is not the Choi state of 0.7 rho + 0.3 H rho H")
    for row in record["steps"]:
        if abs(row["loss"] - _norm(row["est"], expected)) > LOSS_TOL:
            errors.append(f"step {row['step']}: loss is not |est - truth|")
            break
    mean = np.einsum("k,kij->ij", np.asarray(record["summary"]["mean"]), basis)
    if np.linalg.eigvalsh(mean).min() < -CHOI_TOL:
        errors.append("posterior mean is not positive semidefinite")
    if abs(np.trace(mean).real - 1.0) > CHOI_TOL:
        errors.append("posterior mean does not have unit trace")
    marginal = np.einsum("abcb->ac", mean.reshape(2, 2, 2, 2))
    if np.abs(marginal - _I / 2.0).max() > CHOI_TOL:
        errors.append("posterior mean is not trace preserving")
    first, last = record["steps"][0]["loss"], record["summary"]["loss"]
    if not last < first:
        errors.append(f"final loss {last:.4g} is not below the step-0 loss {first:.4g}")
    stats.setdefault("loss_ratio", []).append(last / first)
    return errors


def _run_ratio(ratios: list, limit: float, what: str) -> list:
    """The geometric mean of per-operation ratios over a run is at most limit."""
    if not ratios:
        return []
    mean = math.exp(statistics.fmean(math.log(r) for r in ratios))
    if not mean <= limit:
        return [f"geometric mean {what} {mean:.3g} over {len(ratios)} operations "
                f"is above {limit}"]
    return []


def check_qpt_run(stats: dict) -> list:
    """The final loss is well below the step-0 loss over a run's operations.

    One correct operation may lag far behind (final / step-0 loss has a
    median of 0.018 and reached 0.49 over 600 seeds), so the limit is on
    the geometric mean over the run, whose tail is far thinner."""
    return _run_ratio(stats.get("loss_ratio", []), QPT_LOSS_RATIO, "final / step-0 loss")


def check_track_run(stats: dict) -> list:
    """The tracked MSE is well below the MSE of the constant 1/2 estimate
    over a run's operations.

    Over 1200 seeds the ratio had median 0.32 and reached 0.49, and one
    correct operation in a benchmark run read 0.56; the geometric mean
    over a run's 20 or more operations moves by less than 0.01."""
    return _run_ratio(stats.get("mse_ratio", []), TRACK_MSE_RATIO,
                      "tracked / constant-1/2 MSE")


def check_track(out_dir, cfg: dict, stats: dict) -> list:
    out = Path(out_dir)
    errors = []
    record = _read_record(out, errors)
    _check_steps(record, cfg, cfg["tracking"]["n_steps"], errors)
    traj = cfg["tracking"]["trajectory"]
    f1, f2 = traj["f1"], traj["f2"]
    rows = record["steps"]
    for row in rows:
        if abs(row["truth"][0] - two_tone(row["time"], f1, f2)) > TRUTH_TOL:
            errors.append(f"step {row['step']}: truth is not the two-tone p(t)")
            break
        if abs(row["loss"] - abs(row["est"][0] - row["truth"][0])) > LOSS_TOL:
            errors.append(f"step {row['step']}: loss is not |est - truth|")
            break
        if not 0.0 <= row["est"][0] <= 1.0:
            errors.append(f"step {row['step']}: estimate {row['est'][0]} outside [0, 1]")
            break
        if row["eta_mean"] < 0.0:
            errors.append(f"step {row['step']}: learned eta {row['eta_mean']} < 0")
            break
    if record["summary"]["eta_mean"] < 0.0:
        errors.append("summary eta_mean < 0")
    tracked = np.mean([(r["est"][0] - r["truth"][0]) ** 2 for r in rows[1:]])
    constant = np.mean([(0.5 - r["truth"][0]) ** 2 for r in rows[1:]])
    if not tracked < constant:
        errors.append(f"tracked MSE {tracked:.4g} is not below the constant-1/2 MSE "
                      f"{constant:.4g}")
    stats.setdefault("mse_ratio", []).append(tracked / constant)
    return errors


def check_risk(out_dir, cfg: dict, stats: dict) -> list:
    out = Path(out_dir)
    errors = []
    record = _read_record(out, errors)
    n_points = cfg["n_experiments"] + 1
    if record["config"]["seed"] != cfg["seed"]:
        errors.append("record config seed differs from the generated config")
    if record["n_failed"] != 0:
        errors.append(f"{record['n_failed']} trials heralded a failure")
    curve = np.asarray(record["curve"])
    trials = np.loadtxt(out / "trials_loss.csv", delimiter=",", ndmin=2)
    if curve.shape != (n_points,) or trials.shape != (cfg["n_trials"], n_points):
        errors.append(f"curve {curve.shape} / trials {trials.shape} do not match "
                      f"{cfg['n_trials']} trials of {n_points} points")
        return errors
    if np.abs(curve - trials.mean(axis=0)).max() > LOSS_TOL:
        errors.append("curve is not the column mean of trials_loss.csv")
    saved = np.loadtxt(out / "risk_curve.csv", delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(saved[:, 1], curve):
        errors.append("risk_curve.csv does not match the record's curve")
    if not curve[-1] < curve[0]:
        errors.append("the risk curve does not fall")
    # The step-0 losses of the trials against their Monte Carlo
    # distribution: a mean alone would need wide limits, since about 3 in 4
    # losses sit in a spike near 0.12 and the rest form a long tail.
    rng = np.random.default_rng(cfg["seed"])
    reference = np.concatenate([step0_losses(cfg, RISK_MC_SAMPLES // RISK_MC_CHUNKS, rng)
                                for _ in range(RISK_MC_CHUNKS)])
    distance = ks_distance(trials[:, 0], reference)
    limit = ks_limit(trials.shape[0], reference.size, RISK_KS_ALPHA)
    if distance > limit:
        errors.append(f"step-0 losses (mean {curve[0]:.4f}) differ from the Monte Carlo "
                      f"|mu_hat - rho| (mean {reference.mean():.4f}): KS distance "
                      f"{distance:.3f} > {limit:.3f}")
    return errors


CHECKS = {"qpt": check_qpt, "track": check_track, "risk": check_risk}
RUN_CHECKS = {"qpt": check_qpt_run, "track": check_track_run}
