"""Simulation harness: declarative run configs, the one SMC filter loop
that estimation, process tomography, risk trials and tracking share, risk
ensembles, and serialized run records.

A run is configured by a single JSON document with a versioned schema,
executed with streams derived deterministically from one seed, and
written out as a canonical ``record.json`` plus per-step CSVs.  Identical
(config, seed) pairs produce byte-identical canonical outputs; wall-clock
timing and the output directory go to a separate metadata file so they
never break that.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import design as design_mod
from .likelihood import coin_design, simulate_experiment
from .priors import (
    PriorDistribution,
    bcsz_prior,
    bures_prior,
    coin_insightful_prior,
    coin_uniform_prior,
    ginibre_prior,
    insightful_prior,
    rebit_ginibre_prior,
)
from .qobj import ChoiState, DensityOperator, choi_of_channel
from .randq import RngStream
from .smc import (
    ESS_THRESHOLD,
    LIU_WEST_A,
    DegenerateUpdateError,
    ParticleCloud,
    bayes_update,
    effective_sample_size,
    init_cloud,
    maybe_resample,
    posterior_covariance,
    posterior_mean_coords,
    principal_components,
    summarize,
)
from .tracking import diffuse_cloud, lognormal_eta_sampler, truncate_to_state

SCHEMA_VERSION = 1

MODES = ("estimate", "qpt", "track", "risk", "sample")
MODELS = ("state", "channel", "coin")
FIDUCIALS = ("ginibre", "bures", "rebit_ginibre", "bcsz", "coin_uniform")


class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


def decode_matrix(spec) -> np.ndarray:
    """Decode a JSON matrix spec: nested real lists, {"diag": [...]}, or
    {"re": [[...]], "im": [[...]]}."""
    if isinstance(spec, dict):
        if "diag" in spec:
            return np.diag(np.asarray(spec["diag"], dtype=float)).astype(complex)
        if "re" in spec:
            re = np.asarray(spec["re"], dtype=float)
            im = np.asarray(spec.get("im", np.zeros_like(re)), dtype=float)
            if re.shape != im.shape:
                raise ConfigError("re and im blocks must have equal shapes")
            return re + 1j * im
        raise ConfigError(f"unknown matrix spec keys {sorted(spec)}")
    arr = np.asarray(spec, dtype=float)
    if arr.ndim != 2:
        raise ConfigError("matrix spec must be two dimensional")
    return arr.astype(complex)


def _take(raw, allowed: dict, what: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    merged = dict(allowed)
    merged.update(raw)
    return merged


def _integer(block: dict, key: str, what: str = "") -> int:
    """``block[key]`` if it is a JSON integer; floats, strings and booleans
    are config errors, not silently converted."""
    value = block[key]
    if type(value) is not int:
        raise ConfigError(f"{what}{key} must be an integer, got {value!r}")
    return value


def _defaults(cls) -> dict:
    """Each field of dataclass ``cls`` mapped to its default (None if required)."""
    return {f.name: None if f.default is MISSING else f.default for f in fields(cls)}


@dataclass(frozen=True)
class PriorSpec:
    """Prior declared by fiducial name, rank, and optional damped mean."""

    fiducial: str
    rank: Optional[int] = None
    gad_mean: object = None  # matrix spec for states/channels, float for coins

    @classmethod
    def from_dict(cls, raw: dict) -> "PriorSpec":
        merged = _take(raw, _defaults(cls), "prior")
        if merged["fiducial"] not in FIDUCIALS:
            raise ConfigError(f"unknown fiducial prior {merged['fiducial']!r}")
        rank = merged["rank"]
        if rank is not None and (type(rank) is not int or rank < 1):
            raise ConfigError(f"prior rank must be a positive integer, got {rank!r}")
        return cls(**merged)


@dataclass(frozen=True)
class TruthSpec:
    """What the simulator measures against."""

    kind: str  # "explicit" | "kraus" | "from_prior" | "from_distribution" | "coin"
    matrix: object = None
    kraus: object = None
    p: Optional[float] = None
    prior: Optional[PriorSpec] = None

    @classmethod
    def from_dict(cls, raw: dict) -> "TruthSpec":
        merged = _take(raw, _defaults(cls), "truth")
        kind = merged["kind"]
        if kind not in ("explicit", "kraus", "from_prior", "from_distribution", "coin"):
            raise ConfigError(f"unknown truth kind {kind!r}")
        prior = PriorSpec.from_dict(merged["prior"]) if merged["prior"] else None
        if kind == "from_distribution" and prior is None:
            raise ConfigError("from_distribution truth needs a prior spec")
        return cls(kind=kind, matrix=merged["matrix"], kraus=merged["kraus"],
                   p=merged["p"], prior=prior)


@dataclass(frozen=True)
class TrackingSpec:
    """Clock, trajectory, and diffusion-rate prior of a tracking run."""

    n_steps: int
    trajectory: dict
    dt: float = 1.0
    eta_mean: float = 0.006
    eta_log_std: float = 1.0

    @classmethod
    def from_dict(cls, raw: dict) -> "TrackingSpec":
        merged = _take(raw, _defaults(cls), "tracking")
        if merged["n_steps"] is None or merged["trajectory"] is None:
            raise ConfigError("tracking needs n_steps and a trajectory")
        n_steps = _integer(merged, "n_steps", "tracking ")
        if n_steps < 1:
            raise ConfigError("n_steps must be positive")
        if merged["dt"] <= 0.0:
            raise ConfigError("dt must be positive")
        if merged["eta_mean"] < 0.0 or merged["eta_log_std"] < 0.0:
            raise ConfigError("eta_mean and eta_log_std must be nonnegative")
        return cls(dt=float(merged["dt"]), n_steps=n_steps,
                   trajectory=dict(merged["trajectory"]),
                   eta_mean=float(merged["eta_mean"]),
                   eta_log_std=float(merged["eta_log_std"]))


@dataclass(frozen=True)
class RunConfig:
    """Complete, validated description of one simulation."""

    mode: str
    seed: int
    model: str = "state"
    dim: int = 2
    prior: Optional[PriorSpec] = None
    truth: Optional[TruthSpec] = None
    heuristic: Optional[design_mod.DesignHeuristic] = None
    n_particles: int = 2000
    n_experiments: int = 30
    n_trials: int = 1
    resample_a: float = LIU_WEST_A
    resample_threshold: float = ESS_THRESHOLD
    tracking: Optional[TrackingSpec] = None
    dump_cloud: bool = False
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.seed is None or int(self.seed) < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.model != "coin" and self.dim < 2:
            raise ConfigError("dim must be at least 2")
        if self.n_particles < 2:
            raise ConfigError("n_particles must be at least 2")
        if self.mode in ("estimate", "qpt", "risk") and self.n_experiments < 1:
            raise ConfigError("n_experiments must be positive")
        if self.mode == "risk" and self.n_trials < 1:
            raise ConfigError("n_trials must be positive")
        if not 0.0 < self.resample_a <= 1.0:
            raise ConfigError("resample_a must lie in (0, 1]")
        if not 0.0 < self.resample_threshold <= 1.0:
            raise ConfigError("resample_threshold must lie in (0, 1]")
        if self.mode == "qpt" and self.model != "channel":
            raise ConfigError("qpt mode requires the channel model")
        if self.mode == "track" and self.tracking is None:
            raise ConfigError("track mode needs a tracking spec")
        if self.mode != "sample" and (self.prior is None or self.truth is None
                                      or self.heuristic is None):
            raise ConfigError("prior, truth, and heuristic are required")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        merged = _take(raw, {"schema_version": SCHEMA_VERSION, **_defaults(cls)}, "config")
        if merged["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {merged['schema_version']!r}")
        heuristic = None
        if merged["heuristic"] is not None:
            hraw = _take(merged["heuristic"], _defaults(design_mod.DesignHeuristic),
                         "heuristic")
            n_meas = _integer(hraw, "n_meas", "heuristic ")
            n_proposals = _integer(hraw, "n_proposals", "heuristic ")
            try:
                heuristic = design_mod.DesignHeuristic(
                    kind=hraw["kind"], n_meas=n_meas, n_proposals=n_proposals,
                    adaptive_fraction=float(hraw["adaptive_fraction"]))
            except (TypeError, ValueError) as err:
                raise ConfigError(f"bad heuristic: {err}") from err
        if type(merged["dump_cloud"]) is not bool:
            raise ConfigError(f"dump_cloud must be true or false, got {merged['dump_cloud']!r}")
        try:
            return cls(
                mode=merged["mode"], seed=_integer(merged, "seed"),
                model=merged["model"], dim=_integer(merged, "dim"),
                prior=PriorSpec.from_dict(merged["prior"]) if merged["prior"] else None,
                truth=TruthSpec.from_dict(merged["truth"]) if merged["truth"] else None,
                heuristic=heuristic,
                n_particles=_integer(merged, "n_particles"),
                n_experiments=_integer(merged, "n_experiments"),
                n_trials=_integer(merged, "n_trials"),
                resample_a=float(merged["resample_a"]),
                resample_threshold=float(merged["resample_threshold"]),
                tracking=TrackingSpec.from_dict(merged["tracking"]) if merged["tracking"] else None,
                dump_cloud=merged["dump_cloud"],
                out_dir=merged["out_dir"],
            )
        except (TypeError, ValueError) as err:
            if isinstance(err, ConfigError):
                raise
            raise ConfigError(str(err)) from err

    @classmethod
    def from_json_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        """The config as the canonical record stores it.

        ``out_dir`` says where outputs go, not what they are, so it is
        left out: one config and seed give the same record in any
        directory.
        """
        out = {"schema_version": SCHEMA_VERSION}
        for key, value in asdict(self).items():
            if key != "out_dir":
                out[key] = value
        return out


def quadratic_loss(est_coords, true_coords, q: Optional[np.ndarray] = None) -> float:
    """Quadratic loss (x_est - x_true)^T Q (x_est - x_true).

    With the default identity Q this is the squared coordinate 2-norm,
    i.e. Tr[(rho_est - rho_true)**2] for states in an orthonormal basis.
    """
    delta = np.asarray(est_coords, dtype=float) - np.asarray(true_coords, dtype=float)
    if delta.ndim != 1:
        raise ValueError("coordinate vectors must be flat")
    if q is None:
        return float(delta @ delta)
    q = np.asarray(q, dtype=float)
    if q.shape != (delta.shape[0], delta.shape[0]):
        raise ValueError("Q must be square and match the coordinates")
    return float(delta @ q @ delta)


def loss_norm(est_coords, true_coords) -> float:
    """Coordinate 2-norm of the estimation error (what risk curves report)."""
    return math.sqrt(quadratic_loss(est_coords, true_coords))


def _threads() -> int:
    raw = os.environ.get("TOMOLAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as err:
        raise ConfigError(f"TOMOLAB_THREADS must be an integer, got {raw!r}") from err
    return max(1, n)


def build_prior(spec: PriorSpec, model: str, dim: int) -> PriorDistribution:
    """Instantiate a prior from its declaration.

    The prior depends on nothing but the declaration, so whatever the
    constructors reject is raised as a :class:`ConfigError`.
    """
    try:
        if model == "coin":
            if spec.fiducial != "coin_uniform":
                raise ConfigError("coin runs use the coin_uniform fiducial")
            if spec.gad_mean is None:
                return coin_uniform_prior()
            return coin_insightful_prior(float(spec.gad_mean))
        if spec.fiducial == "coin_uniform":
            raise ConfigError("coin_uniform prior needs the coin model")
        if spec.fiducial == "ginibre":
            base = ginibre_prior(dim, rank=spec.rank)
        elif spec.fiducial == "bures":
            base = bures_prior(dim)
        elif spec.fiducial == "rebit_ginibre":
            if dim != 2:
                raise ConfigError("rebit priors are two dimensional")
            base = rebit_ginibre_prior(rank=spec.rank if spec.rank else 2)
        elif spec.fiducial == "bcsz":
            if model != "channel":
                raise ConfigError("bcsz prior needs the channel model")
            base = bcsz_prior(dim, kraus_rank=spec.rank)
        else:
            raise ConfigError(f"unknown fiducial prior {spec.fiducial!r}")
        if (model == "channel") != (spec.fiducial == "bcsz"):
            raise ConfigError("channel runs need the bcsz fiducial and vice versa")
        if spec.gad_mean is None:
            return base
        return insightful_prior(base, decode_matrix(spec.gad_mean))
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {spec.fiducial} prior: {err}") from err


def resolve_truth(spec: TruthSpec, prior: PriorDistribution, model: str,
                  dim: int, rng: RngStream) -> np.ndarray:
    """Coordinates of the true state, channel, or coin."""
    if model == "coin":
        if spec.kind == "coin":
            if type(spec.p) not in (int, float) or not 0.0 <= spec.p <= 1.0:
                raise ConfigError("coin truth needs p in [0, 1]")
            return np.array([float(spec.p)])
        if spec.kind == "from_prior":
            return prior.sample(1, rng)[0]
        raise ConfigError(f"truth kind {spec.kind!r} is not defined for coins")
    basis = prior.basis
    try:
        if spec.kind == "explicit":
            mat = decode_matrix(spec.matrix)
            if model == "channel":
                ChoiState(matrix=mat, dim_in=dim, dim_out=dim)
            else:
                DensityOperator(matrix=mat)
            return basis.vectorize(mat)
        if spec.kind == "kraus":
            if model != "channel":
                raise ConfigError("kraus truth needs the channel model")
            kraus = [decode_matrix(k) for k in spec.kraus]
            return basis.vectorize(choi_of_channel(kraus).matrix)
    except ValueError as err:
        raise ConfigError(f"{spec.kind} truth: {err}") from err
    if spec.kind == "from_prior":
        return prior.sample(1, rng)[0]
    if spec.kind == "from_distribution":
        dist = build_prior(spec.prior, model, dim)
        return dist.sample(1, rng)[0]
    raise ConfigError(f"truth kind {spec.kind!r} is not usable here")


def make_heuristic(config: RunConfig, prior: PriorDistribution) -> Callable:
    """Turn the declared heuristic into ``f(step, cloud, rng, time)``."""
    h = config.heuristic
    basis = prior.basis
    if h.kind == "coin":
        if config.model != "coin":
            raise ConfigError("coin heuristic needs the coin model")

        def coin_rule(step, cloud, rng, time=0.0):
            return coin_design(h.n_meas, time=time)
        return coin_rule
    if h.kind == "random_pauli":
        n_qubits = int(math.log2(config.dim))
        if 2**n_qubits != config.dim:
            raise ConfigError("random_pauli needs a power-of-two dimension")

        def pauli_rule(step, cloud, rng, time=0.0):
            return design_mod.random_pauli_design(n_qubits, h.n_meas, rng, time=time)
        return pauli_rule
    if h.kind == "stabilizer_qutrit":
        if config.dim != 3:
            raise ConfigError("stabilizer_qutrit needs dim 3")

        def stab_rule(step, cloud, rng, time=0.0):
            return design_mod.random_stabilizer_qutrit_design(h.n_meas, rng, time=time)
        return stab_rule
    if h.kind in ("process_random", "process_adaptive_mix"):
        if config.model != "channel" or config.dim != 2:
            raise ConfigError("process heuristics cover single-qubit channels")

        def random_rule(step, cloud, rng, time=0.0):
            return design_mod.random_process_design(h.n_meas, rng, basis, time=time)

        if h.kind == "process_random":
            return random_rule

        def adaptive_rule(step, cloud, rng, time=0.0):
            def adaptive():
                proposals = [design_mod.random_process_design(h.n_meas, rng, basis, time=time)
                             for _ in range(h.n_proposals)]
                return design_mod.adaptive_design(proposals, posterior_covariance(cloud))

            def rand():
                return random_rule(step, cloud, rng, time=time)

            return design_mod.scheduled_mix(
                [rand, adaptive], [1.0 - h.adaptive_fraction, h.adaptive_fraction], rng)
        return adaptive_rule
    raise ConfigError(f"unknown heuristic kind {h.kind!r}")


@dataclass
class RunRecord:
    """Everything one run produced.

    ``to_json`` is canonical and excludes wall time and the output
    directory, so identical (config, seed) pairs serialize to identical
    bytes.
    """

    config: dict
    mode: str
    steps: list
    summary: dict
    failed: bool = False
    failure_reason: Optional[str] = None
    wall_time: float = 0.0
    final_cloud: Optional[ParticleCloud] = None

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "mode": self.mode,
            "steps": self.steps,
            "summary": self.summary,
            "failed": self.failed,
            "failure_reason": self.failure_reason,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "record.json").write_text(self.to_json(), encoding="utf-8")
        _write_meta(out, self.wall_time)
        if self.steps:
            _write_csv(out / "steps.csv", self.steps)
        cov = self.summary.get("covariance")
        if cov is not None:
            np.savetxt(out / "covariance.csv", np.asarray(cov), delimiter=",")
        if self.final_cloud is not None and self.config.get("dump_cloud"):
            dump = np.column_stack([self.final_cloud.weights, self.final_cloud.locations])
            header = "weight," + ",".join(
                f"x{i}" for i in range(self.final_cloud.locations.shape[1]))
            np.savetxt(out / "final_cloud.csv", dump, delimiter=",",
                       header=header, comments="")
        return out


def _write_meta(out: Path, wall_time: float) -> None:
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump({"wall_time_s": wall_time, "out_dir": out.as_posix()}, fh, indent=2)


def _write_csv(path: Path, rows: list) -> None:
    flat_rows = []
    for row in rows:
        flat = {}
        for key, value in row.items():
            if isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    flat[f"{key}_{i}"] = item
            else:
                flat[key] = value
        flat_rows.append(flat)
    fieldnames = []
    for flat in flat_rows:
        for key in flat:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(flat_rows)


def _coords_list(arr) -> list:
    return [float(v) for v in np.asarray(arr).ravel()]


def _make_trajectory(config: RunConfig, prior: PriorDistribution,
                     truth_rng: RngStream) -> Callable[[float], np.ndarray]:
    """The truth as a function of time; constant unless the run tracks."""
    spec = config.tracking.trajectory if config.mode == "track" else {"kind": "static"}
    kind = spec.get("kind")

    def number(key: str, default=None) -> float:
        value = spec.get(key, default)
        try:
            return float(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{kind} trajectory needs a number {key!r}, "
                              f"got {value!r}") from err

    if kind == "two_tone_coin":
        f1, f2 = number("f1"), number("f2")

        def two_tone(t: float) -> np.ndarray:
            p = 0.25 * (2.0 + math.cos(2.0 * math.pi * f1 * t)
                        + math.cos(2.0 * math.pi * f2 * t))
            return np.array([p])
        return two_tone
    if kind == "single_tone_coin":
        f = number("f")
        offset = number("offset", 0.5)
        amplitude = number("amplitude", 0.5)

        def single_tone(t: float) -> np.ndarray:
            p = offset + amplitude * math.cos(2.0 * math.pi * f * t)
            return np.array([min(max(p, 0.0), 1.0)])
        return single_tone
    if kind == "diffusing_state":
        std = number("step_std")
        start = resolve_truth(config.truth, prior, config.model, config.dim, truth_rng)
        basis = prior.basis
        state = {"coords": start, "t": 0.0}

        def diffusing(t: float) -> np.ndarray:
            if t > state["t"]:
                coords = state["coords"].copy()
                coords[1:] += truth_rng.generator.standard_normal(coords.size - 1) * std
                mat = truncate_to_state(basis.devectorize(coords))
                state["coords"] = basis.vectorize(mat)
                state["t"] = t
            return state["coords"]
        return diffusing
    if kind == "static":
        fixed = resolve_truth(config.truth, prior, config.model, config.dim, truth_rng)

        def static(t: float) -> np.ndarray:
            return fixed
        return static
    raise ConfigError(f"unknown trajectory kind {kind!r}")


def _filter(config: RunConfig, root: RngStream) -> RunRecord:
    """Run the SMC filter along one truth trajectory.

    Estimate, qpt and risk runs hold the truth fixed for
    ``n_experiments`` steps at time 0.  Track runs follow the configured
    trajectory for ``n_steps`` steps of ``dt`` and diffuse the cloud over
    each interval before its update.  Children 0-3 of ``root`` feed the
    truth, the designs, the data and the engine.
    """
    start = time.perf_counter()
    truth_rng, design_rng, data_rng, engine_rng = (root.child(i) for i in range(4))
    prior = build_prior(config.prior, config.model, config.dim)
    heuristic = make_heuristic(config, prior)
    trajectory = _make_trajectory(config, prior, truth_rng)
    tr = config.tracking if config.mode == "track" else None
    eta_sampler = None if tr is None else lognormal_eta_sampler(tr.eta_mean, tr.eta_log_std)
    cloud = init_cloud(prior, config.n_particles, engine_rng, eta_sampler=eta_sampler)
    w = cloud.space.n_state_coords
    total_log_norm = 0.0
    n_resamples = 0

    def row_of(step, t, truth, n_meas, n_success, log_norm):
        est = posterior_mean_coords(cloud)
        row = {
            "step": step, "time": t, "n_meas": n_meas, "n_success": n_success,
            "ess": effective_sample_size(cloud), "log_norm": log_norm,
            "cov_trace": float(np.trace(posterior_covariance(cloud))),
            "loss": loss_norm(est[:w], truth[:w]),
            "est": _coords_list(est),
        }
        if tr is not None:
            row["truth"] = _coords_list(truth)
            row["eta_mean"] = float(est[-1])
        return row

    truth = trajectory(0.0)
    rows = [row_of(0, 0.0, truth, 0, 0, 0.0)]
    failed = False
    reason = None
    n_steps, dt = (config.n_experiments, 0.0) if tr is None else (tr.n_steps, tr.dt)
    prev_t = 0.0
    for step in range(1, n_steps + 1):
        t = step * dt
        truth = trajectory(t)
        exp_design = heuristic(step, cloud, design_rng, time=t)
        if tr is not None:
            cloud = diffuse_cloud(cloud, t - prev_t, engine_rng)
        datum = simulate_experiment(truth, exp_design, data_rng)
        try:
            cloud, log_norm = bayes_update(cloud, datum)
        except DegenerateUpdateError as err:
            failed = True
            reason = f"step {step}: {err}"
            break
        total_log_norm += log_norm
        before = cloud
        cloud = maybe_resample(cloud, engine_rng, a=config.resample_a,
                               threshold=config.resample_threshold)
        n_resamples += int(cloud is not before)
        rows.append(row_of(step, t, truth, exp_design.n_meas, datum.n_success, log_norm))
        prev_t = t
    summ = summarize(cloud, total_log_norm=total_log_norm)
    est = posterior_mean_coords(cloud)
    summary = {
        "mean": _coords_list(est),
        "covariance": [_coords_list(r) for r in summ.covariance],
        "ess": summ.ess,
        "total_log_norm": summ.total_log_norm,
        "loss": loss_norm(est[:w], truth[:w]),
        "truth": _coords_list(truth),
        "n_resamples": n_resamples,
    }
    if tr is not None:
        summary["eta_mean"] = float(est[-1])
    elif config.model == "channel":
        lam, comp = principal_components(summ, 1)[0]
        summary["principal_eigenvalue"] = lam
        summary["principal_component"] = _coords_list(comp.coords)
    return RunRecord(config=config.to_dict(), mode=config.mode, steps=rows,
                     summary=summary, failed=failed, failure_reason=reason,
                     wall_time=time.perf_counter() - start, final_cloud=cloud)


@dataclass
class RiskResult:
    """Ensemble average of per-trial loss curves."""

    config: dict
    curve: list
    per_trial: list
    n_failed: int
    wall_time: float = 0.0

    def to_json(self) -> str:
        payload = {"config": self.config, "curve": self.curve,
                   "n_failed": self.n_failed}
        return json.dumps(payload, sort_keys=True, indent=2)

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "record.json").write_text(self.to_json(), encoding="utf-8")
        _write_meta(out, self.wall_time)
        steps = np.arange(len(self.curve))
        np.savetxt(out / "risk_curve.csv",
                   np.column_stack([steps, np.asarray(self.curve)]),
                   delimiter=",", header="step,risk", comments="")
        np.savetxt(out / "trials_loss.csv", np.asarray(self.per_trial),
                   delimiter=",")
        return out


def _run_risk(config: RunConfig) -> RiskResult:
    """Average loss-versus-step over freshly drawn truths.

    The risk at each recorded step is the pointwise mean of the per-trial
    loss columns (trials that herald a failure are dropped from the mean
    and counted).  Truth, design, and data streams are functions of
    (seed, trial) only, so runs that differ in nothing but the prior see
    identical truths, designs, and data; risk comparisons across priors
    are paired.
    """
    start = time.perf_counter()
    n_threads = _threads()

    def trial(i: int) -> RunRecord:
        return _filter(config, RngStream(config.seed).child(i))

    trials = range(config.n_trials)
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            records = list(pool.map(trial, trials))
    else:
        records = [trial(i) for i in trials]
    good = [r for r in records if not r.failed]
    n_failed = len(records) - len(good)
    if not good:
        return RiskResult(config=config.to_dict(), curve=[], per_trial=[],
                          n_failed=n_failed, wall_time=time.perf_counter() - start)
    losses = np.array([[row["loss"] for row in r.steps] for r in good])
    curve = losses.mean(axis=0)
    return RiskResult(config=config.to_dict(), curve=[float(v) for v in curve],
                      per_trial=[[float(v) for v in row] for row in losses],
                      n_failed=n_failed, wall_time=time.perf_counter() - start)


def run(config: RunConfig):
    """Run a config: a :class:`RiskResult` for risk mode, else a
    :class:`RunRecord`."""
    if config.mode == "risk":
        return _run_risk(config)
    if config.mode == "sample":
        raise ConfigError(f"mode {config.mode!r} has no runner")
    return _filter(config, RngStream(config.seed))
