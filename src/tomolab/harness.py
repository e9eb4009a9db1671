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
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import design as design_mod
from .likelihood import ExperimentDesign, coin_design, simulate_experiment
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
    {"re": [[...]], "im": [[...]]}.  Every entry must be a JSON number."""
    if isinstance(spec, dict):
        if "diag" in spec:
            return np.diag(_numbers(spec["diag"], 1)).astype(complex)
        if "re" in spec:
            re = _numbers(spec["re"], 2)
            im = _numbers(spec["im"], 2) if "im" in spec else np.zeros_like(re)
            if re.shape != im.shape:
                raise ConfigError("re and im blocks must have equal shapes")
            return re + 1j * im
        raise ConfigError(f"unknown matrix spec keys {sorted(spec)}")
    return _numbers(spec, 2).astype(complex)


def _numbers(spec, ndim: int) -> np.ndarray:
    """``spec``, nested lists of JSON numbers in rows of equal length, as an
    ``ndim``-dimensional float array; anything else is a config error."""
    arr = np.asarray(spec, dtype=object)
    for value in arr.flat:
        if isinstance(value, list):
            raise ConfigError("matrix spec rows must be equal in length")
        _number(value, "matrix spec entry")
    if arr.size == 0:
        raise ConfigError("matrix spec must not be empty")
    if arr.ndim != ndim:
        raise ConfigError(f"matrix spec must have {ndim} dimension(s)")
    return arr.astype(float)


def _number(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number; strings,
    booleans, NaN and infinities are config errors, not silently converted."""
    if type(value) not in (int, float):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


_hints = lru_cache(maxsize=None)(get_type_hints)


def _value(kind, value, what: str):
    """``value`` checked against the field annotation ``kind``."""
    if get_origin(kind) is Union:  # Optional[X]
        if value is None:
            return None
        kind = next(arg for arg in get_args(kind) if arg is not type(None))
    if is_dataclass(kind):
        return _parse(kind, value, what)
    if kind is float:
        return _number(value, what)
    expected = {int: "an integer", bool: "true or false", str: "a string",
                dict: "a JSON object"}.get(kind)
    if expected is not None and type(value) is not kind:
        raise ConfigError(f"{what} must be {expected}, got {value!r}")
    return value


def _parse(cls, raw, what: str):
    """Dataclass ``cls`` built from the JSON object ``raw``, each value
    checked against its field's annotation; ``what`` names the block in
    messages ("" for the top level).  The class's ``__post_init__``
    checks ranges, and whatever it rejects is a :class:`ConfigError`."""
    name = what or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object, got {raw!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    prefix = f"{what} " if what else ""
    hints = _hints(cls)
    values = {}
    for key, f in known.items():
        if key in raw:
            values[key] = _value(hints[key], raw[key], prefix + key)
        elif f.default is MISSING:
            raise ConfigError(f"{prefix}{key} is required")
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"bad {name}: {err}") from err


@dataclass(frozen=True)
class PriorSpec:
    """Prior declared by fiducial name, rank, and optional damped mean."""

    fiducial: str
    rank: Optional[int] = None
    gad_mean: object = None  # matrix spec for states/channels, float for coins

    def __post_init__(self):
        if self.fiducial not in FIDUCIALS:
            raise ConfigError(f"unknown fiducial prior {self.fiducial!r}")
        if self.rank is not None and self.rank < 1:
            raise ConfigError(f"prior rank must be a positive integer, got {self.rank!r}")
        if self.rank is not None and self.fiducial in ("bures", "coin_uniform"):
            raise ConfigError(f"{self.fiducial} prior takes no rank")


@dataclass(frozen=True)
class TruthSpec:
    """What the simulator measures against."""

    kind: str  # "explicit" | "kraus" | "from_prior" | "from_distribution" | "coin"
    matrix: object = None
    kraus: object = None
    p: Optional[float] = None
    prior: Optional[PriorSpec] = None

    def __post_init__(self):
        if self.kind not in ("explicit", "kraus", "from_prior", "from_distribution", "coin"):
            raise ConfigError(f"unknown truth kind {self.kind!r}")
        if self.kind == "from_distribution" and self.prior is None:
            raise ConfigError("from_distribution truth needs a prior spec")


@dataclass(frozen=True)
class TrackingSpec:
    """Clock, trajectory, and diffusion-rate prior of a tracking run."""

    n_steps: int
    trajectory: dict
    dt: float = 1.0
    eta_mean: float = 0.006
    eta_log_std: float = 1.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError("n_steps must be positive")
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if self.eta_mean < 0.0 or self.eta_log_std < 0.0:
            raise ConfigError("eta_mean and eta_log_std must be nonnegative")


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
        if self.seed < 0:
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
        if isinstance(raw, dict):
            raw = dict(raw)
            version = raw.pop("schema_version", SCHEMA_VERSION)
            if type(version) is not int or version != SCHEMA_VERSION:
                raise ConfigError(f"unsupported schema version {version!r}")
        return _parse(cls, raw, "")

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


def quadratic_loss(est_coords, true_coords) -> float:
    """Quadratic loss (x_est - x_true)^T (x_est - x_true): the squared
    coordinate 2-norm, i.e. Tr[(rho_est - rho_true)**2] for states in an
    orthonormal basis.
    """
    delta = np.asarray(est_coords, dtype=float) - np.asarray(true_coords, dtype=float)
    if delta.ndim != 1:
        raise ValueError("coordinate vectors must be flat")
    return float(delta @ delta)


def loss_norm(est_coords, true_coords) -> float:
    """Coordinate 2-norm of the estimation error (what risk curves report)."""
    return math.sqrt(quadratic_loss(est_coords, true_coords))


def _workers(n_trials: int) -> int:
    """Worker processes for a risk ensemble: ``TOMOLAB_THREADS``, capped by
    the trial count and by the CPUs this process may run on."""
    raw = os.environ.get("TOMOLAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as err:
        raise ConfigError(f"TOMOLAB_THREADS must be an integer, got {raw!r}") from err
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(n, n_trials, cpus))


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
            return coin_insightful_prior(_number(spec.gad_mean, "prior gad_mean"))
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


def resolve_truth(spec: TruthSpec, prior: PriorDistribution,
                  truth_prior: Optional[PriorDistribution], model: str,
                  dim: int, rng: RngStream) -> np.ndarray:
    """Coordinates of the true state, channel, or coin; ``truth_prior`` is
    the built ``spec.prior`` of a ``from_distribution`` truth."""
    if model == "coin":
        if spec.kind == "coin":
            if spec.p is None or not 0.0 <= spec.p <= 1.0:
                raise ConfigError("coin truth needs p in [0, 1]")
            return np.array([spec.p], dtype=float)
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
            if not isinstance(spec.kraus, list) or not spec.kraus:
                raise ConfigError("kraus truth needs a non-empty list of matrix specs")
            kraus = [decode_matrix(k) for k in spec.kraus]
            return basis.vectorize(choi_of_channel(kraus).matrix)
    except ValueError as err:
        raise ConfigError(f"{spec.kind} truth: {err}") from err
    if spec.kind == "from_prior":
        return prior.sample(1, rng)[0]
    if spec.kind == "from_distribution":
        return truth_prior.sample(1, rng)[0]
    raise ConfigError(f"truth kind {spec.kind!r} is not usable here")


def make_heuristic(config: RunConfig, prior: PriorDistribution) -> Callable:
    """Turn the declared heuristic into ``f(step, cloud, rng, cov=None)``;
    ``cov`` is the posterior covariance of ``cloud``, computed if ``None``."""
    h = config.heuristic
    basis = prior.basis
    if h.kind == "coin":
        if config.model != "coin":
            raise ConfigError("coin heuristic needs the coin model")

        def coin_rule(step, cloud, rng, cov=None):
            return coin_design(h.n_meas)
        return coin_rule
    if h.kind == "random_pauli":
        n_qubits = int(math.log2(config.dim))
        if 2**n_qubits != config.dim:
            raise ConfigError("random_pauli needs a power-of-two dimension")

        def pauli_rule(step, cloud, rng, cov=None):
            return design_mod.random_pauli_design(n_qubits, h.n_meas, rng)
        return pauli_rule
    if h.kind == "stabilizer_qutrit":
        if config.dim != 3:
            raise ConfigError("stabilizer_qutrit needs dim 3")

        def stab_rule(step, cloud, rng, cov=None):
            return design_mod.random_stabilizer_qutrit_design(h.n_meas, rng)
        return stab_rule
    if h.kind in ("process_random", "process_adaptive_mix"):
        if config.model != "channel" or config.dim != 2:
            raise ConfigError("process heuristics cover single-qubit channels")

        def random_rule(step, cloud, rng, cov=None):
            return design_mod.random_process_design(h.n_meas, rng, basis)

        if h.kind == "process_random":
            return random_rule

        def adaptive_rule(step, cloud, rng, cov=None):
            if rng.generator.random() < 1.0 - h.adaptive_fraction:
                return random_rule(step, cloud, rng)
            effects = design_mod.process_effects(basis)
            entries = design_mod.process_entries(h.n_proposals, rng)
            sigma = posterior_covariance(cloud) if cov is None else cov
            entry = design_mod.adaptive_design(effects, entries, sigma)
            return ExperimentDesign(effect=effects[entry], n_meas=h.n_meas)
        return adaptive_rule
    raise ConfigError(f"unknown heuristic kind {h.kind!r}")


@dataclass(frozen=True)
class _Setup:
    """What a run builds from its config alone, before any trial: the
    prior, the prior of a ``from_distribution`` truth (else None) and the
    design rule.  Risk trials share one setup read-only."""

    prior: PriorDistribution
    truth_prior: Optional[PriorDistribution]
    heuristic: Callable


def _set_up(config: RunConfig) -> _Setup:
    prior = build_prior(config.prior, config.model, config.dim)
    heuristic = make_heuristic(config, prior)
    truth = config.truth
    truth_prior = (build_prior(truth.prior, config.model, config.dim)
                   if truth.kind == "from_distribution" else None)
    return _Setup(prior=prior, truth_prior=truth_prior, heuristic=heuristic)


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


def _write_meta(out: Path, wall_time: float, **facts) -> None:
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump({"wall_time_s": wall_time, "out_dir": out.as_posix(), **facts},
                  fh, indent=2)


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


def _make_trajectory(config: RunConfig, setup: _Setup,
                     truth_rng: RngStream) -> Callable[[float], np.ndarray]:
    """The truth as a function of time; constant unless the run tracks."""
    spec = config.tracking.trajectory if config.mode == "track" else {"kind": "static"}
    kind = spec.get("kind")

    def number(key: str, default=None) -> float:
        return _number(spec.get(key, default), f"{kind} trajectory {key!r}")

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
        start = resolve_truth(config.truth, setup.prior, setup.truth_prior,
                              config.model, config.dim, truth_rng)
        basis = setup.prior.basis
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
        fixed = resolve_truth(config.truth, setup.prior, setup.truth_prior,
                              config.model, config.dim, truth_rng)

        def static(t: float) -> np.ndarray:
            return fixed
        return static
    raise ConfigError(f"unknown trajectory kind {kind!r}")


def _filter(config: RunConfig, root: RngStream, setup: _Setup,
            losses_only: bool = False) -> RunRecord:
    """Run the SMC filter along one truth trajectory.

    Estimate, qpt and risk runs hold the truth fixed for
    ``n_experiments`` steps at time 0.  Track runs follow the configured
    trajectory for ``n_steps`` steps of ``dt`` and diffuse the cloud over
    each interval before its update.  Children 0-3 of ``root`` feed the
    truth, the designs, the data and the engine.  With ``losses_only``
    (risk trials) each step's row holds only its loss and the summary only
    the resample count; the filter itself, and so every loss, is the same.
    """
    start = time.perf_counter()
    truth_rng, design_rng, data_rng, engine_rng = (root.child(i) for i in range(4))
    heuristic = setup.heuristic
    trajectory = _make_trajectory(config, setup, truth_rng)
    tr = config.tracking if config.mode == "track" else None
    eta_sampler = None if tr is None else lognormal_eta_sampler(tr.eta_mean, tr.eta_log_std)
    cloud = init_cloud(setup.prior, config.n_particles, engine_rng, eta_sampler=eta_sampler)
    w = cloud.space.n_state_coords
    total_log_norm = 0.0
    n_resamples = 0

    def row_of(step, t, truth, n_meas, n_success, log_norm):
        est = posterior_mean_coords(cloud)
        loss = loss_norm(est[:w], truth[:w])
        if losses_only:
            # The next adaptive design then builds its own covariance.
            return {"loss": loss}, None
        cov = posterior_covariance(cloud)
        row = {
            "step": step, "time": t, "n_meas": n_meas, "n_success": n_success,
            "ess": effective_sample_size(cloud), "log_norm": log_norm,
            "cov_trace": float(np.trace(cov)),
            "loss": loss,
            "est": _coords_list(est),
        }
        if tr is not None:
            row["truth"] = _coords_list(truth)
            row["eta_mean"] = float(est[-1])
        return row, cov

    truth = trajectory(0.0)
    row, cov = row_of(0, 0.0, truth, 0, 0, 0.0)
    rows = [row]
    failed = False
    reason = None
    n_steps, dt = (config.n_experiments, 0.0) if tr is None else (tr.n_steps, tr.dt)
    prev_t = 0.0
    for step in range(1, n_steps + 1):
        t = step * dt
        truth = trajectory(t)
        exp_design = heuristic(step, cloud, design_rng, cov=cov)
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
        row, cov = row_of(step, t, truth, exp_design.n_meas, datum.n_success, log_norm)
        rows.append(row)
        prev_t = t
    summary = {"n_resamples": n_resamples}
    if not losses_only:
        summ = summarize(cloud, total_log_norm=total_log_norm)
        est = posterior_mean_coords(cloud)
        summary.update({
            "mean": _coords_list(est),
            "covariance": [_coords_list(r) for r in summ.covariance],
            "ess": summ.ess,
            "total_log_norm": summ.total_log_norm,
            "loss": loss_norm(est[:w], truth[:w]),
            "truth": _coords_list(truth),
        })
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
    workers: int = 1
    n_resamples: int = 0

    def to_json(self) -> str:
        payload = {"config": self.config, "curve": self.curve,
                   "n_failed": self.n_failed}
        return json.dumps(payload, sort_keys=True, indent=2)

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "record.json").write_text(self.to_json(), encoding="utf-8")
        _write_meta(out, self.wall_time, workers=self.workers,
                    n_resamples=self.n_resamples)
        steps = np.arange(len(self.curve))
        np.savetxt(out / "risk_curve.csv",
                   np.column_stack([steps, np.asarray(self.curve)]),
                   delimiter=",", header="step,risk", comments="")
        np.savetxt(out / "trials_loss.csv", np.asarray(self.per_trial),
                   delimiter=",")
        return out


def _risk_trial(config: RunConfig, setup: _Setup, i: int) -> tuple:
    """Trial ``i``'s loss column, or None if it heralded a failure, and its
    resample count.  Only these cross back from a worker process, so no
    trial's cloud outlives it."""
    record = _filter(config, RngStream(config.seed).child(i), setup, losses_only=True)
    losses = None if record.failed else [row["loss"] for row in record.steps]
    return losses, record.summary["n_resamples"]


_worker_run = None  # (config, setup) of the ensemble, in a risk worker process


def _keep_run(config: RunConfig, setup: _Setup) -> None:
    global _worker_run
    _worker_run = (config, setup)


def _worker_trial(i: int) -> tuple:
    return _risk_trial(*_worker_run, i)


def _run_risk(config: RunConfig) -> RiskResult:
    """Average loss-versus-step over freshly drawn truths.

    The risk at each recorded step is the pointwise mean of the per-trial
    loss columns (trials that herald a failure are dropped from the mean
    and counted).  Truth, design, and data streams are functions of
    (seed, trial) only, so runs that differ in nothing but the prior see
    identical truths, designs, and data; risk comparisons across priors
    are paired, and the result does not depend on the number of workers.
    """
    start = time.perf_counter()
    n_workers = _workers(config.n_trials)
    setup = _set_up(config)
    trials = range(config.n_trials)
    if n_workers > 1:
        # Forked workers inherit the setup, whose design rule is a closure
        # that cannot be pickled, and skip re-importing the package.  Tasks
        # carry trial indices in chunks of two, so no worker is left with a
        # long tail.  The pool module is imported here, not by every run.
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        with ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_keep_run, initargs=(config, setup)) as pool:
            results = list(pool.map(_worker_trial, trials, chunksize=2))
    else:
        results = [_risk_trial(config, setup, i) for i in trials]
    good = [losses for losses, _ in results if losses is not None]
    result = RiskResult(config=config.to_dict(), curve=[], per_trial=[],
                        n_failed=len(results) - len(good), workers=n_workers,
                        n_resamples=sum(n for _, n in results))
    if good:
        losses = np.array(good)
        result.curve = [float(v) for v in losses.mean(axis=0)]
        result.per_trial = [[float(v) for v in row] for row in losses]
    result.wall_time = time.perf_counter() - start
    return result


def run(config: RunConfig):
    """Run a config: a :class:`RiskResult` for risk mode, else a
    :class:`RunRecord`."""
    if config.mode == "risk":
        return _run_risk(config)
    if config.mode == "sample":
        raise ConfigError(f"mode {config.mode!r} has no runner")
    return _filter(config, RngStream(config.seed), _set_up(config))
