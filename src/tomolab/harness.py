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
from .likelihood import COIN_EFFECT, binomial_log_likelihood, simulate_experiment
from .priors import (
    MODELS,
    PriorDistribution,
    bcsz_prior,
    bures_prior,
    coin_uniform_prior,
    ginibre_prior,
    insightful_prior,
    rebit_ginibre_prior,
)
from .qobj import ChoiState, DensityOperator, choi_of_channel, truncate_to_state
from .randq import RngStream
from .smc import (
    ESS_THRESHOLD,
    LIU_WEST_A,
    DegenerateUpdateError,
    ParticleCloud,
    bayes_update,
    diffuse_cloud,
    effective_sample_size,  # unused here; bench/spans.py times it as a harness name
    init_cloud,
    maybe_resample,
    posterior_covariance,
    posterior_mean_coords,
    principal_components,
    summarize,
)

SCHEMA_VERSION = 1

# The top-level fields that each mode does not read.
MODES = {"estimate": ("tracking", "n_trials"), "qpt": ("tracking", "n_trials"),
         "track": ("n_experiments", "n_trials"), "risk": ("tracking", "dump_cloud"),
         "sample": ("truth", "heuristic", "n_particles", "n_experiments", "n_trials",
                    "resample_a", "resample_threshold", "tracking", "dump_cloud")}
# Which model each config kind serves; RunConfig checks every pairing.
FIDUCIALS = {"ginibre": "state", "bures": "state", "rebit_ginibre": "state",
             "bcsz": "channel", "coin_uniform": "coin"}
HEURISTICS = {"random_pauli": "state", "stabilizer_qutrit": "state",
              "process_random": "channel", "process_adaptive_mix": "channel",
              "coin": "coin"}
# Each truth kind's models and the fields besides "kind" that it reads.
TRUTH_FIELDS = {"explicit": (("state", "channel"), ("matrix",)),
                "kraus": (("channel",), ("kraus",)),
                "from_prior": (MODELS, ()),
                "from_distribution": (("state", "channel"), ("prior",)),
                "coin": (("coin",), ("p",))}
# Each trajectory kind's models and the keys besides "kind" that it reads,
# with their defaults (None: the key is required).
TRAJECTORY_KEYS = {"two_tone_coin": (("coin",), {"f1": None, "f2": None}),
                   "single_tone_coin": (("coin",), {"f": None, "offset": 0.5, "amplitude": 0.5}),
                   "diffusing_state": (("state",), {"step_std": None}),
                   "static": (MODELS, {})}
# The heuristic fields that only process_adaptive_mix reads.
ADAPTIVE_FIELDS = ("n_proposals", "adaptive_fraction")
# Every count sizes an int64 numpy array or draw, so it stays below this.
COUNT_END = 2**63


class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


def decode_matrix(spec) -> np.ndarray:
    """Decode a JSON matrix spec: nested real lists, {"diag": [...]}, or
    {"re": [[...]], "im": [[...]]} with "im" optional.  Every entry must be
    a JSON number, and a key the spec's form does not read is an error."""
    if isinstance(spec, dict):
        if set(spec) == {"diag"}:
            return np.diag(_numbers(spec["diag"], 1)).astype(complex)
        if set(spec) in ({"re"}, {"re", "im"}):
            re = _numbers(spec["re"], 2)
            im = _numbers(spec["im"], 2) if "im" in spec else np.zeros_like(re)
            if re.shape != im.shape:
                raise ConfigError("re and im blocks must have equal shapes")
            return re + 1j * im
        raise ConfigError(f"matrix spec keys must be diag, re, or re and im, got {sorted(spec)}")
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


def _reject_unread(spec, unread, what: str) -> None:
    """A config error if a field of ``spec`` named in ``unread`` holds a
    value other than its default; ``what`` names the reader.  An unread
    field may be absent or hold its default, which ``to_dict`` writes."""
    defaults = {f.name: f.default for f in fields(spec)}
    stray = [name for name in unread if getattr(spec, name) != defaults[name]]
    if stray:
        raise ConfigError(f"{what} does not read {', '.join(stray)}")


def _parse(cls, raw, what: str):
    """Dataclass ``cls`` built from the JSON object ``raw``, each value
    checked against its field's annotation; ``what`` names the block in
    messages ("" for the top level).  The class's ``__post_init__``
    checks ranges and raises :class:`ConfigError`."""
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
    return cls(**values)


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
        if self.kind not in TRUTH_FIELDS:
            raise ConfigError(f"unknown truth kind {self.kind!r}")
        if self.kind == "from_distribution" and self.prior is None:
            raise ConfigError("from_distribution truth needs a prior spec")
        if self.kind == "coin" and (self.p is None or not 0.0 <= self.p <= 1.0):
            raise ConfigError("coin truth needs p in [0, 1]")
        if self.kind == "kraus" and (not isinstance(self.kraus, list) or not self.kraus):
            raise ConfigError("kraus truth needs a non-empty list of matrix specs")
        read = TRUTH_FIELDS[self.kind][1]
        _reject_unread(self, [f.name for f in fields(self)
                              if f.name != "kind" and f.name not in read],
                       f"{self.kind} truth")


@dataclass(frozen=True)
class TrackingSpec:
    """Clock, trajectory, and diffusion-rate prior of a tracking run."""

    n_steps: int
    trajectory: dict
    dt: float = 1.0
    eta_mean: float = 0.006
    eta_log_std: float = 1.0

    def __post_init__(self):
        if not 1 <= self.n_steps < COUNT_END:
            raise ConfigError("n_steps must be positive and below 2**63")
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if not math.isfinite(self.n_steps * self.dt):
            raise ConfigError(f"n_steps * dt must be finite, got {self.n_steps * self.dt!r}")
        if self.eta_mean < 0.0 or self.eta_log_std < 0.0:
            raise ConfigError("eta_mean and eta_log_std must be nonnegative")
        if not math.isfinite(self.eta_log_std * self.eta_log_std):
            raise ConfigError(f"eta_log_std squared must be finite, got {self.eta_log_std!r}")
        kind = self.trajectory.get("kind")
        if not isinstance(kind, str) or kind not in TRAJECTORY_KEYS:
            raise ConfigError(f"unknown trajectory kind {kind!r}")
        keys = TRAJECTORY_KEYS[kind][1]
        unknown = set(self.trajectory) - {"kind", *keys}
        if unknown:
            raise ConfigError(f"unknown {kind} trajectory keys: {sorted(unknown)}")
        for key, default in keys.items():
            value = self.trajectory.get(key, default)
            if value is None:
                raise ConfigError(f"{kind} trajectory {key!r} is required")
            number = _number(value, f"{kind} trajectory {key!r}")
            # A tone's phase at the last step, associated as _truths builds it.
            if key in ("f", "f1", "f2") and not math.isfinite(
                    2.0 * math.pi * number * (self.n_steps * self.dt)):
                raise ConfigError(f"{kind} trajectory phase 2*pi*{key}*n_steps*dt "
                                  f"must be finite, got {key}={value!r}")
            # The rule eta_log_std follows; the truth's walk then cannot overflow.
            if key == "step_std" and (number < 0.0 or not math.isfinite(number * number)):
                raise ConfigError(f"{kind} trajectory 'step_std' must be nonnegative "
                                  f"with a finite square, got {value!r}")


@dataclass(frozen=True)
class DesignHeuristic:
    """Design rule declared by kind and shots per experiment; only
    ``process_adaptive_mix`` reads ``n_proposals`` and ``adaptive_fraction``."""

    kind: str  # a key of HEURISTICS
    n_meas: int
    n_proposals: int = 50
    adaptive_fraction: float = 0.8

    def __post_init__(self):
        if self.kind not in HEURISTICS:
            raise ConfigError(f"unknown heuristic kind {self.kind!r}")
        if not 1 <= self.n_meas < COUNT_END:
            raise ConfigError("heuristic n_meas must be positive and below 2**63")
        if not 1 <= self.n_proposals < COUNT_END:
            raise ConfigError("heuristic n_proposals must be positive and below 2**63")
        if not 0.0 <= self.adaptive_fraction <= 1.0:
            raise ConfigError("heuristic adaptive_fraction must lie in [0, 1]")
        if self.kind != "process_adaptive_mix":
            _reject_unread(self, ADAPTIVE_FIELDS, f"{self.kind} heuristic")


@dataclass(frozen=True)
class RunConfig:
    """Complete, validated description of one simulation."""

    mode: str
    seed: int
    model: str = "state"
    dim: int = 2
    prior: Optional[PriorSpec] = None
    truth: Optional[TruthSpec] = None
    heuristic: Optional[DesignHeuristic] = None
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
        if not 2 <= self.n_particles < COUNT_END:
            raise ConfigError("n_particles must be at least 2 and below 2**63")
        if self.mode in ("estimate", "qpt", "risk") and not 1 <= self.n_experiments < COUNT_END:
            raise ConfigError("n_experiments must be positive and below 2**63")
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
        h, truth = self.heuristic, self.truth
        _reject_unread(self, MODES[self.mode], f"{self.mode} mode")
        if self.model == "coin":
            _reject_unread(self, ("dim",), "coin model")
        # Every declared kind must serve the model (see the tables).
        served = [(f"{spec.fiducial} prior", (FIDUCIALS[spec.fiducial],))
                  for spec in (self.prior, truth and truth.prior) if spec is not None]
        if truth is not None:
            served.append((f"{truth.kind} truth", TRUTH_FIELDS[truth.kind][0]))
        if h is not None:
            served.append((f"{h.kind} heuristic", (HEURISTICS[h.kind],)))
        if self.mode == "track":
            kind = self.tracking.trajectory["kind"]
            served.append((f"{kind} trajectory", TRAJECTORY_KEYS[kind][0]))
        for what, models in served:
            if self.model not in models:
                raise ConfigError(f"{what} needs the {' or '.join(models)} model")
        if self.prior is None:  # only a sample config gets here without one
            raise ConfigError("sample config needs a prior spec")
        # Sizes that the design rule needs.
        kind = h.kind if h is not None else None
        if kind == "random_pauli" and self.dim & (self.dim - 1):
            raise ConfigError("random_pauli needs a power-of-two dimension")
        if kind == "stabilizer_qutrit" and self.dim != 3:
            raise ConfigError("stabilizer_qutrit needs dim 3")
        if HEURISTICS.get(kind) == "channel" and self.dim != 2:
            raise ConfigError("process heuristics cover single-qubit channels")

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
            base = coin_uniform_prior()
        elif spec.fiducial == "ginibre":
            base = ginibre_prior(dim, rank=spec.rank)
        elif spec.fiducial == "bures":
            base = bures_prior(dim)
        elif spec.fiducial == "rebit_ginibre":
            if dim != 2:
                raise ConfigError("rebit priors are two dimensional")
            base = rebit_ginibre_prior(rank=spec.rank)
        else:
            base = bcsz_prior(dim, kraus_rank=spec.rank)
        if spec.gad_mean is None:
            return base
        return insightful_prior(base, _number(spec.gad_mean, "prior gad_mean") if model == "coin"
                                else decode_matrix(spec.gad_mean))
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {spec.fiducial} prior: {err}") from err


def _fixed_truth(spec: TruthSpec, space) -> np.ndarray:
    """Read-only coordinates, in ``space``, of an explicit, kraus or coin
    truth, checked once."""
    try:
        if spec.kind == "coin":
            coords = np.array([spec.p], dtype=float)
        elif spec.kind == "kraus":
            coords = space.basis.vectorize(
                choi_of_channel([decode_matrix(k) for k in spec.kraus]).matrix)
        else:
            mat = decode_matrix(spec.matrix)
            if space.kind == "channel":
                ChoiState(matrix=mat, dim_in=space.channel_dim, dim_out=space.channel_dim)
            else:
                DensityOperator(matrix=mat)
            coords = space.basis.vectorize(mat)
    except ValueError as err:
        raise ConfigError(f"{spec.kind} truth: {err}") from err
    coords.flags.writeable = False
    return coords


def resolve_truth(spec: TruthSpec, setup: "_Setup", rng: RngStream) -> np.ndarray:
    """Coordinates of the true state, channel, or coin in the space of the
    run's prior: the setup's fixed truth, or one draw from its truth prior."""
    if spec.kind in ("from_prior", "from_distribution"):
        return setup.truth_prior.sample(1, rng)[0]
    return setup.truth


def make_heuristic(config: RunConfig, prior: PriorDistribution) -> Callable:
    """Turn the declared heuristic into ``f(step, cloud, rng, cov=None)``,
    which returns the step's effect row; ``cov`` is the posterior
    covariance of ``cloud``, computed if ``None``.  Every step measures
    its effect ``config.heuristic.n_meas`` times."""
    h = config.heuristic
    basis = prior.space.basis
    if h.kind == "coin":
        def coin_rule(step, cloud, rng, cov=None):
            return COIN_EFFECT
        return coin_rule
    if h.kind in ("random_pauli", "stabilizer_qutrit"):
        table = (design_mod.pauli_effects(int(math.log2(config.dim)))
                 if h.kind == "random_pauli" else design_mod.stabilizer_qutrit_effects())

        def table_rule(step, cloud, rng, cov=None):
            return table[int(rng.generator.integers(0, len(table)))]
        return table_rule

    def random_rule(step, cloud, rng, cov=None):
        return design_mod.random_process_design(rng, basis)

    if h.kind == "process_random":
        return random_rule
    w = basis.size  # a tracked cloud's covariance also covers the diffusion rate

    def adaptive_rule(step, cloud, rng, cov=None):
        if rng.generator.random() < 1.0 - h.adaptive_fraction:
            return random_rule(step, cloud, rng)
        effects = design_mod.process_effects(basis)
        entries = design_mod.process_entries(h.n_proposals, rng)
        sigma = posterior_covariance(cloud) if cov is None else cov
        return effects[design_mod.adaptive_design(effects, entries, sigma[:w, :w])]
    return adaptive_rule


@dataclass(frozen=True)
class _Setup:
    """What a run builds from its config and environment, before any
    output: the prior; either the prior its truths are drawn from (its own
    for ``from_prior``) or the fixed truth's coordinates; the design rule;
    and a risk ensemble's worker count.  Risk trials share it read-only."""

    prior: PriorDistribution
    truth_prior: Optional[PriorDistribution]
    truth: Optional[np.ndarray]
    heuristic: Callable
    workers: int


def _set_up(config: RunConfig) -> _Setup:
    """Build the setup; every config error a valid parse leaves is raised
    here, so none is raised once a run has started."""
    if config.mode == "sample":
        raise ConfigError(f"mode {config.mode!r} has no runner")
    prior = build_prior(config.prior, config.model, config.dim)
    heuristic = make_heuristic(config, prior)
    truth = config.truth
    truth_prior = None
    if truth.kind == "from_prior":
        truth_prior = prior
    elif truth.kind == "from_distribution":
        truth_prior = build_prior(truth.prior, config.model, config.dim)
    fixed = None if truth_prior is not None else _fixed_truth(truth, prior.space)
    return _Setup(prior=prior, truth_prior=truth_prior, truth=fixed, heuristic=heuristic,
                  workers=_workers(config.n_trials) if config.mode == "risk" else 1)


def make_out_dir(path) -> Path:
    """Make an output directory; failing is a config error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {path}: {err}") from err
    return Path(path)


@dataclass
class RunRecord:
    """Everything one run produced.

    ``columns`` holds one array per step-table column, one row per
    recorded step, in ``steps.csv`` order: ``step``, ``time``, ``n_meas``,
    ``n_success``, ``ess``, ``log_norm``, ``cov_trace``, ``loss``, the 2-D
    ``est`` and, for track runs, the 2-D ``truth`` and ``eta_mean``.  A
    risk trial's record holds only ``loss``.

    ``write`` makes ``record.json`` canonical: it excludes wall time and
    the output directory, so identical (config, seed) pairs serialize to
    identical bytes.
    """

    config: dict
    mode: str
    columns: dict
    summary: dict
    failed: bool = False
    failure_reason: Optional[str] = None
    wall_time: float = 0.0
    final_cloud: Optional[ParticleCloud] = None

    def _frame(self) -> tuple[str, str]:
        """The JSON text before the first step row and after the last.

        Together with the rows joined by ``_ROW_SEP`` they make
        ``json.dumps(payload, sort_keys=True, indent=2)`` of the whole
        record, whose keys sort as config, failed, failure_reason, mode,
        steps, summary.
        """
        head = json.dumps({"config": self.config, "failed": self.failed,
                           "failure_reason": self.failure_reason, "mode": self.mode},
                          sort_keys=True, indent=2)
        summary = json.dumps(self.summary, sort_keys=True, indent=2).replace("\n", "\n  ")
        return (head[:-2] + ',\n  "steps": [\n    ',
                f'\n  ],\n  "summary": {summary}\n}}')

    def write(self, out_dir) -> Path:
        """Write ``record.json`` and ``steps.csv`` in one pass over the
        columns, then ``meta.json`` and the optional covariance and cloud."""
        out = make_out_dir(out_dir)
        head, tail = self._frame()
        with open(out / "record.json", "w", encoding="utf-8") as record, \
                open(out / "steps.csv", "w", newline="", encoding="utf-8") as table:
            record.write(head)
            table.write(",".join(_csv_names(self.columns)) + "\r\n")
            sep = ""
            for row, line in _step_rows(self.columns):
                record.write(sep + row)
                table.write(line)
                sep = _ROW_SEP
            record.write(tail)
        _write_meta(out, self.wall_time)
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


# Step rows as json.dumps(indent=2) places them, two levels deep.
_ROW_SEP = ",\n    "
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ROW_BLOCK = 256  # rows formatted at a time


def _csv_names(columns: dict) -> list:
    """The ``steps.csv`` header: a 2-D column ``name`` becomes ``name_0``,
    ``name_1``, ..."""
    names = []
    for name, col in columns.items():
        names.extend([name] if col.ndim == 1 else
                     [f"{name}_{i}" for i in range(col.shape[1])])
    return names


def _step_rows(columns: dict):
    """Yield each row's ``record.json`` object and ``steps.csv`` line.

    Every value is formatted once, with ``repr`` (as both ``json`` and
    ``csv`` format a float); a non-finite float is ``nan``/``inf``/``-inf``
    in the CSV and ``NaN``/``Infinity``/``-Infinity`` in the JSON, as
    ``json.dumps`` writes it.  Rows are formatted ``_ROW_BLOCK`` at a
    time, so the formatted text of the whole table is never held at once.
    """
    flat = []  # 1-D columns in CSV order
    cells = {}  # column name -> its index in flat, or the range of its 2-D cells
    for name, col in columns.items():
        if col.ndim == 1:
            cells[name] = len(flat)
            flat.append(col)
        else:
            cells[name] = range(len(flat), len(flat) + col.shape[1])
            flat.extend(col.T)
    members = []
    for name in sorted(cells):
        at = cells[name]
        value = (f"{{{at}}}" if isinstance(at, int) else
                 "[\n        " + ",\n        ".join(f"{{{i}}}" for i in at) + "\n      ]")
        members.append(f'      "{name}": {value}')
    template = "{{\n" + ",\n".join(members) + "\n    }}"
    n_rows = len(flat[0])
    for lo in range(0, n_rows, _ROW_BLOCK):
        texts, json_texts = [], []
        for col in flat:
            block = col[lo:lo + _ROW_BLOCK]
            text = list(map(repr, block.tolist()))
            texts.append(text)
            json_texts.append(text if block.dtype.kind != "f" or np.isfinite(block).all()
                              else [_JSON_NON_FINITE.get(t, t) for t in text])
        for values, json_values in zip(zip(*texts), zip(*json_texts)):
            yield template.format(*json_values), ",".join(values) + "\r\n"


def _truths(config: RunConfig, setup: _Setup, truth_rng: RngStream,
            n_steps: int, dt: float) -> np.ndarray:
    """The truth at steps 0 to ``n_steps``, one row each, built from
    ``truth_rng`` alone before the first step.  A run that does not follow
    a moving trajectory gets a read-only view of its one truth."""
    spec = config.tracking.trajectory if config.mode == "track" else {"kind": "static"}
    kind = spec["kind"]
    value = {key: float(spec.get(key, default))
             for key, default in TRAJECTORY_KEYS[kind][1].items()}
    times = (step * dt for step in range(n_steps + 1))
    if kind == "two_tone_coin":
        f1, f2 = value["f1"], value["f2"]
        return np.array([[0.25 * (2.0 + math.cos(2.0 * math.pi * f1 * t)
                                  + math.cos(2.0 * math.pi * f2 * t))] for t in times])
    if kind == "single_tone_coin":
        f, offset, amplitude = value["f"], value["offset"], value["amplitude"]
        return np.array([[min(max(offset + amplitude * math.cos(2.0 * math.pi * f * t), 0.0), 1.0)]
                         for t in times])
    start = resolve_truth(config.truth, setup, truth_rng)
    if kind == "static":
        return np.broadcast_to(start, (n_steps + 1, start.size))
    std = value["step_std"]
    basis = setup.prior.space.basis
    path = np.empty((n_steps + 1, start.size))
    path[0] = start
    for step in range(1, n_steps + 1):
        coords = path[step - 1].copy()
        coords[1:] += truth_rng.generator.standard_normal(coords.size - 1) * std
        path[step] = basis.vectorize(truncate_to_state(basis.devectorize(coords)[None])[0])
    return path


def _filter(config: RunConfig, root: RngStream, setup: _Setup,
            losses_only: bool = False) -> RunRecord:
    """Run the SMC filter along one truth trajectory.

    The truth at every step is built by :func:`_truths` before the first
    step, and step ``i`` measures row ``i``.  Estimate, qpt and risk runs
    hold the truth fixed for ``n_experiments`` steps at time 0.  Track
    runs follow the configured trajectory for ``n_steps`` steps of ``dt``,
    diffuse the cloud over each interval before its update, and record the
    truth rows as their ``truth`` column.  Children 0-3 of ``root`` feed
    the truth, the designs, the data and the engine.  With ``losses_only``
    (risk trials) each step's row holds only its loss and the summary only
    the resample count; the filter itself, and so every loss, is the same.
    """
    start = time.perf_counter()
    truth_rng, design_rng, data_rng, engine_rng = (root.child(i) for i in range(4))
    heuristic = setup.heuristic
    tr = config.tracking if config.mode == "track" else None
    n_steps, dt = (config.n_experiments, 0.0) if tr is None else (tr.n_steps, tr.dt)
    truths = _truths(config, setup, truth_rng, n_steps, dt)
    rates = None if tr is None else (tr.eta_mean, tr.eta_log_std)
    cloud = init_cloud(setup.prior, config.n_particles, engine_rng, rates=rates)
    w = cloud.space.n_state_coords
    n_meas = config.heuristic.n_meas
    columns = _step_columns(n_steps + 1, n_meas, dt, cloud.space.n_coords, losses_only)
    if tr is not None:
        columns.update(truth=truths, eta_mean=np.empty(n_steps + 1))
    loss = columns["loss"]
    total_log_norm = 0.0
    n_resamples = 0

    def fill(i, n_success, log_norm):
        """Row ``i`` of the columns; returns the covariance it computed."""
        if losses_only:
            # The next adaptive design then builds its own covariance.
            est = posterior_mean_coords(cloud)
            loss[i] = loss_norm(est[:w], truths[i, :w])
            return None
        est, cov, ess = summarize(cloud)
        loss[i] = loss_norm(est[:w], truths[i, :w])
        columns["n_success"][i] = n_success
        columns["ess"][i] = ess
        columns["log_norm"][i] = log_norm
        columns["cov_trace"][i] = cov.trace()
        columns["est"][i] = est
        if tr is not None:
            columns["eta_mean"][i] = est[-1]
        return cov

    cov = fill(0, 0, 0.0)
    failed = False
    reason = None
    prev_t = 0.0
    for step in range(1, n_steps + 1):
        t = step * dt
        truth = truths[step]
        effect = heuristic(step, cloud, design_rng, cov=cov)
        if tr is not None:
            cloud = diffuse_cloud(cloud, t - prev_t, engine_rng)
        n_success = simulate_experiment(truth, effect, n_meas, data_rng)
        log_like = binomial_log_likelihood(cloud.locations[:, :w], effect, n_meas, n_success)
        try:
            cloud, log_norm = bayes_update(cloud, log_like)
        except DegenerateUpdateError as err:
            failed = True
            reason = f"step {step}: {err}"
            columns = {name: col[:step] for name, col in columns.items()}
            break
        total_log_norm += log_norm
        before = cloud
        cloud = maybe_resample(cloud, engine_rng, a=config.resample_a,
                               threshold=config.resample_threshold)
        n_resamples += int(cloud is not before)
        cov = fill(step, n_success, log_norm)
        prev_t = t
    summary = {"n_resamples": n_resamples}
    if not losses_only:
        est, cov, ess = summarize(cloud)
        summary.update({
            "mean": est.tolist(),
            "covariance": cov.tolist(),
            "ess": ess,
            "total_log_norm": total_log_norm,
            "loss": loss_norm(est[:w], truth[:w]),
            "truth": truth.tolist(),
        })
        if tr is not None:
            summary["eta_mean"] = float(est[-1])
        elif config.model == "channel":
            lam, comp = principal_components(cov, 1)[0]
            summary["principal_eigenvalue"] = lam
            summary["principal_component"] = comp.tolist()
    return RunRecord(config=config.to_dict(), mode=config.mode, columns=columns,
                     summary=summary, failed=failed, failure_reason=reason,
                     wall_time=time.perf_counter() - start, final_cloud=cloud)


def _step_columns(n_rows: int, n_meas: int, dt: float, n_coords: int,
                  losses_only: bool) -> dict:
    """Preallocated step-table columns (see :class:`RunRecord`) up to
    ``est``; row ``i`` is step ``i`` at time ``i * dt``."""
    if losses_only:
        return {"loss": np.empty(n_rows)}
    step = np.arange(n_rows)
    n_meas_col = np.full(n_rows, n_meas)
    n_meas_col[0] = 0
    columns = {"step": step, "time": step * dt, "n_meas": n_meas_col,
               "n_success": np.zeros(n_rows, dtype=int)}
    for name in ("ess", "log_norm", "cov_trace", "loss"):
        columns[name] = np.empty(n_rows)
    columns["est"] = np.empty((n_rows, n_coords))
    return columns


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

    def write(self, out_dir) -> Path:
        out = make_out_dir(out_dir)
        payload = {"config": self.config, "curve": self.curve, "n_failed": self.n_failed}
        (out / "record.json").write_text(json.dumps(payload, sort_keys=True, indent=2),
                                         encoding="utf-8")
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
    losses = None if record.failed else record.columns["loss"]
    return losses, record.summary["n_resamples"]


_worker_run = None  # (config, setup) of the ensemble, in a risk worker process


def _keep_run(config: RunConfig, setup: _Setup) -> None:
    global _worker_run
    _worker_run = (config, setup)


def _worker_trial(i: int) -> tuple:
    return _risk_trial(*_worker_run, i)


def _run_risk(config: RunConfig, setup: _Setup) -> RiskResult:
    """Average loss-versus-step over freshly drawn truths.

    The risk at each recorded step is the pointwise mean of the per-trial
    loss columns (trials that herald a failure are dropped from the mean
    and counted).  Truth, design, and data streams are functions of
    (seed, trial) only, so runs that differ in nothing but the prior see
    identical truths, designs, and data; risk comparisons across priors
    are paired, and the result does not depend on the number of workers.
    """
    start = time.perf_counter()
    trials = range(config.n_trials)
    if setup.workers > 1:
        # Forked workers inherit the setup, whose design rule is a closure
        # that cannot be pickled, and skip re-importing the package.  Tasks
        # carry trial indices in chunks of two, so no worker is left with a
        # long tail.  The pool module is imported here, not by every run.
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        with ProcessPoolExecutor(setup.workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_keep_run, initargs=(config, setup)) as pool:
            results = list(pool.map(_worker_trial, trials, chunksize=2))
    else:
        results = [_risk_trial(config, setup, i) for i in trials]
    good = [losses for losses, _ in results if losses is not None]
    result = RiskResult(config=config.to_dict(), curve=[], per_trial=[],
                        n_failed=len(results) - len(good), workers=setup.workers,
                        n_resamples=sum(n for _, n in results))
    if good:
        losses = np.array(good)
        result.curve = losses.mean(axis=0).tolist()
        result.per_trial = losses.tolist()
    result.wall_time = time.perf_counter() - start
    return result


def run(config: RunConfig, out_dir=None):
    """Run a config: a :class:`RiskResult` for risk mode, else a
    :class:`RunRecord`.  With ``out_dir`` the result is also written
    there.  The directory is made after set-up, which raises every config
    error, and before the first step, so a config error leaves no output."""
    setup = _set_up(config)
    if out_dir is not None:
        make_out_dir(out_dir)
    result = (_run_risk(config, setup) if config.mode == "risk"
              else _filter(config, RngStream(config.seed), setup))
    if out_dir is not None:
        result.write(out_dir)
    return result
