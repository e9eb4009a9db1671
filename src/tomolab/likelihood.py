"""Measurement models: Born probabilities and binomial batch likelihoods.

Experiments are two-outcome measurements repeated n_meas times; a datum
records the success count.  States, Choi states, and coins all share the
same code path: the outcome probability is a dot product between the
hypothesis coordinates and the effect coordinates, where a coin is the
one-coordinate hypothesis whose "effect" is the constant vector [1.0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qobj import (
    DensityOperator,
    DimensionMismatchError,
    Effect,
    OperatorBasis,
    process_effect,
)
from .randq import RngStream


@dataclass(frozen=True)
class ExperimentDesign:
    """One configured experiment: an effect, as its coordinate row,
    measured n_meas times."""

    effect: np.ndarray
    n_meas: int

    def __post_init__(self):
        if self.n_meas < 1:
            raise ValueError("n_meas must be positive")


@dataclass(frozen=True)
class Datum:
    """Observed success count for one design."""

    n_success: int
    design: ExperimentDesign

    def __post_init__(self):
        if not 0 <= self.n_success <= self.design.n_meas:
            raise ValueError("success count must lie in [0, n_meas]")


_COIN_EFFECT = np.array([1.0])
_COIN_EFFECT.flags.writeable = False


def coin_design(n_meas: int) -> ExperimentDesign:
    """Design measuring the heads outcome of a coin."""
    return ExperimentDesign(effect=_COIN_EFFECT, n_meas=n_meas)


def born_probability(state_coords, effect_coords) -> np.ndarray:
    """Outcome probability Tr[E rho] as a coordinate dot product.

    Broadcasts over rows of ``state_coords``; rows wider than the effect
    (hypotheses carrying extra hyperparameter columns) use only their
    leading coordinates.  Values are clamped to [0, 1].
    """
    state = np.asarray(state_coords, dtype=float)
    effect = np.asarray(effect_coords, dtype=float)
    if state.shape[-1] < effect.shape[0]:
        raise DimensionMismatchError("hypothesis has fewer coordinates than the effect")
    p = state[..., : effect.shape[0]] @ effect
    return np.clip(p, 0.0, 1.0)


def binomial_log_pmf(n: int, n_success: int, p) -> np.ndarray:
    """Natural log of the Binomial(n, p) mass at n_success, vectorized over p.

    Finite wherever the mass is nonzero, however many shots: it never
    forms the mass itself, which underflows at large n.  Exact at the
    endpoints: p = 0 or 1 gives log 1 = 0 for the all-failures or
    all-successes count and -inf elsewhere.
    """
    if not 0 <= n_success <= n:
        raise ValueError("success count must lie in [0, n_meas]")
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    log_comb = math.lgamma(n + 1) - math.lgamma(n_success + 1) - math.lgamma(n - n_success + 1)
    with np.errstate(divide="ignore"):
        log_hit = 0.0 if n_success == 0 else n_success * np.log(p)
        log_miss = 0.0 if n_success == n else (n - n_success) * np.log1p(-p)
    return log_comb + log_hit + log_miss


def binomial_log_likelihood(state_coords, design: ExperimentDesign,
                            n_success: int) -> np.ndarray:
    """Log likelihood of observing ``n_success`` under ``design``."""
    p = born_probability(state_coords, design.effect)
    return binomial_log_pmf(design.n_meas, n_success, p)


def binomial_likelihood(state_coords, design: ExperimentDesign, n_success: int) -> np.ndarray:
    """Likelihood of observing ``n_success`` under ``design``."""
    return np.exp(binomial_log_likelihood(state_coords, design, n_success))


def datum_log_likelihood(locations, datum: Datum) -> np.ndarray:
    """Vectorized log likelihood of one datum for each hypothesis row."""
    return binomial_log_likelihood(locations, datum.design, datum.n_success)


def simulate_experiment(true_coords, design: ExperimentDesign, rng: RngStream) -> Datum:
    """Draw a binomial success count from the true hypothesis."""
    p = float(born_probability(np.asarray(true_coords, dtype=float), design.effect))
    n_success = int(rng.generator.binomial(design.n_meas, p))
    return Datum(n_success=n_success, design=design)


def process_design(prep: DensityOperator, meas: Effect, n_meas: int,
                   basis: OperatorBasis) -> ExperimentDesign:
    """Design measuring a channel: composite effect on the D**2 space."""
    composite = process_effect(prep, meas)
    return ExperimentDesign(effect=basis.vectorize(composite.matrix), n_meas=n_meas)
