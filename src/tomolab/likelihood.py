"""Measurement models: Born probabilities and binomial batch likelihoods.

Experiments are two-outcome measurements repeated n_meas times; the data
of one is its success count.  States, Choi states, and coins all share
the same code path: the outcome probability is a dot product between the
hypothesis coordinates and the effect coordinates, where a coin is the
one-coordinate hypothesis whose effect is :data:`COIN_EFFECT`.
"""

from __future__ import annotations

import math

import numpy as np

from .qobj import DimensionMismatchError
from .randq import RngStream

COIN_EFFECT = np.array([1.0])
COIN_EFFECT.flags.writeable = False


def born_probability(state_coords, effect_coords) -> np.ndarray:
    """Outcome probability Tr[E rho] as a coordinate dot product.

    Broadcasts over rows of ``state_coords``, which must be exactly as
    wide as the effect.  Values are clamped to [0, 1].
    """
    return _overlap(state_coords, effect_coords).clip(0.0, 1.0)


def _overlap(state_coords, effect_coords) -> np.ndarray:
    """The unclamped coordinate dot product of :func:`born_probability`."""
    state = np.asarray(state_coords, dtype=float)
    effect = np.asarray(effect_coords, dtype=float)
    if state.shape[-1] != effect.shape[0]:
        raise DimensionMismatchError("hypothesis and effect widths differ")
    return state @ effect


def binomial_log_pmf(n: int, n_success: int, p) -> np.ndarray:
    """Natural log of the Binomial(n, p) mass at n_success, vectorized over p.

    Finite wherever the mass is nonzero, however many shots: it never
    forms the mass itself, which underflows at large n.  Exact at the
    endpoints: p = 0 or 1 gives log 1 = 0 for the all-failures or
    all-successes count and -inf elsewhere.
    """
    if not 0 <= n_success <= n:
        raise ValueError("success count must lie in [0, n_meas]")
    p = np.asarray(p, dtype=float).clip(0.0, 1.0)
    log_comb = math.lgamma(n + 1) - math.lgamma(n_success + 1) - math.lgamma(n - n_success + 1)
    with np.errstate(divide="ignore"):
        log_hit = 0.0 if n_success == 0 else n_success * np.log(p)
        log_miss = 0.0 if n_success == n else (n - n_success) * np.log1p(-p)
    return log_comb + log_hit + log_miss


def binomial_log_likelihood(coords, effect, n_meas: int, n_success: int) -> np.ndarray:
    """Log likelihood of ``n_success`` successes in ``n_meas`` shots of
    ``effect``, one value per row of ``coords``.  The probabilities are
    clamped to [0, 1] once, by :func:`binomial_log_pmf`."""
    return binomial_log_pmf(n_meas, n_success, _overlap(coords, effect))


def binomial_likelihood(coords, effect, n_meas: int, n_success: int) -> np.ndarray:
    """Likelihood of ``n_success`` successes in ``n_meas`` shots of ``effect``."""
    return np.exp(binomial_log_likelihood(coords, effect, n_meas, n_success))


def simulate_experiment(true_coords, effect, n_meas: int, rng: RngStream) -> int:
    """Binomial success count of ``n_meas`` shots of ``effect`` on the
    true hypothesis."""
    p = float(born_probability(true_coords, effect))
    return int(rng.generator.binomial(n_meas, p))
