"""Time-dependent tomography: projection to valid states, particle
diffusion, and the bandwidth limit of the tracker.

Tracked particle clouds carry one extra trailing column: a nonnegative
per-particle diffusion rate eta.  Between Bayes updates every traceless
coordinate of a particle receives independent Gaussian noise with
standard deviation sqrt(dt) * eta, after which the particle is projected
back to the valid set.  eta itself is never perturbed by the diffusion;
it evolves only through reweighting and resampling, so particle
populations whose diffusion rates explain the data better accumulate
weight.
"""

from __future__ import annotations

import math

import numpy as np

from .qobj import restore_trace_preservation
from .randq import RngStream


class DegenerateStateError(ValueError):
    """Eigenvalue truncation has nothing left to normalize."""


def truncate_to_state(matrix) -> np.ndarray:
    """Nearest-valid-state projection by eigenvalue truncation.

    Clips negative eigenvalues to zero and renormalizes the trace.
    Accepts a single Hermitian matrix or a stack.
    """
    arr = np.asarray(matrix, dtype=complex)
    single = arr.ndim == 2
    mats = arr[None] if single else arr
    lam, vecs = np.linalg.eigh(mats)
    lam = lam.clip(0.0, None)
    totals = lam.sum(axis=-1)
    if np.any(totals <= 1e-12):
        raise DegenerateStateError("no positive weight survives truncation")
    lam = lam / totals[..., None]
    out = np.einsum("...k,...ik,...jk->...ij", lam, vecs, vecs.conj())
    return out[0] if single else out


def truncate_to_choi(matrix, channel_dim: int) -> np.ndarray:
    """Project onto valid Choi states: truncation plus a trace-preservation
    repair that rescales the input marginal back to I/D."""
    mats = truncate_to_state(matrix)
    single = mats.ndim == 2
    out = restore_trace_preservation(mats[None] if single else mats, channel_dim)
    return out[0] if single else out


def coin_truncate(p) -> np.ndarray:
    """Clamp coin probabilities to [0, 1]."""
    return np.asarray(p, dtype=float).clip(0.0, 1.0)


def lognormal_eta_sampler(mean: float, log_std: float):
    """Sampler for the diffusion-rate prior.

    Log-normal with the given arithmetic mean; mean = 0 returns the
    degenerate all-zeros sampler (the static baseline).
    """
    if mean < 0.0:
        raise ValueError("eta mean must be nonnegative")
    if mean == 0.0:
        def zeros(n: int, rng: RngStream) -> np.ndarray:
            return np.zeros(n)
        return zeros
    mu = math.log(mean) - 0.5 * log_std**2

    def draw(n: int, rng: RngStream) -> np.ndarray:
        return rng.generator.lognormal(mean=mu, sigma=log_std, size=n)

    return draw


def diffuse_cloud(cloud, dt: float, rng: RngStream):
    """Gaussian-perturb every particle's traceless coordinates over an
    interval ``dt > 0`` and project.

    The per-particle standard deviation is sqrt(dt) * eta.  Weights and
    the eta column are untouched.  There is no drift term.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    space = cloud.space
    if space.n_hyper != 1:
        raise ValueError("cloud carries no diffusion-rate column")
    locations = cloud.locations
    n = locations.shape[0]
    eta = locations[:, -1]
    sigma = np.sqrt(dt) * eta
    if space.kind == "coin":
        lo, hi = 0, 1
    else:
        lo, hi = 1, space.basis.size
    noise = rng.generator.standard_normal((n, hi - lo))
    noise *= sigma[:, None]
    moved = locations.copy()
    moved[:, lo:hi] += noise
    # The cloud's own class: this module cannot import smc, which imports it.
    return type(cloud)(space.project(moved), cloud.weights, space, cloud.log_weights)


def tracking_bandwidth(tol: float, z: float, dt: float) -> tuple[int, float]:
    """Shots per step and highest resolvable frequency.

    A frequency estimate with half-width ``tol`` at confidence scale ``z``
    needs N = ceil(z**2 / (4 tol**2)) shots per step, which caps the
    resolvable frequency at f_max = 1 / (2 dt N).
    """
    if not 0.0 < tol < 0.5:
        raise ValueError("tolerance must lie in (0, 0.5)")
    if z <= 0.0 or dt <= 0.0:
        raise ValueError("z and dt must be positive")
    n = math.ceil(z * z / (4.0 * tol * tol))
    return n, 1.0 / (2.0 * dt * n)
