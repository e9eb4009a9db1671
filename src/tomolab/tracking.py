"""Time-dependent tomography: particle diffusion and the bandwidth limit
of the tracker.

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

from .randq import RngStream
from .smc import ParticleCloud


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


def diffuse_cloud(cloud: ParticleCloud, dt: float, rng: RngStream) -> ParticleCloud:
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
    lo, hi = (0, 1) if space.kind == "coin" else (1, space.basis.size)
    noise = rng.generator.standard_normal((n, hi - lo))
    noise *= sigma[:, None]
    moved = locations.copy()
    moved[:, lo:hi] += noise
    return ParticleCloud(space.project(moved), cloud.weights, space, cloud.log_weights)


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
