"""Sequential Monte Carlo over hypothesis coordinate vectors.

A particle cloud is a weighted set of coordinate rows together with the
:class:`~tomolab.priors.HypothesisSpace` the rows live in (state,
channel, or coin, optionally extended by a trailing diffusion-rate
column).  Bayes updates add log-likelihoods to log weights; when the
effective sample size drops, the cloud is rejuvenated with a Liu-West
kernel that shrinks particles toward the mean, adds Gaussian noise
matched to the cloud covariance, and projects everything back to the
valid set.

A tracked cloud's trailing column holds each particle's diffusion rate
eta, by which :func:`diffuse_cloud` moves it between updates.  eta
changes only through reweighting and resampling, never by diffusion, so
the rates that explain the data better accumulate weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .priors import HypothesisSpace, PriorDistribution
from .qobj import DimensionMismatchError
from .randq import RngStream

RANK_CUTOFF = 1e-12
SUPPORT_RESIDUAL_TOL = 1e-8
LIU_WEST_A = 0.98
ESS_THRESHOLD = 0.5


class DegenerateUpdateError(RuntimeError):
    """Every particle assigned zero likelihood; the posterior is lost."""


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """Weighted particle approximation of a posterior.

    ``log_weights``, when set, holds the normalized log weights of the
    last Bayes update: finite for particles whose weight underflowed to
    exactly 0, so a later update can still revive them.
    """

    locations: np.ndarray  # (n, d) float
    weights: np.ndarray    # (n,) float, sums to one
    space: HypothesisSpace
    log_weights: Optional[np.ndarray] = None  # (n,) float

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if loc.ndim != 2 or w.ndim != 1 or loc.shape[0] != w.shape[0]:
            raise DimensionMismatchError("locations and weights do not align")
        if loc.shape[1] != self.space.n_coords:
            raise DimensionMismatchError("row width does not match the hypothesis space")
        if not (w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be nonnegative and sum to one")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @property
    def n_particles(self) -> int:
        return self.locations.shape[0]


@dataclass(frozen=True)
class CredibleEllipsoid:
    """Covariance ellipsoid membership test at scale ``z``.

    A point belongs iff its offset from the center lies in the support
    (column space) of the covariance and the Mahalanobis form there is at
    most z**2.  A zero-covariance posterior contains only its center.
    """

    center: np.ndarray
    covariance: np.ndarray
    z: float

    def contains(self, coords) -> bool:
        delta = np.asarray(coords, dtype=float) - self.center
        lam, vecs = np.linalg.eigh(self.covariance)
        lam = np.clip(lam, 0.0, None)
        cutoff = lam.max() * RANK_CUTOFF if lam.size else 0.0
        support = lam > cutoff
        comps = vecs.T @ delta
        residual = np.linalg.norm(comps[~support]) if (~support).any() else 0.0
        if residual > SUPPORT_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(delta))):
            return False
        if not support.any():
            return True
        mahal = float(np.sum(comps[support] ** 2 / lam[support]))
        return mahal <= self.z**2


def init_cloud(prior: PriorDistribution, n_particles: int, rng: RngStream,
               rates: Optional[tuple[float, float]] = None) -> ParticleCloud:
    """Equal-weight cloud of prior draws in ``prior.space``.

    ``rates = (mean, log_std)``, when given, appends a diffusion-rate
    column drawn after the rows: log-normal with arithmetic mean ``mean``
    and log standard deviation ``log_std``, or all zeros when ``mean`` is
    0.  The cloud's space is then a copy with ``n_hyper = 1``.
    """
    if n_particles < 2:
        raise ValueError("need at least two particles")
    rows = prior.sample(n_particles, rng)
    space = prior.space
    if rates is not None:
        mean, log_std = rates
        if mean < 0.0:
            raise ValueError("eta mean must be nonnegative")
        eta = np.zeros(n_particles) if mean == 0.0 else rng.generator.lognormal(
            mean=math.log(mean) - 0.5 * log_std**2, sigma=log_std, size=n_particles)
        rows = np.column_stack([rows, eta])
        space = replace(space, n_hyper=1)
    weights = np.full(n_particles, 1.0 / n_particles)
    return ParticleCloud(locations=rows, weights=weights, space=space)


def bayes_update(cloud: ParticleCloud, log_like) -> tuple[ParticleCloud, float]:
    """Reweight the cloud by one datum's per-particle log-likelihoods
    ``log_like``, in log space.

    Forms log w + log L per particle, subtracts the maximum before
    exponentiating, and normalizes, so no shot count underflows the
    weights.  Returns the updated cloud and the log of the normalization
    (the log predictive probability of the datum).  Where a weight
    underflowed to 0, its log is read from the cloud's ``log_weights``.
    Raises :class:`DegenerateUpdateError`, leaving the input untouched,
    only when every particle has a true zero (log -inf) posterior weight.
    """
    log_like = np.asarray(log_like, dtype=float)
    if log_like.shape != cloud.weights.shape:
        raise DimensionMismatchError("need one log likelihood per particle")
    if not (log_like < np.inf).all():
        raise ValueError("log likelihood must be a number below +inf")
    with np.errstate(divide="ignore"):
        log_prior = np.log(cloud.weights)
    if cloud.log_weights is not None:
        lost = cloud.weights == 0.0
        log_prior[lost] = cloud.log_weights[lost]
    log_post = log_prior + log_like
    top = float(log_post.max())
    if top == -np.inf:
        raise DegenerateUpdateError("all particle likelihoods vanished")
    raw = np.exp(log_post - top)
    norm = float(raw.sum())
    log_norm = top + math.log(norm)
    return (ParticleCloud(cloud.locations, raw / norm, cloud.space, log_post - log_norm),
            log_norm)


def effective_sample_size(cloud: ParticleCloud) -> float:
    """1 / sum(w**2): n for uniform weights, 1 for a delta."""
    w = cloud.weights
    return float(1.0 / (w * w).sum())


def posterior_mean_coords(cloud: ParticleCloud) -> np.ndarray:
    """Weighted mean of the cloud (Bayes estimator under quadratic loss)."""
    return cloud.weights @ cloud.locations


def posterior_covariance(cloud: ParticleCloud) -> np.ndarray:
    """Weighted covariance of the particle coordinates.

    The trace coordinate is constant on state and channel spaces, so its row
    and column are zeroed exactly.
    """
    return _covariance(cloud, posterior_mean_coords(cloud))


def _covariance(cloud: ParticleCloud, mean: np.ndarray) -> np.ndarray:
    """:func:`posterior_covariance` about the cloud's own ``mean``."""
    centered = cloud.locations - mean
    cov = (centered * cloud.weights[:, None]).T @ centered
    cov = 0.5 * (cov + cov.T)
    if cloud.space.kind != "coin":
        cov[0, :] = 0.0
        cov[:, 0] = 0.0
    return cov


def summarize(cloud: ParticleCloud) -> tuple[np.ndarray, np.ndarray, float]:
    """The posterior mean, covariance and effective sample size.

    For tracked clouds the mean includes the trailing diffusion-rate
    column.
    """
    mean = posterior_mean_coords(cloud)
    return mean, _covariance(cloud, mean), effective_sample_size(cloud)


def resample(cloud: ParticleCloud, rng: RngStream, a: float = LIU_WEST_A) -> ParticleCloud:
    """Liu-West rejuvenation.

    Draws parents by weight, shrinks them toward the cloud mean by ``a``,
    adds Gaussian noise with covariance (1 - a**2) times the cloud
    covariance (restricted to its column space), projects every row back
    to the valid set, and resets the weights to uniform.  ``a = 1``
    degenerates to plain multinomial resampling.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("shrinkage a must lie in (0, 1]")
    g = rng.generator
    n = cloud.n_particles
    mean = posterior_mean_coords(cloud)
    parents = g.choice(n, size=n, p=cloud.weights)
    if a == 1.0:
        # plain multinomial: parents are valid rows already
        return ParticleCloud(cloud.locations[parents], np.full(n, 1.0 / n), cloud.space)
    moved = a * cloud.locations[parents] + (1.0 - a) * mean
    lam, vecs = np.linalg.eigh(_covariance(cloud, mean))
    lam = lam.clip(0.0, None)
    keep = lam > lam.max() * RANK_CUTOFF if lam.size and lam.max() > 0.0 else np.zeros_like(lam, dtype=bool)
    if keep.any():
        scales = np.sqrt((1.0 - a * a) * lam[keep])
        z = g.standard_normal((n, int(keep.sum())))
        moved = moved + (z * scales) @ vecs[:, keep].T
    return ParticleCloud(cloud.space.project(moved), np.full(n, 1.0 / n), cloud.space)


def maybe_resample(cloud: ParticleCloud, rng: RngStream, a: float = LIU_WEST_A,
                   threshold: float = ESS_THRESHOLD) -> ParticleCloud:
    """Resample when the effective sample size falls below threshold * n."""
    if effective_sample_size(cloud) < threshold * cloud.n_particles:
        return resample(cloud, rng, a=a)
    return cloud


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


def credible_ellipsoid(cloud: ParticleCloud, z: float) -> CredibleEllipsoid:
    """Covariance ellipsoid at scale ``z`` around the posterior mean."""
    if z <= 0.0:
        raise ValueError("z must be positive")
    return CredibleEllipsoid(center=posterior_mean_coords(cloud),
                             covariance=posterior_covariance(cloud), z=float(z))


def principal_components(cov: np.ndarray, k: int) -> list[tuple[float, np.ndarray]]:
    """Top-k eigenpairs of a posterior covariance, largest first; each
    eigenvector is a unit-norm coordinate array."""
    if not 1 <= k <= cov.shape[0]:
        raise ValueError("k must lie in [1, n_coords]")
    lam, vecs = np.linalg.eigh(cov)
    order = np.argsort(lam)[::-1][:k]
    return [(float(lam[idx]), vecs[:, idx]) for idx in order]
