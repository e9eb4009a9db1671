"""Prior distributions over states, channels, and coins.

A prior is a named sampler emitting real coordinate vectors.  Fiducial
priors wrap the random ensembles directly.  Insightful priors damp a
fiducial sample toward a target mean: with a Beta-distributed mixing
weight eps the sample is

    rho' = (1 - eps) rho_f + eps rho_star,

where (alpha, beta, rho_star) are chosen in closed form so that the
prior mean equals the requested rho_mu while the support of the fiducial
prior is preserved.  The same construction applies verbatim to Choi
states (with I/D**2 taking over the role of the maximally mixed state)
and to classical coins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from .qobj import (
    ChoiState,
    DensityOperator,
    InvalidOperatorError,
    OperatorBasis,
    check_states,
    partial_trace,
    standard_basis,
)
from .randq import RngStream, bcsz_channels, bures_states, ginibre_rebit_states, ginibre_states

LAMBDA_FLOOR = 1e-6
_PASSTHROUGH_TOL = 1e-12
GAD_TP_TOL = 1e-6


class PriorConstructionError(ValueError):
    """The requested prior mean cannot be realized."""


@dataclass(frozen=True, eq=False)
class PriorDistribution:
    """Named sampler over hypothesis coordinate vectors.

    ``sample(n, rng)`` is the one way to draw.  A fiducial state or
    channel prior draws a stack of matrices from ``ensemble(n=, rng=)``
    (a :mod:`randq` sampler), validates it once and vectorizes it; a
    fiducial coin prior (``basis`` None) draws its heads probability
    uniformly.  A damped prior mixes the draws of its ``fiducial`` prior
    toward ``target``, the coordinates of the extremal target, with
    Beta(1, ``beta``) weights.  ``channel_dim`` is set when samples are
    Choi states on a D**2 space.
    """

    name: str
    basis: Optional[OperatorBasis]
    ensemble: Optional[Callable[..., np.ndarray]] = None
    channel_dim: Optional[int] = None
    fiducial: Optional["PriorDistribution"] = None
    beta: Optional[float] = None
    target: Optional[Union[np.ndarray, float]] = None

    @property
    def n_coords(self) -> int:
        return 1 if self.basis is None else self.basis.size

    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        """n draws as an (n, n_coords) array.

        A damped prior takes all n fiducial draws from the stream first,
        then the n mixing weights.
        """
        if self.fiducial is not None:
            fid = self.fiducial.sample(n, rng)
            eps = sample_epsilon(self.beta, n, rng)[:, None]
            return (1.0 - eps) * fid + eps * self.target
        if self.basis is None:
            return rng.generator.random((n, 1))
        stack = check_states(self.ensemble(n=n, rng=rng), channel_dim=self.channel_dim)
        return self.basis.vectorize(stack)


def ginibre_prior(dim: int, rank: Optional[int] = None,
                  basis: Optional[OperatorBasis] = None) -> PriorDistribution:
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise PriorConstructionError(f"Ginibre rank {rank} must lie in [1, {dim}]")
    return PriorDistribution(name=f"ginibre(d={dim},k={rank})",
                             basis=standard_basis(dim) if basis is None else basis,
                             ensemble=partial(ginibre_states, dim=dim, rank=rank))


def bures_prior(dim: int, basis: Optional[OperatorBasis] = None) -> PriorDistribution:
    return PriorDistribution(name=f"bures(d={dim})",
                             basis=standard_basis(dim) if basis is None else basis,
                             ensemble=partial(bures_states, dim=dim))


def rebit_ginibre_prior(rank: int = 2, basis: Optional[OperatorBasis] = None) -> PriorDistribution:
    if rank not in (1, 2):
        raise PriorConstructionError(f"rebit rank {rank} must be 1 or 2")
    return PriorDistribution(name=f"rebit-ginibre(k={rank})",
                             basis=standard_basis(2) if basis is None else basis,
                             ensemble=partial(ginibre_rebit_states, rank=rank))


def bcsz_prior(dim: int, kraus_rank: Optional[int] = None,
               basis: Optional[OperatorBasis] = None) -> PriorDistribution:
    kraus_rank = dim * dim if kraus_rank is None else kraus_rank
    if not 1 <= kraus_rank <= dim * dim:
        raise PriorConstructionError(f"Kraus rank {kraus_rank} must lie in [1, {dim * dim}]")
    return PriorDistribution(name=f"bcsz(d={dim},k={kraus_rank})",
                             basis=standard_basis(dim * dim) if basis is None else basis,
                             ensemble=partial(bcsz_channels, dim=dim, kraus_rank=kraus_rank),
                             channel_dim=dim)


def coin_uniform_prior() -> PriorDistribution:
    return PriorDistribution(name="coin-uniform", basis=None)


def gad_params(rho_mu) -> tuple[float, float, np.ndarray]:
    """Beta parameters and extremal target realizing prior mean ``rho_mu``.

    With d the dimension of rho_mu and lam its smallest eigenvalue,

        alpha = 1,  beta = d lam / (1 - d lam),
        rho_star = ((alpha + beta)/alpha) (rho_mu - beta/(alpha + beta) I/d).

    Means too close to the boundary (lam <= 1e-6) are rejected; mix the
    requested mean with I/d before calling if that happens.  rho_mu = I/d
    returns beta = inf, signalling passthrough of the fiducial prior.
    """
    if isinstance(rho_mu, (DensityOperator, ChoiState)):
        rho_mu = rho_mu.matrix
    mu = np.asarray(rho_mu, dtype=complex)
    d = mu.shape[0]
    lam_min = float(np.linalg.eigvalsh(mu).min())
    if lam_min >= 1.0 / d - _PASSTHROUGH_TOL:
        return 1.0, np.inf, np.eye(d, dtype=complex) / d
    if lam_min <= LAMBDA_FLOOR:
        raise PriorConstructionError(
            f"prior mean has smallest eigenvalue {lam_min:.3g}; "
            "mix it with I/d to lift it above 1e-6 before building the prior"
        )
    alpha = 1.0
    beta = d * lam_min / (1.0 - d * lam_min)
    rho_star = ((alpha + beta) / alpha) * (
        mu - (beta / (alpha + beta)) * np.eye(d) / d
    )
    return alpha, beta, rho_star


def sample_epsilon(beta: float, n: int, rng: RngStream) -> np.ndarray:
    """n draws of eps ~ Beta(1, beta) by inverse CDF; beta = inf gives eps = 0."""
    return 1.0 - rng.generator.random(n) ** (1.0 / beta)


def insightful_prior(fiducial: PriorDistribution, rho_mu) -> PriorDistribution:
    """Damp a fiducial state or channel prior toward the mean ``rho_mu``.

    Returns the fiducial prior unchanged when rho_mu is maximally mixed.
    For channel priors rho_mu must itself be a valid Choi state; the
    extremal target is checked to be trace preserving.
    """
    if fiducial.basis is None:
        raise PriorConstructionError("coin priors use coin_insightful_prior")
    basis = fiducial.basis
    if isinstance(rho_mu, (DensityOperator, ChoiState)):
        rho_mu = rho_mu.matrix
    mu = np.asarray(rho_mu, dtype=complex)
    if mu.shape != (basis.dim, basis.dim):
        raise PriorConstructionError("prior mean dimension does not match the fiducial prior")
    _, beta, rho_star = gad_params(mu)
    if np.isinf(beta):
        return fiducial
    if fiducial.channel_dim is not None:
        d = fiducial.channel_dim
        marginal = partial_trace(rho_star, (d, d), keep="first")
        if np.abs(marginal - np.eye(d) / d).max() > GAD_TP_TOL:
            raise PriorConstructionError("extremal channel target is not trace preserving")
    try:
        DensityOperator(matrix=rho_star)
    except InvalidOperatorError as err:
        raise PriorConstructionError(f"extremal target is not a valid state: {err}") from err
    return PriorDistribution(name=f"insightful({fiducial.name})", basis=basis,
                             channel_dim=fiducial.channel_dim, fiducial=fiducial,
                             beta=beta, target=basis.vectorize(rho_star))


def coin_gad_params(p_mu: float) -> tuple[float, float, float]:
    """Coin version of :func:`gad_params`.

    lam = min(p_mu, 1 - p_mu), beta = 2 lam / (1 - 2 lam), and

        p_star = ((alpha + beta)/alpha) (p_mu - beta / (2 (alpha + beta))),

    which simplifies to exactly 0 for p_mu < 1/2 and 1 for p_mu > 1/2;
    those values are returned rather than the rounded formula.
    p_mu = 1/2 returns beta = inf (passthrough).
    """
    if not 0.0 <= p_mu <= 1.0:
        raise PriorConstructionError("coin mean must lie in [0, 1]")
    lam = min(p_mu, 1.0 - p_mu)
    if lam >= 0.5 - _PASSTHROUGH_TOL:
        return 1.0, np.inf, 0.5
    if lam <= LAMBDA_FLOOR:
        raise PriorConstructionError(
            "coin mean is too extreme; mix it toward 1/2 before building the prior"
        )
    alpha = 1.0
    beta = 2.0 * lam / (1.0 - 2.0 * lam)
    p_star = 0.0 if p_mu < 0.5 else 1.0
    return alpha, beta, p_star


def coin_insightful_prior(p_mu: float) -> PriorDistribution:
    """Uniform coin prior damped toward mean ``p_mu``."""
    _, beta, p_star = coin_gad_params(p_mu)
    if np.isinf(beta):
        return coin_uniform_prior()
    return PriorDistribution(name=f"coin-insightful(p={p_mu})", basis=None,
                             fiducial=coin_uniform_prior(), beta=beta, target=p_star)
