"""Prior distributions over states, channels, and coins.

A prior is a named sampler emitting real coordinate vectors.  Each prior
carries its :class:`HypothesisSpace`: the model its rows describe, their
operator basis, and the projection back to valid rows.  Fiducial
priors wrap the random ensembles directly.  Insightful priors damp a
fiducial sample toward a target mean: with a Beta-distributed mixing
weight eps the sample is

    rho' = (1 - eps) rho_f + eps rho_star,

where eps ~ Beta(1, beta) and (beta, rho_star) are chosen in closed form
so that the prior mean equals the requested rho_mu while the support of
the fiducial prior is preserved.  The same construction applies verbatim
to Choi states (with I/D**2 taking over the role of the maximally mixed
state) and to classical coins, whose heads probability p is the
two-level state diag(p, 1 - p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from .qobj import (
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityOperator,
    InvalidOperatorError,
    OperatorBasis,
    check_states,
    partial_trace,
    positive_definite,
    standard_basis,
    truncate_to_choi,
    truncate_to_state,
)
from .randq import RngStream, bcsz_channels, bures_states, ginibre_rebit_states, ginibre_states

LAMBDA_FLOOR = 1e-6
_PASSTHROUGH_TOL = 1e-12
GAD_TP_TOL = 1e-6
MODELS = ("state", "channel", "coin")


class PriorConstructionError(ValueError):
    """The requested prior mean cannot be realized."""


@dataclass(frozen=True, eq=False)
class HypothesisSpace:
    """Geometry of one hypothesis row: which coordinates make up the
    state and how to project a perturbed row back to validity.

    ``kind`` is the model, named as a run config names it.  State and
    channel rows are coordinates in ``basis``; a channel's rows are Choi
    states, so its basis lives on the D**2 space of a channel on C^D.
    ``n_hyper`` trailing columns (a tracked cloud's diffusion rate)
    follow the state coordinates.
    """

    kind: str  # one of MODELS
    basis: Optional[OperatorBasis] = None
    n_hyper: int = 0

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ValueError(f"unknown hypothesis kind {self.kind!r}")
        if (self.basis is None) != (self.kind == "coin"):
            raise ValueError("state and channel spaces need an operator basis; coins have none")
        if self.kind == "channel" and self.channel_dim**2 != self.basis.dim:
            raise ValueError("a channel basis must live on a D**2 space")

    @property
    def channel_dim(self) -> Optional[int]:
        """D for a channel on C^D, None for states and coins."""
        return math.isqrt(self.basis.dim) if self.kind == "channel" else None

    @property
    def n_state_coords(self) -> int:
        return 1 if self.kind == "coin" else self.basis.size

    @property
    def n_coords(self) -> int:
        return self.n_state_coords + self.n_hyper

    def project(self, locations: np.ndarray) -> np.ndarray:
        """Project rows onto the valid set (hyper columns clamped at 0).

        State rows that are already positive definite only have their
        trace renormalized: coordinate 0 is tr(rho)/sqrt(D) and the other
        basis elements are traceless, so such a row is divided by
        ``row[0] * sqrt(D)``.  The other state rows are truncated by
        eigenvalue.  Choi rows are always truncated and then repaired to
        trace preservation; coins are clamped to [0, 1].
        """
        out = np.array(locations, dtype=float)
        w = self.n_state_coords
        if self.kind == "coin":
            out[:, 0] = out[:, 0].clip(0.0, 1.0)
        else:
            mats = self.basis.devectorize(out[:, :w])
            if self.kind == "channel":
                out[:, :w] = self.basis.vectorize(truncate_to_choi(mats, self.channel_dim))
            else:
                valid = positive_definite(mats)
                out[valid, :w] /= out[valid, :1] * math.sqrt(self.basis.dim)
                out[~valid, :w] = self.basis.vectorize(truncate_to_state(mats[~valid]))
        if self.n_hyper:
            out[:, w:] = np.maximum(out[:, w:], 0.0)
        return out


@dataclass(frozen=True, eq=False)
class PriorDistribution:
    """Named sampler over the coordinate rows of its hypothesis ``space``.

    ``sample(n, rng)`` is the one way to draw.  A fiducial state or
    channel prior draws a stack of matrices from ``ensemble(n=, rng=)``
    (a :mod:`randq` sampler), validates it once and vectorizes it; a
    fiducial coin prior draws its heads probability uniformly.  A damped
    prior mixes the draws of its ``fiducial`` prior toward ``target``,
    the coordinates of the extremal target, with Beta(1, ``beta``)
    weights.
    """

    name: str
    space: HypothesisSpace
    ensemble: Optional[Callable[..., np.ndarray]] = None
    fiducial: Optional["PriorDistribution"] = None
    beta: Optional[float] = None
    target: Optional[Union[np.ndarray, float]] = None

    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        """n draws as an (n, coordinates) array.

        A damped prior takes all n fiducial draws from the stream first,
        then the n mixing weights.
        """
        if self.fiducial is not None:
            fid = self.fiducial.sample(n, rng)
            eps = sample_epsilon(self.beta, n, rng)[:, None]
            return (1.0 - eps) * fid + eps * self.target
        space = self.space
        if space.kind == "coin":
            return rng.generator.random((n, 1))
        stack = check_states(self.ensemble(n=n, rng=rng), channel_dim=space.channel_dim)
        return space.basis.vectorize(stack)


def ginibre_prior(dim: int, rank: Optional[int] = None) -> PriorDistribution:
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise PriorConstructionError(f"Ginibre rank {rank} must lie in [1, {dim}]")
    return PriorDistribution(name=f"ginibre(d={dim},k={rank})",
                             space=HypothesisSpace("state", standard_basis(dim)),
                             ensemble=partial(ginibre_states, dim=dim, rank=rank))


def bures_prior(dim: int) -> PriorDistribution:
    return PriorDistribution(name=f"bures(d={dim})",
                             space=HypothesisSpace("state", standard_basis(dim)),
                             ensemble=partial(bures_states, dim=dim))


def rebit_ginibre_prior(rank: Optional[int] = None) -> PriorDistribution:
    rank = 2 if rank is None else rank
    if rank not in (1, 2):
        raise PriorConstructionError(f"rebit rank {rank} must be 1 or 2")
    return PriorDistribution(name=f"rebit-ginibre(k={rank})",
                             space=HypothesisSpace("state", standard_basis(2)),
                             ensemble=partial(ginibre_rebit_states, rank=rank))


def bcsz_prior(dim: int, kraus_rank: Optional[int] = None) -> PriorDistribution:
    kraus_rank = dim * dim if kraus_rank is None else kraus_rank
    if not 1 <= kraus_rank <= dim * dim:
        raise PriorConstructionError(f"Kraus rank {kraus_rank} must lie in [1, {dim * dim}]")
    return PriorDistribution(name=f"bcsz(d={dim},k={kraus_rank})",
                             space=HypothesisSpace("channel", standard_basis(dim * dim)),
                             ensemble=partial(bcsz_channels, dim=dim, kraus_rank=kraus_rank))


def coin_uniform_prior() -> PriorDistribution:
    return PriorDistribution(name="coin-uniform", space=HypothesisSpace("coin"))


def gad_params(rho_mu) -> tuple[float, np.ndarray]:
    """Beta parameter and extremal target realizing prior mean ``rho_mu``.

    With d the dimension of rho_mu and lam its smallest eigenvalue, the
    mixing weights are Beta(1, beta) with

        beta = d lam / (1 - d lam),
        rho_star = (1 + beta) (rho_mu - beta/(1 + beta) I/d).

    rho_mu must be Hermitian with unit trace.  Means too close to the
    boundary (lam <= 1e-6) are rejected; mix the requested mean toward
    the maximally mixed state before calling if that happens.
    rho_mu = I/d returns beta = inf, signalling passthrough of the
    fiducial prior.
    """
    mu = np.asarray(rho_mu, dtype=complex)
    d = mu.shape[0]
    # eigvalsh reads one triangle, and the passthrough test one eigenvalue.
    if not np.abs(mu - mu.conj().T).max() <= HERMITICITY_TOL:
        raise PriorConstructionError("prior mean is not Hermitian")
    if not abs(np.trace(mu).real - 1.0) <= TRACE_TOL:
        raise PriorConstructionError("prior mean must have unit trace")
    lam_min = float(np.linalg.eigvalsh(mu).min())
    if lam_min >= 1.0 / d - _PASSTHROUGH_TOL:
        return np.inf, np.eye(d, dtype=complex) / d
    if lam_min <= LAMBDA_FLOOR:
        raise PriorConstructionError(
            f"prior mean has smallest eigenvalue {lam_min:.3g}; "
            "mix it toward the maximally mixed state to lift it above 1e-6"
        )
    beta = d * lam_min / (1.0 - d * lam_min)
    rho_star = (1.0 + beta) * (mu - beta / (1.0 + beta) * np.eye(d) / d)
    return beta, rho_star


def sample_epsilon(beta: float, n: int, rng: RngStream) -> np.ndarray:
    """n draws of eps ~ Beta(1, beta) by inverse CDF; beta = inf gives eps = 0."""
    return 1.0 - rng.generator.random(n) ** (1.0 / beta)


def insightful_prior(fiducial: PriorDistribution, mean) -> PriorDistribution:
    """Damp a fiducial prior toward the prior mean ``mean``.

    A state prior takes a density matrix, a channel prior a Choi state
    (its extremal target is checked to be trace preserving), and a coin
    prior a heads probability p, damped as the two-level state
    diag(p, 1 - p): its target is the endpoint nearer p.  Returns the
    fiducial prior unchanged when the mean is maximally mixed.
    """
    space = fiducial.space
    if space.kind == "coin":
        if np.ndim(mean) or not 0.0 <= mean <= 1.0:
            raise PriorConstructionError("coin mean must lie in [0, 1]")
        mu = np.diag([mean, 1.0 - mean])
    else:
        mu = np.asarray(mean, dtype=complex)
        if mu.shape != (space.basis.dim, space.basis.dim):
            raise PriorConstructionError("prior mean dimension does not match the fiducial prior")
    beta, rho_star = gad_params(mu)
    if np.isinf(beta):
        return fiducial
    if space.kind == "channel":
        d = space.channel_dim
        marginal = partial_trace(rho_star, (d, d), keep="first")
        if np.abs(marginal - np.eye(d) / d).max() > GAD_TP_TOL:
            raise PriorConstructionError("extremal channel target is not trace preserving")
    try:
        DensityOperator(matrix=rho_star)
    except InvalidOperatorError as err:
        raise PriorConstructionError(f"extremal target is not a valid state: {err}") from err
    # A coin's rho_star is diag(1, 0) or diag(0, 1) but for rounding.
    target = float(mean > 0.5) if space.kind == "coin" else space.basis.vectorize(rho_star)
    return PriorDistribution(name=f"insightful({fiducial.name})", space=space,
                             fiducial=fiducial, beta=beta, target=target)
