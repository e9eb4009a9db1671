"""Seedable samplers for random matrices, states, and channels.

All samplers consume randomness through an :class:`RngStream`, a thin
wrapper around a counter-based generator keyed by ``(seed, key)``.
Two streams with the same key replay bit-identical sequences; distinct
keys are statistically independent, so per-trial or per-worker streams
can be drawn in any scheduling order without changing results.

Each state and channel ensemble draws a stack of n matrices in one
call, and these stacks are the only way to sample them; a stack of n
equals n single draws made in a row from the same stream.  Stacks are valid by construction and are
returned unchecked: their consumer validates each stack once
(:func:`tomolab.qobj.check_states`).
"""

from __future__ import annotations

import numpy as np

from .qobj import MARGINAL_FLOOR, partial_trace, restore_trace_preservation

_BCSZ_MAX_RETRIES = 100


class RngStream:
    """Reproducible randomness source addressed by (seed, key).

    A new stream has the root key ``(0,)``.  ``child(i, j, ...)`` derives
    an independent stream whose key is the parent key followed by the
    indices, which keeps parallel simulations reproducible regardless of
    thread scheduling.
    """

    def __init__(self, seed: int, _key: tuple = (0,)):
        self.seed = int(seed)
        self._key = _key
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
        self.generator = np.random.Generator(np.random.Philox(seq))

    def child(self, *indices: int) -> "RngStream":
        """Independent stream derived deterministically from this one."""
        key = self._key + tuple(int(i) for i in indices)
        return RngStream(self.seed, _key=key)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self._key})"


def ginibre_matrices(n: int, dim: int, rank: int, rng: RngStream) -> np.ndarray:
    """(n, dim, rank) stack of matrices with i.i.d. standard complex
    Gaussian entries.

    Real and imaginary parts are each N(0, 1), so E|g|^2 = 2.  Each matrix
    takes its real block and then its imaginary block from the stream, so
    one stack of n equals n single draws made in a row.
    """
    if n < 1 or dim < 1 or rank < 1:
        raise ValueError("dimensions must be positive")
    block = rng.generator.standard_normal((n, 2, dim, rank))
    return block[:, 0] + 1j * block[:, 1]


def ginibre_matrix(dim: int, rank: int, rng: RngStream) -> np.ndarray:
    """One dim x rank Ginibre matrix (see :func:`ginibre_matrices`)."""
    return ginibre_matrices(1, dim, rank, rng)[0]


def _dag(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _unit_trace(stack: np.ndarray) -> np.ndarray:
    return stack / np.trace(stack, axis1=-2, axis2=-1).real[:, None, None]


def _haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from the QR factorizations of a Ginibre stack.

    The phases of the R diagonals are absorbed into Q, which removes the
    gauge freedom of the raw QR factorization.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def ginibre_states(n: int, dim: int, rank: int, rng: RngStream) -> np.ndarray:
    """(n, dim, dim) stack of random density operators A A^dag / Tr[A A^dag],
    A Ginibre dim x rank."""
    if rank > dim:
        raise ValueError("rank cannot exceed dimension")
    a = ginibre_matrices(n, dim, rank, rng)
    return _unit_trace(a @ _dag(a))


def bures_states(n: int, dim: int, rng: RngStream) -> np.ndarray:
    """(n, dim, dim) stack of random density operators from the Bures measure.

    (I + U) A A^dag (I + U^dag) normalized, with A square Ginibre and U
    Haar; each draw takes its A from the stream before its U.
    """
    g = ginibre_matrices(2 * n, dim, dim, rng).reshape(n, 2, dim, dim)
    m = (np.eye(dim) + _haar_from_ginibre(g[:, 1])) @ g[:, 0]
    return _unit_trace(m @ _dag(m))


def ginibre_rebit_states(n: int, rank: int, rng: RngStream) -> np.ndarray:
    """(n, 2, 2) stack of random rebits: real 2 x rank Ginibre entries, so
    the states have no Y component."""
    if rank not in (1, 2):
        raise ValueError("rebit rank must be 1 or 2")
    a = rng.generator.standard_normal((n, 2, rank))
    return _unit_trace(a @ a.swapaxes(-1, -2)).astype(complex)


def bcsz_channels(n: int, dim: int, kraus_rank: int, rng: RngStream) -> np.ndarray:
    """(n, D**2, D**2) stack of random CPTP channels from the BCSZ
    ensemble, as unit-trace Choi states.

    Draws rho = X X^dag with X Ginibre on the D**2 space, then enforces
    trace preservation by sandwiching with the inverse square root of the
    input marginal Y = Tr_out[rho]:

        J(Lambda)/D = (Y(-1/2) (x) I) rho (Y(-1/2) (x) I) / D.

    A draw whose Y is numerically singular is redrawn, after the whole
    stack, until every Y is regular.  The results have Kraus rank
    ``kraus_rank`` almost surely.
    """
    if not 1 <= kraus_rank <= dim * dim:
        raise ValueError("Kraus rank must lie in [1, D**2]")
    rho = np.empty((n, dim * dim, dim * dim), dtype=complex)
    todo = np.arange(n)
    for _ in range(_BCSZ_MAX_RETRIES):
        x = ginibre_matrices(todo.size, dim * dim, kraus_rank, rng)
        rho[todo] = x @ _dag(x)
        y = partial_trace(rho[todo], (dim, dim), keep="first")
        todo = todo[np.linalg.eigvalsh(y).min(axis=-1) <= MARGINAL_FLOOR]
        if not todo.size:
            break
    else:
        raise RuntimeError("input marginal stayed numerically singular after retries")
    return restore_trace_preservation(rho, dim)
