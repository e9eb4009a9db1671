from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from tomolab.randq import RngStream

# The acceptance tests import the study scripts, which run the shipped
# configs with only the values each study sweeps replaced.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))


def trace_distance(a, b) -> float:
    """Half the sum of absolute eigenvalue differences of two Hermitian matrices."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_state_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_projector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Rank-1 projector onto a random unit vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def sample_mean(draw, n: int) -> np.ndarray:
    """Mean of n calls to a zero-argument sampler returning arrays."""
    acc = np.array(draw(), dtype=complex)
    for _ in range(n - 1):
        acc += draw()
    return acc / n


def fresh_stream(seed: int = 2026) -> RngStream:
    return RngStream(seed)


def written_record(record, out_dir) -> str:
    """The ``record.json`` text that ``record.write`` puts in ``out_dir``."""
    return (record.write(out_dir) / "record.json").read_text(encoding="utf-8")
