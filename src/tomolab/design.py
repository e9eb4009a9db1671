"""Measurement-design heuristics.

Random Pauli measurements for qubits, the twelve qutrit stabilizer
states, random preparation/measurement pairs for process tomography, and
a covariance-guided adaptive rule that picks the proposed table entry
whose effect direction carries the most posterior uncertainty.

Each family has a fixed, finite set of effects.  They are built and
validated once, on first use, into an effect table; a random design is a
random index into its table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .likelihood import ExperimentDesign, process_design
from .qobj import (
    PAULIS,
    DensityOperator,
    Effect,
    OperatorBasis,
    VectorizedOperator,
    gell_mann_basis,
    pauli_basis,
    vectorize,
)
from .randq import RngStream


@dataclass(frozen=True)
class DesignHeuristic:
    """Config-facing description of a design rule."""

    kind: str  # "random_pauli" | "stabilizer_qutrit" | "process_random" | "process_adaptive_mix" | "coin"
    n_meas: int
    n_proposals: int = 50
    adaptive_fraction: float = 0.8

    def __post_init__(self):
        if self.n_meas < 1:
            raise ValueError("n_meas must be positive")
        if self.n_proposals < 1:
            raise ValueError("need at least one proposal")
        if not 0.0 <= self.adaptive_fraction <= 1.0:
            raise ValueError("adaptive fraction must lie in [0, 1]")


@lru_cache(maxsize=None)
def pauli_effects(n_qubits: int) -> tuple[VectorizedOperator, ...]:
    """Effect table of (I + P)/2 for every n-qubit Pauli string P, in the
    order of ``pauli_basis(n_qubits)`` (entry 0, the identity string,
    gives the trivial effect I and is never drawn)."""
    basis = pauli_basis(n_qubits)
    eye = np.eye(2**n_qubits)
    scale = np.sqrt(2.0**n_qubits)
    return tuple(vectorize(Effect(matrix=(eye + element * scale) / 2.0), basis)
                 for element in basis.elements)


def random_pauli_design(n_qubits: int, n_meas: int, rng: RngStream) -> ExperimentDesign:
    """Uniformly random non-identity Pauli string P, measured as (I + P)/2."""
    effects = pauli_effects(n_qubits)
    idx = int(rng.generator.integers(1, len(effects)))
    return ExperimentDesign(effect=effects[idx], n_meas=n_meas)


@lru_cache(maxsize=1)
def qutrit_stabilizer_states() -> np.ndarray:
    """The 12 qutrit stabilizer states: four mutually unbiased bases.

    Eigenbases of Z, X, XZ, and XZ**2 for the qutrit shift X and clock Z.
    Returned as a (12, 3) array of kets, computational basis first.
    """
    omega = np.exp(2j * np.pi / 3.0)
    z = np.diag([1.0, omega, omega**2])
    x = np.roll(np.eye(3, dtype=complex), 1, axis=0)
    kets = [np.eye(3, dtype=complex)[:, j] for j in range(3)]
    for op in (x, x @ z, x @ z @ z):
        _, vecs = np.linalg.eig(op)
        for j in range(3):
            ket = vecs[:, j]
            kets.append(ket / np.linalg.norm(ket))
    out = np.array(kets)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=1)
def stabilizer_qutrit_effects() -> tuple[VectorizedOperator, ...]:
    """Effect table of the 12 projectors onto the qutrit stabilizer states."""
    basis = gell_mann_basis(3)
    return tuple(vectorize(Effect(matrix=np.outer(ket, ket.conj())), basis)
                 for ket in qutrit_stabilizer_states())


def random_stabilizer_qutrit_design(n_meas: int, rng: RngStream) -> ExperimentDesign:
    """Rank-one projector onto a uniformly random qutrit stabilizer state."""
    effects = stabilizer_qutrit_effects()
    idx = int(rng.generator.integers(0, len(effects)))
    return ExperimentDesign(effect=effects[idx], n_meas=n_meas)


@lru_cache(maxsize=1)
def pauli_eigenstates() -> tuple[np.ndarray, ...]:
    """Six single-qubit Pauli eigenstate projectors (+-X, +-Y, +-Z)."""
    eye = np.eye(2, dtype=complex)
    out = []
    for axis in ("X", "Y", "Z"):
        for sign in (1.0, -1.0):
            out.append((eye + sign * PAULIS[axis]) / 2.0)
    return tuple(out)


@lru_cache(maxsize=None)
def process_effects(basis: OperatorBasis) -> tuple[VectorizedOperator, ...]:
    """Effect table of the 36 composite process effects in ``basis``:
    preparation i and measurement j of :func:`pauli_eigenstates` at
    index ``6 * i + j``."""
    states = pauli_eigenstates()
    return tuple(process_design(DensityOperator(matrix=prep), Effect(matrix=meas),
                                1, basis).effect
                 for prep in states for meas in states)


def process_entries(n: int, rng: RngStream) -> np.ndarray:
    """``n`` random entries of :func:`process_effects` from one ``integers``
    call: the values and stream state of ``2 * n`` scalar calls in turn."""
    drawn = rng.generator.integers(0, 6, size=2 * n)
    return 6 * drawn[0::2] + drawn[1::2]


def random_process_design(n_meas: int, rng: RngStream,
                          basis: OperatorBasis) -> ExperimentDesign:
    """Random composite design for qubit process tomography: a uniformly
    random preparation, then measurement, among the Pauli eigenstates."""
    return ExperimentDesign(effect=process_effects(basis)[process_entries(1, rng)[0]],
                            n_meas=n_meas)


def adaptive_design(effects: tuple[VectorizedOperator, ...], entries,
                    covariance: np.ndarray) -> int:
    """The entry of ``entries`` whose effect coordinates x in the table
    ``effects`` maximize x^T Sigma x.

    Each distinct entry is scored once, all in one product.  Ties resolve
    to the earliest entry drawn.
    """
    if len(entries) == 0:
        raise ValueError("need at least one proposal")
    distinct, drawn = np.unique(entries, return_inverse=True)
    coords = np.array([effects[entry].coords for entry in distinct])
    scores = np.einsum("ij,ij->i", coords @ covariance, coords)
    return int(entries[int(np.argmax(scores[drawn]))])

