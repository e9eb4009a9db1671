"""Measurement-design heuristics.

Random Pauli measurements for qubits, the twelve qutrit stabilizer
states, random preparation/measurement pairs for process tomography, and
a covariance-guided adaptive rule that picks the proposal whose effect
direction carries the most posterior uncertainty.

Each family has a fixed, finite set of effects.  They are built and
validated once, on first use, into an effect table; a random design is a
random index into its table, drawn with one ``integers`` call per index.
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


def random_pauli_design(n_qubits: int, n_meas: int, rng: RngStream,
                        time: float = 0.0) -> ExperimentDesign:
    """Uniformly random non-identity Pauli string P, measured as (I + P)/2."""
    effects = pauli_effects(n_qubits)
    idx = int(rng.generator.integers(1, len(effects)))
    return ExperimentDesign(effect=effects[idx], n_meas=n_meas, time=time)


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


def random_stabilizer_qutrit_design(n_meas: int, rng: RngStream,
                                    time: float = 0.0) -> ExperimentDesign:
    """Rank-one projector onto a uniformly random qutrit stabilizer state."""
    effects = stabilizer_qutrit_effects()
    idx = int(rng.generator.integers(0, len(effects)))
    return ExperimentDesign(effect=effects[idx], n_meas=n_meas, time=time)


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


def random_process_design(n_meas: int, rng: RngStream, basis: OperatorBasis,
                          time: float = 0.0) -> ExperimentDesign:
    """Random composite design for qubit process tomography: a uniformly
    random preparation, then measurement, among the Pauli eigenstates."""
    g = rng.generator
    prep = int(g.integers(0, 6))
    meas = int(g.integers(0, 6))
    return ExperimentDesign(effect=process_effects(basis)[6 * prep + meas],
                            n_meas=n_meas, time=time)


def adaptive_design(proposals: list[ExperimentDesign],
                    covariance: np.ndarray) -> ExperimentDesign:
    """Pick the proposal maximizing x^T Sigma x for its effect coordinates.

    Proposals drawn from an effect table share effect objects, and each
    distinct effect is scored once.  Ties resolve to the earliest proposal.
    """
    if not proposals:
        raise ValueError("need at least one proposal")
    scores = {}
    for p in proposals:
        if id(p.effect) not in scores:
            coords = p.effect.coords
            scores[id(p.effect)] = float(coords @ covariance @ coords)
    return proposals[int(np.argmax([scores[id(p.effect)] for p in proposals]))]


def scheduled_mix(heuristics, fractions, rng: RngStream) -> ExperimentDesign:
    """Draw one sub-heuristic by its fraction and emit its design.

    ``heuristics`` are zero-argument callables returning a design.
    """
    fractions = np.asarray(fractions, dtype=float)
    if len(heuristics) != fractions.shape[0] or fractions.shape[0] == 0:
        raise ValueError("heuristics and fractions must align")
    if fractions.min() < 0.0 or abs(fractions.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be nonnegative and sum to one")
    u = rng.generator.random()
    idx = int(np.searchsorted(np.cumsum(fractions), u, side="right"))
    idx = min(idx, len(heuristics) - 1)
    return heuristics[idx]()
