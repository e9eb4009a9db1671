"""Measurement-design heuristics.

Random Pauli measurements for qubits, the twelve qutrit stabilizer
states, random preparation/measurement pairs for process tomography, and
a covariance-guided adaptive rule that picks the proposed table entry
whose effect direction carries the most posterior uncertainty.

Each family has a fixed, finite set of effects.  They are built and
validated once, on first use, into an effect table: a read-only
``(m, D**2)`` array whose rows are the effects' basis coordinates.  A
design is one such row, and a random design is one uniformly random row
of its table, so a table holds only the effects its family draws.
:func:`tracking_bandwidth` picks the shots per step of a tracked run.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .qobj import (
    PAULIS,
    DensityOperator,
    Effect,
    OperatorBasis,
    gell_mann_basis,
    pauli_basis,
    process_effect,
)
from .randq import RngStream


def _table(rows) -> np.ndarray:
    """Coordinate rows stacked into a read-only effect table."""
    table = np.array(rows)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def pauli_effects(n_qubits: int) -> np.ndarray:
    """Effect table of (I + P)/2 for each of the 4**n - 1 non-identity
    n-qubit Pauli strings P, in the order of
    ``pauli_basis(n_qubits).elements[1:]``."""
    basis = pauli_basis(n_qubits)
    eye = np.eye(2**n_qubits)
    scale = np.sqrt(2.0**n_qubits)
    return _table([basis.vectorize(Effect(matrix=(eye + element * scale) / 2.0).matrix)
                   for element in basis.elements[1:]])


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
def stabilizer_qutrit_effects() -> np.ndarray:
    """Effect table of the 12 projectors onto the qutrit stabilizer states."""
    basis = gell_mann_basis(3)
    return _table([basis.vectorize(Effect(matrix=np.outer(ket, ket.conj())).matrix)
                   for ket in qutrit_stabilizer_states()])


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
def process_effects(basis: OperatorBasis) -> np.ndarray:
    """Effect table of the 36 composite process effects in ``basis``:
    preparation i and measurement j of :func:`pauli_eigenstates` at
    index ``6 * i + j``."""
    states = pauli_eigenstates()
    return _table([basis.vectorize(process_effect(DensityOperator(matrix=prep),
                                                  Effect(matrix=meas)).matrix)
                   for prep in states for meas in states])


def process_entries(n: int, rng: RngStream) -> np.ndarray:
    """``n`` random entries of :func:`process_effects` from one ``integers``
    call: the values and stream state of ``2 * n`` scalar calls in turn."""
    drawn = rng.generator.integers(0, 6, size=2 * n)
    return 6 * drawn[0::2] + drawn[1::2]


def random_process_design(rng: RngStream, basis: OperatorBasis) -> np.ndarray:
    """Random composite design for qubit process tomography: a uniformly
    random preparation, then measurement, among the Pauli eigenstates."""
    return process_effects(basis)[process_entries(1, rng)[0]]


def adaptive_design(effects: np.ndarray, entries, covariance: np.ndarray) -> int:
    """The entry of ``entries`` whose row x of the effect table ``effects``
    maximizes x^T Sigma x.

    Each distinct entry is scored once, all in one product.  Ties resolve
    to the earliest entry drawn.
    """
    if len(entries) == 0:
        raise ValueError("need at least one proposal")
    distinct, drawn = np.unique(entries, return_inverse=True)
    coords = effects[distinct]
    scores = np.einsum("ij,ij->i", coords @ covariance, coords)
    return int(entries[int(np.argmax(scores[drawn]))])


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
