"""Finite-dimensional operator algebra.

Hermitian operator bases, vectorization of operators into real coordinate
vectors, Hilbert-Schmidt geometry, partial traces, and the Choi
representation of quantum channels.

Conventions
-----------
* Operator bases are orthonormal under ``<<A|B>> = Tr[A^dag B]`` and put
  the traceful element ``I/sqrt(D)`` first, so coordinate 0 of any unit
  trace operator is ``1/sqrt(D)`` and the remaining coordinates are the
  traceless components.
* Choi matrices are stored normalized to unit trace (``J(Lambda)/D``).
  The first tensor factor is the channel input, the second the output,
  so trace preservation reads ``Tr_out[J/D] = I/D``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product
from typing import Optional, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
TP_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-10
MARGINAL_FLOOR = 1e-12

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class DimensionMismatchError(ValueError):
    """Operands live on different spaces."""


class InvalidOperatorError(ValueError):
    """A matrix fails the defining constraints of its operator type."""


def _as_square(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _check_hermitian(arr: np.ndarray, what: str) -> None:
    if not np.abs(arr - arr.conj().swapaxes(-1, -2)).max() <= HERMITICITY_TOL:
        raise InvalidOperatorError(f"{what} is not Hermitian")


def check_states(stack: np.ndarray, channel_dim: Optional[int] = None) -> np.ndarray:
    """Validate an (n, D, D) stack of density operators in one pass.

    With ``channel_dim`` = d the stack holds unit-trace Choi matrices on
    the d**2 space, which must also be trace preserving (input marginal
    I/d).  Raises :class:`InvalidOperatorError` naming the first violated
    constraint if any matrix fails; returns the stack otherwise.
    """
    what = "density operator" if channel_dim is None else "Choi matrix"
    if not np.isfinite(stack).all():
        raise InvalidOperatorError(f"{what} has a non-finite entry")
    _check_hermitian(stack, what)
    if not np.abs(np.trace(stack, axis1=-2, axis2=-1).real - 1.0).max() <= TRACE_TOL:
        raise InvalidOperatorError(f"{what} must have unit trace")
    # Rows with every pivot positive have lambda_min above about -1e-15
    # (see positive_definite), so only the others need eigenvalues.
    doubtful = stack[~positive_definite(stack)]
    if len(doubtful) and not np.linalg.eigvalsh(doubtful).min() >= -PSD_TOL:
        raise InvalidOperatorError(f"{what} must be positive semidefinite")
    if channel_dim is not None:
        d = channel_dim
        marginal = partial_trace(stack, (d, d), keep="first")
        if not np.abs(marginal - np.eye(d) / d).max() <= TP_TOL:
            raise InvalidOperatorError("channel is not trace preserving")
    return stack


def positive_definite(mats) -> np.ndarray:
    """Which matrices of an (n, D, D) stack are positive definite.

    Reads each matrix as the Hermitian matrix ``np.linalg.eigvalsh``
    sees: the real part of the diagonal and the lower triangle.
    Sylvester's criterion through Schur complements: eliminate one pivot
    at a time (a Cholesky factorization without pivoting) and require
    every pivot to be positive.  Costs D rank-one updates of the stack,
    far less than an eigendecomposition.

    When every computed pivot is positive, the computed factor is the
    exact factor of A + E with |E| <= c(D) * eps * |L||L^H|, so lambda_min(A)
    is at least -c(D) * eps * tr(A): about -1e-15 for unit-trace matrices.
    A matrix that passes therefore has no eigenvalue below ``-PSD_TOL``.
    """
    a = np.array(mats, dtype=complex)
    ok = np.ones(a.shape[0], dtype=bool)
    for k in range(a.shape[-1]):
        pivot = a[:, k, k].real
        ok &= pivot > 0.0
        safe = np.where(ok, pivot, 1.0)
        col = a[:, k + 1:, k]
        a[:, k + 1:, k + 1:] -= col[:, :, None] * (col[:, None, :].conj() / safe[:, None, None])
    return ok


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Orthonormal Hermitian basis of the operator space on C^D.

    ``elements`` has shape ``(D**2, D, D)``; element 0 is ``I/sqrt(D)``
    and the rest are traceless.
    """

    elements: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        el = np.asarray(self.elements, dtype=complex)
        if el.ndim != 3 or el.shape[1] != el.shape[2]:
            raise DimensionMismatchError("basis elements must be a stack of square matrices")
        d = el.shape[1]
        if el.shape[0] != d * d:
            raise InvalidOperatorError("basis must contain exactly D**2 elements")
        gram = np.einsum("aij,bij->ab", el.conj(), el)
        if np.abs(gram - np.eye(d * d)).max() > ORTHONORMALITY_TOL:
            raise InvalidOperatorError("basis elements are not orthonormal")
        if np.abs(el[0] - np.eye(d) / np.sqrt(d)).max() > ORTHONORMALITY_TOL:
            raise InvalidOperatorError("element 0 must be I/sqrt(D)")
        traces = np.einsum("aii->a", el[1:])
        if traces.size and np.abs(traces).max() > ORTHONORMALITY_TOL:
            raise InvalidOperatorError("elements past 0 must be traceless")
        el.flags.writeable = False
        object.__setattr__(self, "elements", el)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension D."""
        return self.elements.shape[1]

    @property
    def size(self) -> int:
        """Number of basis elements, D**2."""
        return self.elements.shape[0]

    @cached_property
    def _real_elements(self) -> np.ndarray:
        """The elements as rows of real and imaginary parts, interleaved:
        shape ``(D**2, 2 * D**2)``."""
        return self.elements.reshape(self.size, -1).view(float)

    def vectorize(self, op) -> np.ndarray:
        """Real coordinates Re Tr[B_a^dag op]; broadcasts over leading axes."""
        op = np.ascontiguousarray(op, dtype=complex)
        if op.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"operator shape {op.shape[-2:]} does not match basis dimension {self.dim}"
            )
        if op.ndim == 2:
            imag = np.einsum("aij,ij->a", self.elements.conj(), op).imag
            if np.abs(imag).max() > 1e-8:
                raise InvalidOperatorError("operator has no real coordinate vector (not Hermitian)")
        flat = op.reshape(op.shape[:-2] + (self.size,)).view(float)
        return flat @ self._real_elements.T

    def devectorize(self, coords) -> np.ndarray:
        """Rebuild sum_a coords[a] B_a; broadcasts over leading axes."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1] != self.size:
            raise DimensionMismatchError(
                f"coordinate length {coords.shape[-1]} does not match basis size {self.size}"
            )
        out = (coords @ self._real_elements).view(complex)
        return out.reshape(coords.shape[:-1] + (self.dim, self.dim))


@lru_cache(maxsize=None)
def pauli_basis(n_qubits: int) -> OperatorBasis:
    """Normalized Pauli-string basis on n qubits, identity string first."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    norm = np.sqrt(2.0**n_qubits)
    labels = []
    elements = []
    for names in product("IXYZ", repeat=n_qubits):
        labels.append("".join(names))
        mats = [PAULIS[c] for c in names]
        elements.append(reduce(np.kron, mats) / norm)
    return OperatorBasis(elements=np.array(elements), labels=tuple(labels))


@lru_cache(maxsize=None)
def gell_mann_basis(dim: int) -> OperatorBasis:
    """Normalized generalized Gell-Mann basis for dimension ``dim``.

    Ordering: identity, then for each pair j<k the symmetric and
    antisymmetric elements, then the diagonal elements.  For dim=2 this
    reproduces the single-qubit Pauli basis element for element.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    elements = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    labels = ["I"]
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            elements.append(sym)
            labels.append(f"s{j}{k}")
            asym = np.zeros((dim, dim), dtype=complex)
            asym[j, k] = -1.0j / np.sqrt(2.0)
            asym[k, j] = 1.0j / np.sqrt(2.0)
            elements.append(asym)
            labels.append(f"a{j}{k}")
    for l in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        for j in range(l):
            diag[j, j] = 1.0
        diag[l, l] = -float(l)
        elements.append(diag / np.sqrt(l * (l + 1.0)))
        labels.append(f"d{l}")
    return OperatorBasis(elements=np.array(elements), labels=tuple(labels))


def standard_basis(dim: int) -> OperatorBasis:
    """Pauli strings when dim is a power of two, Gell-Mann otherwise."""
    n = dim.bit_length() - 1
    if dim == 2**n:
        return pauli_basis(n)
    return gell_mann_basis(dim)


@dataclass(frozen=True)
class DensityOperator:
    """Unit-trace positive semidefinite Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_square(self.matrix)
        check_states(arr[None])
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Effect:
    """POVM element: Hermitian with 0 <= E <= upper * I.

    ``upper`` is 1 for directly measured effects.  Composite effects built
    by :func:`process_effect` carry ``upper = D`` because the preparation
    side is scaled by the input dimension; their Born probabilities
    against trace-preserving Choi states still land in [0, 1].
    """

    matrix: np.ndarray
    upper: float = 1.0

    def __post_init__(self):
        arr = _as_square(self.matrix)
        if not np.isfinite(arr).all():
            raise InvalidOperatorError("effect has a non-finite entry")
        _check_hermitian(arr, "effect")
        eig = np.linalg.eigvalsh(arr)
        if not eig.min() >= -PSD_TOL:
            raise InvalidOperatorError("effect must be positive semidefinite")
        if not eig.max() <= self.upper + PSD_TOL:
            raise InvalidOperatorError(f"effect exceeds its upper bound {self.upper}")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ChoiState:
    """Unit-trace Choi matrix J(Lambda)/D of a CPTP map on C^D.

    Lives on the D**2-dimensional input (x) output space; positivity
    encodes complete positivity and the input marginal ``Tr_out = I/D``
    encodes trace preservation.
    """

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        arr = _as_square(self.matrix)
        if self.dim_in != self.dim_out:
            raise DimensionMismatchError("only square channels are supported")
        d = self.dim_in
        if arr.shape[0] != d * d:
            raise DimensionMismatchError("Choi matrix must live on the D**2 space")
        check_states(arr[None], channel_dim=d)
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr[A^dag B]."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatchError("operands must have equal dimensions")
    return complex(np.einsum("ij,ij->", a.conj(), b))


def partial_trace(op, dims: Sequence[int], keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``keep="first"`` returns the marginal on the first factor (traces out
    the second), ``keep="second"`` the reverse.
    """
    d1, d2 = int(dims[0]), int(dims[1])
    arr = np.asarray(op, dtype=complex)
    if arr.shape[-2:] != (d1 * d2, d1 * d2):
        raise DimensionMismatchError(
            f"operator shape {arr.shape[-2:]} does not factor as {d1}x{d2}"
        )
    resh = arr.reshape(arr.shape[:-2] + (d1, d2, d1, d2))
    if keep == "first":
        return np.einsum("...abcb->...ac", resh)
    if keep == "second":
        return np.einsum("...abad->...bd", resh)
    raise ValueError('keep must be "first" or "second"')


def restore_trace_preservation(stack, channel_dim: int) -> np.ndarray:
    """Rescale the input marginal of each PSD matrix in an (n, D**2, D**2)
    stack to I/D and renormalize its trace.

    Sandwiches J with (D Y)^(-1/2) (x) I, where Y = Tr_out[J] has its
    eigenvalues floored at ``MARGINAL_FLOOR``.
    """
    d = int(channel_dim)
    n = stack.shape[0]
    lam, vecs = np.linalg.eigh(partial_trace(stack, (d, d), keep="first"))
    lam = np.maximum(lam, MARGINAL_FLOOR)
    # (D * Y)^(-1/2), so the repaired marginal is exactly I/D.
    inv_sqrt = np.einsum("nik,nk,njk->nij", vecs, 1.0 / np.sqrt(d * lam), vecs.conj())
    lift = np.einsum("nxa,bc->nxbac", inv_sqrt, np.eye(d)).reshape(n, d * d, d * d)
    out = lift @ stack
    out = out @ np.conjugate(lift, out=lift).swapaxes(-1, -2)  # lift^dag, in place
    out /= np.einsum("nii->n", out).real[:, None, None]
    return out


class DegenerateStateError(ValueError):
    """Eigenvalue truncation has nothing left to normalize."""


def truncate_to_state(stack) -> np.ndarray:
    """Nearest-valid-state projection of an (n, D, D) stack of Hermitian
    matrices by eigenvalue truncation: clips negative eigenvalues to zero
    and renormalizes the trace."""
    lam, vecs = np.linalg.eigh(np.asarray(stack, dtype=complex))
    lam = lam.clip(0.0, None)
    totals = lam.sum(axis=-1)
    if np.any(totals <= 1e-12):
        raise DegenerateStateError("no positive weight survives truncation")
    lam = lam / totals[..., None]
    return np.einsum("...k,...ik,...jk->...ij", lam, vecs, vecs.conj())


def truncate_to_choi(stack, channel_dim: int) -> np.ndarray:
    """Project an (n, D**2, D**2) stack onto valid Choi states: truncation
    plus a trace-preservation repair that rescales the input marginal
    back to I/D."""
    return restore_trace_preservation(truncate_to_state(stack), channel_dim)


def choi_of_channel(kraus_ops: Sequence[np.ndarray]) -> ChoiState:
    """Unit-trace Choi matrix of the channel with the given Kraus operators."""
    kraus = [np.asarray(k, dtype=complex) for k in kraus_ops]
    if not kraus:
        raise ValueError("need at least one Kraus operator")
    d = kraus[0].shape[0]
    for k in kraus:
        if k.shape != (d, d):
            raise DimensionMismatchError("Kraus operators must be square and equal sized")
    total = sum(k.conj().T @ k for k in kraus)
    if np.abs(total - np.eye(d)).max() > TP_TOL:
        raise InvalidOperatorError("Kraus operators do not satisfy sum K^dag K = I")
    # (I (x) K)|I>> has components delta_{a i} K_{b i}, i.e. the flattened
    # transpose of K, with the input factor first.
    j = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus:
        v = k.T.reshape(-1)
        j += np.outer(v, v.conj())
    return ChoiState(matrix=j / d, dim_in=d, dim_out=d)


def apply_choi(choi: ChoiState, rho) -> np.ndarray:
    """Apply the channel encoded by ``choi`` to a state.

    Contracts the input factor: Lambda(rho) = Tr_in[(rho^T (x) I) J].
    """
    if isinstance(rho, DensityOperator):
        rho = rho.matrix
    rho = _as_square(rho)
    d = choi.dim_in
    if rho.shape != (d, d):
        raise DimensionMismatchError("state dimension does not match channel input")
    j = choi.matrix * d
    lifted = np.kron(rho.T, np.eye(d)) @ j
    return partial_trace(lifted, (d, d), keep="second")


def process_effect(prep: DensityOperator, meas: Effect) -> Effect:
    """Composite effect whose overlap with J(Lambda)/D is Tr[E Lambda(rho)].

    Returns ``(D * rho^T) (x) E`` on the input (x) output space.
    """
    if prep.dim != meas.dim:
        raise DimensionMismatchError("preparation and measurement dimensions differ")
    d = prep.dim
    composite = np.kron(d * prep.matrix.T, meas.matrix)
    return Effect(matrix=composite, upper=float(d) * meas.upper)
