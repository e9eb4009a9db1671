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
    if np.abs(arr - arr.conj().swapaxes(-1, -2)).max() > HERMITICITY_TOL:
        raise InvalidOperatorError(f"{what} is not Hermitian")


# Stacked contractions.  ``np.einsum`` (unoptimized) forms every complex
# product with the textbook formula (ac - bd, ad + bc), left to right,
# and adds the terms, in index order, to an output that starts at +0.0.
# Over a stack of small matrices it runs a short inner loop per matrix.
# The stack paths of ``OperatorBasis.devectorize`` and
# ``restore_trace_preservation`` move the stack axis last, so each ufunc
# runs one long inner loop, and perform the same floating-point
# operations in the same order.  ``devectorize`` leaves out products with
# an exact zero coefficient: such a product, like any component that
# differs from einsum's only in the sign of a zero, is a signed zero, and
# adding a signed zero to a sum that starts at +0.0 changes nothing.  On
# finite input the results equal the einsum expressions bit for bit
# (tests/test_qobj.py pins it), so recorded runs do not change.
# A stack path costs a few dozen ufunc calls whatever its length, so
# stacks shorter than STACK_PATH_MIN take the einsum itself; longer
# stacks go through in blocks of STACK_BLOCK, which bounds the
# temporaries to about what the einsum allocates.
STACK_PATH_MIN = 64
STACK_BLOCK = 256


def _nonzero_terms(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of a complex weight matrix, column by column.

    For each column m, the rows r with ``weights[r, m] != 0``, ascending,
    padded with zero weights to the longest column.  Returns the row
    indices and the real and imaginary weights at them, each of shape
    ``(K, n_columns)``.
    """
    rows = [np.flatnonzero(column) for column in weights.T]
    k = max(1, max(len(r) for r in rows))
    idx = np.zeros((k, weights.shape[1]), dtype=np.intp)
    picked = np.zeros((k, weights.shape[1]), dtype=complex)
    for m, r in enumerate(rows):
        idx[:len(r), m] = r
        picked[:len(r), m] = weights[r, m]
    return idx, picked.real.copy(), picked.imag.copy()


def _stack_last(arr: np.ndarray, n_item_axes: int) -> np.ndarray:
    """Flatten the leading (stack) axes and move them last, contiguously."""
    items = arr.shape[arr.ndim - n_item_axes:]
    return np.ascontiguousarray(np.moveaxis(arr.reshape((-1,) + items), 0, -1))


def _by_blocks(block_fn, out_shape: tuple, *stacks: np.ndarray) -> np.ndarray:
    """``block_fn`` applied to consecutive STACK_BLOCK-long slices of the
    stacks' first axis, gathered into one C-contiguous complex array."""
    out = np.empty(out_shape, dtype=complex)
    for lo in range(0, out_shape[0], STACK_BLOCK):
        block = slice(lo, lo + STACK_BLOCK)
        out[block] = block_fn(*(s[block] for s in stacks))
    return out


def _complex_stack(re: np.ndarray, im: np.ndarray, n_item_axes: int) -> np.ndarray:
    """Inverse of :func:`_stack_last` for a real and an imaginary part:
    a C-contiguous complex array with the stack axis first."""
    out = np.empty((re.shape[-1],) + re.shape[:n_item_axes], dtype=complex)
    out.real = np.moveaxis(re, -1, 0)
    out.imag = np.moveaxis(im, -1, 0)
    return out


def check_states(stack: np.ndarray, channel_dim: Optional[int] = None) -> np.ndarray:
    """Validate an (n, D, D) stack of density operators in one pass.

    With ``channel_dim`` = d the stack holds unit-trace Choi matrices on
    the d**2 space, which must also be trace preserving (input marginal
    I/d).  Raises :class:`InvalidOperatorError` naming the first violated
    constraint if any matrix fails; returns the stack otherwise.
    """
    what = "density operator" if channel_dim is None else "Choi matrix"
    _check_hermitian(stack, what)
    if np.abs(np.trace(stack, axis1=-2, axis2=-1).real - 1.0).max() > TRACE_TOL:
        raise InvalidOperatorError(f"{what} must have unit trace")
    if np.linalg.eigvalsh(stack).min() < -PSD_TOL:
        raise InvalidOperatorError(f"{what} must be positive semidefinite")
    if channel_dim is not None:
        d = channel_dim
        marginal = partial_trace(stack, (d, d), keep="first")
        if np.abs(marginal - np.eye(d) / d).max() > TP_TOL:
            raise InvalidOperatorError("channel is not trace preserving")
    return stack


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Orthonormal Hermitian basis of the operator space on C^D.

    ``elements`` has shape ``(D**2, D, D)``; element 0 is ``I/sqrt(D)``
    and the rest are traceless.
    """

    name: str
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

    def vectorize(self, op) -> np.ndarray:
        """Real coordinates Tr[B_a^dag op]; broadcasts over leading axes."""
        op = np.asarray(op, dtype=complex)
        if op.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"operator shape {op.shape[-2:]} does not match basis dimension {self.dim}"
            )
        coords = np.einsum("aij,...ij->...a", self.elements.conj(), op)
        if op.ndim == 2 and np.abs(coords.imag).max() > 1e-8:
            raise InvalidOperatorError("operator has no real coordinate vector (not Hermitian)")
        return coords.real

    def devectorize(self, coords) -> np.ndarray:
        """Rebuild sum_a coords[a] B_a; broadcasts over leading axes."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1] != self.size:
            raise DimensionMismatchError(
                f"coordinate length {coords.shape[-1]} does not match basis size {self.size}"
            )
        if coords.size < STACK_PATH_MIN * self.size:
            return np.einsum("...a,aij->...ij", coords, self.elements)
        flat = coords.reshape(-1, self.size)
        out = _by_blocks(self._devectorize_block, (flat.shape[0], self.dim**2), flat)
        return out.reshape(coords.shape[:-1] + (self.dim, self.dim))

    def _devectorize_block(self, coords: np.ndarray) -> np.ndarray:
        x = _stack_last(coords, 1)
        idx, b_re, b_im = self._devectorize_terms
        re = np.zeros((self.dim**2, x.shape[1]))
        im = np.zeros_like(re)
        for i, w_re, w_im in zip(idx, b_re, b_im):
            picked = x[i]
            re = picked * w_re[:, None] + re
            im = picked * w_im[:, None] + im
        return _complex_stack(re, im, 1)

    @cached_property
    def _devectorize_terms(self) -> tuple[np.ndarray, ...]:
        """Coordinates feeding each matrix entry, with the entry's weights."""
        return _nonzero_terms(self.elements.reshape(self.size, -1))


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
    return OperatorBasis(
        name=f"pauli-{n_qubits}", elements=np.array(elements), labels=tuple(labels)
    )


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
    return OperatorBasis(name=f"gm-{dim}", elements=np.array(elements), labels=tuple(labels))


def standard_basis(dim: int) -> OperatorBasis:
    """Pauli strings when dim is a power of two, Gell-Mann otherwise."""
    n = dim.bit_length() - 1
    if dim == 2**n:
        return pauli_basis(n)
    return gell_mann_basis(dim)


@dataclass(frozen=True)
class VectorizedOperator:
    """Real coordinate vector of a Hermitian operator in a fixed basis."""

    coords: np.ndarray
    basis: Optional[OperatorBasis]

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1:
            raise DimensionMismatchError("coordinates must be a flat real vector")
        if self.basis is not None and coords.shape[0] != self.basis.size:
            raise DimensionMismatchError(
                f"coordinate length {coords.shape[0]} does not match basis size {self.basis.size}"
            )
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    def matrix(self) -> np.ndarray:
        if self.basis is None:
            raise InvalidOperatorError("no basis attached to these coordinates")
        return self.basis.devectorize(self.coords)


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
        _check_hermitian(arr, "effect")
        eig = np.linalg.eigvalsh(arr)
        if eig.min() < -PSD_TOL:
            raise InvalidOperatorError("effect must be positive semidefinite")
        if eig.max() > self.upper + PSD_TOL:
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

    @property
    def dim(self) -> int:
        """Dimension of the space the Choi matrix itself lives on."""
        return self.matrix.shape[0]


def vectorize(op, basis: OperatorBasis) -> VectorizedOperator:
    """Coordinates of a Hermitian operator in ``basis``."""
    if isinstance(op, (DensityOperator, Effect, ChoiState)):
        op = op.matrix
    return VectorizedOperator(coords=basis.vectorize(op), basis=basis)


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
    resh = stack.reshape(n, d, d, d, d)
    marginal = np.einsum("nabcb->nac", resh)
    lam, vecs = np.linalg.eigh(marginal)
    lam = np.maximum(lam, MARGINAL_FLOOR)
    # (D * Y)^(-1/2), so the repaired marginal is exactly I/D.
    inv_sqrt = np.einsum("nik,nk,njk->nij", vecs, 1.0 / np.sqrt(d * lam), vecs.conj())
    out = _sandwich(inv_sqrt, resh).reshape(n, d * d, d * d)
    traces = np.einsum("nii->n", out).real
    return out / traces[:, None, None]


def _sandwich(k: np.ndarray, resh: np.ndarray) -> np.ndarray:
    """``np.einsum("nxa,nabcd,nyc->nxbyd", k, resh, k.conj())``, with the
    stack axis last (see the note on stacked contractions)."""
    if k.shape[0] < STACK_PATH_MIN:
        return np.einsum("nxa,nabcd,nyc->nxbyd", k, resh, k.conj())
    return _by_blocks(_sandwich_block, resh.shape, k, resh)


def _sandwich_block(k: np.ndarray, resh: np.ndarray) -> np.ndarray:
    d = k.shape[1]
    k_re, k_im = _stack_last(k.real, 2), _stack_last(k.imag, 2)
    r_re, r_im = _stack_last(resh.real, 4), _stack_last(resh.imag, 4)
    out_re = np.zeros((d, d, d, d, k_re.shape[-1]))
    out_im = np.zeros_like(out_re)
    for a in range(d):
        # k[x, a] * resh[a, b, c, e], axes (x, b, c, e)
        x_re, x_im = k_re[:, a, None, None, None], k_im[:, a, None, None, None]
        p_re = x_re * r_re[a] - x_im * r_im[a]
        p_im = x_re * r_im[a] + x_im * r_re[a]
        for c in range(d):
            # times conj(k[y, c]), axes (x, b, y, e)
            q_re, q_im = p_re[:, :, None, c], p_im[:, :, None, c]
            y_re, y_im = k_re[:, c, None], -k_im[:, c, None]
            out_re = (q_re * y_re - q_im * y_im) + out_re
            out_im = (q_re * y_im + q_im * y_re) + out_im
    return _complex_stack(out_re, out_im, 4)


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
