from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_projector, random_state_matrix
from tomolab.qobj import (
    MARGINAL_FLOOR,
    PSD_TOL,
    ChoiState,
    DensityOperator,
    DimensionMismatchError,
    Effect,
    InvalidOperatorError,
    PAULIS,
    apply_choi,
    check_states,
    choi_of_channel,
    gell_mann_basis,
    hs_inner,
    partial_trace,
    pauli_basis,
    process_effect,
    restore_trace_preservation,
    standard_basis,
    vectorize,
)

I2 = np.eye(2)
X = PAULIS["X"]
Y = PAULIS["Y"]
Z = PAULIS["Z"]
H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)

HADAMARD_MIX_KRAUS = [np.sqrt(0.7) * I2, np.sqrt(0.3) * H]


def kraus_apply(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


class TestBases:
    def test_single_qubit_pauli_elements(self):
        basis = pauli_basis(1)
        expected = np.array([I2, X, Y, Z]) / np.sqrt(2)
        assert basis.labels == ("I", "X", "Y", "Z")
        assert np.abs(basis.elements - expected).max() < 1e-15

    def test_two_qubit_pauli_shape_and_labels(self):
        basis = pauli_basis(2)
        assert basis.size == 16
        assert basis.dim == 4
        assert basis.labels[0] == "II"
        assert "XZ" in basis.labels

    @pytest.mark.parametrize("basis_fn,arg", [(pauli_basis, 1), (pauli_basis, 2),
                                              (gell_mann_basis, 3), (gell_mann_basis, 4)])
    def test_orthonormality(self, basis_fn, arg):
        basis = basis_fn(arg)
        gram = np.einsum("aij,bij->ab", basis.elements.conj(), basis.elements)
        assert np.abs(gram - np.eye(basis.size)).max() < 1e-10

    def test_identity_element_first_and_rest_traceless(self):
        basis = gell_mann_basis(3)
        assert np.abs(basis.elements[0] - np.eye(3) / np.sqrt(3)).max() < 1e-12
        traces = np.einsum("aii->a", basis.elements[1:])
        assert np.abs(traces).max() < 1e-12

    def test_standard_basis_dispatch(self):
        assert standard_basis(2) is pauli_basis(1)
        assert standard_basis(4) is pauli_basis(2)
        assert standard_basis(3) is gell_mann_basis(3)

    def test_basis_caching(self):
        assert pauli_basis(1) is pauli_basis(1)

    def test_rejects_non_orthonormal_stack(self):
        el = np.stack([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2), X / np.sqrt(2), Z / np.sqrt(2)])
        from tomolab.qobj import OperatorBasis
        with pytest.raises(InvalidOperatorError):
            OperatorBasis(name="bad", elements=el, labels=("a", "b", "c", "d"))


class TestVectorization:
    def test_plus_x_mixture_coordinates(self):
        # (I + X)/2 has coordinates (1, 1, 0, 0)/sqrt(2)
        coords = pauli_basis(1).vectorize((I2 + X) / 2)
        assert np.allclose(coords, [0.7071067811865476, 0.7071067811865476, 0.0, 0.0], atol=1e-12)

    def test_devectorize_ground_state(self):
        mat = pauli_basis(1).devectorize(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        assert np.abs(mat - np.diag([1.0, 0.0])).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
    def test_round_trip(self, seed, dim):
        rng = np.random.default_rng(seed)
        op = random_hermitian(rng, dim)
        basis = standard_basis(dim)
        coords = basis.vectorize(op)
        assert coords.dtype == float
        assert np.abs(basis.devectorize(coords) - op).max() < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_coord_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal(9)
        basis = gell_mann_basis(3)
        back = basis.vectorize(basis.devectorize(coords))
        assert np.abs(back - coords).max() < 1e-12

    def test_vectorize_is_linear(self):
        basis = pauli_basis(1)
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        lhs = basis.vectorize(0.3 * a + 1.7 * b)
        rhs = 0.3 * basis.vectorize(a) + 1.7 * basis.vectorize(b)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidOperatorError):
            pauli_basis(1).vectorize(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            pauli_basis(1).vectorize(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            pauli_basis(1).devectorize(np.zeros(9))

    def test_batched_vectorize(self):
        basis = pauli_basis(1)
        rng = np.random.default_rng(3)
        ops = np.stack([random_hermitian(rng, 2) for _ in range(5)])
        coords = basis.vectorize(ops)
        assert coords.shape == (5, 4)
        singles = np.stack([basis.vectorize(op) for op in ops])
        assert np.abs(coords - singles).max() < 1e-12

    def test_wrapper_objects(self):
        basis = pauli_basis(1)
        vec = vectorize(DensityOperator(matrix=I2 / 2), basis)
        assert vec.size == 4
        assert np.abs(vec.matrix() - I2 / 2).max() < 1e-12


def einsum_restore_trace_preservation(stack, d):
    """restore_trace_preservation written with np.einsum throughout."""
    n = stack.shape[0]
    resh = stack.reshape(n, d, d, d, d)
    lam, vecs = np.linalg.eigh(np.einsum("nabcb->nac", resh))
    lam = np.maximum(lam, MARGINAL_FLOOR)
    inv_sqrt = np.einsum("nik,nk,njk->nij", vecs, 1.0 / np.sqrt(d * lam), vecs.conj())
    out = np.einsum("nxa,nabcd,nyc->nxbyd", inv_sqrt, resh, inv_sqrt.conj())
    out = out.reshape(n, d * d, d * d)
    return out / np.einsum("nii->n", out).real[:, None, None]


def assert_close(got, want, tol=1e-14):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max(initial=0.0) <= tol


BASES = [pauli_basis(1), pauli_basis(2), pauli_basis(3), gell_mann_basis(3), gell_mann_basis(4)]


class TestStackPaths:
    """The stacked contractions are BLAS products; they agree with the
    einsum expressions to rounding, for every stack size, the empty one
    included."""

    @pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name)
    @pytest.mark.parametrize("shape", [(0,), (1,), (2000,), (3, 70)])
    def test_devectorize_matches_einsum(self, basis, shape):
        rng = np.random.default_rng(basis.size * 1000 + shape[-1])
        coords = rng.standard_normal(shape + (basis.size,))
        flat = coords.reshape(-1, basis.size)
        flat[:5] = 0.0
        flat[5:10, 1:] = -0.0
        got = basis.devectorize(coords)
        assert_close(got, np.einsum("...a,aij->...ij", coords, basis.elements))
        # a strided view (the state columns of a tracked cloud) as well
        wide = np.column_stack([flat, rng.random(flat.shape[0])])
        assert_close(basis.devectorize(wide[:, :-1]),
                     np.einsum("...a,aij->...ij", wide[:, :-1], basis.elements))

    @pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name)
    @pytest.mark.parametrize("shape", [(0,), (1,), (2000,), (3, 70)])
    def test_vectorize_matches_einsum(self, basis, shape):
        rng = np.random.default_rng(basis.size * 1000 + shape[-1] + 1)
        d = basis.dim
        x = rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))
        ops = x + x.conj().swapaxes(-1, -2)
        want = np.einsum("aij,...ij->...a", basis.elements.conj(), ops).real
        assert_close(basis.vectorize(ops), want)
        # a strided view: every other matrix of a longer stack
        twice = np.repeat(ops.reshape((-1, d, d)), 2, axis=0)
        assert_close(basis.vectorize(twice[::2]), want.reshape(-1, basis.size))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 1000])
    def test_restore_trace_preservation_matches_einsum(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        x = rng.standard_normal((n, d * d, d * d)) + 1j * rng.standard_normal((n, d * d, d * d))
        stack = x @ x.conj().swapaxes(-1, -2)
        stack[: n // 4] = np.diag(rng.random(d * d) + 0.1)  # real, with exact zeros
        got = restore_trace_preservation(stack, d)
        assert_close(got, einsum_restore_trace_preservation(stack, d))
        marginals = partial_trace(got, (d, d), keep="first")
        assert np.abs(marginals - np.eye(d) / d).max(initial=0.0) < 1e-12


class TestHsInner:
    def test_identity_with_itself(self):
        assert abs(hs_inner(np.eye(3), np.eye(3)) - 3.0) < 1e-12

    def test_orthogonal_paulis(self):
        assert abs(hs_inner(X, Z)) < 1e-12

    def test_coordinate_dot_equivalence(self):
        basis = gell_mann_basis(3)
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = random_hermitian(rng, 3)
            b = random_hermitian(rng, 3)
            direct = hs_inner(a, b).real
            dot = float(basis.vectorize(a) @ basis.vectorize(b))
            assert abs(direct - dot) < 1e-12


class TestPartialTrace:
    def test_product_operator(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        full = np.kron(a, b)
        assert np.abs(partial_trace(full, (2, 3), keep="first") - a * np.trace(b)).max() < 1e-12
        assert np.abs(partial_trace(full, (2, 3), keep="second") - b * np.trace(a)).max() < 1e-12

    def test_maximally_mixed(self):
        out = partial_trace(np.eye(4) / 4, (2, 2), keep="second")
        assert np.abs(out - np.eye(2) / 2).max() < 1e-15

    def test_trace_preservation(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            op = random_hermitian(rng, 4)
            kept = partial_trace(op, (2, 2), keep="first")
            assert abs(np.trace(kept) - np.trace(op)) < 1e-12

    def test_bad_arguments(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(6), (2, 2), keep="first")
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 2), keep="both")


class TestChoi:
    def test_identity_channel_is_maximally_entangled(self):
        choi = choi_of_channel([I2])
        bell = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                bell[i, j] = 0.5
        assert np.abs(choi.matrix - bell).max() < 1e-12

    def test_depolarizing_channel_is_maximally_mixed(self):
        kraus = [I2 / 2, X / 2, Y / 2, Z / 2]
        choi = choi_of_channel(kraus)
        assert np.abs(choi.matrix - np.eye(4) / 4).max() < 1e-12

    def test_hadamard_mixture_rank_two(self):
        choi = choi_of_channel(HADAMARD_MIX_KRAUS)
        eig = np.sort(np.linalg.eigvalsh(choi.matrix))
        assert np.allclose(eig, [0.0, 0.0, 0.3, 0.7], atol=1e-10)

    def test_non_trace_preserving_kraus_rejected(self):
        with pytest.raises(InvalidOperatorError):
            choi_of_channel([0.9 * I2])

    def test_apply_matches_kraus_action(self):
        rng = np.random.default_rng(13)
        choi = choi_of_channel(HADAMARD_MIX_KRAUS)
        for _ in range(20):
            rho = random_state_matrix(rng, 2)
            direct = kraus_apply(HADAMARD_MIX_KRAUS, rho)
            assert np.abs(apply_choi(choi, rho) - direct).max() < 1e-12

    def test_choi_state_rejects_non_tp(self):
        # |0><0| (x) |0><0| is CP but its input marginal is not I/2
        mat = np.zeros((4, 4))
        mat[0, 0] = 1.0
        with pytest.raises(InvalidOperatorError):
            ChoiState(matrix=mat, dim_in=2, dim_out=2)


class TestProcessEffect:
    def test_hadamard_mixture_plus_probability(self):
        # prep |0><0|, measure |+><+|: 0.7 * 0.5 + 0.3 * 1.0 = 0.65
        choi = choi_of_channel(HADAMARD_MIX_KRAUS)
        prep = DensityOperator(matrix=np.diag([1.0, 0.0]))
        meas = Effect(matrix=(I2 + X) / 2)
        eff = process_effect(prep, meas)
        p = hs_inner(eff.matrix, choi.matrix).real
        assert abs(p - 0.65) < 1e-12

    def test_identity_channel_survival(self):
        choi = choi_of_channel([I2])
        prep = DensityOperator(matrix=np.diag([1.0, 0.0]))
        meas = Effect(matrix=np.diag([1.0, 0.0]))
        p = hs_inner(process_effect(prep, meas).matrix, choi.matrix).real
        assert abs(p - 1.0) < 1e-12

    def test_depolarizing_gives_tr_e_over_d(self):
        choi = choi_of_channel([I2 / 2, X / 2, Y / 2, Z / 2])
        rng = np.random.default_rng(17)
        prep = DensityOperator(matrix=random_state_matrix(rng, 2))
        meas = Effect(matrix=random_projector(rng, 2))
        p = hs_inner(process_effect(prep, meas).matrix, choi.matrix).real
        assert abs(p - np.trace(meas.matrix).real / 2) < 1e-12

    def test_contraction_identity_random_channels(self):
        from tomolab.randq import RngStream, bcsz_channels, ginibre_states
        stream = RngStream(4242)
        rng = np.random.default_rng(99)
        for i in range(100):
            choi = ChoiState(matrix=bcsz_channels(1, 2, 4, stream.child(i))[0],
                             dim_in=2, dim_out=2)
            rho = DensityOperator(matrix=ginibre_states(1, 2, 2, stream.child(1000 + i))[0])
            eff = Effect(matrix=random_projector(rng, 2))
            kraus_free = hs_inner(process_effect(rho, eff).matrix, choi.matrix).real
            # independent route: reconstruct the channel action by contraction
            lam_rho = apply_choi(choi, rho.matrix)
            direct = np.trace(eff.matrix @ lam_rho).real
            assert abs(kraus_free - direct) < 1e-10
            assert -1e-10 <= kraus_free <= 1 + 1e-10

    def test_composite_effect_upper_bound(self):
        prep = DensityOperator(matrix=np.diag([1.0, 0.0]))
        meas = Effect(matrix=np.diag([1.0, 0.0]))
        eff = process_effect(prep, meas)
        assert eff.upper == 2.0
        assert np.linalg.eigvalsh(eff.matrix).max() <= 2.0 + 1e-12


class TestValidation:
    def test_density_operator_rules(self):
        with pytest.raises(InvalidOperatorError):
            DensityOperator(matrix=np.diag([0.5, 0.6]))
        with pytest.raises(InvalidOperatorError):
            DensityOperator(matrix=np.diag([1.5, -0.5]))
        with pytest.raises(InvalidOperatorError):
            DensityOperator(matrix=np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_effect_rules(self):
        Effect(matrix=np.diag([1.0, 0.0]))
        with pytest.raises(InvalidOperatorError):
            Effect(matrix=np.diag([1.2, 0.0]))
        with pytest.raises(InvalidOperatorError):
            Effect(matrix=np.diag([-0.1, 0.5]))

    # One bad row among valid ones, just past the tolerance each rule uses.
    BAD_STATE_ROWS = {
        "not Hermitian": np.array([[0.5, 1e-9], [0.0, 0.5]]),
        "unit trace": np.diag([0.5, 0.5 + 1e-9]),
        "positive semidefinite": np.diag([1.0 + 1e-9, -1e-9]),
    }

    @pytest.mark.parametrize("message", sorted(BAD_STATE_ROWS))
    def test_stack_with_one_bad_state_rejected(self, message):
        rng = np.random.default_rng(3)
        stack = np.stack([random_state_matrix(rng, 2) for _ in range(5)])
        assert check_states(stack) is stack
        stack[3] = self.BAD_STATE_ROWS[message]
        with pytest.raises(InvalidOperatorError, match=message):
            check_states(stack)
        with pytest.raises(InvalidOperatorError, match=message):
            DensityOperator(matrix=stack[3])

    def test_stack_with_one_non_tp_choi_rejected(self):
        depolarizing = np.eye(4, dtype=complex) / 4
        identity = choi_of_channel([I2]).matrix
        stack = np.stack([depolarizing, identity, depolarizing])
        check_states(stack, channel_dim=2)
        # A valid state on the D**2 space whose input marginal is diag(0.6, 0.4).
        stack[1] = np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex)
        check_states(stack)
        with pytest.raises(InvalidOperatorError, match="trace preserving"):
            check_states(stack, channel_dim=2)
        with pytest.raises(InvalidOperatorError, match="trace preserving"):
            ChoiState(matrix=stack[1], dim_in=2, dim_out=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        stack = np.stack([I2 / 2] * 3).astype(complex)
        stack[1, 0, 1] = stack[1, 1, 0] = bad
        with warnings.catch_warnings():
            # Rejected before any arithmetic on the bad entry can warn.
            warnings.simplefilter("error")
            for checked in (stack, np.full((1, 2, 2), bad)):
                with pytest.raises(InvalidOperatorError, match="non-finite"):
                    check_states(checked)
            with pytest.raises(InvalidOperatorError, match="non-finite"):
                DensityOperator(matrix=stack[1])
            with pytest.raises(InvalidOperatorError, match="non-finite"):
                ChoiState(matrix=np.full((4, 4), bad), dim_in=2, dim_out=2)
            with pytest.raises(InvalidOperatorError, match="non-finite"):
                Effect(matrix=stack[1])
            with pytest.raises(InvalidOperatorError, match="non-finite"):
                Effect(matrix=np.diag([bad, 0.5]))

    def test_effect_with_nan_bound_rejected(self):
        with pytest.raises(InvalidOperatorError, match="upper bound"):
            Effect(matrix=I2 / 2, upper=float("nan"))

    # The positivity decision of check_states before the pivot screen.
    @staticmethod
    def eigvalsh_rejects(stack) -> bool:
        return bool(np.linalg.eigvalsh(stack).min() < -PSD_TOL)

    @staticmethod
    def spectrum_row(rng, dim):
        """A unit-trace Hermitian matrix: positive definite, rank deficient,
        or with lambda_min = +-(1e-12 .. 1e-8)."""
        kind = rng.integers(3)
        lam = rng.uniform(0.05, 1.0, dim)
        if kind == 1:
            lam[:rng.integers(1, dim)] = 0.0
        lam /= lam.sum()
        if kind == 2:
            lam[0] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -8.0)
            lam[1:] *= (1.0 - lam[0]) / lam[1:].sum()
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _ = np.linalg.qr(g)
        return (u * lam) @ u.conj().T

    @staticmethod
    def choi_row(rng):
        """A trace-preserving unit-trace Choi matrix on the 4-dim space: a
        unitary channel (rank one), its mix with the depolarizing channel,
        or the unitary channel plus +-(1e-12 .. 1e-8) X (x) Y with Y
        traceless, which keeps both marginal and trace."""
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(g)
        v = u.T.reshape(-1)
        j = np.outer(v, v.conj()) / 2.0
        kind = rng.integers(3)
        if kind == 1:
            p = rng.uniform(0.05, 1.0)
            j = (1.0 - p) * j + p * np.eye(4) / 4.0
        elif kind == 2:
            y = random_hermitian(rng, 2)
            y -= np.trace(y).real / 2.0 * I2
            kick = np.kron(random_hermitian(rng, 2), y)
            size = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -8.0)
            j = j + size * kick / np.abs(kick).max()
        return j

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           case=st.sampled_from([(2, None), (3, None), (4, None), (4, 2)]),
           near_hermitian=st.booleans())
    def test_screened_check_decides_as_eigvalsh(self, seed, case, near_hermitian):
        dim, channel_dim = case
        rng = np.random.default_rng(seed)
        stack = np.stack([self.spectrum_row(rng, dim) if channel_dim is None
                          else self.choi_row(rng) for _ in range(64)])
        if near_hermitian:
            # Off-diagonal entries off by up to 1e-11 from Hermitian.
            noise = rng.uniform(-1.0, 1.0, stack.shape) + 1j * rng.uniform(-1.0, 1.0, stack.shape)
            stack = stack + 7e-12 * noise * (1.0 - np.eye(dim))

        def rejects(checked) -> bool:
            try:
                check_states(checked, channel_dim=channel_dim)
            except InvalidOperatorError as err:
                assert "positive semidefinite" in str(err)
                return True
            return False

        for i in range(len(stack)):
            assert rejects(stack[i:i + 1]) == self.eigvalsh_rejects(stack[i:i + 1]), i
        assert rejects(stack) == self.eigvalsh_rejects(stack)

    def test_immutability(self):
        rho = DensityOperator(matrix=I2 / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0
