from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from conftest import trace_distance
from tomolab import randq
from tomolab.qobj import check_states, partial_trace, pauli_basis
from tomolab.randq import (
    RngStream,
    _haar_from_ginibre,
    bcsz_channels,
    bures_states,
    ginibre_matrices,
    ginibre_matrix,
    ginibre_rebit_states,
    ginibre_states,
)


def _haar(dim, stream):
    return _haar_from_ginibre(ginibre_matrices(1, dim, dim, stream))[0]


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = ginibre_matrix(3, 3, RngStream(7))
        b = ginibre_matrix(3, 3, RngStream(7))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = ginibre_matrix(3, 3, RngStream(7, stream_id=0))
        b = ginibre_matrix(3, 3, RngStream(7, stream_id=1))
        assert not np.allclose(a, b)

    def test_child_streams_reproducible_and_disjoint(self):
        root = RngStream(11)
        again = RngStream(11)
        a0 = ginibre_matrix(2, 2, root.child(0))
        a0_again = ginibre_matrix(2, 2, again.child(0))
        a1 = ginibre_matrix(2, 2, root.child(1))
        assert np.array_equal(a0, a0_again)
        assert not np.allclose(a0, a1)

    def test_nested_children(self):
        root = RngStream(11)
        assert np.array_equal(
            ginibre_matrix(2, 2, root.child(3).child(4)),
            ginibre_matrix(2, 2, root.child(3, 4)),
        )


class TestGinibreMatrix:
    def test_shape(self):
        assert ginibre_matrix(3, 5, RngStream(0)).shape == (3, 5)

    def test_entry_moments(self):
        g = ginibre_matrix(100, 1000, RngStream(21)).ravel()
        assert abs(g.real.mean()) < 0.02
        assert abs(g.imag.mean()) < 0.02
        assert abs(np.mean(np.abs(g) ** 2) - 2.0) < 0.05


class TestHaarUnitary:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_unitarity(self, dim):
        stream = RngStream(5)
        for i in range(100):
            u = _haar(dim, stream.child(i))
            assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-10

    def test_scalar_case(self):
        u = _haar(1, RngStream(2))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_first_entry_second_moment(self):
        stream = RngStream(31)
        n = 100_000
        acc = 0.0
        for i in range(n):
            acc += abs(_haar(4, stream.child(i))[0, 0]) ** 2
        assert abs(acc / n - 0.25) < 0.01


class TestGinibreState:
    def test_rank_one_is_pure(self):
        stream = RngStream(9)
        for i in range(50):
            rho = ginibre_states(1, 2, 1, stream.child(i))[0]
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10

    def test_rank_deficiency(self):
        rho = ginibre_states(1, 3, 2, RngStream(12))[0]
        assert np.linalg.eigvalsh(rho).min() < 1e-10

    def test_rank_larger_than_dim_rejected(self):
        with pytest.raises(ValueError):
            ginibre_states(1, 2, 3, RngStream(0))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_validity_bulk(self, dim):
        stream = RngStream(14)
        mats = check_states(np.stack([ginibre_states(1, dim, dim, stream.child(dim, i))[0]
                                      for i in range(10_000)]))
        assert np.abs(mats - mats.conj().transpose(0, 2, 1)).max() < 1e-12
        assert np.abs(np.einsum("nii->n", mats).real - 1.0).max() < 1e-12
        assert np.linalg.eigvalsh(mats).min() > -1e-10

    def test_mean_is_maximally_mixed(self):
        mean = ginibre_states(100_000, 2, 2, RngStream(16)).mean(axis=0)
        assert trace_distance(mean, np.eye(2) / 2) < 0.01


class TestBuresState:
    def test_validity(self):
        stream = RngStream(18)
        for i in range(200):
            rho = check_states(bures_states(1, 3, stream.child(i)))[0]
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_scalar_case(self):
        rho = bures_states(1, 1, RngStream(1))[0]
        assert np.abs(rho - 1.0).max() < 1e-12

    def test_mean_is_maximally_mixed(self):
        mean = bures_states(100_000, 2, RngStream(19)).mean(axis=0)
        assert trace_distance(mean, np.eye(2) / 2) < 0.01


class TestRebit:
    def test_y_coordinate_vanishes(self):
        basis = pauli_basis(1)
        stream = RngStream(23)
        for i in range(200):
            coords = basis.vectorize(ginibre_rebit_states(1, 2, stream.child(i))[0])
            assert abs(coords[2]) < 1e-15

    def test_entries_real(self):
        rho = ginibre_rebit_states(1, 2, RngStream(4))[0]
        assert np.abs(rho.imag).max() < 1e-15

    def test_rank_one_is_pure(self):
        rho = ginibre_rebit_states(1, 1, RngStream(6))[0]
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            ginibre_rebit_states(1, 3, RngStream(0))

    def test_mean_is_maximally_mixed(self):
        mean = ginibre_rebit_states(100_000, 2, RngStream(27)).mean(axis=0)
        assert trace_distance(mean, np.eye(2) / 2) < 0.01


class TestBcszChannel:
    def test_trace_preservation(self):
        stream = RngStream(29)
        for dim in (2, 3):
            for i in range(100):
                choi = check_states(bcsz_channels(1, dim, dim * dim, stream.child(dim, i)),
                                    channel_dim=dim)[0]
                marg = partial_trace(choi, (dim, dim), keep="first")
                assert np.abs(marg - np.eye(dim) / dim).max() < 1e-8

    def test_rank_one_is_unitary_channel(self):
        stream = RngStream(33)
        for i in range(50):
            choi = bcsz_channels(1, 2, 1, stream.child(i))[0]
            purity = np.trace(choi @ choi).real
            assert abs(purity - 1.0) < 1e-8

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_kraus_rank(self, rank):
        stream = RngStream(35)
        for i in range(20):
            choi = bcsz_channels(1, 2, rank, stream.child(rank, i))[0]
            eig = np.linalg.eigvalsh(choi)
            assert int((eig > 1e-10).sum()) == rank

    def test_mean_is_depolarizing(self):
        mean = bcsz_channels(20_000, 2, 4, RngStream(37)).mean(axis=0)
        assert trace_distance(mean, np.eye(4) / 4) < 0.02

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            bcsz_channels(1, 2, 5, RngStream(0))


class TestUnitaryInvariance:
    """The state ensembles should not care about a fixed rotation."""

    @staticmethod
    def _batches(sampler, n, seed):
        stream = RngStream(seed)
        u = _haar(2, stream.child(2, 0))
        plain = np.stack([sampler(stream.child(0, i)) for i in range(n)])
        rotated = np.stack([sampler(stream.child(1, i)) for i in range(n)])
        rotated = np.einsum("ab,nbc,dc->nad", u, rotated, u.conj())
        return plain, rotated

    @pytest.mark.parametrize("sampler,seed", [
        (lambda s: ginibre_states(1, 2, 2, s)[0], 41),
        (lambda s: bures_states(1, 2, s)[0], 43),
    ])
    def test_largest_eigenvalue_distribution(self, sampler, seed):
        plain, rotated = self._batches(sampler, 10_000, seed)
        top = np.linalg.eigvalsh(plain)[:, -1]
        top_rot = np.linalg.eigvalsh(rotated)[:, -1]
        assert stats.ks_2samp(top, top_rot).pvalue > 0.01

    @pytest.mark.parametrize("sampler,seed", [
        (lambda s: ginibre_states(1, 2, 2, s)[0], 47),
        (lambda s: bures_states(1, 2, s)[0], 53),
    ])
    def test_fixed_vector_overlap_distribution(self, sampler, seed):
        # stricter probe: <psi|rho|psi> actually moves under conjugation
        plain, rotated = self._batches(sampler, 10_000, seed)
        psi = np.array([0.6, 0.8j])
        overlap = np.einsum("a,nab,b->n", psi.conj(), plain, psi).real
        overlap_rot = np.einsum("a,nab,b->n", psi.conj(), rotated, psi).real
        assert stats.ks_2samp(overlap, overlap_rot).pvalue > 0.01


def _complex_normal(rng, dim, rank):
    block = rng.generator.standard_normal((2, dim, rank))
    return block[0] + 1j * block[1]


def _unit_trace(rho):
    return rho / np.trace(rho).real


def _reference_ginibre(n, dim, rank, rng):
    out = []
    for _ in range(n):
        a = _complex_normal(rng, dim, rank)
        out.append(_unit_trace(a @ a.conj().T))
    return np.stack(out)


def _reference_bures(n, dim, rng):
    out = []
    for _ in range(n):
        a = _complex_normal(rng, dim, dim)
        q, r = np.linalg.qr(_complex_normal(rng, dim, dim))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        m = (np.eye(dim) + u) @ a
        out.append(_unit_trace(m @ m.conj().T))
    return np.stack(out)


def _reference_rebit(n, rank, rng):
    out = []
    for _ in range(n):
        a = rng.generator.standard_normal((2, rank))
        out.append(_unit_trace(a @ a.T).astype(complex))
    return np.stack(out)


def _reference_bcsz(n, dim, rank, rng):
    out = []
    for _ in range(n):
        x = _complex_normal(rng, dim * dim, rank)
        rho = x @ x.conj().T
        lam, vecs = np.linalg.eigh(partial_trace(rho, (dim, dim), keep="first"))
        sandwich = np.kron((vecs / np.sqrt(dim * lam)) @ vecs.conj().T, np.eye(dim))
        out.append(_unit_trace(sandwich @ rho @ sandwich.conj().T))
    return np.stack(out)


class TestBatchedDraws:
    """A stack of n draws equals n one-at-a-time draws from the same stream."""

    @pytest.mark.parametrize("dim,rank", [(2, 2), (3, 3), (3, 2), (4, 1)])
    def test_ginibre_matches_loop(self, dim, rank):
        batch = ginibre_states(500, dim, rank, RngStream(71))
        assert np.array_equal(batch, _reference_ginibre(500, dim, rank, RngStream(71)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bures_matches_loop(self, dim):
        batch = bures_states(500, dim, RngStream(73))
        assert np.array_equal(batch, _reference_bures(500, dim, RngStream(73)))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rebit_matches_loop(self, rank):
        batch = ginibre_rebit_states(500, rank, RngStream(79))
        assert np.array_equal(batch, _reference_rebit(500, rank, RngStream(79)))

    @pytest.mark.parametrize("dim,rank", [(2, 4), (2, 2), (3, 9)])
    def test_bcsz_matches_loop(self, dim, rank):
        batch = bcsz_channels(500, dim, rank, RngStream(83))
        assert np.abs(batch - _reference_bcsz(500, dim, rank, RngStream(83))).max() < 1e-14

    def test_single_draw_is_first_row(self):
        assert np.array_equal(ginibre_states(1, 3, 2, RngStream(89))[0],
                              ginibre_states(4, 3, 2, RngStream(89))[0])
        assert np.array_equal(bcsz_channels(1, 2, 4, RngStream(89))[0],
                              bcsz_channels(4, 2, 4, RngStream(89))[0])

    def test_bcsz_redraws_only_singular_rows(self, monkeypatch):
        real = randq.ginibre_matrices
        sizes = []

        def first_row_one_singular(n, dim, rank, rng):
            sizes.append(n)
            x = real(n, dim, rank, rng)
            if len(sizes) == 1:
                x[1] = 0.0
            return x

        monkeypatch.setattr(randq, "ginibre_matrices", first_row_one_singular)
        batch = bcsz_channels(3, 2, 4, RngStream(97))
        monkeypatch.undo()
        assert sizes == [3, 1]
        # The redraw takes the normals a fourth row would have taken.
        plain = bcsz_channels(4, 2, 4, RngStream(97))
        assert np.abs(batch - plain[[0, 3, 2]]).max() < 1e-14

    def test_bcsz_gives_up_on_a_singular_marginal(self, monkeypatch):
        monkeypatch.setattr(randq, "ginibre_matrices",
                            lambda n, dim, rank, rng: np.zeros((n, dim, rank), dtype=complex))
        with pytest.raises(RuntimeError, match="singular"):
            bcsz_channels(2, 2, 4, RngStream(0))
