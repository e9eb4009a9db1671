from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from tomolab.design import tracking_bandwidth
from tomolab.likelihood import COIN_EFFECT, binomial_log_likelihood
from tomolab.priors import HypothesisSpace, coin_uniform_prior
from tomolab.qobj import (
    DegenerateStateError,
    check_states,
    gell_mann_basis,
    partial_trace,
    pauli_basis,
    positive_definite,
    standard_basis,
    truncate_to_choi,
    truncate_to_state,
)
from tomolab.randq import RngStream, bcsz_channels
from tomolab.smc import ParticleCloud, bayes_update, diffuse_cloud, init_cloud

BASIS2 = pauli_basis(1)


class TestPositiveDefiniteScreen:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
    def test_screen_and_projection(self, seed, dim):
        basis = {2: pauli_basis(1), 3: gell_mann_basis(3), 4: pauli_basis(2)}[dim]
        rng = np.random.default_rng(seed)
        n = 60
        g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
        u, _ = np.linalg.qr(g)
        # Thirds of the stack: positive definite, one clearly negative
        # eigenvalue, and positive semidefinite with one or more zeros.
        lam = rng.uniform(0.05, 1.0, (n, dim))
        lam[n // 3:2 * n // 3, 0] = -rng.uniform(0.01, 0.5, n // 3)
        for row, n_zero in zip(lam[2 * n // 3:], rng.integers(1, dim, n - 2 * n // 3)):
            row[:n_zero] = 0.0
        lam *= rng.uniform(0.5, 2.0, (n, 1))
        mats = np.einsum("nik,nk,njk->nij", u, lam, u.conj())

        low = np.linalg.eigvalsh(mats).min(axis=1)
        clear = np.abs(low) >= 1e-9
        screen = positive_definite(mats)
        assert np.array_equal(screen[clear], low[clear] > 0.0)

        space = HypothesisSpace(kind="state", basis=basis)
        rows = basis.vectorize(mats)
        passed = positive_definite(basis.devectorize(rows))
        out = space.project(rows)
        assert np.array_equal(out[passed], rows[passed] / (rows[passed, :1] * np.sqrt(dim)))
        check_states(basis.devectorize(out))


def truncate_one(matrix, channel_dim=None):
    """Truncate a single matrix as a stack of one."""
    stack = np.asarray(matrix, dtype=complex)[None]
    if channel_dim is None:
        return truncate_to_state(stack)[0]
    return truncate_to_choi(stack, channel_dim)[0]


class TestTruncateToState:
    def test_clip_and_renormalize(self):
        out = truncate_one(np.diag([1.2, -0.2]))
        assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-12

    def test_three_level_example(self):
        out = truncate_one(np.diag([0.5, -0.1, 0.2]))
        assert np.abs(out - np.diag([5.0 / 7.0, 0.0, 2.0 / 7.0])).max() < 1e-12

    def test_valid_state_fixed(self):
        rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        assert np.abs(truncate_one(rho) - rho).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
    def test_idempotent(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, dim) + np.eye(dim) * 0.3
        try:
            once = truncate_one(m)
        except DegenerateStateError:
            return
        twice = truncate_one(once)
        assert np.abs(twice - once).max() < 1e-12
        assert abs(np.trace(once).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(once).min() > -1e-14

    def test_batched(self):
        rng = np.random.default_rng(7)
        mats = np.stack([random_hermitian(rng, 2) + 0.5 * np.eye(2) for _ in range(6)])
        batch = truncate_to_state(mats)
        singles = np.stack([truncate_one(m) for m in mats])
        assert np.abs(batch - singles).max() < 1e-14

    def test_nothing_left(self):
        with pytest.raises(DegenerateStateError):
            truncate_one(np.diag([-1.0, -0.5]))


class TestTruncateToChoi:
    def test_valid_choi_fixed(self):
        choi = bcsz_channels(1, 2, 4, RngStream(3))[0]
        assert np.abs(truncate_one(choi, 2) - choi).max() < 1e-10

    def test_repairs_perturbed_choi(self):
        rng = np.random.default_rng(11)
        choi = bcsz_channels(1, 2, 4, RngStream(5))[0]
        for _ in range(20):
            noisy = choi + random_hermitian(rng, 4, scale=0.05)
            fixed = truncate_one(noisy, 2)
            assert abs(np.trace(fixed).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(fixed).min() > -1e-10
            marg = partial_trace(fixed, (2, 2), keep="first")
            assert np.abs(marg - np.eye(2) / 2).max() < 1e-8

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        choi = bcsz_channels(1, 2, 4, RngStream(7))[0]
        noisy = choi + random_hermitian(rng, 4, scale=0.1)
        once = truncate_one(noisy, 2)
        twice = truncate_one(once, 2)
        assert np.abs(twice - once).max() < 1e-10


class TestCoinTruncate:
    """Coin rows are clamped to [0, 1] by the coin space's projection."""

    def test_values(self):
        out = HypothesisSpace(kind="coin").project(np.array([[1.05], [-0.3], [0.4]]))
        assert out[:, 0].tolist() == [1.0, 0.0, 0.4]

    def test_array(self):
        rows = np.array([[-1.0, 0.2], [0.5, -0.1], [2.0, 0.3]])
        out = HypothesisSpace(kind="coin", n_hyper=1).project(rows)
        assert np.array_equal(out, [[0.0, 0.2], [0.5, 0.0], [1.0, 0.3]])


class TestDiffusionStep:
    def test_dt_validation(self):
        space = HypothesisSpace(kind="coin", n_hyper=1)
        cloud = ParticleCloud(locations=np.array([[0.3, 0.01], [0.6, 0.02]]),
                              weights=np.array([0.5, 0.5]), space=space)
        for dt in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                diffuse_cloud(cloud, dt, RngStream(1))
        diffuse_cloud(cloud, 0.5, RngStream(1))


class TestEtaSampler:
    """The diffusion-rate column that ``init_cloud`` draws from ``rates``."""

    @staticmethod
    def rates(n, rng, mean, log_std):
        return init_cloud(coin_uniform_prior(), n, rng, rates=(mean, log_std)).locations[:, -1]

    def test_zero_mean_is_static(self):
        assert np.array_equal(self.rates(5, RngStream(1), 0.0, 1.0), np.zeros(5))

    def test_arithmetic_mean(self):
        vals = self.rates(100_000, RngStream(17), 0.006, 1.0)
        assert vals.min() > 0.0
        assert abs(vals.mean() - 0.006) < 0.0003

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            self.rates(5, RngStream(1), -0.1, 1.0)

    def test_deterministic(self):
        assert np.array_equal(self.rates(4, RngStream(3), 0.01, 1.0),
                              self.rates(4, RngStream(3), 0.01, 1.0))


class TestDiffuseCloud:
    @staticmethod
    def _state_cloud(eta, n=1):
        coords = np.array([1 / np.sqrt(2), 0.0, 0.0, 0.0])
        rows = np.column_stack([np.tile(coords, (n, 1)), np.full(n, eta)])
        space = HypothesisSpace(kind="state", basis=BASIS2, n_hyper=1)
        return ParticleCloud(locations=rows, weights=np.full(n, 1.0 / n), space=space)

    def test_zero_rate_is_identity(self):
        cloud = self._state_cloud(0.0, n=10)
        out = diffuse_cloud(cloud, 1.0, RngStream(5))
        assert np.array_equal(out.locations, cloud.locations)

    def test_interior_variance(self):
        cloud = self._state_cloud(0.05, n=10_000)
        out = diffuse_cloud(cloud, 4.0, RngStream(19))
        moved = out.locations[:, 1:4]
        target = 4.0 * 0.05**2
        for axis in range(3):
            assert abs(moved[:, axis].var() - target) < 0.05 * target

    def test_trace_and_rate_columns_fixed(self):
        cloud = self._state_cloud(0.08, n=500)
        out = diffuse_cloud(cloud, 1.0, RngStream(23))
        assert np.abs(out.locations[:, 0] - 1 / np.sqrt(2)).max() < 1e-12
        assert np.array_equal(out.locations[:, 4], cloud.locations[:, 4])
        assert out.weights is cloud.weights

    def test_boundary_particles_stay_valid(self):
        coords = BASIS2.vectorize(np.diag([1.0, 0.0]))
        rows = np.column_stack([np.tile(coords, (200, 1)), np.full(200, 0.1)])
        space = HypothesisSpace(kind="state", basis=BASIS2, n_hyper=1)
        cloud = ParticleCloud(locations=rows, weights=np.full(200, 1 / 200), space=space)
        out = diffuse_cloud(cloud, 1.0, RngStream(29))
        mats = BASIS2.devectorize(out.locations[:, :4])
        assert np.linalg.eigvalsh(mats).min() > -1e-10
        assert np.abs(np.einsum("nii->n", mats).real - 1.0).max() < 1e-10

    def test_coin_rows_clamped(self):
        space = HypothesisSpace(kind="coin", n_hyper=1)
        rows = np.column_stack([np.full(2000, 0.95), np.full(2000, 0.2)])
        cloud = ParticleCloud(locations=rows, weights=np.full(2000, 1 / 2000), space=space)
        out = diffuse_cloud(cloud, 1.0, RngStream(31))
        ps = out.locations[:, 0]
        assert ps.max() <= 1.0 and ps.min() >= 0.0
        assert (ps == 1.0).any()  # clamping actually engaged

    def test_requires_rate_column(self):
        cloud = ParticleCloud(locations=np.array([[0.5], [0.6]]),
                              weights=np.array([0.5, 0.5]),
                              space=HypothesisSpace(kind="coin"))
        with pytest.raises(ValueError):
            diffuse_cloud(cloud, 1.0, RngStream(1))


class TestCoEvolution:
    def test_mobile_population_wins_on_drifting_data(self):
        # two eta populations start at the same state; only reweighting
        # separates them once the truth wanders off
        n_half = 50
        rows = np.column_stack([
            np.full(2 * n_half, 0.5),
            np.concatenate([np.zeros(n_half), np.full(n_half, 0.08)]),
        ])
        space = HypothesisSpace(kind="coin", n_hyper=1)
        cloud = ParticleCloud(locations=rows,
                              weights=np.full(2 * n_half, 0.5 / n_half),
                              space=space)
        stream = RngStream(37)
        for step in range(1, 21):
            cloud = diffuse_cloud(cloud, 1.0, stream.child(0, step))
            p_true = 0.5 + 0.02 * step
            k = int(stream.child(1, step).generator.binomial(25, p_true))
            log_like = binomial_log_likelihood(cloud.locations[:, :1], COIN_EFFECT, 25, k)
            cloud, _ = bayes_update(cloud, log_like)
        static_weight = cloud.weights[:n_half].sum()
        mobile_weight = cloud.weights[n_half:].sum()
        assert mobile_weight > 2 * static_weight


class TestBandwidth:
    def test_reference_values(self):
        n, f_max = tracking_bandwidth(0.05, 1.9599, 1.0)
        assert n == 385
        assert abs(f_max - 1.0 / 770.0) < 1e-15

    def test_round_z(self):
        n, f_max = tracking_bandwidth(0.05, 2.0, 1.0)
        assert n == 400
        assert f_max == 1.0 / 800.0

    def test_monotone_in_tolerance(self):
        _, f_lo = tracking_bandwidth(0.02, 2.0, 1.0)
        _, f_hi = tracking_bandwidth(0.1, 2.0, 1.0)
        assert f_hi > f_lo

    def test_validation(self):
        with pytest.raises(ValueError):
            tracking_bandwidth(0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            tracking_bandwidth(0.6, 2.0, 1.0)
        with pytest.raises(ValueError):
            tracking_bandwidth(0.05, -1.0, 1.0)
        with pytest.raises(ValueError):
            tracking_bandwidth(0.05, 2.0, 0.0)
