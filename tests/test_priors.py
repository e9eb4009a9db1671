from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import trace_distance
from tomolab.priors import (
    PriorConstructionError,
    bcsz_prior,
    bures_prior,
    coin_gad_params,
    coin_insightful_prior,
    coin_uniform_prior,
    gad_params,
    ginibre_prior,
    insightful_prior,
    rebit_ginibre_prior,
    sample_epsilon,
)
from tomolab.qobj import choi_of_channel, partial_trace, pauli_basis, standard_basis
from tomolab.randq import RngStream, ginibre_states

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])
H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


class TestGadParams:
    def test_qutrit_peaked_mean(self):
        alpha, beta, rho_star = gad_params(np.diag([0.9, 0.05, 0.05]))
        assert alpha == 1.0
        assert abs(beta - 3.0 / 17.0) < 1e-12
        assert np.abs(rho_star - np.diag([1.0, 0.0, 0.0])).max() < 1e-12

    def test_rebit_minus_x_mean(self):
        alpha, beta, rho_star = gad_params((np.eye(2) - 0.9 * X) / 2)
        assert abs(beta - 1.0 / 9.0) < 1e-12
        assert np.abs(rho_star - (np.eye(2) - X) / 2).max() < 1e-12

    def test_tilted_qubit_mean(self):
        mu = (np.eye(2) + (2.0 / 3.0) * Z + (1.0 / 3.0) * X) / 2
        alpha, beta, rho_star = gad_params(mu)
        lam = (1.0 - np.sqrt(5.0) / 3.0) / 2.0
        assert abs(np.linalg.eigvalsh(mu).min() - lam) < 1e-12
        assert abs(beta - (3.0 / np.sqrt(5.0) - 1.0)) < 1e-12
        assert np.linalg.eigvalsh(rho_star).min() > -1e-10
        assert abs(np.linalg.eigvalsh(rho_star).min()) < 1e-10

    def test_maximally_mixed_passthrough(self):
        alpha, beta, rho_star = gad_params(np.eye(3) / 3)
        assert np.isinf(beta)
        assert np.abs(rho_star - np.eye(3) / 3).max() < 1e-12

    def test_boundary_mean_rejected_with_guidance(self):
        with pytest.raises(PriorConstructionError, match="mix"):
            gad_params(np.diag([1.0 - 5e-7, 5e-7]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]))
    def test_target_sits_on_the_boundary(self, seed, dim):
        rho = ginibre_states(1, dim, dim, RngStream(seed))[0]
        mu = 0.9 * rho + 0.1 * np.eye(dim) / dim
        _, beta, rho_star = gad_params(mu)
        assert abs(np.linalg.eigvalsh(rho_star).min()) < 1e-8
        # reconstruction: mean of (1-eps) rho_f + eps rho_star at E[eps] = 1/(1+beta)
        eps_mean = 1.0 / (1.0 + beta)
        recon = (1.0 - eps_mean) * np.eye(dim) / dim + eps_mean * rho_star
        assert np.abs(recon - mu).max() < 1e-10


class TestEpsilonSampling:
    def test_infinite_beta_gives_zero(self):
        assert np.all(sample_epsilon(np.inf, 5, RngStream(1)) == 0.0)

    def test_mean_matches_beta_moment(self):
        stream = RngStream(61)
        beta = 2.0
        draws = sample_epsilon(beta, 100_000, stream)
        sigma = np.sqrt(beta / ((1 + beta) ** 2 * (2 + beta)) / draws.size)
        assert abs(draws.mean() - 1.0 / (1.0 + beta)) < 5 * sigma

    def test_distribution_matches_reference_beta(self):
        stream = RngStream(67)
        beta = 1.0 / 9.0
        draws = sample_epsilon(beta, 10_000, stream)
        assert stats.kstest(draws, stats.beta(1.0, beta).cdf).pvalue > 0.01

    def test_small_epsilon_mass(self):
        # the damped prior keeps the fiducial support: eps lands near 0 often
        stream = RngStream(71)
        draws = sample_epsilon(3.0 / 17.0, 10_000, stream)
        assert draws.min() < 0.01
        assert draws.max() > 0.9


class TestInsightfulStatePrior:
    def test_passthrough_returns_same_object(self):
        fid = ginibre_prior(3)
        assert insightful_prior(fid, np.eye(3) / 3) is fid

    def test_metadata(self):
        prior = insightful_prior(ginibre_prior(3), np.diag([0.9, 0.05, 0.05]))
        assert abs(prior.beta - 3.0 / 17.0) < 1e-12
        assert np.abs(prior.target - standard_basis(3).vectorize(np.diag([1.0, 0.0, 0.0]))
                      ).max() < 1e-12

    def test_samples_are_valid_states(self):
        prior = insightful_prior(ginibre_prior(3), np.diag([0.9, 0.05, 0.05]))
        stream = RngStream(73)
        basis = standard_basis(3)
        for rho in basis.devectorize(prior.sample(300, stream)):
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_monte_carlo_mean(self):
        mu = np.diag([0.9, 0.05, 0.05])
        prior = insightful_prior(ginibre_prior(3), mu)
        stream = RngStream(79)
        basis = standard_basis(3)
        coords = prior.sample(20_000, stream)
        assert trace_distance(basis.devectorize(coords.mean(axis=0)), mu) < 0.02

    def test_draws_all_fiducials_then_all_weights(self):
        fiducial = ginibre_prior(3)
        prior = insightful_prior(fiducial, np.diag([0.9, 0.05, 0.05]))
        rows = prior.sample(50, RngStream(131))
        stream = RngStream(131)
        fid = fiducial.sample(50, stream)
        _, beta, rho_star = gad_params(np.diag([0.9, 0.05, 0.05]))
        eps = (1.0 - stream.generator.random(50) ** (1.0 / beta))[:, None]
        star = standard_basis(3).vectorize(rho_star)
        assert np.array_equal(rows, (1.0 - eps) * fid + eps * star)

    def test_dimension_mismatch(self):
        with pytest.raises(PriorConstructionError):
            insightful_prior(ginibre_prior(2), np.diag([0.9, 0.05, 0.05]))

    def test_coin_rejected(self):
        with pytest.raises(PriorConstructionError):
            insightful_prior(coin_uniform_prior(), np.eye(2) / 2)


class TestInsightfulChannelPrior:
    MEAN_CHOI = None

    def _mixture_mean(self):
        true_choi = choi_of_channel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * H]).matrix
        return true_choi, 0.9 * true_choi + 0.1 * np.eye(4) / 4

    def test_closed_form_recovers_true_channel(self):
        true_choi, mu = self._mixture_mean()
        alpha, beta, rho_star = gad_params(mu)
        assert abs(beta - 1.0 / 9.0) < 1e-12
        assert np.abs(rho_star - true_choi).max() < 1e-10

    def test_samples_satisfy_channel_invariants(self):
        _, mu = self._mixture_mean()
        prior = insightful_prior(bcsz_prior(2), mu)
        stream = RngStream(83)
        basis = standard_basis(4)
        for j in basis.devectorize(prior.sample(200, stream)):
            assert abs(np.trace(j).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(j).min() > -1e-8
            marg = partial_trace(j, (2, 2), keep="first")
            assert np.abs(marg - np.eye(2) / 2).max() < 1e-8

    def test_non_trace_preserving_mean_rejected(self):
        with pytest.raises(PriorConstructionError):
            insightful_prior(bcsz_prior(2), np.diag([0.6, 0.2, 0.1, 0.1]))


class TestCoinPriors:
    @pytest.mark.parametrize("p_mu,beta,p_star", [
        (1.0 / 3.0, 2.0, 0.0),
        (15.0 / 16.0, 1.0 / 7.0, 1.0),
        (1.0 / 16.0, 1.0 / 7.0, 0.0),
        (0.25, 1.0, 0.0),
        (2e-6, 4e-6 / (1.0 - 4e-6), 0.0),
        (1.0 - 2e-6, 4e-6 / (1.0 - 4e-6), 1.0),
    ])
    def test_closed_forms(self, p_mu, beta, p_star):
        alpha, b, p = coin_gad_params(p_mu)
        assert alpha == 1.0
        assert abs(b - beta) < 1e-12
        assert p == p_star  # exact: a heads probability outside [0, 1] is invalid

    def test_fair_coin_passthrough(self):
        prior = coin_insightful_prior(0.5)
        assert prior.name == "coin-uniform"

    def test_extreme_mean_rejected(self):
        with pytest.raises(PriorConstructionError):
            coin_gad_params(0.0)
        with pytest.raises(PriorConstructionError):
            coin_gad_params(1.0 - 1e-9)

    def test_draws_all_fiducials_then_all_weights(self):
        prior = coin_insightful_prior(0.25)
        rows = prior.sample(50, RngStream(137))
        stream = RngStream(137)
        p_f = stream.generator.random((50, 1))
        assert (prior.beta, prior.target) == coin_gad_params(0.25)[1:]
        eps = (1.0 - stream.generator.random(50) ** (1.0 / prior.beta))[:, None]
        assert np.array_equal(rows, (1.0 - eps) * p_f + eps * prior.target)

    def test_batch_mean_quarter(self):
        prior = coin_insightful_prior(0.25)
        draws = prior.sample(1_000_000, RngStream(89))
        assert abs(draws.mean() - 0.25) < 0.002

    def test_batch_and_scalar_paths_agree_in_distribution(self):
        prior = coin_insightful_prior(1.0 / 16.0)
        batch = prior.sample(10_000, RngStream(97)).ravel()
        stream = RngStream(101)
        loop = np.array([prior.sample(1, stream)[0, 0] for _ in range(10_000)])
        assert stats.ks_2samp(batch, loop).pvalue > 0.01

    def test_low_mean_shape(self):
        prior = coin_insightful_prior(1.0 / 16.0)
        draws = prior.sample(50_000, RngStream(103)).ravel()
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        near_zero = np.mean(draws < 0.1)
        middle = np.mean((draws > 0.45) & (draws < 0.55))
        assert near_zero > 3 * middle
        assert draws.min() < 0.01 and draws.max() > 0.95

    def test_uniform_prior_batch(self):
        draws = coin_uniform_prior().sample(10_000, RngStream(107))
        assert draws.shape == (10_000, 1)
        assert abs(draws.mean() - 0.5) < 0.02


class TestSampleMany:
    def test_loop_fallback_for_states(self):
        prior = ginibre_prior(2)
        rows = prior.sample(50, RngStream(109))
        assert rows.shape == (50, 4)
        # first coordinate is the trace coordinate 1/sqrt(2)
        assert np.abs(rows[:, 0] - 1.0 / np.sqrt(2.0)).max() < 1e-12

    def test_damped_single_draw_is_one_row(self):
        prior = insightful_prior(rebit_ginibre_prior(), (np.eye(2) - 0.9 * X) / 2)
        coords = prior.sample(1, RngStream(113))
        assert coords.shape == (1, 4)

    def test_fiducial_names(self):
        assert "ginibre" in ginibre_prior(2).name
        assert "bures" in bures_prior(2).name
        assert "rebit" in rebit_ginibre_prior().name
        assert "bcsz" in bcsz_prior(2).name
