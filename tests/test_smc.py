from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tomolab.design import pauli_effects
from tomolab.likelihood import COIN_EFFECT, binomial_log_likelihood, simulate_experiment
from tomolab.priors import (
    HypothesisSpace,
    coin_uniform_prior,
    ginibre_prior,
    insightful_prior,
    rebit_ginibre_prior,
)
from tomolab.qobj import DimensionMismatchError, Effect, pauli_basis
from tomolab.randq import RngStream
from tomolab.smc import (
    CredibleEllipsoid,
    DegenerateUpdateError,
    ParticleCloud,
    bayes_update,
    credible_ellipsoid,
    effective_sample_size,
    init_cloud,
    maybe_resample,
    posterior_covariance,
    posterior_mean_coords,
    principal_components,
    resample,
    summarize,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
BASIS2 = pauli_basis(1)
BASIS4 = pauli_basis(2)
COIN_SPACE = HypothesisSpace(kind="coin")


def coin_cloud(ps, weights=None):
    ps = np.asarray(ps, dtype=float)[:, None]
    n = ps.shape[0]
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    return ParticleCloud(locations=ps, weights=w, space=COIN_SPACE)


def coin_log_like(cloud, n_meas, n_success):
    """Per-particle log likelihood of one coin datum."""
    return binomial_log_likelihood(cloud.locations, COIN_EFFECT, n_meas, n_success)


class TestInitCloud:
    def test_uniform_weights_and_full_ess(self):
        cloud = init_cloud(coin_uniform_prior(), 64, RngStream(1))
        assert np.allclose(cloud.weights, 1.0 / 64)
        assert abs(effective_sample_size(cloud) - 64.0) < 1e-9

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            init_cloud(coin_uniform_prior(), 1, RngStream(1))

    def test_prior_mean_recovered(self):
        prior = insightful_prior(coin_uniform_prior(), 0.25)
        cloud = init_cloud(prior, 10_000, RngStream(3))
        assert abs(posterior_mean_coords(cloud)[0] - 0.25) < 0.02

    def test_state_cloud_geometry(self):
        cloud = init_cloud(ginibre_prior(2), 32, RngStream(5))
        assert cloud.locations.shape == (32, 4)
        assert cloud.space.kind == "state"
        assert np.abs(cloud.locations[:, 0] - 1 / np.sqrt(2)).max() < 1e-12

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0],
                                         [-0.5, 1.5], [0.5, 0.6]])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="nonnegative and sum to one"):
            coin_cloud([0.2, 0.7], weights=weights)

    def test_hyperparameter_column(self):
        cloud = init_cloud(ginibre_prior(2), 16, RngStream(7), rates=(0.01, 0.0))
        assert cloud.locations.shape == (16, 5)
        assert cloud.space.n_hyper == 1
        assert np.allclose(cloud.locations[:, 4], 0.01)
        with pytest.raises(ValueError):
            init_cloud(ginibre_prior(2), 16, RngStream(7), rates=(-1.0, 0.0))


class TestBayesUpdate:
    def test_two_coin_particles(self):
        cloud = coin_cloud([0.2, 0.8])
        updated, log_norm = bayes_update(cloud, coin_log_like(cloud, 1, 1))
        assert np.allclose(updated.weights, [0.2, 0.8])
        assert abs(log_norm - np.log(0.5)) < 1e-12

    def test_uninformative_datum(self):
        cloud = coin_cloud([0.2, 0.8], weights=[0.3, 0.7])
        updated, log_norm = bayes_update(cloud, np.zeros(2))
        assert np.allclose(updated.weights, cloud.weights)
        assert abs(log_norm) < 1e-12

    def test_matches_exhaustive_enumeration(self):
        ps = [0.2, 0.5, 0.9]
        prior_w = [0.5, 0.3, 0.2]
        cloud = coin_cloud(ps, weights=prior_w)
        updated, log_norm = bayes_update(cloud, coin_log_like(cloud, 5, 3))

        def pmf(p):
            return 10.0 * p**3 * (1 - p) ** 2

        raw = [w * pmf(p) for w, p in zip(prior_w, ps)]
        norm = sum(raw)
        assert np.abs(updated.weights - np.array(raw) / norm).max() < 1e-15
        assert abs(log_norm - np.log(norm)) < 1e-12
        mean = posterior_mean_coords(updated)[0]
        exact = sum(p * r for p, r in zip(ps, raw)) / norm
        assert abs(mean - exact) < 1e-12

    def test_locations_untouched(self):
        cloud = coin_cloud([0.2, 0.8])
        updated, _ = bayes_update(cloud, coin_log_like(cloud, 4, 2))
        assert updated.locations is cloud.locations

    def test_degenerate_update(self):
        cloud = coin_cloud([0.0, 0.0])
        with pytest.raises(DegenerateUpdateError):
            bayes_update(cloud, coin_log_like(cloud, 2, 1))
        assert np.allclose(cloud.weights, 0.5)

    def test_log_likelihood_must_be_below_inf(self):
        cloud = coin_cloud([0.2, 0.8])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                bayes_update(cloud, np.array([0.0, bad]))

    def test_needs_one_log_likelihood_per_particle(self):
        cloud = coin_cloud([0.2, 0.8])
        for bad in (np.zeros(3), np.zeros((2, 1)), 0.0):
            with pytest.raises(DimensionMismatchError):
                bayes_update(cloud, bad)

    def test_zero_weight_particles_cannot_carry_the_update(self):
        # The only particle that explains the datum has no prior weight.
        cloud = coin_cloud([0.0, 1.0], weights=[1.0, 0.0])
        with pytest.raises(DegenerateUpdateError):
            bayes_update(cloud, coin_log_like(cloud, 1, 1))

    def test_underflowed_weight_is_not_a_herald(self):
        # 2000 successes leave the p = 0.5 particle a relative weight of
        # 2**-2000, which underflows to 0; one failure then has likelihood
        # 1/2 under it and 0 under p = 1.
        cloud = coin_cloud([1.0, 0.5])
        cloud, first = bayes_update(cloud, coin_log_like(cloud, 2000, 2000))
        assert cloud.weights.tolist() == [1.0, 0.0]
        cloud, second = bayes_update(cloud, coin_log_like(cloud, 1, 0))
        assert cloud.weights.tolist() == [0.0, 1.0]
        exact = 2002 * np.log(0.5)
        assert abs(first + second - exact) <= 1e-12 * abs(exact)

    def test_resampling_drops_the_log_weights(self):
        cloud = coin_cloud([0.2, 0.8])
        cloud, _ = bayes_update(cloud, coin_log_like(cloud, 3, 2))
        assert cloud.log_weights is not None
        assert resample(cloud, RngStream(3), a=1.0).log_weights is None
        assert resample(cloud, RngStream(3)).log_weights is None

    def test_sequential_consistency(self):
        cloud = coin_cloud(np.linspace(0.05, 0.95, 19))
        l1 = coin_log_like(cloud, 3, 1)
        l2 = coin_log_like(cloud, 4, 4)
        first, _ = bayes_update(cloud, l1)
        ab, _ = bayes_update(first, l2)
        second, _ = bayes_update(cloud, l2)
        ba, _ = bayes_update(second, l1)
        both, _ = bayes_update(cloud, l1 + l2)
        assert np.abs(ab.weights - ba.weights).max() < 1e-12
        assert np.abs(ab.weights - both.weights).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20),
           n_updates=st.integers(1, 6), qubit=st.booleans())
    def test_weights_stay_normalized(self, seed, n, n_updates, qubit):
        # After any sequence of updates the weights stay a distribution,
        # 1 <= ESS <= n_particles, and the covariance stays PSD.
        rng = np.random.default_rng(seed)
        stream = RngStream(seed)
        if qubit:
            cloud = init_cloud(ginibre_prior(2), 12, stream)
        else:
            cloud = coin_cloud(rng.random(12))
        for step in range(n_updates):
            k = int(rng.integers(0, n + 1))
            effect = (pauli_effects(1)[int(stream.child(step).generator.integers(0, 3))]
                      if qubit else COIN_EFFECT)
            try:
                cloud, _ = bayes_update(
                    cloud, binomial_log_likelihood(cloud.locations, effect, n, k))
            except DegenerateUpdateError:
                return
            assert abs(cloud.weights.sum() - 1.0) < 1e-10
            ess = effective_sample_size(cloud)
            assert 1.0 - 1e-9 <= ess <= cloud.n_particles + 1e-9
            assert np.linalg.eigvalsh(posterior_covariance(cloud)).min() >= -1e-12


class TestEssAndMoments:
    def test_ess_arithmetic(self):
        cloud = coin_cloud([0.1, 0.5, 0.9], weights=[0.5, 0.25, 0.25])
        assert abs(effective_sample_size(cloud) - 8.0 / 3.0) < 1e-12

    def test_ess_extremes(self):
        assert abs(effective_sample_size(coin_cloud([0.3, 0.6])) - 2.0) < 1e-12
        degenerate = coin_cloud([0.3, 0.6], weights=[1.0, 0.0])
        assert abs(effective_sample_size(degenerate) - 1.0) < 1e-12

    def test_posterior_mean_value(self):
        cloud = coin_cloud([0.2, 0.8], weights=[0.2, 0.8])
        assert abs(posterior_mean_coords(cloud)[0] - 0.68) < 1e-15

    def test_posterior_mean_is_convex(self):
        cloud = init_cloud(ginibre_prior(2), 200, RngStream(11))
        rho = BASIS2.devectorize(posterior_mean_coords(cloud))
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_tracked_mean_carries_the_rate_column(self):
        cloud = init_cloud(ginibre_prior(2), 8, RngStream(13), rates=(0.25, 0.0))
        mean = posterior_mean_coords(cloud)
        assert mean.shape == (5,)
        assert mean[4] == 0.25

    def test_covariance_delta_posterior(self):
        cloud = coin_cloud([0.4, 0.4])
        assert np.abs(posterior_covariance(cloud)).max() < 1e-15

    def test_covariance_two_point(self):
        cloud = coin_cloud([0.3, 0.7])
        assert abs(posterior_covariance(cloud)[0, 0] - 0.04) < 1e-15

    def test_covariance_textbook_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            locs = rng.random((n, 1))
            w = rng.random(n) + 1e-3
            w = w / w.sum()
            cloud = ParticleCloud(locations=locs, weights=w, space=COIN_SPACE)
            mean = float(w @ locs[:, 0])
            direct = float(np.sum(w * (locs[:, 0] - mean) ** 2))
            assert abs(posterior_covariance(cloud)[0, 0] - direct) < 1e-12

    def test_trace_row_zeroed_for_states(self):
        cloud = init_cloud(ginibre_prior(2), 100, RngStream(19))
        cov = posterior_covariance(cloud)
        assert np.abs(cov[0, :]).max() == 0.0
        assert np.abs(cov[:, 0]).max() == 0.0
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() > -1e-10

    def test_summarize_is_mean_covariance_and_ess(self):
        cloud = coin_cloud([0.2, 0.8], weights=[0.25, 0.75])
        mean, cov, ess = summarize(cloud)
        assert np.array_equal(mean, posterior_mean_coords(cloud))
        assert np.array_equal(cov, posterior_covariance(cloud))
        assert ess == effective_sample_size(cloud)


class TestResample:
    def _posterior_cloud(self, seed):
        cloud = init_cloud(rebit_ginibre_prior(), 400, RngStream(seed))
        eff = BASIS2.vectorize(Effect(matrix=(np.eye(2) + X) / 2).matrix)
        cloud, _ = bayes_update(cloud, binomial_log_likelihood(cloud.locations, eff, 10, 8))
        return cloud

    def test_multinomial_mode(self):
        cloud = self._posterior_cloud(23)
        out = resample(cloud, RngStream(29), a=1.0)
        assert np.allclose(out.weights, 1.0 / cloud.n_particles)
        # every row is one of the original rows
        matches = (out.locations[:, None, :] == cloud.locations[None, :, :]).all(axis=2)
        assert matches.any(axis=1).all()

    def test_ess_reset(self):
        cloud = self._posterior_cloud(31)
        out = resample(cloud, RngStream(37))
        assert abs(effective_sample_size(out) - cloud.n_particles) < 1e-9

    def test_mean_preserved_on_average(self):
        cloud = self._posterior_cloud(41)
        mean = posterior_mean_coords(cloud)
        cov = posterior_covariance(cloud)
        sigma_max = np.sqrt(np.linalg.eigvalsh(cov).max())
        stream = RngStream(43)
        drift = np.zeros_like(mean)
        trials = 100
        for i in range(trials):
            out = resample(cloud, stream.child(i))
            drift += posterior_mean_coords(out) - mean
        drift /= trials
        assert np.linalg.norm(drift) < 5.0 * sigma_max / np.sqrt(cloud.n_particles)

    def test_projection_leaves_rows_valid(self):
        cloud = self._posterior_cloud(47)
        out = resample(cloud, RngStream(53))
        again = out.space.project(out.locations)
        assert np.abs(again - out.locations).max() < 1e-10

    def test_shrinkage_validation(self):
        cloud = coin_cloud([0.2, 0.8])
        with pytest.raises(ValueError):
            resample(cloud, RngStream(1), a=0.0)
        with pytest.raises(ValueError):
            resample(cloud, RngStream(1), a=1.5)

    def test_maybe_resample_trigger(self):
        skewed = coin_cloud(np.linspace(0.1, 0.9, 10),
                            weights=[0.91] + [0.01] * 9)
        relaxed = maybe_resample(skewed, RngStream(59))
        assert abs(effective_sample_size(relaxed) - 10.0) < 1e-9
        uniform = coin_cloud(np.linspace(0.1, 0.9, 10))
        assert maybe_resample(uniform, RngStream(61)) is uniform


class TestCredibleEllipsoid:
    def test_center_membership(self):
        cloud = coin_cloud([0.2, 0.5, 0.8], weights=[0.25, 0.5, 0.25])
        ell = credible_ellipsoid(cloud, z=3.0)
        assert ell.contains(posterior_mean_coords(cloud))

    def test_delta_posterior_contains_only_center(self):
        cloud = coin_cloud([0.4, 0.4])
        ell = credible_ellipsoid(cloud, z=3.0)
        assert ell.contains(np.array([0.4]))
        assert not ell.contains(np.array([0.4001]))

    def test_z_validation(self):
        cloud = coin_cloud([0.2, 0.8])
        with pytest.raises(ValueError):
            credible_ellipsoid(cloud, z=0.0)

    def test_gaussian_coverage_matches_chi_square(self):
        rng = np.random.default_rng(67)
        n = 20_000
        sigmas = np.array([0.01, 0.02, 0.03])
        free = rng.standard_normal((n, 3)) * sigmas
        locs = np.column_stack([np.full(n, 1 / np.sqrt(2)), free])
        cloud = ParticleCloud(locations=locs, weights=np.full(n, 1.0 / n),
                              space=HypothesisSpace(kind="state", basis=BASIS2))
        ell = credible_ellipsoid(cloud, z=3.0)
        inside = np.mean([ell.contains(row) for row in locs])
        expected = stats.chi2(3).cdf(9.0)
        assert abs(inside - expected) < 0.02

    def test_support_restriction(self):
        # posterior varies along one axis only; leaving that line exits
        # the region even at tiny distances
        n = 500
        rng = np.random.default_rng(71)
        locs = np.column_stack([np.full(n, 1 / np.sqrt(2)),
                                rng.standard_normal(n) * 0.05,
                                np.zeros(n), np.zeros(n)])
        cloud = ParticleCloud(locations=locs, weights=np.full(n, 1.0 / n),
                              space=HypothesisSpace(kind="state", basis=BASIS2))
        ell = credible_ellipsoid(cloud, z=3.0)
        on_line = posterior_mean_coords(cloud) + np.array([0.0, 0.04, 0.0, 0.0])
        assert ell.contains(on_line)
        off_line = posterior_mean_coords(cloud) + np.array([0.0, 0.0, 0.01, 0.0])
        assert not ell.contains(off_line)


class TestPrincipalComponents:
    def test_rank_one_covariance(self):
        e = np.array([0.0, 1.0, 0.0, 0.0])
        (lam, vec), = principal_components(0.25 * np.outer(e, e), 1)
        assert abs(lam - 0.25) < 1e-12
        assert np.abs(np.abs(vec) - e).max() < 1e-12

    def test_eigenvalue_sum_and_orthonormality(self):
        rng = np.random.default_rng(79)
        m = rng.standard_normal((4, 4))
        cov = m @ m.T
        pairs = principal_components(cov, 4)
        lams = [p[0] for p in pairs]
        assert lams == sorted(lams, reverse=True)
        assert abs(sum(lams) - np.trace(cov)) < 1e-10
        vecs = np.stack([p[1] for p in pairs])
        assert np.abs(vecs @ vecs.T - np.eye(4)).max() < 1e-10

    def test_k_validation(self):
        with pytest.raises(ValueError):
            principal_components(np.eye(4), 0)
        with pytest.raises(ValueError):
            principal_components(np.eye(4), 5)


class TestHypothesisSpace:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            HypothesisSpace(kind="matrix")
        with pytest.raises(ValueError):
            HypothesisSpace(kind="state")
        with pytest.raises(ValueError):
            HypothesisSpace(kind="coin", basis=BASIS2)
        with pytest.raises(ValueError):
            HypothesisSpace(kind="choi", basis=BASIS4)
        with pytest.raises(ValueError):  # a channel basis needs a D**2 space
            HypothesisSpace(kind="channel", basis=BASIS2)
        assert HypothesisSpace(kind="channel", basis=BASIS4).channel_dim == 2
        assert HypothesisSpace(kind="state", basis=BASIS4).channel_dim is None

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["state", "channel", "coin"]),
           n_hyper=st.integers(0, 1))
    def test_projection_idempotent_on_random_rows(self, seed, kind, n_hyper):
        space = {
            "state": HypothesisSpace(kind="state", basis=BASIS2, n_hyper=n_hyper),
            "channel": HypothesisSpace(kind="channel", basis=BASIS4, n_hyper=n_hyper),
            "coin": HypothesisSpace(kind="coin", n_hyper=n_hyper),
        }[kind]
        rng = np.random.default_rng(seed)
        # Rows of unit trace (the first coordinate of a state or Choi row)
        # perturbed off the valid set, plus random diffusion rates.
        w = space.n_state_coords
        rows = rng.standard_normal((50, space.n_coords)) * 0.8
        if kind != "coin":
            rows[:, 0] = 1.0 / np.sqrt(space.basis.dim)
        once = space.project(rows)
        twice = space.project(once)
        assert np.abs(twice - once).max() < 1e-10
        assert once[:, w:].min(initial=0.0) >= 0.0


class TestPosteriorContraction:
    def test_covariance_shrinks_with_data(self):
        truth = BASIS2.vectorize((np.eye(2) + 0.9 * X) / 2)
        prior = insightful_prior(rebit_ginibre_prior(), (np.eye(2) - 0.9 * X) / 2)
        for seed in range(5):
            stream = RngStream(1000 + seed)
            cloud = init_cloud(prior, 2000, stream.child(0))
            initial = np.trace(posterior_covariance(cloud))
            for step in range(30):
                effect = pauli_effects(1)[int(stream.child(1, step).generator.integers(0, 3))]
                k = simulate_experiment(truth, effect, 10, stream.child(2, step))
                cloud, _ = bayes_update(
                    cloud, binomial_log_likelihood(cloud.locations, effect, 10, k))
                cloud = maybe_resample(cloud, stream.child(3, step))
            final = np.trace(posterior_covariance(cloud))
            assert final < initial
