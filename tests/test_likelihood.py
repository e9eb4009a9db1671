from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import random_projector
from tomolab.likelihood import (
    COIN_EFFECT,
    binomial_likelihood,
    binomial_log_likelihood,
    binomial_log_pmf,
    born_probability,
    simulate_experiment,
)
from tomolab.qobj import (
    DensityOperator,
    DimensionMismatchError,
    Effect,
    apply_choi,
    choi_of_channel,
    pauli_basis,
    process_effect,
    standard_basis,
)
from tomolab.randq import RngStream, ginibre_states

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])
H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
BASIS2 = pauli_basis(1)


def effect_row(effect_matrix):
    return BASIS2.vectorize(Effect(matrix=effect_matrix).matrix)


def process_row(prep, meas, basis):
    return basis.vectorize(process_effect(prep, meas).matrix)


class TestDesignAndDatum:
    """A design is an effect row, measured n_meas times; a datum is the
    success count."""

    def test_design_validation(self):
        # An effect row must be exactly as wide as the hypothesis rows.
        state = BASIS2.vectorize(np.eye(2) / 2)
        with pytest.raises(DimensionMismatchError):
            binomial_log_likelihood(state, COIN_EFFECT, 5, 2)
        with pytest.raises(DimensionMismatchError):
            simulate_experiment(state[:3], effect_row(np.eye(2) / 2), 5, RngStream(1))

    def test_datum_validation(self):
        assert np.isfinite(binomial_log_pmf(5, 5, 0.5))
        with pytest.raises(ValueError):
            binomial_log_pmf(5, 6, 0.5)
        with pytest.raises(ValueError):
            binomial_log_pmf(5, -1, 0.5)

    def test_coin_design(self):
        assert COIN_EFFECT.shape == (1,)
        assert COIN_EFFECT[0] == 1.0
        assert not COIN_EFFECT.flags.writeable
        assert float(born_probability([0.3], COIN_EFFECT)) == 0.3


class TestBornProbability:
    def test_polarized_state(self):
        state = BASIS2.vectorize((np.eye(2) + 0.9 * X) / 2)
        effect = BASIS2.vectorize((np.eye(2) + X) / 2)
        assert abs(float(born_probability(state, effect)) - 0.95) < 1e-12

    def test_ground_state_projector(self):
        state = BASIS2.vectorize(np.diag([1.0, 0.0]))
        effect = BASIS2.vectorize(np.diag([1.0, 0.0]))
        assert abs(float(born_probability(state, effect)) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        rng = np.random.default_rng(3)
        state = BASIS2.vectorize(np.eye(2) / 2)
        effect = BASIS2.vectorize(random_projector(rng, 2))
        assert abs(float(born_probability(state, effect)) - 0.5) < 1e-12

    def test_batched_rows(self):
        rng = np.random.default_rng(5)
        stream = RngStream(7)
        rows = np.stack([BASIS2.vectorize(ginibre_states(1, 2, 2, stream.child(i))[0])
                         for i in range(8)])
        effect = BASIS2.vectorize(random_projector(rng, 2))
        batch = born_probability(rows, effect)
        singles = np.array([float(born_probability(r, effect)) for r in rows])
        assert np.abs(batch - singles).max() < 1e-15

    def test_extra_columns_rejected(self):
        # Rows carrying a rate column are sliced to their state coordinates
        # by the caller; a wider row is a mismatched design.
        state = BASIS2.vectorize((np.eye(2) + 0.9 * X) / 2)
        padded = np.concatenate([state, [0.123]])
        effect = BASIS2.vectorize((np.eye(2) + X) / 2)
        with pytest.raises(DimensionMismatchError):
            born_probability(padded, effect)

    def test_short_hypothesis_rejected(self):
        with pytest.raises(DimensionMismatchError):
            born_probability(np.array([1.0]), np.array([1.0, 0.0, 0.0, 0.0]))

    def test_clamping(self):
        # a slightly unphysical hypothesis row still yields a probability
        effect = BASIS2.vectorize(np.diag([1.0, 0.0]))
        hot = BASIS2.vectorize(np.diag([1.0, 0.0])) * 1.001
        assert float(born_probability(hot, effect)) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_two_outcome_normalization(self, seed):
        rng = np.random.default_rng(seed)
        stream = RngStream(seed)
        state = BASIS2.vectorize(ginibre_states(1, 2, 2, stream)[0])
        e = random_projector(rng, 2)
        p = float(born_probability(state, BASIS2.vectorize(e)))
        q = float(born_probability(state, BASIS2.vectorize(np.eye(2) - e)))
        assert abs(p + q - 1.0) < 1e-10
        assert 0.0 <= p <= 1.0


class TestBinomial:
    def test_half_and_half(self):
        assert abs(float(np.exp(binomial_log_pmf(2, 1, 0.5))) - 0.5) < 1e-15

    def test_certain_success(self):
        assert float(np.exp(binomial_log_pmf(7, 7, 1.0))) == 1.0
        assert float(np.exp(binomial_log_pmf(7, 3, 1.0))) == 0.0
        assert float(np.exp(binomial_log_pmf(7, 0, 0.0))) == 1.0
        assert float(np.exp(binomial_log_pmf(7, 2, 0.0))) == 0.0

    def test_nine_of_ten(self):
        expected = 10.0 * 0.95**9 * 0.05
        assert abs(expected - 0.31512470486230455) < 1e-15
        assert abs(float(np.exp(binomial_log_pmf(10, 9, 0.95))) - expected) < 1e-12

    def test_against_reference_pmf(self):
        for n in (1, 5, 23):
            for p in (0.0, 0.2, 0.5, 0.77, 1.0):
                for k in range(n + 1):
                    ours = float(np.exp(binomial_log_pmf(n, k, p)))
                    ref = float(stats.binom.pmf(k, n, p))
                    assert abs(ours - ref) < 1e-12

    def test_normalization(self):
        p = 0.37
        total = sum(float(np.exp(binomial_log_pmf(9, k, p))) for k in range(10))
        assert abs(total - 1.0) < 1e-12

    def test_out_of_range_count(self):
        with pytest.raises(ValueError):
            binomial_log_pmf(3, 4, 0.5)
        with pytest.raises(ValueError):
            binomial_log_likelihood([0.5], COIN_EFFECT, 3, 4)

    def test_likelihood_wrapper(self):
        effect = effect_row((np.eye(2) + X) / 2)
        state = BASIS2.vectorize((np.eye(2) + 0.9 * X) / 2)
        lik = float(binomial_likelihood(state, effect, 10, 9))
        assert abs(lik - 10.0 * 0.95**9 * 0.05) < 1e-12
        log_lik = float(binomial_log_likelihood(state, effect, 10, 9))
        assert abs(log_lik - np.log(lik)) < 1e-12

    def test_log_pmf_finite_where_pmf_underflows(self):
        p = [0.3, 0.35, 0.4]
        assert np.all(np.exp(binomial_log_pmf(200_000, 100_000, p)) == 0.0)
        log_pmf = binomial_log_pmf(200_000, 100_000, p)
        assert np.all(np.isfinite(log_pmf))
        ref = stats.binom.logpmf(100_000, 200_000, p)
        assert np.abs(log_pmf - ref).max() < 1e-6 * np.abs(ref).max()
        assert np.all(np.diff(log_pmf) > 0.0)

    def test_log_pmf_endpoints(self):
        assert binomial_log_pmf(7, 7, 1.0) == 0.0
        assert binomial_log_pmf(7, 0, 0.0) == 0.0
        assert binomial_log_pmf(7, 3, 1.0) == -np.inf
        assert binomial_log_pmf(7, 2, 0.0) == -np.inf


class TestSimulate:
    def test_deterministic(self):
        effect = effect_row((np.eye(2) + X) / 2)
        state = BASIS2.vectorize((np.eye(2) + 0.9 * X) / 2)
        a = simulate_experiment(state, effect, 20, RngStream(17))
        b = simulate_experiment(state, effect, 20, RngStream(17))
        assert type(a) is int and a == b

    def test_certain_outcomes(self):
        state = BASIS2.vectorize(np.diag([1.0, 0.0]))
        up = effect_row(np.diag([1.0, 0.0]))
        down = effect_row(np.diag([0.0, 1.0]))
        stream = RngStream(19)
        assert simulate_experiment(state, up, 9, stream) == 9
        assert simulate_experiment(state, down, 9, stream) == 0

    def test_binomial_mean(self):
        state = BASIS2.vectorize((np.eye(2) + 0.4 * X) / 2)  # p = 0.3 on the -x effect
        effect = effect_row((np.eye(2) - X) / 2)
        stream = RngStream(23)
        total = sum(simulate_experiment(state, effect, 40, stream.child(i))
                    for i in range(10_000))
        assert abs(total / (40.0 * 10_000) - 0.3) < 0.01


class TestProcessLikelihood:
    BASIS4 = standard_basis(4)

    def test_identity_channel_certain(self):
        choi = choi_of_channel([np.eye(2)])
        coords = self.BASIS4.vectorize(choi.matrix)
        prep = DensityOperator(matrix=np.diag([1.0, 0.0]))
        meas = Effect(matrix=np.diag([1.0, 0.0]))
        effect = process_row(prep, meas, self.BASIS4)
        lik = float(binomial_likelihood(coords, effect, 5, 5))
        assert abs(lik - 1.0) < 1e-10

    def test_depolarizing_channel(self):
        choi = choi_of_channel([np.eye(2) / 2, X / 2, 1j * X @ Z / 2, Z / 2])
        coords = self.BASIS4.vectorize(choi.matrix)
        rng = np.random.default_rng(29)
        prep = DensityOperator(matrix=np.diag([1.0, 0.0]))
        meas = Effect(matrix=random_projector(rng, 2))
        effect = process_row(prep, meas, self.BASIS4)
        for k in range(4):
            lik = float(binomial_likelihood(coords, effect, 3, k))
            assert abs(lik - float(stats.binom.pmf(k, 3, 0.5))) < 1e-10

    def test_hadamard_mixture_single_shot(self):
        choi = choi_of_channel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * H])
        coords = self.BASIS4.vectorize(choi.matrix)
        prep = DensityOperator(matrix=np.diag([1.0, 0.0]))
        meas = Effect(matrix=(np.eye(2) + X) / 2)
        effect = process_row(prep, meas, self.BASIS4)
        lik = float(binomial_likelihood(coords, effect, 1, 1))
        assert abs(lik - 0.65) < 1e-12

    def test_same_code_path_as_state_tomography(self):
        # The composite effect turns channel data into state data: its
        # likelihood is that of measuring E on the output state Lambda(rho).
        choi = choi_of_channel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * H])
        coords = self.BASIS4.vectorize(choi.matrix)
        prep = DensityOperator(matrix=np.diag([1.0, 0.0]))
        meas = Effect(matrix=(np.eye(2) + X) / 2)
        effect = process_row(prep, meas, self.BASIS4)
        output = BASIS2.vectorize(apply_choi(choi, prep))
        for k in range(8):
            assert abs(float(binomial_likelihood(coords, effect, 7, k))
                       - float(binomial_likelihood(output, effect_row(meas.matrix), 7, k))) < 1e-12
