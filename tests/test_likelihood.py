from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import random_projector
from tomolab.likelihood import (
    Datum,
    ExperimentDesign,
    binomial_likelihood,
    binomial_log_pmf,
    born_probability,
    coin_design,
    datum_log_likelihood,
    process_design,
    simulate_experiment,
)
from tomolab.qobj import (
    DensityOperator,
    DimensionMismatchError,
    Effect,
    apply_choi,
    choi_of_channel,
    pauli_basis,
    standard_basis,
    vectorize,
)
from tomolab.randq import RngStream, ginibre_states

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])
H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
BASIS2 = pauli_basis(1)


def design_for(effect_matrix, n_meas=1):
    return ExperimentDesign(effect=vectorize(Effect(matrix=effect_matrix), BASIS2),
                            n_meas=n_meas)


class TestDesignAndDatum:
    def test_design_validation(self):
        with pytest.raises(ValueError):
            design_for((np.eye(2) + X) / 2, n_meas=0)

    def test_datum_validation(self):
        d = design_for((np.eye(2) + X) / 2, n_meas=5)
        Datum(n_success=5, design=d)
        with pytest.raises(ValueError):
            Datum(n_success=6, design=d)
        with pytest.raises(ValueError):
            Datum(n_success=-1, design=d)

    def test_coin_design(self):
        d = coin_design(n_meas=3)
        assert d.effect.coords.shape == (1,)
        assert d.effect.coords[0] == 1.0
        assert d.n_meas == 3


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

    def test_extra_hyperparameter_columns_ignored(self):
        state = BASIS2.vectorize((np.eye(2) + 0.9 * X) / 2)
        padded = np.concatenate([state, [0.123]])
        effect = BASIS2.vectorize((np.eye(2) + X) / 2)
        assert abs(float(born_probability(padded, effect)) - 0.95) < 1e-12

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

    def test_likelihood_wrapper(self):
        d = design_for((np.eye(2) + X) / 2, n_meas=10)
        state = BASIS2.vectorize((np.eye(2) + 0.9 * X) / 2)
        lik = float(binomial_likelihood(state, d, 9))
        assert abs(lik - 10.0 * 0.95**9 * 0.05) < 1e-12
        datum = Datum(n_success=9, design=d)
        assert abs(float(datum_log_likelihood(state, datum)) - np.log(lik)) < 1e-12

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
        d = design_for((np.eye(2) + X) / 2, n_meas=20)
        state = BASIS2.vectorize((np.eye(2) + 0.9 * X) / 2)
        a = simulate_experiment(state, d, RngStream(17))
        b = simulate_experiment(state, d, RngStream(17))
        assert a.n_success == b.n_success

    def test_certain_outcomes(self):
        state = BASIS2.vectorize(np.diag([1.0, 0.0]))
        up = design_for(np.diag([1.0, 0.0]), n_meas=9)
        down = design_for(np.diag([0.0, 1.0]), n_meas=9)
        stream = RngStream(19)
        assert simulate_experiment(state, up, stream).n_success == 9
        assert simulate_experiment(state, down, stream).n_success == 0

    def test_binomial_mean(self):
        state = BASIS2.vectorize((np.eye(2) + 0.4 * X) / 2)  # p = 0.3 on the -x effect
        d = design_for((np.eye(2) - X) / 2, n_meas=40)
        stream = RngStream(23)
        total = sum(simulate_experiment(state, d, stream.child(i)).n_success
                    for i in range(10_000))
        assert abs(total / (40.0 * 10_000) - 0.3) < 0.01


class TestProcessLikelihood:
    BASIS4 = standard_basis(4)

    def test_identity_channel_certain(self):
        choi = choi_of_channel([np.eye(2)])
        coords = self.BASIS4.vectorize(choi.matrix)
        prep = DensityOperator(matrix=np.diag([1.0, 0.0]))
        meas = Effect(matrix=np.diag([1.0, 0.0]))
        design = process_design(prep, meas, 5, self.BASIS4)
        lik = float(binomial_likelihood(coords, design, 5))
        assert abs(lik - 1.0) < 1e-10

    def test_depolarizing_channel(self):
        choi = choi_of_channel([np.eye(2) / 2, X / 2, 1j * X @ Z / 2, Z / 2])
        coords = self.BASIS4.vectorize(choi.matrix)
        rng = np.random.default_rng(29)
        prep = DensityOperator(matrix=np.diag([1.0, 0.0]))
        meas = Effect(matrix=random_projector(rng, 2))
        for k in range(4):
            design = process_design(prep, meas, 3, self.BASIS4)
            lik = float(binomial_likelihood(coords, design, k))
            assert abs(lik - float(stats.binom.pmf(k, 3, 0.5))) < 1e-10

    def test_hadamard_mixture_single_shot(self):
        choi = choi_of_channel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * H])
        coords = self.BASIS4.vectorize(choi.matrix)
        prep = DensityOperator(matrix=np.diag([1.0, 0.0]))
        meas = Effect(matrix=(np.eye(2) + X) / 2)
        design = process_design(prep, meas, 1, self.BASIS4)
        lik = float(binomial_likelihood(coords, design, 1))
        assert abs(lik - 0.65) < 1e-12

    def test_same_code_path_as_state_tomography(self):
        # The composite effect turns channel data into state data: its
        # likelihood is that of measuring E on the output state Lambda(rho).
        choi = choi_of_channel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * H])
        coords = self.BASIS4.vectorize(choi.matrix)
        prep = DensityOperator(matrix=np.diag([1.0, 0.0]))
        meas = Effect(matrix=(np.eye(2) + X) / 2)
        design = process_design(prep, meas, 7, self.BASIS4)
        output = BASIS2.vectorize(apply_choi(choi, prep))
        for k in range(8):
            assert abs(float(binomial_likelihood(coords, design, k))
                       - float(binomial_likelihood(output, design_for(meas.matrix, 7), k))) < 1e-12
