from __future__ import annotations

import numpy as np
import pytest

from tomolab import harness
from tomolab.design import (
    DesignHeuristic,
    adaptive_design,
    pauli_effects,
    pauli_eigenstates,
    process_effects,
    qutrit_stabilizer_states,
    random_pauli_design,
    random_process_design,
    random_stabilizer_qutrit_design,
    scheduled_mix,
    stabilizer_qutrit_effects,
)
from tomolab.likelihood import process_design
from tomolab.qobj import (
    ChoiState,
    DensityOperator,
    Effect,
    gell_mann_basis,
    pauli_basis,
    standard_basis,
    vectorize,
)
from tomolab.randq import RngStream
from tomolab.smc import init_cloud

BASIS2 = pauli_basis(1)
BASIS4 = standard_basis(4)


class TestHeuristicConfig:
    def test_validation(self):
        DesignHeuristic(kind="random_pauli", n_meas=10)
        with pytest.raises(ValueError):
            DesignHeuristic(kind="random_pauli", n_meas=0)
        with pytest.raises(ValueError):
            DesignHeuristic(kind="process_adaptive_mix", n_meas=1, n_proposals=0)
        with pytest.raises(ValueError):
            DesignHeuristic(kind="process_adaptive_mix", n_meas=1, adaptive_fraction=1.2)


class TestRandomPauli:
    def test_effect_is_half_rank_projector(self):
        for n_qubits in (1, 2):
            stream = RngStream(3)
            for i in range(50):
                design = random_pauli_design(n_qubits, 5, stream.child(n_qubits, i))
                e = design.effect.matrix()
                eig = np.sort(np.linalg.eigvalsh(e))
                dim = 2**n_qubits
                assert np.allclose(eig[: dim // 2], 0.0, atol=1e-12)
                assert np.allclose(eig[dim // 2:], 1.0, atol=1e-12)

    def test_identity_string_excluded(self):
        stream = RngStream(5)
        for i in range(500):
            e = random_pauli_design(1, 1, stream.child(i)).effect.matrix()
            assert abs(np.trace(e).real - 1.0) < 1e-12

    def test_axis_frequencies(self):
        stream = RngStream(7)
        counts = np.zeros(3)
        n = 10_000
        for i in range(n):
            coords = random_pauli_design(1, 1, stream.child(i)).effect.coords
            counts[np.argmax(np.abs(coords[1:]))] += 1
        assert np.abs(counts / n - 1.0 / 3.0).max() < 0.02

    def test_deterministic(self):
        a = random_pauli_design(1, 3, RngStream(11))
        b = random_pauli_design(1, 3, RngStream(11))
        assert np.array_equal(a.effect.coords, b.effect.coords)

    def test_metadata(self):
        d = random_pauli_design(1, 7, RngStream(13), time=4.5)
        assert d.n_meas == 7
        assert d.time == 4.5


class TestQutritStabilizers:
    def test_twelve_states(self):
        kets = qutrit_stabilizer_states()
        assert kets.shape == (12, 3)
        norms = np.linalg.norm(kets, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_four_orthonormal_triples(self):
        kets = qutrit_stabilizer_states()
        for b in range(4):
            triple = kets[3 * b: 3 * b + 3]
            gram = triple.conj() @ triple.T
            assert np.abs(gram - np.eye(3)).max() < 1e-10

    def test_mutually_unbiased(self):
        kets = qutrit_stabilizer_states()
        for i in range(12):
            for j in range(12):
                if i // 3 == j // 3:
                    continue
                overlap = abs(np.vdot(kets[i], kets[j])) ** 2
                assert abs(overlap - 1.0 / 3.0) < 1e-10

    def test_design_is_rank_one(self):
        stream = RngStream(17)
        seen = set()
        for i in range(600):
            design = random_stabilizer_qutrit_design(20, stream.child(i))
            e = design.effect.matrix()
            eig = np.sort(np.linalg.eigvalsh(e))
            assert abs(eig[-1] - 1.0) < 1e-10
            assert abs(np.trace(e).real - 1.0) < 1e-10
            seen.add(int(np.argmax([abs(np.vdot(k, e @ k)) for k in qutrit_stabilizer_states()])))
        assert len(seen) == 12


class TestProcessProposals:
    def test_eigenstate_pairs_sum_to_identity(self):
        states = pauli_eigenstates()
        assert len(states) == 6
        for k in range(0, 6, 2):
            assert np.abs(states[k] + states[k + 1] - np.eye(2)).max() < 1e-12

    def test_random_pair(self):
        # Preparation first, then measurement; the design is their table entry.
        g = RngStream(19).generator
        prep, meas = int(g.integers(0, 6)), int(g.integers(0, 6))
        design = random_process_design(1, RngStream(19), BASIS4)
        assert design.effect is process_effects(BASIS4)[6 * prep + meas]
        states = pauli_eigenstates()
        assert np.allclose(design.effect.matrix(),
                           np.kron(2.0 * states[prep].T, states[meas]), atol=1e-12)

    def test_random_design_geometry(self):
        design = random_process_design(25, RngStream(23), BASIS4)
        assert design.effect.coords.shape == (16,)
        assert design.n_meas == 25
        composite = design.effect.matrix()
        assert np.linalg.eigvalsh(composite).min() > -1e-10
        assert np.linalg.eigvalsh(composite).max() <= 2.0 + 1e-10


class TestAdaptive:
    def test_zero_covariance_tie_breaks_to_first(self):
        stream = RngStream(29)
        proposals = [random_process_design(1, stream.child(i), BASIS4) for i in range(5)]
        pick = adaptive_design(proposals, np.zeros((16, 16)))
        assert pick is proposals[0]

    def test_rank_one_covariance_picks_aligned_effect(self):
        e = np.array([0.0, 0.0, 0.0, 1.0])
        cov = 0.04 * np.outer(e, e)
        stream = RngStream(31)
        proposals = [random_pauli_design(1, 1, stream.child(i)) for i in range(40)]
        pick = adaptive_design(proposals, cov)
        overlaps = [abs(float(p.effect.coords @ e)) for p in proposals]
        assert abs(float(pick.effect.coords @ e)) == max(overlaps)

    def test_argmax_dominates_mean(self):
        rng = np.random.default_rng(37)
        stream = RngStream(41)
        for trial in range(100):
            m = rng.standard_normal((16, 16))
            cov = m @ m.T
            proposals = [random_process_design(1, stream.child(trial, i), BASIS4)
                         for i in range(10)]
            scores = [float(p.effect.coords @ cov @ p.effect.coords) for p in proposals]
            pick = adaptive_design(proposals, cov)
            pick_score = float(pick.effect.coords @ cov @ pick.effect.coords)
            assert pick_score >= np.mean(scores) - 1e-12
            assert pick_score == max(scores)

    def test_scale_invariance(self):
        rng = np.random.default_rng(43)
        m = rng.standard_normal((4, 4))
        cov = m @ m.T
        stream = RngStream(47)
        proposals = [random_pauli_design(1, 1, stream.child(i)) for i in range(20)]
        a = adaptive_design(proposals, cov)
        b = adaptive_design(proposals, 5.0 * cov)
        assert a is b

    def test_empty_proposals(self):
        with pytest.raises(ValueError):
            adaptive_design([], np.zeros((4, 4)))


class TestEffectTables:
    """Each design family's effects are built once; entries must equal the
    per-draw construction they replace, bit for bit."""

    def test_process_table_matches_per_pair_build(self):
        states = pauli_eigenstates()
        table = process_effects(BASIS4)
        assert len(table) == 36
        for i, prep in enumerate(states):
            for j, meas in enumerate(states):
                built = process_design(DensityOperator(matrix=prep), Effect(matrix=meas),
                                       1, BASIS4).effect
                assert np.array_equal(table[6 * i + j].coords, built.coords)
                assert table[6 * i + j].basis is BASIS4

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_pauli_table_matches_per_string_build(self, n_qubits):
        basis = pauli_basis(n_qubits)
        table = pauli_effects(n_qubits)
        assert len(table) == 4**n_qubits
        for idx, element in enumerate(basis.elements):
            pauli = element * np.sqrt(2.0**n_qubits)
            built = vectorize(Effect(matrix=(np.eye(2**n_qubits) + pauli) / 2.0), basis)
            assert np.array_equal(table[idx].coords, built.coords)

    def test_stabilizer_table_matches_per_ket_build(self):
        table = stabilizer_qutrit_effects()
        assert len(table) == 12
        for ket, entry in zip(qutrit_stabilizer_states(), table):
            built = vectorize(Effect(matrix=np.outer(ket, ket.conj())), gell_mann_basis(3))
            assert np.array_equal(entry.coords, built.coords)

    def test_tables_are_built_once_and_read_only(self):
        assert process_effects(BASIS4) is process_effects(BASIS4)
        assert pauli_effects(2) is pauli_effects(2)
        assert stabilizer_qutrit_effects() is stabilizer_qutrit_effects()
        with pytest.raises(ValueError):
            process_effects(BASIS4)[0].coords[0] = 1.0

    def test_draws_index_their_table(self):
        # One integers call per index, as when each effect was built per draw.
        for seed in range(200):
            g = RngStream(seed).generator
            prep, meas = int(g.integers(0, 6)), int(g.integers(0, 6))
            drawn = random_process_design(3, RngStream(seed), BASIS4)
            assert drawn.effect is process_effects(BASIS4)[6 * prep + meas]
            idx = int(RngStream(seed).generator.integers(1, 16))
            assert random_pauli_design(2, 1, RngStream(seed)).effect is pauli_effects(2)[idx]
            idx = int(RngStream(seed).generator.integers(0, 12))
            drawn = random_stabilizer_qutrit_design(1, RngStream(seed))
            assert drawn.effect is stabilizer_qutrit_effects()[idx]


QPT_ADAPTIVE = {
    "mode": "qpt", "seed": 3, "model": "channel", "dim": 2,
    "prior": {"fiducial": "bcsz"},
    "truth": {"kind": "kraus", "kraus": [{"diag": [1.0, 1.0]}]},
    "heuristic": {"kind": "process_adaptive_mix", "n_meas": 5, "n_proposals": 50,
                  "adaptive_fraction": 1.0},
    "n_particles": 50, "n_experiments": 1,
}


def adaptive_rule():
    config = harness.RunConfig.from_dict(QPT_ADAPTIVE)
    prior = harness.build_prior(config.prior, config.model, config.dim)
    return harness.make_heuristic(config, prior), prior


def reference_adaptive_pick(cov, rng, n_proposals=50, n_meas=5):
    """The adaptive step as a loop: one mixture draw, then every proposal
    built and validated on its own and scored by float(c @ cov @ c)."""
    states = pauli_eigenstates()
    g = rng.generator
    g.random()
    proposals = []
    for _ in range(n_proposals):
        prep = DensityOperator(matrix=states[int(g.integers(0, 6))])
        meas = Effect(matrix=states[int(g.integers(0, 6))])
        proposals.append(process_design(prep, meas, n_meas, BASIS4))
    scores = np.array([float(p.effect.coords @ cov @ p.effect.coords) for p in proposals])
    return proposals, int(np.argmax(scores))


def cyclic_relabellings():
    """Permutations of the 16 two-qubit Pauli coordinates that relabel
    X -> Y -> Z -> X on either factor.  They map the 36 process effects onto
    each other, so a covariance averaged over them gives distinct effects
    equal scores up to rounding: near ties that a change of summation
    order can flip."""
    cycle = [0, 2, 3, 1]

    def power(k):
        out = [0, 1, 2, 3]
        for _ in range(k):
            out = [cycle[i] for i in out]
        return out

    perms = []
    for k_in in range(3):
        for k_out in range(3):
            p_in, p_out = power(k_in), power(k_out)
            perm = np.zeros((16, 16))
            for a in range(16):
                perm[4 * p_in[a // 4] + p_out[a % 4], a] = 1.0
            perms.append(perm)
    return perms


class TestAdaptiveRule:
    def covariances(self):
        """240 covariances: zero, rank one, full rank, and full rank averaged
        over the cyclic relabellings."""
        rng = np.random.default_rng(67)
        perms = cyclic_relabellings()
        out = []
        for case in range(240):
            kind = case % 4
            if kind == 0:
                cov = np.zeros((16, 16))
            elif kind == 1:
                v = rng.standard_normal(16)
                cov = np.outer(v, v)
            else:
                m = rng.standard_normal((16, 16))
                cov = m @ m.T
                if kind == 3:
                    cov = sum(p @ cov @ p.T for p in perms) / len(perms)
                    cov = 0.5 * (cov + cov.T)
            cov[0, :] = 0.0
            cov[:, 0] = 0.0
            out.append(cov)
        return out

    def test_picks_what_the_reference_loop_picks(self, monkeypatch):
        rule, _ = adaptive_rule()
        for seed, cov in enumerate(self.covariances()):
            monkeypatch.setattr(harness, "posterior_covariance", lambda cloud, cov=cov: cov)
            rng, ref_rng = RngStream(seed), RngStream(seed)
            pick = rule(1, None, rng)
            proposals, best = reference_adaptive_pick(cov, ref_rng)
            assert np.array_equal(pick.effect.coords, proposals[best].effect.coords), seed
            if not cov.any():
                assert best == 0
            # Both consumed the same draws.
            assert rng.generator.random() == ref_rng.generator.random()

    def test_no_validations_after_warm_up(self, monkeypatch):
        rule, prior = adaptive_rule()
        cloud = init_cloud(prior, 50, RngStream(71))
        rng = RngStream(73)
        checks = []
        for cls in (Effect, DensityOperator, ChoiState):
            original = cls.__post_init__

            def counted(self, original=original):
                checks.append(type(self).__name__)
                original(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        process_effects.cache_clear()
        rule(1, cloud, rng)
        assert len(checks) == 3 * 36  # the table: a preparation, a measurement, a composite
        checks.clear()
        for step in range(2, 22):
            rule(step, cloud, rng)
        assert checks == []


class TestScheduledMix:
    def test_degenerate_fractions(self):
        first = lambda: random_pauli_design(1, 1, RngStream(1))
        second = lambda: random_pauli_design(1, 2, RngStream(2))
        stream = RngStream(53)
        for i in range(50):
            design = scheduled_mix([first, second], [1.0, 0.0], stream.child(i))
            assert design.n_meas == 1

    def test_split_frequencies(self):
        calls = [0, 0]

        def make(idx):
            def go():
                calls[idx] += 1
                return random_pauli_design(1, 1, RngStream(idx))
            return go

        stream = RngStream(59)
        n = 10_000
        for i in range(n):
            scheduled_mix([make(0), make(1)], [0.2, 0.8], stream.child(i))
        assert abs(calls[0] / n - 0.2) < 0.02
        assert abs(calls[1] / n - 0.8) < 0.02

    def test_deterministic(self):
        picks = []
        for _ in range(2):
            stream = RngStream(61)
            chosen = []
            for i in range(30):
                design = scheduled_mix(
                    [lambda: random_pauli_design(1, 1, RngStream(3)),
                     lambda: random_pauli_design(1, 2, RngStream(4))],
                    [0.5, 0.5], stream.child(i))
                chosen.append(design.n_meas)
            picks.append(chosen)
        assert picks[0] == picks[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            scheduled_mix([], [], RngStream(1))
        with pytest.raises(ValueError):
            scheduled_mix([lambda: None], [0.7], RngStream(1))
