from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from tomolab import design as design_module
from tomolab import harness
from tomolab.design import (
    DesignHeuristic,
    adaptive_design,
    pauli_effects,
    pauli_eigenstates,
    process_effects,
    process_entries,
    qutrit_stabilizer_states,
    random_pauli_design,
    random_process_design,
    random_stabilizer_qutrit_design,
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
        d = random_pauli_design(1, 7, RngStream(13))
        assert d.n_meas == 7


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
        entries = [process_entries(1, stream.child(i))[0] for i in range(5)]
        pick = adaptive_design(process_effects(BASIS4), entries, np.zeros((16, 16)))
        assert pick == entries[0]

    def test_rank_one_covariance_picks_aligned_effect(self):
        e = np.array([0.0, 0.0, 0.0, 1.0])
        cov = 0.04 * np.outer(e, e)
        stream = RngStream(31)
        table = pauli_effects(1)
        entries = [int(stream.child(i).generator.integers(1, 4)) for i in range(40)]
        pick = adaptive_design(table, entries, cov)
        overlaps = [abs(float(table[i].coords @ e)) for i in entries]
        assert abs(float(table[pick].coords @ e)) == max(overlaps)

    def test_argmax_dominates_mean(self):
        rng = np.random.default_rng(37)
        stream = RngStream(41)
        table = process_effects(BASIS4)
        for trial in range(100):
            m = rng.standard_normal((16, 16))
            cov = m @ m.T
            entries = process_entries(10, stream.child(trial))
            scores = [float(table[i].coords @ cov @ table[i].coords) for i in entries]
            pick = adaptive_design(table, entries, cov)
            pick_score = float(table[pick].coords @ cov @ table[pick].coords)
            assert pick_score >= np.mean(scores) - 1e-12
            assert pick_score == max(scores)

    def test_scale_invariance(self):
        rng = np.random.default_rng(43)
        m = rng.standard_normal((4, 4))
        cov = m @ m.T
        stream = RngStream(47)
        table = pauli_effects(1)
        entries = [int(stream.child(i).generator.integers(1, 4)) for i in range(20)]
        assert adaptive_design(table, entries, cov) == adaptive_design(table, entries, 5.0 * cov)

    def test_empty_proposals(self):
        with pytest.raises(ValueError):
            adaptive_design(process_effects(BASIS4), [], np.zeros((16, 16)))


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


def adaptive_rule(fraction=1.0):
    config = harness.RunConfig.from_dict(dict(QPT_ADAPTIVE, heuristic=dict(
        QPT_ADAPTIVE["heuristic"], adaptive_fraction=fraction)))
    prior = harness.build_prior(config.prior, config.model, config.dim)
    return harness.make_heuristic(config, prior), prior


def reference_adaptive_pick(cov, rng, n_proposals=50, n_meas=5):
    """The adaptive step as a loop: one mixture draw, then every proposal
    built and validated on its own.  The distinct proposals, in table
    order, are scored with the rule's batched expression: a product over
    n rows may round a row differently from a product over one."""
    states = pauli_eigenstates()
    g = rng.generator
    g.random()
    proposals, entries = [], []
    for _ in range(n_proposals):
        i, j = int(g.integers(0, 6)), int(g.integers(0, 6))
        proposals.append(process_design(DensityOperator(matrix=states[i]),
                                        Effect(matrix=states[j]), n_meas, BASIS4))
        entries.append(6 * i + j)
    distinct = sorted(set(entries))
    coords = np.array([proposals[entries.index(e)].effect.coords for e in distinct])
    scores = dict(zip(distinct, np.einsum("ij,ij->i", coords @ cov, coords)))
    return proposals, int(np.argmax([scores[e] for e in entries]))


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

    def test_exact_ties_go_to_the_earliest_entry_drawn(self):
        effects = process_effects(BASIS4)
        rng = np.random.default_rng(79)
        for _ in range(50):
            entries = rng.integers(0, 36, size=50)
            assert adaptive_design(effects, entries, np.zeros((16, 16))) == entries[0]
        # Preparations +X and -X with one measurement: their coordinates
        # differ only in sign, so a diagonal covariance scores them equal.
        plus, minus = 6 * 0 + 4, 6 * 1 + 4
        assert np.array_equal(np.abs(effects[plus].coords), np.abs(effects[minus].coords))
        cov = np.diag(rng.random(16) + 0.5)
        coords = np.array([e.coords for e in effects])
        scores = np.einsum("ij,ij->i", coords @ cov, coords)
        assert scores[plus] == scores[minus]
        weak = int(np.argmin(scores))
        assert scores[weak] < scores[plus]
        for drawn, pick in (([weak, plus, minus], plus), ([weak, minus, plus], minus),
                            ([minus, weak, plus, minus], minus),
                            ([weak, weak, plus, weak, minus, plus], plus)):
            assert adaptive_design(effects, np.array(drawn), cov) == pick, drawn


class TestBatchedDraws:
    """An adaptive step draws all its proposal entries with one
    ``integers`` call; it must give the values, and leave the stream in
    the state, of one scalar call per preparation and per measurement."""

    def test_batched_entries_equal_scalar_draws(self):
        for seed in range(600):
            batched, scalar = RngStream(seed), RngStream(seed)
            g = scalar.generator
            for n in (50, 1, 7, 50):
                assert batched.generator.random() == g.random()
                expected = []
                for _ in range(n):
                    prep = int(g.integers(0, 6))
                    expected.append(6 * prep + int(g.integers(0, 6)))
                assert process_entries(n, batched).tolist() == expected, seed
            assert batched.generator.random() == g.random(), seed

    @staticmethod
    def reference_cut(fraction, u) -> bool:
        """Reference cut: ``searchsorted`` of u in the cumulative
        fractions of [random, adaptive], clipped to the last entry; True
        when it picks the adaptive design."""
        idx = int(np.searchsorted(np.cumsum([1.0 - fraction, fraction]), u, side="right"))
        return min(idx, 1) == 1

    def test_mixed_rule_steps_match_scalar_reference(self):
        covs = TestAdaptiveRule().covariances()
        states = pauli_eigenstates()
        for fraction, expected_kinds in ((0.8, {False, True}), (0.0, {False}),
                                         (1.0, {True})):
            rule, _ = adaptive_rule(fraction)
            rng, ref = RngStream(79), RngStream(79)
            g = ref.generator
            kinds = set()
            for step in range(1, 21):
                cov = covs[3 * step]
                pick = rule(step, None, rng, cov=cov)
                adaptive = self.reference_cut(fraction, g.random())
                kinds.add(adaptive)
                proposals = []
                for _ in range(50 if adaptive else 1):
                    prep = DensityOperator(matrix=states[int(g.integers(0, 6))])
                    meas = Effect(matrix=states[int(g.integers(0, 6))])
                    proposals.append(process_design(prep, meas, 5, BASIS4))
                scores = [float(p.effect.coords @ cov @ p.effect.coords) for p in proposals]
                expected = proposals[int(np.argmax(scores))]
                assert np.array_equal(pick.effect.coords, expected.effect.coords), step
                assert pick.n_meas == 5
            assert kinds == expected_kinds, fraction
            assert rng.generator.random() == g.random()

    def test_cut_matches_reference_at_its_edges(self):
        # u values at and around 1 - f, where the two cuts could part.
        for fraction in (0.0, 0.2, 0.5, 0.8, 1.0, 1.0 / 3.0):
            edge = 1.0 - fraction
            for u in (0.0, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0),
                      np.nextafter(1.0, 0.0)):
                if u < 1.0:
                    assert (not u < 1.0 - fraction) == self.reference_cut(fraction, u)


class TestScheduledMix:
    """The adaptive rule draws one uniform u per step and takes a random
    design when u < 1 - adaptive_fraction, else the adaptive one."""

    COV = np.eye(16)

    @pytest.fixture
    def random_calls(self, monkeypatch):
        """A list that grows by one per random design a rule builds."""
        calls = []
        random_design = design_module.random_process_design

        def counted(*args, **kwargs):
            calls.append(1)
            return random_design(*args, **kwargs)
        monkeypatch.setattr(design_module, "random_process_design", counted)
        return calls

    def test_degenerate_fractions(self, random_calls):
        stream = RngStream(53)
        for fraction, n_random in ((0.0, 50), (1.0, 0)):
            random_calls.clear()
            rule, _ = adaptive_rule(fraction)
            for i in range(50):
                rule(i + 1, None, stream.child(i), cov=self.COV)
            assert len(random_calls) == n_random, fraction

    def test_split_frequencies(self, random_calls):
        rule, _ = adaptive_rule(0.8)
        stream = RngStream(59)
        n = 10_000
        for i in range(n):
            rule(i + 1, None, stream.child(i), cov=self.COV)
        assert abs(len(random_calls) / n - 0.2) < 0.02

    def test_deterministic(self):
        rule, _ = adaptive_rule(0.5)
        picks = []
        for _ in range(2):
            stream = RngStream(61)
            picks.append([rule(i + 1, None, stream.child(i), cov=self.COV).effect
                          for i in range(30)])
        assert all(a is b for a, b in zip(*picks))


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", [
    pytest.param(p, id=p.stem) for p in SHIPPED_CONFIGS
    if "heuristic" in json.loads(p.read_text(encoding="utf-8"))])
def test_rule_is_callable_with_step_cloud_rng(path):
    """``make_heuristic`` returns ``rule(step, cloud, rng, cov=None)``; the
    benchmark's warm-up calls it as ``rule(1, cloud, rng)``."""
    config = harness.RunConfig.from_json_file(path)
    prior = harness.build_prior(config.prior, config.model, config.dim)
    rule = harness.make_heuristic(config, prior)
    rng = RngStream(config.seed)
    design = rule(1, init_cloud(prior, 2, rng), rng)
    assert design.n_meas == config.heuristic.n_meas
    assert design.effect.coords.shape == (prior.n_coords,)
