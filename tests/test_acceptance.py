"""End-to-end acceptance suite.

Each test covers one headline capability at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s``).  The suite
is slower than the unit tests; run it on its own with

    python3 -m pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import stats

import run_coin_tracking
import run_qpt_adaptive
import run_qutrit_risk
import run_wrong_prior
from tomolab.design import tracking_bandwidth
from tomolab.likelihood import COIN_EFFECT, binomial_log_likelihood
from tomolab.priors import (
    bures_prior,
    coin_uniform_prior,
    gad_params,
    ginibre_prior,
    insightful_prior,
    rebit_ginibre_prior,
)
from tomolab.qobj import (
    ChoiState,
    DensityOperator,
    Effect,
    apply_choi,
    check_states,
    pauli_basis,
    process_effect,
    standard_basis,
)
from tomolab.randq import RngStream, bcsz_channels, ginibre_states
from tomolab.smc import (
    bayes_update,
    init_cloud,
    posterior_covariance,
    posterior_mean_coords,
)

from conftest import trace_distance


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def test_c01_fiducial_and_damped_prior_means():
    """Sample means of every prior family hit their nominal mean."""
    n = 100_000
    cases = []
    mu2 = np.diag([0.9, 0.1]).astype(complex)
    mu3 = np.diag([0.9, 0.05, 0.05]).astype(complex)
    ensembles = [
        ("ginibre(2)", ginibre_prior(2), np.eye(2) / 2.0),
        ("ginibre(3)", ginibre_prior(3), np.eye(3) / 3.0),
        ("bures(2)", bures_prior(2), np.eye(2) / 2.0),
        ("bures(3)", bures_prior(3), np.eye(3) / 3.0),
        ("rebit", rebit_ginibre_prior(), np.eye(2) / 2.0),
        ("damped(2)", insightful_prior(ginibre_prior(2), mu2), mu2),
        ("damped(3)", insightful_prior(ginibre_prior(3), mu3), mu3),
    ]
    for idx, (name, prior, target) in enumerate(ensembles):
        start = time.perf_counter()
        rows = prior.sample(n, RngStream(1000 + idx))
        mean = prior.space.basis.devectorize(rows.mean(axis=0))
        dist = trace_distance(mean, target)
        elapsed = time.perf_counter() - start
        cases.append((name, dist, elapsed))
    ok = all(d < 0.01 and t < 60.0 for _, d, t in cases)
    detail = ", ".join(f"{name} {d:.4f} ({t:.0f}s)" for name, d, t in cases)
    report("C1", ok, f"prior means within 0.01 trace distance at 1e5 draws: {detail}")


def test_c02_random_channel_ensemble():
    """Random channels are CPTP and average to the fully depolarizing one."""
    start = time.perf_counter()
    worst_eig = 0.0
    worst_tp = 0.0
    for k_idx, rank in enumerate((1, 2, 4)):
        stream = RngStream(2000 + k_idx)
        draws = check_states(np.stack([bcsz_channels(1, 2, rank, stream.child(i))[0]
                                       for i in range(10_000)]), channel_dim=2)
        eigs = np.linalg.eigvalsh(draws)
        worst_eig = min(worst_eig, float(eigs.min()))
        marginals = np.einsum("niaja->nij", draws.reshape(-1, 2, 2, 2, 2))
        worst_tp = max(worst_tp,
                       float(np.abs(marginals - np.eye(2) / 2.0).max()))
    acc = np.zeros((4, 4), dtype=complex)
    stream = RngStream(2525)
    n = 100_000
    draws = [bcsz_channels(1, 2, 4, stream.child(i))[0] for i in range(n)]
    check_states(np.stack(draws), channel_dim=2)
    for draw in draws:
        acc += draw
    mean_dist = trace_distance(acc / n, np.eye(4) / 4.0)
    elapsed = time.perf_counter() - start
    ok = (worst_eig >= -1e-8 and worst_tp <= 1e-8
          and mean_dist < 0.01 and elapsed < 120.0)
    report("C2", ok,
           f"3x1e4 draws CP(min eig {worst_eig:.1e}) TP(max dev {worst_tp:.1e}), "
           f"mean dist {mean_dist:.4f} at 1e5, {elapsed:.0f}s")


def test_c03_damping_closed_forms():
    """Damping parameters reproduce hand-computed values exactly."""
    start = time.perf_counter()
    beta, rho_star = gad_params(np.diag([0.9, 0.05, 0.05]).astype(complex))
    qutrit_ok = (abs(beta - 3.0 / 17.0) <= 1e-12
                 and np.abs(rho_star - np.diag([1.0, 0.0, 0.0])).max() <= 1e-12)
    b13, _ = gad_params(np.diag([1.0 / 3.0, 1.0 - 1.0 / 3.0]))
    b1516, _ = gad_params(np.diag([15.0 / 16.0, 1.0 - 15.0 / 16.0]))
    coin_ok = abs(b13 - 2.0) <= 1e-12 and abs(b1516 - 1.0 / 7.0) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = qutrit_ok and coin_ok and elapsed < 1.0
    report("C3", ok,
           f"beta(diag(0.9,0.05,0.05))={beta:.12f}, rho* extremal, "
           f"coin beta(1/3)={b13}, beta(15/16)={b1516:.12f}")


def test_c04_channel_state_pairing_oracle():
    """Composite-effect inner products equal direct channel application."""
    start = time.perf_counter()
    basis = standard_basis(4)
    worst = 0.0
    stream = RngStream(4040)
    gen = np.random.default_rng(4040)
    for i in range(1000):
        choi = ChoiState(matrix=bcsz_channels(1, 2, 4, stream.child(0, i))[0], dim=2)
        rho = DensityOperator(matrix=ginibre_states(1, 2, 2, stream.child(1, i))[0])
        ket = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        ket /= np.linalg.norm(ket)
        proj = np.outer(ket, ket.conj())
        direct = float(np.trace(proj @ apply_choi(choi, rho.matrix)).real)
        effect = process_effect(rho, Effect(matrix=proj))
        paired = float(basis.vectorize(effect.matrix) @ basis.vectorize(choi.matrix))
        worst = max(worst, abs(direct - paired))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    report("C4", ok, f"max |Tr[E L(rho)] - pairing| = {worst:.2e} "
                     f"over 1000 triples, {elapsed:.0f}s")


def test_c05_grid_filter_matches_discrete_bayes():
    """A fixed-grid coin filter reproduces exhaustive discrete Bayes."""
    start = time.perf_counter()
    grid = np.linspace(0.0025, 0.9975, 200)
    worst_mean = 0.0
    worst_var = 0.0
    for rec_idx in range(5):
        gen = np.random.default_rng(500 + rec_idx)
        p_true = gen.uniform(0.1, 0.9)
        counts = gen.binomial(5, p_true, size=50)
        cloud = init_cloud(coin_uniform_prior(), 200, RngStream(1))
        cloud = replace(cloud, locations=grid[:, None],
                        weights=np.full(200, 1.0 / 200.0))
        for k in counts:
            cloud, _ = bayes_update(
                cloud, binomial_log_likelihood(cloud.locations, COIN_EFFECT, 5, int(k)))
        log_post = stats.binom.logpmf(counts[:, None], 5, grid[None, :]).sum(axis=0)
        log_post -= log_post.max()
        w = np.exp(log_post)
        w /= w.sum()
        mean_oracle = float(w @ grid)
        var_oracle = float(w @ (grid - mean_oracle) ** 2)
        worst_mean = max(worst_mean,
                         abs(float(posterior_mean_coords(cloud)[0]) - mean_oracle))
        worst_var = max(worst_var,
                        abs(float(posterior_covariance(cloud)[0, 0]) - var_oracle))
    elapsed = time.perf_counter() - start
    ok = worst_mean <= 1e-12 and worst_var <= 1e-12 and elapsed < 10.0
    report("C5", ok, f"grid-SMC vs discrete Bayes: |d mean| {worst_mean:.2e}, "
                     f"|d var| {worst_var:.2e} over 5 records, {elapsed:.0f}s")


def test_c06_recovery_from_a_wrong_prior():
    """Estimation recovers a state nearly orthogonal to the prior mean."""
    start = time.perf_counter()
    rows, first = run_wrong_prior.ensemble(range(100))
    truth = pauli_basis(1).vectorize(0.5 * np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex))
    assert np.array_equal(first.summary["truth"], truth)  # every seed shares it
    improved = sum(row[3] for row in rows)
    covered = sum(row[4] for row in rows)
    elapsed = time.perf_counter() - start
    ok = improved >= 95 and covered >= 90 and elapsed < 120.0
    report("C6", ok, f"loss improved {improved}/100 (need >=95), truth in z=3 "
                     f"ellipsoid {covered}/100 (need >=90), {elapsed:.0f}s")


def test_c07_qutrit_risk_ordering(monkeypatch):
    """Risk curves order by prior quality on a qutrit ensemble."""
    # Trials run on worker processes; records do not depend on their number.
    monkeypatch.setenv("TOMOLAB_THREADS", "2")
    start = time.perf_counter()
    results, _ = run_qutrit_risk.curves()
    assert all(result.n_failed == 0 for result in results.values())
    default, matched, biased, orthogonal = (np.array(results[name].curve) for name in
                                            ("default", "matched", "biased", "orthogonal"))
    matched_below = bool(np.all(matched <= default))
    orth_above = bool(orthogonal[0] > default[0] and orthogonal[0] > matched[0]
                      and orthogonal[1] > default[1] and orthogonal[1] > matched[1])
    all_decrease = all(c[-1] < c[0] for c in (default, matched, biased, orthogonal))
    elapsed = time.perf_counter() - start
    ok = matched_below and orth_above and all_decrease and elapsed < 600.0
    report("C7", ok,
           f"matched<=default everywhere: {matched_below}, orthogonal early "
           f"risk highest: {orth_above}, all curves decrease: {all_decrease}, "
           f"{elapsed:.0f}s")


def test_c08_adaptive_process_designs_beat_random():
    """Adaptive design selection lowers median final process-estimation loss."""
    start = time.perf_counter()
    losses = []
    for seed in range(20):
        records = run_qpt_adaptive.pair(seed)
        assert not any(rec.failed for rec in records)
        losses.append([rec.summary["loss"] for rec in records])
    med_a, med_r = (float(m) for m in np.median(losses, axis=0))
    elapsed = time.perf_counter() - start
    ok = med_a <= med_r and elapsed < 600.0
    report("C8", ok, f"median final loss adaptive {med_a:.5f} <= random "
                     f"{med_r:.5f} over 20 matched seeds, {elapsed:.0f}s")


def test_c09_tracking_suite():
    """Diffusive tracking beats a static filter and respects its bandwidth."""
    start = time.perf_counter()
    two_tones = map(run_coin_tracking.two_tone, range(10))
    wins = sum(tracked < static for tracked, static, _ in two_tones)
    slow, aliased = run_coin_tracking.TONES
    corrs = [run_coin_tracking.single_tone(seed, slow)[0] for seed in range(3)]
    tvars = [run_coin_tracking.single_tone(seed, aliased)[1] for seed in range(3)]
    n_meas, f_max = tracking_bandwidth(0.05, 1.9599, 1.0)
    bandwidth_ok = n_meas == 385 and f_max == 1.0 / 770.0
    elapsed = time.perf_counter() - start
    ok = (wins >= 9 and min(corrs) > 0.5 and max(tvars) < 0.01
          and bandwidth_ok and elapsed < 300.0)
    report("C9", ok,
           f"two-tone MSE wins {wins}/10 (need >=9); slow-tone corr "
           f"{[round(c, 3) for c in corrs]} > 0.5; aliased-tone variance "
           f"{[round(v, 5) for v in tvars]} < 0.01; bandwidth(0.05,1.9599,1)="
           f"({n_meas}, 1/{round(1 / f_max)}); {elapsed:.0f}s")


def test_c10_engine_property_suite():
    """The full inference-engine property suite stays green."""
    start = time.perf_counter()
    target = Path(__file__).with_name("test_smc.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(target), "-q",
         "-p", "no:cacheprovider"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 120.0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    report("C10", ok, f"engine property tests: {tail}, {elapsed:.0f}s")
