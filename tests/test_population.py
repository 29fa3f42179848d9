"""Lockstep population replay against the scalar Detector, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import causalneuron.ga as ga_module
from causalneuron.ga import (
    GENE_NAMES,
    GENE_RANGES,
    GaConfig,
    Genome,
    evaluate,
    evolve,
    run_ga,
    sample_genome,
)
from causalneuron.metrics import score_run, score_runs
from causalneuron.neuron import Detector
from causalneuron.plasticity import PlasticityConfig, resource_for_weight
from causalneuron.population import replay_population
from causalneuron.records import EpisodeRecord
from causalneuron.recording import record_pong_episode
from causalneuron.runner import replay
from causalneuron.synthetic import SyntheticConfig, generate

from reference import train_scalar

CORNERS = [
    Genome(**{name: GENE_RANGES[name][k] for name in GENE_NAMES})
    for k in (0, 1)
] + [
    Genome(d_H_bar=1.0, neg_w_min=0.003, w_max=1.0, d_s=0.003),
    Genome(d_H_bar=1.0, neg_w_min=1.0, w_max=1.0, d_s=3.0),
    Genome(d_H_bar=0.03, neg_w_min=0.003, w_max=1.0, d_s=0.003),
]


def assert_matches_scalar(cfgs, record, start=None):
    """Every config's lockstep result equals its own scalar replay; with
    ``start``, every synapse starts at weight ``start * w_max``, else at 0."""
    weights = [0.0 if start is None else start * cfg.w_max for cfg in cfgs]
    resources = None if start is None else np.array(
        [[resource_for_weight(w, cfg)] * record.n_channels for cfg, w in zip(cfgs, weights)])
    runs = replay_population(cfgs, record, resources=resources)
    assert len(runs) == len(cfgs)
    for cfg, w, run in zip(cfgs, weights, runs):
        det = Detector(record.n_channels, cfg, initial_weight=w)
        fires = replay(det, record)
        assert run.fires == fires
        assert run.resources.tobytes() == det.resource_array().tobytes()
        assert run.stability.hex() == det.stability.hex()
        assert run.fire_count == det.fire_count
        assert run.tss_count == det.tss_count
    return runs


def random_genomes(seed, n):
    rng = np.random.default_rng(seed)
    return [sample_genome(rng) for _ in range(n)]


# -- hypothesis: small random records ----------------------------------------

gene = {
    name: st.one_of(st.sampled_from(GENE_RANGES[name]), st.floats(*GENE_RANGES[name]))
    for name in GENE_NAMES
}
genomes = st.builds(Genome, **gene)


@st.composite
def small_records(draw):
    n_channels = draw(st.integers(1, 12))
    n_steps = draw(st.integers(1, 600))
    steps = draw(st.lists(st.integers(0, n_steps - 1), max_size=200, unique=True))
    frames = [
        (t, draw(st.lists(st.integers(0, n_channels - 1), min_size=1, max_size=8)))
        for t in sorted(steps)
    ]
    # rewards land on spike steps as well as on steps of their own
    pool = st.one_of(st.sampled_from(sorted(steps)), st.integers(0, n_steps - 1)) \
        if steps else st.integers(0, n_steps - 1)
    rewards = draw(st.lists(pool, max_size=40, unique=True))
    return EpisodeRecord.build(
        step_ms=1, n_channels=n_channels, seed=0, n_steps=n_steps,
        frames=frames, reward_steps=rewards,
    )


@settings(max_examples=150, deadline=None)
@given(
    record=small_records(),
    population=st.lists(genomes, min_size=1, max_size=6),
    T_P=st.integers(1, 40),
    H=st.sampled_from([1.0, 0.25, 0.0]),
)
def test_random_records_match_scalar(record, population, T_P, H):
    cfgs = [
        PlasticityConfig(d_bar=g.d_H_bar, w_min=-g.neg_w_min, w_max=g.w_max,
                         d_s=g.d_s, T_P=T_P, H=H)
        for g in population
    ]
    assert_matches_scalar(cfgs, record)


# -- fixed records ------------------------------------------------------------

def test_ga_search_shaped_record_matches_scalar():
    rec = generate(SyntheticConfig(n_channels=30, noise_rate=0.008,
                                   n_steps=60_000, seed=42))
    cfgs = [g.to_config() for g in CORNERS + random_genomes(0, 10)]
    runs = assert_matches_scalar(cfgs, rec)
    assert sum(run.fire_count for run in runs) > 0
    assert any(run.tss_count > 1 for run in runs)


@pytest.mark.parametrize("clock", ["shared", "bernoulli"])
def test_pong_record_matches_scalar(clock):
    rec = record_pong_episode(30, 3, clock_mode=clock)
    cfgs = [g.to_config() for g in CORNERS + random_genomes(1, 5)]
    runs = assert_matches_scalar(cfgs, rec)
    assert sum(run.fire_count for run in runs) > 0


def stability_crossings(cfg, record, initial_weight):
    """(event, direction) of each time the scalar detector's stability
    changes sign across zero (s > 0 against s <= 0), at a reward step or
    at a TSS onset."""
    det = Detector(record.n_channels, cfg, initial_weight=initial_weight)
    tick = det.tick_sparse
    seen = set()

    def traced(active, dopamine=False):
        before, onsets = det.stability, det.tss_count
        fired = tick(active, dopamine)
        if (before > 0.0) != (det.stability > 0.0):
            event = "reward" if dopamine else "onset" if det.tss_count > onsets else "?"
            seen.add((event, "up" if det.stability > 0.0 else "down"))
        return fired

    det.tick_sparse = traced
    replay(det, record)
    return seen


def test_stability_crossing_zero_both_ways_matches_scalar():
    # H = 0 and weights that start at 0.9 w_max: every spike frame fires.
    # In each 110-step block, with T_P = 10:
    # an onset at 0 and a reward at 10 (+2 d_s), an onset at 30 (-d_s), a
    # reward at 40 (+2 d_s), and an onset at 60 (-d_s) whose TSS runs on
    # to a reward at 100, 40 steps after it (-d_s). Stability thus crosses
    # zero upward at rewards and downward at onsets and at rewards, so
    # rates come both from d_bar (s <= 0) and from effective_rates (s > 0)
    frames, rewards = [], []
    for base in range(0, 600, 110):
        frames += [(base + dt, [dt % 3]) for dt in (0, 30, 60, 68, 76, 84, 92)]
        rewards += [base + dt for dt in (10, 40, 100)]
    rec = EpisodeRecord.build(step_ms=1, n_channels=3, seed=0, n_steps=700,
                              frames=frames, reward_steps=rewards)
    cfgs = [
        PlasticityConfig(d_bar=g.d_H_bar, w_min=-min(g.neg_w_min, 0.05), w_max=g.w_max,
                         d_s=g.d_s, T_P=10, H=0.0)
        for g in CORNERS + random_genomes(2, 4)
    ]
    for cfg in cfgs:
        assert stability_crossings(cfg, rec, 0.9 * cfg.w_max) == {
            ("reward", "up"), ("onset", "down"), ("reward", "down")}
    assert_matches_scalar(cfgs, rec, start=0.9)


@pytest.mark.parametrize("freeze_step", [None, 0, 20_000, 25_000])
def test_report_windows_and_freeze_match_scalar_per_genome(freeze_step):
    rec = generate(SyntheticConfig(n_channels=30, noise_rate=0.008,
                                   n_steps=60_000, seed=42))
    cfgs = [g.to_config() for g in CORNERS + random_genomes(3, 5)]
    runs = replay_population(cfgs, rec, window_steps=5_000, freeze_step=freeze_step)
    for cfg, run in zip(cfgs, runs):
        det = Detector(rec.n_channels, cfg)
        det.frozen = freeze_step == 0
        fires, rows = train_scalar(rec, det, window_steps=5_000,
                                   freeze_at=freeze_step or None)
        assert run.fires == fires
        assert run.window_fires.tolist() == [round(r.fire_rate_hz * 5) for r in rows]
        assert run.window_stability.tolist() == [r.stability for r in rows]
        assert run.window_abs_dw.tolist() == [r.abs_weight_change for r in rows]
        assert run.total_abs_dw.hex() == det.total_abs_dw.hex()
        assert run.resources.tolist() == det.resources
        assert list(map(tuple, run.tss_spans().tolist())) == det.tss_spans
        assert np.flatnonzero(run.depressed).tolist() == sorted(det.depressed)
        assert run.last_presyn.tolist() == det.last_presyn
    if freeze_step != 0:  # guard: a zero-weight detector frozen from the start is silent
        assert sum(run.fire_count for run in runs) > 0


def test_empty_population():
    rec = generate(SyntheticConfig(n_steps=5_000, seed=0))
    assert replay_population([], rec) == []


@pytest.mark.parametrize(
    "other",
    [
        PlasticityConfig(d_bar=0.1, w_min=-0.1, w_max=0.5, d_s=0.2, T_P=50),
        PlasticityConfig(d_bar=0.1, w_min=-0.1, w_max=0.5, d_s=0.2, H=0.5),
    ],
)
def test_mixed_T_P_or_H_rejected(other):
    rec = generate(SyntheticConfig(n_steps=5_000, seed=0))
    base = PlasticityConfig(d_bar=0.1, w_min=-0.1, w_max=0.5, d_s=0.2)
    with pytest.raises(ValueError, match="T_P and H"):
        replay_population([base, other], rec)


@pytest.mark.parametrize("rewards, message", [
    pytest.param([4, 4], "record event at step 4 is out of order or past the end",
                 id="rewards0"),
    pytest.param([20], "bad record: event at step 20 >= n_steps 20", id="rewards1"),
])
def test_events_out_of_order_or_past_the_end_rejected(rewards, message):
    # the record is refused when it is made, before replay_population runs
    with pytest.raises(ValueError, match=message):
        replay_population([CORNERS[0].to_config()], EpisodeRecord.build(
            step_ms=1, n_channels=3, seed=0, n_steps=20,
            frames=[(2, [0])], reward_steps=rewards,
        ))


# -- the genetic search through a scalar reference ----------------------------

def scalar_evaluate(genome, record, cfg):
    window_steps = cfg.eval_window_s * 1000 // record.step_ms
    det = Detector(record.n_channels, genome.to_config(cfg.T_P))
    fires = replay(det, record)
    window = (record.n_steps - window_steps, record.n_steps)
    return score_run(fires, record.reward_steps.tolist(), cfg.T_P, window)


def reference_run_ga(cfg, record):
    """run_ga's loop with one scalar replay per genome and no caching."""
    rng = np.random.default_rng(cfg.seed)
    population = [sample_genome(rng) for _ in range(cfg.population_size)]
    history = []
    best_fitness, best_genome, stall = -math.inf, None, 0
    while True:
        fitnesses = [scalar_evaluate(g, record, cfg) for g in population]
        gen_best = max(range(len(population)), key=lambda i: (fitnesses[i], -i))
        history.append((len(history), fitnesses[gen_best],
                        float(np.mean(fitnesses)), population[gen_best]))
        if fitnesses[gen_best] > best_fitness:
            best_fitness, best_genome, stall = fitnesses[gen_best], population[gen_best], 0
        else:
            stall += 1
        if stall >= cfg.stagnation_generations:
            break
        if cfg.max_generations and len(history) >= cfg.max_generations:
            break
        population = evolve(population, fitnesses, rng, cfg)
    return best_genome, history


@pytest.fixture(scope="module")
def ga_record():
    return generate(SyntheticConfig(n_channels=16, noise_rate=0.01,
                                    n_steps=20_000, seed=3))


def test_run_ga_matches_scalar_reference(ga_record):
    cfg = GaConfig(population_size=10, eval_window_s=10, seed=7,
                   max_generations=4, stagnation_generations=4)
    best, history = run_ga(cfg, ga_record)
    ref_best, ref_history = reference_run_ga(cfg, ga_record)
    assert best == ref_best
    assert [(s.generation, s.best_fitness, s.mean_fitness, s.best_genome)
            for s in history] == ref_history


def test_run_ga_scores_each_distinct_genome_once(ga_record, monkeypatch):
    scored = []

    def counting_score_runs(fires, runs, n_runs, *args):
        scored.extend(range(n_runs))
        return score_runs(fires, runs, n_runs, *args)

    monkeypatch.setattr(ga_module, "score_runs", counting_score_runs)
    seen = set()
    real_evolve = ga_module.evolve

    def recording_evolve(population, *args):
        seen.update(population)
        nxt = real_evolve(population, *args)
        seen.update(nxt)
        return nxt

    monkeypatch.setattr(ga_module, "evolve", recording_evolve)
    cfg = GaConfig(population_size=10, eval_window_s=10, seed=7,
                   max_generations=4, stagnation_generations=4)
    run_ga(cfg, ga_record)
    assert len(scored) == len(seen) < 10 * 4


def test_evaluate_is_a_population_of_one(ga_record):
    cfg = GaConfig(eval_window_s=10)
    for genome in CORNERS:
        assert evaluate(genome, ga_record, cfg) == scalar_evaluate(genome, ga_record, cfg)
