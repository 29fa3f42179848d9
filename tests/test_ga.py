"""Genetic search: sampling distribution, evolution mechanics, reproducibility."""

import math

import numpy as np
import pytest

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
from causalneuron.synthetic import SyntheticConfig, generate

PAPER_GENOME = Genome(d_H_bar=0.056, neg_w_min=0.017, w_max=0.48, d_s=0.23)


@pytest.fixture(scope="module")
def small_record():
    return generate(SyntheticConfig(n_steps=60_000, seed=0))


class TestSampling:
    def test_within_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            g = sample_genome(rng)
            for name in GENE_NAMES:
                lo, hi = GENE_RANGES[name]
                assert lo <= getattr(g, name) <= hi

    def test_log_uniform_median(self):
        rng = np.random.default_rng(1)
        values = [sample_genome(rng).d_H_bar for _ in range(40_000)]
        expected = math.sqrt(0.03 * 1.0)  # geometric midpoint of the range
        assert abs(np.median(values) - expected) < 0.01

    def test_log_uniform_decade_mass(self):
        # equal probability mass per multiplicative decade-fraction
        rng = np.random.default_rng(2)
        values = np.array([sample_genome(rng).d_s for _ in range(40_000)])
        lo, hi = GENE_RANGES["d_s"]
        mid = math.sqrt(lo * hi)
        frac = np.mean(values < mid)
        assert abs(frac - 0.5) < 0.01


class TestGenome:
    def test_to_config_negates_w_min(self):
        cfg = PAPER_GENOME.to_config(T_P=100)
        assert cfg.w_min == -0.017
        assert cfg.w_max == 0.48
        assert cfg.d_bar == 0.056
        assert cfg.d_s == 0.23
        assert cfg.T_P == 100

    def test_as_tuple_order(self):
        assert PAPER_GENOME.as_tuple() == (0.056, 0.017, 0.48, 0.23)


class TestEvolve:
    def make_population(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        return [sample_genome(rng) for _ in range(n)]

    def test_size_preserved(self):
        pop = self.make_population()
        fits = list(np.linspace(-1, 1, len(pop)))
        nxt = evolve(pop, fits, np.random.default_rng(1), GaConfig(population_size=20))
        assert len(nxt) == len(pop)

    def test_elites_copied_unchanged(self):
        pop = self.make_population()
        fits = list(np.linspace(-1, 1, len(pop)))
        cfg = GaConfig(population_size=20, elitism_fraction=0.1)
        nxt = evolve(pop, fits, np.random.default_rng(2), cfg)
        n_elite = math.ceil(0.1 * len(pop))
        order = sorted(range(len(pop)), key=lambda i: -fits[i])
        assert nxt[:n_elite] == [pop[i] for i in order[:n_elite]]

    def test_children_genes_from_parents_or_range(self):
        pop = self.make_population()
        fits = [0.0] * len(pop)
        cfg = GaConfig(population_size=20)
        nxt = evolve(pop, fits, np.random.default_rng(3), cfg)
        for child in nxt:
            for name in GENE_NAMES:
                value = getattr(child, name)
                lo, hi = GENE_RANGES[name]
                parents = {getattr(p, name) for p in pop}
                assert value in parents or lo <= value <= hi

    def test_length_mismatch(self):
        pop = self.make_population()
        with pytest.raises(ValueError):
            evolve(pop, [0.0], np.random.default_rng(0), GaConfig(population_size=20))


class TestEvaluate:
    def test_deterministic(self, small_record):
        cfg = GaConfig(eval_window_s=60)
        a = evaluate(PAPER_GENOME, small_record, cfg)
        b = evaluate(PAPER_GENOME, small_record, cfg)
        assert a == b

    def test_record_shorter_than_window(self, small_record):
        with pytest.raises(ValueError):
            evaluate(PAPER_GENOME, small_record, GaConfig(eval_window_s=600))

    def test_silent_genome_scores_zero(self, small_record):
        # tiny w_max: six coincident channels cannot cross threshold 1
        silent = Genome(d_H_bar=0.05, neg_w_min=0.01, w_max=0.03, d_s=0.1)
        assert evaluate(silent, small_record, GaConfig(eval_window_s=60)) == 0.0


class TestRunGa:
    def ga_cfg(self, **kwargs):
        base = dict(population_size=8, eval_window_s=60, seed=5, max_generations=4,
                    stagnation_generations=10)
        base.update(kwargs)
        return GaConfig(**base)

    def test_reproducible_history(self, small_record):
        cfg = self.ga_cfg()
        best_a, hist_a = run_ga(cfg, small_record)
        best_b, hist_b = run_ga(cfg, small_record)
        assert best_a == best_b
        assert [(s.generation, s.best_fitness, s.mean_fitness, s.best_genome)
                for s in hist_a] == [
            (s.generation, s.best_fitness, s.mean_fitness, s.best_genome)
            for s in hist_b
        ]

    def test_best_history_non_decreasing(self, small_record):
        _, hist = run_ga(self.ga_cfg(), small_record)
        bests = [s.best_fitness for s in hist]
        assert all(b >= a for a, b in zip(bests, bests[1:]))

    def test_stagnation_terminates(self, small_record):
        cfg = self.ga_cfg(stagnation_generations=1, max_generations=0)
        _, hist = run_ga(cfg, small_record)
        assert len(hist) >= 1

    def test_returns_best_ever(self, small_record):
        best, hist = run_ga(self.ga_cfg(), small_record)
        top = max(s.best_fitness for s in hist)
        cfg = GaConfig(eval_window_s=60)
        assert evaluate(best, small_record, cfg) == top


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(population_size=1),
            dict(elitism_fraction=0.0),
            dict(elitism_fraction=1.0),
            dict(mutation_prob=1.5),
            dict(stagnation_generations=0),
            dict(max_generations=-1),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            GaConfig(**kwargs)


@pytest.mark.xfail(
    reason="soft target: with the reconstructed chaotic racket the best known "
    "predictor on a pong record reaches R of about 0.24, so the original "
    "fitness level for these parameters is not attainable here",
    strict=False,
)
def test_paper_parameters_on_pong_record():
    from causalneuron.recording import record_pong_episode

    rec = record_pong_episode(700, 21)
    fitness = evaluate(PAPER_GENOME, rec, GaConfig(eval_window_s=600))
    assert fitness > 0.3
