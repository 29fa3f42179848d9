"""Genetic search over the four free plasticity parameters.

Fitness is the R score of a detector trained by replaying a fixed
pre-recorded episode, measured over the trailing evaluation window.
Evaluation is a pure function of (genome, record), so results do not
depend on evaluation order: a generation is scored in one lockstep pass
over the record (:mod:`causalneuron.population`), and a genome already
scored in the same run is not replayed again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .metrics import score_runs
from .metrics import score_run  # noqa: F401  kept: perfbench/tracing.py patches ga.score_run
from .plasticity import PlasticityConfig
from .population import replay_population
from .records import EpisodeRecord
from .runner import replay  # noqa: F401  kept: perfbench/tracing.py patches ga.replay

# Search ranges (log-uniform sampling).
GENE_RANGES: dict[str, tuple[float, float]] = {
    "d_H_bar": (0.03, 1.0),
    "neg_w_min": (0.003, 1.0),
    "w_max": (0.03, 1.0),
    "d_s": (0.003, 3.0),
}
GENE_NAMES = tuple(GENE_RANGES)


@dataclass(frozen=True)
class Genome:
    """Candidate parameter vector; w_min is stored negated (positive gene)."""

    d_H_bar: float
    neg_w_min: float
    w_max: float
    d_s: float

    def to_config(self, T_P: int = PlasticityConfig.T_P) -> PlasticityConfig:
        return PlasticityConfig(
            d_bar=self.d_H_bar,
            w_min=-self.neg_w_min,
            w_max=self.w_max,
            d_s=self.d_s,
            T_P=T_P,
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.d_H_bar, self.neg_w_min, self.w_max, self.d_s)


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 300
    elitism_fraction: float = 0.1
    mutation_prob: float = 0.5      # per chromosome; one gene resampled
    stagnation_generations: int = 3
    eval_window_s: int = 600        # also the default of train/eval --window
    T_P: int = PlasticityConfig.T_P
    seed: int = 0
    max_generations: int = 0        # 0: no cap, run until stagnation

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 < self.elitism_fraction < 1.0:
            raise ValueError("elitism_fraction must be in (0, 1)")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must be in [0, 1]")
        if self.stagnation_generations < 1:
            raise ValueError("stagnation_generations must be >= 1")
        if self.eval_window_s < 1:
            raise ValueError("eval_window_s must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_generations < 0:
            raise ValueError("max_generations must be >= 0 (0: no cap)")


def trailing_window(record: EpisodeRecord, window_s: int) -> tuple[int, int]:
    """The record's last ``window_s`` seconds as a [start, end) step window; the
    start is negative for a shorter record, which ``score_run`` then scores whole."""
    return record.n_steps - window_s * 1000 // record.step_ms, record.n_steps


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def sample_genome(rng: np.random.Generator) -> Genome:
    return Genome(**{name: _log_uniform(rng, *GENE_RANGES[name]) for name in GENE_NAMES})


def evaluate_population(
    genomes: Sequence[Genome],
    record: EpisodeRecord,
    ga_cfg: GaConfig = GaConfig(),
) -> list[float]:
    """Train a fresh zero-weight detector per genome on the record and
    score each one's tail window."""
    start, end = window = trailing_window(record, ga_cfg.eval_window_s)
    if start < 0:
        raise ValueError(
            f"record ({record.n_steps} steps) shorter than the "
            f"evaluation window ({end - start} steps)"
        )
    runs = replay_population([g.to_config(ga_cfg.T_P) for g in genomes], record)
    # every genome's fires in one array, tagged with the genome's index
    fire_steps = np.concatenate([np.zeros(0, np.int64), *(run.fire_steps for run in runs)])
    genome = np.repeat(np.arange(len(runs)), [run.fire_count for run in runs])
    return score_runs(fire_steps, genome, len(runs), record.reward_steps, ga_cfg.T_P, window)


def evaluate(genome: Genome, record: EpisodeRecord, ga_cfg: GaConfig = GaConfig()) -> float:
    """Train a fresh zero-weight detector on the record, score the tail window."""
    return evaluate_population([genome], record, ga_cfg)[0]


def _tournament(
    rng: np.random.Generator, fitnesses: Sequence[float], k: int = 3
) -> int:
    picks = rng.integers(len(fitnesses), size=k)
    best = picks[0]
    for idx in picks[1:]:
        if fitnesses[idx] > fitnesses[best]:
            best = idx
    return int(best)


def evolve(
    population: Sequence[Genome],
    fitnesses: Sequence[float],
    rng: np.random.Generator,
    cfg: GaConfig,
) -> list[Genome]:
    """One generation: elites copied, rest bred by tournament-3 selection,
    uniform per-gene crossover and single-gene log-uniform mutation."""
    if len(population) != len(fitnesses):
        raise ValueError("population and fitnesses must have equal length")
    n = len(population)
    order = sorted(range(n), key=lambda i: (-fitnesses[i], i))
    n_elite = math.ceil(cfg.elitism_fraction * n)
    nxt = [population[i] for i in order[:n_elite]]
    while len(nxt) < n:
        pa = population[_tournament(rng, fitnesses)]
        pb = population[_tournament(rng, fitnesses)]
        genes = {
            name: getattr(pa if rng.random() < 0.5 else pb, name)
            for name in GENE_NAMES
        }
        if rng.random() < cfg.mutation_prob:
            name = GENE_NAMES[rng.integers(len(GENE_NAMES))]
            genes[name] = _log_uniform(rng, *GENE_RANGES[name])
        nxt.append(Genome(**genes))
    return nxt


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_genome: Genome


def run_ga(
    cfg: GaConfig, record: EpisodeRecord
) -> tuple[Genome, list[GenerationStats]]:
    """Evolve until the best-ever fitness stalls for the configured number
    of successive generations, or for max_generations generations if that
    is not 0. Returns the best-ever genome and the per-generation history."""
    rng = np.random.default_rng(cfg.seed)
    population = [sample_genome(rng) for _ in range(cfg.population_size)]
    scores: dict[Genome, float] = {}  # every genome scored so far this run
    history: list[GenerationStats] = []
    best_genome: Optional[Genome] = None
    best_fitness = -math.inf
    stall = 0
    generation = 0
    while True:
        unseen = list(dict.fromkeys(g for g in population if g not in scores))
        scores.update(zip(unseen, evaluate_population(unseen, record, cfg)))
        fitnesses = [scores[g] for g in population]
        gen_best = max(range(len(population)), key=lambda i: (fitnesses[i], -i))
        history.append(
            GenerationStats(
                generation=generation,
                best_fitness=fitnesses[gen_best],
                mean_fitness=float(np.mean(fitnesses)),
                best_genome=population[gen_best],
            )
        )
        if fitnesses[gen_best] > best_fitness:
            best_fitness = fitnesses[gen_best]
            best_genome = population[gen_best]
            stall = 0
        else:
            stall += 1
        generation += 1
        if stall >= cfg.stagnation_generations:
            break
        if generation == cfg.max_generations:
            break
        population = evolve(population, fitnesses, rng, cfg)
    return best_genome, history
