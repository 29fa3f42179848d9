"""Synthetic records with a known causal structure.

A chosen subset of channels co-activates at rare random times and a
reward follows each activation after exactly a fixed lag; every other
channel carries independent Bernoulli noise. Because the generator
knows the causes, these records act as a ground-truth oracle for the
causal-detection claim: a trained detector must end up with its largest
synaptic resources on the cause channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plasticity import PlasticityConfig
from .records import EpisodeRecord, check_header, check_seed

_NOISE_BLOCK = 65_536  # uniforms a noise channel draws per call, so memory is not O(n_steps)


@dataclass(frozen=True)
class SyntheticConfig:
    n_channels: int = 20
    cause_channels: tuple[int, ...] = (2, 7, 13)
    lag: int = PlasticityConfig.T_P  # cause -> reward delay, steps
    n_steps: int = 300_000
    noise_rate: float = 0.001       # per-channel per-step spike probability
    min_gap: int = 300              # min steps between cause activations
    max_gap: int = 1200             # max steps between cause activations

    def __post_init__(self):
        if not self.cause_channels:
            raise ValueError("need at least one cause channel")
        if any(c < 0 or c >= self.n_channels for c in self.cause_channels):
            raise ValueError("cause channel out of range")
        if len(set(self.cause_channels)) != len(self.cause_channels):
            raise ValueError("duplicate cause channels")
        if self.lag < 1:
            raise ValueError("lag must be >= 1")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must be in [0, 1)")
        if not 0 < self.min_gap <= self.max_gap:
            raise ValueError("need 0 < min_gap <= max_gap")
        if self.min_gap <= self.lag:
            raise ValueError("cause activations must be rarer than the lag")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


def generate(cfg: SyntheticConfig, seed: int) -> EpisodeRecord:
    """Build a synthetic episode record; rewards sit exactly lag after causes."""
    check_seed(seed)
    check_header(n_channels=cfg.n_channels, seed=seed, n_steps=cfg.n_steps)
    rng = np.random.default_rng(seed)

    cause_steps = []
    t = int(rng.integers(cfg.min_gap, cfg.max_gap + 1))
    while t + cfg.lag < cfg.n_steps:
        cause_steps.append(t)
        t += int(rng.integers(cfg.min_gap, cfg.max_gap + 1))
    reward_steps = [t + cfg.lag for t in cause_steps]

    causes = set(cfg.cause_channels)
    frames: dict[int, list[int]] = {}
    for t in cause_steps:
        frames[t] = sorted(causes)
    for ch in range(cfg.n_channels):
        if ch in causes:
            continue
        # drawn block by block, the uniforms are those of one dense draw
        for start in range(0, cfg.n_steps, _NOISE_BLOCK):
            uniforms = rng.random(min(_NOISE_BLOCK, cfg.n_steps - start))
            for t in (np.flatnonzero(uniforms < cfg.noise_rate) + start).tolist():
                frames.setdefault(t, []).append(ch)

    return EpisodeRecord.build(
        n_channels=cfg.n_channels,
        seed=seed,
        n_steps=cfg.n_steps,
        frames=((t, sorted(frames[t])) for t in sorted(frames)),
        reward_steps=reward_steps,
        punishment_steps=(),
    )
