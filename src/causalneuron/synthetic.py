"""Synthetic records with a known causal structure.

The cause channels co-activate at rare random times, ``MIN_GAP`` to
``MAX_GAP`` steps apart, and a reward follows each activation after
exactly ``lag`` steps; every other channel carries independent Bernoulli
noise. Because the generator knows the causes, these records act as a
ground-truth oracle for the causal-detection claim: a trained detector
must end up with its largest synaptic resources on the cause channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plasticity import PlasticityConfig
from .records import EpisodeRecord, check_header, check_seed

CAUSE_CHANNELS = (2, 7, 13)  # the planted causes, in rising order
MIN_GAP, MAX_GAP = 300, 1200  # steps between two cause activations, both ends possible
_NOISE_BLOCK = 65_536  # uniforms a noise channel draws per call, so memory is not O(n_steps)


@dataclass(frozen=True)
class SyntheticConfig:
    n_channels: int = 20
    lag: int = PlasticityConfig.T_P  # cause -> reward delay, steps
    n_steps: int = 300_000
    noise_rate: float = 0.001       # per-channel per-step spike probability

    def __post_init__(self):
        if self.n_channels <= CAUSE_CHANNELS[-1]:
            raise ValueError(f"n_channels must be > {CAUSE_CHANNELS[-1]}, the last cause "
                             f"channel, got {self.n_channels}")
        if not 1 <= self.lag < MIN_GAP:
            raise ValueError(f"lag must be in [1, {MIN_GAP}), below the least gap between "
                             f"causes, got {self.lag}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must be in [0, 1)")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


def generate(cfg: SyntheticConfig, seed: int) -> EpisodeRecord:
    """Build a synthetic episode record; rewards sit exactly lag after causes."""
    check_seed(seed)
    check_header(n_channels=cfg.n_channels, seed=seed, n_steps=cfg.n_steps)
    rng = np.random.default_rng(seed)

    cause_steps = []
    t = int(rng.integers(MIN_GAP, MAX_GAP + 1))
    while t + cfg.lag < cfg.n_steps:
        cause_steps.append(t)
        t += int(rng.integers(MIN_GAP, MAX_GAP + 1))

    frames: dict[int, list[int]] = {t: list(CAUSE_CHANNELS) for t in cause_steps}
    for ch in range(cfg.n_channels):
        if ch in CAUSE_CHANNELS:
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
        reward_steps=[t + cfg.lag for t in cause_steps],
        punishment_steps=(),
    )
