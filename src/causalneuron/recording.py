"""End-to-end episode recording: environment + racket policy + encoder."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import pong
from .encoder import N_CHANNELS, EncoderLayout, SpikeClock, encode
from .records import EpisodeRecord


def record_pong_episode(
    duration_s: float,
    seed: int,
    layout: Optional[EncoderLayout] = None,
    clock_mode: str = "shared",
) -> EpisodeRecord:
    """Run the seeded pong world for duration_s and log the spike stream.

    Reward events double as the dopamine channel; punishment events are
    logged but drive no plasticity. The master seed deterministically
    derives independent streams for the ball physics, the racket policy
    and (if selected) the Bernoulli spike clock.
    """
    if not math.isfinite(duration_s):
        raise ValueError(f"duration must be finite, got {duration_s}")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n_steps = round(duration_s * 1000)
    if n_steps == 0:
        raise ValueError(f"duration {duration_s} s is shorter than one 1 ms step")
    if layout is None:
        layout = EncoderLayout.default()
    seeds = np.random.SeedSequence(seed).spawn(3)
    env_rng = np.random.default_rng(seeds[0])
    policy = pong.ChaoticPolicy(np.random.default_rng(seeds[1]))
    clock = SpikeClock(
        clock_mode,
        rng=np.random.default_rng(seeds[2]) if clock_mode == "bernoulli" else None,
    )

    state = pong.initial_state(env_rng)
    frames = []
    rewards = []
    punishments = []
    # Bound per call, not at import, so that a tracer patching the module
    # attribute still sees every step: one env_step and one encode per step.
    env_step = pong.env_step
    reward = pong.EventKind.REWARD
    for t in range(n_steps):
        spiking = encode(state, layout, clock)
        if spiking:
            frames.append((t, spiking))
        state, event = env_step(state, policy(t), env_rng)
        if event is not None:
            if event.kind is reward:
                rewards.append(event.step)
            else:
                punishments.append(event.step)

    return EpisodeRecord.build(
        step_ms=1,
        n_channels=N_CHANNELS,
        seed=seed,
        n_steps=n_steps,
        frames=frames,
        reward_steps=rewards,
        punishment_steps=punishments,
    )
