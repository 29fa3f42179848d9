"""End-to-end episode recording: environment + racket policy + encoder."""

from __future__ import annotations

import math
from array import array

import numpy as np

from . import pong
from .encoder import N_CHANNELS, EncoderLayout, SpikeClock, encode
from .records import EpisodeRecord


def record_pong_episode(
    duration_s: float,
    seed: int,
    clock_mode: str = "shared",
) -> EpisodeRecord:
    """Run the seeded pong world for duration_s and log the spike stream.

    The world advances in ``pong.trajectory``'s free-flight blocks, and
    each step's pre-step state is encoded. Reward events double as the
    dopamine channel; punishment events are logged but drive no
    plasticity. The master seed deterministically derives independent
    streams for the ball physics, the racket policy and (if selected) the
    Bernoulli spike clock.
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
    layout = EncoderLayout()
    seeds = np.random.SeedSequence(seed).spawn(3)
    env_rng = np.random.default_rng(seeds[0])
    policy = pong.ChaoticPolicy(np.random.default_rng(seeds[1]))
    clock = SpikeClock(
        clock_mode,
        rng=np.random.default_rng(seeds[2]) if clock_mode == "bernoulli" else None,
    )

    spike_steps = array("q")
    indptr = array("q", [0])
    channels = array("q")
    rewards = []
    punishments = []
    reward = pong.EventKind.REWARD
    # One reused state carries each step's pre-step positions to encode.
    # encode is looked up as this module's global on every step, so that a
    # tracer patching the module attribute still sees one call per step.
    state = pong.WorldState(0.0, 0.0, 0.0, 0.0, 0.0)
    blocks = pong.trajectory(pong.initial_state(env_rng), policy, n_steps, env_rng)
    for start, positions, event in blocks:
        state.ball_vx = start.ball_vx
        state.ball_vy = start.ball_vy
        t = start.step
        for x, y, ry in zip(*positions.tolist()):
            state.ball_x = x
            state.ball_y = y
            state.racket_y = ry
            state.step = t
            spiking = encode(state, layout, clock)
            if spiking:
                spike_steps.append(t)
                channels.extend(spiking)
                indptr.append(len(channels))
            t += 1
        if event is not None:
            if event.kind is reward:
                rewards.append(event.step)
            else:
                punishments.append(event.step)

    return EpisodeRecord(
        step_ms=1,
        n_channels=N_CHANNELS,
        seed=seed,
        n_steps=n_steps,
        spike_steps=np.frombuffer(spike_steps, dtype=np.int64),
        indptr=np.frombuffer(indptr, dtype=np.int64),
        channels=np.frombuffer(channels, dtype=np.int64),
        reward_steps=np.asarray(rewards, dtype=np.int64),
        punishment_steps=np.asarray(punishments, dtype=np.int64),
    )
