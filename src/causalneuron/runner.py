"""Replay of episode records through a detector, with windowed reporting.

Replay is event-driven: a step with no spike and no dopamine is not a
neuron step. It skips such steps, which turns a 2,000,000-step episode
into a few hundred thousand events. This equals ticking an empty frame at
every skipped step, because an empty frame's sum of 0.0 never exceeds a
threshold, which is never below zero (``tests/test_runner.py`` checks it).

:func:`train_on_record` runs the lockstep kernel of the genetic search
(:mod:`~causalneuron.population`) with the detector's one config. The
scalar :func:`replay`, one :meth:`Detector.tick_sparse` call per event,
is the reference it is checked against, as is :func:`frozen_fires`,
which evaluates every step of a frozen detector at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .neuron import Detector
from .population import FrameSums, replay_population
from .records import EpisodeRecord

REPORT_WINDOW_STEPS = 10_000  # one row of the train --report time series


def replay(detector: Detector, record: EpisodeRecord) -> list[int]:
    """Replay a record from the detector's current step to the end.

    Returns the steps at which the detector fired. This scalar loop, one
    :meth:`Detector.tick_sparse` call per event step, is the reference
    the lockstep kernel is checked against; no command runs it. Like every
    replay it checks nothing of the record, whose steps rise strictly below
    ``n_steps`` from the moment it is made (:class:`EpisodeRecord`).
    """
    if record.n_channels != detector.n:
        raise ValueError(
            f"record has {record.n_channels} channels, detector has {detector.n}"
        )
    start = detector.step
    n_steps = record.n_steps
    if start > n_steps:
        raise ValueError("detector is already past the end of the record")

    spike_steps = record.spike_steps.tolist()
    indptr = record.indptr.tolist()
    chans = record.channels.tolist()
    rewards = record.reward_steps.tolist()
    i = int(np.searchsorted(record.spike_steps, start))
    j = int(np.searchsorted(record.reward_steps, start))
    n_spk, n_rew = len(spike_steps), len(rewards)

    fires: list[int] = []
    tick = detector.tick_sparse
    while True:
        # events lie below n_steps, so t reaches n_steps only after the last
        t_spk = spike_steps[i] if i < n_spk else n_steps
        t_rew = rewards[j] if j < n_rew else n_steps
        t = t_spk if t_spk <= t_rew else t_rew
        if t == n_steps:
            break
        detector.advance_to(t)
        if t_spk == t:
            active = chans[indptr[i]:indptr[i + 1]]
            i += 1
        else:
            active = ()
        dopamine = t_rew == t
        if dopamine:
            j += 1
        if tick(active, dopamine):
            fires.append(t)
    detector.advance_to(n_steps)
    return fires


def frozen_fires(record: EpisodeRecord, weights: np.ndarray, H: float) -> list[int]:
    """The steps at which a frozen detector with these weights fires.

    Equal to the scalar :func:`replay` of a fresh frozen detector with
    these weights and threshold ``H``, which no config sets below 0. A
    frozen detector fires at an event step exactly when the weights of that
    step's channels, added in the record's channel order, exceed H
    (:class:`FrameSums`). A reward-only step is an empty frame, which never
    fires.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != record.n_channels:
        raise ValueError(
            f"record has {record.n_channels} channels, detector has {len(weights)}"
        )
    steps = record.spike_steps
    total = FrameSums(record.indptr, record.channels)(weights, 0, len(steps))
    return steps[total > H].tolist()


@dataclass
class WindowRow:
    """Per-window training statistics (window length fixed by the caller)."""

    window: int
    fire_rate_hz: float
    stability: float
    abs_weight_change: float


def train_on_record(
    record: EpisodeRecord,
    detector: Detector,
    *,
    window_steps: int = REPORT_WINDOW_STEPS,
    freeze_at: Optional[int] = None,
) -> tuple[list[int], list[WindowRow]]:
    """Train the detector on the whole record, collecting fires and per-window stats.

    The detector must not have stepped; its resources (and its frozen
    flag) are where training starts. The record is replayed by the
    lockstep kernel with the detector's one config, and the detector is
    left in the state the scalar :func:`replay` would leave it in. If
    ``freeze_at`` (a step) is given, plasticity freezes at the first
    window boundary at or after it, once that window's row is recorded;
    ``freeze_at = 0`` still trains the first window.
    """
    if record.n_channels != detector.n:
        raise ValueError(
            f"record has {record.n_channels} channels, detector has {detector.n}"
        )
    if detector.step != 0:
        raise ValueError(f"training starts at step 0; the detector is at step {detector.step}")
    if window_steps < 1:
        raise ValueError("window_steps must be >= 1")
    freeze_step = 0 if detector.frozen else None
    if freeze_at is not None and not detector.frozen:  # the first boundary at or after it
        step = max(-(-freeze_at // window_steps), 1) * window_steps
        freeze_step = step if step <= record.n_steps else None
    (run,) = replay_population(
        [detector.cfg], record, resources=np.array(detector.resources),
        window_steps=window_steps, freeze_step=freeze_step,
    )
    detector.set_state(
        resources=run.resources, stability=run.stability, step=record.n_steps,
        last_presyn=run.last_presyn, tss_spans=run.tss_spans(),
        depressed=np.flatnonzero(run.depressed), frozen=freeze_step is not None,
        fire_count=run.fire_count, total_abs_dw=run.total_abs_dw,
    )
    seconds = window_steps * record.step_ms / 1000.0
    rows = [WindowRow(i, fires / seconds, stability, dw) for i, (fires, stability, dw) in
            enumerate(zip(run.window_fires.tolist(), run.window_stability.tolist(),
                          run.window_abs_dw.tolist()))]
    return run.fires, rows
