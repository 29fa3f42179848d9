"""Replay of episode records through a detector, with windowed reporting.

Replay is event-driven: a step with no spike and no dopamine is not a
neuron step. Detector.advance_to skips such steps, which turns a
2,000,000-step episode into a few hundred thousand ticks. For H >= 0
this equals ticking an empty frame at every skipped step, because an
empty frame cannot fire; for H < 0 it would fire, and replay does not
see it (``tests/test_runner.py`` checks both).

With plasticity frozen, firing carries no state from one step to the
next, so :func:`frozen_fires` evaluates every step at once. The scalar
:func:`replay` is its reference, which ``tests/test_runner.py`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .neuron import Detector
from .records import EpisodeRecord

WindowHook = Callable[[int, Detector], None]

REPORT_WINDOW_STEPS = 10_000  # one row of the train --report time series


def replay(
    detector: Detector,
    record: EpisodeRecord,
    *,
    window_steps: Optional[int] = None,
    on_window: Optional[WindowHook] = None,
) -> list[int]:
    """Replay a record from the detector's current step to the end.

    Returns the steps at which the detector fired. If ``window_steps``
    is given, ``on_window(boundary_step, detector)`` is called with the
    detector advanced exactly to each window boundary (boundary step not
    yet processed), including the final boundary at n_steps.
    """
    if record.n_channels != detector.n:
        raise ValueError(
            f"record has {record.n_channels} channels, detector has {detector.n}"
        )
    record.check_event_order()
    start = detector.step
    n_steps = record.n_steps
    if start > n_steps:
        raise ValueError("detector is already past the end of the record")
    if window_steps is not None and window_steps < 1:
        raise ValueError("window_steps must be >= 1")

    spike_steps = record.spike_steps.tolist()
    indptr = record.indptr.tolist()
    chans = record.channels.tolist()
    rewards = record.reward_steps.tolist()
    i = int(np.searchsorted(record.spike_steps, start))
    j = int(np.searchsorted(record.reward_steps, start))
    n_spk = len(spike_steps)
    n_rew = len(rewards)
    if window_steps is None:
        boundary = n_steps + 1  # never reached
    else:
        boundary = (start // window_steps + 1) * window_steps

    fires: list[int] = []
    tick = detector.tick_sparse
    while True:
        # events lie below n_steps, so t reaches n_steps only after the last
        t_spk = spike_steps[i] if i < n_spk else n_steps
        t_rew = rewards[j] if j < n_rew else n_steps
        t = t_spk if t_spk <= t_rew else t_rew
        while boundary <= t:
            detector.advance_to(boundary)
            if on_window is not None:
                on_window(boundary, detector)
            boundary += window_steps
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


def frame_sums(indptr: np.ndarray, channels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per spike frame, the sum of ``values`` over the frame's channels.

    Frame k holds ``channels[indptr[k]:indptr[k + 1]]``; ``indptr`` may be
    a slice of a record's, since its entries index ``channels`` directly.
    The sums are built one frame position at a time over all frames, in
    the record's channel order, which is the order a scalar loop adds
    them in. A reduction is never used: numpy does not fix its order.
    """
    starts = indptr[:-1]
    counts = np.diff(indptr)
    total = np.zeros(len(starts))
    rows = np.flatnonzero(counts)
    k = 0
    while rows.size:  # the k-th channel of every frame that has one
        total[rows] += values[channels[starts[rows] + k]]
        k += 1
        rows = rows[counts[rows] > k]
    return total


def frozen_fires(record: EpisodeRecord, weights: np.ndarray, H: float) -> list[int]:
    """The steps at which a frozen detector with these weights fires.

    Equal to ``replay(det.frozen_clone(), record)`` for a detector ``det``
    with these weights and threshold ``H``. A frozen detector fires at an
    event step exactly when the weights of that step's channels, added in
    the record's channel order, exceed H (:func:`frame_sums`). A
    reward-only step is an empty frame, which fires when H < 0.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != record.n_channels:
        raise ValueError(
            f"record has {record.n_channels} channels, detector has {len(weights)}"
        )
    record.check_event_order()
    total = frame_sums(record.indptr, record.channels, weights)
    fired = record.spike_steps[total > H]
    if 0.0 > H:
        reward_only = record.reward_steps[~np.isin(record.reward_steps, record.spike_steps)]
        fired = np.union1d(fired, reward_only)
    return fired.tolist()


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
    """Replay with plasticity on, collecting fires and per-window stats.

    If ``freeze_at`` (a step) is given, plasticity freezes at the first
    window boundary at or after it, once that window's row is recorded;
    ``freeze_at = 0`` still trains the first window.
    """
    rows: list[WindowRow] = []
    state = {"fires": 0, "dw": 0.0}

    def hook(boundary: int, det: Detector) -> None:
        rows.append(
            WindowRow(
                window=boundary // window_steps - 1,
                fire_rate_hz=(det.fire_count - state["fires"])
                / (window_steps * record.step_ms / 1000.0),
                stability=det.stability,
                abs_weight_change=det.total_abs_dw - state["dw"],
            )
        )
        state["fires"] = det.fire_count
        state["dw"] = det.total_abs_dw
        if freeze_at is not None and boundary >= freeze_at:
            det.frozen = True

    fires = replay(detector, record, window_steps=window_steps, on_window=hook)
    return fires, rows
