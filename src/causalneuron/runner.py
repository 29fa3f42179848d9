"""Replay of episode records through a detector, with windowed reporting.

Replay is event-driven: a step with no spike and no dopamine is not a
neuron step. It skips such steps, which turns a 2,000,000-step episode
into a few hundred thousand events. This equals ticking an empty frame at
every skipped step, because an empty frame's sum of 0.0 never exceeds the
threshold, 1.0 (``tests/test_runner.py`` checks it).

:func:`train_on_record` runs the lockstep kernel of the genetic search
(:mod:`~causalneuron.population`) and returns the :class:`DetectorState` it
ends in. The scalar :func:`replay`, up to any end step, is the one reference
loop: ``tests/reference.py`` trains window by window and replays populations
on it, and frozen replay on it is what :func:`frozen_fires` computes at once.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .neuron import Detector, DetectorState
from .plasticity import THRESHOLD
from .population import FrameSums, ReplayResult, replay_population, tss_spans
from .records import EpisodeRecord

REPORT_WINDOW_STEPS = 10_000  # one row of the train --report time series


def _check_channels(record: EpisodeRecord, n_synapses: int) -> None:
    if record.n_channels != n_synapses:
        raise ValueError(f"record has {record.n_channels} channels, detector has {n_synapses}")


def replay(detector: Detector, record: EpisodeRecord, *, end: Optional[int] = None) -> list[int]:
    """Replay a record from the detector's current step to ``end`` (default ``n_steps``).

    Returns the fire steps and leaves the detector at step ``end``, that step's
    events not yet processed. This is the one scalar walk of a record, one
    :meth:`Detector.tick_sparse` call per event step, on which every scalar
    reference is built; no command runs it. It lists only the events in
    ``[start, end)``, and checks nothing of the record (:class:`EpisodeRecord`).
    """
    _check_channels(record, detector.n)
    start, end = detector.step, record.n_steps if end is None else end
    if not start <= end <= record.n_steps:
        raise ValueError(f"replay end {end} is not between the detector's step {start} "
                         f"and the record's n_steps {record.n_steps}")
    i, i_end = np.searchsorted(record.spike_steps, (start, end)).tolist()
    j, j_end = np.searchsorted(record.reward_steps, (start, end)).tolist()
    spike_steps = record.spike_steps[i:i_end].tolist()
    rewards = record.reward_steps[j:j_end].tolist()
    offsets = record.indptr[i:i_end + 1]
    chans = record.channels[offsets[0]:offsets[-1]].tolist()
    indptr = (offsets - offsets[0]).tolist()

    fires: list[int] = []
    tick = detector.tick_sparse
    i = j = 0
    while True:
        # the events lie below end, so t reaches end only after the last
        t_spk = spike_steps[i] if i < len(spike_steps) else end
        t_rew = rewards[j] if j < len(rewards) else end
        t = t_spk if t_spk <= t_rew else t_rew
        if t == end:
            break
        detector.advance_to(t)
        active = ()
        if t_spk == t:
            active = chans[indptr[i]:indptr[i + 1]]
            i += 1
        dopamine = t_rew == t
        if dopamine:
            j += 1
        if tick(active, dopamine):
            fires.append(t)
    detector.advance_to(end)
    return fires


def frozen_fires(record: EpisodeRecord, weights: np.ndarray) -> list[int]:
    """The steps at which a frozen detector with these weights fires.

    Equal to the scalar :func:`replay` of a fresh frozen detector with
    these weights. A frozen detector fires at an event step exactly when
    the weights of that step's channels, added in the record's channel
    order, exceed the threshold (:class:`FrameSums`). A reward-only step
    is an empty frame, which never fires.
    """
    weights = np.asarray(weights, dtype=np.float64)
    _check_channels(record, len(weights))
    steps = record.spike_steps
    total = FrameSums(record.indptr, record.channels)(weights, 0, len(steps))
    return steps[total > THRESHOLD].tolist()


def train_on_record(record: EpisodeRecord, detector: Detector, *,
                    window_steps: int = REPORT_WINDOW_STEPS, freeze_at: Optional[int] = None,
                    ) -> tuple[ReplayResult, DetectorState]:
    """Train from an unstepped detector, which is left as it is, on the whole record.

    Training starts from its resources (and its frozen flag), and the record
    is replayed by the lockstep kernel with its one config. Returns the
    kernel's run: the fires and, per window of ``window_steps``, the fires,
    the end stability and the |weight change|; and the state the scalar
    :func:`replay` would leave the detector in. If ``freeze_at`` (a step) is
    given, plasticity freezes at the first window boundary at or after it,
    once that window is reported; ``freeze_at = 0`` still trains the first window.
    """
    _check_channels(record, detector.n)
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
    return run, DetectorState(
        detector.cfg, resources=run.resources, stability=run.stability, step=record.n_steps,
        last_presyn=run.last_presyn, tss_spans=tss_spans(run.fire_steps, detector.cfg.T_P),
        depressed=np.flatnonzero(run.depressed), frozen=freeze_step is not None,
        fire_count=len(run.fire_steps), total_abs_dw=run.total_abs_dw,
    )
