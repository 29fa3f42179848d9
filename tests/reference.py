"""Reference implementations the tests check the package against.

Nothing in the package calls these. They state a definition in the most
direct way, one interval, spike or event at a time:

* :class:`IntervalSet`, :func:`target_periods`, :func:`prediction_periods`
  and :func:`r_metric` define the R score that ``metrics.score_runs``
  computes on arrays, and :func:`interval_score` puts them together for
  one fire train over an optional step window;
* :func:`brute_force_score` defines R once more, a step at a time: it marks
  every step of every period in a window;
* :func:`tss_segments` is the offline segmentation of a postsynaptic
  spike train that the online detector's tight spike sequences match;
* :func:`frozen_clone` is a trained detector with plasticity off, whose
  scalar replay ``runner.frozen_fires`` must reproduce;
* :func:`train_scalar` and :func:`replay_population_scalar` stand in for
  ``runner.train_on_record`` and ``population.replay_population``, which
  run the lockstep kernel. They walk the record only through
  ``runner.replay``, the one scalar event loop: training replays it up to
  each report-window boundary (its ``end``), the population once per
  config. Either can replace the kernel in a command
  (``tests/test_chain.py``);
* :func:`spkc_bytes` writes the ``.spkc`` format one varint at a time,
  also for values that make no valid record, which ``EpisodeRecord``
  cannot hold and so cannot encode;
* :func:`reference_decode` reads it one varint at a time, with the
  errors that ``EpisodeRecord.from_bytes`` must raise.
"""

from __future__ import annotations

import copy
import struct
from bisect import bisect_left
from typing import Iterable, Optional, Sequence

import numpy as np

from causalneuron.neuron import Detector, DetectorState
from causalneuron.plasticity import PlasticityConfig
from causalneuron.population import ReplayResult
from causalneuron.records import EpisodeRecord, _read_varint, _write_varint
from causalneuron.runner import REPORT_WINDOW_STEPS, replay


class IntervalSet:
    """Normalized set of disjoint, sorted half-open intervals [start, end)."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        merged: list[tuple[int, int]] = []
        for start, end in sorted(intervals):
            if end <= start:
                continue
            if merged and start <= merged[-1][1]:
                last_start, last_end = merged[-1]
                if end > last_end:
                    merged[-1] = (last_start, end)
            else:
                merged.append((start, end))
        self.intervals = tuple(merged)

    @property
    def total(self) -> int:
        return sum(end - start for start, end in self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        return f"IntervalSet({list(self.intervals)!r})"

    def __contains__(self, step: int) -> bool:
        iv = self.intervals
        k = bisect_left(iv, (step + 1,)) - 1
        return k >= 0 and iv[k][0] <= step < iv[k][1]

    def clip(self, start: int, end: int) -> "IntervalSet":
        """Intersection with the window [start, end)."""
        return IntervalSet(
            (max(s, start), min(e, end)) for s, e in self.intervals
        )

    def symmetric_difference_measure(self, other: "IntervalSet") -> int:
        """Total number of steps belonging to exactly one of the two sets."""
        bounds = sorted(
            {b for s, e in self.intervals for b in (s, e)}
            | {b for s, e in other.intervals for b in (s, e)}
        )
        measure = 0
        for lo, hi in zip(bounds, bounds[1:]):
            if (lo in self) != (lo in other):
                measure += hi - lo
        return measure


def target_periods(reward_steps: Sequence[int], T_P: int) -> IntervalSet:
    """Union of the T_P-long windows preceding each reward, clipped at 0."""
    return IntervalSet((max(r - T_P, 0), r) for r in reward_steps)


def prediction_periods(
    fire_steps: Sequence[int], reward_steps: Sequence[int], T_P: int
) -> IntervalSet:
    """Windows opened by detector spikes.

    Each firing at T* opens [T*, T* + T_P), truncated at the first
    reward at or after T* (a prediction is fulfilled by the event it
    predicts).
    """
    rewards = sorted(reward_steps)
    out = []
    for f in fire_steps:
        end = f + T_P
        k = bisect_left(rewards, f)
        if k < len(rewards):
            end = min(end, rewards[k])
        out.append((f, end))
    return IntervalSet(out)


def r_metric(targets: IntervalSet, predictions: IntervalSet) -> float:
    """R = 1 - |targets XOR predictions| / |targets|. Undefined without targets."""
    t_tar = targets.total
    if t_tar == 0:
        raise ValueError("R metric undefined: no target periods")
    t_err = targets.symmetric_difference_measure(predictions)
    return 1.0 - t_err / t_tar


def interval_score(fires, rewards, T_P, window):
    """R through the IntervalSet reference: filter, build, clip, r_metric."""
    if window is not None:
        lo, hi = window
        fires = [f for f in fires if lo <= f < hi]
        rewards = [r for r in rewards if lo <= r < hi]
    targets = target_periods(rewards, T_P)
    predictions = prediction_periods(fires, rewards, T_P)
    if window is not None:
        targets, predictions = targets.clip(*window), predictions.clip(*window)
    return r_metric(targets, predictions)


def brute_force_score(fires, rewards, T_P, window):
    """Definition-level R: mark every step of every period, no interval tricks."""
    lo, hi = window
    fires = [f for f in fires if lo <= f < hi]
    rewards = sorted(r for r in rewards if lo <= r < hi)

    target = [False] * (hi - lo)
    for r in rewards:
        for u in range(max(r - T_P, lo), r):
            target[u - lo] = True

    prediction = [False] * (hi - lo)
    for f in fires:
        end = f + T_P
        upcoming = [r for r in rewards if r >= f]
        if upcoming:
            end = min(end, upcoming[0])
        for u in range(f, min(end, hi)):
            prediction[u - lo] = True

    t_tar = sum(target)
    if t_tar == 0:
        raise ValueError("no targets")
    t_err = sum(a != b for a, b in zip(target, prediction))
    return 1.0 - t_err / t_tar


def tss_segments(post_spike_steps: Sequence[int], T_P: int) -> list[tuple[int, int]]:
    """Offline segmentation of a postsynaptic spike train.

    Returns maximal (first_step, last_step) runs where consecutive gaps
    are <= T_P. Serves as the oracle for the online tracker.
    """
    segs: list[tuple[int, int]] = []
    first = None
    prev = None
    for t in post_spike_steps:
        if prev is not None and t <= prev:
            raise ValueError("post spike steps must be strictly increasing")
        if first is None:
            first = t
        elif t - prev > T_P:
            segs.append((first, prev))
            first = t
        prev = t
    if first is not None:
        segs.append((first, prev))
    return segs


def frozen_clone(det: Detector) -> Detector:
    """Fresh-clock copy carrying only the learned weights, rates off.

    The step counter, TSS state and eligibility traces start clean, and
    the frozen flag disables all further resource changes.
    """
    clone = Detector(det.n, det.cfg)
    clone.resources = list(det.resources)
    clone.weights = list(det.weights)
    clone.stability = det.stability
    clone.frozen = True
    return clone


def train_scalar(record: EpisodeRecord, detector: Detector, *,
                 window_steps: int = REPORT_WINDOW_STEPS, freeze_at: Optional[int] = None,
                 ) -> tuple[ReplayResult, DetectorState]:
    """``runner.train_on_record`` on the scalar detector: ``runner.replay`` window by window.

    A copy of the detector is replayed up to each multiple of ``window_steps``
    up to ``n_steps`` (the boundary step not yet processed), where the window's
    fires, end stability and |weight change| are taken; plasticity freezes at
    the first boundary at or after ``freeze_at``, once they are taken. Then the
    rest is replayed. Returns the run and the state the copy ends in.
    """
    if window_steps < 1:
        raise ValueError("window_steps must be >= 1")
    det = copy.deepcopy(detector)
    fires, windows = [], []
    fired, dw = det.fire_count, det.total_abs_dw
    for boundary in range(window_steps, record.n_steps + 1, window_steps):
        fires += replay(det, record, end=boundary)
        windows.append((det.fire_count - fired, det.stability, det.total_abs_dw - dw))
        fired, dw = det.fire_count, det.total_abs_dw
        det.frozen |= freeze_at is not None and boundary >= freeze_at
    fires += replay(det, record)
    counts, stability, abs_dw = zip(*windows) if windows else ((), (), ())
    return scalar_run(det, fires, total_abs_dw=det.total_abs_dw,
                      window_fires=np.array(counts, dtype=np.int64),
                      window_stability=np.array(stability, dtype=np.float64),
                      window_abs_dw=np.array(abs_dw, dtype=np.float64)), det.state()


def replay_population_scalar(cfgs: Sequence[PlasticityConfig], record: EpisodeRecord
                             ) -> list[ReplayResult]:
    """``population.replay_population(cfgs, record)``: one ``runner.replay`` of a
    fresh zero-weight detector per config."""
    runs = []
    for cfg in cfgs:
        det = Detector(record.n_channels, cfg)
        runs.append(scalar_run(det, replay(det, record)))
    return runs


def scalar_run(det: Detector, fires: list[int], **report) -> ReplayResult:
    """A scalar detector's replay, with these fires (and report fields), as the
    lockstep kernel returns it."""
    return ReplayResult(np.array(fires, dtype=np.int64), np.array(det.resources), det.stability,
                        np.isin(np.arange(det.n), sorted(det.depressed)),
                        np.array(det.last_presyn), **report)


def spkc_bytes(*, step_ms: int = 1, n_channels: int, seed: int = 0, n_steps: int,
               frames: Iterable[tuple[int, Sequence[int]]] = (),
               events: Sequence[tuple[int, int]] = ()) -> bytes:
    """The ``.spkc`` bytes of these values, whether or not they are a valid record.

    ``frames`` are (step, channels) pairs, ``events`` (step, kind) pairs
    written in the order given, kind 0 a reward and 1 a punishment.
    """
    buf = bytearray(struct.pack("<4sHHHQQ", b"SPKC", 1, step_ms, n_channels, seed, n_steps))
    channels = dict(frames)
    for t in range(n_steps):
        chans = channels.get(t, [])
        _write_varint(buf, len(chans))
        for c in chans:
            _write_varint(buf, c)
    buf += struct.pack("<I", len(events))
    for t, kind in events:
        buf.append(kind)
        _write_varint(buf, t)
    return bytes(buf)


def reference_decode(raw):
    """The .spkc decoding, read one varint at a time, with its error messages.

    It checks the format; the record's own rules are checked, and their
    errors raised, when ``EpisodeRecord.build`` makes it.
    """
    if len(raw) < 26:
        raise ValueError(f"truncated record: {len(raw)}-byte file has no full header")
    magic, version, step_ms, n_channels, seed, n_steps = struct.unpack_from("<4sHHHQQ", raw)
    if magic != b"SPKC":
        raise ValueError("not an episode record (bad magic)")
    if version != 1:
        raise ValueError(f"unsupported record version {version}")
    if step_ms != 1:
        raise ValueError(f"bad record header: step_ms is {step_ms}, not 1")
    pos, frames, events = 26, [], ([], [])
    section = "spike frames"
    try:
        for step in range(n_steps):
            count, pos = _read_varint(raw, pos)
            chans = []
            for _ in range(count):
                c, pos = _read_varint(raw, pos)
                chans.append(c)
            frames.append((step, chans))
        section = "event table"
        (n_events,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        wrong, before = [], (-1, -1)  # each event's errors, in table order
        for _ in range(n_events):
            kind = raw[pos]
            if kind > 1:
                wrong.append(f"bad record: event kind {kind} at byte {pos} is neither 0 "
                             "(reward) nor 1 (punishment)")
            step, pos = _read_varint(raw, pos + 1)
            if (step, kind) <= before:
                wrong.append(f"bad record: record event at step {step} is out of order: "
                             f"(step, kind) {(step, kind)} follows {before}")
            before = step, kind
            events[kind != 0].append(step)
    except (IndexError, struct.error):
        raise ValueError(f"truncated record: {section} ends at byte {len(raw)}") from None
    if wrong:
        raise ValueError(wrong[0])
    if pos < len(raw):
        raise ValueError(f"bad record: {len(raw) - pos} bytes after the event table")
    values = [c for _, chans in frames for c in chans] + events[0] + events[1]
    if any(v >= 2**63 for v in values):
        raise ValueError("bad record: a value does not fit in 64 bits")
    return EpisodeRecord.build(
        n_channels=n_channels, seed=seed, n_steps=n_steps,
        frames=frames, reward_steps=events[0], punishment_steps=events[1],
    )
