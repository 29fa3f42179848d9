"""Lockstep plastic replay of one or many configs through one record.

This is the one plastic replay path: ``train`` runs it with the
detector's one config (:func:`~causalneuron.runner.train_on_record`), the
genetic search with one config per genome. The record is walked once
while P detectors advance side by side: the per-synapse state becomes
(P, N) arrays and each step costs a handful of numpy operations instead
of P scalar ticks.

The kernel reproduces the scalar :class:`~causalneuron.neuron.Detector`
driven by :func:`~causalneuron.runner.replay`, the readable reference,
bit for bit (``tests/test_population.py``, ``tests/test_runner.py``).
Exactness rests on doing every floating-point operation in the scalar
path's order:

* the membrane sum adds the active channels' weights one column at a
  time in the record's channel order (never a reduction, whose summation
  order numpy does not fix);
* a weight is recomputed with :func:`weight_of`'s expression from its
  own resource, so any subset of entries may be refreshed: a fire
  rewrites the fired genomes' rows whole, with the rate subtracted only
  from the resources it depresses;
* the gated rate is refreshed only for genomes whose stability changed
  in the step. At stability s <= 0 it is ``d_bar``, which is exactly
  what :func:`effective_rates` returns there (``d_bar * 1.0``); at
  s > 0 it comes from the scalar :func:`effective_rates` itself, never
  from ``np.power`` or ``np.exp2``, which differ from ``2.0 ** -s`` in
  the last bit on some hosts;
* stability takes the dopamine adjustment first, then the onset decrement;
* the total |weight change| adds a step's depressions, then its
  potentiations, in channel order, by one accumulate per row.

Python code runs only at breakpoints and at candidate frames. The
breakpoints are the reward steps, plus any report-window boundaries and
the step plasticity freezes at. Between two rewards no weight rises, so
a frame whose channel ceilings (the largest weight of each channel over
the genomes), added in the membrane sum's order, stay at or below the
threshold cannot fire in any genome: rounding is monotone, so that bound is at or
above every genome's sum. The bounds of all frames up to the next
breakpoint are computed at once, each added in channel order by
``np.add.at`` (:func:`frame_sums`).

The presynaptic spike times are the same for every genome, so
``last_presyn`` is one shared (N,) vector, brought up to date only where
a fire or a reward reads it. The pending set of an open TSS is exactly
``last_presyn > last_post``, derived when a genome fires, and a fire more
than ``T_P`` steps after the genome's last one is an onset, so TSS
closure needs no step and the spans are read off a fire train
(:func:`tss_spans`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .plasticity import THRESHOLD, PlasticityConfig, effective_rates, resource_for_weight
from .records import _BLOCK_FRAMES, EpisodeRecord

_NEVER = np.iinfo(np.int64).min // 2  # last_post of a genome that never fired
_NONE = np.zeros(0, dtype=np.intp)


def frame_sums(values: np.ndarray, indptr: np.ndarray, channels: np.ndarray,
               lo: int, hi: int) -> np.ndarray:
    """Per spike frame lo to hi - 1, the sum of per-channel values over its channels.

    Frame k holds ``channels[indptr[k]:indptr[k + 1]]``. ``np.add.at`` adds
    one entry at a time in index order, so a sum adds a frame's values in
    the record's channel order, as a scalar loop does; never by a reduction,
    whose order numpy does not fix. Frames go one block at a time, so the
    per-entry temporaries stay a fixed size.
    """
    total = np.zeros(hi - lo)
    for k0 in range(lo, hi, _BLOCK_FRAMES):
        k1 = min(k0 + _BLOCK_FRAMES, hi)
        ptr = indptr[k0:k1 + 1]
        frame = np.repeat(np.arange(k0 - lo, k1 - lo), np.diff(ptr))
        np.add.at(total, frame, values.take(channels[ptr[0]:ptr[-1]]))
    return total


@dataclass
class ReplayResult:
    """What one config's detector ends with after replaying the record."""

    fire_steps: np.ndarray  # int64, ascending
    resources: np.ndarray
    stability: float
    depressed: np.ndarray  # bool per synapse: depressed in the latest TSS
    last_presyn: np.ndarray  # int64 per synapse, shared by all configs; -1: never
    # with report windows: total |weight change|; per window: fires, end stability, |dw|
    total_abs_dw: Optional[float] = None
    window_fires: Optional[np.ndarray] = None
    window_stability: Optional[np.ndarray] = None
    window_abs_dw: Optional[np.ndarray] = None


def tss_spans(fire_steps: np.ndarray, T_P: int) -> np.ndarray:
    """Each TSS of a fire train (int64, ascending) as a row (onset, last post spike).

    A fire more than ``T_P`` steps after the previous one starts a TSS;
    an empty train has no TSS, shape (0, 2).
    """
    # the first fire is an onset
    onset = np.diff(fire_steps, prepend=fire_steps[:1] - T_P - 1) > T_P
    # a TSS's last fire comes just before the next onset; np.roll wraps the
    # last fire round to onset[0], which is True
    return np.stack((fire_steps[onset], fire_steps[np.roll(onset, -1)]), axis=1)


def _accumulate(total: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """total + each row's deltas, added one at a time left to right (deltas is overwritten)."""
    deltas[:, 0] += total
    return deltas.cumsum(axis=1)[:, -1]


# an extreme config may overflow a resource to inf and a weight to nan, as
# the scalar detector's float arithmetic does without a word
@np.errstate(over="ignore", invalid="ignore")
def replay_population(
    cfgs: Sequence[PlasticityConfig],
    record: EpisodeRecord,
    *,
    resources: Optional[np.ndarray] = None,
    window_steps: Optional[int] = None,
    freeze_step: Optional[int] = None,
) -> list[ReplayResult]:
    """Train one detector per config on the record, from step 0.

    Equivalent to ``replay(Detector(record.n_channels, cfg), record)`` for
    each config. All configs must share ``T_P``. ``resources``,
    (N,) or (P, N), are the starting resources (default: those of weight
    0). With ``window_steps``, the state at every multiple of it up to
    ``n_steps`` is reported, before that step is processed; from
    ``freeze_step`` (0 to ``n_steps``) on, the rates are 0 (plasticity is
    frozen) while stability keeps moving. The record's steps rise strictly
    below ``n_steps``, as every :class:`EpisodeRecord`'s do.
    """
    if not cfgs:
        return []
    T_P = cfgs[0].T_P
    if any(c.T_P != T_P for c in cfgs):
        raise ValueError("all configs of a population must share T_P")
    if window_steps is not None and window_steps < 1:
        raise ValueError("window_steps must be >= 1")
    P, N = len(cfgs), record.n_channels
    if N < 1:
        raise ValueError("need at least one synapse")
    n_steps = record.n_steps
    spike_steps, indptr, channels = record.spike_steps, record.indptr, record.channels
    frame_size = np.diff(indptr)
    n_frames = len(spike_steps)

    d_bar = np.array([c.d_bar for c in cfgs])
    w_min = np.array([c.w_min for c in cfgs])
    span = np.array([c.w_max - c.w_min for c in cfgs])
    d_s = np.array([c.d_s for c in cfgs])
    # w_min and span per synapse, so the weights of fired rows need no broadcast
    w_min_row = np.repeat(w_min[:, None], N, axis=1)
    span_row = np.repeat(span[:, None], N, axis=1)

    def weights(res: np.ndarray, w_min: np.ndarray, span: np.ndarray) -> np.ndarray:
        """weight_of, elementwise, with the bounds broadcast against res.

        A resource of -0.0 gives w_min, as 0.0 does.
        """
        w = np.maximum(res, 0.0)
        return w_min + span * w / (span + w)

    if resources is None:
        resources = np.array([resource_for_weight(0.0, c) for c in cfgs])[:, None]
    R = np.array(np.broadcast_to(resources, (P, N)), dtype=np.float64)
    W = weights(R, w_min_row, span_row)
    depressed = np.zeros((P, N), dtype=bool)
    stability = np.zeros(P)
    rate = d_bar.copy()  # effective_rates at stability 0
    # last post spike; a TSS is open at step t while last_post >= t - T_P
    last_post = np.full(P, _NEVER, dtype=np.int64)
    last_onset = np.full(P, -1, dtype=np.int64)  # -1: no TSS yet
    lp = np.full(N, -1, dtype=np.int64)  # last presynaptic spike, shared by all genomes
    folded = 0  # spike frames whose steps are in lp
    fire_log: list[tuple[int, np.ndarray]] = []
    # the running total |weight change|, kept only when windows are reported
    abs_dw = None if window_steps is None else np.zeros(P)
    everyone = np.arange(P)

    def fold_presyn(frame_end: int) -> None:
        """Bring lp up to date with the spike frames before frame_end."""
        nonlocal folded
        if frame_end > folded:
            steps = spike_steps[folded:frame_end].repeat(frame_size[folded:frame_end])
            np.maximum.at(lp, channels[indptr[folded]:indptr[frame_end]], steps)
            folded = frame_end

    def firing(k: int) -> np.ndarray:
        """The genomes whose membrane sum over frame k exceeds the threshold."""
        first, *rest = channels[indptr[k]:indptr[k + 1]].tolist()
        total = W[:, first]  # 0.0 + w is w: a weight is never -0.0
        for c in rest:
            total = total + W[:, c]
        return (total > THRESHOLD).nonzero()[0]

    def fire(t: int, rows: np.ndarray) -> np.ndarray:
        """Post spikes of the given genomes at step t; returns the new onsets.

        A genome whose TSS closed in silence starts a new one here, so
        closure needs no step of its own.
        """
        since = last_post[rows]
        onset = since < t - T_P
        new_onset = rows[onset]
        if new_onset.size:
            depressed[new_onset] = False
            last_onset[new_onset] = t
        fire_log.append((t, rows))
        # depress, once per TSS, what spiked since the latest post spike of
        # an open TSS, or this step's spikers at an onset. The fired rows
        # are rewritten whole; a weight is recomputed from its own resource
        since[onset] = t - 1
        held = depressed.take(rows, axis=0)
        newly = (lp > since[:, None]) & ~held
        depressed[rows] = held | newly
        res = R.take(rows, axis=0)
        np.subtract(res, rate.take(rows)[:, None], out=res, where=newly)
        R[rows] = res
        new = weights(res, w_min_row.take(rows, axis=0), span_row.take(rows, axis=0))
        if abs_dw is not None:  # an untouched weight adds 0.0, which changes no sum
            abs_dw[rows] = _accumulate(abs_dw[rows], np.abs(new - W.take(rows, axis=0)))
        W[rows] = new
        last_post[rows] = t
        return new_onset

    def refresh_rates(rows: np.ndarray) -> None:
        """effective_rates for the given genomes, from their stability.

        At s <= 0 the rate is d_bar * 1.0, which is d_bar; only a
        positive stability calls the scalar function.
        """
        rate[rows] = d_bar[rows]
        gated = rows[stability[rows] > 0.0]
        if gated.size:
            rate[gated] = [effective_rates(s, cfgs[g])
                           for g, s in zip(gated.tolist(), stability[gated].tolist())]

    def frozen_rates(rows: np.ndarray) -> None:
        """A frozen detector's rates stay 0 whatever its stability."""

    # breakpoints: the rewards, any window boundaries, the freeze step and last
    # n_steps, which is never a reward, so the loop ends there
    rewarded = set(record.reward_steps.tolist())
    extra = [n_steps] if freeze_step is None else [n_steps, freeze_step]
    if window_steps is not None:
        extra += range(window_steps, n_steps, window_steps)
    # a set, not np.union1d, whose first call in a process costs ~1.6 MB of RSS
    stops = np.array(sorted(rewarded.union(extra)), dtype=np.int64)
    boundary = n_steps + 1 if window_steps is None else window_steps
    reports = []  # per boundary: (stability, abs_dw)
    refresh = refresh_rates
    frame = 0  # first spike frame not yet processed
    for t, seg_end in zip(stops.tolist(), np.searchsorted(spike_steps, stops).tolist()):
        # spike frames before the breakpoint: only candidates can fire
        bound = frame_sums(W.max(axis=0), indptr, channels, frame, seg_end)
        for k in ((bound > THRESHOLD).nonzero()[0] + frame).tolist():
            rows = firing(k)
            if rows.size:
                fold_presyn(k + 1)
                new_onset = fire(int(spike_steps[k]), rows)
                if new_onset.size:
                    stability[new_onset] -= d_s[new_onset]
                    refresh(new_onset)
        frame = seg_end
        if t == boundary:  # the state before step t is processed
            reports.append((stability.copy(), abs_dw.copy()))
            boundary += window_steps
        if t == freeze_step:
            rate[:] = 0.0
            refresh = frozen_rates
        if t not in rewarded:
            continue

        # the reward step, with its spike frame if it has one; an empty step never fires
        has_frame = seg_end < n_frames and spike_steps[seg_end] == t
        if has_frame:
            frame = seg_end + 1
        fold_presyn(frame)
        rows = firing(seg_end) if has_frame else _NONE
        new_onset = fire(t, rows) if rows.size else _NONE
        # a zero rate adds 0.0, which leaves a resource's bits unchanged
        eligible = ((lp >= t - T_P) & (lp >= 0)).nonzero()[0]
        if eligible.size:
            res = R.take(eligible, axis=1) + rate[:, None]
            R[:, eligible] = res
            new = weights(res, w_min[:, None], span[:, None])
            if abs_dw is not None:
                abs_dw = _accumulate(abs_dw, np.abs(new - W.take(eligible, axis=1)))
            W[:, eligible] = new
        adj = np.maximum(2.0 - np.abs(t - last_onset - T_P) / T_P, -1.0)
        stability = np.where(last_onset < 0, stability - d_s, stability + d_s * adj)
        stability[new_onset] -= d_s[new_onset]
        refresh(everyone)
    fold_presyn(n_frames)

    # the fire log in genome order, each genome's fires in step order
    genome = np.concatenate([_NONE, *(rows for _, rows in fire_log)])
    steps = np.repeat(np.array([t for t, _ in fire_log], dtype=np.int64),
                      np.array([len(rows) for _, rows in fire_log], dtype=np.intp))
    order = np.argsort(genome, kind="stable")
    steps, genome = steps[order], genome[order]
    cut = np.searchsorted(genome, np.arange(P + 1))
    runs = [
        ReplayResult(steps[cut[g]:cut[g + 1]], R[g], float(stability[g]), depressed[g], lp)
        for g in range(P)
    ]
    if abs_dw is not None:
        ends = np.arange(1, len(reports) + 1) * window_steps
        at = np.array(reports).reshape(-1, 2, P)
        for g, run in enumerate(runs):
            run.total_abs_dw = float(abs_dw[g])
            run.window_fires = np.diff(np.searchsorted(run.fire_steps, ends), prepend=0)
            run.window_stability = at[:, 0, g]
            run.window_abs_dw = np.diff(at[:, 1, g], prepend=0.0)
    return runs
