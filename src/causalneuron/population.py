"""Lockstep replay of many plasticity configs through one record.

The genetic search trains one fresh detector per genome on the same
record. Every genome sees the same input, so the record can be walked
once while P detectors advance side by side: the per-synapse state
becomes (P, N) arrays and each step costs a handful of numpy operations
instead of P scalar ticks.

The kernel reproduces :class:`~causalneuron.neuron.Detector` driven by
:func:`~causalneuron.runner.replay` bit for bit, which
``tests/test_population.py`` checks. Exactness rests on doing every
floating-point operation in the scalar path's order:

* the membrane sum adds the active channels' weights one column at a
  time in the record's channel order (never a reduction, whose
  summation order numpy does not fix);
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
* stability takes the dopamine adjustment first, then the onset decrement.

Python code runs only at reward steps and at candidate frames. Between
two rewards no weight rises, so a frame whose channel ceilings (the
largest weight of each channel over the genomes), added in the membrane
sum's order, stay at or below H cannot fire in any genome: rounding is
monotone, so that bound is at or above every genome's sum. The bounds of
all frames up to the next reward are computed at once with numpy
(:func:`~causalneuron.runner.frame_sums`); a fire only lowers weights,
so they stay valid until dopamine, after which they are recomputed.

Three pieces of state are kept lazily. The presynaptic spike times are
the same for every genome, so ``last_presyn`` is one shared (N,) vector,
brought up to date only where a fire or a reward reads it. The other two
follow the scalar detector's own model. The pending set of an open TSS
-- channels that spiked after its latest postsynaptic spike -- is
exactly ``last_presyn > last_post``, derived when a genome fires. A TSS
closed by silence changes nothing until the genome fires again: a fire
more than ``T_P`` steps after the last one is an onset, so each genome's
TSS count is read off the fire log once the record ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .plasticity import PlasticityConfig, effective_rates, resource_for_weight, weight_of
from .records import EpisodeRecord
from .runner import frame_sums

_NEVER = np.iinfo(np.int64).min // 2  # last_post of a genome that never fired
_NONE = np.zeros(0, dtype=np.intp)


@dataclass
class ReplayResult:
    """What one config's detector ends with after replaying the record."""

    fire_steps: np.ndarray  # int64, ascending
    resources: np.ndarray
    stability: float
    tss_count: int

    @property
    def fires(self) -> list[int]:
        return self.fire_steps.tolist()

    @property
    def fire_count(self) -> int:
        return len(self.fire_steps)


def replay_population(
    cfgs: Sequence[PlasticityConfig], record: EpisodeRecord
) -> list[ReplayResult]:
    """Train one fresh zero-weight detector per config on the record.

    Equivalent to ``replay(Detector(record.n_channels, cfg), record)`` for
    each config. All configs must share ``T_P`` and ``H``.
    """
    if not cfgs:
        return []
    T_P, H = cfgs[0].T_P, cfgs[0].H
    if any(c.T_P != T_P or c.H != H for c in cfgs):
        raise ValueError("all configs of a population must share T_P and H")
    record.check_event_order()
    P, N = len(cfgs), record.n_channels
    if N < 1:
        raise ValueError("need at least one synapse")
    spike_steps, indptr, channels = record.spike_steps, record.indptr, record.channels
    frame_size = np.diff(indptr)
    # the first spike frame at or after each reward: the frames between two
    # rewards are one slice
    reward_frames = np.searchsorted(spike_steps, record.reward_steps)

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

    r0 = [resource_for_weight(0.0, c) for c in cfgs]
    R = np.repeat(np.array(r0)[:, None], N, axis=1)
    W = np.repeat(np.array([weight_of(r, c) for r, c in zip(r0, cfgs)])[:, None], N, axis=1)
    depressed = np.zeros((P, N), dtype=bool)
    stability = np.zeros(P)
    rate = d_bar.copy()  # effective_rates at stability 0
    # last post spike; a TSS is open at step t while last_post >= t - T_P
    last_post = np.full(P, _NEVER, dtype=np.int64)
    last_onset = np.full(P, -1, dtype=np.int64)  # -1: no TSS yet
    lp = np.full(N, -1, dtype=np.int64)  # last presynaptic spike, shared by all genomes
    folded = 0  # spike frames whose steps are in lp
    fire_log: list[tuple[int, np.ndarray]] = []

    def fold_presyn(frame_end: int) -> None:
        """Bring lp up to date with the spike frames before frame_end."""
        nonlocal folded
        if frame_end > folded:
            steps = spike_steps[folded:frame_end].repeat(frame_size[folded:frame_end])
            np.maximum.at(lp, channels[indptr[folded]:indptr[frame_end]], steps)
            folded = frame_end

    def firing(k: Optional[int]) -> np.ndarray:
        """The genomes whose membrane sum over frame k (None: empty) exceeds H."""
        total = np.zeros(P)
        if k is not None:
            for c in channels[indptr[k]:indptr[k + 1]].tolist():
                total += W[:, c]
        return (total > H).nonzero()[0]

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
        W[rows] = weights(res, w_min_row.take(rows, axis=0), span_row.take(rows, axis=0))
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
            rate[gated] = [effective_rates(s, cfgs[g])[0]
                           for g, s in zip(gated.tolist(), stability[gated].tolist())]

    everyone = np.arange(P)
    frame = 0  # first spike frame not yet processed
    n_frames = len(spike_steps)
    for t, seg_end in zip(
        record.reward_steps.tolist() + [record.n_steps],
        reward_frames.tolist() + [n_frames],
    ):
        # spike frames before the reward: only candidates can fire
        bound = frame_sums(indptr[frame:seg_end + 1], channels, W.max(axis=0))
        for k in ((bound > H).nonzero()[0] + frame).tolist():
            rows = firing(k)
            if rows.size:
                fold_presyn(k + 1)
                new_onset = fire(int(spike_steps[k]), rows)
                if new_onset.size:
                    stability[new_onset] -= d_s[new_onset]
                    refresh_rates(new_onset)
        if t == record.n_steps:
            break

        # the reward step, with its spike frame if it has one
        k = seg_end if seg_end < n_frames and spike_steps[seg_end] == t else None
        frame = seg_end if k is None else seg_end + 1
        fold_presyn(frame)
        rows = firing(k)
        new_onset = fire(t, rows) if rows.size else _NONE
        # a zero rate adds 0.0, which leaves a resource's bits unchanged
        eligible = ((lp >= t - T_P) & (lp >= 0)).nonzero()[0]
        if eligible.size:
            res = R.take(eligible, axis=1) + rate[:, None]
            R[:, eligible] = res
            W[:, eligible] = weights(res, w_min[:, None], span[:, None])
        adj = np.maximum(2.0 - np.abs(t - last_onset - T_P) / T_P, -1.0)
        stability = np.where(last_onset < 0, stability - d_s, stability + d_s * adj)
        stability[new_onset] -= d_s[new_onset]
        refresh_rates(everyone)

    # the fire log in genome order, each genome's fires in step order; a
    # fire more than T_P steps after the genome's previous one is an onset
    genome = np.concatenate([_NONE, *(rows for _, rows in fire_log)])
    steps = np.repeat(np.array([t for t, _ in fire_log], dtype=np.int64),
                      np.array([len(rows) for _, rows in fire_log], dtype=np.intp))
    order = np.argsort(genome, kind="stable")
    steps, genome = steps[order], genome[order]
    onset = np.ones(len(steps), dtype=bool)
    onset[1:] = (genome[1:] != genome[:-1]) | (steps[1:] - steps[:-1] > T_P)
    n_tss = np.bincount(genome[onset], minlength=P)
    cut = np.searchsorted(genome, np.arange(P + 1))
    return [
        ReplayResult(steps[cut[g]:cut[g + 1]], R[g], float(stability[g]), int(n_tss[g]))
        for g in range(P)
    ]
