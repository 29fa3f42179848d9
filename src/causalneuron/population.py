"""Lockstep replay of many plasticity configs through one record.

The genetic search trains one fresh detector per genome on the same
record. Every genome sees the same input, so the record's event stream
can be walked once while P detectors advance side by side: the
per-synapse state becomes (P, N) arrays and each step costs a handful of
numpy operations instead of P scalar ticks.

The kernel reproduces :class:`~causalneuron.neuron.Detector` driven by
:func:`~causalneuron.runner.replay` bit for bit, which
``tests/test_population.py`` checks. Exactness rests on doing every
floating-point operation in the scalar path's order:

* the membrane sum adds the active channels' weights one column at a
  time in the record's channel order (never a reduction, whose
  summation order numpy does not fix);
* weights are recomputed with :func:`weight_of`'s expression, which is
  idempotent on unchanged resources, so whole rows may be refreshed;
* the gated rate comes from the scalar :func:`effective_rates`, and only
  for genomes whose stability changed in the step;
* stability takes the dopamine adjustment first, then the onset decrement.

Two pieces of scalar state are not stored. The presynaptic spike times
are the same for every genome, so ``last_presyn`` is one shared (N,)
vector. The pending set of an open TSS -- channels that spiked after its
latest postsynaptic spike -- is exactly ``last_presyn > last_post``, so
it is derived when a genome fires instead of being updated every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .plasticity import PlasticityConfig, effective_rates, resource_for_weight, weight_of
from .records import EpisodeRecord

Event = tuple[int, list, bool]  # (step, active channels, dopamine)

_CLOSED = np.iinfo(np.int64).max  # last_post of a genome with no open TSS
_NONE = np.zeros(0, dtype=np.intp)


@dataclass
class ReplayResult:
    """What one config's detector ends with after replaying the record."""

    fires: list[int]
    resources: np.ndarray
    stability: float
    tss_count: int

    @property
    def fire_count(self) -> int:
        return len(self.fires)


def record_events(record: EpisodeRecord) -> list[Event]:
    """The record's event steps in order: spikes and dopamine merged.

    Steps with neither are left out; replay skips them, since the only
    state change over silence is TSS closure.
    """
    record.check_event_order()
    spike_steps = record.spike_steps.tolist()
    indptr = record.indptr.tolist()
    chans = record.channels.tolist()
    rewards = record.reward_steps.tolist()
    events: list[Event] = []
    i = j = 0
    n_spk, n_rew = len(spike_steps), len(rewards)
    while i < n_spk or j < n_rew:
        t_spk = spike_steps[i] if i < n_spk else record.n_steps
        t_rew = rewards[j] if j < n_rew else record.n_steps
        t = t_spk if t_spk <= t_rew else t_rew
        if t_spk == t:
            active = chans[indptr[i]:indptr[i + 1]]
            i += 1
        else:
            active = []
        dopamine = t_rew == t
        if dopamine:
            j += 1
        events.append((t, active, dopamine))
    return events


def replay_population(
    cfgs: Sequence[PlasticityConfig],
    record: EpisodeRecord,
    events: Optional[list[Event]] = None,
) -> list[ReplayResult]:
    """Train one fresh zero-weight detector per config on the record.

    Equivalent to ``replay(Detector(record.n_channels, cfg), record)`` for
    each config. All configs must share ``T_P`` and ``H``. ``events``, if
    given, must be ``record_events(record)`` (callers that replay the
    same record repeatedly convert it once).
    """
    if not cfgs:
        return []
    T_P, H = cfgs[0].T_P, cfgs[0].H
    if any(c.T_P != T_P or c.H != H for c in cfgs):
        raise ValueError("all configs of a population must share T_P and H")
    if events is None:
        events = record_events(record)
    P, N = len(cfgs), record.n_channels
    if N < 1:
        raise ValueError("need at least one synapse")

    w_min = np.array([c.w_min for c in cfgs])[:, None]
    span = np.array([c.w_max - c.w_min for c in cfgs])[:, None]
    d_s = np.array([c.d_s for c in cfgs])

    def weights(res: np.ndarray, rows=slice(None)) -> np.ndarray:
        """weight_of, elementwise, for the given genome rows of res."""
        w = np.where(res > 0.0, res, 0.0)
        return w_min[rows] + span[rows] * w / (span[rows] + w)

    r0 = [resource_for_weight(0.0, c) for c in cfgs]
    R = np.repeat(np.array(r0)[:, None], N, axis=1)
    W = np.repeat(np.array([weight_of(r, c) for r, c in zip(r0, cfgs)])[:, None], N, axis=1)
    depressed = np.zeros((P, N), dtype=bool)
    stability = np.zeros(P)
    rate = np.array([effective_rates(0.0, c)[0] for c in cfgs])
    last_post = np.full(P, _CLOSED, dtype=np.int64)
    last_onset = np.full(P, -1, dtype=np.int64)  # -1: no TSS yet
    n_closed = np.zeros(P, dtype=np.int64)
    lp = [-1] * N      # last presynaptic spike step, shared by all genomes
    colmax = W.max(axis=0).tolist()  # per-channel weight ceiling over genomes
    next_close = _CLOSED  # lower bound on the earliest open TSS deadline
    fire_log: list[tuple[int, np.ndarray]] = []

    for t, active, dopamine in events:
        if t > next_close:
            closing = last_post < t - T_P
            n_closed += closing
            last_post[closing] = _CLOSED
            depressed[closing] = False
            still_open = last_post[last_post != _CLOSED]
            next_close = int(still_open.min()) + T_P if still_open.size else _CLOSED

        # Rounding is monotone, so summing the channel ceilings in the
        # membrane sum's order bounds every genome's sum: at or below H,
        # no genome fires and the step needs no array work.
        bound = 0.0
        for c in active:
            lp[c] = t
            bound += colmax[c]
        new_onset = _NONE
        if bound > H:
            total = np.zeros(P)
            for c in active:
                total += W[:, c]
            rows = np.flatnonzero(total > H)
            if rows.size:
                fire_log.append((t, rows))
                post = last_post[rows]
                # depress what spiked since the latest post spike of an open
                # TSS, or this step's spikers at an onset; once per TSS
                since = np.minimum(post, t - 1)[:, None]
                hit = (np.array(lp) > since) & ~depressed[rows]
                depressed[rows] |= hit
                R[rows] = np.where(hit, R[rows] - rate[rows, None], R[rows])
                W[rows] = weights(R[rows], rows)
                colmax = W.max(axis=0).tolist()
                last_post[rows] = t
                new_onset = rows[post == _CLOSED]
                if new_onset.size:
                    last_onset[new_onset] = t
                    next_close = min(next_close, t + T_P)

        if dopamine:
            lpa = np.array(lp)
            eligible = (lpa >= t - T_P) & (lpa >= 0)
            if eligible.any():
                grow = rate > 0.0
                R[np.ix_(grow, eligible)] += rate[grow, None]
                W = weights(R)
                colmax = W.max(axis=0).tolist()
            adj = np.maximum(2.0 - np.abs(t - last_onset - T_P) / T_P, -1.0)
            stability = np.where(last_onset < 0, stability - d_s, stability + d_s * adj)
        if new_onset.size:
            stability[new_onset] -= d_s[new_onset]
        if dopamine:
            rate = np.array([effective_rates(s, c)[0]
                             for s, c in zip(stability.tolist(), cfgs)])
        elif new_onset.size:
            for g in new_onset.tolist():
                rate[g] = effective_rates(float(stability[g]), cfgs[g])[0]

    fires: list[list[int]] = [[] for _ in range(P)]
    for t, rows in fire_log:
        for g in rows.tolist():
            fires[g].append(t)
    n_tss = n_closed + (last_post != _CLOSED)
    return [
        ReplayResult(fires[g], R[g].copy(), float(stability[g]), int(n_tss[g]))
        for g in range(P)
    ]
