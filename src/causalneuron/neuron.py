"""The online causal-link detector neuron.

A binary threshold unit on a discrete clock. Firing is grouped online
into tight spike sequences (TSS): maximal runs of postsynaptic spikes
whose gaps never exceed ISI_max. Synapses that feed a TSS are depressed
(anti-Hebbian, at most once per TSS); synapses that spiked within T_P
before a dopamine spike are potentiated. A stability scalar rises when
TSS onsets precede dopamine by about ISI_max (accurate prediction) and
falls otherwise, exponentially shutting plasticity down as the neuron
becomes reliable.

Online subtlety: a TSS only provably ended after ISI_max silent steps,
so presynaptic spikes that arrive after the latest postsynaptic spike
are held pending and committed for depression only if a further
postsynaptic spike extends the sequence; otherwise they are discarded
when the sequence closes. This makes the online behaviour agree exactly
with the offline segmentation in :func:`tss_segments`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .plasticity import PlasticityConfig, effective_rates, resource_for_weight, weight_of

SNAPSHOT_FORMAT_VERSION = 2


@dataclass
class TssTracker:
    """Online state of the current / most recent tight spike sequence."""

    active: bool = False
    onset: Optional[int] = None
    last_post: Optional[int] = None
    # Onset of the ongoing or most recently completed TSS; survives closure
    # because the dopamine stability rule measures time from it.
    last_onset: Optional[int] = None
    completed: list = field(default_factory=list)  # (onset, last_post) pairs


def tss_segments(post_spike_steps: Sequence[int], isi_max: int) -> list[tuple[int, int]]:
    """Offline reference segmentation of a postsynaptic spike train.

    Returns maximal (first_step, last_step) runs where consecutive gaps
    are <= isi_max. Serves as the oracle for the online tracker.
    """
    segs: list[tuple[int, int]] = []
    first = None
    prev = None
    for t in post_spike_steps:
        if prev is not None and t <= prev:
            raise ValueError("post spike steps must be strictly increasing")
        if first is None:
            first = t
        elif t - prev > isi_max:
            segs.append((first, prev))
            first = t
        prev = t
    if first is not None:
        segs.append((first, prev))
    return segs


class Detector:
    """Single-owner mutable detector state; one instance per input stream."""

    def __init__(
        self,
        n_synapses: int,
        cfg: PlasticityConfig,
        initial_weight: float = 0.0,
        stability: float = 0.0,
    ):
        if n_synapses < 1:
            raise ValueError("need at least one synapse")
        self.cfg = cfg
        self.n = n_synapses
        r0 = resource_for_weight(initial_weight, cfg)
        w0 = weight_of(r0, cfg)
        # Plain lists: the per-step loop touches a handful of elements and
        # list indexing beats numpy scalar access by a wide margin.
        self.resources = [r0] * n_synapses
        self.weights = [w0] * n_synapses
        self.last_presyn = [-1] * n_synapses  # -1 = never spiked
        self.stability = float(stability)
        self.step = 0
        self.tss = TssTracker()
        self.frozen = False  # rates forced to 0 (evaluation mode)

        self._depressed: set[int] = set()       # depressed in current TSS
        self._pending_spikers: set[int] = set() # spiked after latest post spike of open TSS

        self.fire_count = 0
        self.total_abs_dw = 0.0  # cumulative |weight change|, for reporting

    # -- stepping -----------------------------------------------------------

    def tick_sparse(self, active: Sequence[int], dopamine: bool = False) -> bool:
        """Advance one step given the indices of spiking channels.

        Fixed in-step order: record presynaptic spikes, integrate, TSS
        bookkeeping + anti-Hebbian depression, dopamine potentiation and
        stability adjustment, TSS-onset stability decrement. All
        plasticity magnitudes use the stability from the start of the
        step.
        """
        t = self.step
        cfg = self.cfg
        if self.frozen:
            rate = 0.0
        else:
            rate = effective_rates(self.stability, cfg)[0]  # d_H == d_D

        lp = self.last_presyn
        weights = self.weights
        total = 0.0
        for i in active:
            lp[i] = t
            total += weights[i]
        fired = total > cfg.H

        tss = self.tss
        if tss.active and t - tss.last_post > cfg.isi_max:
            self._close_tss()

        new_onset = False
        if fired:
            self.fire_count += 1
            if tss.active:
                pend = self._pending_spikers
                pend.update(active)
                if pend:
                    self._depress_once(pend, rate)
                    pend.clear()
                tss.last_post = t
            else:
                tss.active = True
                tss.onset = t
                tss.last_post = t
                tss.last_onset = t
                new_onset = True
                self._depress_once(active, rate)
        elif tss.active and active:
            self._pending_spikers.update(active)

        if dopamine:
            self._apply_dopamine(t, rate)

        if new_onset:
            self.stability -= cfg.d_s

        self.step = t + 1
        return fired

    def advance_to(self, step: int) -> None:
        """Skip over steps that carry no spikes and no dopamine.

        Replay is event-driven: a step with no spike and no dopamine is
        not a neuron step, so it can neither fire nor change a weight.
        The only state change over such steps is TSS closure, which has
        no time-stamped side effects and is applied lazily here. For
        H >= 0 this equals ticking empty frames, which cannot fire; for
        H < 0 an empty frame would fire, and skipping it does not.
        """
        if step < self.step:
            raise ValueError(f"cannot rewind from {self.step} to {step}")
        tss = self.tss
        # Step `step` itself is not processed yet: the last skipped step,
        # step - 1, is the latest one whose tick would have closed the TSS.
        if tss.active and step - 1 - tss.last_post > self.cfg.isi_max:
            self._close_tss()
        self.step = step

    # -- internals ----------------------------------------------------------

    def _close_tss(self) -> None:
        tss = self.tss
        tss.completed.append((tss.onset, tss.last_post))
        tss.active = False
        tss.onset = None
        tss.last_post = None
        self._depressed.clear()
        self._pending_spikers.clear()

    def _depress_once(self, channels: Iterable[int], rate: float) -> None:
        depressed = self._depressed
        res = self.resources
        weights = self.weights
        cfg = self.cfg
        for i in channels:
            if i in depressed:
                continue
            depressed.add(i)
            if rate == 0.0:
                continue
            r = res[i] - rate
            res[i] = r
            old = weights[i]
            new = weight_of(r, cfg)
            weights[i] = new
            self.total_abs_dw += abs(new - old)

    def _apply_dopamine(self, t: int, rate: float) -> None:
        cfg = self.cfg
        if rate > 0.0:
            lo = t - cfg.T_P
            res = self.resources
            weights = self.weights
            for i, s in enumerate(self.last_presyn):
                if s >= lo and s >= 0:
                    r = res[i] + rate
                    res[i] = r
                    old = weights[i]
                    new = weight_of(r, cfg)
                    weights[i] = new
                    self.total_abs_dw += abs(new - old)
        tss = self.tss
        if tss.last_onset is None:
            self.stability -= cfg.d_s
        else:
            t_tss = t - tss.last_onset
            isi = cfg.isi_max
            adj = max(2.0 - abs(t_tss - isi) / isi, -1.0)
            self.stability += cfg.d_s * adj

    def frozen_clone(self) -> "Detector":
        """Fresh-clock copy carrying only the learned weights, rates off.

        Used to evaluate a trained detector on a different episode: the
        step counter, TSS state and eligibility traces start clean, and
        the frozen flag disables all further resource changes.
        """
        clone = Detector(self.n, self.cfg)
        clone.resources = list(self.resources)
        clone.weights = list(self.weights)
        clone.stability = self.stability
        clone.frozen = True
        return clone

    # -- introspection / checkpointing --------------------------------------

    @property
    def tss_count(self) -> int:
        """Number of TSS started so far (completed plus any open one)."""
        return len(self.tss.completed) + (1 if self.tss.active else 0)

    def resource_array(self) -> np.ndarray:
        return np.asarray(self.resources, dtype=np.float64)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)

    def save_snapshot(self, path) -> None:
        """Write a bit-exact checkpoint (resources kept as raw float64).

        Format v2 also stores the plasticity config, one ``cfg_<field>``
        entry per field, and the completed TSS as (onset, last_post) pairs.
        """
        tss = self.tss
        np.savez(
            path,
            format_version=np.int64(SNAPSHOT_FORMAT_VERSION),
            **{f"cfg_{k}": v for k, v in asdict(self.cfg).items()},
            resources=self.resource_array(),
            stability=np.float64(self.stability),
            step=np.int64(self.step),
            last_presyn=np.asarray(self.last_presyn, dtype=np.int64),
            depressed=np.asarray(sorted(self._depressed), dtype=np.int64),
            pending=np.asarray(sorted(self._pending_spikers), dtype=np.int64),
            tss_state=np.asarray(
                [
                    1 if tss.active else 0,
                    -1 if tss.onset is None else tss.onset,
                    -1 if tss.last_post is None else tss.last_post,
                    -1 if tss.last_onset is None else tss.last_onset,
                ],
                dtype=np.int64,
            ),
            tss_completed=np.asarray(tss.completed, dtype=np.int64).reshape(-1, 2),
            fire_count=np.int64(self.fire_count),
            total_abs_dw=np.float64(self.total_abs_dw),
        )

    @classmethod
    def load_snapshot(cls, path) -> "Detector":
        """Rebuild a detector, its plasticity config included, from a snapshot.

        A file that cannot be opened raises ``OSError``. Any failure after
        that (numpy and zipfile raise a dozen exception types for damaged
        archives, bare ``.npy`` files and missing or misshapen entries)
        means the file is not a v2 snapshot: one ``ValueError`` names it.
        """
        with open(path, "rb") as fh:
            try:
                with np.load(fh) as data:
                    version = int(data["format_version"])
                    if version != SNAPSHOT_FORMAT_VERSION:
                        raise ValueError(f"unsupported snapshot version {version}")
                    cfg = PlasticityConfig(**{
                        f.name: type(f.default)(data[f"cfg_{f.name}"])
                        for f in fields(PlasticityConfig)
                    })
                    resources = data["resources"]
                    det = cls(len(resources), cfg)
                    det.resources = [float(r) for r in resources]
                    det.weights = [weight_of(r, cfg) for r in det.resources]
                    det.stability = float(data["stability"])
                    det.step = int(data["step"])
                    det.last_presyn = [int(v) for v in data["last_presyn"]]
                    if len(det.last_presyn) != det.n:
                        raise ValueError(f"{len(det.last_presyn)} presynaptic times "
                                         f"for {det.n} synapses")
                    det._depressed = set(int(v) for v in data["depressed"])
                    det._pending_spikers = set(int(v) for v in data["pending"])
                    st = data["tss_state"]
                    det.tss.active = bool(st[0])
                    det.tss.onset = None if st[1] < 0 else int(st[1])
                    det.tss.last_post = None if st[2] < 0 else int(st[2])
                    det.tss.last_onset = None if st[3] < 0 else int(st[3])
                    det.tss.completed = [(a, b) for a, b in data["tss_completed"].tolist()]
                    det.fire_count = int(data["fire_count"])
                    det.total_abs_dw = float(data["total_abs_dw"])
            except Exception as exc:
                raise ValueError(f"bad snapshot {path}: {exc}") from None
        return det
