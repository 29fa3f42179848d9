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
are pending: depressed only if a further postsynaptic spike extends
the sequence. The pending set is derived, not held: it is the channels
whose ``last_presyn`` is after the latest postsynaptic spike. Closure is
no event either: a fire more than ISI_max steps after the previous one
starts a new TSS. This makes the online behaviour agree exactly with an
offline segmentation of the fire train (``tests/reference.py``), and it is
the model :mod:`~causalneuron.population` keeps for many detectors at once.

This scalar detector is the readable reference: ``train`` and ``ga`` run
the lockstep kernel :func:`~causalneuron.population.replay_population`,
which is checked against it bit for bit, and ``train`` writes the
kernel's final state into a :class:`Detector` (:meth:`Detector.set_state`).
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Sequence

import numpy as np

from .plasticity import PlasticityConfig, effective_rates, resource_for_weight, weight_of

SNAPSHOT_FORMAT_VERSION = 2


class TssTracker:
    """Read-only view of a detector's tight spike sequences at its current step."""

    def __init__(self, det: "Detector"):
        self._det = det

    @property
    def active(self) -> bool:
        return self._det._tss_open()

    @property
    def completed(self) -> list:
        spans = self._det._spans
        return spans[:-1] if self.active else list(spans)


class Detector:
    """Single-owner mutable detector state; one instance per input stream."""

    def __init__(
        self,
        n_synapses: int,
        cfg: PlasticityConfig,
        initial_weight: float = 0.0,
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
        self.stability = 0.0
        self.step = 0
        self.frozen = False  # rates forced to 0 (evaluation mode)

        self._spans: list[tuple[int, int]] = []  # TSS (onset, last_post), latest last
        self._depressed: set[int] = set()  # depressed in the latest TSS

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

        new_onset = False
        if fired:
            self.fire_count += 1
            spans = self._spans
            if spans and t - spans[-1][1] <= cfg.isi_max:
                onset, since = spans[-1]
                spans[-1] = (onset, t)
            else:
                new_onset = True
                since = t - 1
                spans.append((t, t))
                self._depressed.clear()
            # once per TSS and in channel order, what spiked since the open
            # TSS's latest post spike, or this step's spikers at an onset
            depressed = self._depressed
            res = self.resources
            for i, s in enumerate(lp):
                if s <= since or i in depressed:
                    continue
                depressed.add(i)
                if rate != 0.0:
                    r = res[i] - rate
                    res[i] = r
                    new = weight_of(r, cfg)
                    self.total_abs_dw += abs(new - weights[i])
                    weights[i] = new

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
        Only the clock moves: TSS closure is not an event but a reading
        of the clock (:meth:`_tss_open`), so a TSS closes on the first
        skipped step whose tick would have closed it. For H >= 0 this
        equals ticking empty frames, which cannot fire; for H < 0 an
        empty frame would fire, and skipping it does not.
        """
        if step < self.step:
            raise ValueError(f"cannot rewind from {self.step} to {step}")
        self.step = step

    # -- internals ----------------------------------------------------------

    def _tss_open(self) -> bool:
        """Whether the latest TSS is still open after the latest step."""
        spans = self._spans
        return bool(spans) and self.step - 1 - spans[-1][1] <= self.cfg.isi_max

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
        if not self._spans:
            self.stability -= cfg.d_s
        else:
            t_tss = t - self._spans[-1][0]
            isi = cfg.isi_max
            adj = max(2.0 - abs(t_tss - isi) / isi, -1.0)
            self.stability += cfg.d_s * adj

    # -- introspection / checkpointing --------------------------------------

    @property
    def tss(self) -> TssTracker:
        return TssTracker(self)

    @property
    def tss_count(self) -> int:
        """Number of TSS started so far (completed plus any open one)."""
        return len(self._spans)

    def _tss_state(self) -> tuple[list[int], list[int], list[int]]:
        """Snapshot v2's derived keys: pending, depressed and tss_state."""
        if not self._tss_open():
            return [], [], [0, -1, -1, self._spans[-1][0] if self._spans else -1]
        onset, last_post = self._spans[-1]
        pending = [i for i, s in enumerate(self.last_presyn) if s > last_post]
        return pending, sorted(self._depressed), [1, onset, last_post, onset]

    def set_state(self, *, resources, stability, step, last_presyn, spans, depressed,
                  fire_count, total_abs_dw) -> None:
        """Set the detector's state; the weights follow from the resources.

        ``spans``: the TSS as (onset, last post spike), latest last;
        ``depressed``: the synapses depressed in the latest TSS."""
        if len(last_presyn) != self.n:
            raise ValueError(f"{len(last_presyn)} presynaptic times for {self.n} synapses")
        self.resources = list(resources)
        self.weights = [weight_of(r, self.cfg) for r in self.resources]
        self.stability = stability
        self.step = step
        self.last_presyn = list(last_presyn)
        self._spans = list(spans)
        self._depressed = set(depressed)
        self.fire_count = fire_count
        self.total_abs_dw = total_abs_dw

    def resource_array(self) -> np.ndarray:
        return np.asarray(self.resources, dtype=np.float64)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)

    def save_snapshot(self, path) -> None:
        """Write a bit-exact checkpoint (resources kept as raw float64).

        Format v2 also stores the plasticity config, one ``cfg_<field>``
        entry per field, and the completed TSS as (onset, last_post) pairs.
        ``pending``, ``depressed`` and ``tss_state`` (open flag, onset, last
        post spike, last onset; -1 for none) are derived (:meth:`_tss_state`).
        """
        pending, depressed, tss_state = self._tss_state()
        # numpy appends ".npz" to a path without it; a file handle writes exactly path
        with open(path, "wb") as fh:
            np.savez(
                fh,
                format_version=np.int64(SNAPSHOT_FORMAT_VERSION),
                **{f"cfg_{k}": v for k, v in asdict(self.cfg).items()},
                resources=self.resource_array(),
                stability=np.float64(self.stability),
                step=np.int64(self.step),
                last_presyn=np.asarray(self.last_presyn, dtype=np.int64),
                depressed=np.asarray(depressed, dtype=np.int64),
                pending=np.asarray(pending, dtype=np.int64),
                tss_state=np.asarray(tss_state, dtype=np.int64),
                tss_completed=np.asarray(self.tss.completed, dtype=np.int64).reshape(-1, 2),
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
        So does a ``pending`` or ``tss_state`` that the rest of the file contradicts.
        """
        with open(path, "rb") as fh:
            try:
                # np.load takes any other file for a pickle and, refusing to
                # unpickle it, says how to load it unsafely
                if fh.read(4) != b"PK\x03\x04":
                    raise ValueError("not an .npz archive")
                fh.seek(0)
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
                    state = data["tss_state"].tolist()
                    active, onset, last_post, _ = state
                    spans = [(a, b) for a, b in data["tss_completed"].tolist()]
                    if active:
                        spans.append((onset, last_post))
                    det.set_state(
                        resources=[float(r) for r in resources],
                        stability=float(data["stability"]), step=int(data["step"]),
                        last_presyn=[int(v) for v in data["last_presyn"]], spans=spans,
                        depressed=[int(v) for v in data["depressed"]],
                        fire_count=int(data["fire_count"]),
                        total_abs_dw=float(data["total_abs_dw"]),
                    )
                    pending, _, derived = det._tss_state()
                    stored = (data["pending"].tolist(), state)
                    if stored != (pending, derived):
                        raise ValueError(f"pending, tss_state {stored} disagree with the rest "
                                         f"of the file, which gives {(pending, derived)}")
            except Exception as exc:
                raise ValueError(f"bad snapshot {path}: {exc}") from None
        return det
