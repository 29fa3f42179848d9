"""The online causal-link detector neuron.

A binary threshold unit on a discrete clock. Firing is grouped online
into tight spike sequences (TSS): maximal runs of postsynaptic spikes
whose gaps never exceed T_P. Synapses that feed a TSS are depressed
(anti-Hebbian, at most once per TSS); synapses that spiked within T_P
before a dopamine spike are potentiated. A stability scalar rises when
TSS onsets precede dopamine by about T_P (accurate prediction) and
falls otherwise, exponentially shutting plasticity down as the neuron
becomes reliable.

Online subtlety: a TSS only provably ended after T_P silent steps,
so presynaptic spikes that arrive after the latest postsynaptic spike
are pending: depressed only if a further postsynaptic spike extends
the sequence. The pending set is derived, not held: it is the channels
whose ``last_presyn`` is after the latest postsynaptic spike. Closure is
no event either: a fire more than T_P steps after the previous one
starts a new TSS. This makes the online behaviour agree exactly with an
offline segmentation of the fire train (``tests/reference.py``), and it is
the model :mod:`~causalneuron.population` keeps for many detectors at once.

This scalar detector is the readable reference: ``train`` and ``ga`` run
the lockstep kernel :func:`~causalneuron.population.replay_population`,
which is checked against it bit for bit, and ``train`` writes the
kernel's final state into a :class:`Detector` (:meth:`Detector.set_state`).
A snapshot (format 4) stores that state once, and nothing derived from it.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Sequence

import numpy as np

from .plasticity import THRESHOLD, PlasticityConfig, effective_rates, resource_for_weight, weight_of

SNAPSHOT_FORMAT_VERSION = 4
_SHAPES = ("()", "(k,)", "(k, 2)")  # a snapshot entry's shape, by its number of dimensions


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

        self.tss_spans: list[tuple[int, int]] = []  # TSS (onset, last_post), latest last
        self.depressed: set[int] = set()  # depressed in the latest TSS

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
            rate = effective_rates(self.stability, cfg)

        lp = self.last_presyn
        weights = self.weights
        total = 0.0
        for i in active:
            lp[i] = t
            total += weights[i]
        fired = total > THRESHOLD

        new_onset = False
        if fired:
            self.fire_count += 1
            spans = self.tss_spans
            if spans and t - spans[-1][1] <= cfg.T_P:
                onset, since = spans[-1]
                spans[-1] = (onset, t)
            else:
                new_onset = True
                since = t - 1
                spans.append((t, t))
                self.depressed.clear()
            # once per TSS and in channel order, what spiked since the open
            # TSS's latest post spike, or this step's spikers at an onset
            depressed = self.depressed
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
        of the clock (:attr:`tss_open`), so a TSS closes on the first
        skipped step whose tick would have closed it. This equals ticking
        empty frames, which never fire: their sum of 0.0 does not exceed
        :data:`~causalneuron.plasticity.THRESHOLD`.
        """
        if step < self.step:
            raise ValueError(f"cannot rewind from {self.step} to {step}")
        self.step = step

    # -- internals ----------------------------------------------------------

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
        if not self.tss_spans:
            self.stability -= cfg.d_s
        else:
            t_tss = t - self.tss_spans[-1][0]
            T_P = cfg.T_P
            adj = max(2.0 - abs(t_tss - T_P) / T_P, -1.0)
            self.stability += cfg.d_s * adj

    # -- introspection / checkpointing --------------------------------------

    @property
    def tss_open(self) -> bool:
        """Whether the latest TSS is still open after the latest step."""
        spans = self.tss_spans
        return bool(spans) and self.step - 1 - spans[-1][1] <= self.cfg.T_P

    def set_state(self, *, resources, stability, step, last_presyn, tss_spans, depressed,
                  frozen, fire_count, total_abs_dw) -> None:
        """Set the detector's state, as the Python numbers stepping holds; the
        weights follow from the resources. ``tss_spans`` is a (k, 2) array of
        every TSS as (onset, last post spike), latest last; ``depressed``, the
        synapses depressed in the latest TSS. A state that stepping cannot
        reach raises ``ValueError``.
        """
        n, T_P = self.n, self.cfg.T_P
        res = np.asarray(resources, dtype=np.float64)
        lp = np.asarray(last_presyn, dtype=np.int64)
        spans = np.asarray(tss_spans, dtype=np.int64)
        dep = np.asarray(depressed, dtype=np.int64).tolist()
        step, fire_count, total_abs_dw = int(step), int(fire_count), float(total_abs_dw)
        if res.shape != (n,) or lp.shape != (n,):
            raise ValueError(f"{res.shape} resources, {lp.shape} presynaptic times, {n} synapses")
        if step < 0:
            raise ValueError(f"step {step} < 0")
        if not -1 <= lp.min() <= lp.max() < step:
            raise ValueError(f"presynaptic times {lp.min()} to {lp.max()} not in [-1, step {step})")
        if spans.ndim != 2 or spans.shape[1] != 2:
            raise ValueError(f"tss_spans has shape {spans.shape}, not (k, 2)")
        onset, last = spans.T
        # a last spike of -T_P - 1 before the first span makes its onset >= 0
        gap = onset - np.append(-T_P - 1, last[:-1])
        bad = (gap <= T_P) | (onset > last) | (last >= step)
        if bad.any():
            raise ValueError(f"TSS span {spans[bad.argmax()].tolist()} is not 0 <= onset <= last"
                             f" < step {step} with onset > the previous span's last + T_P {T_P}")
        if len(set(dep) & set(range(n))) != len(dep):
            raise ValueError(f"depressed synapses {dep} are not distinct indices in [0, {n})")
        # a resource moves by finite rates, so it may overflow to +-inf but never reach NaN
        if np.isnan(res).any():
            raise ValueError(f"resource {int(np.isnan(res).argmax())} is NaN")
        if fire_count < len(spans):  # each TSS holds at least one fire
            raise ValueError(f"fire_count {fire_count} < {len(spans)} TSS spans")
        if total_abs_dw < 0:  # NaN passes: the weight of an inf resource is NaN
            raise ValueError(f"total_abs_dw {total_abs_dw} < 0")
        self.resources = res.tolist()
        self.weights = [weight_of(r, self.cfg) for r in self.resources]
        self.stability = float(stability)
        self.step = step
        self.last_presyn = lp.tolist()
        self.tss_spans = list(map(tuple, spans.tolist()))
        self.depressed = set(dep)
        self.frozen = bool(frozen)
        self.fire_count = fire_count
        self.total_abs_dw = total_abs_dw

    def snapshot_entries(self) -> dict:
        """This detector's snapshot entries, each of the one dtype loading accepts."""
        return dict(
            format_version=np.int64(SNAPSHOT_FORMAT_VERSION),
            **{f"cfg_{f.name}": np.asarray(getattr(self.cfg, f.name), type(f.default))
               for f in fields(self.cfg)},
            resources=np.asarray(self.resources, dtype=np.float64),
            stability=np.float64(self.stability),
            step=np.int64(self.step),
            last_presyn=np.asarray(self.last_presyn, dtype=np.int64),
            tss_spans=np.asarray(self.tss_spans, dtype=np.int64).reshape(-1, 2),
            depressed=np.asarray(sorted(self.depressed), dtype=np.int64),
            frozen=np.bool_(self.frozen),
            fire_count=np.int64(self.fire_count),
            total_abs_dw=np.float64(self.total_abs_dw),
        )

    def save_snapshot(self, path) -> None:
        """Write a bit-exact checkpoint (resources kept as raw float64).

        Format v4 stores the plasticity config, one ``cfg_<field>`` entry per
        field, and then the detector's state once, each entry named as
        :meth:`set_state` names it: ``tss_spans`` is a (k, 2) int64 array of
        every TSS, an open one included.
        """
        # numpy appends ".npz" to a path without it; a file handle writes exactly path
        with open(path, "wb") as fh:
            np.savez(fh, **self.snapshot_entries())

    @classmethod
    def load_snapshot(cls, path) -> "Detector":
        """Rebuild a detector, its plasticity config included, from a snapshot.

        A file that cannot be opened raises ``OSError``. Any failure after
        that means the file is not a v4 snapshot, and one ``ValueError``
        names it: numpy and zipfile raise a dozen exception types for damaged
        archives, bare ``.npy`` files and missing or extra entries, an entry
        of another dtype or number of dimensions than :meth:`snapshot_entries`'
        is refused, not cast or unwrapped, and :meth:`set_state` refuses a
        state stepping cannot reach.
        """
        expected = cls(1, PlasticityConfig()).snapshot_entries()
        with open(path, "rb") as fh:
            try:
                # np.load takes any other file for a pickle and, refusing to
                # unpickle it, says how to load it unsafely
                if fh.read(4) != b"PK\x03\x04":
                    raise ValueError("not an .npz archive")
                fh.seek(0)
                with np.load(fh) as data:
                    entries = dict(data)
                for name, value in entries.items():  # set_state names any unknown entry
                    want = expected.get(name, value)
                    if value.dtype != want.dtype:
                        raise ValueError(f"{name} is {value.dtype}, not {want.dtype}")
                    if value.ndim != want.ndim:
                        raise ValueError(
                            f"{name} has shape {value.shape}, not {_SHAPES[want.ndim]}")
                version = int(entries.pop("format_version"))
                if version != SNAPSHOT_FORMAT_VERSION:
                    raise ValueError(f"unsupported snapshot version {version}")
                cfg = PlasticityConfig(**{
                    f.name: type(f.default)(entries.pop(f"cfg_{f.name}"))
                    for f in fields(PlasticityConfig)
                })
                det = cls(len(entries["resources"]), cfg)
                det.set_state(**entries)
            except Exception as exc:
                raise ValueError(f"bad snapshot {path}: {exc}") from None
        return det
