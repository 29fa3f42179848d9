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
checked against it bit for bit. :class:`DetectorState` is the one definition
of a detector's state, which a snapshot (format 4) stores once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .plasticity import THRESHOLD, PlasticityConfig, effective_rates, resource_for_weight, weight_of

SNAPSHOT_FORMAT_VERSION = 4
_SHAPES = ("()", "(k,)", "(k, 2)")  # a snapshot entry's shape, by its number of dimensions


class Detector:
    """Single-owner mutable detector state; one instance per input stream."""

    def __init__(self, n_synapses: int, cfg: PlasticityConfig, initial_weight: float = 0.0):
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

    @classmethod
    def from_state(cls, state: DetectorState) -> "Detector":
        """A detector in this state, held as the Python numbers stepping uses."""
        det = cls(len(state.resources), state.cfg)
        det.resources, det.weights = state.resources.tolist(), state.weights()
        det.stability, det.step = float(state.stability), int(state.step)
        det.last_presyn, det.depressed = state.last_presyn.tolist(), set(state.depressed.tolist())
        det.tss_spans = list(map(tuple, state.tss_spans.tolist()))
        det.frozen, det.fire_count = bool(state.frozen), int(state.fire_count)
        det.total_abs_dw = float(state.total_abs_dw)
        return det

    def state(self) -> DetectorState:
        """This detector's state; one that stepping cannot reach raises ``ValueError``,
        and so does a number not of the Python type stepping keeps it in."""
        return DetectorState(self.cfg, self.resources, self.stability, self.step, self.last_presyn,
                             np.array(self.tss_spans, np.int64).reshape(-1, 2),
                             np.array(sorted(self.depressed), np.int64), self.frozen,
                             self.fire_count, self.total_abs_dw)

    def save_snapshot(self, path) -> None:
        """Write this detector's state as a snapshot (:meth:`DetectorState.save`)."""
        self.state().save(path)

    @classmethod
    def load_snapshot(cls, path) -> "Detector":
        """A detector in the state a snapshot holds (:meth:`DetectorState.load`)."""
        return cls.from_state(DetectorState.load(path))


def _checked(name: str, value, dtype, ndim: int):
    """A read-only copy of ``value``, refused, not cast, unless of this dtype and ndim."""
    value = np.array(value, order="C")
    if value.dtype != dtype:
        raise ValueError(f"{name} is {value.dtype}, not {np.dtype(dtype)}")
    if value.ndim != ndim:
        raise ValueError(f"{name} has shape {value.shape}, not {_SHAPES[ndim]}")
    value.flags.writeable = False
    return value if ndim else value[()]


def _take(entries: dict, name: str):
    """Remove and return a snapshot entry, refusing a missing one by its name."""
    try:
        return entries.pop(name)
    except KeyError:
        raise ValueError(f"missing entry {name!r}") from None


@dataclass(frozen=True, eq=False)
class DetectorState:
    """A detector's whole state, as a snapshot stores it: each field after ``cfg``
    is an entry of one dtype and number of dimensions, in the snapshot's order.
    The weights follow from the resources (:meth:`weights`). A state that
    stepping cannot reach raises ``ValueError`` when it is made."""

    cfg: PlasticityConfig
    resources: np.ndarray = field(metadata=dict(dtype=np.float64, ndim=1))
    stability: np.float64 = field(metadata=dict(dtype=np.float64, ndim=0))
    step: np.int64 = field(metadata=dict(dtype=np.int64, ndim=0))
    last_presyn: np.ndarray = field(metadata=dict(dtype=np.int64, ndim=1))  # -1: never spiked
    # every TSS as (onset, last post spike), latest last, an open one included
    tss_spans: np.ndarray = field(metadata=dict(dtype=np.int64, ndim=2))
    depressed: np.ndarray = field(metadata=dict(dtype=np.int64, ndim=1))  # in the latest TSS
    frozen: np.bool_ = field(metadata=dict(dtype=np.bool_, ndim=0))  # rates forced to 0
    fire_count: np.int64 = field(metadata=dict(dtype=np.int64, ndim=0))
    total_abs_dw: np.float64 = field(metadata=dict(dtype=np.float64, ndim=0))

    def __post_init__(self) -> None:
        for f in fields(self)[1:]:
            object.__setattr__(self, f.name, _checked(f.name, getattr(self, f.name), **f.metadata))
        res, lp, spans, dep = self.resources, self.last_presyn, self.tss_spans, self.depressed
        n, step, T_P, dep = len(res), int(self.step), self.cfg.T_P, dep.tolist()
        if n < 1:
            raise ValueError("need at least one synapse")
        if lp.shape != (n,):
            raise ValueError(f"{res.shape} resources, {lp.shape} presynaptic times, {n} synapses")
        if step < 0:
            raise ValueError(f"step {step} < 0")
        if not -1 <= lp.min() <= lp.max() < step:
            raise ValueError(f"presynaptic times {lp.min()} to {lp.max()} not in [-1, step {step})")
        if spans.shape[1] != 2:
            raise ValueError(f"tss_spans has shape {spans.shape}, not {_SHAPES[2]}")
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
        if self.fire_count < len(spans):  # each TSS holds at least one fire
            raise ValueError(f"fire_count {self.fire_count} < {len(spans)} TSS spans")
        if self.total_abs_dw < 0:  # NaN passes: the weight of an inf resource is NaN
            raise ValueError(f"total_abs_dw {self.total_abs_dw} < 0")

    def weights(self) -> list[float]:
        """Each synapse's weight, as the scalar detector computes it."""
        return [weight_of(r, self.cfg) for r in self.resources.tolist()]

    def save(self, path) -> None:
        """Write a bit-exact snapshot (format 4): the version, one ``cfg_<field>``
        entry per config field, then each state field as held."""
        entries = {f"cfg_{f.name}": np.asarray(getattr(self.cfg, f.name), type(f.default))
                   for f in fields(self.cfg)}
        entries.update((f.name, getattr(self, f.name)) for f in fields(self)[1:])
        # numpy appends ".npz" to a path without it; a file handle writes exactly path
        with open(path, "wb") as fh:
            np.savez(fh, format_version=np.int64(SNAPSHOT_FORMAT_VERSION), **entries)

    @classmethod
    def load(cls, path) -> "DetectorState":
        """Read a snapshot. A file that cannot be opened raises ``OSError``; any
        failure after that, one ``ValueError`` naming the file and the fault,
        in place of the dozen exception types numpy and zipfile raise."""
        with open(path, "rb") as fh:
            try:
                # np.load takes any other file for a pickle and, refusing to
                # unpickle it, says how to load it unsafely
                if fh.read(4) != b"PK\x03\x04":
                    raise ValueError("not an .npz archive")
                fh.seek(0)
                with np.load(fh) as data:
                    entries = dict(data)
                for name, value in entries.items():  # np.load hands such a member over as bytes
                    if not isinstance(value, np.ndarray):
                        raise ValueError(f"{name} is not an .npy array")
                version = _checked("format_version", _take(entries, "format_version"), np.int64, 0)
                if version != SNAPSHOT_FORMAT_VERSION:
                    raise ValueError(f"unsupported snapshot version {version}")
                cfg = PlasticityConfig(**{f.name: type(f.default)(_checked(
                    f"cfg_{f.name}", _take(entries, f"cfg_{f.name}"), type(f.default), 0))
                    for f in fields(PlasticityConfig)})
                state = {f.name: _take(entries, f.name) for f in fields(cls)[1:]}
                if entries:
                    raise ValueError(f"unknown entry {next(iter(entries))!r}")
                return cls(cfg, **state)
            except Exception as exc:
                raise ValueError(f"bad snapshot {path}: {exc}") from None
