"""Tracing of the causalneuron layers from outside the package.

The benchmark installs wrappers on public module and class attributes of
the package, runs one operation, and removes them again. Nothing inside
the package is changed: every number here is timed from outside, at the
call boundary of a public function.

Two kinds of call are recorded:

* coarse calls (a CLI command, a whole recording, a codec round, a GA
  evaluation) become spans ``(name, start, end, parent, self, note)``;
* per-step calls (one simulated step of physics, encoding, a detector
  tick, a weight lookup) are only aggregated into a call count, a total
  time, a self time and the number of truthy results, so that a
  2,000,000-step episode does not hold millions of spans.

A call's self time is its duration minus the time covered by the wrapped
calls made directly inside it.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module, owner attribute or None, attribute name, metric prefix)
COARSE = [
    ("causalneuron.cli", None, "main", "cli.main"),
    ("causalneuron.cli", None, "record_pong_episode", "recording.record_pong_episode"),
    ("causalneuron.cli", None, "train_on_record", "runner.train_on_record"),
    ("causalneuron.cli", None, "replay", "runner.replay"),
    ("causalneuron.cli", None, "score_run", "metrics.score_run"),
    ("causalneuron.cli", None, "run_ga", "ga.run_ga"),
    ("causalneuron.cli", None, "generate", "synthetic.generate"),
    ("causalneuron.runner", None, "replay", "runner.replay"),
    ("causalneuron.records", "EpisodeRecord", "to_bytes", "records.to_bytes"),
    ("causalneuron.records", "EpisodeRecord", "from_bytes", "records.from_bytes"),
    ("causalneuron.neuron", "Detector", "save_snapshot", "neuron.save_snapshot"),
    ("causalneuron.neuron", "Detector", "load_snapshot", "neuron.load_snapshot"),
    ("causalneuron.ga", None, "evaluate", "ga.evaluate"),
    ("causalneuron.ga", None, "evolve", "ga.evolve"),
    ("causalneuron.ga", None, "replay", "runner.replay"),
    ("causalneuron.ga", None, "score_run", "metrics.score_run"),
]
PER_STEP = [
    ("causalneuron.pong", None, "env_step", "pong.env_step"),
    ("causalneuron.recording", None, "encode", "encoder.encode"),
    ("causalneuron.encoder", "EncoderLayout", "active_channels", "encoder.active_channels"),
    ("causalneuron.neuron", "Detector", "tick_sparse", "neuron.tick_sparse"),
    ("causalneuron.neuron", "Detector", "advance_to", "neuron.advance_to"),
    ("causalneuron.neuron", None, "weight_of", "plasticity.weight_of"),
    ("causalneuron.neuron", None, "effective_rates", "plasticity.effective_rates"),
]


# What a coarse span keeps besides its times: the steps recorded, the
# codec's byte counts and the genome a GA evaluation scored (for the
# distinct-genome ratio).
NOTES = {
    "recording.record_pong_episode": lambda args, result: result.n_steps,
    "records.to_bytes": lambda args, result: len(result),
    "records.from_bytes": lambda args, result: len(args[1]),
    "ga.evaluate": lambda args, result: list(args[0].as_tuple()),
}


def patch_points():
    """Yield (holder, attribute name, original object, metric name, coarse)."""
    for table, coarse in ((COARSE, True), (PER_STEP, False)):
        for module_name, owner, attr, metric in table:
            holder = importlib.import_module(module_name)
            if owner is not None:
                holder = getattr(holder, owner)
                original = holder.__dict__[attr]
            else:
                original = getattr(holder, attr)
            yield holder, attr, original, metric, coarse


class Tracer:
    """Collects spans and per-step aggregates while its wrappers are installed."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, self s, note]
        self.steps = {}   # metric name -> [calls, total s, self s, truthy results]
        self._child = [0.0]  # time covered by finished children, per open call
        self._open = [-1]    # indices of open spans, innermost last
        self._saved = []

    def _wrap_coarse(self, fn, name):
        spans, child, open_ = self.spans, self._child, self._open
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, open_[-1], 0.0, None]
            spans.append(span)
            open_.append(index)
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[5] = note(args, result)
                return result
            finally:
                span[2] = end = perf_counter()
                duration = end - span[1]
                span[4] = duration - child.pop()
                child[-1] += duration
                open_.pop()

        return traced

    def _wrap_step(self, fn, name):
        agg = self.steps.setdefault(name, [0, 0.0, 0.0, 0])
        child = self._child

        def traced(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                own = duration - child.pop()
                child[-1] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += own
            if result:
                agg[3] += 1
            return result

        return traced

    def __enter__(self):
        for holder, attr, original, metric, coarse in patch_points():
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            wrapped = (self._wrap_coarse if coarse else self._wrap_step)(fn, metric)
            setattr(holder, attr, classmethod(wrapped) if is_classmethod else wrapped)
            self._saved.append((holder, attr, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)
        return False


def _ratio(num, den):
    """num / den, or 0 when the layer did no work in this operation."""
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of the one operation a tracer saw."""
    calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    notes = defaultdict(list)
    for name, start, end, _parent, self_s, note in tracer.spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
        notes[name].append(note)
    for name, (n, duration, self_s, _truthy) in tracer.steps.items():
        calls[name], total[name], own[name] = n, duration, self_s

    recorded = sum(notes["recording.record_pong_episode"])
    written = sum(notes["records.to_bytes"])
    read = sum(notes["records.from_bytes"])
    non_empty_frames = tracer.steps.get("encoder.encode", [0, 0.0, 0.0, 0])[3]
    return {
        "pong.env_step.calls": calls["pong.env_step"],
        "pong.env_step.self_s": own["pong.env_step"],
        "encoder.encode.self_s": own["encoder.encode"],
        "encoder.active_channels.calls": calls["encoder.active_channels"],
        "encoder.useful_ratio": _ratio(non_empty_frames, calls["encoder.active_channels"]),
        "recording.record_pong_episode.self_s": own["recording.record_pong_episode"],
        "recording.steps_per_s": _ratio(recorded, total["recording.record_pong_episode"]),
        "records.to_bytes.s": total["records.to_bytes"],
        "records.from_bytes.s": total["records.from_bytes"],
        "records.bytes": written + read,
        "records.write_mb_per_s": _ratio(written / 1e6, total["records.to_bytes"]),
        "records.read_mb_per_s": _ratio(read / 1e6, total["records.from_bytes"]),
        "runner.replay.calls": calls["runner.replay"],
        "runner.replay.self_s": own["runner.replay"],
        # detector ticks per replay: the events a replay does not skip
        "runner.events": _ratio(calls["neuron.tick_sparse"], calls["runner.replay"]),
        "neuron.tick_sparse.calls": calls["neuron.tick_sparse"],
        "neuron.tick_sparse.self_s": own["neuron.tick_sparse"],
        "neuron.advance_to.calls": calls["neuron.advance_to"],
        "neuron.advance_to.self_s": own["neuron.advance_to"],
        "neuron.snapshot.s": total["neuron.save_snapshot"] + total["neuron.load_snapshot"],
        "plasticity.effective_rates.calls": calls["plasticity.effective_rates"],
        "plasticity.effective_rates.s": total["plasticity.effective_rates"],
        "plasticity.weight_of.calls": calls["plasticity.weight_of"],
        "plasticity.weight_of.s": total["plasticity.weight_of"],
        "metrics.score_run.calls": calls["metrics.score_run"],
        "metrics.score_run.s": total["metrics.score_run"],
        "ga.evaluate.calls": calls["ga.evaluate"],
        "ga.evaluate.unique_ratio": _ratio(
            len({tuple(g) for g in notes["ga.evaluate"]}), calls["ga.evaluate"]),
        "ga.evolve.s": total["ga.evolve"],
        "ga.genomes_per_s": _ratio(calls["ga.evaluate"], total["ga.run_ga"]),
        "cli.main.self_s": own["cli.main"],
    }


def evaluate_ms(tracer):
    """Durations of the GA evaluations a tracer saw, in milliseconds."""
    return [(end - start) * 1e3 for name, start, end, *_ in tracer.spans if name == "ga.evaluate"]
