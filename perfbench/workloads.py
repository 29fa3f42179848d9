"""The three benchmark workloads over the record -> replay -> GA pipeline.

Each workload is driven only through the package's command line, called
in-process as ``causalneuron.cli.main(argv)``. A workload has three parts:

* ``setup(work_dir, seed, size)`` makes the inputs from the seed and
  returns a context; it is not timed as an operation;
* ``commands(ctx)`` lists the CLI calls of one operation; the benchmark
  runs and times them one by one, capturing their standard output;
* ``check(ctx, outputs)`` checks the files and outputs of the operation
  and returns its behaviour digest; it is not timed.

Every operation of a run repeats the same work on the same inputs, so its
digest must equal the first operation's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from pathlib import Path

# Input sizes. "full" is what the benchmark measures; "tiny" is for the
# benchmark's own tests.
SIZES = {
    "full": {
        "pong_s": 200,          # past the detector's silent start (~54 s at seed 42)
        "syn_steps": 60_000,    # criterion-8 shape: 30 channels, noise 0.008
        "ga_window_s": 30,
        "ga_population": 50,
        "ga_generations": 2,    # 100 evaluations per operation
        "train_s": 100,
        "heldout_n": 3,
        "heldout_s": 60,
    },
    "tiny": {
        "pong_s": 30,
        "syn_steps": 20_000,
        "ga_window_s": 10,
        "ga_population": 4,
        "ga_generations": 2,
        "train_s": 30,
        "heldout_n": 2,
        "heldout_s": 30,
    },
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def cli(argv):
    """Run one CLI command in-process; return its standard output."""
    import causalneuron.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = causalneuron.cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"{argv[0]} exited with {code}")
    return buf.getvalue()


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_resave(path):
    """Loading a written record and saving it again gives the same bytes."""
    from causalneuron.records import EpisodeRecord

    raw = Path(path).read_bytes()
    if EpisodeRecord.from_bytes(raw).to_bytes() != raw:
        raise CheckFailed(f"{path} does not re-encode to identical bytes")
    return hashlib.sha256(raw).hexdigest()


def snapshot_state(path):
    """Fire count and final stability stored in a detector snapshot."""
    import numpy as np

    with np.load(path) as data:
        return int(data["fire_count"]), repr(float(data["stability"]))


def parse_r(output):
    """The R value a train or eval command printed, as printed."""
    found = re.findall(r"R\(\d+s window\) = (\S+)", output)
    if len(found) != 1:
        raise CheckFailed(f"expected one R value in {output!r}")
    return found[0]


def derived_seeds(seed, n):
    """n further seeds drawn deterministically from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


class PongPipeline:
    """record (shared clock) -> train at the paper parameters -> eval."""

    name = "pong_pipeline"

    def setup(self, work_dir, seed, size):
        work_dir.mkdir(parents=True)
        return {"dir": work_dir, "seed": seed, "duration": SIZES[size]["pong_s"],
                "steps": SIZES[size]["pong_s"] * 1000}

    def commands(self, ctx):
        d = ctx["dir"]
        record, snapshot = d / "episode.spkc", d / "snapshot.npz"
        return [
            ["record", "--seed", ctx["seed"], "--duration", ctx["duration"], "--out", record],
            ["train", "--record", record, "--out", snapshot,
             "--report", d / "report.csv", "--resources", d / "resources.csv"],
            ["eval", "--record", record, "--snapshot", snapshot],
        ]

    def check(self, ctx, outputs):
        d = ctx["dir"]
        fires, stability = snapshot_state(d / "snapshot.npz")
        return {
            "record_sha256": check_resave(d / "episode.spkc"),
            "fires": fires,
            "stability": stability,
            "train_R": parse_r(outputs[1]),
            "eval_R": parse_r(outputs[2]),
        }


class GaSearch:
    """One `ga` call with a fixed generation count on a synthetic record."""

    name = "ga_search"

    def setup(self, work_dir, seed, size):
        s = SIZES[size]
        work_dir.mkdir(parents=True)
        syn_cfg, ga_cfg = work_dir / "synthetic.cfg", work_dir / "ga.cfg"
        record = work_dir / "synthetic.spkc"
        syn_cfg.write_text(
            f"n_channels = 30\nnoise_rate = 0.008\nn_steps = {s['syn_steps']}\n"
        )
        ga_cfg.write_text(
            f"population_size = {s['ga_population']}\n"
            f"eval_window_s = {s['ga_window_s']}\n"
            f"max_generations = {s['ga_generations']}\n"
            f"stagnation_generations = {s['ga_generations']}\n"
        )
        cli(["synthetic", "--config", syn_cfg, "--seed", seed, "--out", record])
        return {
            "dir": work_dir, "seed": seed, "record": record, "config": ga_cfg,
            "record_sha256": check_resave(record),
            "generations": s["ga_generations"],
            "steps": s["syn_steps"] * s["ga_population"] * s["ga_generations"],
        }

    def commands(self, ctx):
        return [["ga", "--record", ctx["record"], "--config", ctx["config"],
                 "--seed", ctx["seed"], "--out", ctx["dir"] / "history.csv"]]

    def check(self, ctx, outputs):
        history = ctx["dir"] / "history.csv"
        rows = history.read_text().splitlines()[1:]
        if len(rows) != ctx["generations"]:
            raise CheckFailed(f"expected {ctx['generations']} generations, got {len(rows)}")
        return {
            "record_sha256": ctx["record_sha256"],
            "history_sha256": sha256_file(history),
        }


class HeldoutEval:
    """Frozen evaluation of one snapshot on held-out Bernoulli-clock episodes."""

    name = "heldout_eval"

    def setup(self, work_dir, seed, size):
        s = SIZES[size]
        work_dir.mkdir(parents=True)
        train_seed, *heldout_seeds = derived_seeds(seed, 1 + s["heldout_n"])
        train_record, snapshot = work_dir / "train.spkc", work_dir / "snapshot.npz"
        cli(["record", "--seed", train_seed, "--duration", s["train_s"],
             "--out", train_record])
        check_resave(train_record)
        cli(["train", "--record", train_record, "--out", snapshot])
        records, digests = [], []
        for k, episode_seed in enumerate(heldout_seeds):
            path = work_dir / f"heldout{k}.spkc"
            cli(["record", "--seed", episode_seed, "--duration", s["heldout_s"],
                 "--clock", "bernoulli", "--out", path])
            records.append(path)
            digests.append(check_resave(path))
        fires, stability = snapshot_state(snapshot)
        return {
            "records": records, "snapshot": snapshot,
            "digest": {"record_sha256": digests, "fires": fires, "stability": stability},
            "steps": s["heldout_s"] * 1000 * s["heldout_n"],
        }

    def commands(self, ctx):
        return [["eval", "--record", path, "--snapshot", ctx["snapshot"]]
                for path in ctx["records"]]

    def check(self, ctx, outputs):
        return {**ctx["digest"], "heldout_R": [parse_r(out) for out in outputs]}


WORKLOADS = {w.name: w for w in (PongPipeline(), GaSearch(), HeldoutEval())}
