"""Command-line front end: record, train, eval, ga, synthetic, export.

Exit codes: 0 on success, 2 on configuration errors (bad flags, bad
config files, malformed records or snapshots, inconsistent inputs), 3
on I/O errors (a missing or unreadable file, config files included).
Every refusal is one stderr line: ``error: PATH: REASON`` for an error that
names a file, and argparse's message alone for a refused argument.
Outputs are checked before any input is read (:func:`check_paths`).
A run's seed is its ``--seed`` flag alone (default 0). Config files hold model
and search parameters as flat ``key = value`` text, each key at most once,
one key per field of the subcommand's config class, whose field defaults are
the only defaults; ``--dump-config`` prints them in the same format. ``ga``'s
``max_generations = 0`` means no cap. ``train``/``eval --window`` default to
``GaConfig.eval_window_s``; ``train --out`` writes exactly the path given,
and ``--freeze-after`` takes the first report-window boundary at or after it.
"""

from __future__ import annotations

import argparse
import csv
import errno
import heapq
import math
import os
import stat
import sys
from functools import cache
from dataclasses import fields as dataclass_fields
from operator import itemgetter

from .encoder import N_CHANNELS, SECTION_SIZES
from .ga import GENE_NAMES, GaConfig, best_generation, run_ga, trailing_window
from .metrics import score_run
from .neuron import Detector
from .plasticity import PlasticityConfig
from .records import STEPS_PER_S, EpisodeRecord, check_seed
from .recording import record_pong_episode
from .runner import REPORT_WINDOW_STEPS, frozen_fires, train_on_record
# replay is not called here; kept because perfbench/tracing.py patches cli.replay
from .runner import replay  # noqa: F401
from .synthetic import SyntheticConfig, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def config_defaults(config_class) -> dict:
    """A config class's fields as config-file keys, each with its default."""
    return {f.name: f.default for f in dataclass_fields(config_class)}


def load_config(path, defaults: dict) -> dict:
    """Read a flat key=value file, coercing each value to its default's type.

    A file that cannot be opened raises ``OSError`` (exit code 3); one that
    is not UTF-8 text, ``ValueError``. A leading byte-order mark is skipped."""
    out = dict(defaults)
    seen: dict[str, int] = {}  # key -> the line that set it
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                         f"({exc.reason})") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        if key not in defaults:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeated "
                             f"(first set on line {seen[key]})")
        seen[key] = lineno
        try:
            out[key] = type(defaults[key])(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}")
    return out


def dump_config(defaults: dict) -> None:
    for key, value in defaults.items():
        print(f"{key} = {value}")


def build_config(args):
    """The subcommand's config: its class defaults, then the file."""
    defaults = config_defaults(args.config_class)
    return args.config_class(**(load_config(args.config, defaults) if args.config else defaults))


def _check_window(window_s: int) -> None:
    if window_s < 1:
        raise ValueError(f"--window must be >= 1 s, got {window_s}")


def r_label(window_s: int, record: EpisodeRecord) -> str:
    """R's label, naming the span scored: the window, or the whole shorter record."""
    return f"R({min(window_s, record.duration_s):.15g}s window)"


def write_output(path, write, *args) -> None:
    """``write(path, *args)``; an ``OSError`` naming no file (a failed write's) gets ``path``."""
    try:
        write(path, *args)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, exc.filename or path) from exc


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommands ------------------------------------------------------------

def cmd_record(args) -> int:
    rec = record_pong_episode(args.duration, args.seed, clock_mode=args.clock)
    write_output(args.out, rec.save)
    print(
        f"wrote {args.out}: {rec.n_steps} steps, "
        f"{len(rec.reward_steps)} rewards, {len(rec.punishment_steps)} punishments"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    _check_window(args.window)
    freeze_after = args.freeze_after
    if freeze_after is not None and not (math.isfinite(freeze_after) and freeze_after >= 0):
        raise ValueError(f"--freeze-after must be finite and >= 0 s, got {freeze_after:g}")
    cfg = build_config(args)
    rec = EpisodeRecord.load(args.record)
    freeze_at = None
    if freeze_after is not None:  # the first step at or after S, in exact integer arithmetic
        num, den = freeze_after.as_integer_ratio()
        freeze_at = -(-num * STEPS_PER_S // den)
    run, state = train_on_record(rec, Detector(rec.n_channels, cfg), freeze_at=freeze_at)
    trained = Detector.from_state(state)

    window = trailing_window(rec, args.window)
    try:
        r_text = f"{score_run(run.fire_steps, rec.reward_steps.tolist(), cfg.T_P, window):.4f}"
    except ValueError:  # R has no target period to measure: the outputs are still written
        r_text = "undefined (no reward in the window)"
    print(
        f"trained on {args.record}: {len(run.fire_steps)} fires, "
        f"stability {trained.stability:.2f}, {r_label(args.window, rec)} = {r_text}"
    )

    if args.out:
        write_output(args.out, trained.save_snapshot)
        print(f"wrote snapshot {args.out}")
    if args.report:
        seconds = REPORT_WINDOW_STEPS / STEPS_PER_S
        windows = zip(run.window_fires.tolist(), run.window_stability.tolist(),
                      run.window_abs_dw.tolist())
        write_output(args.report, write_csv,
                     ["window_start_s", "firing_hz", "stability", "abs_weight_change"],
                     ([i * REPORT_WINDOW_STEPS // STEPS_PER_S, f"{fires / seconds:.6g}",
                       f"{stability:.6g}", f"{dw:.6g}"]
                      for i, (fires, stability, dw) in enumerate(windows)))
        print(f"wrote report {args.report}")
    if args.resources:
        res, wts = trained.resources, trained.weights
        if rec.n_channels == N_CHANNELS:  # a pong record: name its encoder sections
            labels = [(name, k) for name, size in SECTION_SIZES.items() for k in range(size)]
        else:
            labels = [("channel", ch) for ch in range(rec.n_channels)]
        write_output(args.resources, write_csv,
                     ["section", "index_in_section", "channel", "resource", "weight"],
                     ([name, k, ch, f"{res[ch]:.9g}", f"{wts[ch]:.9g}"]
                      for ch, (name, k) in enumerate(labels)))
        print(f"wrote resources {args.resources}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_window(args.window)
    rec = EpisodeRecord.load(args.record)
    trained = Detector.load_snapshot(args.snapshot)
    fires = frozen_fires(rec, trained.weights)
    window = trailing_window(rec, args.window)
    r_value = score_run(fires, rec.reward_steps.tolist(), trained.cfg.T_P, window)
    print(f"{r_label(args.window, rec)} = {r_value:.4f}")
    return EXIT_OK


def cmd_ga(args) -> int:
    cfg = build_config(args)
    check_seed(args.seed)  # before the record is read
    history = run_ga(cfg, EpisodeRecord.load(args.record), args.seed)
    if args.out:
        write_output(args.out, write_csv, ["generation", "best_R", "mean_R", *GENE_NAMES],
                     ([i, f"{st.best_fitness:.9g}", f"{st.mean_fitness:.9g}",
                       *(f"{v:.9g}" for v in st.best_genome.as_tuple())]
                      for i, st in enumerate(history)))
        print(f"wrote history {args.out}")
    best = history[best_generation(history)]
    print(
        "best genome: "
        + " ".join(f"{n}={v:.6g}" for n, v in zip(GENE_NAMES, best.best_genome.as_tuple()))
    )
    print(f"best fitness: {best.best_fitness:.4f}")
    return EXIT_OK


def cmd_synthetic(args) -> int:
    rec = generate(build_config(args), args.seed)
    write_output(args.out, rec.save)
    print(f"wrote {args.out}: {rec.n_steps} steps, {len(rec.reward_steps)} rewards")
    return EXIT_OK


def cmd_export(args) -> int:
    rec = EpisodeRecord.load(args.record)
    events = sorted([(t, "reward", "") for t in rec.reward_steps.tolist()]
                    + [(t, "punishment", "") for t in rec.punishment_steps.tolist()])
    frames = ((t, "spikes", " ".join(map(str, chans))) for t, chans in rec.frames())
    # step order; at a step, its events before its spike frame (merge keeps ties in input order)
    write_output(args.out, write_csv, ["step", "kind", "channels"],
                 heapq.merge(events, frames, key=itemgetter(0)))
    print(f"wrote {args.out}")
    return EXIT_OK


# -- argument parsing -------------------------------------------------------

def path_arg(text: str) -> str:
    """The ``type`` of every path flag: no file has the empty path, so it is
    refused while the arguments are parsed, before any work."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def check_required(args) -> None:
    """Refuse missing ``needs`` flags in argparse's words, once ``--dump-config`` is answered."""
    missing = [f"--{name}" for name in getattr(args, "needs", ()) if getattr(args, name) is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")


def check_paths(args) -> None:
    """Refuse, before any input is read, an output path that names the file of
    another path flag (exit 2), then one that ``open`` would refuse at once:
    in a missing folder or one that is a file, or a folder itself (its
    ``OSError``, exit 3)."""
    def named(flags):
        return [(flag.option_strings[0], getattr(args, flag.dest)) for flag in flags
                if getattr(args, flag.dest) is not None]

    def same_file(a, b):  # one inode when both exist (a hard link too), else one real path
        try:
            return os.path.samefile(a, b)
        except OSError:
            return os.path.realpath(a) == os.path.realpath(b)

    outputs = named(args.outputs)
    for flag, path in outputs:
        for other, other_path in named(args.outputs + args.inputs):
            if other != flag and same_file(other_path, path):
                raise ValueError(f"{flag} and {other} both name {path}")
    for _, path in outputs:
        try:
            folder = os.stat(os.path.dirname(path) or os.curdir)
            code = (errno.ENOTDIR if not stat.S_ISDIR(folder.st_mode)
                    else errno.EISDIR if os.path.isdir(path) else 0)
        except OSError as exc:
            code = exc.errno
        if code:
            raise OSError(code, os.strerror(code), path)


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with ``ValueError``, which ``main`` prints on one
    line; ``add_subparsers`` makes the subcommands' parsers of this class too."""

    def error(self, message):
        raise ValueError(message)


@cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="causalneuron",
        description="Causal-precursor detector neuron: recording, training, "
        "evaluation and parameter search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand's path flags: ``inputs`` it reads, ``outputs`` it writes
    p = sub.add_parser("record", help="record a seeded pong episode")
    p.add_argument("--seed", type=int, default=0, help="seed of the episode")
    p.add_argument("--duration", type=float, default=2000.0, help="seconds")
    out = p.add_argument("--out", type=path_arg, required=True)
    p.add_argument("--clock", choices=("shared", "bernoulli"), default="shared")
    p.set_defaults(func=cmd_record, inputs=(), outputs=(out,))

    p = sub.add_parser("train", help="train a detector on a record")
    inputs = (p.add_argument("--record", type=path_arg),
              p.add_argument("--params", type=path_arg, dest="config", metavar="PARAMS",
                             help="plasticity parameter file (key = value)"))
    outputs = (p.add_argument("--out", type=path_arg,
                              help="snapshot output (.npz), written at exactly this path"),
               p.add_argument("--report", type=path_arg, help="time-series CSV, one row "
                              f"per {REPORT_WINDOW_STEPS:,} steps"),
               p.add_argument("--resources", type=path_arg, help="per-synapse resource CSV"))
    p.add_argument("--window", type=int, default=GaConfig.eval_window_s,
                   help="R window, seconds")
    p.add_argument("--freeze-after", type=float, default=None,
                   help=f"freeze plasticity at the first {REPORT_WINDOW_STEPS:,}-step "
                   "report-window boundary at or after this many seconds")
    p.add_argument("--dump-config", action="store_true")
    p.set_defaults(func=cmd_train, config_class=PlasticityConfig, needs=("record",),
                   inputs=inputs, outputs=outputs)

    p = sub.add_parser("eval", help="frozen-plasticity evaluation of a snapshot; "
                       "the plasticity parameters come from the snapshot")
    inputs = (p.add_argument("--record", type=path_arg),
              p.add_argument("--snapshot", type=path_arg))
    p.add_argument("--window", type=int, default=GaConfig.eval_window_s)
    p.set_defaults(func=cmd_eval, needs=("record", "snapshot"), inputs=inputs, outputs=())

    p = sub.add_parser("ga", help="genetic parameter search on a record")
    inputs = (p.add_argument("--record", type=path_arg),
              p.add_argument("--config", type=path_arg, help="GA config file (key = value)"))
    p.add_argument("--seed", type=int, default=0, help="seed of the search")
    out = p.add_argument("--out", type=path_arg, help="generation-history CSV")
    p.add_argument("--dump-config", action="store_true")
    p.set_defaults(func=cmd_ga, config_class=GaConfig, needs=("record",), inputs=inputs,
                   outputs=(out,))

    p = sub.add_parser("synthetic", help="generate a ground-truth causal record")
    config = p.add_argument("--config", type=path_arg)
    p.add_argument("--seed", type=int, default=0, help="seed of the record")
    out = p.add_argument("--out", type=path_arg)
    p.add_argument("--dump-config", action="store_true")
    p.set_defaults(func=cmd_synthetic, config_class=SyntheticConfig, needs=("out",),
                   inputs=(config,), outputs=(out,))

    p = sub.add_parser("export", help="dump a record as CSV for inspection")
    record = p.add_argument("--record", type=path_arg, required=True)
    out = p.add_argument("--out", type=path_arg, required=True)
    p.set_defaults(func=cmd_export, inputs=(record,), outputs=(out,))

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "dump_config", False):
            dump_config(config_defaults(args.config_class))
            return EXIT_OK
        check_required(args)
        check_paths(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # one form for every error that names a file
        text = exc if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        print(f"error: {text}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
