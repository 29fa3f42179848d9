"""Command-line front end: record, train, eval, ga, synthetic, export.

Exit codes: 0 on success, 2 on configuration errors (bad flags, bad
config files, malformed records or snapshots, inconsistent inputs), 3
on I/O errors. Config files are flat ``key = value`` text, one key per
field of the subcommand's config class, whose field defaults are the only
defaults; ``--dump-config`` prints them in the same format. ``ga``'s
``max_generations = 0`` means no cap. ``train``/``eval --window`` default to
``GaConfig.eval_window_s``; ``train --out`` writes exactly the path given,
and ``--freeze-after`` takes the first report-window boundary at or after it.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from functools import cache
from dataclasses import fields as dataclass_fields

from .encoder import N_CHANNELS, SECTION_SIZES
from .ga import GENE_NAMES, GaConfig, run_ga, trailing_window
from .metrics import score_run
from .neuron import Detector
from .plasticity import PlasticityConfig
from .records import EpisodeRecord
from .recording import record_pong_episode
from .runner import REPORT_WINDOW_STEPS, frozen_fires, train_on_record
# replay is not called here; kept because perfbench/tracing.py patches cli.replay
from .runner import replay  # noqa: F401
from .synthetic import SyntheticConfig, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

# Each config class's fields as config-file keys; the threshold H is not one.
PARAM_DEFAULTS = {
    f.name: f.default for f in dataclass_fields(PlasticityConfig) if f.name != "H"
}
GA_DEFAULTS = {f.name: f.default for f in dataclass_fields(GaConfig)}
SYNTHETIC_DEFAULTS = {f.name: f.default for f in dataclass_fields(SyntheticConfig)}


class ConfigError(ValueError):
    """Bad flag value or malformed config file (exit code 2, like any ValueError)."""


def load_config(path, defaults: dict) -> dict:
    """Read a flat key=value file, coercing each value to its default's type."""
    out = dict(defaults)
    try:
        fh = open(path, "r")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            if key not in defaults:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _coerce(value, defaults[key])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}")
    return out


def _coerce(text: str, default):
    if isinstance(default, tuple):
        return tuple(int(v) for v in text.replace(",", " ").split())
    return type(default)(text)


def dump_config(defaults: dict) -> None:
    for key, value in defaults.items():
        if isinstance(value, tuple):
            value = " ".join(str(v) for v in value)
        print(f"{key} = {value}")


def build_config(args):
    """The subcommand's config: its class defaults, then the file, then --seed."""
    values = load_config(args.config, args.defaults) if args.config else dict(args.defaults)
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    return args.config_class(**values)


def _check_window(window_s: int) -> None:
    if window_s < 1:
        raise ConfigError(f"--window must be >= 1 s, got {window_s}")


# -- subcommands ------------------------------------------------------------

def cmd_record(args) -> int:
    rec = record_pong_episode(args.duration, args.seed, clock_mode=args.clock)
    rec.save(args.out)
    print(
        f"wrote {args.out}: {rec.n_steps} steps, "
        f"{len(rec.reward_steps)} rewards, {len(rec.punishment_steps)} punishments"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    if not args.record:
        raise ConfigError("--record is required")
    _check_window(args.window)
    freeze_after = args.freeze_after
    if freeze_after is not None and not (math.isfinite(freeze_after) and freeze_after >= 0):
        raise ConfigError(f"--freeze-after must be finite and >= 0 s, got {freeze_after:g}")
    cfg = build_config(args)
    rec = EpisodeRecord.load(args.record)
    detector = Detector(rec.n_channels, cfg)
    freeze_at = None
    if freeze_after is not None:  # the first step at or after S, in exact integer arithmetic
        num, den = freeze_after.as_integer_ratio()
        freeze_at = -(-num * 1000 // (den * rec.step_ms))
    fires, rows = train_on_record(rec, detector, freeze_at=freeze_at)

    window = trailing_window(rec, args.window)
    try:
        r_text = f"{score_run(fires, rec.reward_steps.tolist(), cfg.T_P, window):.4f}"
    except ValueError:  # R has no target period to measure: the outputs are still written
        r_text = "undefined (no reward in the window)"
    print(
        f"trained on {args.record}: {len(fires)} fires, "
        f"stability {detector.stability:.2f}, R({args.window}s window) = {r_text}"
    )

    if args.out:
        detector.save_snapshot(args.out)
        print(f"wrote snapshot {args.out}")
    if args.report:
        with open(args.report, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["window_start_s", "firing_hz", "stability", "abs_weight_change"])
            window_ms = REPORT_WINDOW_STEPS * rec.step_ms
            for row in rows:
                start_s = row.window * window_ms // 1000
                writer.writerow(
                    [start_s, f"{row.fire_rate_hz:.6g}", f"{row.stability:.6g}",
                     f"{row.abs_weight_change:.6g}"]
                )
        print(f"wrote report {args.report}")
    if args.resources:
        res = detector.resource_array()
        wts = detector.weight_array()
        if rec.n_channels == N_CHANNELS:  # a pong record: name its encoder sections
            labels = [(name, k) for name, size in SECTION_SIZES.items() for k in range(size)]
        else:
            labels = [("channel", ch) for ch in range(rec.n_channels)]
        with open(args.resources, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["section", "index_in_section", "channel", "resource", "weight"])
            for ch, (name, k) in enumerate(labels):
                writer.writerow([name, k, ch, f"{res[ch]:.9g}", f"{wts[ch]:.9g}"])
        print(f"wrote resources {args.resources}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if not args.record or not args.snapshot:
        raise ConfigError("--record and --snapshot are required")
    _check_window(args.window)
    rec = EpisodeRecord.load(args.record)
    trained = Detector.load_snapshot(args.snapshot)
    fires = frozen_fires(rec, trained.weight_array(), trained.cfg.H)
    window = trailing_window(rec, args.window)
    r_value = score_run(fires, rec.reward_steps.tolist(), trained.cfg.T_P, window)
    print(f"R({args.window}s window) = {r_value:.4f}")
    return EXIT_OK


def cmd_ga(args) -> int:
    if not args.record:
        raise ConfigError("--record is required")
    cfg = build_config(args)
    rec = EpisodeRecord.load(args.record)
    best, history = run_ga(cfg, rec)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["generation", "best_R", "mean_R", *GENE_NAMES])
            for st in history:
                writer.writerow(
                    [st.generation, f"{st.best_fitness:.9g}", f"{st.mean_fitness:.9g}"]
                    + [f"{v:.9g}" for v in st.best_genome.as_tuple()]
                )
        print(f"wrote history {args.out}")
    print(
        "best genome: "
        + " ".join(f"{n}={v:.6g}" for n, v in zip(GENE_NAMES, best.as_tuple()))
    )
    print(f"best fitness: {max(st.best_fitness for st in history):.4f}")
    return EXIT_OK


def cmd_synthetic(args) -> int:
    if not args.out:
        raise ConfigError("--out is required")
    rec = generate(build_config(args))
    rec.save(args.out)
    print(f"wrote {args.out}: {rec.n_steps} steps, {len(rec.reward_steps)} rewards")
    return EXIT_OK


def cmd_export(args) -> int:
    rec = EpisodeRecord.load(args.record)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "kind", "channels"])
        events = sorted(
            [(int(t), "reward") for t in rec.reward_steps]
            + [(int(t), "punishment") for t in rec.punishment_steps]
        )
        ei = 0
        for t, chans in rec.frames():
            while ei < len(events) and events[ei][0] <= t:
                writer.writerow([events[ei][0], events[ei][1], ""])
                ei += 1
            writer.writerow([t, "spikes", " ".join(str(c) for c in chans)])
        for t, kind in events[ei:]:
            writer.writerow([t, kind, ""])
    print(f"wrote {args.out}")
    return EXIT_OK


# -- argument parsing -------------------------------------------------------

@cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalneuron",
        description="Causal-precursor detector neuron: recording, training, "
        "evaluation and parameter search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="record a seeded pong episode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=2000.0, help="seconds")
    p.add_argument("--out", required=True)
    p.add_argument("--clock", choices=("shared", "bernoulli"), default="shared")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("train", help="train a detector on a record")
    p.add_argument("--record")
    p.add_argument("--params", dest="config", metavar="PARAMS",
                   help="plasticity parameter file (key = value)")
    p.add_argument("--out", help="snapshot output (.npz), written at exactly this path")
    p.add_argument("--report",
                   help=f"time-series CSV, one row per {REPORT_WINDOW_STEPS:,} steps")
    p.add_argument("--resources", help="per-synapse resource CSV")
    p.add_argument("--window", type=int, default=GaConfig.eval_window_s,
                   help="R window, seconds")
    p.add_argument("--freeze-after", type=float, default=None,
                   help=f"freeze plasticity at the first {REPORT_WINDOW_STEPS:,}-step "
                   "report-window boundary at or after this many seconds")
    p.add_argument("--dump-config", action="store_true")
    p.set_defaults(func=cmd_train, config_class=PlasticityConfig, defaults=PARAM_DEFAULTS)

    p = sub.add_parser("eval", help="frozen-plasticity evaluation of a snapshot; "
                       "the plasticity parameters come from the snapshot")
    p.add_argument("--record")
    p.add_argument("--snapshot")
    p.add_argument("--window", type=int, default=GaConfig.eval_window_s)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ga", help="genetic parameter search on a record")
    p.add_argument("--record")
    p.add_argument("--config", help="GA config file (key = value)")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", help="generation-history CSV")
    p.add_argument("--dump-config", action="store_true")
    p.set_defaults(func=cmd_ga, config_class=GaConfig, defaults=GA_DEFAULTS)

    p = sub.add_parser("synthetic", help="generate a ground-truth causal record")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out")
    p.add_argument("--dump-config", action="store_true")
    p.set_defaults(func=cmd_synthetic, config_class=SyntheticConfig,
                   defaults=SYNTHETIC_DEFAULTS)

    p = sub.add_parser("export", help="dump a record as CSV for inspection")
    p.add_argument("--record", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "dump_config", False):
            dump_config(args.defaults)
            return EXIT_OK
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
