#!/usr/bin/env python3
"""Benchmark a git revision against the working tree in alternating pairs.

    python3 scripts/ab_bench.py --pairs 10 --seed 42
    python3 scripts/ab_bench.py --rev HEAD~1 --workload heldout_eval --pairs 10 --seed 7

Checks the revision (default ``HEAD``) out into a temporary ``git worktree``
and, for each pair, runs ``python3 perfbench/run.py --trace 0`` once there
and once in the working tree, for every workload asked for (default: all of
``BENCHMARK.json``). The side that runs first alternates from pair to pair,
so a host that slows down or speeds up over the run does not favour either.
The worktree is removed when the script ends, also on an error, Ctrl-C or
a kill (SIGTERM). When a run fails, the summary of the pairs completed so
far is printed before the error, and the exit status is 1.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
both sides' median and quartiles, the ratio of the medians (working tree
over revision), the pairs the working tree won (ties count for neither
side) and a verdict against the metric's ``bound``:

* ``worse than bound``: the working tree's median is worse than the
  revision's by more than the bound (a fraction of the revision's median);
* ``unresolved``: the revision's own spread, (q3 - q1) / median, is wider
  than the bound, unless every working-tree run beats every revision run;
* ``within bound``: every other case.

It needs no network and changes no file of the benchmark; each run
writes its report to its own tree's gitignored ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, change, sign, bound):
    """The module docstring's verdict on one metric's runs; ``sign`` is 1
    when higher is better, -1 when lower is."""
    b1, b2, b3 = quartiles(base)
    if sign * (statistics.median(change) - b2) < -bound * b2:
        return "worse than bound"
    if (b3 - b1) / b2 > bound and min(sign * c for c in change) <= max(sign * b for b in base):
        return "unresolved"
    return "within bound"


def summarize(metrics, pairs):
    """One row per end-to-end metric over paired runs.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries (``name``,
    ``better`` and ``bound``); ``pairs`` is a list of (revision, working
    tree) dicts from metric name to value. A pair is won when the working
    tree's value is better in the metric's direction.
    """
    rows = []
    for spec in metrics:
        name = spec["name"]
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1 if spec["better"] == "higher" else -1
        won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        rows.append({
            "metric": name,
            "base": quartiles(base),
            "change": quartiles(change),
            "ratio": statistics.median(change) / statistics.median(base),
            "won": won,
            "pairs": len(pairs),
            "verdict": verdict(base, change, sign, spec["bound"]),
        })
    return rows


def format_rows(workload, rows):
    lines = [f"{workload}: median [quartiles], revision -> working tree"]
    for row in rows:
        (b1, b2, b3), (c1, c2, c3) = row["base"], row["change"]
        lines.append(f"  {row['metric']:20s} {b2:.6g} [{b1:.6g}, {b3:.6g}] -> "
                     f"{c2:.6g} [{c1:.6g}, {c3:.6g}]  x{row['ratio']:.3f}  "
                     f"won {row['won']}/{row['pairs']}  {row['verdict']}")
    return "\n".join(lines)


def run_bench(tree, workload, seed):
    """Metric values of one ``perfbench/run.py --trace 0`` run in a tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        raise RuntimeError(f"{workload} in {tree} failed (exit {proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def ab_pairs(rev, n_pairs, workloads, run, root=ROOT, log=print, results=None):
    """Run each workload in ``n_pairs`` alternating pairs; returns
    {workload: [(revision metrics, working tree metrics), ...]}. A given
    ``results`` dict is filled as pairs complete, so it keeps them when a
    run raises."""
    results = {} if results is None else results
    tmp = Path(tempfile.mkdtemp(prefix="ab_bench-"))
    worktree = tmp / "rev"
    try:
        subprocess.run(["git", "-C", str(root), "worktree", "add", "--detach", "--quiet",
                        str(worktree), rev], check=True)
        for k in range(n_pairs):
            sides = [("revision", worktree), ("working tree", root)]
            if k % 2:
                sides.reverse()
            for workload in workloads:
                got = {}
                for side, tree in sides:
                    got[side] = run(tree, workload)
                    log(f"pair {k + 1}/{n_pairs} {workload} {side}: {got[side]}")
                results.setdefault(workload, []).append((got["revision"], got["working tree"]))
        return results
    finally:
        subprocess.run(["git", "-C", str(root), "worktree", "remove", "--force", str(worktree)],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(root), "worktree", "prune"], capture_output=True)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD", help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeat for several; default: every workload")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = args.workload or names
    # a plain kill ends Python without running `finally`; exit so it runs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def run(tree, workload):
        return run_bench(tree, workload, args.seed)

    results, error = {}, None
    try:
        ab_pairs(args.rev, args.pairs, workloads, run, root=ROOT, results=results,
                 log=lambda line: print(line, file=sys.stderr, flush=True))
    except (subprocess.CalledProcessError, RuntimeError) as exc:
        error = exc
    for workload, pairs in results.items():
        print(format_rows(workload, summarize(spec["end_to_end"], pairs)))
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
