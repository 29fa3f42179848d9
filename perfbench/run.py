"""Benchmark of the causalneuron pipeline: one workload per process.

    python3 perfbench/run.py --workload pong_pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The workload is set up several times, then run as a
closed loop (one client, one operation at a time) for ``--seconds``.
Every operation is checked. The last line of standard output is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``). A fuller report, with the
environment stamp, the digest and, when traced, every span, is written to
``perfbench/out/``. See ``perfbench/README.md``.
"""

from time import perf_counter

T_START = perf_counter()  # set-up time counts from here, before any import

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

from workloads import SIZES, WORKLOADS, CheckFailed, cli

# One thread per workload process, also inside numpy's BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 42
SETUP_REPEATS = 3
MIN_OPS = 2
PROBES_PER_CALL = 3


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


def read_text(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def git_commit():
    """Commit of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = (read_text(git / "HEAD") or "").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    value = read_text(git / ref)
    if value:
        return value.strip()
    for line in (read_text(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_sha256():
    """Digest of the package sources, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "causalneuron").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def loadavg():
    text = read_text("/proc/loadavg")
    return text.split()[:3] if text else None


def environment(loadavg_start, probe_ms):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "loadavg_start": loadavg_start,
        "loadavg_end": loadavg(),
        "host_probe_ms_median": statistics.median(probe_ms),
    }


def host_probe_ms():
    """Milliseconds a fixed pure-Python loop takes now.

    A shared host can switch between a fast and a 1.5x slower state for
    minutes at a time, and CPU time slows with wall time. The probe runs
    before every CLI call, outside its timing; its median shows how fast
    the host was during a run.
    """
    t0 = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    return (perf_counter() - t0) * 1e3


def import_package():
    """Import causalneuron from this checkout's src/, and nowhere else."""
    if not (SRC / "causalneuron" / "__init__.py").is_file():
        raise BenchError(f"no causalneuron package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import causalneuron.cli

    if Path(causalneuron.__file__).resolve().parent != SRC / "causalneuron":
        raise BenchError(f"imported causalneuron from {causalneuron.__file__}")


def import_seconds():
    """Seconds a fresh interpreter takes to import causalneuron.cli from src/."""
    code = ("from time import perf_counter; t = perf_counter(); import sys; "
            f"sys.path.insert(0, {str(SRC)!r}); import causalneuron.cli; "
            "print(perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


def stored_digest(workload, seed, size):
    if seed != DEFAULT_SEED or size != "full":
        return None
    return json.loads((BENCH_DIR / "digests.json").read_text())[workload]


def run_ops(workload, ctx, seconds, expected, state, tracer_factory=None):
    """Run operations until `seconds` have passed (at least MIN_OPS).

    Returns a list of (wall seconds, steps, tracer or None) for each
    operation that passed its checks; the wall time covers the operation's
    CLI calls only. Counts attempts and failures in `state`, which also
    carries the digest every operation must match and the host probes,
    taken before every CLI call.
    """
    done = []
    deadline = perf_counter() + seconds
    start_attempts = state["attempted"]
    while state["attempted"] - start_attempts < MIN_OPS or perf_counter() < deadline:
        state["attempted"] += 1
        tracer = tracer_factory() if tracer_factory else contextlib.nullcontext()
        try:
            outputs, wall = [], 0.0
            with tracer:
                for argv in workload.commands(ctx):
                    state["host_probe_ms"] += [host_probe_ms() for _ in range(PROBES_PER_CALL)]
                    t0 = perf_counter()
                    outputs.append(cli(argv))
                    wall += perf_counter() - t0
            digest = workload.check(ctx, outputs)
            if state["digest"] is None:
                state["digest"] = digest
            if digest != state["digest"]:
                raise CheckFailed(f"digest {digest} differs from the first {state['digest']}")
            if expected is not None and digest != expected:
                raise CheckFailed(f"digest {digest} differs from the stored {expected}")
        except Exception:
            state["failed"] += 1
            traceback.print_exc()
            continue
        done.append((wall, ctx["steps"], tracer if tracer_factory else None))
    return done


def with_units(values):
    """Attach to each metric value its unit as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def traced_metrics(untraced, traced):
    """Per-layer metrics: the median over traced operations, plus pooled
    GA evaluation percentiles and the tracing overhead."""
    from tracing import evaluate_ms, layer_metrics

    per_op = [layer_metrics(tr) for _, _, tr in traced]
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    evals = sorted(ms for _, _, tr in traced for ms in evaluate_ms(tr))
    metrics["ga.evaluate.ms_p50"] = statistics.median(evals) if evals else 0.0
    # p90 needs at least ten evaluations beyond it
    metrics["ga.evaluate.ms_p90"] = (
        statistics.quantiles(evals, n=10)[-1] if len(evals) >= 100 else 0.0)
    metrics["trace.overhead_ratio"] = (statistics.median(w for w, _, _ in traced)
                                       / statistics.median(w for w, _, _ in untraced) - 1.0)
    spans = [[k, *span] for k, (_, _, tr) in enumerate(traced) for span in tr.spans]
    return with_units(metrics), {"spans": spans, "per_step": [tr.steps for _, _, tr in traced]}


def run(workload_name, seed, seconds, trace, size="full"):
    """Set up and run one workload; return the full report as a dict."""
    loadavg_start = loadavg()
    import_package()
    # This process's import is one sample; fresh interpreters give the others.
    import_walls = [perf_counter() - T_START]
    import_walls += [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    workload = WORKLOADS[workload_name]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT_DIR))
    try:
        setup_walls = []
        for k in range(SETUP_REPEATS):
            t0 = perf_counter()
            ctx = workload.setup(work / f"setup{k}", seed, size)
            setup_walls.append(perf_counter() - t0)
        setup_s = statistics.median(import_walls) + statistics.median(setup_walls)

        state = {"attempted": 0, "failed": 0, "digest": None, "host_probe_ms": []}
        expected = stored_digest(workload_name, seed, size)
        extra = {}
        if trace:
            from tracing import Tracer

            untraced = run_ops(workload, ctx, seconds / 2, expected, state)
            traced = run_ops(workload, ctx, seconds / 2, expected, state, Tracer)
            if not untraced or not traced:
                raise BenchError("no operation passed its checks")
            metrics, extra = traced_metrics(untraced, traced)
        else:
            done = run_ops(workload, ctx, seconds, expected, state)
            if not done:
                raise BenchError("no operation passed its checks")
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            steps_per_s = sum(steps for _, steps, _ in done) / sum(wall for wall, _, _ in done)
            probe_s = statistics.median(state["host_probe_ms"]) / 1e3
            metrics = with_units({
                "setup_s": setup_s,
                # Throughput in units of the host probe's duration, which
                # cancels most of the host's own speed changes: on a noisy
                # shared host steps per second alone spread by up to a
                # quarter between runs of the same code.
                "sim_steps_per_probe": steps_per_s * probe_s,
                "peak_rss_mb": rss_mb,
            })
            extra = {"sim_steps_per_s": steps_per_s, "op_walls_s": [wall for wall, _, _ in done]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "environment": environment(loadavg_start, state["host_probe_ms"]),
        "ops": state["attempted"] - state["failed"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "error_rate": state["failed"] / state["attempted"],
        "digest": state["digest"],
        "host_probe_ms": state["host_probe_ms"],
        "setup_walls_s": setup_walls,
        "import_walls_s": import_walls,
        "metrics": metrics,
        **extra,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print("environment " + json.dumps(report["environment"]))
    print("digest " + json.dumps(report["digest"]))
    print(f"ops {report['ops']} attempted {report['attempted']} "
          f"failed {report['failed']} error_rate {report['error_rate']:.4g}")
    if "sim_steps_per_s" in report:
        print(f"sim_steps_per_s = {report['sim_steps_per_s']:.6g} 1/s")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"report {out.relative_to(ROOT)}")
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
