"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tiny(workload, seed=1, trace=False):
    return bench.run(workload, seed, 0, trace, size="tiny")


def calls(report):
    return {k: m["value"] for k, m in report["metrics"].items() if k.endswith(".calls")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_passes_with_declared_metrics(workload):
    untraced = tiny(workload)
    traced = tiny(workload, trace=True)
    assert untraced["error_rate"] == 0 and traced["error_rate"] == 0
    assert untraced["metrics"].keys() == {m["name"] for m in SPEC["end_to_end"]}
    assert traced["metrics"].keys() == {m["name"] for m in SPEC["per_layer"]}
    # tracing does not change what the program computes
    assert traced["digest"] == untraced["digest"]
    # the per-layer counts behind each workload's rationale
    layer = {name: m["value"] for name, m in traced["metrics"].items()}
    if workload == "pong_pipeline":
        assert layer["encoder.useful_ratio"] == 0.3
    if workload == "ga_search":
        assert layer["pong.env_step.calls"] == 0
        assert layer["ga.evaluate.unique_ratio"] < 1
    if workload == "heldout_eval":
        assert layer["plasticity.effective_rates.calls"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_determines_digest_and_counts(workload):
    a = tiny(workload, seed=1, trace=True)
    b = tiny(workload, seed=1, trace=True)
    c = tiny(workload, seed=2)
    assert a["digest"] == b["digest"]
    assert calls(a) == calls(b)
    assert a["digest"]["record_sha256"] != c["digest"]["record_sha256"]


def test_traced_run_restores_every_patched_attribute():
    before = [(holder, attr, original) for holder, attr, original, *_ in tracing.patch_points()]
    tracer = tracing.Tracer()
    with tracer:
        assert all(vars(holder)[attr] is not original for holder, attr, original in before)
    assert all(vars(holder)[attr] is original for holder, attr, original in before)
    tiny("pong_pipeline", trace=True)
    assert all(vars(holder)[attr] is original for holder, attr, original in before)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_default_seed_matches_stored_digest(workload):
    report = bench.run(workload, bench.DEFAULT_SEED, 0, False)
    assert report["failed"] == 0
    assert report["digest"] == bench.stored_digest(workload, bench.DEFAULT_SEED, "full")


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ga_search", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ga_search", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
