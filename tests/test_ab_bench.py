"""scripts/ab_bench.py: the summary arithmetic and the worktree's lifetime."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", PATH)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

METRICS = [{"name": "speed", "better": "higher", "bound": 0.1},
           {"name": "rss", "better": "lower", "bound": 0.1},
           {"name": "setup", "better": "lower", "bound": 0.1}]


def test_summary_on_fixed_numbers():
    base = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [15.0, 12.0, 10.0, 16.0, 18.0]
    pairs = [({"speed": b, "rss": 50.0, "setup": 1.0}, {"speed": c, "rss": r, "setup": s})
             for b, c, r, s in zip(base, change, [49.0, 50.0, 51.0, 48.0, 47.0],
                                   [1.2, 1.05, 1.11, 1.0, 1.3])]
    speed, rss, setup = ab_bench.summarize(METRICS, pairs)
    assert speed["base"] == (11.0, 12.0, 13.0)   # quartiles of 10, 11, 12, 13, 14
    assert speed["change"] == (12.0, 15.0, 16.0)
    assert speed["ratio"] == 15.0 / 12.0
    assert (speed["won"], speed["pairs"]) == (3, 5)  # 12 = 12 is a tie, 10 < 11 a loss
    assert rss["base"] == (50.0, 50.0, 50.0)
    assert rss["change"] == (48.0, 49.0, 50.0)
    assert rss["won"] == 3  # lower is better: 49, 48 and 47 win, 50 ties, 51 loses
    # the revision's speed spreads (13 - 11) / 12 > 0.1, and a change run of 10
    # loses to revision runs; rss spreads 0 and its median is better
    assert speed["verdict"] == "unresolved"
    assert rss["verdict"] == "within bound"
    assert setup["change"][1] == 1.11 and setup["verdict"] == "worse than bound"


def test_a_clean_sweep_resolves_a_wide_spread():
    pairs = [({"speed": b}, {"speed": b + 10.0}) for b in (10.0, 12.0, 11.0, 13.0, 14.0)]
    (row,) = ab_bench.summarize(METRICS[:1], pairs)
    assert row["verdict"] == "within bound"  # every change run beats every revision run


def test_summary_of_one_pair():
    (row,) = ab_bench.summarize(METRICS[:1], [({"speed": 2.0}, {"speed": 3.0})])
    assert row["base"] == (2.0, 2.0, 2.0) and row["change"] == (3.0, 3.0, 3.0)
    assert row["won"] == 1 and row["ratio"] == 1.5
    assert "won 1/1  within bound" in ab_bench.format_rows("w", [row])


@pytest.fixture
def repo(tmp_path):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    root = tmp_path / "repo"
    root.mkdir()
    (root / "file.txt").write_text("revision\n")
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "file.txt"], ["commit", "-q", "-m", "one"]):
        subprocess.run(git + args, check=True)
    (root / "file.txt").write_text("working tree\n")
    return root


def worktrees(root):
    out = subprocess.run(["git", "-C", str(root), "worktree", "list"], check=True,
                         capture_output=True, text=True).stdout
    return len(out.splitlines())


def test_pairs_alternate_and_the_worktree_is_removed(repo):
    calls = []

    def run(tree, workload):
        calls.append(((Path(tree) / "file.txt").read_text().strip(), workload))
        return {"speed": float(len(calls))}

    results = ab_bench.ab_pairs("HEAD", 2, ["a", "b"], run, root=repo, log=lambda line: None)
    assert calls == [("revision", "a"), ("working tree", "a"),
                     ("revision", "b"), ("working tree", "b"),
                     ("working tree", "a"), ("revision", "a"),
                     ("working tree", "b"), ("revision", "b")]
    assert results["a"] == [({"speed": 1.0}, {"speed": 2.0}), ({"speed": 6.0}, {"speed": 5.0})]
    assert worktrees(repo) == 1


def test_worktree_is_removed_when_a_run_fails(repo):
    seen = []

    def run(tree, workload):
        seen.append(Path(tree))
        raise RuntimeError("benchmark failed")

    with pytest.raises(RuntimeError, match="benchmark failed"):
        ab_bench.ab_pairs("HEAD", 3, ["a"], run, root=repo, log=lambda line: None)
    assert len(seen) == 1 and not seen[0].exists()
    assert worktrees(repo) == 1


def test_a_failed_run_keeps_the_completed_pairs(repo, monkeypatch, capsys):
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "a"}, {"name": "b"}], "end_to_end": METRICS[:1]}))
    calls = []

    def run_bench(tree, workload, seed):
        calls.append(workload)
        if len(calls) == 5:  # the first run of the second pair
            raise RuntimeError("a failed (exit 1)")
        return {"speed": float(len(calls))}

    monkeypatch.setattr(ab_bench, "ROOT", repo)
    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    monkeypatch.setattr(ab_bench.signal, "signal", lambda signum, handler: None)
    assert ab_bench.main(["--pairs", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ("a: median [quartiles], revision -> working tree\n"
                   "  speed                1 [1, 1] -> 2 [2, 2]  x2.000  won 1/1  within bound\n"
                   "b: median [quartiles], revision -> working tree\n"
                   "  speed                3 [3, 3] -> 4 [4, 4]  x1.333  won 1/1  within bound\n")
    assert err.endswith("error: a failed (exit 1)\n")
    assert len(calls) == 5 and worktrees(repo) == 1
