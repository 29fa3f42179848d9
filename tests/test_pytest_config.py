"""The repository's pytest settings: a failing test reports, it does not abort the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert False
'''


def test_a_failing_hypothesis_test_prints_its_example(tmp_path):
    # hypothesis imports libcst to report a failure, which warns on import;
    # turned into an error, that warning ended the session in INTERNALERROR
    (tmp_path / "test_one.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_one.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
