"""The determinism contract as one table: a fixed small CLI chain, one sha256
per output, in this process, again with numpy's SIMD dispatch disabled, and
again with every record decoded by the one-varint-at-a-time reference.

Run as a script, this module prints the chain's digests as JSON:

    PYTHONPATH=src python tests/test_chain.py WORK_DIR
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalneuron
from causalneuron.cli import EXIT_OK, main
from causalneuron.records import EpisodeRecord

from reference import reference_decode

# The chain, in order. Each step's stdout is an output, and so is each file
# it writes (the path after --out, --report or --resources). Paths are
# relative to the working directory, since train's stdout names them.
INPUTS = {
    "params.txt": "d_bar = 0.5\nw_max = 0.9\n",  # fast plasticity: the snapshot fires
    "syn.cfg": "n_steps = 20000\n",
    "ga.cfg": "population_size = 20\neval_window_s = 10\nmax_generations = 2\n",
}
CHAIN = {
    "record shared": ["record", "--seed", "42", "--duration", "30", "--out", "shared.spkc"],
    "record bernoulli": ["record", "--seed", "7", "--duration", "30", "--clock", "bernoulli",
                         "--out", "bernoulli.spkc"],
    "synthetic": ["synthetic", "--config", "syn.cfg", "--seed", "0", "--out", "syn.spkc"],
    "train": ["train", "--record", "shared.spkc", "--params", "params.txt",
              "--freeze-after", "20", "--out", "snap.npz", "--report", "report.csv",
              "--resources", "resources.csv"],
    "eval held-out": ["eval", "--record", "bernoulli.spkc", "--snapshot", "snap.npz"],
    "ga": ["ga", "--record", "syn.spkc", "--config", "ga.cfg", "--seed", "0",
           "--out", "history.csv"],
    "export": ["export", "--record", "shared.spkc", "--out", "export.csv"],
    "train --dump-config": ["train", "--dump-config"],
    "ga --dump-config": ["ga", "--dump-config"],
    "synthetic --dump-config": ["synthetic", "--dump-config"],
}
WRITES = ("--out", "--report", "--resources")

# sha256 of each output of the chain. A declared change of behaviour re-pins
# here, with the old and new values in CHANGES.md.
CHAIN_PINS = {
    "record shared stdout": "16507866183c05b72b78c3ed8d1baf563e084a2aaf55ec9d657e073838e364a4",
    "shared.spkc": "d8b8f6c4bd0246ef73b571dadc67181bc08143c30eb6c511b0e60a31f2fa360e",
    "record bernoulli stdout": "a9f6267b87e1eb5080fd7d7f3d2692cc3464bcdbd50f49eb53bba18a2eeb26de",
    "bernoulli.spkc": "02c11b932d44893281d7c3fa74e8d728944cb55d0a224bc323878e9b21e3a070",
    "synthetic stdout": "b6c4051ce20fa60361830d002438e0719fcde1f2b61e00289f260b05b4a5a1a5",
    "syn.spkc": "0ed0afba2d6fb1900dbbb6c32a6c6321d2615b13928df0a74df2af3606a12756",
    "train stdout": "8e0a39c8bc741a3d010b5ca5c9cb27101f9b07ae02b18b3c70bd74282493bba0",
    "snap.npz": "19ddbf9f27c246fdc79d72116644f92b19e7dc5c620e931383e5a598682b4129",
    "report.csv": "d5cae1303b7ee718b0f913ce15ff083c5eba190c52fba6e0ae0aabe0a299cd11",
    "resources.csv": "bd914b241ed0574580ca20aeb810e67ab0180dc94e1955a8bbe070fdb8099b2a",
    "eval held-out stdout": "6c704dba7734207f63c2ec897a7fb956ff36f28f1da4818572494c428a44a30b",
    "ga stdout": "6b2b0306dfb0b20cb790ba645ebd54632a125c4a2c1dc95109679d16d6f700c5",
    "history.csv": "8e833760c59f9b3b7192bd4712e6093c56024c7f9b19194c7a69c0a41090ddb1",
    "export stdout": "29edee2eeb2cd79b9b885c15d96d7c073f1789f77771f72e268ad93a1779d7fa",
    "export.csv": "3e46bf09d76de67867ddfd45f75a820bede4963ade7984be8d6a33c5ffb3db3c",
    "train --dump-config stdout":
        "f48bc7220c668b8a394816979220f40995dd87355bc1839a04843cc1e8a33b6e",
    "ga --dump-config stdout": "de99a71cc5dba9e0feeb76506379b7492b12ffb9507fd868b2a82ad8dd6cb789",
    "synthetic --dump-config stdout":
        "1d9b62757f17ef4fd52837ce15085ebf344d68e5bf18e442700339965ebc5e02",
}


def chain_digests() -> dict[str, str]:
    """Run the chain in the working directory; the sha256 of each output."""
    for name, text in INPUTS.items():
        Path(name).write_text(text)
    outputs = {}
    for step, argv in CHAIN.items():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == EXIT_OK, step
        outputs[f"{step} stdout"] = out.getvalue().encode()
        for flag, path in zip(argv, argv[1:]):
            if flag in WRITES:
                outputs[path] = Path(path).read_bytes()
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def dispatch_targets() -> list[str]:
    """numpy's SIMD dispatch targets that this host has, and so uses."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def test_chain_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert chain_digests() == CHAIN_PINS


def test_chain_outputs_are_pinned_through_the_reference_decoder(tmp_path, monkeypatch):
    decoded = []

    def decode(raw):
        decoded.append(len(raw))
        return reference_decode(raw)

    monkeypatch.setattr(EpisodeRecord, "from_bytes", staticmethod(decode))
    monkeypatch.chdir(tmp_path)
    assert chain_digests() == CHAIN_PINS
    assert len(decoded) == 4  # train, eval, ga and export each read one record


def test_chain_outputs_are_pinned_with_simd_dispatch_disabled(tmp_path):
    targets = dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches to no SIMD target on this host (or all are disabled)")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=str(Path(causalneuron.__file__).parents[1]))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == CHAIN_PINS


if __name__ == "__main__":
    os.chdir(sys.argv[1])
    print(json.dumps(chain_digests(), indent=1))
