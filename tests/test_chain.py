"""The determinism contract as one table: a fixed CLI chain, and in
``CHAIN_PINS`` one sha256 per output (each command's stdout, each file it
writes, and the state each snapshot loads to). Other tests check behaviour by
equality or against a reference; the one other digest they hold is criterion
9's 2000 s record (``tests/test_acceptance.py``), too slow to make here.

The table holds in four modes: in this process, one step per test; again
with every reference in place of what it checks (the record decoder, training,
the GA's population replay and frozen replay on the scalar detector, and R on
interval sets); again in a subprocess with numpy's SIMD dispatch disabled; and
in CI, where the tests named ``pinned`` run with numpy's SIMD dispatch disabled.

A declared change of behaviour re-pins here, with the old and new values in
CHANGES.md. Run as a script, this module prints the chain's digests as JSON,
in the table's form:

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

import numpy as np
import pytest

import causalneuron
from causalneuron import cli, ga
from causalneuron.cli import EXIT_OK, main
from causalneuron.neuron import Detector
from causalneuron.plasticity import PlasticityConfig
from causalneuron.records import EpisodeRecord
from causalneuron.runner import replay

from reference import interval_score, reference_decode, replay_population_scalar, train_scalar

# The chain, in order. Each step's stdout is an output, and so is each file
# it writes (the path after --out, --report or --resources), and the state
# each snapshot that train writes loads to. Paths are relative to the working
# directory, since train's stdout names them.
INPUTS = {
    "params.txt": "d_bar = 0.5\nw_max = 0.9\n",  # fast plasticity: the snapshot fires
    "syn.cfg": "n_steps = 20000\n",
    "long.cfg": "n_steps = 131073\n",  # two 65,536-step noise blocks and one step
    "ga.cfg": "population_size = 20\neval_window_s = 10\nmax_generations = 2\n",
    "ga4.cfg": "population_size = 4\neval_window_s = 10\nmax_generations = 2\n",
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
    # the paper parameters, on a game record and on the default synthetic one
    "train paper shared": ["train", "--record", "shared.spkc", "--out", "paper.npz",
                           "--report", "paper.csv", "--resources", "paper-resources.csv"],
    "synthetic default": ["synthetic", "--out", "default.spkc"],
    "train paper default": ["train", "--record", "default.spkc", "--out", "default.npz",
                            "--report", "default.csv", "--resources", "default-resources.csv"],
    "train paper default --freeze-after 25": [
        "train", "--record", "default.spkc", "--freeze-after", "25", "--out", "frozen.npz",
        "--report", "frozen.csv", "--resources", "frozen-resources.csv"],
    # a snapshot trained to the end, evaluated on its own record and on a held-out one
    "train --params": ["train", "--record", "shared.spkc", "--params", "params.txt",
                       "--out", "params.npz"],
    "eval on shared": ["eval", "--record", "shared.spkc", "--snapshot", "params.npz"],
    "eval on bernoulli": ["eval", "--record", "bernoulli.spkc", "--snapshot", "params.npz"],
    # the search at P = 4, on the default record and on 20,000-step ones of two seeds
    "ga P4 default": ["ga", "--record", "default.spkc", "--config", "ga4.cfg",
                      "--out", "default-history.csv"],
    "ga P4 --seed 0": ["ga", "--record", "syn.spkc", "--config", "ga4.cfg", "--seed", "0",
                       "--out", "history0.csv"],
    "synthetic --seed 7": ["synthetic", "--config", "syn.cfg", "--seed", "7",
                           "--out", "syn7.spkc"],
    "ga P4 --seed 7": ["ga", "--record", "syn7.spkc", "--config", "ga4.cfg", "--seed", "7",
                       "--out", "history7.csv"],
    "synthetic 131073": ["synthetic", "--config", "long.cfg", "--out", "long.spkc"],
    # 30 s game records of two more seeds, on both clocks
    "record shared 3": ["record", "--seed", "3", "--duration", "30", "--out", "shared3.spkc"],
    "record bernoulli 3": ["record", "--seed", "3", "--duration", "30", "--clock", "bernoulli",
                           "--out", "bernoulli3.spkc"],
    "record shared 11": ["record", "--seed", "11", "--duration", "30", "--out", "shared11.spkc"],
    "record bernoulli 11": ["record", "--seed", "11", "--duration", "30", "--clock", "bernoulli",
                            "--out", "bernoulli11.spkc"],
}
WRITES = ("--out", "--report", "--resources")

# sha256 of each output of the chain
CHAIN_PINS = {
    "record shared stdout": "16507866183c05b72b78c3ed8d1baf563e084a2aaf55ec9d657e073838e364a4",
    "shared.spkc": "d8b8f6c4bd0246ef73b571dadc67181bc08143c30eb6c511b0e60a31f2fa360e",
    "record bernoulli stdout": "a9f6267b87e1eb5080fd7d7f3d2692cc3464bcdbd50f49eb53bba18a2eeb26de",
    "bernoulli.spkc": "02c11b932d44893281d7c3fa74e8d728944cb55d0a224bc323878e9b21e3a070",
    "synthetic stdout": "b6c4051ce20fa60361830d002438e0719fcde1f2b61e00289f260b05b4a5a1a5",
    "syn.spkc": "0ed0afba2d6fb1900dbbb6c32a6c6321d2615b13928df0a74df2af3606a12756",
    "train stdout": "8e0a39c8bc741a3d010b5ca5c9cb27101f9b07ae02b18b3c70bd74282493bba0",
    "snap.npz": "19ddbf9f27c246fdc79d72116644f92b19e7dc5c620e931383e5a598682b4129",
    "snap.npz loaded state": "ffd01ecd143cba8dce3dcdb8d36691a67b0b69d689d308ab58cb198c2094c60c",
    "report.csv": "d5cae1303b7ee718b0f913ce15ff083c5eba190c52fba6e0ae0aabe0a299cd11",
    "resources.csv": "bd914b241ed0574580ca20aeb810e67ab0180dc94e1955a8bbe070fdb8099b2a",
    "eval held-out stdout": "6c704dba7734207f63c2ec897a7fb956ff36f28f1da4818572494c428a44a30b",
    "ga stdout": "6b2b0306dfb0b20cb790ba645ebd54632a125c4a2c1dc95109679d16d6f700c5",
    "history.csv": "8e833760c59f9b3b7192bd4712e6093c56024c7f9b19194c7a69c0a41090ddb1",
    "export stdout": "29edee2eeb2cd79b9b885c15d96d7c073f1789f77771f72e268ad93a1779d7fa",
    "export.csv": "3e46bf09d76de67867ddfd45f75a820bede4963ade7984be8d6a33c5ffb3db3c",
    "train --dump-config stdout":
        "f48bc7220c668b8a394816979220f40995dd87355bc1839a04843cc1e8a33b6e",
    "ga --dump-config stdout": "e87746b269ee267496781608c531ed679384e5d21722817799d983d6eff7a11c",
    "synthetic --dump-config stdout":
        "1d9b62757f17ef4fd52837ce15085ebf344d68e5bf18e442700339965ebc5e02",
    "train paper shared stdout":
        "aa67b908898eb028e77309b8ece4def1ce7d90144a0b9ce6eef72052ac594653",
    "paper.npz": "c542a35d9937e355c9e4ddbf9b256261b64ab87991f15e8d8b2210130ae3cb0c",
    "paper.npz loaded state": "750033a5f78e2fd1cee3407d69701f6967951cfeaa7ea8a5e29e296ba4e96f96",
    "paper.csv": "72c4fd866e90cd332b4969bf272a0f4883f0c9071cccfb4412a69286114e00f1",
    "paper-resources.csv": "443ebbcac24e63d66ae8620e5d8a03f8fc6f5db2d6b6033fdf608e52bb50941b",
    "synthetic default stdout": "71338e61036492cf84bce13a08ed0541639b0e789bd256b782a9c20fdce3de3e",
    "default.spkc": "93f810e92c9c02b6ac1308c7b7126820f194f6f3e458119b345a693d46364bd7",
    "train paper default stdout":
        "dbe3449856dcceaf78ae01b19e351a9bc68281a4f54a8f9f2756258bd4d7a756",
    "default.npz": "8b5cd5e7b5e6ac995eeac32ef78f0eb38af244607b61487f9960dd659f4bfd4b",
    "default.npz loaded state": "6fd4d4241d4c2fc2bbf445ea64d52e0be216b2ef14e836c22c8fae6f9dee7b96",
    "default.csv": "fc5e8c04fd37979460e2d8debaef0bf8c42f181cb80cdeb5e283091fd1a7e423",
    "default-resources.csv": "752b1d6a8ea9e3c781c0497d067f87569c0c1f6e7cadac9f8ec412e5499bc2e1",
    "train paper default --freeze-after 25 stdout":
        "e1deaa3f3515d3c69c4f4d1821cb5608c928fec8f85eae6a325865fc0200f429",
    "frozen.npz": "2fd18993e273a7811cab5a785dcaffdce5c650ce5ce316ecd36065ac345a66e1",
    "frozen.npz loaded state": "7b1bb425f3ebc886bb13f12f359fab8bee71292a24a25c2e8ddeafaae1a37ec7",
    "frozen.csv": "ee1262730167269ccb9d5296a38c329007a24f38163905c5ea247deafeca93c7",
    "frozen-resources.csv": "42870d36e210ccf49939f0d77dfb97b47c4be539f0377f25eb7b13c42821485c",
    "train --params stdout": "4a5a250ce90f49d43bae8c67310d1f832c4bccbcc18b887f482fd214a6672458",
    "params.npz": "e11501f6c40c18a28ac546679f622406a9f0e7449bffb2811aec384d69571ac5",
    "params.npz loaded state": "a6974d81b380664e67a7a9b05c3ee89091fe7ea54e6f496d1c6124297f5e54d4",
    "eval on shared stdout": "0fd3178219b55407639f04c918d760d80710a3bccbae58698f2e0748b4aa3cf9",
    "eval on bernoulli stdout": "1249add41d739c7617c0a434428625e07faf70fb4cc7ae4948e41b6a2a18b5f9",
    "ga P4 default stdout": "4c2486a7a9d4fc53c657c69e4fbe3a7790a0d493251b3cad20ec89a0b036c3e0",
    "default-history.csv": "556777744d9549d2650f0f30baabae47d2225ceb529433a826ec98e4bf658f0f",
    "ga P4 --seed 0 stdout": "ef4220d49500753bc8524f4643ca79092b308bf27b81b4872fa9e591908e381c",
    "history0.csv": "151a62ef5583b242ea59afd2164bc1eaaf13ceb72963a0e832a543292d141d93",
    "synthetic --seed 7 stdout":
        "f91721b188df59667fcd1fc671d3d6b3f2549e720a2ca60cfe942739a88d41f2",
    "syn7.spkc": "2ee201b893eaca03c4df0bae5f06f9bd119cf4c2f753ca4cd88766efcbe8d134",
    "ga P4 --seed 7 stdout": "2ea3c14339b83b642c6254ca25c9427ca3e7a91d9215cb148f2f9a08ce4a488a",
    "history7.csv": "4aa40e67fb8f7e649f8323ceb58efdc4dd5c3b833405b8c2fd81805898e3d40b",
    "synthetic 131073 stdout": "90a374ba4ecc86205bae11b04c31063139415eb5df44ada002a5dc0a51706b51",
    "long.spkc": "9676c0f780b8e1770600010f0ad8d9351cd65aca6e653ac2552ab7ec341fb076",
    "record shared 3 stdout": "9a56c3ad74d5aac7f2688127d2fc1a18106fb2c178fa8e75add3957f8ab0b46c",
    "shared3.spkc": "5cc6d61b893afa4027c0fbfbbd63ad528835d4f75c4dba6f9f148d7a1738075e",
    "record bernoulli 3 stdout":
        "6fd611f86bcd62bc9f5867e23a260b1df0fedea9135639a9298e08a5957f8053",
    "bernoulli3.spkc": "e95fa8365929b578366e9dfefbc7a69edcbbb74e28bd4a7c854b9a81d120b757",
    "record shared 11 stdout": "d1e665947493099edc3e257fc0d0a7c2f80d13944f83326cc06ee83315bf8931",
    "shared11.spkc": "f449006b73f518eab855cc6caee81585465d368ee78203509436a277736b4edb",
    "record bernoulli 11 stdout":
        "28ac4a34b384c8b64542e939aa514e1a92efcba7292c42b39e08b3e48a22ea32",
    "bernoulli11.spkc": "eb906f6f3db6d9d8476b5bb6c5e46ce68ac61e763fc11f61e6f83257794fb4ab",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def loaded_state_digest(path) -> str:
    """The sha256 of the state a snapshot loads to: the config, the resources by
    float.hex, stability, step, presynaptic times, every TSS span, the depressed
    set while the latest TSS is open, the fire count and the total |weight change|."""
    det = Detector.load_snapshot(path)
    state = (sorted(vars(det.cfg).items()), [r.hex() for r in det.resources],
             det.stability.hex(), det.step, det.last_presyn,
             [list(span) for span in det.tss_spans],
             sorted(det.depressed) if det.tss_open else [],
             det.fire_count, det.total_abs_dw.hex())
    return sha256(repr(state).encode())


def outputs(step: str) -> list[str]:
    """A step's outputs, by their names in the table: its stdout, each file it
    writes, and the state each snapshot that train writes loads to."""
    argv = CHAIN[step]
    names = [f"{step} stdout"]
    for flag, path in zip(argv, argv[1:]):
        if flag in WRITES:
            names.append(path)
        if (argv[0], flag) == ("train", "--out"):
            names.append(f"{path} loaded state")
    return names


def chain_digests() -> dict[str, str]:
    """Run the chain in the working directory; the sha256 of each output."""
    for name, text in INPUTS.items():
        Path(name).write_text(text)
    digests = {}
    for step, argv in CHAIN.items():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == EXIT_OK, step
        for name in outputs(step):
            if name.endswith(" stdout"):
                digests[name] = sha256(out.getvalue().encode())
            elif name.endswith(" loaded state"):
                digests[name] = loaded_state_digest(name.removesuffix(" loaded state"))
            else:
                digests[name] = sha256(Path(name).read_bytes())
    return digests


def dispatch_targets() -> list[str]:
    """numpy's SIMD dispatch targets that this host has, and so uses."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The chain's digests, run once in process."""
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("chain"))
    try:
        return chain_digests()
    finally:
        os.chdir(cwd)


def test_the_table_names_each_output_of_the_chain_once():
    assert [name for step in CHAIN for name in outputs(step)] == list(CHAIN_PINS)


@pytest.mark.parametrize("step", CHAIN)
def test_chain_outputs_are_pinned(chain, step):
    """In process, one step at a time, so that a re-pin names the steps it moves."""
    assert {name: chain[name] for name in outputs(step)} == \
        {name: CHAIN_PINS[name] for name in outputs(step)}


def test_chain_outputs_are_pinned_through_the_scalar_references(tmp_path, monkeypatch):
    calls = []

    def logged(name, reference):
        def call(*args, **kwargs):
            calls.append(name)
            return reference(*args, **kwargs)
        return call

    def scalar_frozen_fires(record, weights):  # runner.replay of a frozen detector
        detector = Detector(len(weights), PlasticityConfig())
        detector.weights, detector.frozen = list(weights), True
        return replay(detector, record)

    def interval_score_runs(fire_trains, reward_steps, T_P, window):  # one run at a time
        rewards = np.asarray(reward_steps).tolist()
        return [interval_score(np.asarray(train).tolist(), rewards, T_P, window)
                for train in fire_trains]

    def interval_score_run(fire_steps, reward_steps, T_P, window):
        return interval_score(np.asarray(fire_steps).tolist(), reward_steps, T_P, window)

    monkeypatch.setattr(EpisodeRecord, "from_bytes",
                        staticmethod(logged("from_bytes", reference_decode)))
    monkeypatch.setattr(cli, "train_on_record", logged("train_on_record", train_scalar))
    monkeypatch.setattr(cli, "frozen_fires", logged("frozen_fires", scalar_frozen_fires))
    monkeypatch.setattr(cli, "score_run", logged("score_run", interval_score_run))
    monkeypatch.setattr(ga, "replay_population",
                        logged("replay_population", replay_population_scalar))
    monkeypatch.setattr(ga, "score_runs", logged("score_runs", interval_score_runs))
    monkeypatch.chdir(tmp_path)
    assert chain_digests() == CHAIN_PINS
    # each command that reads a record: the record, then for train scalar
    # training and R; for eval frozen replay and R; for ga, per generation (both
    # GA configs run 2), a check for a target period, the scalar replay of the
    # new genomes and their R; for export nothing more
    after_read = {"train": ["train_on_record", "score_run"],
                  "eval": ["frozen_fires", "score_run"],
                  "ga": ["score_runs", "replay_population", "score_runs"] * 2,
                  "export": []}
    assert calls == [call for argv in CHAIN.values() if "--record" in argv
                     for call in ["from_bytes", *after_read[argv[0]]]]


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
