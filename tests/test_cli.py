"""Command-line interface: exit codes, config files, end-to-end flows."""

import contextlib
import csv
import errno
import hashlib
import io
import math
import os
import re
import sys
import zipfile

import numpy as np
import pytest

from causalneuron import cli, pong
from causalneuron import ga as ga_module
from causalneuron.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    config_defaults,
    load_config,
    main,
)
from causalneuron.ga import GaConfig, run_ga
from causalneuron.metrics import score_run
from causalneuron.neuron import Detector, DetectorState
from causalneuron.plasticity import PlasticityConfig
from causalneuron.records import EpisodeRecord
from causalneuron.recording import record_pong_episode
from causalneuron.runner import replay
from causalneuron.synthetic import SyntheticConfig

from reference import frozen_clone, spkc_bytes


# (w_min, w_max, the starting weight): weight 0 needs an infinite resource,
# the span overflows, and the weight of the starting resource overflows
NON_FINITE_START = [(-1.0, 5e-324, math.nan), (-1e308, 1e308, math.nan),
                    (-1.3e154, 1.0, math.inf)]


@pytest.fixture(scope="module")
def syn_record(tmp_path_factory):
    path = tmp_path_factory.mktemp("records") / "syn.spkc"
    assert main(["synthetic", "--out", str(path), "--seed", "0"]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def params_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "params.txt"
    path.write_text("d_bar = 0.2\nd_s = 0.5\n")
    return path


class TestConfigFiles:
    def test_dump_config_round_trips(self, tmp_path, capsys):
        for sub, config_class in (
            ("train", PlasticityConfig),
            ("ga", GaConfig),
            ("synthetic", SyntheticConfig),
        ):
            defaults = config_defaults(config_class)
            assert main([sub, "--dump-config"]) == EXIT_OK
            text = capsys.readouterr().out
            path = tmp_path / f"{sub}.txt"
            path.write_text(text)
            assert load_config(path, defaults) == defaults

    def test_synthetic_defaults_come_from_the_config_class(self, capsys):
        assert main(["synthetic", "--dump-config"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "n_channels = 20\nlag = 100\nn_steps = 300000\nnoise_rate = 0.001\n"
        )
        assert config_defaults(SyntheticConfig) == vars(SyntheticConfig())

    def test_train_defaults_are_the_paper_values(self, capsys):
        assert main(["train", "--dump-config"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "d_bar = 0.056\nw_min = -0.017\nw_max = 0.48\nd_s = 0.23\nT_P = 100\n"
        )

    def test_ga_defaults_come_from_the_config_class(self, capsys):
        assert main(["ga", "--dump-config"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "population_size = 300\nstagnation_generations = 3\neval_window_s = 600\n"
            "max_generations = 0\n"
        )
        assert config_defaults(GaConfig) == vars(GaConfig())

    @pytest.mark.parametrize("argv", [["ga", "--record", "r.spkc"],
                                      ["synthetic", "--out", "s.spkc"]])
    def test_a_seed_key_is_unknown(self, tmp_path, capsys, argv):
        # a seed is the --seed flag only
        path = tmp_path / "seeded.txt"
        path.write_text("seed = 1\n")
        assert main([*argv, "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {path}:1: unknown key 'seed'\n"

    @pytest.mark.parametrize("line", ["cause_channels = 2 7 13", "min_gap = 300",
                                      "max_gap = 99999999999999999999"])
    def test_the_planted_structure_is_not_a_key(self, tmp_path, capsys, line):
        # the causes and their spacing are synthetic.py's constants
        path = tmp_path / "syn.txt"
        path.write_text(f"n_steps = 2000\n{line}\n")
        out = tmp_path / "s.spkc"
        assert main(["synthetic", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        key = line.partition(" ")[0]
        assert capsys.readouterr().err == f"error: {path}:2: unknown key {key!r}\n"
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("no_such_knob = 3\n")
        with pytest.raises(Exception):
            load_config(path, config_defaults(PlasticityConfig))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# comment\n\nd_bar = 0.1\n")
        assert load_config(path, config_defaults(PlasticityConfig))["d_bar"] == 0.1

    def test_type_coercion_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("d_bar = banana\n")
        with pytest.raises(Exception):
            load_config(path, config_defaults(PlasticityConfig))

    def test_repeated_key_is_config_error_naming_both_lines(self, tmp_path, syn_record,
                                                            capsys):
        path = tmp_path / "twice.txt"
        path.write_text("d_bar = 0.1\n# a comment\nd_s = 0.3\nd_bar = 0.2\n")
        assert main(["train", "--record", str(syn_record), "--params", str(path)]) \
            == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}:4: key 'd_bar' repeated (first set on line 1)\n")

    @pytest.mark.parametrize("argv", [
        ["train", "--record", "r.spkc", "--params"],
        ["ga", "--record", "r.spkc", "--config"],
        ["synthetic", "--out", "s.spkc", "--config"],
    ])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_config_file_is_io_error(self, tmp_path, capsys, argv, target):
        path = tmp_path / "nope.txt" if target == "missing" else tmp_path
        assert main([*argv, str(path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = "No such file or directory" if target == "missing" else "Is a directory"
        assert captured.err == f"error: {path}: {reason}\n"

    def test_config_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xffd_bar = 0.1\n")
        assert main(["train", "--record", "r.spkc", "--params", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text: byte 0xff (invalid start byte)\n"

    def test_config_file_with_a_byte_order_mark_is_read(self, tmp_path, capsys):
        text = b"noise_rate = 0.002\nn_steps = 2000\n"
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            (tmp_path / f"{name}.cfg").write_bytes(data)
            argv = ["synthetic", "--config", str(tmp_path / f"{name}.cfg"),
                    "--out", str(tmp_path / f"{name}.spkc")]
            assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert (tmp_path / "bom.spkc").read_bytes() == (tmp_path / "plain.spkc").read_bytes()


class TestExitCodes:
    def test_missing_record_is_io_error(self, tmp_path):
        assert main(["train", "--record", str(tmp_path / "nope.spkc")]) == EXIT_IO

    @pytest.mark.parametrize("argv", [
        ["train", "--record", "{missing}"],
        ["eval", "--record", "{missing}", "--snapshot", "{snapshot}"],
        ["ga", "--record", "{missing}"],
        ["export", "--record", "{missing}", "--out", "{tmp}/x.csv"],
        ["eval", "--record", "{record}", "--snapshot", "{missing}"],
        ["train", "--record", "{record}", "--params", "{missing}"],
        ["ga", "--record", "{record}", "--config", "{missing}"],
        ["synthetic", "--config", "{missing}", "--out", "{tmp}/s.spkc"],
        ["record", "--duration", "1", "--out", "{missing}"],
    ], ids=["train", "eval", "ga", "export", "snapshot", "params", "ga-config",
            "synthetic-config", "record-out"])
    def test_a_file_error_names_the_path(self, tmp_path, syn_record, capsys, argv):
        snapshot = tmp_path / "snap.npz"
        Detector(20, PlasticityConfig()).save_snapshot(snapshot)
        missing = tmp_path / "no-such-dir" / "missing.file"
        names = dict(missing=missing, snapshot=snapshot, record=syn_record, tmp=tmp_path)
        assert main([arg.format(**names) for arg in argv]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    # every path flag, with the other flags a run that would write files needs
    PATH_RUNS = {
        "record": {"--duration": "1", "--out": "r.spkc"},
        "train": {"--record": "{record}", "--params": "{params}", "--out": "t.npz",
                  "--report": "t.csv", "--resources": "res.csv"},
        "eval": {"--record": "{record}", "--snapshot": "{snapshot}"},
        "ga": {"--record": "{record}", "--config": "{ga_config}", "--out": "ga.csv"},
        "synthetic": {"--config": "{syn_config}", "--out": "s.spkc"},
        "export": {"--record": "{record}", "--out": "x.csv"},
    }

    # the flags of PATH_RUNS a command writes: those not named after an input
    OUTPUTS = [(command, flag) for command, run in PATH_RUNS.items()
               for flag, value in run.items() if flag != "--duration" and "{" not in value]

    @pytest.fixture
    def path_run(self, tmp_path, syn_record, params_file, monkeypatch):
        """(a function giving a command's PATH_RUNS argv with some values
        replaced, the folder of its inputs, the empty work folder it runs in)."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        names = dict(record=inputs / "syn.spkc", params=inputs / "params.txt",
                     snapshot=inputs / "snap.npz", ga_config=inputs / "ga.cfg",
                     syn_config=inputs / "syn.cfg")
        names["record"].write_bytes(syn_record.read_bytes())
        names["params"].write_bytes(params_file.read_bytes())
        Detector(20, PlasticityConfig()).save_snapshot(names["snapshot"])
        names["ga_config"].write_text("population_size = 4\neval_window_s = 10\n"
                                      "max_generations = 1\n")
        names["syn_config"].write_text("n_steps = 20000\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)

        def argv(command, **values):
            run = {flag: value.format(**names) for flag, value in self.PATH_RUNS[command].items()}
            run.update(values)
            return [command, *(part for item in run.items() for part in item)]

        return argv, inputs, work

    @staticmethod
    def contents(folder):
        return {path.name: path.read_bytes() for path in folder.iterdir()}

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, run in PATH_RUNS.items() for flag in run
        if flag != "--duration"])
    def test_an_empty_path_is_refused_before_any_work(self, path_run, capsys, command, flag):
        argv, _, work = path_run
        assert main(argv(command, **{flag: ""})) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: argument {flag}: empty path\n")
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("command, output, other", [
        (command, output, other) for command, run in PATH_RUNS.items()
        for output in run if output != "--duration" and "{" not in run[output]
        # each input, and each output after it: the message names the earlier output
        for other in run if other != "--duration"
        and ("{" in run[other] or list(run).index(other) > list(run).index(output))])
    def test_an_output_naming_another_path_is_refused_before_any_work(
            self, path_run, capsys, command, output, other):
        argv, inputs, work = path_run
        before = self.contents(inputs)
        values = dict(zip(argv(command)[1::2], argv(command)[2::2]))
        # the same file by another spelling: os.path.realpath makes them one
        same = os.path.join(os.path.dirname(values[other]), ".", os.path.basename(values[other]))
        assert main(argv(command, **{output: same})) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {output} and {other} both name {same}\n")
        assert self.contents(inputs) == before
        assert list(work.iterdir()) == []

    def test_an_output_that_is_a_hard_link_to_an_input_is_refused(self, path_run, capsys):
        argv, inputs, work = path_run
        os.link(inputs / "syn.spkc", work / "link.spkc")
        before = self.contents(inputs)
        assert main(argv("export", **{"--out": "link.spkc"})) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --out and --record both name link.spkc\n"
        assert self.contents(inputs) == before

    @pytest.mark.parametrize("command, output", OUTPUTS)
    def test_an_output_in_a_missing_folder_is_refused_before_any_input_is_read(
            self, path_run, monkeypatch, capsys, command, output):
        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(EpisodeRecord, "load", unread)
        for name in ("load_config", "record_pong_episode", "generate"):
            monkeypatch.setattr(cli, name, unread)
        argv, _, work = path_run
        missing = os.path.join("nodir", "out.file")
        assert main(argv(command, **{output: missing})) == EXIT_IO
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {missing}: No such file or "
                                                    "directory\n")
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("full", ["/dev/full", "a patched writer"])
    @pytest.mark.parametrize("command, output", OUTPUTS)
    def test_a_write_that_fails_after_open_names_its_file(
            self, path_run, monkeypatch, capsys, command, output, full):
        argv, _, _ = path_run
        if full == "/dev/full":  # open succeeds, and every write fails with ENOSPC
            if not os.path.exists(full):
                pytest.skip("this host has no /dev/full")
            target = full
        else:
            target = "out.file"

            def failing(write):  # refuses the target, as a full disk would, with no file name
                def call(*args):
                    if target in args[:2]:  # the path comes first, or after self
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                    return write(*args)
                return call

            monkeypatch.setattr(EpisodeRecord, "save", failing(EpisodeRecord.save))
            monkeypatch.setattr(DetectorState, "save", failing(DetectorState.save))
            monkeypatch.setattr(cli, "write_csv", failing(cli.write_csv))
        assert main(argv(command, **{output: target})) == EXIT_IO
        assert capsys.readouterr().err == f"error: {target}: No space left on device\n"

    @pytest.mark.parametrize("where, reason", [
        ("{record}/out.csv", "Not a directory"),  # a folder that is a file
        (".", "Is a directory"),
    ])
    def test_an_output_open_would_refuse_is_refused_before_any_work(
            self, path_run, monkeypatch, capsys, where, reason):
        monkeypatch.setattr(cli, "write_csv", None)  # the export is not run
        argv, inputs, _ = path_run
        out = where.format(record=inputs / "syn.spkc")
        assert main(argv("export", **{"--out": out})) == EXIT_IO
        assert capsys.readouterr().err == f"error: {out}: {reason}\n"

    def test_ga_checks_the_seed_before_reading_the_record(self, tmp_path, capsys):
        argv = ["ga", "--record", str(tmp_path / "missing.spkc"), "--seed", "-1"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv, message", [
        (["record", "--seed", "1"], "the following arguments are required: --out"),
        (["export", "--record", "x.spkc"], "the following arguments are required: --out"),
        (["record", "--seed", "abc", "--out", "a.spkc"],
         "argument --seed: invalid int value: 'abc'"),
        (["eval", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        # flags checked after parsing, since --dump-config does without them: the same words
        (["train", "--window", "5"], "the following arguments are required: --record"),
        (["ga", "--seed", "1"], "the following arguments are required: --record"),
        (["synthetic", "--seed", "1"], "the following arguments are required: --out"),
        (["eval", "--record", "r.spkc"], "the following arguments are required: --snapshot"),
        (["eval"], "the following arguments are required: --record, --snapshot"),
    ])
    def test_an_argument_error_is_one_line(self, capsys, argv, message):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["record", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: causalneuron record ")

    def test_bad_params_is_config_error(self, tmp_path, syn_record):
        bad = tmp_path / "bad.txt"
        bad.write_text("w_min = 0.5\n")  # w_min must be negative
        assert main(
            ["train", "--record", str(syn_record), "--params", str(bad)]
        ) == EXIT_CONFIG

    def test_non_finite_param_is_config_error(self, tmp_path, syn_record, capsys):
        bad = tmp_path / "nan.txt"
        bad.write_text("d_bar = nan\n")
        assert main(
            ["train", "--record", str(syn_record), "--params", str(bad)]
        ) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: d_bar must be finite, got nan\n"

    @pytest.mark.parametrize("w_min, w_max, w0", NON_FINITE_START)
    def test_params_with_a_non_finite_starting_weight_is_config_error(
            self, tmp_path, syn_record, capsys, w_min, w_max, w0):
        bad = tmp_path / "extreme.txt"
        bad.write_text(f"w_min = {w_min}\nw_max = {w_max}\n")
        assert main(
            ["train", "--record", str(syn_record), "--params", str(bad)]
        ) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: w_min {w_min} and w_max {w_max} give a non-finite starting weight {w0}\n"

    def test_unknown_config_key_is_config_error(self, tmp_path, syn_record):
        bad = tmp_path / "bad.txt"
        bad.write_text("bogus = 1\n")
        assert main(
            ["train", "--record", str(syn_record), "--params", str(bad)]
        ) == EXIT_CONFIG

    def test_negative_duration_rejected(self, tmp_path):
        out = tmp_path / "r.spkc"
        assert main(["record", "--duration", "-5", "--out", str(out)]) == EXIT_CONFIG

    def test_infinite_duration_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.spkc"
        assert main(["record", "--duration", "inf", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: duration must be finite, got inf\n"
        assert not out.exists()

    def test_duration_below_one_step_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.spkc"
        assert main(["record", "--duration", "0.0004", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "shorter than one 1 ms step" in err
        assert not out.exists()


LONGEST = "18,446,744,073,709,551.615"  # 2**64 - 1 steps of 1 ms, in seconds


class TestHeaderLimits:
    """A value the record header cannot hold ends in exit 2, one line, no file,
    and the recorder refuses it before it walks the world."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("the world was walked")

        monkeypatch.setattr(pong, "trajectory", no_walk)

    def run(self, argv, out, capsys):
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: bad record: ")
        assert not out.exists()
        return err

    def test_synthetic_channel_count_beyond_uint16(self, tmp_path, capsys):
        cfg = tmp_path / "syn.txt"
        cfg.write_text("n_channels = 70000\nn_steps = 2000\nnoise_rate = 0.0\n")
        err = self.run(["synthetic", "--config", str(cfg)], tmp_path / "s.spkc", capsys)
        assert "n_channels 70000" in err and "0 to 65535" in err

    def test_synthetic_seed_beyond_uint64(self, tmp_path, capsys):
        cfg = tmp_path / "syn.txt"
        cfg.write_text("n_steps = 2000\n")
        err = self.run(["synthetic", "--config", str(cfg), "--seed", str(2**64)],
                       tmp_path / "s.spkc", capsys)
        assert f"seed {2**64}" in err and f"0 to {2**64 - 1}" in err

    def test_record_seed_beyond_uint64(self, tmp_path, capsys, no_walk):
        err = self.run(["record", "--seed", str(2**64), "--duration", "1"],
                       tmp_path / "r.spkc", capsys)
        assert f"seed {2**64}" in err

    @pytest.mark.parametrize("duration, shown", [
        ("18446744073709551.615", "18,446,744,073,709,552.000"),  # the limit, as a float
        ("99999999999999984", "99,999,999,999,999,984.000"),  # the last float below 1e17
        ("1e17", "1e+17")])
    def test_record_steps_beyond_uint64_in_the_limits_form(self, tmp_path, capsys, no_walk,
                                                           duration, shown):
        err = self.run(["record", "--duration", duration], tmp_path / "r.spkc", capsys)
        assert err == (f"error: bad record: duration {shown} s is longer than a record can "
                       f"hold, {LONGEST} s\n")
        assert len(err.rstrip("\n")) < 120

    def test_record_steps_beyond_uint64(self, tmp_path, capsys, no_walk):
        # above about 1.8e305 s the duration in ms overflows a float
        for duration in (1e300, 1e306, sys.float_info.max):
            err = self.run(["record", "--duration", repr(duration)], tmp_path / "r.spkc",
                           capsys)
            assert err == (f"error: bad record: duration {duration!r} s is longer than a "
                           f"record can hold, {LONGEST} s\n")
            assert len(err) < 120

    @pytest.mark.parametrize("duration, seed, field", [
        (1e300, 1, "n_steps"), (1e306, 1, "n_steps"), (sys.float_info.max, 1, "n_steps"),
        (1, 2**64, "seed")])
    def test_recorder_checks_the_header_first(self, no_walk, duration, seed, field):
        message = {
            "n_steps": f"duration {duration!r} s is longer than a record can hold, {LONGEST} s",
            "seed": f"seed {2**64} is outside the header's range 0 to {2**64 - 1}",
        }[field]
        with pytest.raises(ValueError, match=f"^bad record: {re.escape(message)}$") as info:
            record_pong_episode(duration, seed)
        assert len(f"error: {info.value}") < 120


class TestConfigValidation:
    """Values the config classes reject, each named in a one-line error."""

    def expect(self, argv, message, capsys):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("window", [0, -3])
    def test_ga_eval_window_not_positive(self, tmp_path, syn_record, capsys, window):
        cfg = tmp_path / "ga.txt"
        cfg.write_text(f"population_size = 4\neval_window_s = {window}\n")
        self.expect(["ga", "--record", str(syn_record), "--config", str(cfg)],
                    f"eval_window_s must be >= 1, got {window}", capsys)

    @pytest.mark.parametrize("line", ["elitism_fraction = 0.1", "mutation_prob = 0.5",
                                      "T_P = 100"])
    def test_ga_search_constants_are_not_keys(self, tmp_path, monkeypatch, capsys, line):
        # elitism and mutation are ga.py's constants, and T_P is PlasticityConfig's
        def unread(*args):
            raise AssertionError("the record was read")

        monkeypatch.setattr(EpisodeRecord, "load", unread)
        cfg = tmp_path / "ga.txt"
        cfg.write_text(f"population_size = 4\n{line}\n")
        key = line.partition(" ")[0]
        self.expect(["ga", "--record", str(tmp_path / "missing.spkc"), "--config", str(cfg)],
                    f"{cfg}:2: unknown key {key!r}", capsys)

    def test_ga_negative_max_generations(self, tmp_path, syn_record, capsys):
        cfg = tmp_path / "ga.txt"
        cfg.write_text("population_size = 4\nmax_generations = -1\n")
        self.expect(["ga", "--record", str(syn_record), "--config", str(cfg)],
                    "max_generations must be >= 0 (0: no cap), got -1", capsys)

    def test_ga_negative_seed(self, syn_record, capsys):
        self.expect(["ga", "--record", str(syn_record), "--seed", "-1"],
                    "seed must be >= 0, got -1", capsys)

    def test_synthetic_negative_steps(self, tmp_path, capsys):
        cfg = tmp_path / "syn.txt"
        cfg.write_text("n_steps = -5\n")
        self.expect(["synthetic", "--config", str(cfg), "--out", str(tmp_path / "s.spkc")],
                    "n_steps must be >= 1", capsys)

    @pytest.mark.parametrize("lag", [0, 300])
    def test_synthetic_lag_outside_the_gap(self, tmp_path, capsys, lag):
        cfg = tmp_path / "syn.txt"
        cfg.write_text(f"lag = {lag}\n")
        self.expect(["synthetic", "--config", str(cfg), "--out", str(tmp_path / "s.spkc")],
                    f"lag must be in [1, 300), below the least gap between causes, got {lag}",
                    capsys)

    def test_record_negative_seed(self, tmp_path, capsys):
        self.expect(["record", "--seed", "-1", "--duration", "1",
                     "--out", str(tmp_path / "r.spkc")], "seed must be >= 0, got -1", capsys)

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_window_not_positive(self, syn_record, params_file, command, window, capsys):
        argv = [command, "--record", str(syn_record), "--window", window]
        argv += ["--params", str(params_file)] if command == "train" else ["--snapshot", "x.npz"]
        self.expect(argv, f"--window must be >= 1 s, got {window}", capsys)

    @pytest.mark.parametrize("value, shown", [("-1", "-1"), ("inf", "inf"), ("nan", "nan"),
                                              ("1e400", "inf")])
    def test_freeze_after_not_finite_or_negative(self, syn_record, params_file, value,
                                                 shown, capsys):
        self.expect(["train", "--record", str(syn_record), "--params", str(params_file),
                     "--freeze-after", value],
                    f"--freeze-after must be finite and >= 0 s, got {shown}", capsys)

    def test_synthetic_negative_seed(self, tmp_path, capsys):
        self.expect(["synthetic", "--seed", "-1", "--out", str(tmp_path / "s.spkc")],
                    "seed must be >= 0, got -1", capsys)


class TestRecordCommand:
    def test_short_record_round_trip(self, tmp_path):
        p1 = tmp_path / "a.spkc"
        p2 = tmp_path / "b.spkc"
        assert main(["record", "--seed", "5", "--duration", "5", "--out", str(p1)]) == EXIT_OK
        rec = EpisodeRecord.load(p1)
        assert rec.n_channels == 133
        assert rec.n_steps == 5000
        rec.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_record_deterministic(self, tmp_path):
        p1 = tmp_path / "a.spkc"
        p2 = tmp_path / "b.spkc"
        main(["record", "--seed", "5", "--duration", "5", "--out", str(p1)])
        main(["record", "--seed", "5", "--duration", "5", "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


# sha256 of train's stdout, report, resources CSV and snapshot, as the
# scalar training loop wrote them (stdout since R's label names the span
# scored), for records made by the CLI in the working directory
TRAIN_PINS = {
    ("pong30", ()): (
        "ea9c7f613a561e9b954c370f70757092484b87bd7b8d7b4269aa23f0d91ee001",
        "72c4fd866e90cd332b4969bf272a0f4883f0c9071cccfb4412a69286114e00f1",
        "443ebbcac24e63d66ae8620e5d8a03f8fc6f5db2d6b6033fdf608e52bb50941b",
        "c542a35d9937e355c9e4ddbf9b256261b64ab87991f15e8d8b2210130ae3cb0c",
    ),
    ("syn", ()): (
        "7d1c720a64d4f26c07d866ef6f161bf19c01f404dfec8602c9e089015c603351",
        "fc5e8c04fd37979460e2d8debaef0bf8c42f181cb80cdeb5e283091fd1a7e423",
        "752b1d6a8ea9e3c781c0497d067f87569c0c1f6e7cadac9f8ec412e5499bc2e1",
        "8b5cd5e7b5e6ac995eeac32ef78f0eb38af244607b61487f9960dd659f4bfd4b",
    ),
    ("syn", ("--freeze-after", "25")): (
        "12528018a9cb2cae2d36a6cc8d8f3dbcf96125ec5c18887caca91f3306b6a953",
        "ee1262730167269ccb9d5296a38c329007a24f38163905c5ea247deafeca93c7",
        "42870d36e210ccf49939f0d77dfb97b47c4be539f0377f25eb7b13c42821485c",
        "2fd18993e273a7811cab5a785dcaffdce5c650ce5ce316ecd36065ac345a66e1",
    ),
}
MAKE_RECORD = {
    "pong30": ["record", "--seed", "42", "--duration", "30", "--out", "pong30.spkc"],
    "syn": ["synthetic", "--seed", "0", "--out", "syn.spkc"],
}


@pytest.mark.parametrize("name, extra", sorted(TRAIN_PINS))
def test_train_outputs_are_pinned(tmp_path, monkeypatch, capsys, name, extra):
    monkeypatch.chdir(tmp_path)
    assert main(MAKE_RECORD[name]) == EXIT_OK
    capsys.readouterr()
    tag = f"{name}-{extra[-1] if extra else 'none'}"
    outputs = [f"{tag}.report.csv", f"{tag}.res.csv", f"{tag}.snap"]
    assert main(["train", "--record", f"{name}.spkc", "--out", outputs[2],
                 "--report", outputs[0], "--resources", outputs[1], *extra]) == EXIT_OK
    digests = [hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()]
    digests += [hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() for out in outputs]
    assert tuple(digests) == TRAIN_PINS[name, extra]


# sha256 of the state each TRAIN_PINS snapshot loads to (loaded_state_digest)
STATE_PINS = {
    ("pong30", ()): "750033a5f78e2fd1cee3407d69701f6967951cfeaa7ea8a5e29e296ba4e96f96",
    ("syn", ()): "6fd4d4241d4c2fc2bbf445ea64d52e0be216b2ef14e836c22c8fae6f9dee7b96",
    ("syn", ("--freeze-after", "25")):
        "7b1bb425f3ebc886bb13f12f359fab8bee71292a24a25c2e8ddeafaae1a37ec7",
}


def loaded_state_digest(path):
    """The state a snapshot loads to: the config, the resources by float.hex,
    stability, step, presynaptic times, every TSS span, the depressed set while
    the latest TSS is open, the fire count and the total |weight change|."""
    det = Detector.load_snapshot(path)
    state = (sorted(vars(det.cfg).items()), [r.hex() for r in det.resources],
             det.stability.hex(), det.step, det.last_presyn,
             [list(span) for span in det.tss_spans],
             sorted(det.depressed) if det.tss_open else [],
             det.fire_count, det.total_abs_dw.hex())
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.mark.parametrize("name, extra", sorted(STATE_PINS))
def test_trained_state_is_pinned(tmp_path, monkeypatch, name, extra):
    monkeypatch.chdir(tmp_path)
    assert main(MAKE_RECORD[name]) == EXIT_OK
    assert main(["train", "--record", f"{name}.spkc", "--out", "snap", *extra]) == EXIT_OK
    assert loaded_state_digest(tmp_path / "snap") == STATE_PINS[name, extra]


# sha256 of the other commands' outputs: eval's stdout for the pong30
# snapshot on its own record and on a held-out Bernoulli-clock one, ga's
# history CSV, export's CSV and the synthetic record's bytes. The snapshot
# is trained with faster plasticity: the paper values leave weights that
# never fire on these records, and eval would print R = 0.0000
OUTPUT_PINS = {
    "eval pong30 on pong30":
        "0fd3178219b55407639f04c918d760d80710a3bccbae58698f2e0748b4aa3cf9",
    "eval pong30 on bernoulli30":
        "1249add41d739c7617c0a434428625e07faf70fb4cc7ae4948e41b6a2a18b5f9",
    "ga history on syn":
        "556777744d9549d2650f0f30baabae47d2225ceb529433a826ec98e4bf658f0f",
    "export pong30":
        "3e46bf09d76de67867ddfd45f75a820bede4963ade7984be8d6a33c5ffb3db3c",
    "synthetic --seed 0":
        "93f810e92c9c02b6ac1308c7b7126820f194f6f3e458119b345a693d46364bd7",
}


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory, syn_record):
    """The sha256 of each OUTPUT_PINS output, made by the CLI."""
    tmp = tmp_path_factory.mktemp("outputs")
    pong30, bernoulli30, snap = tmp / "pong30.spkc", tmp / "bernoulli30.spkc", tmp / "snap"
    params, ga_cfg = tmp / "params.txt", tmp / "ga.txt"
    history, export = tmp / "history.csv", tmp / "export.csv"
    params.write_text("d_bar = 0.5\nw_max = 0.9\n")
    ga_cfg.write_text("population_size = 4\neval_window_s = 10\nmax_generations = 2\n")

    def stdout(argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == EXIT_OK
        return out.getvalue().encode()

    stdout(["record", "--seed", "42", "--duration", "30", "--out", str(pong30)])
    stdout(["record", "--seed", "7", "--duration", "30", "--clock", "bernoulli",
            "--out", str(bernoulli30)])
    stdout(["train", "--record", str(pong30), "--params", str(params), "--out", str(snap)])
    stdout(["ga", "--record", str(syn_record), "--config", str(ga_cfg), "--out", str(history)])
    stdout(["export", "--record", str(pong30), "--out", str(export)])
    outputs = {
        "eval pong30 on pong30":
            stdout(["eval", "--record", str(pong30), "--snapshot", str(snap)]),
        "eval pong30 on bernoulli30":
            stdout(["eval", "--record", str(bernoulli30), "--snapshot", str(snap)]),
        "ga history on syn": history.read_bytes(),
        "export pong30": export.read_bytes(),
        "synthetic --seed 0": syn_record.read_bytes(),
    }
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


@pytest.mark.parametrize("name", sorted(OUTPUT_PINS))
def test_command_outputs_are_pinned(cli_outputs, name):
    assert cli_outputs[name] == OUTPUT_PINS[name]


# sha256 of the synthetic record (n_steps = 20000) and of the ga history on it
# (P = 4, 10 s window, 2 generations), both made with the same --seed flag, if any
SEED_PINS = {
    ("--seed", "0"): (
        "0ed0afba2d6fb1900dbbb6c32a6c6321d2615b13928df0a74df2af3606a12756",
        "151a62ef5583b242ea59afd2164bc1eaaf13ceb72963a0e832a543292d141d93",
    ),
    ("--seed", "7"): (
        "2ee201b893eaca03c4df0bae5f06f9bd119cf4c2f753ca4cd88766efcbe8d134",
        "4aa40e67fb8f7e649f8323ceb58efdc4dd5c3b833405b8c2fd81805898e3d40b",
    ),
    (): (  # no --seed: seed 0
        "0ed0afba2d6fb1900dbbb6c32a6c6321d2615b13928df0a74df2af3606a12756",
        "151a62ef5583b242ea59afd2164bc1eaaf13ceb72963a0e832a543292d141d93",
    ),
}


@pytest.mark.parametrize("seed", sorted(SEED_PINS))
def test_seeded_outputs_are_pinned(tmp_path, capsys, seed):
    syn_cfg, ga_cfg = tmp_path / "syn.txt", tmp_path / "ga.txt"
    record, history = tmp_path / "syn.spkc", tmp_path / "history.csv"
    syn_cfg.write_text("n_steps = 20000\n")
    ga_cfg.write_text("population_size = 4\neval_window_s = 10\nmax_generations = 2\n")
    assert main(["synthetic", "--config", str(syn_cfg), *seed, "--out", str(record)]) \
        == EXIT_OK
    assert main(["ga", "--record", str(record), "--config", str(ga_cfg), *seed,
                 "--out", str(history)]) == EXIT_OK
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (record, history))
    assert digests == SEED_PINS[seed]


def test_train_makes_no_scalar_tick(tmp_path, syn_record, monkeypatch):
    def no_tick(self, active, dopamine=False):
        raise AssertionError("train ticked the scalar detector")

    monkeypatch.setattr(Detector, "tick_sparse", no_tick)
    assert main(["train", "--record", str(syn_record), "--freeze-after", "100",
                 "--out", str(tmp_path / "snap.npz")]) == EXIT_OK
    with pytest.raises(AssertionError, match="ticked"):
        Detector(1, PlasticityConfig()).tick_sparse([0])


class TestTrainEval:
    def test_train_writes_all_outputs(self, tmp_path, syn_record, params_file):
        snap = tmp_path / "snap.npz"
        report = tmp_path / "report.csv"
        resources = tmp_path / "res.csv"
        code = main([
            "train", "--record", str(syn_record), "--params", str(params_file),
            "--out", str(snap), "--report", str(report),
            "--resources", str(resources), "--window", "100",
        ])
        assert code == EXIT_OK
        assert snap.exists()
        with open(report) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30  # 300 s / 10 s windows
        assert set(rows[0]) == {"window_start_s", "firing_hz", "stability",
                                "abs_weight_change"}
        assert all(float(r["firing_hz"]) >= 0 for r in rows)
        with open(resources) as fh:
            res_rows = list(csv.DictReader(fh))
        assert [(r["section"], r["index_in_section"], r["channel"]) for r in res_rows] \
            == [("channel", str(ch), str(ch)) for ch in range(20)]

    def test_resources_cover_every_channel_of_a_wide_record(self, tmp_path, capsys):
        config, record = tmp_path / "syn.txt", tmp_path / "wide.spkc"
        config.write_text("n_channels = 140\nn_steps = 30000\n")
        assert main(["synthetic", "--config", str(config), "--out", str(record)]) == EXIT_OK
        resources = tmp_path / "res.csv"
        assert main(["train", "--record", str(record), "--resources", str(resources)]) \
            == EXIT_OK
        with open(resources) as fh:
            rows = list(csv.DictReader(fh))
        # one row per channel; pong section names belong to 133-channel records only
        assert [(r["section"], r["index_in_section"], r["channel"]) for r in rows] \
            == [("channel", str(ch), str(ch)) for ch in range(140)]
        det = Detector(140, PlasticityConfig())
        replay(det, EpisodeRecord.load(record))
        assert [float(r["resource"]) for r in rows] \
            == [float(f"{v:.9g}") for v in det.resources]

    def test_pong_record_resources_name_the_encoder_sections(self, tmp_path):
        record, resources = tmp_path / "pong.spkc", tmp_path / "res.csv"
        assert main(["record", "--seed", "1", "--duration", "30", "--out", str(record)]) \
            == EXIT_OK
        assert main(["train", "--record", str(record), "--resources", str(resources)]) \
            == EXIT_OK
        with open(resources) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["channel"] for r in rows] == [str(ch) for ch in range(133)]
        assert (rows[0]["section"], rows[0]["index_in_section"]) == ("ball_x", "0")
        assert rows[-1]["section"] != "ball_x"

    def test_train_without_rewards_writes_outputs_and_leaves_r_undefined(self, tmp_path,
                                                                          capsys):
        record = tmp_path / "short.spkc"
        assert main(["record", "--seed", "1", "--duration", "2", "--out", str(record)]) \
            == EXIT_OK
        assert len(EpisodeRecord.load(record).reward_steps) == 0
        snap, report, resources = tmp_path / "s.npz", tmp_path / "r.csv", tmp_path / "w.csv"
        capsys.readouterr()
        assert main(["train", "--record", str(record), "--out", str(snap),
                     "--report", str(report), "--resources", str(resources)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        # the 2 s record is shorter than the 600 s window, so all of it was scored
        assert lines[0].endswith(", R(2s window) = undefined (no reward in the window)")
        assert lines[1:] == [f"wrote snapshot {snap}", f"wrote report {report}",
                             f"wrote resources {resources}"]
        det = Detector(133, PlasticityConfig())
        replay(det, EpisodeRecord.load(record))
        assert Detector.load_snapshot(snap).resources == det.resources
        with open(resources) as fh:
            assert len(list(csv.DictReader(fh))) == 133

    def test_snapshot_is_written_at_exactly_the_out_path(self, tmp_path, syn_record, capsys):
        snap = tmp_path / "model"
        assert main(["train", "--record", str(syn_record), "--out", str(snap)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote snapshot {snap}"
        assert [p.name for p in tmp_path.iterdir()] == ["model"]  # no model.npz twin
        assert main(["eval", "--record", str(syn_record), "--snapshot", str(snap)]) == EXIT_OK

    def test_freeze_after_takes_the_first_boundary_at_or_after_it(self, tmp_path, syn_record):
        def report(*freeze_after):
            path = tmp_path / "report.csv"
            assert main(["train", "--record", str(syn_record), "--report", str(path),
                         *freeze_after]) == EXIT_OK
            with open(path) as fh:
                return [(r["window_start_s"], r["abs_weight_change"])
                        for r in csv.DictReader(fh)]

        at_10, at_20 = report("--freeze-after", "10"), report("--freeze-after", "20")
        # the first window after the freeze is the first that changes no weight
        assert at_10[1] == ("10", "0")
        assert at_20[1][1] != "0" and at_20[2] == ("20", "0")
        assert report("--freeze-after", "9.9996") == at_10
        assert report("--freeze-after", "10.0004") == at_20
        # a finite S past the record never freezes, though S * 1000 overflows a float
        assert report("--freeze-after", "1e306") == report()

    def test_train_eval_consistency(self, tmp_path, syn_record, params_file, capsys):
        snap = tmp_path / "snap.npz"
        # freeze plasticity before the evaluated window so both paths
        # see identical weights over it
        code = main([
            "train", "--record", str(syn_record), "--params", str(params_file),
            "--out", str(snap), "--window", "100", "--freeze-after", "200",
        ])
        assert code == EXIT_OK
        train_out = capsys.readouterr().out
        train_r = float(train_out.split("= ")[1].split("\n")[0])
        code = main([
            "eval", "--record", str(syn_record), "--snapshot", str(snap),
            "--window", "100",
        ])
        assert code == EXIT_OK
        eval_out = capsys.readouterr().out
        eval_r = float(eval_out.strip().split("= ")[1])
        assert eval_r == pytest.approx(train_r, abs=1e-9)

    def test_eval_prints_what_frozen_scalar_replay_scores(self, tmp_path, syn_record,
                                                          params_file, capsys):
        snap, heldout = tmp_path / "snap.npz", tmp_path / "heldout.spkc"
        main(["train", "--record", str(syn_record), "--params", str(params_file),
              "--out", str(snap)])
        main(["synthetic", "--seed", "1", "--out", str(heldout)])
        capsys.readouterr()
        assert main(["eval", "--record", str(heldout), "--snapshot", str(snap),
                     "--window", "100"]) == EXIT_OK
        cfg = PlasticityConfig(**load_config(params_file, config_defaults(PlasticityConfig)))
        rec = EpisodeRecord.load(heldout)
        fires = replay(frozen_clone(Detector.load_snapshot(snap)), rec)
        assert fires
        r_value = score_run(fires, rec.reward_steps.tolist(), cfg.T_P, (200_000, 300_000))
        assert capsys.readouterr().out == f"R(100s window) = {r_value:.4f}\n"

    def test_eval_reads_the_parameters_from_the_snapshot(self, tmp_path, syn_record,
                                                         capsys):
        params = tmp_path / "params.txt"
        params.write_text("d_bar = 0.2\nd_s = 0.5\nw_min = -0.05\nw_max = 0.9\n")
        snap = tmp_path / "snap.npz"
        assert main(["train", "--record", str(syn_record), "--params", str(params),
                     "--out", str(snap), "--window", "100", "--freeze-after", "0"]) == EXIT_OK
        train_r = capsys.readouterr().out.split("R(100s window) = ")[1].split()[0]
        assert main(["eval", "--record", str(syn_record), "--snapshot", str(snap),
                     "--window", "100"]) == EXIT_OK
        assert capsys.readouterr().out == f"R(100s window) = {train_r}\n"

    def test_repeated_eval_calls_print_the_same_line(self, tmp_path, syn_record, capsys):
        snap = tmp_path / "snap.npz"
        assert main(["train", "--record", str(syn_record), "--out", str(snap)]) == EXIT_OK
        capsys.readouterr()
        argv = ["eval", "--record", str(syn_record), "--snapshot", str(snap), "--window", "100"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first
        assert first.startswith("R(100s window) = ")

    def test_r_label_names_the_span_scored(self, tmp_path, syn_record, capsys):
        # the 300 s record is shorter than the default 600 s window: all of it is scored
        snap = tmp_path / "snap.npz"
        assert main(["train", "--record", str(syn_record), "--out", str(snap)]) == EXIT_OK
        assert ", R(300s window) = " in capsys.readouterr().out
        for window, label in ((None, "R(300s window) = "), ("300", "R(300s window) = "),
                              ("299", "R(299s window) = ")):
            extra = ["--window", window] if window else []
            assert main(["eval", "--record", str(syn_record), "--snapshot", str(snap),
                         *extra]) == EXIT_OK
            assert capsys.readouterr().out.startswith(label)

    def test_eval_help_has_no_parameter_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        out = capsys.readouterr().out
        assert "--params" not in out and "--dump-config" not in out

    def test_eval_channel_mismatch(self, tmp_path, syn_record, params_file):
        snap = tmp_path / "snap.npz"
        main([
            "train", "--record", str(syn_record), "--params", str(params_file),
            "--out", str(snap), "--window", "100",
        ])
        pong_rec = tmp_path / "pong.spkc"
        main(["record", "--seed", "1", "--duration", "5", "--out", str(pong_rec)])
        code = main([
            "eval", "--record", str(pong_rec), "--snapshot", str(snap),
        ])
        assert code == EXIT_CONFIG


class TestMalformedRecords:
    def write_record(self, path, n_channels, frames):
        EpisodeRecord.build(
            n_channels=n_channels, seed=0, n_steps=1000,
            frames=frames, reward_steps=[500],
        ).save(path)

    def assert_one_line_config_error(self, argv, capsys, match):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert match in err

    def test_truncated_record(self, tmp_path, capsys):
        path = tmp_path / "cut.spkc"
        self.write_record(path, 4, [(10, [1, 2])])
        path.write_bytes(path.read_bytes()[:-3])
        for argv in (["train", "--record", str(path)],
                     ["export", "--record", str(path), "--out", str(tmp_path / "x.csv")]):
            self.assert_one_line_config_error(argv, capsys, "truncated record")

    def test_channel_out_of_range(self, tmp_path, capsys):
        # no record holds it, so the file is made by hand
        path = tmp_path / "bad.spkc"
        path.write_bytes(spkc_bytes(n_channels=4, n_steps=1000, frames=[(10, [1, 7])],
                                    events=[(500, 0)]))
        self.assert_one_line_config_error(
            ["ga", "--record", str(path)], capsys, "channel index 7 >= n_channels 4")

    @pytest.mark.parametrize("frames, events, match", [
        ([(10, [1, 2])], [(500, 0), (500, 0)], "record event at step 500 is out of order"),
        ([(10, [1, 2])], [(500, 0), (1000, 1)],
         "error: bad record: punishment_steps step 1000 is negative, out of order or not "
         "below n_steps 1000\n"),
        ([(10, [1, 4])], [(500, 0)], "bad record: channel index 4 >= n_channels 4"),
    ])
    @pytest.mark.parametrize("command", ["train", "eval", "ga", "export"])
    def test_record_breaking_a_rule(self, tmp_path, capsys, command, frames, events, match):
        path, snapshot = tmp_path / "bad.spkc", tmp_path / "snap.npz"
        path.write_bytes(spkc_bytes(n_channels=4, n_steps=1000, frames=frames, events=events))
        Detector(4, PlasticityConfig()).save_snapshot(snapshot)
        argv = {"train": ["train", "--record", str(path), "--out", str(tmp_path / "out.npz")],
                "eval": ["eval", "--record", str(path), "--snapshot", str(snapshot)],
                "ga": ["ga", "--record", str(path)],
                "export": ["export", "--record", str(path), "--out", str(tmp_path / "x.csv")]}
        self.assert_one_line_config_error(argv[command], capsys, match)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.spkc", "snap.npz"]

    @pytest.mark.parametrize("events", [[(5, 0), (3, 0)], [(3, 1), (3, 0)]])
    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_event_table_out_of_order(self, tmp_path, capsys, command, events):
        path, snapshot = tmp_path / "bad.spkc", tmp_path / "snap.npz"
        path.write_bytes(spkc_bytes(n_channels=4, n_steps=10, events=events))
        Detector(4, PlasticityConfig()).save_snapshot(snapshot)
        argv = {"eval": ["eval", "--record", str(path), "--snapshot", str(snapshot)],
                "export": ["export", "--record", str(path), "--out", str(tmp_path / "x.csv")]}
        self.assert_one_line_config_error(argv[command], capsys,
                                          "bad record: record event at step 3 is out of order")

    def test_bytes_after_the_event_table(self, tmp_path, capsys):
        path, snapshot = tmp_path / "long.spkc", tmp_path / "snap.npz"
        self.write_record(path, 4, [(10, [1, 2])])
        path.write_bytes(path.read_bytes() + b"garbage!")
        Detector(4, PlasticityConfig()).save_snapshot(snapshot)
        self.assert_one_line_config_error(
            ["eval", "--record", str(path), "--snapshot", str(snapshot)], capsys,
            "bad record: 8 bytes after the event table")


class TestMalformedSnapshots:
    @pytest.fixture
    def snapshot(self, tmp_path):
        path = tmp_path / "snap.npz"
        Detector(4, PlasticityConfig()).save_snapshot(path)
        return path

    @pytest.fixture
    def record(self, tmp_path):
        path = tmp_path / "rec.spkc"
        EpisodeRecord.build(n_channels=4, seed=0, n_steps=100,
                            frames=[(10, [1, 2])], reward_steps=[50]).save(path)
        return path

    def rewrite(self, path, **changes):
        data = dict(np.load(path))
        data.update(changes)
        np.savez(path, **{k: v for k, v in data.items() if v is not None})

    def assert_eval_fails(self, record, snapshot, capsys, match):
        assert main(["eval", "--record", str(record), "--snapshot", str(snapshot)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert match in err

    def test_good_snapshot_evaluates(self, record, snapshot):
        assert main(["eval", "--record", str(record), "--snapshot", str(snapshot)]) == EXIT_OK

    def test_empty_file(self, record, snapshot, capsys):
        snapshot.write_bytes(b"")
        self.assert_eval_fails(record, snapshot, capsys, "bad snapshot")

    def test_half_truncated(self, record, snapshot, capsys):
        raw = snapshot.read_bytes()
        snapshot.write_bytes(raw[:len(raw) // 2])
        self.assert_eval_fails(record, snapshot, capsys, "bad snapshot")

    def test_npy_file(self, record, tmp_path, capsys):
        path = tmp_path / "weights.npy"
        np.save(path, np.zeros(4))
        self.assert_eval_fails(record, path, capsys, "bad snapshot")

    @pytest.mark.parametrize("kind", ["empty", "record", "text"])
    def test_file_that_is_not_an_archive(self, record, tmp_path, capsys, kind):
        # np.load takes such a file for a pickle and suggests loading it unsafely
        path = tmp_path / "snap.npz"
        path.write_bytes({"empty": b"", "record": record.read_bytes(), "text": b"H = 1\n"}[kind])
        assert main(["eval", "--record", str(record), "--snapshot", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: bad snapshot {path}: not an .npz archive\n"

    def test_missing_resources(self, record, snapshot, capsys):
        self.rewrite(snapshot, resources=None)
        self.assert_eval_fails(record, snapshot, capsys,
                               f"error: bad snapshot {snapshot}: missing entry 'resources'\n")

    @pytest.mark.parametrize("entry", ["stability", "cfg_d_bar", "format_version"])
    def test_a_missing_entry_is_named(self, record, snapshot, capsys, entry):
        self.rewrite(snapshot, **{entry: None})
        assert main(["eval", "--record", str(record), "--snapshot", str(snapshot)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: bad snapshot {snapshot}: missing entry {entry!r}\n"

    def test_short_tss_state(self, record, snapshot, capsys):
        self.rewrite(snapshot, tss_spans=np.array([0], dtype=np.int64))
        self.assert_eval_fails(record, snapshot, capsys, "tss_spans has shape (1,), not (k, 2)")

    @pytest.fixture
    def open_snapshot(self, tmp_path):
        """A detector saved at step 2 inside an open TSS that began at step 0."""
        det = Detector(4, PlasticityConfig(), initial_weight=0.45)
        assert det.tick_sparse([0, 1, 2])  # step 0: an onset
        assert not det.tick_sparse([3])
        assert det.tss_open
        path = tmp_path / "open.npz"
        det.save_snapshot(path)
        with np.load(path) as data:
            assert data["tss_spans"].tolist() == [[0, 0]]
            assert data["depressed"].tolist() == [0, 1, 2]
        return path

    def test_consistent_open_snapshot_evaluates(self, record, open_snapshot):
        assert main(["eval", "--record", str(record), "--snapshot", str(open_snapshot)]) \
            == EXIT_OK

    @pytest.mark.parametrize("depressed", [[99], [-1], [1, 1]])
    def test_bad_depressed(self, record, open_snapshot, capsys, depressed):
        self.rewrite(open_snapshot, depressed=np.array(depressed, dtype=np.int64))
        self.assert_eval_fails(record, open_snapshot, capsys,
                               f"depressed synapses {depressed} are not distinct indices in [0, 4)")

    @pytest.mark.parametrize("state", [  # (tss_spans, the span named)
        ([[0, 2]], [0, 2]),            # ends at the stored step 2
        ([[1, 0]], [1, 0]),            # onset after its last spike
        ([[-1, 0]], [-1, 0]),          # onset before step 0
        ([[0, 0], [1, 1]], [1, 1]),    # onset within T_P of the span before
        ([[1, 1], [0, 0]], [0, 0]),    # out of order
    ])
    def test_inconsistent_tss_state(self, record, open_snapshot, capsys, state):
        """TSS spans that stepping to the stored step with the stored T_P cannot give."""
        spans, named = state
        self.rewrite(open_snapshot, tss_spans=np.array(spans, dtype=np.int64))
        self.assert_eval_fails(record, open_snapshot, capsys,
                               f"TSS span {named} is not 0 <= onset <= last < step 2 with "
                               "onset > the previous span's last + T_P 100")

    def test_tss_state_of_a_fresh_detector_must_say_no_tss(self, record, snapshot, capsys):
        self.rewrite(snapshot, tss_spans=np.array([[0, 0]], dtype=np.int64))
        self.assert_eval_fails(record, snapshot, capsys, "TSS span [0, 0] is not 0 <= onset "
                                                         "<= last < step 0")

    def test_negative_step(self, record, snapshot, capsys):
        self.rewrite(snapshot, step=np.int64(-5))
        self.assert_eval_fails(record, snapshot, capsys, "step -5 < 0")

    @pytest.mark.parametrize("last_presyn, match", [
        ([0, -1, 2, 1], "presynaptic times -1 to 2 not in [-1, step 2)"),
        ([-2, -1, 0, 1], "presynaptic times -2 to 1 not in [-1, step 2)"),
        ([0, 1, 1], "(4,) resources, (3,) presynaptic times, 4 synapses"),
    ], ids=["at the step", "before -1", "one short"])
    def test_bad_presynaptic_times(self, record, open_snapshot, capsys, last_presyn, match):
        self.rewrite(open_snapshot, last_presyn=np.array(last_presyn, dtype=np.int64))
        self.assert_eval_fails(record, open_snapshot, capsys, match)

    @pytest.mark.parametrize("entries, message", [
        ({"resources": np.array([np.nan, np.inf, 0.0, 0.0])}, "resource 0 is NaN"),
        ({"fire_count": np.int64(-3)}, "fire_count -3 < 1 TSS spans"),
        ({"fire_count": np.int64(0)}, "fire_count 0 < 1 TSS spans"),
        ({"total_abs_dw": np.float64(-0.5)}, "total_abs_dw -0.5 < 0"),
    ], ids=["NaN resource", "negative fire count", "fewer fires than spans",
            "negative total |dw|"])
    def test_unreachable_state(self, record, open_snapshot, capsys, entries, message):
        self.rewrite(open_snapshot, **entries)
        assert main(["eval", "--record", str(record), "--snapshot", str(open_snapshot)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: bad snapshot {open_snapshot}: {message}\n"

    def test_non_finite_values_that_stepping_reaches_evaluate(self, record, snapshot):
        self.rewrite(snapshot, resources=np.array([np.inf, -np.inf, 0.0, 0.0]),
                     stability=np.float64(np.nan), total_abs_dw=np.float64(np.nan))
        assert main(["eval", "--record", str(record), "--snapshot", str(snapshot)]) == EXIT_OK

    @pytest.mark.parametrize("name", ["pending", "extra"])  # a format-2 entry, and any other
    def test_unknown_entry(self, record, snapshot, capsys, name):
        self.rewrite(snapshot, **{name: np.zeros(0, dtype=np.int64)})
        assert main(["eval", "--record", str(record), "--snapshot", str(snapshot)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: bad snapshot {snapshot}: unknown entry {name!r}\n"

    def test_member_that_is_not_npy(self, record, snapshot, capsys):
        # np.load hands over a member without the .npy magic as its raw bytes
        with zipfile.ZipFile(snapshot) as zf:
            members = {info.filename: zf.read(info) for info in zf.infolist()}
        members["resources.npy"] = b"0.1 0.2 0.3 0.4"
        with zipfile.ZipFile(snapshot, "w") as zf:
            for filename, data in members.items():
                zf.writestr(filename, data)
        assert main(["eval", "--record", str(record), "--snapshot", str(snapshot)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: bad snapshot {snapshot}: resources is not an .npy array\n"

    def test_version_1(self, record, snapshot, capsys):
        data = dict(np.load(snapshot))
        v1 = {k: v for k, v in data.items() if not k.startswith("cfg_")}
        np.savez(snapshot, **{**v1, "format_version": np.int64(1)})
        self.assert_eval_fails(record, snapshot, capsys, "unsupported snapshot version 1")

    def test_version_2(self, record, snapshot, capsys):
        data = dict(np.load(snapshot))
        v2 = {k: v for k, v in data.items() if k not in ("tss_spans", "frozen")}
        none = np.zeros(0, dtype=np.int64)
        np.savez(snapshot, **{**v2, "format_version": np.int64(2), "pending": none,
                              "tss_state": np.array([0, -1, -1, -1]),
                              "tss_completed": none.reshape(0, 2)})
        assert main(["eval", "--record", str(record), "--snapshot", str(snapshot)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: bad snapshot {snapshot}: unsupported snapshot version 2\n"

    def test_version_3(self, record, snapshot, capsys):
        data = dict(np.load(snapshot))
        np.savez(snapshot, **{**data, "format_version": np.int64(3), "cfg_H": np.float64(1.0)})
        assert main(["eval", "--record", str(record), "--snapshot", str(snapshot)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: bad snapshot {snapshot}: unsupported snapshot version 3\n"

    @pytest.mark.parametrize("entry, value, dtypes", [
        ("format_version", np.float64(3.9), "float64, not int64"),
        ("cfg_T_P", np.float64(100.7), "float64, not int64"),
        ("cfg_T_P", np.bool_(True), "bool, not int64"),
        ("cfg_d_bar", np.int64(1), "int64, not float64"),
        ("resources", np.full(4, 0.1, dtype=np.float32), "float32, not float64"),
        ("stability", np.float32(0.5), "float32, not float64"),
        ("step", np.float64(2.9), "float64, not int64"),
        ("last_presyn", np.array([0.5, 0.5, 0.5, 1.5]), "float64, not int64"),
        ("tss_spans", np.array([[0.5, 0.5]]), "float64, not int64"),
        ("depressed", np.array([0.5, 1.5, 2.5]), "float64, not int64"),
        ("frozen", np.float64(0.5), "float64, not bool"),
        ("fire_count", np.float64(1.7), "float64, not int64"),
        ("total_abs_dw", np.int64(0), "int64, not float64"),
    ])
    def test_entry_of_another_dtype(self, record, open_snapshot, capsys, entry, value,
                                    dtypes):
        # a cast would load each of these, truncated or rounded, without a word
        self.rewrite(open_snapshot, **{entry: value})
        assert main(["eval", "--record", str(record), "--snapshot", str(open_snapshot)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: bad snapshot {open_snapshot}: {entry} is {dtypes}\n"

    @pytest.mark.parametrize("entry, value, shapes", [
        ("frozen", np.array([True]), "(1,), not ()"),  # bool() would unwrap it
        ("stability", np.array([0.5]), "(1,), not ()"),
        ("cfg_T_P", np.array([100]), "(1,), not ()"),
        ("resources", np.full((1, 4), 0.1), "(1, 4), not (k,)"),
        ("depressed", np.int64(0), "(), not (k,)"),
    ])
    def test_entry_of_another_shape(self, record, open_snapshot, capsys, entry, value,
                                    shapes):
        self.rewrite(open_snapshot, **{entry: value})
        assert main(["eval", "--record", str(record), "--snapshot", str(open_snapshot)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: bad snapshot {open_snapshot}: {entry} has shape {shapes}\n"

    def test_stored_config_is_validated(self, record, snapshot, capsys):
        self.rewrite(snapshot, cfg_w_min=np.float64(0.5))
        self.assert_eval_fails(record, snapshot, capsys, "require w_min < 0 < w_max")

    @pytest.mark.parametrize("w_min, w_max, w0", NON_FINITE_START)
    def test_stored_config_with_a_non_finite_starting_weight_is_rejected(
            self, record, snapshot, capsys, w_min, w_max, w0):
        self.rewrite(snapshot, cfg_w_min=np.float64(w_min), cfg_w_max=np.float64(w_max))
        self.assert_eval_fails(record, snapshot, capsys,
                               f"w_min {w_min} and w_max {w_max} give a non-finite")

    def test_stored_non_finite_config_is_rejected(self, record, snapshot, capsys):
        self.rewrite(snapshot, cfg_d_bar=np.float64(np.nan))
        self.assert_eval_fails(record, snapshot, capsys, "bad snapshot")

    def test_missing_file_is_io_error(self, record, tmp_path):
        assert main(["eval", "--record", str(record),
                     "--snapshot", str(tmp_path / "nope.npz")]) == EXIT_IO


class TestTrainReport:
    def test_a_record_of_2_ms_steps_is_refused(self, tmp_path, capsys):
        # a step is 1 ms: a header that says otherwise is refused, so no
        # output is written on another clock
        record = tmp_path / "slow.spkc"
        record.write_bytes(spkc_bytes(
            step_ms=2, n_channels=3, n_steps=30_000,
            frames=[(t, [0, 1]) for t in range(100, 30_000, 700)],
            events=[(t, 0) for t in range(150, 30_000, 700)]))
        report = tmp_path / "report.csv"
        assert main(["train", "--record", str(record), "--report", str(report)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: bad record header: step_ms is 2, "
                                                    "not 1\n")
        assert not report.exists()


class TestGaCommand:
    def test_small_ga_writes_history(self, tmp_path, syn_record):
        cfg = tmp_path / "ga.txt"
        cfg.write_text(
            "population_size = 6\nmax_generations = 2\neval_window_s = 100\n"
            "stagnation_generations = 5\n"
        )
        out = tmp_path / "hist.csv"
        code = main([
            "ga", "--record", str(syn_record), "--config", str(cfg),
            "--out", str(out), "--seed", "3",
        ])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["generation"] == "0"
        bests = [float(r["best_R"]) for r in rows]
        assert bests == sorted(bests)

    def test_max_generations_zero_runs_to_stagnation(self, tmp_path, syn_record):
        settings = dict(population_size=6, eval_window_s=100, stagnation_generations=2,
                        max_generations=0)
        cfg, out = tmp_path / "ga.txt", tmp_path / "hist.csv"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        assert main(["ga", "--record", str(syn_record), "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = [(r["generation"], r["best_R"]) for r in csv.DictReader(fh)]
        history = run_ga(GaConfig(**settings), EpisodeRecord.load(syn_record), 3)
        assert rows == [(str(i), f"{s.best_fitness:.9g}") for i, s in enumerate(history)]
        assert len(rows) > settings["stagnation_generations"]

    def test_no_reward_in_the_window_is_config_error(self, tmp_path, monkeypatch, capsys):
        def unreplayed(*args):
            raise AssertionError("a genome was replayed")

        monkeypatch.setattr(ga_module, "replay_population", unreplayed)
        record, cfg = tmp_path / "early.spkc", tmp_path / "ga.txt"
        # the only reward lies before the 1 s (1000-step) evaluation window
        EpisodeRecord.build(
            n_channels=3, seed=0, n_steps=5000,
            frames=[(t, [0, 1]) for t in range(50, 5000, 300)], reward_steps=[100],
        ).save(record)
        cfg.write_text("population_size = 4\nmax_generations = 1\neval_window_s = 1\n")
        assert main(["ga", "--record", str(record), "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: R metric undefined: no target periods\n"


class TestExportCommand:
    def test_export_covers_all_frames_and_events(self, tmp_path, syn_record):
        out = tmp_path / "dump.csv"
        assert main(["export", "--record", str(syn_record), "--out", str(out)]) == EXIT_OK
        rec = EpisodeRecord.load(syn_record)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        kinds = [r["kind"] for r in rows]
        assert kinds.count("spikes") == len(rec.spike_steps)
        assert kinds.count("reward") == len(rec.reward_steps)
        steps = [int(r["step"]) for r in rows]
        assert steps == sorted(steps)
