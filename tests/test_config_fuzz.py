"""Hypothesis fuzz of the key = value config files the CLI reads.

``train --params``, ``ga --config`` and ``synthetic --config`` are fed
generated files: known keys with typed, extreme and junk values, unknown
keys and malformed lines. Every file must end in success (exit 0) or in
exit 2 with a one-line ``error:`` message; no traceback, no other code.

The keys that set how much work a run does (record length, channel
count, population and generation counts) are drawn from small ranges,
so that a run takes milliseconds; every other integer may be huge.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from causalneuron.cli import EXIT_CONFIG, EXIT_OK, config_defaults, main
from causalneuron.ga import GaConfig
from causalneuron.plasticity import PlasticityConfig
from causalneuron.synthetic import SyntheticConfig

# the small ranges of the keys that size a run
SIZES = {
    "n_channels": (-2, 40),
    "n_steps": (-5, 5_000),
    "population_size": (-2, 8),
    "max_generations": (-2, 4),
    "stagnation_generations": (-2, 3),
}

junk = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
               max_size=10)
floats = st.one_of(
    st.floats().map(repr),
    st.floats(-2.0, 2.0).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "0", "-0.0", "5e-324"]),
)
ints = st.one_of(st.integers(-5, 5_000), st.integers(), st.integers(2**62, 2**70),
                 st.integers(-2**70, -2**62)).map(str)


def values_for(key, default):
    if key in SIZES:
        typed = st.integers(*SIZES[key]).map(str)
    elif isinstance(default, float):
        typed = floats
    else:
        typed = ints
    return st.one_of(typed, typed, typed, junk)


def config_files(defaults):
    """Text of a config file: mostly known keys, some junk lines."""
    known = st.sampled_from(sorted(defaults)).flatmap(
        lambda key: values_for(key, defaults[key]).map(lambda v: f"{key} = {v}"))
    line = st.one_of(known, known, known, known, junk, junk.map(lambda k: f"{k} = 1"))
    return st.lists(line, max_size=6).map(lambda lines: "".join(f"{x}\n" for x in lines))


@pytest.fixture(scope="module")
def small_record(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "small.spkc"
    cfg = path.with_suffix(".txt")
    cfg.write_text("n_channels = 16\nn_steps = 3000\nnoise_rate = 0.01\n")
    assert main(["synthetic", "--config", str(cfg), "--out", str(path)]) == EXIT_OK
    return path


def run_with_config(text, argv):
    """Run the CLI with the config text in a file; return (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.txt"
        cfg.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([a.format(cfg=cfg, tmp=tmp) for a in argv])
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (EXIT_OK, EXIT_CONFIG), err
    if code == EXIT_CONFIG:
        assert err.startswith("error: ") and err.count("\n") == 1, err


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(text=config_files(config_defaults(PlasticityConfig)))
def test_train_params(small_record, text):
    assert_clean_exit(*run_with_config(
        text, ["train", "--record", str(small_record), "--params", "{cfg}"]))


@FUZZ
@given(text=config_files(config_defaults(GaConfig)))
def test_ga_config(small_record, text):
    assert_clean_exit(*run_with_config(
        text, ["ga", "--record", str(small_record), "--config", "{cfg}"]))


@FUZZ
@given(text=config_files(config_defaults(SyntheticConfig)))
def test_synthetic_config(text):
    assert_clean_exit(*run_with_config(
        text, ["synthetic", "--config", "{cfg}", "--out", "{tmp}/out.spkc"]))
