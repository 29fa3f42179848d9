"""Spike encoder: channel layout, binning, clock statistics, calibrated bounds."""

import ast
import hashlib
import importlib.util
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from causalneuron import encoder, pong
from causalneuron.encoder import (
    MIN_CALIBRATION_SAMPLES,
    N_CHANNELS,
    SECTION_OFFSETS,
    SECTION_SIZES,
    EncoderLayout,
    VX_BOUNDS,
    VY_BOUNDS,
    SpikeClock,
    bin_index,
    encode,
    velocity_bins,
)
from causalneuron.recording import record_pong_episode


@pytest.fixture(scope="module")
def layout():
    return EncoderLayout()


class TestLayoutGeometry:
    def test_offsets_and_sizes(self):
        assert SECTION_OFFSETS == {
            "ball_x": 0, "ball_y": 30, "ball_vx": 60,
            "ball_vy": 69, "racket_y": 78, "close_zone": 108,
        }
        assert sum(SECTION_SIZES.values()) == N_CHANNELS == 133
        running = 0
        for name in SECTION_OFFSETS:
            assert SECTION_OFFSETS[name] == running
            running += SECTION_SIZES[name]

    def test_offsets_match_the_documented_channel_map(self):
        documented = [(int(lo), int(hi)) for lo, hi in
                      re.findall(r"^\s+\[(\d+),\s*(\d+)\)", encoder.__doc__, re.M)]
        assert documented == [(SECTION_OFFSETS[name], SECTION_OFFSETS[name] + size)
                              for name, size in SECTION_SIZES.items()]
        assert documented[-1][1] == N_CHANNELS

    def test_one_channel_per_section(self, layout):
        state = pong.WorldState(1.0, -2.0, 15.0, -12.0, 3.0, step=0)
        chans = layout.active_channels(state)
        assert len(chans) == 5  # ball far from racket: no close-zone channel
        for name in ("ball_x", "ball_y", "ball_vx", "ball_vy", "racket_y"):
            lo = SECTION_OFFSETS[name]
            hi = lo + SECTION_SIZES[name]
            assert sum(1 for c in chans if lo <= c < hi) == 1

    def test_close_zone_center_example(self, layout):
        # ball dead ahead of the racket center, 1.5 cm into the field
        state = pong.WorldState(-3.5, 0.7, -15.0, 3.0, 0.7, step=0)
        chans = layout.active_channels(state)
        zone = [c - SECTION_OFFSETS["close_zone"] for c in chans
                if c >= SECTION_OFFSETS["close_zone"]]
        assert len(zone) == 1
        row, col = divmod(zone[0], 5)
        assert row == 2           # vertically centred on the racket
        assert col == 2           # (x+5)/0.6 = 2.5 -> zone column 2

    def test_close_zone_bounds(self, layout):
        ry = 1.0
        inside = pong.WorldState(-4.9, ry + 1.4, -15.0, 0.0, ry, step=0)
        outside_y = pong.WorldState(-4.9, ry + 1.6, -15.0, 0.0, ry, step=0)
        outside_x = pong.WorldState(-1.9, ry, -15.0, 0.0, ry, step=0)
        assert len(layout.active_channels(inside)) == 6
        assert len(layout.active_channels(outside_y)) == 5
        assert len(layout.active_channels(outside_x)) == 5

    def test_sparsity_five_or_six(self, layout):
        rng = np.random.default_rng(0)
        policy = pong.ChaoticPolicy(np.random.default_rng(1))
        state = pong.initial_state(rng)
        for t in range(20_000):
            assert len(layout.active_channels(state)) in (5, 6)
            state, _ = pong.env_step(state, policy(t), rng)


class TestBinIndex:
    def test_equal_width_examples(self):
        assert bin_index(-5.0, 30, -5.0, 5.0) == 0
        assert bin_index(4.999, 30, -5.0, 5.0) == 29
        assert bin_index(0.0, 30, -5.0, 5.0) == 15
        assert bin_index(-4.67, 30, -5.0, 5.0) == 0
        assert bin_index(-4.66, 30, -5.0, 5.0) == 1

    def test_clamping(self):
        assert bin_index(-100.0, 30, -5.0, 5.0) == 0
        assert bin_index(100.0, 30, -5.0, 5.0) == 29

    def test_errors(self):
        with pytest.raises(ValueError):
            bin_index(float("nan"), 30, -5.0, 5.0)
        with pytest.raises(ValueError):
            bin_index(1.0, 30, 5.0, -5.0)
        with pytest.raises(ValueError, match="non-finite bounds"):
            bin_index(1.0, 30, -math.inf, 5.0)

    @pytest.mark.parametrize("value, k", [(1e308, 29), (-1e308, 0), (1e6, 29), (-1e6, 0)])
    def test_huge_finite_values_clamp_to_the_edge_bin(self, value, k):
        assert bin_index(value, 30, -5.0, 5.0) == k

    def test_bounds_whose_span_overflows(self):
        assert bin_index(0.0, 30, -1e308, 1e308) == 15
        assert bin_index(1e308, 30, -1e308, 1e308) == 29


class TestVelocityBins:
    def test_quantile_oracle(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(0.0, 12.0, 50_000)
        bounds = velocity_bins(samples)
        assert len(bounds) == 8
        # each of the 9 bins holds ~1/9 of the samples
        edges = (-np.inf,) + bounds + (np.inf,)
        counts, _ = np.histogram(samples, bins=edges)
        assert np.all(np.abs(counts / len(samples) - 1 / 9) < 0.01)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            velocity_bins(np.zeros(9999))

    def test_rejects_degenerate_samples(self):
        with pytest.raises(ValueError):
            velocity_bins(np.zeros(20_000))


def load_calibration_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_velocity_bins.py"
    spec = importlib.util.spec_from_file_location("calibrate_velocity_bins", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCalibrationArtifact:
    def test_script_reproduces_the_checked_in_bounds(self, capsys):
        # the default seed and step count are the ones encoder.py names
        assert load_calibration_script().main([]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(" = ")[0] for line in printed] == ["VX_BOUNDS", "VY_BOUNDS"]
        # the script's bounds equal VX_BOUNDS and VY_BOUNDS exactly ...
        bounds = [ast.literal_eval(line.split(" = ")[1]) for line in printed]
        assert bounds == [VX_BOUNDS, VY_BOUNDS]
        # ... and its lines are the ones in the encoder, ready to paste
        source = Path(encoder.__file__).read_text().splitlines()
        assert all(line in source for line in printed)

    def test_too_few_steps_is_an_argument_error(self, capsys, monkeypatch):
        def no_walk(*args):
            raise AssertionError("the world was walked")

        monkeypatch.setattr(pong, "trajectory", no_walk)
        with pytest.raises(SystemExit) as exc:
            load_calibration_script().main(["--steps", "5000"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"--steps must be at least {MIN_CALIBRATION_SAMPLES}, got 5000" in err
        assert out == ""

    def test_too_few_velocities_is_an_argument_error(self, capsys):
        # at the floor, the default seed's walk serves too few distinct balls
        with pytest.raises(SystemExit) as exc:
            load_calibration_script().main(["--steps", str(MIN_CALIBRATION_SAMPLES)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "degenerate calibration samples" in err
        assert out == ""


class TestSpikeClock:
    def test_shared_rate_exact(self):
        clock = SpikeClock("shared")
        ticks = sum(clock.ticks(t) for t in range(1_000_000))
        assert abs(ticks - 300_000) <= 500
        assert ticks == 300_000  # the phase accumulator is exact

    def test_shared_pattern_and_gap_bound(self):
        clock = SpikeClock("shared")
        tick_steps = [t for t in range(100) if clock.ticks(t)]
        gaps = np.diff(tick_steps)
        assert set(gaps) == {3, 4}
        assert len(tick_steps) == 30

    def test_shared_gate_all_or_nothing(self):
        clock = SpikeClock("shared")
        active = [3, 77, 131]
        for t in range(50):
            out = clock.gate(t, active)
            assert out == active or out == []

    def test_bernoulli_rate(self):
        clock = SpikeClock("bernoulli", rng=np.random.default_rng(3))
        hits = sum(len(clock.gate(t, [0])) for t in range(100_000))
        assert abs(hits / 100_000 - 0.3) < 0.01

    def test_bernoulli_requires_rng(self):
        with pytest.raises(ValueError):
            SpikeClock("bernoulli")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            SpikeClock("poisson")


class TestEncode:
    def test_silent_between_ticks(self, layout):
        clock = SpikeClock("shared")
        state = pong.WorldState(0.0, 0.0, 15.0, 10.0, 0.0, step=0)
        for t in range(40):
            state.step = t
            spikes = encode(state, layout, clock)
            if clock.ticks(t):
                assert len(spikes) in (5, 6)
            else:
                assert spikes == []


class TestLayoutIO:
    def test_default_artifact_loads(self):
        for bounds in (VX_BOUNDS, VY_BOUNDS):
            assert len(bounds) == 8
            assert all(b < c for b, c in zip(bounds, bounds[1:]))


# -- oracles for the inlined per-step encoder ---------------------------------

LAYOUT = EncoderLayout()


def linear_scan_bin(value, bounds):
    k = 0
    for b in bounds:
        if value < b:
            break
        k += 1
    return k


def reference_channels(state):
    """active_channels written from bin_index and a linear-scan velocity bin."""
    for v in (state.ball_vx, state.ball_vy):
        if not math.isfinite(v):
            raise ValueError(f"non-finite value {v}")
    out = [
        SECTION_OFFSETS["ball_x"] + bin_index(state.ball_x, 30, -5.0, 5.0),
        SECTION_OFFSETS["ball_y"] + bin_index(state.ball_y, 30, -5.0, 5.0),
        SECTION_OFFSETS["ball_vx"] + linear_scan_bin(state.ball_vx, VX_BOUNDS),
        SECTION_OFFSETS["ball_vy"] + linear_scan_bin(state.ball_vy, VY_BOUNDS),
        SECTION_OFFSETS["racket_y"] + bin_index(state.racket_y, 30, -5.0, 5.0),
    ]
    dy = state.ball_y - (state.racket_y - 1.5)
    if state.ball_x <= -2.0 and 0.0 <= dy <= 3.0:
        row = min(int(dy / 0.6), 4)
        col = max(min(int((state.ball_x + 5.0) / 0.6), 4), 0)
        out.append(SECTION_OFFSETS["close_zone"] + row * 5 + col)
    return out


def with_neighbours(values):
    return sorted({w for v in values
                   for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))})


# the 31 edges of the equal-width bins, the close-zone edges and +-5
POSITION_EDGES = with_neighbours([-5.0 + 10.0 * k / 30 for k in range(31)]
                                 + [-5.0 + 0.6 * k for k in range(6)] + [-2.0, 0.0, 5.0])
VELOCITY_EDGES = with_neighbours(VX_BOUNDS + VY_BOUNDS + (0.0,))
positions = st.one_of(st.sampled_from(POSITION_EDGES), st.floats(-6.0, 6.0))
velocities = st.one_of(st.sampled_from(VELOCITY_EDGES), st.floats(-40.0, 40.0))


class TestActiveChannelsOracle:
    @given(x=positions, y=positions, vx=velocities, vy=velocities, ry=positions)
    def test_matches_bin_index_and_linear_scan(self, x, y, vx, vy, ry):
        state = pong.WorldState(x, y, vx, vy, ry, step=0)
        assert LAYOUT.active_channels(state) == reference_channels(state)

    def test_every_velocity_edge_and_its_neighbours(self):
        for v in VELOCITY_EDGES:
            state = pong.WorldState(0.0, 0.0, v, v, 0.0, step=0)
            assert LAYOUT.active_channels(state) == reference_channels(state)

    @pytest.mark.parametrize("value", [1e308, -1e308])
    @pytest.mark.parametrize("field", ["ball_x", "ball_y", "racket_y"])
    def test_huge_finite_position_clamps_to_the_edge_bin(self, field, value):
        fields = dict(ball_x=-3.0, ball_y=0.5, ball_vx=12.0, ball_vy=-3.0, racket_y=0.0)
        fields[field] = value
        state = pong.WorldState(**fields, step=0)
        channels = LAYOUT.active_channels(state)
        edge = replace(state, **{field: 6.0 if value > 0 else -6.0})
        assert channels == reference_channels(edge)
        assert all(0 <= c < N_CHANNELS for c in channels)

    def test_close_zone_seams(self):
        # the ball on and next to the zone rows and columns around the racket
        for ry in (-4.1, -0.3, 0.0, 2.7):
            for x in POSITION_EDGES:
                for y in with_neighbours([ry - 1.5 + 0.6 * k for k in range(6)]):
                    state = pong.WorldState(x, y, 12.0, -3.0, ry, step=0)
                    assert LAYOUT.active_channels(state) == reference_channels(state)

    @pytest.mark.parametrize("field", ["ball_x", "ball_y", "ball_vx", "ball_vy", "racket_y"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        fields = dict(ball_x=0.0, ball_y=0.0, ball_vx=12.0, ball_vy=-3.0, racket_y=0.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^non-finite value {value}$"):
            LAYOUT.active_channels(pong.WorldState(**fields, step=0))


class TestClockOracle:
    def test_shared_gate_follows_ticks(self):
        clock = SpikeClock("shared")
        active = [4, 40, 64, 72, 90]
        for t in range(1000):
            assert clock.gate(t, active) == (active if clock.ticks(t) else [])

    def test_bernoulli_equals_one_draw_per_step(self):
        clock = SpikeClock("bernoulli", rng=np.random.default_rng(17))
        ref_rng = np.random.default_rng(17)
        frames = [[], [3, 33, 63, 72, 81], [3, 33, 63, 72, 81, 110]]
        drawn = t = 0
        while drawn < 3 * encoder._BERNOULLI_BLOCK + 50:  # over three refills
            active = frames[t % 3]
            keep = ref_rng.random(len(active)) < 0.3
            assert clock.gate(t, active) == [c for c, k in zip(active, keep) if k]
            drawn += len(active)
            t += 1

    def test_bernoulli_frame_wider_than_a_block(self):
        clock = SpikeClock("bernoulli", rng=np.random.default_rng(5))
        ref_rng = np.random.default_rng(5)
        for active in ([1, 2, 3], list(range(encoder._BERNOULLI_BLOCK + 7)), [9]):
            keep = ref_rng.random(len(active)) < 0.3
            assert clock.gate(0, active) == [c for c, k in zip(active, keep) if k]


class TestRecordBytes:
    """30 s records pinned to the bytes the one-step-at-a-time recorder wrote."""

    @pytest.mark.parametrize("seed, clock, sha256", [
        (3, "shared", "5cc6d61b893afa4027c0fbfbbd63ad528835d4f75c4dba6f9f148d7a1738075e"),
        (11, "shared", "f449006b73f518eab855cc6caee81585465d368ee78203509436a277736b4edb"),
        (3, "bernoulli", "e95fa8365929b578366e9dfefbc7a69edcbbb74e28bd4a7c854b9a81d120b757"),
        (11, "bernoulli", "eb906f6f3db6d9d8476b5bb6c5e46ce68ac61e763fc11f61e6f83257794fb4ab"),
    ])
    def test_sha256_pinned(self, seed, clock, sha256):
        rec = record_pong_episode(30, seed, clock_mode=clock)
        assert hashlib.sha256(rec.to_bytes()).hexdigest() == sha256
