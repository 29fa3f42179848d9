"""Spike encoder: channel layout, binning, clock statistics, calibrated bounds."""

import ast
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
    N_CHANNELS,
    SECTION_OFFSETS,
    SECTION_SIZES,
    EncoderLayout,
    VX_BOUNDS,
    VY_BOUNDS,
    SpikeClock,
    bin_index,
    encode,
)


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
    def test_quantile_oracle(self, calibration):
        rng = np.random.default_rng(2)
        samples = rng.normal(0.0, 12.0, 50_000)
        bounds = calibration.velocity_bins(samples)
        assert len(bounds) == 8
        # each of the 9 bins holds ~1/9 of the samples
        edges = (-np.inf,) + bounds + (np.inf,)
        counts, _ = np.histogram(samples, bins=edges)
        assert np.all(np.abs(counts / len(samples) - 1 / 9) < 0.01)

    def test_requires_enough_samples(self, calibration):
        with pytest.raises(ValueError):
            calibration.velocity_bins(np.zeros(9999))

    def test_rejects_degenerate_samples(self, calibration):
        with pytest.raises(ValueError):
            calibration.velocity_bins(np.zeros(20_000))


def load_calibration_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_velocity_bins.py"
    spec = importlib.util.spec_from_file_location("calibrate_velocity_bins", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def calibration():
    return load_calibration_script()


class TestCalibrationArtifact:
    def test_script_reproduces_the_checked_in_bounds(self, calibration, capsys):
        # the default seed and step count are the ones encoder.py names
        assert calibration.main([]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(" = ")[0] for line in printed] == ["VX_BOUNDS", "VY_BOUNDS"]
        # the script's bounds equal VX_BOUNDS and VY_BOUNDS exactly ...
        bounds = [ast.literal_eval(line.split(" = ")[1]) for line in printed]
        assert bounds == [VX_BOUNDS, VY_BOUNDS]
        # ... and its lines are the ones in the encoder, ready to paste
        source = Path(encoder.__file__).read_text().splitlines()
        assert all(line in source for line in printed)

    def test_too_few_steps_is_an_argument_error(self, calibration, capsys, monkeypatch):
        def no_walk(*args):
            raise AssertionError("the world was walked")

        monkeypatch.setattr(pong, "trajectory", no_walk)
        with pytest.raises(SystemExit) as exc:
            calibration.main(["--steps", "5000"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"--steps must be at least {calibration.MIN_CALIBRATION_SAMPLES}, got 5000" \
            in err
        assert out == ""

    def test_too_few_velocities_is_an_argument_error(self, calibration, capsys):
        # at the floor, the default seed's walk serves too few distinct balls
        with pytest.raises(SystemExit) as exc:
            calibration.main(["--steps", str(calibration.MIN_CALIBRATION_SAMPLES)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "degenerate calibration samples" in err
        assert out == ""


def shared_tick(t):
    """The shared clock's rule, stated apart from the clock: in every block of
    10 steps it ticks at offsets 3, 6 and 9, so its gaps run 3, 3, 4."""
    return t % 10 in (3, 6, 9)


def float_tick(t):
    """The shared clock's rule in floats, floor((t + 1) * 0.3) > floor(t * 0.3): the
    reference its integer phases must match below 2**51 steps."""
    return math.floor((t + 1) * 0.3) > math.floor(t * 0.3)


def float_ticks(steps):
    """float_tick over an int64 array; numpy converts, multiplies and floors in
    float64 as Python does."""
    return np.floor((steps + 1).astype(np.float64) * 0.3) > np.floor(steps.astype(np.float64) * 0.3)


TICK_LIMIT = 2**51  # below it the float rule's product errs by less than 0.1


def tick_steps(which):
    """Up to 10**6 steps at a time: every step in [0, 10**7), 10**6 seeded random
    steps below 2**51, and the last 10**6 steps below it."""
    if which == "first":
        for start in range(0, 10**7, 10**6):
            yield np.arange(start, start + 10**6, dtype=np.int64)
    elif which == "random":
        yield np.random.default_rng(2023).integers(0, TICK_LIMIT, 10**6, dtype=np.int64)
    else:
        yield np.arange(TICK_LIMIT - 10**6, TICK_LIMIT, dtype=np.int64)


class TestTickRule:
    def test_the_one_clock_keeps_the_float_constants(self):
        # derived from records.STEPS_PER_S, each keeps the bits of its old literal
        assert (encoder.STEPS_PER_S, pong.DT, encoder._TICKS_PER_STEP) == (1000, 0.001, 0.3)
        assert (encoder._PERIOD, sorted(encoder._TICK_PHASES)) == (10, [3, 6, 9])

    def test_the_vectorized_reference_is_the_float_rule(self):
        steps = [0, 1, 2, 3, 9, 10, 10**7 - 1, TICK_LIMIT - 1, 7506008022705623, 2**53 - 1]
        steps += np.random.default_rng(5).integers(0, 2**53, 1000).tolist()
        assert float_ticks(np.array(steps, dtype=np.int64)).tolist() == \
            [float_tick(t) for t in steps]

    @pytest.mark.parametrize("which", ["first", "random", "last"])
    def test_the_gate_matches_the_float_rule(self, which):
        clock, active = SpikeClock("shared"), [0]
        phases = sorted(encoder._TICK_PHASES)
        for steps in tick_steps(which):
            expected = float_ticks(steps)
            assert np.array_equal(np.isin(steps % encoder._PERIOD, phases), expected)
            if which != "first":  # and the gate itself, at every one of these steps
                gated = [clock.gate(t, active) == active for t in steps.tolist()]
                assert np.array_equal(gated, expected)

    def test_above_the_limit_the_float_rule_is_not_periodic(self):
        t = 7506008022705623  # about 2**52.74, at phase 3
        assert shared_tick(t) and SpikeClock("shared").gate(t, [0]) == [0]
        assert not float_tick(t)


class TestSpikeClock:
    def test_shared_rate_exact(self):
        clock = SpikeClock("shared")
        ticks = sum(len(clock.gate(t, [0])) for t in range(1_000_000))
        assert ticks == 300_000  # the phase accumulator is exact

    def test_shared_pattern_and_gap_bound(self):
        clock = SpikeClock("shared")
        tick_steps = [t for t in range(100) if clock.gate(t, [0])]
        assert tick_steps[0] == 3
        assert np.diff(tick_steps).tolist() == [3, 3, 4] * 9 + [3, 3]
        assert len(tick_steps) == 30

    def test_shared_gate_all_or_nothing(self):
        clock = SpikeClock("shared")
        active = [3, 77, 131]
        for t in range(50):
            out = clock.gate(t, active)
            assert out is active or out == []

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
            if shared_tick(t):
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


FIELDS = ["ball_x", "ball_y", "ball_vx", "ball_vy", "racket_y"]  # in the order refusals name


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

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        fields = dict(ball_x=0.0, ball_y=0.0, ball_vx=12.0, ball_vy=-3.0, racket_y=0.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^non-finite value {value}$"):
            LAYOUT.active_channels(pong.WorldState(**fields, step=0))


class TestVelocityCache:
    """One layout keeps the last velocity's two channels: they must never be stale."""

    def test_a_changing_velocity_matches_the_reference_state_by_state(self):
        layout = EncoderLayout()
        # on a bound and just below it, each velocity lands in a different bin
        vx, vy = VX_BOUNDS[3], VY_BOUNDS[5]
        below_vx, below_vy = math.nextafter(vx, -math.inf), math.nextafter(vy, -math.inf)
        sequence = [(-0.0, -0.0), (0.0, 0.0), (-0.0, 0.0), (vx, vy), (12.0, -3.0), (vx, vy),
                    (below_vx, vy), (below_vx, below_vy), (vx, below_vy), (vx, vy),
                    (12.0, -3.0), (-12.0, -3.0), (12.0, -3.0)]
        sequence += [(b, c) for b, c in zip(VX_BOUNDS, VY_BOUNDS)]
        sequence += [(c, b) for b, c in zip(VX_BOUNDS, reversed(VY_BOUNDS))]
        rng = np.random.default_rng(8)
        for vx, vy in sequence:
            for x, y, ry in rng.uniform(-5.0, 5.0, (3, 3)).tolist():
                state = pong.WorldState(x, y, vx, vy, ry, step=0)
                assert layout.active_channels(state) == reference_channels(state)

    @given(st.lists(st.tuples(velocities, velocities, st.integers(1, 3)), max_size=20))
    def test_any_velocity_sequence_matches_the_reference(self, sequence):
        layout = EncoderLayout()
        for vx, vy, calls in sequence:
            for x in (-4.0, 0.5, 3.0)[:calls]:
                state = pong.WorldState(x, -1.0, vx, vy, 2.0, step=0)
                assert layout.active_channels(state) == reference_channels(state)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_after_a_cache_hit_is_refused(self, field, value):
        layout = EncoderLayout()
        good = pong.WorldState(0.0, 0.0, 12.0, -3.0, 0.0, step=0)
        layout.active_channels(good)
        layout.active_channels(good)
        for _ in range(2):  # a refused velocity is not kept, so it is refused again
            with pytest.raises(ValueError, match=f"^non-finite value {value}$"):
                layout.active_channels(replace(good, **{field: value}))
        assert layout.active_channels(good) == reference_channels(good)

    @pytest.mark.parametrize("first, second", [
        (a, b) for i, a in enumerate(FIELDS) for b in FIELDS[i + 1:]])
    def test_the_first_non_finite_field_is_named(self, first, second):
        layout = EncoderLayout()
        good = pong.WorldState(0.0, 0.0, 12.0, -3.0, 0.0, step=0)
        layout.active_channels(good)
        with pytest.raises(ValueError, match="^non-finite value inf$"):
            layout.active_channels(replace(good, **{first: math.inf, second: math.nan}))


class TestClockOracle:
    def test_shared_gate_follows_ticks(self):
        clock = SpikeClock("shared")
        active = [4, 40, 64, 72, 90]
        for t in range(1000):
            assert clock.gate(t, active) == (active if shared_tick(t) else [])

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

