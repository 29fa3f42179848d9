"""Episode record format: round trips, varints, error handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalneuron.records import (
    EpisodeRecord,
    _read_varint,
    _write_varint,
)


def random_record(rng, n_steps=500, n_channels=10):
    frames = []
    for t in range(n_steps):
        if rng.random() < 0.3:
            k = int(rng.integers(1, 5))
            chans = sorted(rng.choice(n_channels, size=k, replace=False).tolist())
            frames.append((t, chans))
    rewards = sorted(set(rng.integers(0, n_steps, 5).tolist()))
    punish = sorted(set(rng.integers(0, n_steps, 3).tolist()))
    return EpisodeRecord.build(
        step_ms=1, n_channels=n_channels, seed=int(rng.integers(0, 2**16)),
        n_steps=n_steps, frames=frames, reward_steps=rewards,
        punishment_steps=punish,
    )


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_round_trip(self, value):
        buf = bytearray()
        _write_varint(buf, value)
        out, pos = _read_varint(bytes(buf), 0)
        assert out == value
        assert pos == len(buf)

    def test_single_byte_values(self):
        for v in (0, 1, 127):
            buf = bytearray()
            _write_varint(buf, v)
            assert len(buf) == 1

    def test_concatenated_stream(self):
        buf = bytearray()
        values = [0, 127, 128, 300, 10**9]
        for v in values:
            _write_varint(buf, v)
        pos = 0
        out = []
        while pos < len(buf):
            v, pos = _read_varint(bytes(buf), pos)
            out.append(v)
        assert out == values


class TestRoundTrip:
    def test_bytes_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rec = random_record(rng)
            again = EpisodeRecord.from_bytes(rec.to_bytes())
            assert again == rec

    def test_resave_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        rec = random_record(rng)
        p1 = tmp_path / "a.spkc"
        p2 = tmp_path / "b.spkc"
        rec.save(p1)
        EpisodeRecord.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_frames_reconstruction(self):
        frames = [(3, [1, 4]), (7, [0]), (499, [2, 3, 9])]
        rec = EpisodeRecord.build(
            step_ms=1, n_channels=10, seed=0, n_steps=500,
            frames=frames, reward_steps=[100],
        )
        assert list(rec.frames()) == frames

    def test_empty_frames_dropped(self):
        rec = EpisodeRecord.build(
            step_ms=1, n_channels=5, seed=0, n_steps=10,
            frames=[(2, []), (4, [1])], reward_steps=[],
        )
        assert list(rec.frames()) == [(4, [1])]

    def test_header_fields_survive(self):
        rec = EpisodeRecord.build(
            step_ms=2, n_channels=133, seed=12345, n_steps=1000,
            frames=[], reward_steps=[5],
        )
        again = EpisodeRecord.from_bytes(rec.to_bytes())
        assert again.step_ms == 2
        assert again.n_channels == 133
        assert again.seed == 12345
        assert again.n_steps == 1000
        assert again.duration_s == 2.0

    def test_events_preserved_and_sorted(self):
        rec = EpisodeRecord.build(
            step_ms=1, n_channels=5, seed=0, n_steps=100,
            frames=[], reward_steps=[90, 10], punishment_steps=[50],
        )
        again = EpisodeRecord.from_bytes(rec.to_bytes())
        assert again.reward_steps.tolist() == [10, 90]
        assert again.punishment_steps.tolist() == [50]


class TestErrors:
    def test_bad_magic(self):
        rng = np.random.default_rng(2)
        raw = bytearray(random_record(rng).to_bytes())
        raw[:4] = b"NOPE"
        with pytest.raises(ValueError, match="magic"):
            EpisodeRecord.from_bytes(bytes(raw))

    def test_bad_version(self):
        rng = np.random.default_rng(3)
        raw = bytearray(random_record(rng).to_bytes())
        raw[4] = 99
        with pytest.raises(ValueError, match="version"):
            EpisodeRecord.from_bytes(bytes(raw))

    def test_equality_discriminates(self):
        rng = np.random.default_rng(4)
        a = random_record(rng)
        b = random_record(rng)
        assert a != b
        assert a == EpisodeRecord.from_bytes(a.to_bytes())


def decodes_or_value_error(raw):
    """from_bytes either returns a record or raises ValueError."""
    try:
        rec = EpisodeRecord.from_bytes(raw)
    except ValueError:
        return None
    assert isinstance(rec, EpisodeRecord)
    return rec


class TestMalformed:
    def small_record_bytes(self):
        return EpisodeRecord.build(
            step_ms=1, n_channels=300, seed=0, n_steps=12,
            frames=[(1, [0, 299]), (5, [130])], reward_steps=[3, 11],
            punishment_steps=[7],
        ).to_bytes()

    def test_every_strict_prefix_is_truncated(self):
        raw = self.small_record_bytes()
        assert EpisodeRecord.from_bytes(raw).n_steps == 12
        for cut in range(len(raw)):
            with pytest.raises(ValueError, match="truncated record"):
                EpisodeRecord.from_bytes(raw[:cut])

    def test_channel_index_out_of_range(self):
        rec = EpisodeRecord.build(
            step_ms=1, n_channels=4, seed=0, n_steps=10,
            frames=[(2, [1, 4])], reward_steps=[],
        )
        with pytest.raises(ValueError, match="channel index 4 >= n_channels 4"):
            EpisodeRecord.from_bytes(rec.to_bytes())

    @pytest.mark.parametrize("kind", ["reward_steps", "punishment_steps"])
    def test_event_past_the_end(self, kind):
        events = {"reward_steps": [], "punishment_steps": [], kind: [2, 10]}
        rec = EpisodeRecord.build(step_ms=1, n_channels=4, seed=0, n_steps=10,
                                  frames=[], **events)
        with pytest.raises(ValueError, match="event at step 10 >= n_steps 10"):
            EpisodeRecord.from_bytes(rec.to_bytes())

    def test_zero_step_ms(self):
        rec = EpisodeRecord.build(
            step_ms=0, n_channels=4, seed=0, n_steps=10, frames=[], reward_steps=[],
        )
        with pytest.raises(ValueError, match="step_ms"):
            EpisodeRecord.from_bytes(rec.to_bytes())

    def test_value_beyond_64_bits(self):
        raw = bytearray(
            EpisodeRecord.build(
                step_ms=1, n_channels=4, seed=0, n_steps=1, frames=[], reward_steps=[],
            ).to_bytes()
        )
        raw[-4:] = (1).to_bytes(4, "little")  # one event ...
        raw.append(0)                         # ... a reward ...
        _write_varint(raw, 2**70)             # ... at an impossible step
        with pytest.raises(ValueError, match="64 bits"):
            EpisodeRecord.from_bytes(bytes(raw))

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=300))
    def test_fuzz_arbitrary_bytes(self, raw):
        decodes_or_value_error(raw)

    @settings(max_examples=300, deadline=None)
    @given(
        step_ms=st.integers(0, 2**16 - 1),
        n_channels=st.integers(0, 2**16 - 1),
        n_steps=st.integers(0, 2**64 - 1),
        body=st.binary(max_size=300),
    )
    def test_fuzz_valid_header_arbitrary_body(self, step_ms, n_channels, n_steps, body):
        header = b"SPKC" + (1).to_bytes(2, "little") + step_ms.to_bytes(2, "little") \
            + n_channels.to_bytes(2, "little") + bytes(8) + n_steps.to_bytes(8, "little")
        decodes_or_value_error(header + body)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**16), cut=st.integers(0, 10**6), tail=st.binary(max_size=20))
    def test_fuzz_truncated_records(self, seed, cut, tail):
        raw = random_record(np.random.default_rng(seed), n_steps=60).to_bytes()
        decodes_or_value_error(raw[:cut % (len(raw) + 1)] + tail)
