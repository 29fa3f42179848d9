"""Episode record format: round trips, varints, error handling."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalneuron import records
from causalneuron.recording import record_pong_episode
from causalneuron.records import (
    EpisodeRecord,
    _read_varint,
    _write_varint,
)

from reference import reference_decode, spkc_bytes


def steps_refusal(name, step, n_steps=10):
    """The whole text, as a regex, refusing a record's array of steps."""
    return (f"^bad record: {name} step {step} is negative, out of order or not below "
            f"n_steps {n_steps}$")

BLOCK = records._BLOCK_BYTES  # the decoder's default block


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
        n_channels=n_channels, seed=int(rng.integers(0, 2**16)),
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
            n_channels=10, seed=0, n_steps=500,
            frames=frames, reward_steps=[100],
        )
        assert list(rec.frames()) == frames

    def test_empty_frames_dropped(self):
        rec = EpisodeRecord.build(
            n_channels=5, seed=0, n_steps=10,
            frames=[(2, []), (4, [1])], reward_steps=[],
        )
        assert list(rec.frames()) == [(4, [1])]

    def test_header_fields_survive(self):
        rec = EpisodeRecord.build(
            n_channels=133, seed=12345, n_steps=1500,
            frames=[], reward_steps=[5],
        )
        raw = rec.to_bytes()
        assert struct.unpack_from("<H", raw, 6) == (1,)  # step_ms: every step is 1 ms
        again = EpisodeRecord.from_bytes(raw)
        assert again.n_channels == 133
        assert again.seed == 12345
        assert again.n_steps == 1500
        assert again.duration_s == 1.5

    # the last: n_steps / 1000 (int / int, rounded once) reads one ulp lower
    @pytest.mark.parametrize("n_steps", [0, 1, 999, 2**53 + 1, 2**64 - 1, 14046286627791492475])
    def test_duration_is_the_steps_over_1000(self, n_steps):
        rec = EpisodeRecord.build(n_channels=1, seed=0, n_steps=n_steps, frames=[],
                                  reward_steps=[])
        assert rec.duration_s == n_steps / 1000.0

    def test_events_preserved_and_sorted(self):
        rec = EpisodeRecord.build(
            n_channels=5, seed=0, n_steps=100,
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
            n_channels=300, seed=0, n_steps=12,
            frames=[(1, [0, 299]), (5, [130])], reward_steps=[3, 11],
            punishment_steps=[7],
        ).to_bytes()

    def test_every_strict_prefix_is_truncated(self):
        raw = self.small_record_bytes()
        assert EpisodeRecord.from_bytes(raw).n_steps == 12
        for cut in range(len(raw)):
            with pytest.raises(ValueError, match="truncated record"):
                EpisodeRecord.from_bytes(raw[:cut])

    # The record refuses these when it is made, so the encoder cannot write
    # them; the decoder's refusal is checked on hand-made bytes.

    def test_channel_index_out_of_range(self):
        with pytest.raises(ValueError, match="channel index 4 >= n_channels 4"):
            EpisodeRecord.build(n_channels=4, seed=0, n_steps=10,
                                frames=[(2, [1, 4])], reward_steps=[])
        raw = spkc_bytes(n_channels=4, n_steps=10, frames=[(2, [1, 4])])
        with pytest.raises(ValueError, match="channel index 4 >= n_channels 4"):
            EpisodeRecord.from_bytes(raw)

    @pytest.mark.parametrize("kind", ["reward_steps", "punishment_steps"])
    def test_event_past_the_end(self, kind):
        events = {"reward_steps": [], "punishment_steps": [], kind: [2, 10]}
        with pytest.raises(ValueError, match=steps_refusal(kind, 10)):
            EpisodeRecord.build(n_channels=4, seed=0, n_steps=10,
                                frames=[], **events)
        code = 0 if kind == "reward_steps" else 1
        raw = spkc_bytes(n_channels=4, n_steps=10, events=[(2, code), (10, code)])
        with pytest.raises(ValueError, match=steps_refusal(kind, 10)):
            EpisodeRecord.from_bytes(raw)

    @pytest.mark.parametrize("step_ms", [0, 2, 2**16 - 1])
    def test_step_ms_other_than_1(self, step_ms):
        # a step is 1 ms: the header says so, and is checked before the body
        message = f"^bad record header: step_ms is {step_ms}, not 1$"
        raw = spkc_bytes(step_ms=step_ms, n_channels=4, n_steps=10, events=[(3, 0)])
        with pytest.raises(ValueError, match=message):
            EpisodeRecord.from_bytes(raw)
        for cut in (26, len(raw) - 1):  # no body, and a truncated event table
            with pytest.raises(ValueError, match=message):
                EpisodeRecord.from_bytes(raw[:cut])
        with pytest.raises(ValueError, match=message):  # and bytes after the table
            EpisodeRecord.from_bytes(raw + b"x")
        assert EpisodeRecord.from_bytes(spkc_bytes(n_channels=4, n_steps=10, events=[(3, 0)]))

    def test_a_record_has_no_step_ms(self):
        with pytest.raises(TypeError, match="step_ms"):
            EpisodeRecord.build(step_ms=1, n_channels=4, seed=0, n_steps=10, frames=[],
                                reward_steps=[])

    @pytest.mark.parametrize("kind", [0, 1])
    def test_repeated_event_step(self, kind):
        raw = spkc_bytes(n_channels=4, n_steps=10, events=[(2, 1 - kind), (4, kind), (4, kind)])
        with pytest.raises(ValueError, match=fr"^bad record: record event at step 4 is out of "
                                             fr"order: \(step, kind\) \(4, {kind}\) follows "
                                             fr"\(4, {kind}\)$"):
            EpisodeRecord.from_bytes(raw)
        # a reward and a punishment at one step are two different events
        EpisodeRecord.from_bytes(spkc_bytes(n_channels=4, n_steps=10, events=[(4, 0), (4, 1)]))

    @pytest.mark.parametrize("events, message", [
        ([(5, 0), (3, 0)], r"step 3 is out of order: \(step, kind\) \(3, 0\) follows \(5, 0\)"),
        ([(3, 1), (3, 0)], r"step 3 is out of order: \(step, kind\) \(3, 0\) follows \(3, 1\)"),
    ])
    def test_event_table_out_of_order(self, events, message):
        # to_bytes writes (step, kind) rising, so no record reads back from these
        raw = spkc_bytes(n_channels=4, n_steps=10, events=events)
        with pytest.raises(ValueError, match="^bad record: record event at " + message):
            EpisodeRecord.from_bytes(raw)

    def test_value_beyond_64_bits(self):
        raw = bytearray(
            EpisodeRecord.build(
                n_channels=4, seed=0, n_steps=1, frames=[], reward_steps=[],
            ).to_bytes()
        )
        raw[-4:] = (1).to_bytes(4, "little")  # one event ...
        raw.append(0)                         # ... a reward ...
        _write_varint(raw, 2**70)             # ... at an impossible step
        with pytest.raises(ValueError, match="64 bits"):
            EpisodeRecord.from_bytes(bytes(raw))

    def test_bytes_after_the_event_table(self):
        raw = self.small_record_bytes()
        with pytest.raises(ValueError, match="bad record: 8 bytes after the event table"):
            EpisodeRecord.from_bytes(raw + b"garbage!")

    def test_unknown_event_kind(self):
        raw = bytearray(self.small_record_bytes())
        # the event table ends with the (kind, step) pairs (0, 3), (1, 7), (0, 11)
        at = len(raw) - 6
        assert raw[at:] == bytes([0, 3, 1, 7, 0, 11])
        raw[at] = 7
        with pytest.raises(ValueError, match=f"event kind 7 at byte {at} is neither"):
            EpisodeRecord.from_bytes(bytes(raw))
        # an unknown kind outranks bytes after the table, and a truncated table both
        with pytest.raises(ValueError, match="event kind 7"):
            EpisodeRecord.from_bytes(bytes(raw) + b"x")
        with pytest.raises(ValueError, match="truncated record: event table"):
            EpisodeRecord.from_bytes(bytes(raw[:-1]))

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=300))
    def test_fuzz_arbitrary_bytes(self, raw):
        decodes_or_value_error(raw)

    @settings(max_examples=300, deadline=None)
    @given(
        step_ms=st.just(1) | st.integers(0, 2**16 - 1),  # about half valid
        n_channels=st.integers(0, 2**16 - 1),
        n_steps=st.integers(0, 2**64 - 1),
        body=st.binary(max_size=300),
    )
    def test_fuzz_valid_header_arbitrary_body(self, step_ms, n_channels, n_steps, body):
        header = b"SPKC" + (1).to_bytes(2, "little") + step_ms.to_bytes(2, "little") \
            + n_channels.to_bytes(2, "little") + bytes(8) + n_steps.to_bytes(8, "little")
        if step_ms != 1:  # refused whatever the body
            with pytest.raises(ValueError, match=f"^bad record header: step_ms is {step_ms},"):
                EpisodeRecord.from_bytes(header + body)
        else:
            decodes_or_value_error(header + body)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**16), cut=st.integers(0, 10**6), tail=st.binary(max_size=20))
    def test_fuzz_truncated_records(self, seed, cut, tail):
        raw = random_record(np.random.default_rng(seed), n_steps=60).to_bytes()
        decodes_or_value_error(raw[:cut % (len(raw) + 1)] + tail)


# -- the array codec against the one-value reference --------------------------

def reference_bytes(rec):
    """The .spkc encoding, written one varint at a time."""
    events = sorted([(t, 0) for t in rec.reward_steps.tolist()]
                    + [(t, 1) for t in rec.punishment_steps.tolist()])
    return spkc_bytes(n_channels=rec.n_channels, seed=rec.seed,
                      n_steps=rec.n_steps, frames=rec.frames(), events=events)


def damaged(raw, edits, cut, tail):
    """The bytes with each (position, byte) edit made, cut short and a tail added."""
    raw = bytearray(raw)
    for at, byte in edits:
        raw[at % len(raw)] = byte
    return bytes(raw[:cut % (len(raw) + 1)]) + tail


def outcome(decode, raw):
    try:
        return decode(raw)
    except ValueError as exc:
        return str(exc)


@st.composite
def episode_records(draw):
    n_channels = draw(st.sampled_from([1, 7, 133, 300, 2**14 + 5, 2**16 - 1]))
    n_steps = draw(st.integers(0, 300))
    step = st.integers(0, max(n_steps - 1, 0))
    steps = sorted(draw(st.lists(step, unique=True, max_size=60))) if n_steps else []
    channel = st.integers(0, n_channels - 1)
    frames = [
        (t, draw(st.lists(channel, min_size=1, max_size=draw(st.sampled_from([3, 8, 140])))))
        for t in steps
    ]
    events = st.lists(step, unique=True, max_size=8) if n_steps else st.just([])
    return EpisodeRecord.build(
        n_channels=n_channels,
        seed=draw(st.integers(0, 2**64 - 1)), n_steps=n_steps, frames=frames,
        reward_steps=draw(events), punishment_steps=draw(events),
    )


class TestArrayCodec:
    @settings(max_examples=200, deadline=None)
    @given(episode_records())
    def test_matches_one_value_reference(self, rec):
        raw = rec.to_bytes()
        assert raw == reference_bytes(rec)
        assert EpisodeRecord.from_bytes(raw) == rec == reference_decode(raw)

    @settings(max_examples=80, deadline=None)
    @given(rec=episode_records())
    @pytest.mark.parametrize("block_bytes", [8, 61])
    def test_matches_one_value_reference_in_small_blocks(self, block_bytes, rec):
        # frames straddle and fill blocks, and many are longer than a block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records, "_BLOCK_BYTES", block_bytes)
            raw = rec.to_bytes()
            assert EpisodeRecord.from_bytes(raw) == rec == reference_decode(raw)

    @pytest.mark.parametrize("frames, n_channels, n_steps", [
        ([(0, [127, 128]), (3, [16383, 16384, 65534])], 65535, 4),   # 1-, 2- and 3-byte indices
        ([(2, list(range(128))), (5, list(range(300)))], 300, 9),     # a two-byte count
        ([], 5, 0),                                                    # no steps at all
        ([(1, [2])], 5, 1000),                                         # trailing empty steps
        ([(0, [0, 0, 4]), (999, [4])], 5, 1000),                       # first and last step
        # the block's walk takes 15, 16, 17 or 32 frames and then reaches the
        # end of the values, as only zero bytes follow (no events)
        *[([(t, [t % 3, 200]) for t in range(k)], 300, k) for k in (15, 16, 17, 32)],
        ([(t, [t % 3, 200]) for t in range(16)], 300, 56),            # and 40 empty steps
    ])
    def test_edge_records(self, frames, n_channels, n_steps):
        rec = EpisodeRecord.build(n_channels=n_channels, seed=9, n_steps=n_steps,
                                  frames=frames, reward_steps=[], punishment_steps=[])
        raw = rec.to_bytes()
        assert raw == reference_bytes(rec)
        assert EpisodeRecord.from_bytes(raw) == rec
        assert list(EpisodeRecord.from_bytes(raw).frames()) == frames

    @pytest.mark.parametrize("frames, n_steps", [
        ([(0, [1, 0]), (3 * BLOCK, [2])], 3 * BLOCK + 1),  # empty steps between frames
        ([(0, [1, 0])], 3 * BLOCK),                          # and trailing
        ([(3 * BLOCK, [0]), (3 * BLOCK + 5, [0, 0])], 3 * BLOCK + 6),  # and leading
        ([(t, [t % 3, 200 + t % 50]) for t in range(4 * BLOCK)], 4 * BLOCK),  # no empty step
    ])
    def test_edge_records_at_the_default_block_size(self, frames, n_steps):
        # runs of empty steps longer than two blocks, and a frame on every step
        rec = EpisodeRecord.build(n_channels=300, seed=9, n_steps=n_steps,
                                  frames=frames, reward_steps=[n_steps - 1])
        raw = rec.to_bytes()
        assert len(raw) > 2 * BLOCK
        assert raw == reference_bytes(rec)
        assert EpisodeRecord.from_bytes(raw) == rec == reference_decode(raw)
        assert list(EpisodeRecord.from_bytes(raw).frames()) == frames

    def test_cut_right_after_the_spike_frames(self):
        # the channel indices fill every byte the steps leave, so only the
        # event table is missing
        rec = EpisodeRecord.build(n_channels=4, seed=0, n_steps=3,
                                  frames=[(0, [1, 2]), (2, [3])], reward_steps=[1])
        raw = rec.to_bytes()
        for cut in range(26 + 6, len(raw)):
            got = outcome(EpisodeRecord.from_bytes, raw[:cut])
            assert got == outcome(reference_decode, raw[:cut])
            assert got == f"truncated record: event table ends at byte {cut}"

    @settings(max_examples=60, deadline=None)
    @given(rec=episode_records())
    @pytest.mark.parametrize("block_bytes", [BLOCK, 8, 61])
    def test_decoded_arrays_are_int64(self, block_bytes, rec):
        # __eq__ compares values with np.array_equal, which ignores the dtype
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records, "_BLOCK_BYTES", block_bytes)
            got = EpisodeRecord.from_bytes(rec.to_bytes())
        assert got == rec
        for name in ("spike_steps", "indptr", "channels", "reward_steps", "punishment_steps"):
            assert getattr(got, name).dtype == np.int64, name

    def test_frame_longer_than_a_decode_block(self):
        big = [2**14 + k % 1000 for k in range(records._BLOCK_BYTES)]  # 3 bytes each
        rec = EpisodeRecord.build(n_channels=2**16 - 1, seed=0, n_steps=50,
                                  frames=[(3, [1]), (4, big), (40, [2])], reward_steps=[49])
        raw = rec.to_bytes()
        assert raw == reference_bytes(rec)
        assert EpisodeRecord.from_bytes(raw) == rec
        with pytest.raises(ValueError, match="truncated record: spike frames"):
            EpisodeRecord.from_bytes(raw[:26 + 5 + 2 * records._BLOCK_BYTES])

    @pytest.mark.parametrize("clock", ["shared", "bernoulli"])
    def test_pong_record_spans_many_blocks(self, clock):
        rec = record_pong_episode(30, 4, clock_mode=clock)
        assert len(rec.spike_steps) > records._BLOCK_FRAMES
        raw = rec.to_bytes()
        assert len(raw) > 3 * records._BLOCK_BYTES
        assert raw == reference_bytes(rec)
        assert EpisodeRecord.from_bytes(raw) == rec

    @settings(max_examples=300, deadline=None)
    @given(
        rec=episode_records(),
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
        cut=st.integers(0, 10**6),
        tail=st.binary(max_size=12),
    )
    def test_damaged_bytes_decode_like_the_reference(self, rec, edits, cut, tail):
        raw = damaged(rec.to_bytes(), edits, cut, tail)
        assert outcome(EpisodeRecord.from_bytes, raw) == outcome(reference_decode, raw)

    @settings(max_examples=120, deadline=None)
    @given(
        rec=episode_records(),
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
        cut=st.integers(0, 10**6),
        tail=st.binary(max_size=12),
    )
    @pytest.mark.parametrize("block_bytes", [8, 61])
    def test_damaged_bytes_in_small_blocks(self, block_bytes, rec, edits, cut, tail):
        raw = damaged(rec.to_bytes(), edits, cut, tail)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records, "_BLOCK_BYTES", block_bytes)
            assert outcome(EpisodeRecord.from_bytes, raw) == outcome(reference_decode, raw)

    @pytest.mark.parametrize("values", [
        [1, 2**56 + 3],   # a nine-byte channel index
        [1, 2**63 - 1],   # the largest that fits
        [1, 2**63],       # ten bytes, bit 63 set
        [2**63],          # a count beyond int64
        [2, 0, 2**70],
    ])
    def test_wide_varints_decode_like_the_reference(self, values):
        body = bytearray()
        for v in values:
            _write_varint(body, v)
        raw = struct.pack("<4sHHHQQ", b"SPKC", 1, 1, 4, 0, 1) + bytes(body) + bytes(4)
        assert outcome(EpisodeRecord.from_bytes, raw) == outcome(reference_decode, raw)

    @pytest.mark.parametrize("body", [
        bytes([1, 0x83] + [0x80] * 12 + [0]),  # a padded 3
        bytes([0x80] * 20 + [0]),              # a padded zero count
        bytes([1] + [0x80] * 9 + [1]),         # zero padding up to bit 63
    ])
    def test_padded_varints_decode_like_the_reference(self, body):
        raw = struct.pack("<4sHHHQQ", b"SPKC", 1, 1, 4, 0, 1) + body + bytes(4)
        assert outcome(EpisodeRecord.from_bytes, raw) == outcome(reference_decode, raw)

    # The encoder writes any record, since these cannot be made; the steps of
    # spike frames are implicit in the bytes, and a varint is never negative.

    @pytest.mark.parametrize("steps", [[5, 3], [2, 2], [-1], [10]])
    def test_encoder_rejects_unordered_spike_steps(self, steps):
        # in each case the last step is the first that breaks the rule
        with pytest.raises(ValueError, match=steps_refusal("spike_steps", steps[-1])):
            EpisodeRecord(
                n_channels=3, seed=0, n_steps=10,
                spike_steps=np.array(steps, dtype=np.int64),
                indptr=np.arange(len(steps) + 1, dtype=np.int64),
                channels=np.zeros(len(steps), dtype=np.int64),
                reward_steps=np.zeros(0, dtype=np.int64),
                punishment_steps=np.zeros(0, dtype=np.int64),
            )

    def test_encoder_rejects_negative_channel(self):
        with pytest.raises(ValueError, match="channel index -1 < 0"):
            EpisodeRecord.build(n_channels=3, seed=0, n_steps=10,
                                frames=[(2, [1, -1])], reward_steps=[])


# -- the rules of a record, checked once when it is made ----------------------

ARRAYS = ("spike_steps", "indptr", "channels", "reward_steps", "punishment_steps")
FIELDS = ("n_channels", "seed", "n_steps") + ARRAYS


def breaks_a_rule(f):
    """Whether the fields break a rule of a record, stated one value at a time."""
    n_steps, ptr = f["n_steps"], list(f["indptr"])

    def rising(steps):
        return all(a < b for a, b in zip([-1] + list(steps), steps)) \
            and all(s < n_steps for s in steps)

    return not (
        0 <= f["n_channels"] <= 2**16 - 1
        and 0 <= f["seed"] <= 2**64 - 1 and 0 <= n_steps <= 2**64 - 1
        and rising(f["spike_steps"]) and rising(f["reward_steps"])
        and rising(f["punishment_steps"])
        and len(ptr) == len(f["spike_steps"]) + 1 and ptr[0] == 0
        and ptr[-1] == len(f["channels"]) and all(a < b for a, b in zip(ptr, ptr[1:]))
        and all(0 <= c < f["n_channels"] for c in f["channels"])
    )


@st.composite
def record_fields(draw):
    """Header values and int64 arrays; about half the time each follows its
    rule, otherwise one to three fields are drawn from any values."""
    loose = draw(st.just(set()) | st.sets(st.sampled_from(FIELDS), min_size=1, max_size=3))

    def pick(name, ruled, anything):
        return draw(anything if name in loose else ruled)

    header = {  # (values in range, values in and out of range)
        "n_channels": (st.integers(1, 5), st.sampled_from([-1, 0, 2, 2**16 - 1, 2**16])),
        "seed": (st.integers(0, 9), st.sampled_from([-1, 0, 2**64 - 1, 2**64])),
        # a record takes a byte per step, so a valid n_steps stays small
        "n_steps": (st.integers(0, 30), st.sampled_from([-1, 0, 9, 2**64])),
    }
    f = {name: pick(name, *values) for name, values in header.items()}
    anything = st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-2, 32), max_size=8)
    top = min(max(f["n_steps"], 0), 31)
    steps = st.lists(st.integers(0, top - 1), unique=True, max_size=8).map(sorted) \
        if top else st.just([])
    for name in ("spike_steps", "reward_steps", "punishment_steps"):
        f[name] = pick(name, steps, anything)
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(f["spike_steps"]),
                          max_size=len(f["spike_steps"])))
    f["indptr"] = pick("indptr", st.just(np.cumsum([0] + sizes).tolist()), anything)
    size = sum(sizes)
    channel = st.integers(0, max(f["n_channels"] - 1, 0))
    f["channels"] = pick("channels", st.lists(channel, min_size=size, max_size=size), anything)
    if draw(st.booleans()):
        f.update({name: np.array(f[name], dtype=np.int64) for name in ARRAYS})
    return f


@settings(max_examples=600, deadline=None)
@given(record_fields())
def test_a_record_is_made_exactly_when_it_follows_the_rules(fields):
    try:
        rec = EpisodeRecord(**fields)
    except ValueError as exc:
        assert breaks_a_rule(fields)
        assert "\n" not in str(exc)
        return
    assert not breaks_a_rule(fields)
    assert EpisodeRecord.from_bytes(rec.to_bytes()) == rec
    for name in ARRAYS:
        assert getattr(rec, name).dtype == np.int64, name
        assert getattr(rec, name).tolist() == list(fields[name]), name


VALID = dict(n_channels=4, seed=0, n_steps=10, spike_steps=[2, 5],
             indptr=[0, 2, 3], channels=[1, 3, 0], reward_steps=[4], punishment_steps=[7])


@pytest.mark.parametrize("change, message", [
    ({"n_channels": 2**16}, "bad record: n_channels 65536 is outside the header's range"),
    ({"seed": -1}, "bad record: seed -1 is outside the header's range"),
    ({"n_steps": 2**64}, "bad record: n_steps 18446744073709551616 is outside the header's"),
    ({"spike_steps": [5, 2]}, steps_refusal("spike_steps", 2)),
    ({"spike_steps": [2, 10]}, steps_refusal("spike_steps", 10)),
    ({"indptr": [0, 2, 2]}, "bad record: indptr must have 3 entries rising strictly from 0 to 3"),
    ({"indptr": [0, 2, 2], "channels": [1, 3]}, "rising strictly from 0 to 2"),  # empty frame
    ({"indptr": [0, 1, 2]}, "rising strictly from 0 to 3"),     # ends before the channels
    ({"indptr": [0, 3]}, "indptr must have 3 entries"),         # the wrong length
    ({"channels": [1, 4, 0]}, "bad record: channel index 4 >= n_channels 4"),
    ({"channels": [1, -2, 0]}, "bad record: channel index -2 < 0"),
    ({"reward_steps": [10]}, steps_refusal("reward_steps", 10)),
    ({"punishment_steps": [10]}, steps_refusal("punishment_steps", 10)),
    ({"reward_steps": [6, 4]}, steps_refusal("reward_steps", 4)),
    ({"reward_steps": [4, 4]}, steps_refusal("reward_steps", 4)),
    ({"punishment_steps": [-1]}, steps_refusal("punishment_steps", -1)),
])
def test_each_rule_is_checked_when_the_record_is_made(tmp_path, change, message):
    path = tmp_path / "bad.spkc"
    with pytest.raises(ValueError, match=message) as exc:
        EpisodeRecord(**{**VALID, **change}).save(path)
    assert "\n" not in str(exc.value)
    assert not path.exists()


@pytest.mark.parametrize("name", ARRAYS)
@pytest.mark.parametrize("values, dtype", [
    (lambda valid: [v + 0.7 for v in valid], "float64"),  # would truncate to the valid ints
    (lambda valid: [True], "bool"),
    (lambda valid: [2**70], "object"),
], ids=["float", "bool", "beyond int64"])
def test_an_array_of_non_integers_is_refused(name, values, dtype):
    with pytest.raises(ValueError) as exc:
        EpisodeRecord(**{**VALID, name: values(VALID[name])})
    assert str(exc.value) == f"bad record: {name} holds {dtype} values, not integers"


@pytest.mark.parametrize("name", ARRAYS)
@pytest.mark.parametrize("value", [2**63, 2**64 - 1])
def test_unsigned_values_beyond_int64_are_refused(name, value):
    values = np.array(VALID[name], dtype=np.uint64)
    values[-1] = value
    with pytest.raises(ValueError) as exc:
        EpisodeRecord(**{**VALID, name: values})
    assert str(exc.value) == f"bad record: {name} holds {value}, beyond int64"


def test_empty_arrays_of_any_type_are_accepted():
    rec = EpisodeRecord(**{**VALID, "spike_steps": [], "indptr": [0], "channels": np.zeros(0),
                           "reward_steps": [], "punishment_steps": np.zeros(0, dtype=bool)})
    assert all(getattr(rec, name).dtype == np.int64 for name in ARRAYS)


def test_a_record_is_immutable():
    rec = EpisodeRecord(**VALID)
    for name, value in VALID.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, value)
    for name in ARRAYS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(rec, name)[:1] = 9
    assert rec == EpisodeRecord(**VALID)
