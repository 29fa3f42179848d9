"""Replayable, bit-exact episode records.

Binary format "SPKC" v1, little-endian: a fixed header (magic, version,
step_ms, n_channels, seed, n_steps; step_ms is always 1), then one varint
channel-count per step followed by that many varint channel indices,
then the event table, which ends the file: a uint32 count, then per event
a kind byte (0 reward, 1 punishment) and a varint step, the events' (step,
kind) pairs rising strictly.
Sparse frames keep a 2,000,000-step episode with ~6 spikes per active
step around a few megabytes.

An :class:`EpisodeRecord` checks the rules of a record once, when it is
made, and is immutable, so every record can be written, reads back equal
and can be replayed; ``from_bytes`` checks only the format.

The codec works on numpy arrays a block at a time, so its temporaries
stay a fixed size whatever the record's length; the decoder's jump tables
share one scratch array per record. ``_write_varint`` and ``_read_varint``
are the one-value reference that ``tests/test_records.py`` checks the
encoder and decoder against.
"""

from __future__ import annotations

import mmap
import struct
from array import array
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

STEPS_PER_S = 1000  # the one clock: every step of every record, world and detector is 1 ms

MAGIC = b"SPKC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHHQQ")  # magic, version, step_ms, then the fields below
_STEP_MS = 1000 // STEPS_PER_S  # the header's step_ms, the only value it may hold
# the header's fields after step_ms, with their largest value
MAX_STEPS = 2**64 - 1  # the longest record, in steps
_HEADER_LIMITS = {"n_channels": 0xFFFF, "seed": 2**64 - 1, "n_steps": MAX_STEPS}
_ARRAYS = ("spike_steps", "indptr", "channels", "reward_steps", "punishment_steps")

_KIND_REWARD = 0
_KIND_PUNISHMENT = 1

_BLOCK_BYTES = 1 << 14   # body bytes from_bytes decodes per pass
_BLOCK_FRAMES = 1 << 12  # spike frames to_bytes encodes per pass
_INT64_MAX = np.iinfo(np.int64).max


def _write_varint(buf: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _varint_lengths(values: np.ndarray) -> np.ndarray:
    """The number of bytes each non-negative value takes as a varint."""
    lengths = np.ones(values.shape, np.int64)
    top = int(values.max()) if values.size else 0
    shift = 7
    while top >> shift:
        lengths += (values >> shift) != 0
        shift += 7
    return lengths


def _put_varints(out: np.ndarray, pos: np.ndarray, values: np.ndarray) -> None:
    """Write the varint of each non-negative ``values[i]`` into out from ``pos[i]`` on."""
    while values.size:
        more = values > 0x7F
        out[pos] = (values & 0x7F) | more * 0x80
        pos = pos[more] + 1
        values = values[more] >> 7


def _read_varints(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode every complete varint at the start of a uint8 buffer.

    Returns the values, the value each continuation byte (high bit set)
    belongs to, and the values beyond int64, which read as its maximum.
    """
    more = (buf >= 0x80).nonzero()[0]
    if not more.size:
        return buf.astype(np.int64), more, more
    owner = more - np.arange(len(more))
    values = buf[buf < 0x80].astype(np.int64)
    # each whole multi-byte value, the index of its first byte and of its last
    longer = owner[np.append(True, owner[1:] != owner[:-1])]
    longer = longer[longer < len(values)]
    start = longer + owner.searchsorted(longer)
    end = longer + owner.searchsorted(longer, "right")
    values[longer] = 0
    for k in range(9):  # bytes 0 to 8 carry bits 0 to 62
        if not longer.size:
            break
        at = start + k
        values[longer] |= (buf[at] & 0x7F).astype(np.int64) << (7 * k)
        stay = end > at
        longer, start, end = longer[stay], start[stay], end[stay]
    if longer.size:
        # a 1 anywhere in byte 9 onward sets bit 63 or above
        ones = np.cumsum((buf & 0x7F) != 0)
        longer = longer[ones[end] > ones[start + 8]]
        values[longer] = _INT64_MAX
    return values, owner, longer


def _scan_frames(values: np.ndarray, steps_left: int,
                 work: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Find the spike frames in the varints of the steps still to read.

    ``values[0]`` is the channel count of the next step, and each count is
    followed by that many channel indices. For the frames (nonzero counts)
    wholly in ``values`` among the next ``steps_left`` steps, returns each
    one's step, counted from the first, and the number of channel indices
    up to its end; then how many values those steps take up. Where a frame
    does not fit in ``values``, the steps read end before it. ``work`` is
    scratch, rows of ``len(values) + 2`` or more, row 0 holding 0, 1, 2, ...
    """
    m = len(values)
    steps_left = min(steps_left, m + 1)  # keeps the comparisons in int64
    ramp, target, skip, hop = work[:, :m + 2]
    # target[p]: where the step after a frame counted at p starts; hop[p]:
    # where the next frame's count is, past the zeros (empty steps) after
    # that; position m: none left; m + 1: the frame runs past the values
    np.add(np.minimum(values, m), ramp[1:m + 1], out=target[:m])
    np.minimum(target, m + 1, out=target)
    target[m:] = m + 1
    # skip[q]: the first nonzero value at or after q; a run of zeros skips to its end
    skip[:] = ramp
    zeros = (values == 0).nonzero()[0]
    past = zeros + 1
    np.putmask(past[:-1], zeros[1:] == past[:-1], m + 1)
    skip[zeros] = np.minimum.accumulate(past[::-1])[::-1]
    starts, p = array("q"), int(skip[0])
    # each index is in range, and mode="clip" lets take fill `out` in place
    skip.take(target, out=hop, mode="clip")
    hop2 = hop.take(hop, out=target, mode="clip")
    hop4 = hop2.take(hop2, out=skip, mode="clip")
    # Python walks the 4-hop table four hops, 16 frames, per step; gathers
    # through the 4-, 2- and 1-hop tables fill in the frames between
    jumps = memoryview(hop4)
    while p <= m:
        starts.append(p)
        p = jumps[jumps[jumps[jumps[p]]]]
    rows = np.empty((16, len(starts)), dtype=np.intp)  # row k: k frames on from each start
    rows[0] = np.frombuffer(starts, dtype=np.int64)
    for k in (4, 8, 12):
        rows[k] = hop4.take(rows[k - 4])
    rows[2::4] = hop2.take(rows[::4])
    rows[1::2] = hop.take(rows[::2])
    # the walk in order; only the last start's column reaches m + 1
    found = rows.T.ravel()[:16 * (len(starts) - 1) + int(np.count_nonzero(rows[:, -1] <= m))]
    frames = found[:-1]  # the last one: no whole frame
    counts = values.take(frames)
    through = counts.cumsum()
    steps = frames - through + counts
    keep = int(steps.searchsorted(steps_left))
    channels = int(through[keep - 1]) if keep else 0
    return steps[:keep], through[:keep], min(int(found[keep]), steps_left + channels)


def check_seed(seed: int) -> None:
    """Refuse a negative seed; the seeded generators (pong, synthetic, GA) call it first."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def check_header(**fields: int) -> None:
    """Refuse a header field the header cannot hold; recorders call it before any work."""
    for name, value in fields.items():
        if not 0 <= value <= _HEADER_LIMITS[name]:
            raise ValueError(f"bad record: {name} {value} is outside the header's "
                             f"range 0 to {_HEADER_LIMITS[name]}")


def _check_steps(name: str, steps: np.ndarray, n_steps: int) -> None:
    """Raise ``ValueError`` unless steps rise strictly from >= 0 to < n_steps."""
    bad = steps >= n_steps  # boolean views only: no int64 temporary
    bad[1:] |= steps[1:] <= steps[:-1]
    bad[:1] |= steps[:1] < 0
    if bad.any():
        raise ValueError(f"bad record: {name} step {int(steps[bad.argmax()])} is negative, "
                         f"out of order or not below n_steps {n_steps}")


@dataclass(frozen=True, eq=False)
class EpisodeRecord:
    """Per-step sparse spike frames plus reward/punishment event times.

    Spike frames are stored CSR-style: ``spike_steps[k]`` is the k-th
    step carrying at least one spike and its channels are
    ``channels[indptr[k]:indptr[k+1]]``. The dopamine channel is implied
    by ``reward_steps``. A record that breaks a rule of ``__post_init__``
    raises ``ValueError``; fields and (read-only int64) arrays are fixed.
    """

    n_channels: int
    seed: int
    n_steps: int
    spike_steps: np.ndarray   # steps with >= 1 spike
    indptr: np.ndarray        # len(spike_steps) + 1 frame ends
    channels: np.ndarray      # channel indices
    reward_steps: np.ndarray
    punishment_steps: np.ndarray

    def __post_init__(self) -> None:
        """Header fields in range; integer arrays (or empty) whose
        values fit int64; spike, reward and punishment steps each rising strictly in
        [0, n_steps); ``indptr`` rising strictly from 0 to ``len(channels)`` (no empty
        frame); channels in [0, n_channels)."""
        check_header(**{name: getattr(self, name) for name in _HEADER_LIMITS})
        for name in _ARRAYS:
            values = np.asarray(getattr(self, name))
            if values.size and values.dtype.kind not in "iu":
                raise ValueError(f"bad record: {name} holds {values.dtype} values, not integers")
            if values.dtype.kind == "u" and values.size and int(values.max()) > _INT64_MAX:
                raise ValueError(f"bad record: {name} holds {int(values.max())}, beyond int64")
            values = values.astype(np.int64, copy=False).view()
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        n_steps, ptr, channels = self.n_steps, self.indptr, self.channels
        _check_steps("spike_steps", self.spike_steps, n_steps)
        if (len(ptr) != len(self.spike_steps) + 1 or ptr[0] != 0 or ptr[-1] != len(channels)
                or (ptr[1:] <= ptr[:-1]).any()):
            raise ValueError(f"bad record: indptr must have {len(self.spike_steps) + 1} "
                             f"entries rising strictly from 0 to {len(channels)}")
        low, high = (int(channels.min()), int(channels.max())) if channels.size else (0, -1)
        if low < 0:
            raise ValueError(f"bad record: channel index {low} < 0")
        if high >= self.n_channels:
            raise ValueError(f"bad record: channel index {high} >= n_channels {self.n_channels}")
        for name in ("reward_steps", "punishment_steps"):
            _check_steps(name, getattr(self, name), n_steps)

    @property
    def duration_s(self) -> float:
        return float(self.n_steps) / STEPS_PER_S

    @classmethod
    def build(
        cls,
        *,
        n_channels: int,
        seed: int,
        n_steps: int,
        frames: Iterable[tuple[int, Sequence[int]]],
        reward_steps: Sequence[int],
        punishment_steps: Sequence[int] = (),
    ) -> "EpisodeRecord":
        steps = []
        indptr = [0]
        chans: list[int] = []
        for step, channel_ids in frames:
            if not channel_ids:
                continue
            steps.append(step)
            chans.extend(channel_ids)
            indptr.append(len(chans))
        return cls(n_channels=n_channels, seed=seed, n_steps=n_steps,
                   spike_steps=steps, indptr=indptr, channels=chans,
                   reward_steps=sorted(reward_steps), punishment_steps=sorted(punishment_steps))

    def frames(self) -> Iterator[tuple[int, list[int]]]:
        """Yield (step, channel indices) for every step that has spikes."""
        steps = self.spike_steps.tolist()
        indptr = self.indptr.tolist()
        chans = self.channels.tolist()
        for k, step in enumerate(steps):
            yield step, chans[indptr[k]:indptr[k + 1]]

    def to_bytes(self) -> bytes:
        """Encode the record."""
        events = sorted(
            [(int(s), _KIND_REWARD) for s in self.reward_steps]
            + [(int(s), _KIND_PUNISHMENT) for s in self.punishment_steps]
        )
        table = bytearray(struct.pack("<I", len(events)))
        for step, kind in events:
            table.append(kind)
            _write_varint(table, step)
        # The output goes to an anonymous memory map sized as if every count
        # and index took the widest varint; an empty step is one of its zero
        # bytes, and the pages past the end are never touched.
        n_values = len(self.spike_steps) + len(self.channels)
        top = max(n_values, int(self.channels.max()) if self.channels.size else 0)
        widest = int(_varint_lengths(np.array([top]))[0])
        size = _HEADER.size + self.n_steps + widest * n_values + len(table)
        buf = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
        buf[:_HEADER.size] = _HEADER.pack(MAGIC, FORMAT_VERSION, _STEP_MS, self.n_channels,
                                          self.seed, self.n_steps)
        out = np.frombuffer(buf, dtype=np.uint8)
        at = _HEADER.size  # where the first step not yet written goes
        prev = 0           # that step
        for k0 in range(0, len(self.spike_steps), _BLOCK_FRAMES):
            steps = self.spike_steps[k0:k0 + _BLOCK_FRAMES]
            ptr = self.indptr[k0:k0 + len(steps) + 1]
            counts = np.diff(ptr)
            # each frame's count followed by its channel indices
            values = np.insert(self.channels[ptr[0]:ptr[-1]], ptr[:-1] - ptr[0], counts)
            lengths = _varint_lengths(values)
            # an empty step is a single zero byte ahead of the next frame
            empty_before = steps - prev - np.arange(len(steps))
            pos = at + np.cumsum(lengths) - lengths + np.repeat(empty_before, counts + 1)
            _put_varints(out, pos, values)
            at = int(pos[-1] + lengths[-1])
            prev = int(steps[-1]) + 1
        at += self.n_steps - prev
        buf[at:at + len(table)] = table
        return buf[:at + len(table)]

    @classmethod
    def from_bytes(cls, raw: bytes) -> "EpisodeRecord":
        """Decode a record; any malformed input raises ``ValueError``.

        Only the format, event order included, is checked here; the record's rules,
        when it is made.
        """
        if len(raw) < _HEADER.size:
            raise ValueError(f"truncated record: {len(raw)}-byte file has no full header")
        magic, version, step_ms, n_channels, seed, n_steps = _HEADER.unpack_from(raw, 0)
        if magic != MAGIC:
            raise ValueError("not an episode record (bad magic)")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported record version {version}")
        if step_ms != _STEP_MS:
            raise ValueError(f"bad record header: step_ms is {step_ms}, not {_STEP_MS}")
        body = np.frombuffer(raw, dtype=np.uint8)
        # Each step and each channel index takes a byte or more, so the indices
        # fit in the bytes the steps leave: a close bound, which only a
        # truncated record overruns, for an array cut to size once. Frames can
        # be far fewer than steps; each block's steps and ends are joined at the end.
        room = max(len(raw) - _HEADER.size - n_steps, 0)
        channels = np.empty(room, dtype=np.int64)
        frame_steps, frame_ends = [np.zeros(0, np.int64)], [np.zeros(1, np.int64)]
        n_chans = 0
        wide_channel = False
        pos = _HEADER.size
        step = 0
        size = _BLOCK_BYTES
        work = np.empty((4, 0), dtype=np.intp)
        at_end = False
        while step < n_steps and not at_end:
            chunk = body[pos:pos + size]
            at_end = pos + size >= len(raw)
            values, owner, wide = _read_varints(chunk)
            if work.shape[1] < len(values) + 2:  # _scan_frames's scratch
                work = np.tile(np.arange(len(values) + 2), (4, 1))
            steps, through, used = _scan_frames(values, n_steps - step, work)
            total = int(through[-1]) if len(steps) else 0
            if n_chans + total > room:
                break
            frame_steps.append(steps + step)
            frame_ends.append(through + n_chans)
            # channel positions rise by 1 in a frame, by 1 + the steps between frames
            at = np.ones(total, dtype=np.intp)
            at[:1] = steps[:1] + 1
            at[through[:-1]] = steps[1:] - steps[:-1] + 1
            channels[n_chans:n_chans + total] = values.take(at.cumsum(out=at))
            n_chans += total
            # a value beyond int64 before the steps' end is a channel index
            wide_channel = wide_channel or bool(wide.size and wide[0] < used)
            step += used - total
            pos += used + int(owner.searchsorted(used))  # with continuation bytes
            # a frame longer than the chunk needs a longer chunk
            size = _BLOCK_BYTES if used else 2 * size
        if step < n_steps:
            raise ValueError(f"truncated record: spike frames ends at byte {len(raw)}")
        channels.resize(n_chans, refcheck=False)  # hands the unused tail back to the allocator
        rewards = []
        punishments = []
        wrong = None  # the error of the first event of another kind or out of (step, kind) order
        event = (-1, -1)
        try:
            (n_events,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            for _ in range(n_events):
                kind = raw[pos]
                if kind not in (_KIND_REWARD, _KIND_PUNISHMENT) and wrong is None:
                    wrong = (f"bad record: event kind {kind} at byte {pos} is neither 0 "
                             "(reward) nor 1 (punishment)")
                step, pos = _read_varint(raw, pos + 1)
                if (step, kind) <= event and wrong is None:
                    wrong = (f"bad record: record event at step {step} is out of order: "
                             f"(step, kind) {(step, kind)} follows {event}")
                event = step, kind
                (rewards if kind == _KIND_REWARD else punishments).append(step)
        except (IndexError, struct.error):
            raise ValueError(f"truncated record: event table ends at byte {len(raw)}") from None
        if wrong is not None:
            raise ValueError(wrong)
        if pos < len(raw):
            raise ValueError(f"bad record: {len(raw) - pos} bytes after the event table")
        if wide_channel:
            raise ValueError("bad record: a value does not fit in 64 bits")
        try:
            reward_steps = np.asarray(rewards, dtype=np.int64)
            punishment_steps = np.asarray(punishments, dtype=np.int64)
        except OverflowError:
            raise ValueError("bad record: a value does not fit in 64 bits") from None
        return cls(
            n_channels=n_channels,
            seed=seed,
            n_steps=n_steps,
            spike_steps=np.concatenate(frame_steps),
            indptr=np.concatenate(frame_ends),
            channels=channels,
            reward_steps=reward_steps,
            punishment_steps=punishment_steps,
        )

    def save(self, path) -> None:
        data = self.to_bytes()  # encoded first, so a failure leaves no file
        with open(path, "wb") as fh:
            fh.write(data)

    @classmethod
    def load(cls, path) -> "EpisodeRecord":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpisodeRecord):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))
