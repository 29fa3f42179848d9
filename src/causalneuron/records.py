"""Replayable, bit-exact episode records.

Binary format "SPKC" v1, little-endian: a fixed header, then one varint
channel-count per step followed by that many varint channel indices,
then the event table (reward / punishment steps), which ends the file.
Sparse frames keep a 2,000,000-step episode with ~6 spikes per active
step around a few megabytes.

The codec works on numpy arrays a block at a time, so its temporaries
stay a fixed size whatever the record's length. ``_write_varint`` and
``_read_varint`` are the one-value reference that ``tests/test_records.py``
checks the encoder and decoder against.
"""

from __future__ import annotations

import mmap
import struct
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

MAGIC = b"SPKC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHHQQ")
# the header's fields after the magic and the version, with their largest value
_HEADER_LIMITS = {"step_ms": 0xFFFF, "n_channels": 0xFFFF, "seed": 2**64 - 1, "n_steps": 2**64 - 1}

_KIND_REWARD = 0
_KIND_PUNISHMENT = 1

_BLOCK_BYTES = 1 << 14   # body bytes from_bytes decodes per pass
_BLOCK_FRAMES = 1 << 12  # spike frames to_bytes encodes per pass
_JUMP = 16              # frames from_bytes's frame walk takes per Python step
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

    Returns the values, the index of each one's last byte, and whether
    each lies beyond int64 (such a value reads as the int64 maximum).
    """
    ends = np.flatnonzero(buf < 0x80)
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    values = (buf[starts] & 0x7F).astype(np.int64)
    wide = np.zeros(len(ends), dtype=bool)
    longer = np.flatnonzero(ends > starts)
    for k in range(1, 9):  # bytes 1 to 8 carry bits 7 to 62
        if not longer.size:
            break
        at = starts[longer] + k
        values[longer] |= (buf[at] & 0x7F).astype(np.int64) << (7 * k)
        longer = longer[ends[longer] > at]
    if longer.size:
        # a 1 anywhere in byte 9 onward sets bit 63 or above
        ones = np.cumsum((buf & 0x7F) != 0)
        wide[longer] = ones[ends[longer]] > ones[starts[longer] + 8]
        values[wide] = _INT64_MAX
    return values, ends, wide


def _scan_frames(values: np.ndarray, steps_left: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Find the spike frames in the varints of the steps still to read.

    ``values[0]`` is the channel count of the next step, and each count is
    followed by that many channel indices. Returns the positions of the
    nonzero counts whose frames lie wholly in ``values``, among the next
    ``steps_left`` steps, the number of channel indices ahead of each of
    them, and how many values those steps take up. Where a frame does not
    fit in ``values``, the steps read end before it.
    """
    m = len(values)
    steps_left = min(steps_left, m + 1)  # keeps the comparisons in int64
    # Every frame's count is a nonzero value, so the walk goes from nonzero
    # value to nonzero value: node i < n is the i-th nonzero value, node n
    # stands for position m (no count left) and node n + 1 ends the walk.
    is_node = np.append(values != 0, True)
    position = np.flatnonzero(is_node)
    n = len(position) - 1
    # node_at[p]: the node at or after position p (n + 1 for p = m + 1)
    node_at = np.empty(m + 2, dtype=np.int64)
    node_at[0] = 0
    np.cumsum(is_node, out=node_at[1:])
    # after[i]: where the step after a frame counted at node i starts (m + 1:
    # the frame runs past the values)
    counted = position[:n]
    after = np.minimum(values[counted], m - counted)
    after += counted + 1
    # hops[k][i]: the node 2**k frames after node i
    hop = np.empty(n + 2, dtype=np.int64)
    hop[:n] = node_at[after]
    hop[n:] = n + 1
    hops = [hop]
    for _ in range(_JUMP.bit_length() - 1):
        hops.append(hops[-1][hops[-1]])
    # A frame's count follows from the one before, so the walk is
    # sequential. Python takes one jump of _JUMP frames at a time, through
    # a memoryview into an array, so it makes one Python int per jump; numpy
    # gathers then fill in the nodes between the jumps, halving the gap
    # each time.
    jumps = memoryview(hops.pop())
    starts = array("q", [0])
    p = jumps[0]
    while p <= n:
        starts.append(p)
        p = jumps[p]
    rows = np.empty((len(starts), _JUMP), dtype=np.int64)
    rows[:, 0] = np.frombuffer(starts, dtype=np.int64)
    gap = _JUMP
    while hops:
        gap //= 2
        rows[:, gap::2 * gap] = hops.pop()[rows[:, :-gap:2 * gap]]
    # the walk's nodes in order; only the last row reaches node n + 1
    walk = rows.ravel()[:_JUMP * (len(starts) - 1) + int(np.count_nonzero(rows[-1] <= n))]
    found = position[walk]  # the last one: no whole frame
    frames = found[:-1]
    counts = values[frames]
    before = np.cumsum(counts) - counts
    keep = int(np.count_nonzero(frames - before < steps_left))
    channels = int(before[keep - 1] + counts[keep - 1]) if keep else 0
    end = int(found[keep])
    if end - channels >= steps_left:
        end = steps_left + channels
    return frames[:keep], before[:keep], end


def _mapped_int64(n: int) -> np.ndarray:
    """A zeroed int64 array in its own private anonymous memory map.

    Pages never written take no memory, so the array may be sized by an
    upper bound, and the map goes back to the system when the array is
    freed instead of staying in the allocator's heap.
    """
    if not n:
        return np.zeros(0, dtype=np.int64)
    return np.frombuffer(mmap.mmap(-1, 8 * n, access=mmap.ACCESS_COPY), dtype=np.int64)


def _check_steps(steps: np.ndarray, n_steps: int) -> None:
    """Raise ``ValueError`` unless steps rise strictly from >= 0 to < n_steps."""
    bad = np.flatnonzero((np.diff(steps, prepend=-1) <= 0) | (steps >= n_steps))
    if bad.size:
        raise ValueError(
            f"record event at step {int(steps[bad[0]])} is out of order or past the end"
        )


@dataclass
class EpisodeRecord:
    """Per-step sparse spike frames plus reward/punishment event times.

    Spike frames are stored CSR-style: ``spike_steps[k]`` is the k-th
    step carrying at least one spike and its channels are
    ``channels[indptr[k]:indptr[k+1]]``. The dopamine channel is implied
    by ``reward_steps``.
    """

    step_ms: int
    n_channels: int
    seed: int
    n_steps: int
    spike_steps: np.ndarray   # int64, sorted, steps with >= 1 spike
    indptr: np.ndarray        # int64, len(spike_steps) + 1
    channels: np.ndarray      # int64 channel indices
    reward_steps: np.ndarray  # int64, sorted
    punishment_steps: np.ndarray

    @property
    def duration_s(self) -> float:
        return self.n_steps * self.step_ms / 1000.0

    @classmethod
    def build(
        cls,
        *,
        step_ms: int,
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
        return cls(
            step_ms=step_ms,
            n_channels=n_channels,
            seed=seed,
            n_steps=n_steps,
            spike_steps=np.asarray(steps, dtype=np.int64),
            indptr=np.asarray(indptr, dtype=np.int64),
            channels=np.asarray(chans, dtype=np.int64),
            reward_steps=np.asarray(sorted(reward_steps), dtype=np.int64),
            punishment_steps=np.asarray(sorted(punishment_steps), dtype=np.int64),
        )

    def check_event_order(self) -> None:
        """Raise ``ValueError`` unless the spike and reward steps can be replayed.

        Replay walks both in one pass, so each must rise strictly and stay
        below ``n_steps``.
        """
        _check_steps(self.spike_steps, self.n_steps)
        _check_steps(self.reward_steps, self.n_steps)

    def frames(self) -> Iterator[tuple[int, list[int]]]:
        """Yield (step, channel indices) for every step that has spikes."""
        steps = self.spike_steps.tolist()
        indptr = self.indptr.tolist()
        chans = self.channels.tolist()
        for k, step in enumerate(steps):
            yield step, chans[indptr[k]:indptr[k + 1]]

    def to_bytes(self) -> bytes:
        """Encode the record; spike steps must rise strictly below ``n_steps``.

        A header field out of its range raises ``ValueError`` naming it.
        """
        for name, limit in _HEADER_LIMITS.items():
            value = getattr(self, name)
            if not 0 <= value <= limit:
                raise ValueError(f"bad record: {name} {value} is outside the header's "
                                 f"range 0 to {limit}")
        _check_steps(self.spike_steps, self.n_steps)
        if self.channels.size and int(self.channels.min()) < 0:
            raise ValueError(f"bad record: channel index {int(self.channels.min())} < 0")
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
        buf[:_HEADER.size] = _HEADER.pack(
            MAGIC, FORMAT_VERSION, self.step_ms, self.n_channels,
            self.seed, self.n_steps,
        )
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
        """Decode a record; any malformed input raises ``ValueError``."""
        if len(raw) < _HEADER.size:
            raise ValueError(f"truncated record: {len(raw)}-byte file has no full header")
        magic, version, step_ms, n_channels, seed, n_steps = _HEADER.unpack_from(raw, 0)
        if magic != MAGIC:
            raise ValueError("not an episode record (bad magic)")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported record version {version}")
        if step_ms == 0:
            raise ValueError("bad record header: step_ms is 0")
        body = np.frombuffer(raw, dtype=np.uint8)
        # Every step and every channel index takes at least one byte, which
        # bounds the arrays; they are filled in place and cut to size once.
        room = len(raw) - _HEADER.size
        spike_steps = _mapped_int64(min(n_steps, room))
        indptr = _mapped_int64(len(spike_steps) + 1)
        channels = _mapped_int64(room)
        n_frames = n_chans = 0
        wide_channel = False
        pos = _HEADER.size
        step = 0
        size = _BLOCK_BYTES
        while step < n_steps:
            chunk = body[pos:pos + size]
            at_end = pos + size >= len(raw)
            values, ends, wide = _read_varints(chunk)
            frames, before, used = _scan_frames(values, n_steps - step)
            if used:
                counts = values[frames]
                spike_steps[n_frames:n_frames + len(frames)] = step + frames - before
                indptr[n_frames + 1:n_frames + len(frames) + 1] = n_chans + before + counts
                n_frames += len(frames)
                # the block's j-th channel index is value frames + 1 + j - before
                total = int(before[-1] + counts[-1]) if len(frames) else 0
                at = np.repeat(frames + 1 - before, counts) + np.arange(total)
                channels[n_chans:n_chans + total] = values[at]
                n_chans += total
                wide_channel = wide_channel or bool(wide[at].any())
                step += used - total
                pos += int(ends[used - 1]) + 1
            if step < n_steps and at_end:
                raise ValueError(f"truncated record: spike frames ends at byte {len(raw)}")
            # a frame longer than the chunk needs a longer chunk
            size = _BLOCK_BYTES if used else 2 * size
        spike_steps = spike_steps[:n_frames]
        indptr = indptr[:n_frames + 1]
        channels = channels[:n_chans]
        rewards = []
        punishments = []
        unknown_kind = None  # the first kind that is neither reward nor punishment, and its byte
        try:
            (n_events,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            for _ in range(n_events):
                kind = raw[pos]
                if kind not in (_KIND_REWARD, _KIND_PUNISHMENT) and unknown_kind is None:
                    unknown_kind = kind, pos
                step, pos = _read_varint(raw, pos + 1)
                (rewards if kind == _KIND_REWARD else punishments).append(step)
        except (IndexError, struct.error):
            raise ValueError(f"truncated record: event table ends at byte {len(raw)}") from None
        if unknown_kind is not None:
            kind, at = unknown_kind
            raise ValueError(f"bad record: event kind {kind} at byte {at} is neither 0 "
                             "(reward) nor 1 (punishment)")
        if pos < len(raw):
            raise ValueError(f"bad record: {len(raw) - pos} bytes after the event table")
        if wide_channel:
            raise ValueError("bad record: a value does not fit in 64 bits")
        try:
            reward_steps = np.asarray(sorted(rewards), dtype=np.int64)
            punishment_steps = np.asarray(sorted(punishments), dtype=np.int64)
        except OverflowError:
            raise ValueError("bad record: a value does not fit in 64 bits") from None
        if channels.size and int(channels.max()) >= n_channels:
            raise ValueError(
                f"bad record: channel index {int(channels.max())} >= n_channels {n_channels}"
            )
        for events in (reward_steps, punishment_steps):
            if events.size and int(events[-1]) >= n_steps:
                raise ValueError(
                    f"bad record: event at step {int(events[-1])} >= n_steps {n_steps}"
                )
        return cls(
            step_ms=step_ms,
            n_channels=n_channels,
            seed=seed,
            n_steps=n_steps,
            spike_steps=spike_steps,
            indptr=indptr,
            channels=channels,
            reward_steps=reward_steps,
            punishment_steps=punishment_steps,
        )

    def save(self, path) -> None:
        data = self.to_bytes()  # a record that cannot be encoded leaves no file
        with open(path, "wb") as fh:
            fh.write(data)

    @classmethod
    def load(cls, path) -> "EpisodeRecord":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpisodeRecord):
            return NotImplemented
        return (
            self.step_ms == other.step_ms
            and self.n_channels == other.n_channels
            and self.seed == other.seed
            and self.n_steps == other.n_steps
            and np.array_equal(self.spike_steps, other.spike_steps)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.channels, other.channels)
            and np.array_equal(self.reward_steps, other.reward_steps)
            and np.array_equal(self.punishment_steps, other.punishment_steps)
        )
