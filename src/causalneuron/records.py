"""Replayable, bit-exact episode records.

Binary format "SPKC" v1, little-endian: a fixed header, then one varint
channel-count per step followed by that many varint channel indices,
then a trailing event table (reward / punishment steps). Sparse frames
keep a 2,000,000-step episode with ~6 spikes per active step around a
few megabytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

MAGIC = b"SPKC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHHQQ")

_KIND_REWARD = 0
_KIND_PUNISHMENT = 1


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

    def frames(self) -> Iterator[tuple[int, list[int]]]:
        """Yield (step, channel indices) for every step that has spikes."""
        steps = self.spike_steps.tolist()
        indptr = self.indptr.tolist()
        chans = self.channels.tolist()
        for k, step in enumerate(steps):
            yield step, chans[indptr[k]:indptr[k + 1]]

    def to_bytes(self) -> bytes:
        buf = bytearray()
        buf += _HEADER.pack(
            MAGIC, FORMAT_VERSION, self.step_ms, self.n_channels,
            self.seed, self.n_steps,
        )
        steps = self.spike_steps.tolist()
        indptr = self.indptr.tolist()
        chans = self.channels.tolist()
        prev = 0
        for k, step in enumerate(steps):
            buf += b"\x00" * (step - prev)
            frame = chans[indptr[k]:indptr[k + 1]]
            _write_varint(buf, len(frame))
            for c in frame:
                _write_varint(buf, c)
            prev = step + 1
        buf += b"\x00" * (self.n_steps - prev)
        events = sorted(
            [(int(s), _KIND_REWARD) for s in self.reward_steps]
            + [(int(s), _KIND_PUNISHMENT) for s in self.punishment_steps]
        )
        buf += struct.pack("<I", len(events))
        for step, kind in events:
            buf.append(kind)
            _write_varint(buf, step)
        return bytes(buf)

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
        pos = _HEADER.size
        steps = []
        indptr = [0]
        chans: list[int] = []
        rewards = []
        punishments = []
        # Reading past the end of raw is the only way decoding can fail.
        section = "spike frames"
        try:
            for step in range(n_steps):
                count, pos = _read_varint(raw, pos)
                if count:
                    steps.append(step)
                    for _ in range(count):
                        c, pos = _read_varint(raw, pos)
                        chans.append(c)
                    indptr.append(len(chans))
            section = "event table"
            (n_events,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            for _ in range(n_events):
                kind = raw[pos]
                pos += 1
                step, pos = _read_varint(raw, pos)
                (rewards if kind == _KIND_REWARD else punishments).append(step)
        except (IndexError, struct.error):
            raise ValueError(f"truncated record: {section} ends at byte {len(raw)}") from None
        try:
            channels = np.asarray(chans, dtype=np.int64)
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
            spike_steps=np.asarray(steps, dtype=np.int64),
            indptr=np.asarray(indptr, dtype=np.int64),
            channels=channels,
            reward_steps=reward_steps,
            punishment_steps=punishment_steps,
        )

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

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
