"""133-channel spike encoding of the pong world state.

Channel map (SECTION_OFFSETS is the running sum of SECTION_SIZES):
    [0,   30)  ball x, 30 equal-width bins over [-5, 5]
    [30,  60)  ball y, 30 equal-width bins
    [60,  69)  ball vx, 9 equal-probability bins (calibrated boundaries)
    [69,  78)  ball vy, 9 equal-probability bins
    [78, 108)  racket y, 30 equal-width bins
    [108, 133) close zone: 5x5 grid of 0.6 cm squares over the 3x3 cm
               field whose left-border midpoint rides on the racket
               center; row-major, row 0 at the bottom of the field

An *active* channel emits a spike only on the steps where the shared
300 Hz clock ticks, so co-active channels always spike simultaneously --
which is what lets a threshold unit see them as a coincidence. A
per-channel Bernoulli clock is available as an alternative for
robustness experiments.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .pong import ARENA_HALF, WorldState

N_COORD_BINS = 30
N_VEL_BINS = 9
N_ZONE_SIDE = 5

SECTION_SIZES = {
    "ball_x": N_COORD_BINS,
    "ball_y": N_COORD_BINS,
    "ball_vx": N_VEL_BINS,
    "ball_vy": N_VEL_BINS,
    "racket_y": N_COORD_BINS,
    "close_zone": N_ZONE_SIDE * N_ZONE_SIDE,
}
SECTION_OFFSETS = dict(zip(SECTION_SIZES, accumulate(SECTION_SIZES.values(), initial=0)))
N_CHANNELS = sum(SECTION_SIZES.values())  # 133
_BALL_X0, _BALL_Y0, _BALL_VX0, _BALL_VY0, _RACKET_Y0, _ZONE0 = SECTION_OFFSETS.values()

SPIKE_RATE_HZ = 300
STEP_RATE_HZ = 1000
_TICKS_PER_STEP = SPIKE_RATE_HZ / STEP_RATE_HZ  # 0.3

CLOSE_FIELD_DEPTH = 3.0   # cm, extends from x=-5 to x=-2
CLOSE_FIELD_HALF = 1.5    # cm, vertical half-extent around the racket center
ZONE_SIZE = 0.6           # cm
_CLOSE_X_MAX = -ARENA_HALF + CLOSE_FIELD_DEPTH
_CLOSE_DY_MAX = 2 * CLOSE_FIELD_HALF
_ARENA_LO, _ARENA_WIDTH = -ARENA_HALF, ARENA_HALF - -ARENA_HALF
_BERNOULLI_BLOCK = 4096   # uniforms a Bernoulli clock draws per refill

MIN_CALIBRATION_SAMPLES = 10_000  # fewest samples velocity_bins accepts

# The calibrated velocity bin boundaries, as printed by
#     python3 scripts/calibrate_velocity_bins.py --seed 12345 --steps 1000000
VX_BOUNDS = (-22.877568651270547, -18.357518412904646, -15.485644355429637, -13.448887953137795, -11.5958763564019, -10.082540297644037, 13.35947473348463, 18.357518412904646)
VY_BOUNDS = (-18.772773339310174, -12.12497880949283, -7.699229893696371, -2.614354575015488, 2.0901840710760897, 7.326801641313639, 12.211432064068848, 18.79169559987763)


def bin_index(value: float, n_bins: int, lo: float, hi: float) -> int:
    """Equal-width bin of value over [lo, hi], clamped to [0, n_bins-1]."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"non-finite bounds [{lo}, {hi}]")
    if lo >= hi:
        raise ValueError("lo must be < hi")
    try:
        k = int(n_bins * (value - lo) / (hi - lo))
    except (OverflowError, ValueError):
        # a huge finite value overflows the float expression; bin it exactly
        k = int(n_bins * (Fraction(value) - Fraction(lo)) / (Fraction(hi) - Fraction(lo)))
    if k < 0:
        return 0
    if k >= n_bins:
        return n_bins - 1
    return k


def velocity_bins(samples: Sequence[float]) -> tuple[float, ...]:
    """Eight interior boundaries splitting samples into 9 equal-mass bins."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < MIN_CALIBRATION_SAMPLES:
        raise ValueError(
            f"need at least {MIN_CALIBRATION_SAMPLES} calibration samples, got {arr.size}"
        )
    bounds = np.quantile(arr, np.arange(1, N_VEL_BINS) / N_VEL_BINS)
    if not np.all(np.diff(bounds) > 0):
        raise ValueError("degenerate calibration samples: boundaries not increasing")
    return tuple(float(b) for b in bounds)


class EncoderLayout:
    """The fixed channel layout with the calibrated ``VX_BOUNDS``/``VY_BOUNDS``;
    a class without state, whose method ``perfbench/tracing.py`` patches."""

    def active_channels(self, state: WorldState) -> list[int]:
        """Channel indices active for this world state, before clock gating.

        One channel per coordinate/velocity section, plus at most one
        close-zone channel when the ball is inside the racket's 3x3 cm
        field. The field may extend virtually past the top/bottom walls;
        zones out there simply never contain the ball. A non-finite
        position or velocity raises ``ValueError``.
        """
        # Runs once per recorded step, so bin_index is inlined with its exact
        # expression and clamps, and a velocity bin is found by bisection,
        # which counts the bounds <= v as a linear scan does.
        x = state.ball_x
        y = state.ball_y
        vx = state.ball_vx
        vy = state.ball_vy
        ry = state.racket_y
        try:
            kx = int(N_COORD_BINS * (x - _ARENA_LO) / _ARENA_WIDTH)
            ky = int(N_COORD_BINS * (y - _ARENA_LO) / _ARENA_WIDTH)
            kr = int(N_COORD_BINS * (ry - _ARENA_LO) / _ARENA_WIDTH)
            if vx - vx or vy - vy:  # NaN (truthy) only for a non-finite velocity
                raise ValueError
        except (ValueError, OverflowError):
            for value in (x, y, vx, vy, ry):
                if not math.isfinite(value):
                    raise ValueError(f"non-finite value {value}") from None
            # a huge finite position overflows the inlined expression
            kx, ky, kr = (bin_index(v, N_COORD_BINS, _ARENA_LO, ARENA_HALF) for v in (x, y, ry))
        if kx < 0:
            kx = 0
        elif kx >= N_COORD_BINS:
            kx = N_COORD_BINS - 1
        if ky < 0:
            ky = 0
        elif ky >= N_COORD_BINS:
            ky = N_COORD_BINS - 1
        if kr < 0:
            kr = 0
        elif kr >= N_COORD_BINS:
            kr = N_COORD_BINS - 1
        out = [
            _BALL_X0 + kx,
            _BALL_Y0 + ky,
            _BALL_VX0 + bisect_right(VX_BOUNDS, vx),
            _BALL_VY0 + bisect_right(VY_BOUNDS, vy),
            _RACKET_Y0 + kr,
        ]
        dy = y - (ry - CLOSE_FIELD_HALF)
        if x <= _CLOSE_X_MAX and 0.0 <= dy <= _CLOSE_DY_MAX:
            row = int(dy / ZONE_SIZE)
            if row >= N_ZONE_SIDE:
                row = N_ZONE_SIDE - 1
            col = int((x + ARENA_HALF) / ZONE_SIZE)
            if col >= N_ZONE_SIDE:
                col = N_ZONE_SIDE - 1
            elif col < 0:  # the ball is past the left edge
                col = 0
            out.append(_ZONE0 + row * N_ZONE_SIDE + col)
        return out


class SpikeClock:
    """Deterministic shared 300 Hz clock (or per-channel Bernoulli gating).

    Shared mode: a spike on every step where floor((t+1) * 0.3) exceeds
    floor(t * 0.3), i.e. 3 spikes per 10 steps in a fixed 3-3-4 gap
    pattern, identical for every channel.

    Bernoulli mode: each active channel spikes when its own uniform draw
    is below 0.3. The clock owns its generator and draws uniforms ahead
    in blocks, taking them in order, one per active channel and step; the
    gates equal one ``rng.random(len(active))`` call per step because a
    generator's float stream does not depend on how the draws are split.
    The generator must not be shared with anything else.
    """

    def __init__(self, mode: str = "shared", rng: Optional[np.random.Generator] = None):
        if mode not in ("shared", "bernoulli"):
            raise ValueError(f"unknown clock mode {mode!r}")
        if mode == "bernoulli" and rng is None:
            raise ValueError("bernoulli clock needs an rng")
        self.mode = mode
        self._rng = rng
        self._uniforms: list[float] = []  # drawn ahead; the next one is at _next
        self._next = 0

    def ticks(self, step: int) -> bool:
        """Shared-mode tick test for one step (pure)."""
        return math.floor((step + 1) * _TICKS_PER_STEP) > math.floor(step * _TICKS_PER_STEP)

    def gate(self, step: int, active: Sequence[int]) -> list[int]:
        """Channels among `active` that actually emit a spike this step."""
        if self.mode == "shared":
            # the ticks() expression, inlined: gate runs once per recorded step
            if math.floor((step + 1) * _TICKS_PER_STEP) > math.floor(step * _TICKS_PER_STEP):
                return list(active)
            return []
        start = self._next
        end = start + len(active)
        if end > len(self._uniforms):
            self._uniforms = self._uniforms[start:] + self._rng.random(
                max(_BERNOULLI_BLOCK, len(active))).tolist()
            start, end = 0, len(active)
        self._next = end
        return [c for c, u in zip(active, self._uniforms[start:end]) if u < _TICKS_PER_STEP]


def encode(state: WorldState, layout: EncoderLayout, clock: SpikeClock) -> list[int]:
    """Spiking channel indices for one step (sparse frame, no dopamine bit)."""
    return clock.gate(state.step, layout.active_channels(state))

