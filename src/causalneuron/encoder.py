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
from typing import Optional

import numpy as np

from .pong import ARENA_HALF, WorldState
from .records import STEPS_PER_S

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
_TICKS_PER_STEP = SPIKE_RATE_HZ / STEPS_PER_S  # 0.3
# the shared clock's tick phases, {3, 6, 9} of 10, from its exact integer rule
_PERIOD = STEPS_PER_S // math.gcd(SPIKE_RATE_HZ, STEPS_PER_S)
_TICK_PHASES = frozenset(t for t in range(_PERIOD) if SPIKE_RATE_HZ * (t + 1) // STEPS_PER_S
                         > SPIKE_RATE_HZ * t // STEPS_PER_S)

CLOSE_FIELD_DEPTH = 3.0   # cm, extends from x=-5 to x=-2
CLOSE_FIELD_HALF = 1.5    # cm, vertical half-extent around the racket center
ZONE_SIZE = 0.6           # cm
_CLOSE_X_MAX = -ARENA_HALF + CLOSE_FIELD_DEPTH
_CLOSE_DY_MAX = 2 * CLOSE_FIELD_HALF
_ARENA_LO, _ARENA_WIDTH = -ARENA_HALF, ARENA_HALF - -ARENA_HALF
_BERNOULLI_BLOCK = 4096   # uniforms a Bernoulli clock draws per refill

# The calibrated velocity bin boundaries, as printed by the calibration
# script in scripts/ with its defaults, --seed 12345 --steps 1000000
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


class EncoderLayout:
    """The fixed channel layout with the calibrated ``VX_BOUNDS``/``VY_BOUNDS``.

    A layout keeps the last velocity it binned and that velocity's two
    channels: the ball velocity holds for whole free-flight blocks, so the
    bisections and the velocity's finiteness test run only when ``(vx, vy)``
    differs from the previous call's. ``perfbench/tracing.py`` patches
    :meth:`active_channels`."""

    def __init__(self) -> None:
        # NaN equals nothing, so the first call bins its velocity; a
        # non-finite velocity raises before it is kept, so it never hits
        self._vx = self._vy = math.nan
        self._vx_channel = self._vy_channel = -1

    def active_channels(self, state: WorldState) -> list[int]:
        """Channel indices active for this world state, before clock gating.

        One channel per coordinate/velocity section, plus at most one
        close-zone channel when the ball is inside the racket's 3x3 cm
        field. The field may extend virtually past the top/bottom walls;
        zones out there simply never contain the ball. A non-finite
        position or velocity raises ``ValueError``, naming the first of
        ball x, ball y, vx, vy and racket y that is non-finite.
        """
        # Runs once per recorded step, so bin_index is inlined with its exact
        # expression and clamps, and a velocity bin is found by bisection,
        # which counts the bounds <= v as a linear scan does. 0.0 and -0.0
        # compare equal and fall in the same bin, so either may hit.
        x = state.ball_x
        y = state.ball_y
        vx = state.ball_vx
        vy = state.ball_vy
        ry = state.racket_y
        fresh = vx != self._vx or vy != self._vy
        try:
            kx = int(N_COORD_BINS * (x - _ARENA_LO) / _ARENA_WIDTH)
            ky = int(N_COORD_BINS * (y - _ARENA_LO) / _ARENA_WIDTH)
            kr = int(N_COORD_BINS * (ry - _ARENA_LO) / _ARENA_WIDTH)
            if fresh and (vx - vx or vy - vy):  # NaN (truthy) only for a non-finite velocity
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
        if fresh:
            self._vx, self._vy = vx, vy
            self._vx_channel = _BALL_VX0 + bisect_right(VX_BOUNDS, vx)
            self._vy_channel = _BALL_VY0 + bisect_right(VY_BOUNDS, vy)
        out = [_BALL_X0 + kx, _BALL_Y0 + ky, self._vx_channel, self._vy_channel, _RACKET_Y0 + kr]
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

    Shared mode: a spike on every step t where 300 * (t + 1) // 1000 exceeds
    300 * t // 1000, i.e. 3 spikes per 10 steps in a fixed 3-3-4 gap
    pattern, identical for every channel; the gate tests ``t % 10`` against
    the phases {3, 6, 9}, worked out once from that rule. It agrees with the
    float rule floor((t + 1) * 0.3) > floor(t * 0.3) at every step below
    2**51. The float product t * 0.3 is off from 3t/10 by at most about
    4.4e-17 * t (the error of the constant 0.3 plus one rounding), which
    stays under 0.1, the least distance from 3t/10 to an integer when t is
    not a multiple of 10; when it is, 3t/10 is an integer below 2**53, to
    which the product rounds back exactly. Above 2**51 that bound fails,
    and the float rule stops being periodic: it misses the tick of phase 3
    at t = 7506008022705623, about 2**52.74.

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

    def gate(self, step: int, active: list[int]) -> list[int]:
        """Channels among `active` that actually emit a spike this step. In
        shared mode a tick returns the `active` list it was given, not a copy."""
        if self.mode == "shared":
            return active if step % _PERIOD in _TICK_PHASES else []
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

