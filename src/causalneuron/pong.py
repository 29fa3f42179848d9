"""Three-walled ping-pong arena with a chaotically moving racket.

10x10 cm square, 1 ms clock. The left side has no wall: a 1.8 cm racket
slides there. A racket hit reflects the ball and emits a Reward; a miss
emits a Punishment and serves the ball again from the middle vertical
line with random direction and speed in [10, 33.3] cm/s (|vx| >= 10).
The racket itself is not controlled by any learning agent here; it
follows a piecewise-constant random policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

ARENA_HALF = 5.0          # cm; walls at +/-5
DT = 0.001                # s per step
RACKET_HALF = 0.9         # cm (racket size 1.8 cm)
RACKET_Y_MAX = ARENA_HALF - RACKET_HALF
BALL_SPEED_MIN = 10.0     # cm/s
BALL_SPEED_MAX = 33.3     # cm/s
VX_MIN = 10.0             # cm/s, |vx| floor at serve
RACKET_SPEED = 20.0       # cm/s
ACTION_PERIOD = 100       # steps between racket action re-draws (100 ms)


class Action(enum.Enum):
    UP = 1
    DOWN = -1
    HOLD = 0

    def __init__(self, direction: int):
        # racket move per step, cm; a plain attribute, so env_step does not
        # pay for the Enum ``value`` property on every step
        self.racket_dy = direction * RACKET_SPEED * DT


class EventKind(enum.Enum):
    REWARD = 0
    PUNISHMENT = 1


@dataclass
class EnvEvent:
    kind: EventKind
    step: int


@dataclass
class WorldState:
    ball_x: float
    ball_y: float
    ball_vx: float
    ball_vy: float
    racket_y: float
    step: int = 0


def reset_ball(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """Serve from the middle vertical line: random y, direction and speed.

    Rejection-sampled so the speed lies in [10, 33.3] cm/s and the
    horizontal component satisfies |vx| >= 10; the sign of vx is uniform
    by symmetry of the angle draw.
    """
    y = rng.uniform(-ARENA_HALF, ARENA_HALF)
    while True:
        speed = rng.uniform(BALL_SPEED_MIN, BALL_SPEED_MAX)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        vx = speed * np.cos(angle)
        if abs(vx) >= VX_MIN:
            return 0.0, y, vx, speed * np.sin(angle)


def initial_state(rng: np.random.Generator) -> WorldState:
    x, y, vx, vy = reset_ball(rng)
    return WorldState(x, y, vx, vy, racket_y=0.0, step=0)


def env_step(
    state: WorldState, action: Action, rng: np.random.Generator
) -> tuple[WorldState, Optional[EnvEvent]]:
    """Advance the world by one 1 ms step.

    Positions are advanced linearly, then reflected about any crossed
    wall line within the same step (per-step motion is at most 0.034 cm,
    so no sub-step collision handling is needed). Corner ties resolve as
    racket contact first.
    """
    ry = state.racket_y + action.racket_dy
    if ry > RACKET_Y_MAX:
        ry = RACKET_Y_MAX
    elif ry < -RACKET_Y_MAX:
        ry = -RACKET_Y_MAX

    x = state.ball_x + state.ball_vx * DT
    y = state.ball_y + state.ball_vy * DT
    vx = state.ball_vx
    vy = state.ball_vy
    event: Optional[EnvEvent] = None

    if x <= -ARENA_HALF:
        if ry - RACKET_HALF <= y <= ry + RACKET_HALF:
            x = -2.0 * ARENA_HALF - x
            vx = -vx
            event = EnvEvent(EventKind.REWARD, state.step)
        else:
            event = EnvEvent(EventKind.PUNISHMENT, state.step)
            x, y, vx, vy = reset_ball(rng)
    elif x >= ARENA_HALF:
        x = 2.0 * ARENA_HALF - x
        vx = -vx

    if y >= ARENA_HALF:
        y = 2.0 * ARENA_HALF - y
        vy = -vy
    elif y <= -ARENA_HALF:
        y = -2.0 * ARENA_HALF - y
        vy = -vy

    return WorldState(x, y, vx, vy, ry, state.step + 1), event


class ChaoticPolicy:
    """Piecewise-constant random racket policy.

    Draws a fresh action uniformly from {Up, Down, Hold} every
    ACTION_PERIOD steps and holds it in between.
    """

    _ACTIONS = (Action.UP, Action.DOWN, Action.HOLD)

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._current = Action.HOLD

    def __call__(self, step: int) -> Action:
        if step % ACTION_PERIOD == 0:
            self._current = self._ACTIONS[self._rng.integers(3)]
        return self._current
