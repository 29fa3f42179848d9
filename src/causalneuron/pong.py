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
from typing import Callable, Iterator, Optional

import numpy as np

from .records import STEPS_PER_S

ARENA_HALF = 5.0          # cm; walls at +/-5
DT = 1 / STEPS_PER_S      # s per step, 0.001
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


@dataclass(slots=True)
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
    by symmetry of the angle draw. The velocities are Python floats, so
    every step that carries them runs in float, not numpy scalar,
    arithmetic; ``np.cos``/``np.sin`` stay, since the record bytes rest
    on their bits.
    """
    y = rng.uniform(-ARENA_HALF, ARENA_HALF)
    while True:
        speed = rng.uniform(BALL_SPEED_MIN, BALL_SPEED_MAX)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        vx = float(speed * np.cos(angle))
        if abs(vx) >= VX_MIN:
            return 0.0, y, vx, float(speed * np.sin(angle))


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


def trajectory(
    state: WorldState,
    policy: Callable[[int], Action],
    n_steps: int,
    rng: np.random.Generator,
) -> Iterator[tuple[WorldState, np.ndarray, Optional[EnvEvent]]]:
    """Walk n_steps steps from state in free-flight blocks, as env_step would.

    A block runs under one action, ``policy(step)`` at its first step, and
    ends at the next multiple of ACTION_PERIOD, at the end of the walk or
    at the first step whose post-step ball x or y reaches a wall line.
    That step is run by env_step itself, which stays the one home of
    contacts, rewards, misses and serves. Yields, per block, the state at
    its start (the ball velocity holds throughout the block), the
    pre-step positions of its steps as a (3, n) array with rows ball x,
    ball y and racket y, and the event of its last step (None without a
    contact).

    Within a block the positions are cumulative sums ``x0, x0 + d,
    x0 + d + d, ...``; ``np.cumsum`` is a sequential ``add.accumulate``,
    so it repeats env_step's ``x + vx * DT`` bit for bit. The racket must
    start within +/-RACKET_Y_MAX, as in every state env_step returns; it
    moves one way in a block, so clipping the sums holds it at the limit
    once it gets there, as env_step's clamp does step by step.
    """
    end = state.step + n_steps
    t = state.step
    while t < end:
        action = policy(t)
        n = min(end, t - t % ACTION_PERIOD + ACTION_PERIOD) - t
        walk = np.empty((3, n + 1))
        walk[:, 0] = (state.ball_x, state.ball_y, state.racket_y)
        walk[0, 1:] = state.ball_vx * DT
        walk[1, 1:] = state.ball_vy * DT
        walk[2, 1:] = action.racket_dy
        np.cumsum(walk, axis=1, out=walk)
        np.clip(walk[2], -RACKET_Y_MAX, RACKET_Y_MAX, out=walk[2])
        reach = (np.abs(walk[:2, 1:]) >= ARENA_HALF).any(axis=0)
        k = int(reach.argmax())  # the first step reaching a wall line, if any
        if reach[k]:
            x, y, ry = walk[:, k].tolist()
            after, event = env_step(
                WorldState(x, y, state.ball_vx, state.ball_vy, ry, t + k), action, rng)
            n = k + 1
        else:
            x, y, ry = walk[:, n].tolist()
            after = WorldState(x, y, state.ball_vx, state.ball_vy, ry, t + n)
            event = None
        yield state, walk[:, :n], event
        state = after
        t += n


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
