"""Arena physics: serve constraints, reflections, events, determinism."""

import math

import numpy as np
import pytest

from causalneuron import pong


def run_steps(seed, n, policy=None):
    rng = np.random.default_rng(seed)
    policy = policy or pong.ChaoticPolicy(np.random.default_rng(seed + 1))
    state = pong.initial_state(rng)
    states = [state]
    events = []
    for t in range(n):
        state, ev = pong.env_step(state, policy(t), rng)
        states.append(state)
        if ev is not None:
            events.append(ev)
    return states, events


class TestResetBall:
    def test_serve_constraints_bulk(self):
        rng = np.random.default_rng(0)
        speeds = []
        vxs = []
        for _ in range(10_000):
            x, y, vx, vy = pong.reset_ball(rng)
            assert x == 0.0
            assert -pong.ARENA_HALF <= y <= pong.ARENA_HALF
            speeds.append(math.hypot(vx, vy))
            vxs.append(vx)
        assert min(abs(v) for v in vxs) >= pong.VX_MIN
        assert max(speeds) <= pong.BALL_SPEED_MAX
        assert min(speeds) >= pong.BALL_SPEED_MIN

    def test_vx_sign_roughly_uniform(self):
        rng = np.random.default_rng(1)
        signs = [pong.reset_ball(rng)[2] > 0 for _ in range(10_000)]
        assert 0.45 < np.mean(signs) < 0.55


class TestPhysics:
    def test_ball_stays_in_arena(self):
        states, _ = run_steps(3, 50_000)
        for s in states:
            assert -pong.ARENA_HALF <= s.ball_x <= pong.ARENA_HALF
            assert -pong.ARENA_HALF <= s.ball_y <= pong.ARENA_HALF

    def test_racket_clamped(self):
        states, _ = run_steps(4, 50_000)
        for s in states:
            assert -pong.RACKET_Y_MAX <= s.racket_y <= pong.RACKET_Y_MAX

    def test_energy_conserved_between_resets(self):
        states, events = run_steps(5, 30_000)
        resets = {e.step for e in events if e.kind is pong.EventKind.PUNISHMENT}
        for prev, cur in zip(states, states[1:]):
            if prev.step in resets:
                continue  # speed legitimately redrawn at serve
            v_prev = math.hypot(prev.ball_vx, prev.ball_vy)
            v_cur = math.hypot(cur.ball_vx, cur.ball_vy)
            assert v_cur == pytest.approx(v_prev, rel=1e-12)

    def test_at_most_one_event_per_step(self):
        _, events = run_steps(6, 100_000)
        steps = [e.step for e in events]
        assert len(steps) == len(set(steps))
        assert steps == sorted(steps)

    def test_reward_reflects_punishment_reserves(self):
        states, events = run_steps(7, 100_000)
        by_step = {s.step: s for s in states}
        for e in events:
            before = by_step[e.step]
            after = by_step[e.step + 1]
            if e.kind is pong.EventKind.REWARD:
                # vx sign flips, speed preserved
                assert after.ball_vx == -before.ball_vx
                assert abs(before.racket_y - after.ball_y) <= pong.RACKET_HALF + abs(before.ball_vy) * pong.DT + pong.RACKET_SPEED * pong.DT
            else:
                assert after.ball_x == pytest.approx(0.0, abs=pong.BALL_SPEED_MAX * pong.DT)

    def test_racket_hit_requires_coverage(self):
        # ball crossing the left border away from the racket must punish
        rng = np.random.default_rng(8)
        state = pong.WorldState(ball_x=-4.999, ball_y=3.0, ball_vx=-20.0,
                                ball_vy=0.0, racket_y=-3.0, step=0)
        _, ev = pong.env_step(state, pong.Action.HOLD, rng)
        assert ev is not None and ev.kind is pong.EventKind.PUNISHMENT

    def test_racket_hit_on_coverage(self):
        rng = np.random.default_rng(9)
        state = pong.WorldState(ball_x=-4.999, ball_y=-2.5, ball_vx=-20.0,
                                ball_vy=0.0, racket_y=-2.0, step=0)
        nxt, ev = pong.env_step(state, pong.Action.HOLD, rng)
        assert ev is not None and ev.kind is pong.EventKind.REWARD
        assert nxt.ball_vx == 20.0

    def test_right_wall_reflection(self):
        rng = np.random.default_rng(10)
        state = pong.WorldState(ball_x=4.999, ball_y=0.0, ball_vx=20.0,
                                ball_vy=0.0, racket_y=0.0, step=0)
        nxt, ev = pong.env_step(state, pong.Action.HOLD, rng)
        assert ev is None
        assert nxt.ball_vx == -20.0
        assert nxt.ball_x <= pong.ARENA_HALF


def reference_env_step(state, action, rng):
    """env_step transcribed with the racket move read from ``Action.value``."""
    ry = state.racket_y + action.value * pong.RACKET_SPEED * pong.DT
    ry = min(max(ry, -pong.RACKET_Y_MAX), pong.RACKET_Y_MAX)
    x = state.ball_x + state.ball_vx * pong.DT
    y = state.ball_y + state.ball_vy * pong.DT
    vx, vy, event = state.ball_vx, state.ball_vy, None
    if x <= -pong.ARENA_HALF:
        if ry - pong.RACKET_HALF <= y <= ry + pong.RACKET_HALF:
            x, vx = -2.0 * pong.ARENA_HALF - x, -vx
            event = pong.EnvEvent(pong.EventKind.REWARD, state.step)
        else:
            event = pong.EnvEvent(pong.EventKind.PUNISHMENT, state.step)
            x, y, vx, vy = pong.reset_ball(rng)
    elif x >= pong.ARENA_HALF:
        x, vx = 2.0 * pong.ARENA_HALF - x, -vx
    if y >= pong.ARENA_HALF:
        y, vy = 2.0 * pong.ARENA_HALF - y, -vy
    elif y <= -pong.ARENA_HALF:
        y, vy = -2.0 * pong.ARENA_HALF - y, -vy
    return pong.WorldState(x, y, vx, vy, ry, state.step + 1), event


class TestRacketMove:
    def test_move_is_value_times_speed_times_dt(self):
        for action in pong.Action:
            assert action.racket_dy == action.value * pong.RACKET_SPEED * pong.DT

    @pytest.mark.parametrize("action", list(pong.Action))
    def test_env_step_equals_the_reference(self, action):
        for seed in (21, 22):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            state = ref_state = pong.initial_state(rng)
            pong.initial_state(ref_rng)
            for _ in range(20_000):  # long enough to hit both walls and the racket
                state, event = pong.env_step(state, action, rng)
                ref_state, ref_event = reference_env_step(ref_state, action, ref_rng)
                assert state == ref_state and event == ref_event

    def test_env_step_equals_the_reference_under_the_policy(self):
        rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
        policy = pong.ChaoticPolicy(np.random.default_rng(24))
        state = ref_state = pong.initial_state(rng)
        pong.initial_state(ref_rng)
        for t in range(30_000):
            action = policy(t)
            state, event = pong.env_step(state, action, rng)
            ref_state, ref_event = reference_env_step(ref_state, action, ref_rng)
            assert state == ref_state and event == ref_event


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        a_states, a_events = run_steps(11, 20_000)
        b_states, b_events = run_steps(11, 20_000)
        for a, b in zip(a_states, b_states):
            assert (a.ball_x, a.ball_y, a.ball_vx, a.ball_vy, a.racket_y) == (
                b.ball_x, b.ball_y, b.ball_vx, b.ball_vy, b.racket_y
            )
        assert [(e.kind, e.step) for e in a_events] == [
            (e.kind, e.step) for e in b_events
        ]


class TestChaoticPolicy:
    def test_piecewise_constant(self):
        policy = pong.ChaoticPolicy(np.random.default_rng(12))
        actions = [policy(t) for t in range(1000)]
        for block in range(0, 1000, pong.ACTION_PERIOD):
            segment = actions[block:block + pong.ACTION_PERIOD]
            assert len(set(segment)) == 1

    def test_all_actions_appear(self):
        policy = pong.ChaoticPolicy(np.random.default_rng(13))
        drawn = {policy(t) for t in range(0, 30_000, pong.ACTION_PERIOD)}
        assert drawn == {pong.Action.UP, pong.Action.DOWN, pong.Action.HOLD}
