"""Arena physics: serve constraints, reflections, events, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalneuron import pong
from causalneuron.encoder import N_CHANNELS, EncoderLayout, SpikeClock, encode
from causalneuron.recording import record_pong_episode
from causalneuron.records import EpisodeRecord


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


# -- the block walk against env_step, one step at a time -----------------------

def step_walk(state, policy, n_steps, rng):
    """Oracle: every step's pre-step state and the events, by env_step."""
    states, events = [], []
    for t in range(state.step, state.step + n_steps):
        states.append(state)
        state, event = pong.env_step(state, policy(t), rng)
        if event is not None:
            events.append(event)
    return states, events


def block_walk(state, policy, n_steps, rng):
    """The same from pong.trajectory, plus (first step, length, event) per block."""
    states, events, blocks = [], [], []
    for start, positions, event in pong.trajectory(state, policy, n_steps, rng):
        n = positions.shape[1]
        assert positions.shape == (3, n)
        # a block ends at the next period boundary at the latest
        assert 1 <= n <= pong.ACTION_PERIOD - start.step % pong.ACTION_PERIOD
        for k, (x, y, ry) in enumerate(positions.T.tolist()):
            states.append(pong.WorldState(x, y, start.ball_vx, start.ball_vy, ry,
                                          start.step + k))
        assert states[-n] == start
        if event is not None:
            assert event.step == start.step + n - 1  # only a block's last step has one
            events.append(event)
        blocks.append((start.step, n, event))
    return states, events, blocks


def bits(state):
    """A state's fields with each float as its exact hex form (-0.0 != 0.0)."""
    return (state.ball_x.hex(), state.ball_y.hex(), state.ball_vx.hex(),
            state.ball_vy.hex(), state.racket_y.hex(), state.step)


def assert_walks_agree(state, make_policy, n_steps, seed=0):
    """Run both walks from the same state, policy and env_rng; return the blocks."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    states, events, blocks = block_walk(state, make_policy(), n_steps, rng)
    ref_states, ref_events = step_walk(state, make_policy(), n_steps, ref_rng)
    assert len(states) == n_steps
    assert [bits(s) for s in states] == [bits(s) for s in ref_states]
    assert events == ref_events
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return blocks


def fixed(action):
    return lambda: (lambda step: action)


def chaotic(seed):
    return lambda: pong.ChaoticPolicy(np.random.default_rng(seed))


coordinate = st.one_of(
    st.floats(-pong.ARENA_HALF, pong.ARENA_HALF),
    st.sampled_from([-pong.ARENA_HALF, pong.ARENA_HALF, -4.999, 4.999, 0.0, -0.0]),
)
velocity = st.one_of(st.floats(-40.0, 40.0), st.sampled_from([0.0, -0.0, 10.0, -33.3]))
racket = st.one_of(
    st.floats(-pong.RACKET_Y_MAX, pong.RACKET_Y_MAX),
    st.sampled_from([-pong.RACKET_Y_MAX, pong.RACKET_Y_MAX]),
)


class TestTrajectory:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 2500))
    def test_equals_env_step_from_a_serve(self, seed, n_steps):
        start = pong.initial_state(np.random.default_rng(seed))
        assert_walks_agree(start, chaotic(seed + 1), n_steps, seed)

    @settings(max_examples=150, deadline=None)
    @given(x=coordinate, y=coordinate, vx=velocity, vy=velocity, ry=racket,
           step=st.integers(0, 250), n_steps=st.integers(1, 400),
           action=st.sampled_from(list(pong.Action) + [None]), seed=st.integers(0, 99))
    def test_equals_env_step_from_any_state(self, x, y, vx, vy, ry, step, n_steps,
                                            action, seed):
        make_policy = chaotic(seed) if action is None else fixed(action)
        assert_walks_agree(pong.WorldState(x, y, vx, vy, ry, step), make_policy,
                           n_steps, seed)

    @pytest.mark.parametrize("action, limit", [(pong.Action.UP, pong.RACKET_Y_MAX),
                                               (pong.Action.DOWN, -pong.RACKET_Y_MAX)])
    def test_racket_pinned_at_the_limit_for_a_whole_period(self, action, limit):
        state = pong.WorldState(0.0, 0.0, 10.0, 5.0, limit, step=0)
        blocks = assert_walks_agree(state, fixed(action), pong.ACTION_PERIOD)
        assert blocks == [(0, pong.ACTION_PERIOD, None)]
        positions = next(pong.trajectory(state, lambda t: action, 100, None))[1]
        assert positions[2].tolist() == [limit] * pong.ACTION_PERIOD

    def test_racket_held_once_it_reaches_the_limit(self):
        state = pong.WorldState(0.0, 0.0, 10.0, 5.0, pong.RACKET_Y_MAX - 0.25, step=0)
        assert_walks_agree(state, fixed(pong.Action.UP), pong.ACTION_PERIOD)
        racket_y = next(pong.trajectory(state, lambda t: pong.Action.UP, 100, None))[1][2]
        assert racket_y[-1] == pong.RACKET_Y_MAX
        assert np.all(np.diff(racket_y) >= 0)

    @pytest.mark.parametrize("racket_y, kind", [(-2.0, pong.EventKind.REWARD),
                                                (3.0, pong.EventKind.PUNISHMENT)])
    def test_contact_on_the_first_step_of_a_period(self, racket_y, kind):
        state = pong.WorldState(-4.999, -2.5, -20.0, 0.0, racket_y, step=pong.ACTION_PERIOD)
        blocks = assert_walks_agree(state, chaotic(3), 250, seed=4)
        step, n, event = blocks[0]
        assert (step, n, event) == (pong.ACTION_PERIOD, 1, pong.EnvEvent(kind, step))

    @pytest.mark.parametrize("racket_y, kind", [(-2.0, pong.EventKind.REWARD),
                                                (3.0, pong.EventKind.PUNISHMENT)])
    def test_contact_on_the_last_step_of_a_period(self, racket_y, kind):
        # 100 steps of 0.02 cm from x = -3.01 cross x = -5 on the 100th step only
        state = pong.WorldState(-3.01, -2.5, -20.0, 0.0, racket_y, step=0)
        blocks = assert_walks_agree(state, fixed(pong.Action.HOLD), 250, seed=5)
        last = pong.ACTION_PERIOD - 1
        assert blocks[0] == (0, pong.ACTION_PERIOD, pong.EnvEvent(kind, last))

    def test_a_miss_serves_the_ball_from_the_middle(self):
        state = pong.WorldState(-4.999, 4.0, -20.0, 1.0, -pong.RACKET_Y_MAX, step=7)
        rng = np.random.default_rng(6)
        (start, positions, event), (serve, _, _) = list(
            pong.trajectory(state, lambda t: pong.Action.HOLD, 2, rng))[:2]
        assert event == pong.EnvEvent(pong.EventKind.PUNISHMENT, 7)
        assert serve.ball_x == 0.0 and serve.step == 8
        assert_walks_agree(state, fixed(pong.Action.HOLD), 300, seed=6)

    @pytest.mark.parametrize("n_steps", [1, 99, 101, 250, 1234])
    def test_episode_lengths_off_the_period(self, n_steps):
        start = pong.initial_state(np.random.default_rng(8))
        blocks = assert_walks_agree(start, chaotic(9), n_steps, seed=8)
        assert sum(n for _, n, _ in blocks) == n_steps
        if n_steps == 1:
            assert len(blocks) == 1

    def test_zero_steps_walk_nothing(self):
        start = pong.initial_state(np.random.default_rng(0))
        assert list(pong.trajectory(start, lambda t: pong.Action.HOLD, 0, None)) == []


# -- the recorder against its one-step-at-a-time form -------------------------

def per_step_recording(duration_s, seed, clock_mode):
    """The recorder as one env_step and one encode call per step."""
    n_steps = round(duration_s * 1000)
    layout = EncoderLayout()
    seeds = np.random.SeedSequence(seed).spawn(3)
    env_rng = np.random.default_rng(seeds[0])
    policy = pong.ChaoticPolicy(np.random.default_rng(seeds[1]))
    clock = SpikeClock(
        clock_mode,
        rng=np.random.default_rng(seeds[2]) if clock_mode == "bernoulli" else None,
    )
    state = pong.initial_state(env_rng)
    frames, rewards, punishments = [], [], []
    for t in range(n_steps):
        spiking = encode(state, layout, clock)
        if spiking:
            frames.append((t, spiking))
        state, event = pong.env_step(state, policy(t), env_rng)
        if event is not None:
            if event.kind is pong.EventKind.REWARD:
                rewards.append(event.step)
            else:
                punishments.append(event.step)
    return EpisodeRecord.build(
        step_ms=1, n_channels=N_CHANNELS, seed=seed, n_steps=n_steps, frames=frames,
        reward_steps=rewards, punishment_steps=punishments,
    )


class TestRecorderBytes:
    @pytest.mark.parametrize("clock", ["shared", "bernoulli"])
    @pytest.mark.parametrize("seed, duration", [(0, 0.001), (5, 12.345), (42, 20), (77, 9.9)])
    def test_same_bytes_as_the_per_step_recorder(self, seed, duration, clock):
        rec = record_pong_episode(duration, seed, clock_mode=clock)
        ref = per_step_recording(duration, seed, clock)
        assert rec == ref
        assert rec.to_bytes() == ref.to_bytes()

    def test_record_holds_rewards_and_punishments(self):
        rec = record_pong_episode(20, 42)
        assert len(rec.reward_steps) and len(rec.punishment_steps)
