"""R metric: interval arithmetic against a per-step brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalneuron.metrics import (
    IntervalSet,
    prediction_periods,
    r_metric,
    score_run,
    score_runs,
    target_periods,
)


def brute_force_score(fires, rewards, T_P, window):
    """Definition-level R: mark every step of every period, no interval tricks."""
    lo, hi = window
    fires = [f for f in fires if lo <= f < hi]
    rewards = sorted(r for r in rewards if lo <= r < hi)

    target = [False] * (hi - lo)
    for r in rewards:
        for u in range(max(r - T_P, lo), r):
            target[u - lo] = True

    prediction = [False] * (hi - lo)
    for f in fires:
        end = f + T_P
        upcoming = [r for r in rewards if r >= f]
        if upcoming:
            end = min(end, upcoming[0])
        for u in range(f, min(end, hi)):
            prediction[u - lo] = True

    t_tar = sum(target)
    if t_tar == 0:
        raise ValueError("no targets")
    t_err = sum(a != b for a, b in zip(target, prediction))
    return 1.0 - t_err / t_tar


class TestIntervalSet:
    def test_normalization_merges_overlaps(self):
        s = IntervalSet([(5, 10), (0, 6), (20, 25), (25, 30)])
        assert s.intervals == ((0, 10), (20, 30))
        assert s.total == 20

    def test_empty_and_degenerate(self):
        assert IntervalSet().intervals == ()
        assert IntervalSet([(5, 5), (7, 3)]).intervals == ()
        assert not IntervalSet()

    def test_contains(self):
        s = IntervalSet([(2, 5), (9, 11)])
        assert all(k in s for k in (2, 3, 4, 9, 10))
        assert all(k not in s for k in (-1, 1, 5, 8, 11, 100))

    def test_clip(self):
        s = IntervalSet([(0, 10), (20, 30)])
        assert s.clip(5, 25).intervals == ((5, 10), (20, 25))
        assert s.clip(12, 18).intervals == ()

    @given(
        st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)), max_size=12),
        st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)), max_size=12),
    )
    def test_symmetric_difference_against_sets(self, a_raw, b_raw):
        a = IntervalSet(a_raw)
        b = IntervalSet(b_raw)
        set_a = {u for s, e in a.intervals for u in range(s, e)}
        set_b = {u for s, e in b.intervals for u in range(s, e)}
        assert a.symmetric_difference_measure(b) == len(set_a ^ set_b)
        assert a.symmetric_difference_measure(b) == b.symmetric_difference_measure(a)

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)), max_size=15))
    def test_total_matches_membership_count(self, raw):
        s = IntervalSet(raw)
        assert s.total == sum(1 for u in range(0, 301) if u in s)


class TestPeriods:
    def test_target_periods_clip_at_zero(self):
        assert target_periods([30], 100).intervals == ((0, 30),)
        assert target_periods([150, 170], 100).intervals == ((50, 170),)

    def test_prediction_truncated_by_next_reward(self):
        p = prediction_periods([50], [120], 100)
        assert p.intervals == ((50, 120),)

    def test_prediction_at_reward_step_is_empty(self):
        # a fire exactly at the reward truncates to zero length
        assert prediction_periods([120], [120], 100).intervals == ()

    def test_prediction_full_window_when_no_reward_ahead(self):
        assert prediction_periods([50], [20], 100).intervals == ((50, 150),)


class TestRMetric:
    def test_perfect_prediction(self):
        targets = target_periods([200], 100)
        predictions = prediction_periods([100], [200], 100)
        assert r_metric(targets, predictions) == 1.0

    def test_silent_detector_scores_zero(self):
        targets = target_periods([200, 500], 100)
        assert r_metric(targets, IntervalSet()) == 0.0

    def test_all_wrong_goes_negative(self):
        targets = target_periods([1000], 100)
        predictions = prediction_periods([100, 300, 500], [1000], 100)
        assert r_metric(targets, predictions) < 0.0

    def test_no_targets_raises(self):
        with pytest.raises(ValueError):
            r_metric(IntervalSet(), IntervalSet([(0, 10)]))

    def test_score_run_window_filters_outside_activity(self):
        # a reward before the window cannot help or hurt
        r = score_run([150], [100, 250], 100, (120, 400))
        assert r == score_run([150], [250], 100, (120, 400))


class TestBruteForceEquivalence:
    def test_ten_thousand_random_timelines(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 10_000:
            length = int(rng.integers(50, 400))
            T_P = int(rng.integers(5, 60))
            n_rew = int(rng.integers(1, 6))
            n_fire = int(rng.integers(0, 12))
            # a reward at step 0 has an empty (clipped) target period, so
            # keep rewards at step >= 1 to guarantee targets exist
            rewards = sorted(set(rng.integers(1, length, n_rew).tolist()))
            fires = sorted(set(rng.integers(0, length, n_fire).tolist()))
            window = (0, length)
            if not rewards:
                continue
            fast = score_run(fires, rewards, T_P, window)
            slow = brute_force_score(fires, rewards, T_P, window)
            assert fast == slow
            checked += 1

    def test_random_sub_windows(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            length = 500
            T_P = int(rng.integers(5, 60))
            rewards = sorted(set(rng.integers(1, length, 8).tolist()))
            fires = sorted(set(rng.integers(0, length, 15).tolist()))
            lo = int(rng.integers(0, length - 50))
            hi = int(rng.integers(lo + 20, length))
            if not any(lo < r < hi for r in rewards):
                continue
            assert score_run(fires, rewards, T_P, (lo, hi)) == brute_force_score(
                fires, rewards, T_P, (lo, hi)
            )


def interval_score(fires, rewards, T_P, window):
    """R through the IntervalSet reference: filter, build, clip, r_metric."""
    if window is not None:
        lo, hi = window
        fires = [f for f in fires if lo <= f < hi]
        rewards = [r for r in rewards if lo <= r < hi]
    targets = target_periods(rewards, T_P)
    predictions = prediction_periods(fires, rewards, T_P)
    if window is not None:
        targets, predictions = targets.clip(*window), predictions.clip(*window)
    return r_metric(targets, predictions)


@st.composite
def timelines(draw):
    """Unsorted, repeated fires and rewards, often on the window's edges."""
    window = draw(st.one_of(st.none(), st.tuples(st.integers(0, 150), st.integers(0, 300))))
    edges = [] if window is None else [w + d for w in window for d in (-1, 0, 1) if w + d >= 0]
    step = st.one_of(st.integers(0, 300), st.sampled_from(edges)) if edges else st.integers(0, 300)
    rewards = draw(st.lists(step, max_size=8))
    fires = draw(st.lists(st.one_of(step, st.sampled_from(rewards)) if rewards else step,
                          max_size=20))
    return fires, rewards, draw(st.one_of(st.just(1), st.integers(1, 80))), window


@settings(max_examples=300, deadline=None)
@given(timelines())
def test_score_run_matches_both_references(case):
    fires, rewards, T_P, window = case
    # brute force needs a window; one past every period is the same as none
    full = window or (0, max(fires + rewards, default=0) + T_P + 1)
    try:
        expected = interval_score(fires, rewards, T_P, window)
    except ValueError as exc:
        assert str(exc) == "R metric undefined: no target periods"
        with pytest.raises(ValueError, match="^R metric undefined: no target periods$"):
            score_run(fires, rewards, T_P, window)
        with pytest.raises(ValueError):
            brute_force_score(fires, rewards, T_P, full)
        return
    assert score_run(fires, rewards, T_P, window) == expected
    assert brute_force_score(fires, rewards, T_P, full) == expected
    assert score_run(np.array(fires, dtype=np.int64), np.array(rewards, dtype=np.int64),
                     T_P, window) == expected


@st.composite
def populations(draw):
    """Several runs' fires over one timeline, interleaved in any order."""
    _, rewards, T_P, window = draw(timelines())
    step = st.integers(0, 300)
    if rewards:
        step = st.one_of(step, st.sampled_from(rewards))
    runs = draw(st.lists(st.lists(step, max_size=12), min_size=1, max_size=6))
    log = [(f, run) for run, fires in enumerate(runs) for f in fires]
    log = draw(st.permutations(log))
    return runs, log, rewards, T_P, window


@settings(max_examples=300, deadline=None)
@given(populations())
def test_score_runs_matches_the_reference_run_by_run(case):
    runs, log, rewards, T_P, window = case
    fires = [f for f, _ in log]
    owner = [run for _, run in log]
    try:
        expected = [interval_score(f, rewards, T_P, window) for f in runs]
    except ValueError:
        with pytest.raises(ValueError, match="^R metric undefined: no target periods$"):
            score_runs(fires, owner, len(runs), rewards, T_P, window)
        return
    assert score_runs(fires, owner, len(runs), rewards, T_P, window) == expected
    # runs past the last one that fired score as silent
    silent = interval_score([], rewards, T_P, window)
    assert score_runs(fires, owner, len(runs) + 2, rewards, T_P, window) \
        == expected + [silent, silent]
