"""Event-driven replay: equivalence with dense stepping, window statistics,
training on the lockstep kernel against the scalar detector, and the
frozen-evaluation kernel against frozen scalar replay."""

import copy
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalneuron.neuron import Detector, DetectorState
from causalneuron.plasticity import PlasticityConfig, weight_of
from causalneuron.population import FrameSums, replay_population
from causalneuron.records import EpisodeRecord
from causalneuron.recording import record_pong_episode
from causalneuron.runner import frozen_fires, replay, train_on_record
from causalneuron.synthetic import SyntheticConfig, generate

from reference import frozen_clone, train_scalar

CFG = PlasticityConfig(d_bar=0.08, w_min=-0.02, w_max=0.6, d_s=0.3, T_P=100)


def busy_record(seed, n_steps=6000, n_channels=6):
    """Dense-ish record that actually makes a mid-weight detector fire."""
    rng = np.random.default_rng(seed)
    frames = []
    for t in range(n_steps):
        if rng.random() < 0.15:
            k = int(rng.integers(1, n_channels + 1))
            frames.append((t, sorted(rng.choice(n_channels, k, replace=False).tolist())))
    rewards = sorted(set(rng.integers(0, n_steps, 12).tolist()))
    return EpisodeRecord.build(
        n_channels=n_channels, seed=seed, n_steps=n_steps,
        frames=frames, reward_steps=rewards,
    )


def dense_replay(record, detector, freeze_step=None):
    """Reference loop: tick every single step, no skipping; plasticity is
    frozen by hand before ``freeze_step``, if given, is ticked."""
    frame_map = dict(record.frames())
    rewards = set(record.reward_steps.tolist())
    fires = []
    for t in range(record.n_steps):
        if t == freeze_step:
            detector.frozen = True
        active = frame_map.get(t, [])
        if detector.tick_sparse(active, t in rewards):
            fires.append(t)
    return fires


class TestReplayEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_dense_stepping(self, seed):
        rec = busy_record(seed)
        a = Detector(rec.n_channels, CFG, initial_weight=0.35)
        b = Detector(rec.n_channels, CFG, initial_weight=0.35)
        fires_fast = replay(a, rec)
        fires_slow = dense_replay(rec, b)
        assert fires_fast == fires_slow
        assert a.resources == b.resources
        assert a.stability == b.stability
        assert a.step == b.step == rec.n_steps
        assert (a.tss_open, a.tss_spans) == (b.tss_open, b.tss_spans)

    def test_fires_nonempty_in_fixture(self):
        # guard: the equivalence test must exercise actual firing
        rec = busy_record(0)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        assert len(replay(det, rec)) > 0

    def test_channel_count_mismatch(self):
        rec = busy_record(0)
        det = Detector(3, CFG)
        with pytest.raises(ValueError):
            replay(det, rec)

    def test_replay_advances_to_end(self):
        rec = EpisodeRecord.build(
            n_channels=2, seed=0, n_steps=1000,
            frames=[(5, [0])], reward_steps=[],
        )
        det = Detector(2, CFG)
        replay(det, rec)
        assert det.step == 1000


class TestWindows:
    def test_window_rows_cover_run(self):
        rec = busy_record(7)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        run, _ = train_on_record(rec, det, window_steps=1000)
        n_windows = rec.n_steps // 1000
        assert len(run.window_fires) == len(run.window_stability) == n_windows
        assert len(run.window_abs_dw) == n_windows
        assert run.window_fires.sum() == len(run.fire_steps)

    def test_abs_weight_change_sums_to_total(self):
        rec = busy_record(8)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        run, state = train_on_record(rec, det, window_steps=1000)
        assert sum(run.window_abs_dw.tolist()) == pytest.approx(state.total_abs_dw)

    def test_freeze_hook(self):
        rec = busy_record(9)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        det = Detector.from_state(train_on_record(rec, det, window_steps=1000, freeze_at=3000)[1])
        assert det.frozen
        # replaying more input through a frozen clone cannot change anything
        clone = frozen_clone(det)
        replay(clone, busy_record(10, n_steps=2000))
        assert clone.weights == det.weights

    @pytest.mark.parametrize("seed", [11, 13])
    @pytest.mark.parametrize("freeze_at", [2001, 2500, 3000])
    def test_freeze_at_acts_at_the_next_boundary(self, seed, freeze_at):
        rec = busy_record(seed)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        run, state = train_on_record(rec, det, window_steps=1000, freeze_at=freeze_at)
        ref = Detector(rec.n_channels, CFG, initial_weight=0.35)
        assert run.fire_steps.tolist() == dense_replay(rec, ref, freeze_step=3000)
        assert state.resources.tolist() == ref.resources
        assert state.stability == ref.stability
        assert run.window_abs_dw[3:].tolist() == [0.0] * (len(run.window_abs_dw) - 3)
        # guard: freezing one window earlier or later ends elsewhere
        for step in (2000, 4000):
            other = Detector(rec.n_channels, CFG, initial_weight=0.35)
            dense_replay(rec, other, freeze_step=step)
            assert other.resources != ref.resources

    def test_freeze_at_zero_still_trains_the_first_window(self):
        rec = busy_record(9)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        run, state = train_on_record(rec, det, window_steps=1000, freeze_at=0)
        ref = Detector(rec.n_channels, CFG, initial_weight=0.35)
        assert run.fire_steps.tolist() == dense_replay(rec, ref, freeze_step=1000)
        assert state.resources.tolist() == ref.resources
        assert run.window_abs_dw[0] > 0.0
        assert all(dw == 0.0 for dw in run.window_abs_dw[1:].tolist())

    def test_bad_window(self):
        rec = busy_record(0)
        det = Detector(rec.n_channels, CFG)
        with pytest.raises(ValueError):
            train_on_record(rec, det, window_steps=0)

    def test_a_detector_that_has_stepped_is_rejected(self):
        rec = busy_record(0)
        det = Detector(rec.n_channels, CFG)
        det.tick_sparse([0])
        with pytest.raises(ValueError, match="at step 1"):
            train_on_record(rec, det)


# -- the frozen-evaluation kernel against frozen scalar replay ----------------

# (weight scale, starting weight) of three firing regimes, each named by the
# threshold that gives it at scale 1: d_bar, w_min and w_max times 4 fire
# exactly where a threshold of 0.25 does, and weights near a w_max above 1
# fire on every frame, as any positive sum does at a threshold of 0
REGIMES = {1.0: (1, 0.0), 0.25: (4, 0.0), 0.0: (4, 1.8)}


def paper_cfg(scale):
    """The paper's config with d_bar, w_min and w_max times ``scale``."""
    c = PlasticityConfig()
    return PlasticityConfig(d_bar=c.d_bar * scale, w_min=c.w_min * scale,
                            w_max=c.w_max * scale)


def assert_frozen_matches(det, record):
    """frozen_fires gives the fires of the detector's frozen clone."""
    expected = replay(frozen_clone(det), record)
    assert frozen_fires(record, det.weights) == expected
    return expected


def random_weights(det, seed):
    rng = np.random.default_rng(seed)
    det.weights = rng.uniform(det.cfg.w_min, det.cfg.w_max, det.n).tolist()
    return det


@st.composite
def event_records(draw):
    n_channels = draw(st.integers(1, 12))
    n_steps = draw(st.integers(1, 600))
    steps = draw(st.lists(st.integers(0, n_steps - 1), max_size=200, unique=True))
    frames = [
        (t, draw(st.lists(st.integers(0, n_channels - 1), min_size=1, max_size=8)))
        for t in sorted(steps)
    ]
    # rewards land on spike steps as well as on steps of their own
    pool = st.one_of(st.sampled_from(sorted(steps)), st.integers(0, n_steps - 1)) \
        if steps else st.integers(0, n_steps - 1)
    return EpisodeRecord.build(
        n_channels=n_channels, seed=0, n_steps=n_steps, frames=frames,
        reward_steps=draw(st.lists(pool, max_size=40, unique=True)),
    )


class TestFrozenFires:
    @settings(max_examples=200, deadline=None)
    @given(
        record=event_records(),
        weights=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
        scale=st.sampled_from([1.0, 4.0]),
    )
    def test_random_records(self, record, weights, scale):
        det = Detector(record.n_channels, PlasticityConfig())
        det.weights = [w * scale for w in weights[:record.n_channels]]
        assert_frozen_matches(det, record)

    @pytest.mark.parametrize("clock", ["shared", "bernoulli"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_pong_records(self, clock, regime):
        scale, weight = REGIMES[regime]
        trained = Detector(133, paper_cfg(scale), initial_weight=weight)
        replay(trained, record_pong_episode(30, 11, clock_mode=clock))
        heldout = record_pong_episode(30, 12, clock_mode=clock)
        assert_frozen_matches(trained, heldout)
        assert len(assert_frozen_matches(random_weights(Detector(133, paper_cfg(scale)), 5),
                                         heldout)) > 0

    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_ga_search_shaped_record(self, regime):
        scale, weight = REGIMES[regime]
        rec = generate(SyntheticConfig(n_channels=30, noise_rate=0.008,
                                       n_steps=60_000), 42)
        trained = Detector(30, paper_cfg(scale), initial_weight=weight)
        replay(trained, rec)
        assert_frozen_matches(trained, rec)
        assert len(assert_frozen_matches(random_weights(Detector(30, paper_cfg(scale)), 6),
                                         rec)) > 0

    def test_channel_count_mismatch(self):
        with pytest.raises(ValueError, match="detector has 3"):
            frozen_fires(busy_record(0), np.zeros(3))


# -- replay up to an end step, then on: one replay of a twin -----------------

def assert_split_replay_is_one_replay(record, cfg, weight, splits):
    """Replaying up to each split in turn and then to the end equals one
    replay of a twin detector; returns whether a TSS was open at each split."""
    a, b = (Detector(record.n_channels, cfg, initial_weight=weight) for _ in range(2))
    fires, open_at_split = [], []
    for split in splits:
        fires += replay(a, record, end=split)
        assert a.step == split
        open_at_split.append(a.tss_open)
    fires += replay(a, record)
    assert fires == replay(b, record)
    assert [r.hex() for r in a.resources] == [r.hex() for r in b.resources]
    assert a.stability.hex() == b.stability.hex()
    assert (a.tss_spans, a.tss_open, a.step) == (b.tss_spans, b.tss_open, b.step)
    return open_at_split


class TestReplayEnd:
    @settings(max_examples=150, deadline=None)
    @given(record=event_records(), scale=st.sampled_from([1.0, 4.0]),
           weight=st.sampled_from([0.0, 0.2, 0.45]), data=st.data())
    def test_a_split_replay_is_one_replay(self, record, scale, weight, data):
        # at scale 4 and weight 0.45 every spike frame fires, so splits fall in open TSSs
        steps = st.integers(0, record.n_steps)
        if len(record.reward_steps):  # a split on a reward step leaves its dopamine to the rest
            steps = st.one_of(steps, st.sampled_from(record.reward_steps.tolist()))
        splits = sorted(data.draw(st.lists(steps, min_size=1, max_size=3)))
        assert_split_replay_is_one_replay(record, paper_cfg(scale), weight * scale, splits)

    def test_splits_on_a_reward_step_and_inside_an_open_tss(self):
        rec = busy_record(0)
        fires = replay(Detector(rec.n_channels, CFG, initial_weight=0.35), rec)
        reward = rec.reward_steps.tolist()[len(rec.reward_steps) // 2]
        inside = fires[len(fires) // 2] + 1  # the step after a fire: its TSS is open
        assert assert_split_replay_is_one_replay(rec, CFG, 0.35, [inside]) == [True]
        assert_split_replay_is_one_replay(rec, CFG, 0.35, [reward])
        assert_split_replay_is_one_replay(rec, CFG, 0.35, sorted([reward, inside]))

    def test_an_end_before_the_detector_or_past_the_record_is_refused(self):
        rec = busy_record(0)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        replay(det, rec, end=100)
        before = copy.deepcopy(vars(det))
        for end in (99, rec.n_steps + 1):
            with pytest.raises(ValueError, match=f"^replay end {end} is not between the "
                               f"detector's step 100 and the record's n_steps 6000$"):
                replay(det, rec, end=end)
        assert vars(det) == before
        det.advance_to(rec.n_steps + 5)
        with pytest.raises(ValueError, match="^replay end 6000 is not between the "
                           "detector's step 6005 and the record's n_steps 6000$"):
            replay(det, rec)


# -- training on the lockstep kernel against the scalar detector ------------

def run_bits(run):
    """Every field of a run, windows included, by name: its values, floats by
    float.hex (None for an absent field)."""
    return [(name, None if value is None else
             [v.hex() if isinstance(v, float) else v for v in np.ravel(value).tolist()])
            for name, value in vars(run).items()]


def assert_trains_like_scalar(record, cfg, weight, window_steps, freeze_at):
    """train_on_record gives the scalar reference's run, windows included, and
    snapshot bytes; both leave the detector they start from as it was."""
    start = Detector(record.n_channels, cfg, initial_weight=weight)
    run, state = train_on_record(record, start, window_steps=window_steps, freeze_at=freeze_at)
    ref_run, ref_state = train_scalar(record, start, window_steps=window_steps,
                                      freeze_at=freeze_at)
    assert vars(start) == vars(Detector(record.n_channels, cfg, initial_weight=weight))
    det, ref = Detector.from_state(state), Detector.from_state(ref_state)
    assert run.fire_steps.tolist() == ref_run.fire_steps.tolist()
    assert run_bits(run) == run_bits(ref_run)
    assert det.weights == ref.weights
    assert det.frozen == ref.frozen
    assert det.depressed == ref.depressed
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "kernel.npz", Path(tmp) / "scalar.npz"
        state.save(a)
        ref_state.save(b)
        assert a.read_bytes() == b.read_bytes()
    return run


def freeze_step(choice, window_steps, n_steps):
    return {"none": None, "zero": 0, "mid-window": window_steps + window_steps // 2,
            "past the end": n_steps + 1}[choice]


class TestTrainOnKernel:
    @settings(max_examples=150, deadline=None)
    @given(record=event_records(), scale=st.sampled_from([1.0, 4.0]),
           T_P=st.sampled_from([1, 7, 100]), weight=st.sampled_from([0.0, 0.35, 0.55]),
           window_steps=st.sampled_from([1, 7, 1000]),
           freeze=st.sampled_from(["none", "zero", "mid-window", "past the end"]))
    def test_random_records(self, record, scale, T_P, weight, window_steps, freeze):
        cfg = PlasticityConfig(d_bar=0.08 * scale, w_min=-0.02 * scale, w_max=0.6 * scale,
                               d_s=0.3, T_P=T_P)
        assert_trains_like_scalar(record, cfg, weight * scale, window_steps,
                                  freeze_step(freeze, window_steps, record.n_steps))

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("window_steps", [1, 7, 1000])
    @pytest.mark.parametrize("freeze", ["none", "zero", "mid-window", "past the end"])
    @pytest.mark.parametrize("weight", [0.0, 0.35])
    def test_busy_records(self, seed, window_steps, freeze, weight):
        rec = busy_record(seed)
        run = assert_trains_like_scalar(
            rec, CFG, weight, window_steps, freeze_step(freeze, window_steps, rec.n_steps))
        if weight:  # guard: the comparison exercises firing and depression
            assert len(run.fire_steps)

    def test_pong_record_at_the_paper_parameters(self):
        rec = record_pong_episode(60, 42)
        run = assert_trains_like_scalar(rec, PlasticityConfig(), 0.35, 10_000, 30_000)
        assert len(run.fire_steps) and run.window_abs_dw[0] > 0.0
        assert run.window_abs_dw[-1] == 0.0

    def test_a_frozen_detector_trains_frozen(self):
        rec = busy_record(3)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        det.frozen = True
        run, state = train_on_record(rec, det, window_steps=1000)
        ref_run, ref = train_scalar(rec, det, window_steps=1000)
        assert run.fire_steps.tolist() == ref_run.fire_steps.tolist()
        assert state.resources.tolist() == ref.resources.tolist()
        assert state.stability == ref.stability
        assert state.total_abs_dw == ref.total_abs_dw == 0.0 and state.frozen and ref.frozen


def state_bits(state):
    """Every field of a state: its dtype, shape and values, floats by float.hex."""
    return [sorted(vars(state.cfg).items())] + [
        (f.name, getattr(state, f.name).dtype.str, getattr(state, f.name).shape,
         [v.hex() if isinstance(v, float) else v
          for v in np.ravel(getattr(state, f.name)).tolist()])
        for f in fields(state)[1:]]


# resources training does not reach, but a state holds and weighs all the same
EXTREME_RESOURCES = st.one_of(st.sampled_from([math.inf, -math.inf, 1e300, -0.0, 0.0]),
                              st.floats(allow_nan=False))


class TestStateRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(record=event_records(), weight=st.sampled_from([0.0, 0.35, 0.55]),
           T_P=st.sampled_from([1, 7, 100]), window_steps=st.sampled_from([1, 7, 1000]),
           freeze=st.sampled_from(["none", "zero", "mid-window"]), data=st.data())
    def test_trained_states_load_back_equal(self, record, weight, T_P, window_steps, freeze,
                                            data):
        cfg = PlasticityConfig(d_bar=0.08, w_min=-0.02, w_max=0.6, d_s=0.3, T_P=T_P)
        _, trained = train_on_record(
            record, Detector(record.n_channels, cfg, initial_weight=weight),
            window_steps=window_steps, freeze_at=freeze_step(freeze, window_steps, record.n_steps))
        extreme = replace(trained, resources=data.draw(st.lists(
            EXTREME_RESOURCES, min_size=record.n_channels, max_size=record.n_channels)))
        for state in (trained, extreme):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "state.npz"
                state.save(path)
                again = DetectorState.load(path)
            assert again.cfg == state.cfg
            assert state_bits(again) == state_bits(state)
            assert [w.hex() for w in again.weights()] == \
                [weight_of(r, cfg).hex() for r in state.resources.tolist()]


@settings(max_examples=100, deadline=None)
@given(record=event_records(), data=st.data())
def test_frame_sums_of_any_range_add_in_channel_order(record, data):
    n = len(record.spike_steps)
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    values = np.random.default_rng(n).uniform(-1.0, 1.0, record.n_channels)
    expected = []
    for k in range(lo, hi):
        total = 0.0
        for c in record.channels[record.indptr[k]:record.indptr[k + 1]].tolist():
            total += values[c]
        expected.append(total)
    got = FrameSums(record.indptr, record.channels)(values, lo, hi)
    assert [x.hex() for x in got.tolist()] == [float(x).hex() for x in expected]


# -- the event-driven rule: a step with no spike and no dopamine is no step ---

class TestEventDrivenRule:
    @settings(max_examples=150, deadline=None)
    @given(record=event_records(), scale=st.sampled_from([1.0, 4.0]),
           weight=st.sampled_from([0.0, 0.2, 0.4, 0.45]))
    def test_dense_stepping_equals_replay_at_every_weight_scale(self, record, scale, weight):
        # at scale 4 and weight 0.45, every spike frame fires and no empty step does
        a = Detector(record.n_channels, paper_cfg(scale), initial_weight=weight * scale)
        b = Detector(record.n_channels, paper_cfg(scale), initial_weight=weight * scale)
        assert replay(a, record) == dense_replay(record, b)
        assert a.resources == b.resources
        assert a.stability == b.stability
        assert a.fire_count == b.fire_count
        assert (a.tss_open, a.tss_spans) == (b.tss_open, b.tss_spans)

    def test_tss_open_at_the_end_closes_as_dense_stepping_does(self):
        # the last post spike is T_P + 1 steps before n_steps: dense
        # stepping ends on step n_steps - 1, whose tick does not close the TSS.
        # Step 0 does not fire, and its reward lifts the weight above 1
        rec = EpisodeRecord.build(n_channels=1, seed=0, n_steps=379,
                                  frames=[(0, [0]), (278, [0])], reward_steps=[0])
        a, b = (Detector(1, paper_cfg(4), initial_weight=0.96) for _ in range(2))
        assert replay(a, rec) == dense_replay(rec, b) == [278]
        assert (a.tss_open, a.tss_spans) == (b.tss_open, b.tss_spans) == (True, [(278, 278)])
        a.advance_to(380)  # step 379 is skipped now, and its tick would close it
        assert (a.tss_open, a.tss_spans) == (False, [(278, 278)])


# -- no replay entry point can be given an unreplayable record ----------------

UNORDERED = {  # the fields changed, and the error of the record that cannot be made
    "reward at n_steps": ({"reward_steps": [4, 10]}, "^bad record: reward_steps step 10 "
                          "is negative, out of order or not below n_steps 10$"),
    "repeated reward": ({"reward_steps": [4, 4]}, "^bad record: reward_steps step 4 "
                        "is negative, out of order or not below n_steps 10$"),
    "spikes out of order": ({"spike_steps": [6, 2]}, "^bad record: spike_steps step 2 "
                            "is negative, out of order or not below n_steps 10$"),
    "negative step": ({"spike_steps": [-1, 6]}, "^bad record: spike_steps step -1 "
                      "is negative, out of order or not below n_steps 10$"),
    "ordered": ({}, None),
}


def unordered_record(kind):
    fields = dict(n_channels=3, seed=0, n_steps=10, spike_steps=[2, 6],
                  indptr=[0, 1, 3], channels=[0, 1, 2], reward_steps=[4], punishment_steps=[])
    return EpisodeRecord(**{**fields, **UNORDERED[kind][0]})


ENTRY_POINTS = {
    "replay": lambda rec: replay(Detector(rec.n_channels, CFG), rec),
    "replay_population": lambda rec: replay_population([CFG], rec),
    "frozen_fires": lambda rec: frozen_fires(rec, np.ones(rec.n_channels)),
}


@pytest.mark.parametrize("kind", ["reward at n_steps", "repeated reward",
                                  "spikes out of order", "negative step"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unreplayable_event_order_rejected(entry, kind):
    # the record is refused when it is made, so the entry point never runs
    with pytest.raises(ValueError, match=UNORDERED[kind][1]):
        ENTRY_POINTS[entry](unordered_record(kind))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_ordered_record_accepted(entry):
    ENTRY_POINTS[entry](unordered_record("ordered"))
