"""Event-driven replay: equivalence with dense stepping, window statistics,
training on the lockstep kernel against the scalar detector, and the
frozen-evaluation kernel against frozen scalar replay."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalneuron.neuron import Detector
from causalneuron.plasticity import PlasticityConfig
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
        step_ms=1, n_channels=n_channels, seed=seed, n_steps=n_steps,
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
            step_ms=1, n_channels=2, seed=0, n_steps=1000,
            frames=[(5, [0])], reward_steps=[],
        )
        det = Detector(2, CFG)
        replay(det, rec)
        assert det.step == 1000


class TestWindows:
    def test_window_rows_cover_run(self):
        rec = busy_record(7)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        fires, rows = train_on_record(rec, det, window_steps=1000)
        assert len(rows) == rec.n_steps // 1000
        assert [r.window for r in rows] == list(range(len(rows)))
        total_fire_seconds = sum(r.fire_rate_hz for r in rows) * 1.0
        assert total_fire_seconds == pytest.approx(len(fires))

    def test_abs_weight_change_sums_to_total(self):
        rec = busy_record(8)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        _, rows = train_on_record(rec, det, window_steps=1000)
        assert sum(r.abs_weight_change for r in rows) == pytest.approx(det.total_abs_dw)

    def test_freeze_hook(self):
        rec = busy_record(9)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        train_on_record(rec, det, window_steps=1000, freeze_at=3000)
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
        fires, rows = train_on_record(rec, det, window_steps=1000, freeze_at=freeze_at)
        ref = Detector(rec.n_channels, CFG, initial_weight=0.35)
        assert fires == dense_replay(rec, ref, freeze_step=3000)
        assert det.resources == ref.resources
        assert det.stability == ref.stability
        assert [r.abs_weight_change for r in rows[3:]] == [0.0] * (len(rows) - 3)
        # guard: freezing one window earlier or later ends elsewhere
        for step in (2000, 4000):
            other = Detector(rec.n_channels, CFG, initial_weight=0.35)
            dense_replay(rec, other, freeze_step=step)
            assert other.resources != ref.resources

    def test_freeze_at_zero_still_trains_the_first_window(self):
        rec = busy_record(9)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        fires, rows = train_on_record(rec, det, window_steps=1000, freeze_at=0)
        ref = Detector(rec.n_channels, CFG, initial_weight=0.35)
        assert fires == dense_replay(rec, ref, freeze_step=1000)
        assert det.resources == ref.resources
        assert rows[0].abs_weight_change > 0.0
        assert all(r.abs_weight_change == 0.0 for r in rows[1:])

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

THRESHOLDS = [1.0, 0.25, 0.0]


def paper_cfg(H):
    return PlasticityConfig(H=H)


def assert_frozen_matches(det, record):
    """frozen_fires gives the fires of the detector's frozen clone."""
    expected = replay(frozen_clone(det), record)
    assert frozen_fires(record, det.weight_array(), det.cfg.H) == expected
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
        step_ms=1, n_channels=n_channels, seed=0, n_steps=n_steps, frames=frames,
        reward_steps=draw(st.lists(pool, max_size=40, unique=True)),
    )


class TestFrozenFires:
    @settings(max_examples=200, deadline=None)
    @given(
        record=event_records(),
        weights=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
        H=st.sampled_from(THRESHOLDS),
    )
    def test_random_records(self, record, weights, H):
        det = Detector(record.n_channels, paper_cfg(H))
        det.weights = weights[:record.n_channels]
        assert_frozen_matches(det, record)

    @pytest.mark.parametrize("clock", ["shared", "bernoulli"])
    @pytest.mark.parametrize("H", THRESHOLDS)
    def test_pong_records(self, clock, H):
        trained = Detector(133, paper_cfg(H))
        replay(trained, record_pong_episode(30, 11, clock_mode=clock))
        heldout = record_pong_episode(30, 12, clock_mode=clock)
        assert_frozen_matches(trained, heldout)
        assert len(assert_frozen_matches(random_weights(Detector(133, paper_cfg(H)), 5),
                                         heldout)) > 0

    @pytest.mark.parametrize("H", THRESHOLDS)
    def test_ga_search_shaped_record(self, H):
        rec = generate(SyntheticConfig(n_channels=30, noise_rate=0.008,
                                       n_steps=60_000, seed=42))
        trained = Detector(30, paper_cfg(H))
        replay(trained, rec)
        assert_frozen_matches(trained, rec)
        assert len(assert_frozen_matches(random_weights(Detector(30, paper_cfg(H)), 6), rec)) > 0

    def test_channel_count_mismatch(self):
        with pytest.raises(ValueError, match="detector has 3"):
            frozen_fires(busy_record(0), np.zeros(3), 1.0)


# -- training on the lockstep kernel against the scalar detector ------------

def row_bits(row):
    return (row.window, row.fire_rate_hz.hex(), row.stability.hex(),
            row.abs_weight_change.hex())


def assert_trains_like_scalar(record, cfg, weight, window_steps, freeze_at):
    """train_on_record gives the scalar loop's fires, rows and snapshot bytes."""
    det = Detector(record.n_channels, cfg, initial_weight=weight)
    ref = Detector(record.n_channels, cfg, initial_weight=weight)
    fires, rows = train_on_record(record, det, window_steps=window_steps,
                                  freeze_at=freeze_at)
    ref_fires, ref_rows = train_scalar(record, ref, window_steps=window_steps,
                                       freeze_at=freeze_at)
    assert fires == ref_fires
    assert [row_bits(r) for r in rows] == [row_bits(r) for r in ref_rows]
    assert det.weights == ref.weights
    assert det.frozen == ref.frozen
    assert det.depressed == ref.depressed
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "kernel.npz", Path(tmp) / "scalar.npz"
        det.save_snapshot(a)
        ref.save_snapshot(b)
        assert a.read_bytes() == b.read_bytes()
    return fires, rows


def freeze_step(choice, window_steps, n_steps):
    return {"none": None, "zero": 0, "mid-window": window_steps + window_steps // 2,
            "past the end": n_steps + 1}[choice]


class TestTrainOnKernel:
    @settings(max_examples=150, deadline=None)
    @given(record=event_records(), H=st.sampled_from(THRESHOLDS),
           T_P=st.sampled_from([1, 7, 100]), weight=st.sampled_from([0.0, 0.35]),
           window_steps=st.sampled_from([1, 7, 1000]),
           freeze=st.sampled_from(["none", "zero", "mid-window", "past the end"]))
    def test_random_records(self, record, H, T_P, weight, window_steps, freeze):
        cfg = PlasticityConfig(d_bar=0.08, w_min=-0.02, w_max=0.6, d_s=0.3, T_P=T_P, H=H)
        assert_trains_like_scalar(record, cfg, weight, window_steps,
                                  freeze_step(freeze, window_steps, record.n_steps))

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("window_steps", [1, 7, 1000])
    @pytest.mark.parametrize("freeze", ["none", "zero", "mid-window", "past the end"])
    @pytest.mark.parametrize("weight", [0.0, 0.35])
    def test_busy_records(self, seed, window_steps, freeze, weight):
        rec = busy_record(seed)
        fires, _ = assert_trains_like_scalar(
            rec, CFG, weight, window_steps, freeze_step(freeze, window_steps, rec.n_steps))
        if weight:  # guard: the comparison exercises firing and depression
            assert fires

    def test_pong_record_at_the_paper_parameters(self):
        rec = record_pong_episode(60, 42)
        fires, rows = assert_trains_like_scalar(rec, PlasticityConfig(), 0.35, 10_000, 30_000)
        assert fires and rows[0].abs_weight_change > 0.0 and rows[-1].abs_weight_change == 0.0

    def test_a_frozen_detector_trains_frozen(self):
        rec = busy_record(3)
        det = Detector(rec.n_channels, CFG, initial_weight=0.35)
        ref = Detector(rec.n_channels, CFG, initial_weight=0.35)
        det.frozen = ref.frozen = True
        assert train_on_record(rec, det, window_steps=1000)[0] == \
            train_scalar(rec, ref, window_steps=1000)[0]
        assert det.resources == ref.resources and det.stability == ref.stability
        assert det.total_abs_dw == ref.total_abs_dw == 0.0


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
    @given(record=event_records(), H=st.sampled_from([0.0, -0.0, 0.25, 1.0]),
           weight=st.sampled_from([0.0, 0.2, 0.4]))
    def test_dense_stepping_equals_replay_at_every_threshold(self, record, H, weight):
        a = Detector(record.n_channels, paper_cfg(H), initial_weight=weight)
        b = Detector(record.n_channels, paper_cfg(H), initial_weight=weight)
        assert replay(a, record) == dense_replay(record, b)
        assert a.resources == b.resources
        assert a.stability == b.stability
        assert a.fire_count == b.fire_count
        assert (a.tss_open, a.tss_spans) == (b.tss_open, b.tss_spans)

    def test_tss_open_at_the_end_closes_as_dense_stepping_does(self):
        # the last post spike is isi_max + 1 steps before n_steps: dense
        # stepping ends on step n_steps - 1, whose tick does not close the TSS
        rec = EpisodeRecord.build(step_ms=1, n_channels=1, seed=0, n_steps=379,
                                  frames=[(0, [0]), (278, [0])], reward_steps=[0])
        a, b = (Detector(1, paper_cfg(0.0), initial_weight=0.0) for _ in range(2))
        assert replay(a, rec) == dense_replay(rec, b) == [278]
        assert (a.tss_open, a.tss_spans) == (b.tss_open, b.tss_spans) == (True, [(278, 278)])
        a.advance_to(380)  # step 379 is skipped now, and its tick would close it
        assert (a.tss_open, a.tss_spans) == (False, [(278, 278)])

    @pytest.mark.parametrize("H", [-0.25, -5e-324])
    def test_a_threshold_below_zero_is_refused(self, H):
        # an empty step would fire below zero, and no replay steps it
        with pytest.raises(ValueError, match=f"^H must be >= 0, got {H}$"):
            paper_cfg(H)

    @pytest.mark.parametrize("H", [0.0, -0.0])
    def test_a_zero_threshold_is_accepted_and_no_empty_step_fires(self, H):
        rec = EpisodeRecord.build(step_ms=1, n_channels=1, seed=0, n_steps=30,
                                  frames=[(3, [0])], reward_steps=[10])
        a, b = (Detector(1, paper_cfg(H), initial_weight=0.2) for _ in range(2))
        (run,) = replay_population([a.cfg], rec, resources=a.resource_array())
        assert replay(a, rec) == dense_replay(rec, b) == run.fires == [3]
        assert frozen_fires(rec, np.array([0.2]), H) == [3]
        assert frozen_fires(rec, np.array([0.0]), H) == []  # a sum of 0.0 does not fire


# -- no replay entry point can be given an unreplayable record ----------------

UNORDERED = {  # the fields changed, and the error of the record that cannot be made
    "reward at n_steps": ({"reward_steps": [4, 10]}, "event at step 10 >= n_steps 10"),
    "repeated reward": ({"reward_steps": [4, 4]}, "out of order or past the end"),
    "spikes out of order": ({"spike_steps": [6, 2]}, "out of order or past the end"),
    "negative step": ({"spike_steps": [-1, 6]}, "out of order or past the end"),
    "ordered": ({}, None),
}


def unordered_record(kind):
    fields = dict(step_ms=1, n_channels=3, seed=0, n_steps=10, spike_steps=[2, 6],
                  indptr=[0, 1, 3], channels=[0, 1, 2], reward_steps=[4], punishment_steps=[])
    return EpisodeRecord(**{**fields, **UNORDERED[kind][0]})


ENTRY_POINTS = {
    "replay": lambda rec: replay(Detector(rec.n_channels, CFG), rec),
    "replay_population": lambda rec: replay_population([CFG], rec),
    "frozen_fires": lambda rec: frozen_fires(rec, np.ones(rec.n_channels), CFG.H),
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
