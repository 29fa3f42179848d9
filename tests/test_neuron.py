"""Detector neuron: TSS tracking, depression, dopamine, stability, snapshots."""

import dataclasses
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalneuron.neuron import Detector
from causalneuron.plasticity import (
    THRESHOLD,
    PlasticityConfig,
    effective_rates,
    resource_for_weight,
    weight_of,
)
from causalneuron.records import EpisodeRecord
from causalneuron.runner import replay

from reference import frozen_clone, tss_segments

CFG = PlasticityConfig()
# Wider weight ceiling: lets a single synapse (or a pair) cross threshold,
# which keeps firing scripts short in the unit tests below.
STRONG_CFG = PlasticityConfig(d_bar=0.056, w_min=-0.017, w_max=2.0, d_s=0.23, T_P=100)


@dataclass
class InputFrame:
    """One dense step of input: a spike bit per synapse plus the dopamine bit.

    The dopamine channel is not a plastic channel; it gates plasticity and
    never adds to the membrane sum.
    """

    spikes: Sequence[bool]
    dopamine: bool = False


def integrate(det, frame):
    """Dense threshold test of one frame over every synapse, mutating nothing."""
    spikes = frame.spikes
    if len(spikes) != det.n:
        raise ValueError(f"frame length {len(spikes)} != synapse count {det.n}")
    total = 0.0
    for i, bit in enumerate(spikes):
        if bit:
            total += det.weights[i]
    return total > THRESHOLD


def tick(det, frame):
    """Advance one step with a dense frame. Returns whether the detector fired."""
    spikes = frame.spikes
    if len(spikes) != det.n:
        raise ValueError(f"frame length {len(spikes)} != synapse count {det.n}")
    return det.tick_sparse([i for i, bit in enumerate(spikes) if bit], frame.dopamine)


def make_detector(n=4, weight=0.0, cfg=CFG, **kwargs):
    return Detector(n, cfg, initial_weight=weight, **kwargs)


def driver_detector(cfg=None):
    """One synapse strong enough that every presynaptic spike causes a fire."""
    cfg = cfg or PlasticityConfig(d_bar=1e-9, w_min=-0.1, w_max=2.0, d_s=1e-9, T_P=100)
    return Detector(1, cfg, initial_weight=1.5)


class TestTssSegments:
    def test_examples(self):
        assert tss_segments([10, 12, 15], 100) == [(10, 15)]
        assert tss_segments([10, 200], 100) == [(10, 10), (200, 200)]
        assert tss_segments([], 100) == []

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            tss_segments([5, 5], 100)
        with pytest.raises(ValueError):
            tss_segments([5, 3], 100)

    def test_boundary_gap_is_inclusive(self):
        assert tss_segments([0, 100], 100) == [(0, 100)]
        assert tss_segments([0, 101], 100) == [(0, 0), (101, 101)]


class TestOnlineOfflineEquivalence:
    def test_thousand_random_trains(self):
        rng = np.random.default_rng(42)
        isi = 100
        for trial in range(1000):
            density = rng.choice([0.0005, 0.002, 0.01, 0.05, 0.3])
            n_steps = 10_000
            spikes = np.nonzero(rng.random(n_steps) < density)[0].tolist()
            det = driver_detector()
            for t in spikes:
                det.advance_to(t)
                fired = det.tick_sparse([0])
                assert fired
            det.advance_to(n_steps + isi + 1)  # force closure of the last TSS
            assert (det.tss_open, det.tss_spans) == (False, tss_segments(spikes, isi))


class TestDepression:
    def test_once_per_tss(self):
        det = make_detector(n=3)
        det.resources = [5.0, 5.0, 5.0]   # w ~ 0.43 each, sum ~ 1.3 > H
        det.weights = [weight_of(r, CFG) for r in det.resources]
        before = list(det.resources)
        for _ in range(5):
            det.tick_sparse([0, 1, 2])    # same synapses spike every step
        rate = effective_rates(0.0, CFG)
        for i in range(3):
            assert det.resources[i] == pytest.approx(before[i] - rate)
        assert len(det.tss_spans) == 1

    def test_onset_spikers_count_as_during_tss(self):
        det = make_detector(n=3)
        det.resources = [5.0, 5.0, 5.0]
        det.weights = [weight_of(r, CFG) for r in det.resources]
        det.tick_sparse([0, 1, 2])  # fires; all helped, all depressed
        assert all(r < 5.0 for r in det.resources)

    def test_trailing_spike_committed_only_on_next_post(self):
        cfg = PlasticityConfig(d_bar=0.1, w_min=-0.1, w_max=2.0, d_s=0.1, T_P=100)
        driver_w = resource_for_weight(1.5, cfg)

        def fresh():
            det = Detector(2, cfg)
            det.resources = [driver_w, 0.5]   # synapse 1 weak: cannot fire alone
            det.weights = [weight_of(r, cfg) for r in det.resources]
            return det

        # Case 1: synapse 1 spikes after the last post spike, then the TSS is
        # extended by another post spike -> depression is committed.
        det = fresh()
        det.tick_sparse([0])            # t=0: fires (onset)
        det.tick_sparse([1])            # t=1: presyn only, pending
        held = det.resources[1]
        assert held == 0.5              # not yet depressed
        det.advance_to(50)
        det.tick_sparse([0])            # t=50: fires again within ISI_max
        assert det.resources[1] == pytest.approx(0.5 - 0.1)

        # Case 2: the TSS closes before another post spike -> pending discarded.
        det = fresh()
        det.tick_sparse([0])            # t=0: fires
        det.tick_sparse([1])            # t=1: pending
        det.advance_to(200)             # gap 200 > ISI_max: TSS closed
        det.tick_sparse([0])            # new TSS; synapse 1 was never depressed
        assert det.resources[1] == 0.5

    def test_pending_channels_are_depressed_in_ascending_order(self):
        # the fire at step 2 extends the TSS and depresses the pending set
        # {130, 3, 67}; the running |dw| total adds them in channel order
        rec = EpisodeRecord.build(n_channels=131, seed=0, n_steps=10,
                                  frames=[(0, [0]), (1, [130, 3, 67]), (2, [0])],
                                  reward_steps=[])
        det = Detector(131, STRONG_CFG)
        start = {0: 50.0, 3: 0.1, 67: 0.05, 130: 0.15}
        for i, r in start.items():
            det.resources[i] = r
            det.weights[i] = weight_of(r, STRONG_CFG)
        assert replay(det, rec) == [0, 2]
        rate = effective_rates(0.0, STRONG_CFG)  # stability <= 0 leaves it at d_bar
        dw = {i: abs(weight_of(r - rate, STRONG_CFG) - weight_of(r, STRONG_CFG))
              for i, r in start.items()}
        assert det.total_abs_dw == ((dw[0] + dw[3]) + dw[67]) + dw[130]
        # the frame's order and the order 67, 130, 3 give other bits
        assert det.total_abs_dw != ((dw[0] + dw[130]) + dw[3]) + dw[67]
        assert det.total_abs_dw != ((dw[0] + dw[67]) + dw[130]) + dw[3]

    def test_spike_outside_tss_not_depressed(self):
        det = make_detector(n=2)
        det.resources = [5.0, 5.0]
        det.weights = [weight_of(r, CFG) for r in det.resources]
        det.tick_sparse([1])           # t=0: synapse 1 alone, no fire (w<1)
        assert det.fire_count == 0
        assert det.resources[1] == 5.0


class TestDopamine:
    def test_window_boundary_inclusive(self):
        det = make_detector(n=3)
        det.tick_sparse([0])                 # synapse 0 spikes at t=0
        det.advance_to(CFG.T_P)
        det.tick_sparse([], dopamine=True)   # dopamine at t=T_P: in window
        assert det.resources[0] == pytest.approx(det.resources[1] + CFG.d_bar)

    def test_window_boundary_exclusive_past(self):
        det = make_detector(n=2)
        det.tick_sparse([0])
        det.advance_to(CFG.T_P + 1)
        det.tick_sparse([], dopamine=True)   # t = T_P + 1: too late
        assert det.resources[0] == det.resources[1]

    def test_never_spiked_synapse_not_potentiated(self):
        det = make_detector(n=2)
        det.tick_sparse([], dopamine=True)   # dopamine at t=0, nobody ever spiked
        assert det.resources[0] == det.resources[1]
        assert det.resources[0] == resource_for_weight(0.0, CFG)

    def test_silent_neuron_accumulates_potentiation_only(self):
        det = make_detector(n=3)
        r0 = det.resources[2]
        for k in range(4):
            det.advance_to(k * 500)
            det.tick_sparse([2])
            det.advance_to(k * 500 + 60)
            det.tick_sparse([], dopamine=True)
        assert det.fire_count == 0
        assert det.resources[2] == pytest.approx(r0 + 4 * CFG.d_bar)


class TestStability:
    # STRONG_CFG here: a lone synapse at resource 50 has weight ~1.96 > H,
    # so every presynaptic spike in these scripts causes a post spike.
    def strong_single(self):
        det = make_detector(n=1, cfg=STRONG_CFG)
        det.resources = [50.0]
        det.weights = [weight_of(50.0, STRONG_CFG)]
        return det

    def test_net_plus_ds_at_perfect_timing(self):
        det = self.strong_single()
        det.tick_sparse([0])                     # fires: onset, rule 1 -d_s
        det.advance_to(CFG.T_P)
        det.tick_sparse([], dopamine=True)       # t_TSS = ISI_max: +2 d_s
        assert det.stability == pytest.approx(CFG.d_s)

    def test_net_zero_at_zero_t_tss(self):
        det = self.strong_single()
        det.tick_sparse([0], dopamine=True)      # onset and dopamine same step
        assert det.stability == pytest.approx(0.0)

    def test_floor_minus_ds(self):
        det = self.strong_single()
        det.tick_sparse([0])                     # onset at 0, stability -d_s
        det.advance_to(5 * CFG.T_P)
        det.tick_sparse([], dopamine=True)       # t_TSS far past: clamped -d_s
        assert det.stability == pytest.approx(-2 * CFG.d_s)

    def test_no_tss_ever_decrements(self):
        det = make_detector(n=1)
        det.tick_sparse([], dopamine=True)
        assert det.stability == pytest.approx(-CFG.d_s)

    def test_rule1_once_per_tss(self):
        det = self.strong_single()
        for t in (0, 40, 80):
            det.advance_to(t)
            det.tick_sparse([0])
        assert len(det.tss_spans) == 1
        assert det.stability == pytest.approx(-CFG.d_s)

    def test_timing_measured_from_closed_tss_onset(self):
        det = self.strong_single()
        det.tick_sparse([0])                     # TSS onset at 0
        det.advance_to(150)                      # TSS closes (gap > ISI_max)
        det.tick_sparse([], dopamine=True)       # t_TSS=150: adj = 2-0.5 = 1.5
        assert det.stability == pytest.approx(-CFG.d_s + 1.5 * CFG.d_s)


class TestBalance:
    def test_depress_then_potentiate_nets_zero(self):
        det = make_detector(n=3)
        det.resources = [3.0, 3.0, 3.0]          # w ~ 0.41 each, sum > H
        det.weights = [weight_of(r, CFG) for r in det.resources]
        det.tick_sparse([0, 1, 2])               # fires, all depressed at d_bar
        det.advance_to(90)
        det.tick_sparse([], dopamine=True)       # all in T_P window: +d_bar
        # stability was <= 0 when each rate was applied, so both steps used
        # exactly d_bar; the dopamine step itself then raised stability
        assert det.stability == pytest.approx((-1 + 1.9) * CFG.d_s)
        for i in range(3):
            assert det.resources[i] == pytest.approx(3.0, abs=1e-12)


class TestIntegration:
    def test_three_strong_inputs_fire(self):
        cfg = PlasticityConfig(d_bar=0.056, w_min=-0.017, w_max=0.5, d_s=0.23)
        det = Detector(3, cfg, initial_weight=0.48)
        assert integrate(det, InputFrame([True, True, True]))
        assert not integrate(det, InputFrame([True, True, False]))

    def test_empty_frame_silent(self):
        det = make_detector(n=3)
        assert not integrate(det, InputFrame([False, False, False]))

    def test_threshold_is_strict(self):
        cfg = PlasticityConfig(d_bar=0.056, w_min=-0.017, w_max=2.0, d_s=0.23)
        det = Detector(2, cfg, initial_weight=0.5)
        assert not integrate(det, InputFrame([True, True]))  # sum exactly 1.0

    def test_integrate_is_pure(self):
        det = make_detector(n=2)
        before = (list(det.resources), det.step, det.stability)
        integrate(det, InputFrame([True, True]))
        assert (list(det.resources), det.step, det.stability) == before

    def test_length_mismatch(self):
        det = make_detector(n=3)
        with pytest.raises(ValueError):
            integrate(det, InputFrame([True]))
        with pytest.raises(ValueError):
            tick(det, InputFrame([True]))

    def test_dense_integration_decides_every_sparse_fire(self):
        # weights move as the run goes, so each step is tested on live state
        rng = np.random.default_rng(4)
        det = make_detector(n=6, weight=0.3, cfg=STRONG_CFG)
        dense = make_detector(n=6, weight=0.3, cfg=STRONG_CFG)
        fired = []
        for _ in range(3000):
            frame = InputFrame((rng.random(6) < 0.15).tolist(), bool(rng.random() < 0.01))
            will_fire = integrate(det, frame)
            active = [i for i, bit in enumerate(frame.spikes) if bit]
            assert det.tick_sparse(active, frame.dopamine) == will_fire
            assert tick(dense, frame) == will_fire
            fired.append(will_fire)
        assert any(fired) and not all(fired)
        assert dense.resources == det.resources
        assert dense.stability == det.stability
        assert (dense.tss_open, dense.tss_spans) == (det.tss_open, det.tss_spans)

    def test_fresh_detector_inert_without_dopamine(self):
        rng = np.random.default_rng(3)
        det = make_detector(n=5)
        r0 = list(det.resources)
        for t in range(2000):
            active = np.nonzero(rng.random(5) < 0.2)[0].tolist()
            assert not det.tick_sparse(active)
        assert det.resources == r0
        assert det.fire_count == 0


class TestDeterminismAndSnapshots:
    def random_run(self, det, seed, n_steps=3000, with_dopamine=True):
        rng = np.random.default_rng(seed)
        for _ in range(n_steps):
            active = np.nonzero(rng.random(det.n) < 0.05)[0].tolist()
            dop = with_dopamine and rng.random() < 0.01
            det.tick_sparse(active, dop)

    def test_bitwise_determinism(self):
        a = make_detector(n=6, weight=0.2)
        b = make_detector(n=6, weight=0.2)
        self.random_run(a, 7)
        self.random_run(b, 7)
        assert a.resources == b.resources
        assert a.stability == b.stability
        assert a.fire_count == b.fire_count
        assert (a.tss_open, a.tss_spans) == (b.tss_open, b.tss_spans)

    def test_snapshot_round_trip_continues_identically(self, tmp_path):
        a = make_detector(n=6, weight=0.2)
        self.random_run(a, 11)
        path = tmp_path / "snap.npz"
        a.save_snapshot(path)
        b = Detector.load_snapshot(path)
        assert b.resources == a.resources
        assert b.step == a.step
        assert b.stability == a.stability
        assert (b.tss_open, b.tss_spans) == (a.tss_open, a.tss_spans)
        assert b.depressed == a.depressed
        b.save_snapshot(tmp_path / "again.npz")
        assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()
        self.random_run(a, 13)
        self.random_run(b, 13)
        assert a.resources == b.resources
        assert a.stability == b.stability
        assert (a.tss_open, a.tss_spans) == (b.tss_open, b.tss_spans)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), steps=st.integers(0, 300),
           T_P=st.sampled_from([1, 7, 50]), gap=st.integers(0, 60),
           freeze=st.sampled_from([None, 0, 150]))
    def test_save_load_save_is_exact_and_both_resume_alike(self, seed, n, steps, T_P, gap,
                                                           freeze):
        """A TSS open or closed at the save, a detector frozen or not."""
        cfg = PlasticityConfig(d_bar=0.16, w_min=-0.04, w_max=1.2, d_s=0.3, T_P=T_P)
        rng = np.random.default_rng(seed)

        def run(det, n_steps):
            fires = []
            for _ in range(n_steps):
                det.frozen = det.frozen or det.step == freeze
                active = np.flatnonzero(rng.random(n) < 0.2).tolist()
                fires.append(det.tick_sparse(active, bool(rng.random() < 0.05)))
            return fires

        a = Detector(n, cfg, initial_weight=0.7)
        run(a, steps)
        a.advance_to(a.step + gap)
        with tempfile.TemporaryDirectory() as tmp:
            first, again = Path(tmp) / "first.npz", Path(tmp) / "again.npz"
            a.save_snapshot(first)
            b = Detector.load_snapshot(first)
            b.save_snapshot(again)
            assert again.read_bytes() == first.read_bytes()
            assert (b.tss_open, b.frozen, b.weights) == (a.tss_open, a.frozen, a.weights)
            state = rng.bit_generator.state
            fires = run(a, 200)
            rng.bit_generator.state = state
            assert run(b, 200) == fires
            a.save_snapshot(first)
            b.save_snapshot(again)
            assert again.read_bytes() == first.read_bytes()
            assert b.weights == a.weights

    def test_frozen_detector_round_trip_resumes_bit_for_bit(self, tmp_path):
        a = Detector(3, PlasticityConfig(d_bar=0.112, w_min=-0.034, w_max=0.96),
                     initial_weight=0.6)
        a.frozen = True
        a.tick_sparse([0, 1, 2])
        path = tmp_path / "snap.npz"
        a.save_snapshot(path)
        b = Detector.load_snapshot(path)
        plastic = Detector.load_snapshot(path)
        plastic.frozen = False
        assert b.frozen
        for det in (a, b, plastic):
            for t in range(5):
                det.tick_sparse([0, 1, 2], dopamine=t == 2)
        assert b.resources == a.resources
        assert plastic.resources != a.resources  # guard: the ticks would train a plastic one

    def test_snapshot_version_check(self, tmp_path):
        path = tmp_path / "snap.npz"
        det = make_detector()
        det.save_snapshot(path)
        data = dict(np.load(path))
        data["format_version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            Detector.load_snapshot(path)

    @pytest.mark.parametrize("entries, message", [
        ({"resources": [0.1, np.nan, np.inf]}, "resource 1 is NaN"),
        ({"fire_count": -3}, "fire_count -3 < 2 TSS spans"),
        ({"fire_count": 1}, "fire_count 1 < 2 TSS spans"),
        ({"total_abs_dw": -1e-300}, "total_abs_dw -1e-300 < 0"),
    ], ids=["NaN resource", "negative fire count", "fewer fires than spans",
            "negative total |dw|"])
    def test_snapshot_of_an_unreachable_state_is_refused(self, tmp_path, entries, message):
        path = tmp_path / "snap.npz"
        det = make_detector(n=3)
        det.tss_spans, det.fire_count = [(0, 0), (200, 201)], 3
        det.step = 300
        det.save_snapshot(path)
        data = dict(np.load(path))
        data.update({k: np.asarray(v) for k, v in entries.items()})
        np.savez(path, **data)
        with pytest.raises(ValueError) as exc:
            Detector.load_snapshot(path)
        assert str(exc.value) == f"bad snapshot {path}: {message}"

    def test_snapshot_keeps_values_that_stepping_reaches(self, tmp_path):
        """An extreme config overflows a resource to inf, and its weight is then NaN."""
        path = tmp_path / "snap.npz"
        det = make_detector(n=3)
        det.resources = [np.inf, -np.inf, 0.0]
        det.stability, det.total_abs_dw = -np.inf, np.nan
        det.save_snapshot(path)
        again = Detector.load_snapshot(path)
        assert again.resources == det.resources
        assert again.stability == -np.inf and np.isnan(again.total_abs_dw)
        assert np.isnan(again.weights[0]) and again.weights[1] == det.cfg.w_min

    def test_snapshot_keeps_tss_history_and_config(self, tmp_path):
        cfg = PlasticityConfig(d_bar=0.27, w_min=-0.07, w_max=1.2, d_s=0.5, T_P=40)
        a = make_detector(n=6, weight=0.27, cfg=cfg)
        self.random_run(a, 11)
        assert len(a.tss_spans) > 0
        path = tmp_path / "snap.npz"
        a.save_snapshot(path)
        b = Detector.load_snapshot(path)
        assert b.cfg == a.cfg
        assert b.weights == a.weights
        assert (b.tss_open, b.tss_spans) == (a.tss_open, a.tss_spans)
        assert b.fire_count == a.fire_count

    def test_frozen_clone_keeps_weights_fixed(self):
        a = make_detector(n=6, weight=0.2)
        self.random_run(a, 17)
        clone = frozen_clone(a)
        assert clone.step == 0
        assert clone.frozen
        weights_before = list(clone.weights)
        self.random_run(clone, 19)
        assert clone.weights == weights_before
        assert clone.resources == a.resources

    def test_frozen_detector_still_counts_fires(self):
        det = make_detector(n=1, cfg=STRONG_CFG)
        det.resources = [50.0]
        det.weights = [weight_of(50.0, STRONG_CFG)]
        det.frozen = True
        det.tick_sparse([0])
        assert det.fire_count == 1
        assert det.resources == [50.0]


def trained_state(seed=11):
    det = make_detector(n=6, weight=0.2)
    TestDeterminismAndSnapshots().random_run(det, seed)
    return det.state()


class TestDetectorState:
    def test_detector_round_trip(self):
        a = make_detector(n=6, weight=0.2)
        TestDeterminismAndSnapshots().random_run(a, 5)
        b = Detector.from_state(a.state())
        assert vars(b) == vars(a)
        assert type(b.stability) is float and type(b.step) is int
        assert type(b.resources[0]) is float and type(b.tss_spans[0][0]) is int

    def test_fields_are_read_only_copies(self):
        resources = np.full(6, 0.5)
        state = dataclasses.replace(trained_state(), resources=resources)
        resources[0] = 9.0  # the caller's array stays its own
        assert state.resources[0] == 0.5
        with pytest.raises(ValueError, match="read-only"):
            state.resources[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.step = 3
        assert type(state.stability) is np.float64 and type(state.frozen) is np.bool_

    @pytest.mark.parametrize("changes, message", [
        ({"depressed": []}, "depressed is float64, not int64"),  # not cast
        ({"step": 2.0}, "step is float64, not int64"),
        ({"resources": np.zeros(0)}, "need at least one synapse"),
        ({"tss_spans": np.zeros((1, 3), np.int64)}, "tss_spans has shape (1, 3), not (k, 2)"),
        ({"frozen": [True]}, "frozen has shape (1,), not ()"),
    ])
    def test_a_state_is_checked_when_made(self, changes, message):
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(trained_state(), **changes)
        assert str(exc.value) == message

    def test_an_unreachable_state_is_not_written(self, tmp_path):
        det = make_detector(n=3)
        det.fire_count = -1
        with pytest.raises(ValueError, match="fire_count -1 < 0 TSS spans"):
            det.save_snapshot(tmp_path / "snap.npz")
        assert not (tmp_path / "snap.npz").exists()

    def test_a_number_stepping_does_not_hold_is_refused(self):
        det = make_detector(n=3)
        det.stability = 1  # an int: a snapshot would hold an int64 entry
        with pytest.raises(ValueError, match="stability is int64, not float64"):
            det.state()


class TestAdvanceTo:
    def test_equivalent_to_empty_ticks(self):
        a = make_detector(n=3, weight=0.3)
        b = make_detector(n=3, weight=0.3)
        script = [(0, [0, 1, 2], False), (40, [0, 1, 2], False),
                  (180, [1], False), (260, [0, 1, 2], True), (500, [], True)]
        for t, active, dop in script:
            a.advance_to(t)
            a.tick_sparse(active, dop)
        last = 0
        for t, active, dop in script:
            while last < t:
                b.tick_sparse([], False)
                last += 1
            b.tick_sparse(active, dop)
            last = t + 1
        assert a.resources == b.resources
        assert a.stability == b.stability
        assert (a.tss_open, a.tss_spans) == (b.tss_open, b.tss_spans)

    def test_cannot_rewind(self):
        det = make_detector()
        det.advance_to(10)
        with pytest.raises(ValueError):
            det.advance_to(5)


def test_rejects_zero_synapses():
    with pytest.raises(ValueError):
        Detector(0, CFG)
