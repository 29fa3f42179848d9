"""Ground-truth causal record generator."""

import hashlib

import numpy as np
import pytest

from causalneuron import synthetic
from causalneuron.synthetic import CAUSE_CHANNELS, MAX_GAP, MIN_GAP, SyntheticConfig, generate


class TestGeneration:
    def test_rewards_exactly_lag_after_causes(self):
        cfg = SyntheticConfig()
        rec = generate(cfg, 0)
        causes = set(CAUSE_CHANNELS)
        cause_steps = [t for t, chans in rec.frames() if causes <= set(chans)]
        assert [t + cfg.lag for t in cause_steps] == rec.reward_steps.tolist()

    def test_causes_fire_together_and_only_together(self):
        cfg = SyntheticConfig()
        rec = generate(cfg, 1)
        causes = set(CAUSE_CHANNELS)
        for t, chans in rec.frames():
            present = causes & set(chans)
            assert present in (set(), causes)

    def test_gap_bounds_respected(self):
        cfg = SyntheticConfig()
        rec = generate(cfg, 2)
        rewards = rec.reward_steps.tolist()
        gaps = np.diff([r - cfg.lag for r in rewards])
        assert gaps.min() >= MIN_GAP
        assert gaps.max() <= MAX_GAP

    def test_noise_rate_realized(self):
        cfg = SyntheticConfig(noise_rate=0.004)
        rec = generate(cfg, 3)
        causes = set(CAUSE_CHANNELS)
        noise_spikes = sum(
            sum(1 for c in chans if c not in causes) for _, chans in rec.frames()
        )
        n_noise_channels = cfg.n_channels - len(causes)
        expected = cfg.noise_rate * n_noise_channels * cfg.n_steps
        assert abs(noise_spikes - expected) < 0.1 * expected

    def test_deterministic(self):
        cfg = SyntheticConfig()
        assert generate(cfg, 9) == generate(cfg, 9)
        assert generate(cfg, 9) != generate(cfg, 10)


# sha256 of generate(SyntheticConfig(n_steps=n), 0).to_bytes(), from the dense
# one-draw-per-channel generator; 131,073 steps is two 65,536-step noise
# blocks and one step
SYNTHETIC_PINS = {
    20_000: "0ed0afba2d6fb1900dbbb6c32a6c6321d2615b13928df0a74df2af3606a12756",
    131_073: "9676c0f780b8e1770600010f0ad8d9351cd65aca6e653ac2552ab7ec341fb076",
}


@pytest.mark.parametrize("n_steps", sorted(SYNTHETIC_PINS))
def test_record_bytes_pinned(n_steps):
    data = generate(SyntheticConfig(n_steps=n_steps), 0).to_bytes()
    assert hashlib.sha256(data).hexdigest() == SYNTHETIC_PINS[n_steps]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_channels=13), "n_channels must be > 13, the last cause channel, got 13"),
            (dict(n_channels=-1), "n_channels must be > 13, the last cause channel, got -1"),
            (dict(lag=0), "lag must be in [1, 300), below the least gap between causes, got 0"),
            # a reward at or after the next cause activation
            (dict(lag=300),
             "lag must be in [1, 300), below the least gap between causes, got 300"),
            (dict(noise_rate=1.0), "noise_rate must be in [0, 1)"),
            (dict(noise_rate=-0.1), "noise_rate must be in [0, 1)"),
            (dict(n_steps=0), "n_steps must be >= 1"),
        ],
    )
    def test_rejects_bad_config(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            SyntheticConfig(**kwargs)
        assert str(info.value) == message

    def test_accepts_the_edges(self):
        assert generate(SyntheticConfig(n_channels=14, lag=1, noise_rate=0.0, n_steps=1),
                        0).n_steps == 1
        rec = generate(SyntheticConfig(n_channels=14, lag=MIN_GAP - 1, n_steps=20_000), 0)
        cause_steps = [t for t, chans in rec.frames() if set(CAUSE_CHANNELS) <= set(chans)]
        # each reward comes before the next cause activation
        assert [t + MIN_GAP - 1 for t in cause_steps] == rec.reward_steps.tolist()
        assert all(r < t for r, t in zip(rec.reward_steps.tolist(), cause_steps[1:]))

    @pytest.mark.parametrize("field, value", [("n_steps", 2**64), ("seed", 2**64),
                                              ("n_channels", 65536)])
    def test_rejects_what_the_record_header_cannot_hold(self, field, value, monkeypatch):
        # before generate draws n_channels x n_steps uniforms: a draw would call None
        monkeypatch.setattr(synthetic.np.random, "default_rng", None)
        kwargs = {field: value}
        seed = kwargs.pop("seed", 0)
        cfg = SyntheticConfig(**kwargs)
        with pytest.raises(ValueError, match=f"^bad record: {field} {value} is outside "
                                             "the header's range 0 to "):
            generate(cfg, seed)
