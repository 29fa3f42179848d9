"""Ground-truth causal record generator."""

import hashlib

import numpy as np
import pytest

from causalneuron import synthetic
from causalneuron.synthetic import SyntheticConfig, generate


class TestGeneration:
    def test_rewards_exactly_lag_after_causes(self):
        cfg = SyntheticConfig()
        rec = generate(cfg, 0)
        causes = set(cfg.cause_channels)
        cause_steps = [t for t, chans in rec.frames() if causes <= set(chans)]
        assert [t + cfg.lag for t in cause_steps] == rec.reward_steps.tolist()

    def test_causes_fire_together_and_only_together(self):
        cfg = SyntheticConfig()
        rec = generate(cfg, 1)
        causes = set(cfg.cause_channels)
        for t, chans in rec.frames():
            present = causes & set(chans)
            assert present in (set(), causes)

    def test_gap_bounds_respected(self):
        cfg = SyntheticConfig()
        rec = generate(cfg, 2)
        rewards = rec.reward_steps.tolist()
        gaps = np.diff([r - cfg.lag for r in rewards])
        assert gaps.min() >= cfg.min_gap
        assert gaps.max() <= cfg.max_gap

    def test_noise_rate_realized(self):
        cfg = SyntheticConfig(noise_rate=0.004)
        rec = generate(cfg, 3)
        causes = set(cfg.cause_channels)
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
        "kwargs",
        [
            dict(cause_channels=()),
            dict(cause_channels=(0, 25)),          # out of range for 20 channels
            dict(cause_channels=(1, 1, 2)),
            dict(lag=0),
            dict(noise_rate=1.0),
            dict(noise_rate=-0.1),
            dict(min_gap=0),
            dict(min_gap=500, max_gap=400),
            dict(min_gap=50, lag=100),             # causes denser than the lag
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticConfig(**kwargs)

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
