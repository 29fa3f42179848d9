"""Resource-to-weight squash and stability-gated rate properties."""

import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from causalneuron.ga import GENE_NAMES, GENE_RANGES, Genome
from causalneuron.plasticity import (
    PlasticityConfig,
    effective_rates,
    resource_for_weight,
    weight_of,
)

CFG = PlasticityConfig()


def squash_vec(resources: np.ndarray, cfg: PlasticityConfig) -> np.ndarray:
    """Vectorized transcription of weight_of for bulk property checks."""
    w = np.maximum(resources, 0.0)
    span = cfg.w_max - cfg.w_min
    return cfg.w_min + span * w / (span + w)


class TestWeightSquash:
    def test_vectorized_transcription_agrees(self):
        rng = np.random.default_rng(0)
        resources = np.concatenate(
            [rng.uniform(-10, 10, 5000), rng.uniform(-1e6, 1e6, 5000)]
        )
        expected = squash_vec(resources, CFG)
        for r, e in zip(resources, expected):
            assert weight_of(float(r), CFG) == e

    def test_bulk_range_monotonicity_clamp(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        resources = rng.uniform(-10.0, 1e6, 1_000_000)
        w = squash_vec(resources, CFG)
        assert np.all(w >= CFG.w_min)
        assert np.all(w < CFG.w_max)
        order = np.argsort(resources)
        # tolerance absorbs last-ulp rounding between near-equal inputs
        assert np.all(np.diff(w[order]) >= -1e-12)
        # every non-positive resource collapses to exactly w_min
        assert np.all(w[resources <= 0.0] == CFG.w_min)
        assert time.perf_counter() - start < 1.0

    def test_strictly_increasing_on_positive_resources(self):
        values = [weight_of(r, CFG) for r in (0.0, 0.01, 0.5, 3.0, 100.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        targets = rng.uniform(CFG.w_min, CFG.w_max - 1e-6, 1000)
        for t in targets:
            assert abs(weight_of(resource_for_weight(float(t), CFG), CFG) - t) < 1e-9

    def test_zero_weight_is_positive_resource(self):
        r0 = resource_for_weight(0.0, CFG)
        assert r0 > 0.0
        assert weight_of(r0, CFG) == pytest.approx(0.0, abs=1e-15)

    def test_w_min_maps_to_zero_resource(self):
        assert resource_for_weight(CFG.w_min, CFG) == 0.0

    def test_resource_for_weight_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            resource_for_weight(CFG.w_max, CFG)
        with pytest.raises(ValueError):
            resource_for_weight(CFG.w_min - 1e-9, CFG)

    @given(st.floats(min_value=-1e3, max_value=1e9, allow_nan=False))
    def test_weight_always_in_range(self, resource):
        w = weight_of(resource, CFG)
        assert CFG.w_min <= w < CFG.w_max


class TestEffectiveRates:
    def test_equal_rates_always(self):
        for s in (-50.0, -1.0, 0.0, 0.3, 2.0, 700.0):
            d_h, d_d = effective_rates(s, CFG)
            assert d_h == d_d

    def test_clamp_for_non_positive_stability(self):
        base = effective_rates(0.0, CFG)
        for s in (-1e-12, -1.0, -3.0, -1e6):
            assert effective_rates(s, CFG) == base

    def test_exact_halving(self):
        for s in range(0, 40):
            d_now = effective_rates(float(s), CFG)[0]
            d_next = effective_rates(float(s + 1), CFG)[0]
            assert d_next == d_now / 2.0

    def test_paper_examples(self):
        assert effective_rates(0.0, CFG) == (0.056, 0.056)
        assert effective_rates(-3.0, CFG) == (0.056, 0.056)
        d_h, d_d = effective_rates(2.0, CFG)
        assert d_h == pytest.approx(0.014)
        assert d_d == pytest.approx(0.014)

    def test_huge_stability_does_not_overflow(self):
        d_h, d_d = effective_rates(1e6, CFG)
        assert d_h == 0.0 and d_d == 0.0
        d_h, d_d = effective_rates(-1e6, CFG)
        assert d_h == CFG.d_bar

    @given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    def test_monotone_decreasing_in_stability(self, s):
        assert effective_rates(s + 1.0, CFG)[0] <= effective_rates(s, CFG)[0]


# weight 0 needs an infinite resource, the span overflows, and the weight of a
# finite starting resource overflows to +inf
NON_FINITE_START = [(-1.0, 5e-324), (-1e308, 1e308), (-1.3e154, 1.0)]


class TestConfigValidation:
    def test_defaults_are_the_paper_values(self):
        assert PlasticityConfig() == PlasticityConfig(
            d_bar=0.056, w_min=-0.017, w_max=0.48, d_s=0.23, T_P=100, H=1.0)

    def test_aliases(self):
        assert CFG.d_H_bar == CFG.d_bar
        assert CFG.d_D_bar == CFG.d_bar
        assert CFG.isi_max == CFG.T_P

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d_bar=0.1, w_min=0.1, w_max=0.5, d_s=0.1),   # w_min not negative
            dict(d_bar=0.1, w_min=-0.1, w_max=-0.5, d_s=0.1), # w_max not positive
            dict(d_bar=0.0, w_min=-0.1, w_max=0.5, d_s=0.1),  # zero step
            dict(d_bar=0.1, w_min=-0.1, w_max=0.5, d_s=0.0),  # zero d_s
            dict(d_bar=0.1, w_min=-0.1, w_max=0.5, d_s=0.1, T_P=0),
        ],
    )
    def test_rejects_bad_constants(self, kwargs):
        with pytest.raises(ValueError):
            PlasticityConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["d_bar", "w_min", "w_max", "d_s", "H"])
    def test_rejects_non_finite_constants(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PlasticityConfig(**{field: value})

    @pytest.mark.parametrize("w_min, w_max", NON_FINITE_START)
    def test_a_non_finite_starting_weight_is_refused(self, w_min, w_max):
        message = f"w_min {w_min} and w_max {w_max} give a non-finite starting weight "
        with pytest.raises(ValueError, match=f"^{re.escape(message)}(nan|inf)$"):
            PlasticityConfig(w_min=w_min, w_max=w_max)

    def test_paper_and_gene_range_corners_start_at_a_finite_weight(self):
        cfgs = [CFG] + [Genome(**dict(zip(GENE_NAMES, corner))).to_config()
                        for corner in itertools.product(*GENE_RANGES.values())]
        for cfg in cfgs:
            assert math.isfinite(weight_of(resource_for_weight(0.0, cfg), cfg))

