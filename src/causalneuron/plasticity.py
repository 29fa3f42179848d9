"""Synaptic resource model: the resource-to-weight squash and stability-gated rates.

Plasticity is additive on an unbounded per-synapse "resource" W; the
actual weight w is a saturating rational function of W that rises from
w_min towards w_max (:func:`weight_of` says what rounding does to it). A
per-neuron "stability" scalar s attenuates both plasticity rates by
min(2^-s, 1), so a well-trained (stable) neuron stops changing its weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# The longest causal window; step arithmetic with it stays well inside int64.
T_P_MAX = 2**32
# The firing threshold (strict), no setting: h with (d_bar, w_min, w_max) fires
# where 1 does with those divided by h. An empty step's sum, 0.0, never fires.
THRESHOLD = 1.0


@dataclass(frozen=True)
class PlasticityConfig:
    """Constants of the detector neuron.

    The anti-Hebbian and dopamine maximum increments are deliberately a
    single shared value (``d_bar``): their balance is what keeps a
    correctly firing neuron's weights fixed. The defaults are the paper's
    values; ``train --dump-config`` prints them.
    """

    d_bar: float = 0.056  # max resource change per plasticity event
    w_min: float = -0.017 # weight lower bound, negative
    w_max: float = 0.48   # weight upper bound (open), positive
    d_s: float = 0.23     # stability change speed
    T_P: int = 100        # causal window length in steps; also the TSS gap bound

    def __post_init__(self) -> None:
        for name in ("d_bar", "w_min", "w_max", "d_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.w_min < 0.0 < self.w_max):
            raise ValueError(f"require w_min < 0 < w_max, got [{self.w_min}, {self.w_max}]")
        w0 = weight_of(resource_for_weight(0.0, self), self)
        if not math.isfinite(w0):
            raise ValueError(f"w_min {self.w_min} and w_max {self.w_max} give a "
                             f"non-finite starting weight {w0}")
        if self.d_bar <= 0.0:
            raise ValueError("d_bar must be positive")
        if self.d_s <= 0.0:
            raise ValueError("d_s must be positive")
        if not 1 <= self.T_P <= T_P_MAX:
            raise ValueError(f"T_P must be in [1, {T_P_MAX}], got {self.T_P}")


def weight_of(resource: float, cfg: PlasticityConfig) -> float:
    """Map a synaptic resource W to the effective weight w.

    Resources <= 0, -inf included, all give w_min. Above 0, w rises towards
    w_max and stays below it only in exact arithmetic. In floats, neighbouring
    resources can give weights a few ulps out of order; a W from about 2e14 on
    (by the config) can give w_max or pass it by a few dozen ulps; a W for which
    span * W overflows gives +inf; and W = +inf gives NaN.
    """
    w = resource if resource > 0.0 else 0.0
    span = cfg.w_max - cfg.w_min
    return cfg.w_min + span * w / (span + w)


def resource_for_weight(target_w: float, cfg: PlasticityConfig) -> float:
    """Inverse of :func:`weight_of` on [w_min, w_max).

    Needed because learning starts from *weight* zero, which is a
    positive resource (w_min is negative). Raises ``ValueError`` outside
    the attainable range; w_min itself maps back to resource 0.
    """
    if not (cfg.w_min <= target_w < cfg.w_max):
        raise ValueError(
            f"target weight {target_w} outside attainable range [{cfg.w_min}, {cfg.w_max})"
        )
    if target_w <= cfg.w_min:
        return 0.0
    span = cfg.w_max - cfg.w_min
    return span * (target_w - cfg.w_min) / (cfg.w_max - target_w)


def effective_rates(s: float, cfg: PlasticityConfig) -> float:
    """The stability-attenuated plasticity magnitude, d_bar * min(2^-s, 1).

    Full strength at s <= 0, halving per unit of positive stability. The
    anti-Hebbian and dopamine changes both use it.
    """
    factor = 2.0 ** (-s) if s > 0.0 else 1.0
    return cfg.d_bar * factor
