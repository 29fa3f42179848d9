#!/usr/bin/env python3
"""Recompute the equal-probability velocity bin boundaries.

Walks the pong environment with the chaotic racket for the given number
of steps, in the recorder's free-flight blocks (``pong.trajectory``),
collects the per-step ball velocity components and prints their
1/9 ... 8/9 quantiles as the ``VX_BOUNDS`` and ``VY_BOUNDS`` lines of
``src/causalneuron/encoder.py``, ready to paste.

The constants in the encoder were printed by:
    python3 scripts/calibrate_velocity_bins.py --seed 12345 --steps 1000000
"""

import argparse
import sys
from typing import Sequence

import numpy as np

from causalneuron import pong
from causalneuron.encoder import N_VEL_BINS

MIN_CALIBRATION_SAMPLES = 10_000  # fewest samples velocity_bins accepts


def velocity_bins(samples: Sequence[float]) -> tuple[float, ...]:
    """Eight interior boundaries splitting samples into 9 equal-mass bins."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < MIN_CALIBRATION_SAMPLES:
        raise ValueError(
            f"need at least {MIN_CALIBRATION_SAMPLES} calibration samples, got {arr.size}"
        )
    bounds = np.quantile(arr, np.arange(1, N_VEL_BINS) / N_VEL_BINS)
    if not np.all(np.diff(bounds) > 0):
        raise ValueError("degenerate calibration samples: boundaries not increasing")
    return tuple(float(b) for b in bounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--steps", type=int, default=1_000_000)
    args = ap.parse_args(argv)
    if args.steps < MIN_CALIBRATION_SAMPLES:
        ap.error(f"--steps must be at least {MIN_CALIBRATION_SAMPLES}, got {args.steps}")

    rng = np.random.default_rng(args.seed)
    policy = pong.ChaoticPolicy(np.random.default_rng(args.seed + 1))
    vx = np.empty(args.steps)
    vy = np.empty(args.steps)
    # the ball velocity holds within each block of the walk
    for start, positions, _ in pong.trajectory(pong.initial_state(rng), policy, args.steps, rng):
        steps = slice(start.step, start.step + positions.shape[1])
        vx[steps] = start.ball_vx
        vy[steps] = start.ball_vy

    try:
        x_bounds, y_bounds = velocity_bins(vx), velocity_bins(vy)
    except ValueError as exc:  # a short walk visits too few velocities
        ap.error(f"--steps {args.steps} with --seed {args.seed}: {exc}")
    print(f"VX_BOUNDS = {x_bounds!r}")
    print(f"VY_BOUNDS = {y_bounds!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
