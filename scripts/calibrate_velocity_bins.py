#!/usr/bin/env python3
"""Regenerate the equal-probability velocity bin boundaries.

Walks the pong environment with the chaotic racket for the given number
of steps, in the recorder's free-flight blocks (``pong.trajectory``),
collects the per-step ball velocity components and writes their
1/9 ... 8/9 quantiles as the encoder's calibration artifact.

The checked-in artifact was produced with:
    python3 scripts/calibrate_velocity_bins.py --seed 12345 --steps 1000000 \
        --out src/causalneuron/data/velocity_bins.txt
"""

import argparse
import sys

import numpy as np

from causalneuron import pong
from causalneuron.encoder import (
    MIN_CALIBRATION_SAMPLES,
    EncoderLayout,
    dump_layout,
    velocity_bins,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--steps", type=int, default=1_000_000)
    ap.add_argument("--out", default="src/causalneuron/data/velocity_bins.txt")
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
        vx_bounds, vy_bounds = velocity_bins(vx), velocity_bins(vy)
    except ValueError as exc:  # a short walk visits too few velocities
        ap.error(f"--steps {args.steps} with --seed {args.seed}: {exc}")
    layout = EncoderLayout(vx_bounds=vx_bounds, vy_bounds=vy_bounds)
    command = (
        f"python3 scripts/calibrate_velocity_bins.py --seed {args.seed} "
        f"--steps {args.steps} --out {args.out}"
    )
    with open(args.out, "w") as fh:
        dump_layout(layout, fh, command=command)
    print(f"wrote {args.out}")
    print("vx_bounds:", layout.vx_bounds)
    print("vy_bounds:", layout.vy_bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
