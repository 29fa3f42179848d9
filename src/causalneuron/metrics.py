"""Prediction-accuracy metric R over target and prediction periods.

All periods are half-open integer-step intervals [start, end). The score
is R = 1 - |targets symmetric-difference predictions| / |targets|: 1 for
a perfect prediction, 0 for a silent detector, unbounded below for a
detector that fires in all the wrong places.

:class:`IntervalSet`, :func:`target_periods`, :func:`prediction_periods`
and :func:`r_metric` state the definition one interval at a time and are
the reference. :func:`score_runs`, which the genetic search calls once
per generation, computes the same integers on sorted arrays for many
runs at once; :func:`score_run`, which the CLI calls, is its one-run
case.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

import numpy as np


class IntervalSet:
    """Normalized set of disjoint, sorted half-open intervals [start, end)."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        merged: list[tuple[int, int]] = []
        for start, end in sorted(intervals):
            if end <= start:
                continue
            if merged and start <= merged[-1][1]:
                last_start, last_end = merged[-1]
                if end > last_end:
                    merged[-1] = (last_start, end)
            else:
                merged.append((start, end))
        self.intervals = tuple(merged)

    @property
    def total(self) -> int:
        return sum(end - start for start, end in self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        return f"IntervalSet({list(self.intervals)!r})"

    def __contains__(self, step: int) -> bool:
        iv = self.intervals
        k = bisect_left(iv, (step + 1,)) - 1
        return k >= 0 and iv[k][0] <= step < iv[k][1]

    def clip(self, start: int, end: int) -> "IntervalSet":
        """Intersection with the window [start, end)."""
        return IntervalSet(
            (max(s, start), min(e, end)) for s, e in self.intervals
        )

    def symmetric_difference_measure(self, other: "IntervalSet") -> int:
        """Total number of steps belonging to exactly one of the two sets."""
        bounds = sorted(
            {b for s, e in self.intervals for b in (s, e)}
            | {b for s, e in other.intervals for b in (s, e)}
        )
        measure = 0
        for lo, hi in zip(bounds, bounds[1:]):
            if (lo in self) != (lo in other):
                measure += hi - lo
        return measure


def target_periods(reward_steps: Sequence[int], T_P: int) -> IntervalSet:
    """Union of the T_P-long windows preceding each reward, clipped at 0."""
    return IntervalSet((max(r - T_P, 0), r) for r in reward_steps)


def prediction_periods(
    fire_steps: Sequence[int], reward_steps: Sequence[int], T_P: int
) -> IntervalSet:
    """Windows opened by detector spikes.

    Each firing at T* opens [T*, T* + T_P), truncated at the first
    reward at or after T* (a prediction is fulfilled by the event it
    predicts).
    """
    rewards = sorted(reward_steps)
    out = []
    for f in fire_steps:
        end = f + T_P
        k = bisect_left(rewards, f)
        if k < len(rewards):
            end = min(end, rewards[k])
        out.append((f, end))
    return IntervalSet(out)


def r_metric(targets: IntervalSet, predictions: IntervalSet) -> float:
    """R = 1 - |targets XOR predictions| / |targets|. Undefined without targets."""
    t_tar = targets.total
    if t_tar == 0:
        raise ValueError("R metric undefined: no target periods")
    t_err = targets.symmetric_difference_measure(predictions)
    return 1.0 - t_err / t_tar


def _merge(
    starts: np.ndarray, ends: np.ndarray, runs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of the intervals [starts, ends) within each run.

    The intervals must be sorted by run, then start, and their ends must
    never fall within a run, so no running maximum is needed: an
    interval joins the one before it when both are the run's and it
    starts at or before that one's end, as :class:`IntervalSet` merges.
    Empty intervals are dropped. Returns the merged starts, ends and runs.
    """
    keep = ends > starts
    starts, ends, runs = starts[keep], ends[keep], runs[keep]
    first = np.ones(len(starts), dtype=bool)
    first[1:] = (starts[1:] > ends[:-1]) | (runs[1:] != runs[:-1])
    # a group's last interval comes just before the next group's first;
    # np.roll wraps the last one round to first[0], which is True
    return starts[first], ends[np.roll(first, -1)], runs[first]


def score_runs(
    fire_steps: Sequence[int],
    runs: Sequence[int],
    n_runs: int,
    reward_steps: Sequence[int],
    T_P: int,
    window: tuple[int, int] | None = None,
) -> list[float]:
    """R for each of ``n_runs`` runs, given every run's fires at once.

    ``runs[i]`` is the run (0 to n_runs - 1) that fired at
    ``fire_steps[i]``. Each run's R is :func:`score_run` of its own
    fires, computed in one array pass: the targets are built once, and
    each run's prediction periods are merged apart from the others'.
    With a window, firings and rewards are filtered to it and the
    periods are clipped to it, so activity outside the window can
    neither help nor hurt. Fires and rewards may be unsorted and
    repeated.

    Equal to ``r_metric(target_periods(...), prediction_periods(...))``
    (clipped to the window) run by run, computed on int64 arrays: a
    run's error is |T| + |P| - 2|T & P|, where |T & P| is read off the
    targets' cumulative lengths, so R is the same quotient of the same
    integers.
    """
    fires = np.asarray(fire_steps, dtype=np.int64)
    runs = np.asarray(runs, dtype=np.int64)
    rewards = np.sort(np.asarray(reward_steps, dtype=np.int64))
    floor = 0
    if window is not None:
        lo, hi = window
        keep = (fires >= lo) & (fires < hi)
        fires, runs = fires[keep], runs[keep]
        rewards = rewards[(rewards >= lo) & (rewards < hi)]
        floor = max(lo, 0)
    t_start, t_end, _ = _merge(np.maximum(rewards - T_P, floor), rewards,
                               np.zeros(len(rewards), dtype=np.int64))
    t_tar = int((t_end - t_start).sum())
    if t_tar == 0:
        raise ValueError("R metric undefined: no target periods")

    # each prediction ends T_P after its fire, at the first reward at or
    # after the fire, or at the window's end, whichever comes first; in
    # fire order within a run, those ends never fall
    order = np.lexsort((fires, runs))
    fires, runs = fires[order], runs[order]
    ends = fires + T_P
    k = np.searchsorted(rewards, fires)
    ahead = k < len(rewards)
    ends[ahead] = np.minimum(ends[ahead], rewards[k[ahead]])
    if window is not None:
        ends = np.minimum(ends, hi)
    p_start, p_end, p_run = _merge(fires, ends, runs)

    # covered(x): the target steps before x
    cum = np.append(0, np.cumsum(t_end - t_start))

    def covered(x: np.ndarray) -> np.ndarray:
        j = np.searchsorted(t_start, x, side="right")
        past = np.where(j > 0, t_end[j - 1] - x, 0)
        return cum[j] - np.maximum(past, 0)

    # each run's |P| - 2|T & P|, summed exactly in int64
    own = (p_end - p_start) - 2 * (covered(p_end) - covered(p_start))
    acc = np.append(0, np.cumsum(own))
    bounds = np.searchsorted(p_run, np.arange(n_runs + 1))
    t_err = t_tar + acc[bounds[1:]] - acc[bounds[:-1]]
    return (1.0 - t_err / t_tar).tolist()


def score_run(
    fire_steps: Sequence[int],
    reward_steps: Sequence[int],
    T_P: int,
    window: tuple[int, int] | None = None,
) -> float:
    """R for a recorded run, optionally restricted to a step window.

    The one-run case of :func:`score_runs`.
    """
    fires = np.asarray(fire_steps, dtype=np.int64)
    return score_runs(fires, np.zeros(len(fires), dtype=np.int64), 1,
                      reward_steps, T_P, window)[0]
