"""Prediction-accuracy metric R over target and prediction periods.

All periods are half-open integer-step intervals [start, end). The score
is R = 1 - |targets symmetric-difference predictions| / |targets|: 1 for
a perfect prediction, 0 for a silent detector, unbounded below for a
detector that fires in all the wrong places.

:func:`score_runs`, which the genetic search calls once per generation,
computes R on sorted arrays for many runs at once; :func:`score_run`,
which the CLI calls, is its one-run case. The reference that states the
definition one interval at a time lives with the tests
(``tests/reference.py``), which check both against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _merge(
    starts: np.ndarray, ends: np.ndarray, runs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of the intervals [starts, ends) within each run.

    The intervals must be sorted by run, then start, and their ends must
    never fall within a run, so no running maximum is needed: an
    interval joins the one before it when both are the run's and it
    starts at or before that one's end, so touching intervals merge.
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
    fire_trains: Sequence[Sequence[int]],
    reward_steps: Sequence[int],
    T_P: int,
    window: tuple[int, int],
) -> list[float]:
    """R for each run, given one train of fire steps per run.

    Each run's R is :func:`score_run` of its own train, computed for all
    runs in one array pass: the targets are built once, and each run's
    prediction periods are merged apart from the others'.
    Firings and rewards are filtered to the [start, end) step window and
    the periods are clipped to it, so activity outside the window can
    neither help nor hurt. Fires and rewards may be unsorted and
    repeated.

    Equal to the interval-at-a-time reference in ``tests/reference.py``
    (clipped to the window) run by run, computed on int64 arrays: a
    run's error is |T| + |P| - 2|T & P|, where |T & P| is read off the
    targets' cumulative lengths, so R is the same quotient of the same
    integers.
    """
    trains = [np.asarray(train, dtype=np.int64) for train in fire_trains]
    fires = np.concatenate([np.zeros(0, np.int64), *trains])
    runs = np.repeat(np.arange(len(trains)), [len(train) for train in trains])
    rewards = np.sort(np.asarray(reward_steps, dtype=np.int64))
    lo, hi = window
    keep = (fires >= lo) & (fires < hi)
    fires, runs = fires[keep], runs[keep]
    rewards = rewards[(rewards >= lo) & (rewards < hi)]
    t_start, t_end, _ = _merge(np.maximum(rewards - T_P, max(lo, 0)), rewards,
                               np.zeros(len(rewards), dtype=np.int64))
    t_tar = int((t_end - t_start).sum())
    if t_tar == 0:
        raise ValueError("R metric undefined: no target periods")

    # each prediction ends T_P after its fire, at the first reward at or
    # after the fire, or at the window's end, whichever comes first; in
    # fire order within a run, those ends never fall
    order = np.lexsort((fires, runs))
    fires, runs = fires[order], runs[order]
    ends = np.minimum(fires + T_P, hi)
    k = np.searchsorted(rewards, fires)
    ahead = k < len(rewards)
    ends[ahead] = np.minimum(ends[ahead], rewards[k[ahead]])
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
    bounds = np.searchsorted(p_run, np.arange(len(trains) + 1))
    t_err = t_tar + acc[bounds[1:]] - acc[bounds[:-1]]
    return (1.0 - t_err / t_tar).tolist()


def score_run(
    fire_steps: Sequence[int],
    reward_steps: Sequence[int],
    T_P: int,
    window: tuple[int, int],
) -> float:
    """R for a recorded run over a [start, end) step window.

    The one-run case of :func:`score_runs`.
    """
    return score_runs([fire_steps], reward_steps, T_P, window)[0]
