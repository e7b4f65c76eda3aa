"""Seeded sampling from the generative mastery process.

Each learner gets an independent PCG64 substream derived from
``SeedSequence((seed, learner_index))``, so datasets are reproducible and
independent of how generation is scheduled. Per learner the draws are laid
out as one initial-state uniform, then one uniform per attempt, then one
uniform per between-attempt transition, so the stream layout does not depend
on the sampled path.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import ParamSet, _generator, _require_int
from .data import AttemptSequence, Dataset, HiddenPath, _runs

__all__ = [
    "simulate_learner",
    "simulate_dataset",
    "simulate_dataset_with_paths",
    "DEFAULT_LEARNERS",
    "DEFAULT_STEPS",
]

# Desk-scale experiment defaults; small enough that degenerate unconstrained
# fits actually occur.
DEFAULT_LEARNERS = 100
DEFAULT_STEPS = 10

Seed = int | Sequence[int]

# Learners per block of uniforms: the (block, 2 * length) float64 draws are
# the simulator's largest temporary, so this bounds its peak memory.
_BLOCK = 16_384


def _sample(
    theta: ParamSet, seeds: Iterable[Seed], count: int, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """(count, length) boolean states and answers, one learner per seed."""

    states = np.empty((count, length), dtype=bool)
    answers = np.empty_like(states)
    seeds = iter(seeds)
    u = np.empty((min(count, _BLOCK), 2 * length))
    for lo in range(0, count, _BLOCK):
        block, drawn = u[: count - lo], states[lo : lo + _BLOCK]
        for row, seed in zip(block, seeds):
            _generator(seed).random(out=row)
        # Column 0 starts the path; column length + t decides whether a
        # learner not yet proficient becomes so before attempt t.
        np.less(block[:, 0], theta.l0, out=drawn[:, 0])
        np.less(block[:, length + 1 :], theta.r, out=drawn[:, 1:])
        np.logical_or.accumulate(drawn, axis=1, out=drawn)
        emit = np.where(drawn, 1.0 - theta.s, theta.g)
        np.less(block[:, 1 : length + 1], emit, out=answers[lo : lo + _BLOCK])
    return states, answers


def _check_shape(learners: int, length: int) -> None:
    _require_int(learners, "learners")
    _require_int(length, "length")
    if learners < 1:
        raise ValueError("learners must be at least 1")
    if length < 1:
        raise ValueError("length must be at least 1")


def simulate_learner(
    theta: ParamSet, length: int, seed: Seed
) -> tuple[HiddenPath, AttemptSequence]:
    """Sample one learner's hidden path and observed answers."""

    _check_shape(1, length)
    states, answers = _sample(theta, (seed,), 1, length)
    bounds = [0, length]
    path = next(_runs(HiddenPath, states.ravel(), bounds))
    return path, next(_runs(AttemptSequence, answers.ravel(), bounds))


def _simulate(
    theta: ParamSet, learners: int, length: int, seed: Seed
) -> tuple[Dataset, np.ndarray]:
    _check_shape(learners, length)
    base = tuple(seed) if isinstance(seed, Sequence) else (seed,)
    seeds = (base + (index,) for index in range(learners))
    states, answers = _sample(theta, seeds, learners, length)
    lengths = np.full(learners, length, dtype=np.int64)
    return Dataset._of(answers.view(np.uint8).ravel(), lengths), states.ravel()


def simulate_dataset_with_paths(
    theta: ParamSet, learners: int, length: int, seed: Seed
) -> tuple[Dataset, tuple[HiddenPath, ...]]:
    """Sample a dataset and keep the generating hidden paths for inspection."""

    dataset, states = _simulate(theta, learners, length, seed)
    return dataset, tuple(_runs(HiddenPath, states, dataset._bounds.tolist()))


def simulate_dataset(theta: ParamSet, learners: int, length: int, seed: Seed) -> Dataset:
    """Sample a dataset of independent learners."""

    dataset, _ = _simulate(theta, learners, length, seed)
    return dataset
