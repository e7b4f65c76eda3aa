"""Seeded sampling from the generative mastery process.

Each learner gets an independent PCG64 substream derived from
``SeedSequence((seed, learner_index))``, so datasets are reproducible and
independent of how generation is scheduled. Per learner the draws are laid
out as one initial-state uniform, then one uniform per attempt, then one
uniform per between-attempt transition, so the stream layout does not depend
on the sampled path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import ParamSet
from .data import AttemptSequence, Dataset, HiddenPath

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


def _generator(seed: Seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def simulate_learner(
    theta: ParamSet, length: int, seed: Seed
) -> tuple[HiddenPath, AttemptSequence]:
    """Sample one learner's hidden path and observed answers."""

    if length < 1:
        raise ValueError("length must be at least 1")
    u = _generator(seed).random(2 * length)
    states: list[bool] = []
    attempts: list[bool] = []
    proficient = bool(u[0] < theta.l0)
    for t in range(length):
        states.append(proficient)
        p_correct = 1.0 - theta.s if proficient else theta.g
        attempts.append(bool(u[1 + t] < p_correct))
        if t < length - 1 and not proficient:
            proficient = bool(u[1 + length + t] < theta.r)
    return HiddenPath(tuple(states)), AttemptSequence(tuple(attempts))


def simulate_dataset_with_paths(
    theta: ParamSet, learners: int, length: int, seed: Seed
) -> tuple[Dataset, tuple[HiddenPath, ...]]:
    """Sample a dataset and keep the generating hidden paths for inspection."""

    if learners < 1:
        raise ValueError("learners must be at least 1")
    base = tuple(seed) if isinstance(seed, Sequence) else (seed,)
    drawn = [simulate_learner(theta, length, base + (index,)) for index in range(learners)]
    return Dataset(tuple(seq for _, seq in drawn)), tuple(path for path, _ in drawn)


def simulate_dataset(theta: ParamSet, learners: int, length: int, seed: Seed) -> Dataset:
    """Sample a dataset of independent learners."""

    dataset, _ = simulate_dataset_with_paths(theta, learners, length, seed)
    return dataset
