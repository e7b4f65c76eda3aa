"""Brute-force reference implementations used only by tests.

Because proficiency is absorbing, a length-T hidden path is determined by
the step at which the learner becomes proficient: before step k for
k = 1..T, or never. That leaves exactly T+1 paths, so exact likelihoods,
posteriors, and the EM surrogate objective are cheap sums over paths.
Everything here is computed with plain Python arithmetic, one factor at a
time, independent of the E-step kernels it is used to check, and is never
called inside a fitting loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import ParamSet
from .data import AttemptSequence, Dataset, as_dataset, as_sequence
from .estep import Posteriors

__all__ = [
    "MAX_ENUMERATION_LENGTH",
    "SequenceTooLongError",
    "PathEnumeration",
    "monotone_paths",
    "enumerate_paths",
    "enumerate_likelihood",
    "enumerate_posteriors",
    "enumerate_em_objective",
]

# Enumeration is linear in T, but long sequences signal misuse of a
# test-only helper.
MAX_ENUMERATION_LENGTH = 20


class SequenceTooLongError(ValueError):
    """The sequence exceeds the enumeration guard length."""


@dataclass(frozen=True)
class PathEnumeration:
    """All monotone hidden paths with their joint weights P(y, path)."""

    paths: tuple[tuple[bool, ...], ...]
    weights: tuple[float, ...]

    @property
    def likelihood(self) -> float:
        return math.fsum(self.weights)


def _checked(seq: AttemptSequence | Iterable[object]) -> AttemptSequence:
    seq = as_sequence(seq)
    if len(seq) > MAX_ENUMERATION_LENGTH:
        raise SequenceTooLongError(
            f"enumeration supports length <= {MAX_ENUMERATION_LENGTH}, got {len(seq)}"
        )
    return seq


def monotone_paths(length: int) -> tuple[tuple[bool, ...], ...]:
    """The length+1 admissible hidden paths: switch before step k, or never."""

    if length < 1:
        raise ValueError("length must be at least 1")
    paths = [tuple(step >= k for step in range(1, length + 1)) for k in range(1, length + 2)]
    return tuple(paths)


def _path_factors(theta: ParamSet, states: tuple[bool, ...], attempts: bytes):
    """Yield every probability factor of the joint P(y, path)."""

    yield theta.l0 if states[0] else 1.0 - theta.l0
    for before, after in zip(states, states[1:]):
        if before:
            yield 1.0  # absorbing state
        else:
            yield theta.r if after else 1.0 - theta.r
    for state, correct in zip(states, attempts):
        if state:
            yield 1.0 - theta.s if correct else theta.s
        else:
            yield theta.g if correct else 1.0 - theta.g


def _path_weight(theta: ParamSet, states: tuple[bool, ...], attempts: bytes) -> float:
    return math.prod(_path_factors(theta, states, attempts))


def _path_log_weight(
    theta: ParamSet, states: tuple[bool, ...], attempts: bytes
) -> float:
    return math.fsum(math.log(f) for f in _path_factors(theta, states, attempts))


def enumerate_paths(theta: ParamSet, seq: AttemptSequence) -> PathEnumeration:
    """Joint weight of every monotone hidden path for one sequence."""

    seq = _checked(seq)
    attempts = seq.attempts
    paths = monotone_paths(len(seq))
    weights = tuple(_path_weight(theta, states, attempts) for states in paths)
    return PathEnumeration(paths=paths, weights=weights)


def enumerate_likelihood(theta: ParamSet, seq: AttemptSequence) -> float:
    """Exact P(y | theta) as a sum of path weights."""

    return enumerate_paths(theta, seq).likelihood


def enumerate_posteriors(theta: ParamSet, seq: AttemptSequence) -> Posteriors:
    """Exact state and transition posteriors by summing normalized weights."""

    enum = enumerate_paths(theta, _checked(seq))
    total = enum.likelihood
    length = len(enum.paths[0])
    gamma = np.empty((length, 2))
    for t in range(length):
        mass = math.fsum(w for states, w in zip(enum.paths, enum.weights) if states[t])
        gamma[t, 1] = mass / total
        gamma[t, 0] = math.fsum(
            w for states, w in zip(enum.paths, enum.weights) if not states[t]
        ) / total
    xi = np.zeros((length - 1, 2, 2))
    for t in range(length - 1):
        for i in (0, 1):
            for j in (0, 1):
                mass = math.fsum(
                    w
                    for states, w in zip(enum.paths, enum.weights)
                    if states[t] == bool(i) and states[t + 1] == bool(j)
                )
                xi[t, i, j] = mass / total
    return Posteriors(gamma=gamma, xi=xi)


def enumerate_em_objective(
    theta: ParamSet, theta_ref: ParamSet, dataset: Dataset | Iterable[AttemptSequence]
) -> float:
    """EM surrogate objective: expected log joint under the reference posterior.

    For each learner, sums log P(y, path | theta) weighted by
    P(path | y, theta_ref) over the monotone paths. Paths with zero
    posterior weight are skipped so the sum stays finite.
    """

    total_terms: list[float] = []
    for seq in as_dataset(dataset):
        seq = _checked(seq)
        paths = monotone_paths(len(seq))
        ref_logs = [_path_log_weight(theta_ref, states, seq.attempts) for states in paths]
        peak = max(ref_logs)
        raw = [math.exp(lw - peak) for lw in ref_logs]
        norm = math.fsum(raw)
        for states, mass in zip(paths, raw):
            if mass == 0.0:
                continue
            total_terms.append(
                (mass / norm) * _path_log_weight(theta, states, seq.attempts)
            )
    return math.fsum(total_terms)
