"""Scaled forward/backward recursions, posteriors, and sufficient statistics.

The hidden chain has two states (0 = non-proficient, 1 = proficient) with

    transition = [[1-r, r], [0, 1]]
    emission   = [[1-g, g], [s, 1-s]]     rows by state, columns by answer
    initial    = [1-l0, l0]

Raw forward/backward products underflow around length 300, so the forward
variables are renormalized at every step and the backward recursion reuses
the same scale factors; the log-likelihood is the sum of log scale factors.
With that convention ``alpha[t] * beta[t]`` recombines to the per-step state
posterior up to one final normalization.

The M-step objective (the expected complete-data log-likelihood under the
conditional state posterior) is separable: for each parameter p there is a
pair of expected counts (a, b) with derivative a/p - b/(1-p). sufficient_
stats collects those pairs:

    prior   a = sum_d gamma_1(1)            b = sum_d gamma_0(1)
    guess   a = sum correct, non-proficient b = sum incorrect, non-proficient
    slip    a = sum incorrect, proficient   b = sum correct, proficient
    transit a = sum xi_01                   b = sum xi_00

Learner posteriors are conditional (normalized per learner), which rescales
the joint-weighted objective by a constant and leaves its maximizers
unchanged. Accumulation order is fixed (ascending learner, ascending step)
so results are bitwise reproducible regardless of scheduling.

Answers arrive already encoded: a Dataset holds one (learner indices, uint8
answer matrix) pair per sequence length, built once, and each E-step runs
the batched recursions over those pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import ParamSet
from .data import AttemptSequence, Dataset, as_dataset

__all__ = [
    "ForwardBackward",
    "Posteriors",
    "SufficientStats",
    "build_hmm_matrices",
    "forward_backward",
    "posteriors",
    "sufficient_stats",
    "log_likelihood",
]


@dataclass(frozen=True)
class ForwardBackward:
    """Per-step scaled forward/backward variables for one sequence."""

    scaled_alpha: np.ndarray  # (T, 2), rows sum to 1
    scaled_beta: np.ndarray  # (T, 2)
    scale_factors: np.ndarray  # (T,), positive
    log_likelihood: float


@dataclass(frozen=True)
class Posteriors:
    """State and transition posteriors for one sequence.

    gamma[t, i] is the chance of state i at step t given all answers;
    xi[t, i, j] the chance of moving i -> j between steps t and t+1.
    xi[:, 1, 0] is structurally zero because proficiency is absorbing.
    """

    gamma: np.ndarray  # (T, 2)
    xi: np.ndarray  # (T-1, 2, 2)


@dataclass(frozen=True)
class SufficientStats:
    """Expected counts that fully determine the M-step objective.

    Each field is an (a, b) pair for one parameter, in the shared layout
    where the objective's derivative with respect to that parameter is
    a/p - b/(1-p). log_likelihood is the observed-data log-likelihood of
    the whole dataset at the parameters the posteriors were computed with.
    """

    prior: tuple[float, float]
    guess: tuple[float, float]
    slip: tuple[float, float]
    transit: tuple[float, float]
    learner_count: int
    log_likelihood: float

    def pairs(self) -> np.ndarray:
        """All four (a, b) pairs as a (4, 2) array in (l0, g, s, r) order."""

        return np.array([self.prior, self.guess, self.slip, self.transit])


def build_hmm_matrices(theta: ParamSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transition and emission matrices plus the initial distribution."""

    transition = np.array([[1.0 - theta.r, theta.r], [0.0, 1.0]])
    emission = np.array([[1.0 - theta.g, theta.g], [theta.s, 1.0 - theta.s]])
    initial = np.array([1.0 - theta.l0, theta.l0])
    return transition, emission, initial


def _emission_probs(emission: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Per-step emission probabilities, shape (n, T, 2): [..., i] = P(y | state i)."""

    return emission[:, obs].transpose(1, 2, 0)


def _forward_backward_batch(
    theta: ParamSet, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled recursions for a batch of equal-length sequences.

    Returns (alpha, beta, scale, loglik, emis) with shapes (n, T, 2),
    (n, T, 2), (n, T), (n,), (n, T, 2).
    """

    transition, emission, initial = build_hmm_matrices(theta)
    n, length = obs.shape
    emis = _emission_probs(emission, obs)
    alpha = np.empty((n, length, 2))
    scale = np.empty((n, length))

    raw = initial[None, :] * emis[:, 0, :]
    scale[:, 0] = raw.sum(axis=1)
    alpha[:, 0, :] = raw / scale[:, 0, None]
    for t in range(1, length):
        raw = emis[:, t, :] * (alpha[:, t - 1, :] @ transition)
        scale[:, t] = raw.sum(axis=1)
        alpha[:, t, :] = raw / scale[:, t, None]

    beta = np.empty((n, length, 2))
    beta[:, length - 1, :] = 1.0
    for t in range(length - 2, -1, -1):
        weighted = emis[:, t + 1, :] * beta[:, t + 1, :]
        beta[:, t, :] = (weighted @ transition.T) / scale[:, t + 1, None]

    loglik = np.log(scale).sum(axis=1)
    return alpha, beta, scale, loglik, emis


def _posterior_batch(
    theta: ParamSet, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized gamma, xi, and per-sequence log-likelihoods for a batch."""

    transition, _, _ = build_hmm_matrices(theta)
    alpha, beta, _, loglik, emis = _forward_backward_batch(theta, obs)
    gamma = alpha * beta
    gamma /= gamma.sum(axis=2, keepdims=True)
    future = emis[:, 1:, :] * beta[:, 1:, :]
    xi = alpha[:, :-1, :, None] * transition[None, None, :, :] * future[:, :, None, :]
    xi /= xi.sum(axis=(2, 3), keepdims=True)
    return gamma, xi, loglik


def _single_answers(seq: AttemptSequence) -> np.ndarray:
    """The (1, T) answer matrix of one sequence, from the dataset encoding."""

    ((_, obs),) = Dataset((seq,))._length_groups
    return obs


def forward_backward(theta: ParamSet, seq: AttemptSequence) -> ForwardBackward:
    """Scaled forward/backward pass over one sequence."""

    alpha, beta, scale, loglik, _ = _forward_backward_batch(theta, _single_answers(seq))
    return ForwardBackward(
        scaled_alpha=alpha[0],
        scaled_beta=beta[0],
        scale_factors=scale[0],
        log_likelihood=float(loglik[0]),
    )


def posteriors(theta: ParamSet, seq: AttemptSequence) -> Posteriors:
    """State and transition posteriors for one sequence."""

    gamma, xi, _ = _posterior_batch(theta, _single_answers(seq))
    return Posteriors(gamma=gamma[0], xi=xi[0])


def sufficient_stats(
    theta: ParamSet, dataset: Dataset | Iterable[AttemptSequence]
) -> SufficientStats:
    """Expected counts for every parameter plus the dataset log-likelihood."""

    data = as_dataset(dataset)
    count = len(data)
    # Columns: prior a/b, guess a/b, slip a/b, transit a/b, log-likelihood.
    per_learner = np.zeros((count, 9))
    for indices, obs in data._length_groups:
        gamma, xi, loglik = _posterior_batch(theta, obs)
        g0 = gamma[:, :, 0]
        g1 = gamma[:, :, 1]
        block = np.empty((len(indices), 9))
        block[:, 0] = g1[:, 0]
        block[:, 1] = g0[:, 0]
        block[:, 2] = (obs * g0).sum(axis=1)
        block[:, 3] = ((1 - obs) * g0).sum(axis=1)
        block[:, 4] = ((1 - obs) * g1).sum(axis=1)
        block[:, 5] = (obs * g1).sum(axis=1)
        block[:, 6] = xi[:, :, 0, 1].sum(axis=1)
        block[:, 7] = xi[:, :, 0, 0].sum(axis=1)
        block[:, 8] = loglik
        per_learner[indices] = block
    # Fixed reduction order: sum over learners in ascending index order.
    totals = per_learner.sum(axis=0)
    return SufficientStats(
        prior=(float(totals[0]), float(totals[1])),
        guess=(float(totals[2]), float(totals[3])),
        slip=(float(totals[4]), float(totals[5])),
        transit=(float(totals[6]), float(totals[7])),
        learner_count=count,
        log_likelihood=float(totals[8]),
    )


def log_likelihood(theta: ParamSet, dataset: Dataset | Iterable[AttemptSequence]) -> float:
    """Observed-data log-likelihood, summed over learners in fixed order."""

    return sufficient_stats(theta, dataset).log_likelihood
