"""Scaled forward/backward recursions, posteriors, and sufficient statistics.

The hidden chain has two states (0 = non-proficient, 1 = proficient) with

    transition = [[1-r, r], [0, 1]]
    emission   = [[1-g, g], [s, 1-s]]     rows by state, columns by answer
    initial    = [1-l0, l0]

Raw products underflow around length 300, so alpha is renormalized at each
step and beta reuses its scale factors, whose logs sum to the log-likelihood;
alpha * beta and the xi terms then sum to 1 up to rounding. For each p the
M-step objective takes expected counts (a, b) with derivative a/p - b/(1-p):

    prior   a = sum_d gamma_1(1)            b = sum_d gamma_0(1)
    guess   a = sum correct, non-proficient b = sum incorrect, non-proficient
    slip    a = sum incorrect, proficient   b = sum correct, proficient
    transit a = sum xi_01                   b = sum xi_00

The E-step runs over a Dataset's time-major chunks: learners by descending
length, a (T, n) uint8 answer matrix padded after each learner's last
attempt, and per step the count of learners still active, a prefix of the
chunk. Proficiency is absorbing, so a forward step over that prefix is two
scalar-weighted vector updates, p0 = a0 (1-r) and p1 = a0 r + a1, times the
emissions and normalized; a backward step is its mirror image. These are
the only per-step loops: gamma, the xi_00 and xi_01 sums (xi_10 is zero,
xi_11 unread) and the log scale factors are whole-chunk reductions over
time. The loops never touch padded cells, which keep alpha 0, beta 1, scale
1 and xi factors 0, and the answer masks leave them out of the gamma sums:
each learner's last step gets beta = 1 and padding adds exactly 0 to every
count. Per-learner rows are summed in ascending learner order, so results
are bitwise reproducible for any scheduling.
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


def _recursions(theta: ParamSet, answers: np.ndarray, active: list[int]) -> tuple[np.ndarray, ...]:
    """alpha, beta (2, T, n), scale (T, n) and next0, next1 (T-1, n) of one chunk.

    Between steps t and t+1, xi_00 = alpha_0 next0, xi_01 = r alpha_0 next1
    and xi_11 = alpha_1 next1.
    """

    length, count = answers.shape
    r = theta.r
    emit0 = np.array([1.0 - theta.g, theta.g, 0.0])
    stay0 = ((1.0 - r) * emit0).take(answers)
    emit1 = np.array([theta.s, 1.0 - theta.s, 0.0]).take(answers)

    alpha = np.zeros((2, length, count))
    alpha0, alpha1 = alpha
    scale = np.ones((length, count))
    raw0 = (1.0 - theta.l0) * emit0.take(answers[0])
    raw1 = theta.l0 * emit1[0]
    scale[0] = raw0 + raw1
    alpha0[0] = raw0 / scale[0]
    alpha1[0] = raw1 / scale[0]
    for t in range(1, length):
        m = active[t]
        prev0 = alpha0[t - 1, :m]
        raw0 = prev0 * stay0[t, :m]
        raw1 = (prev0 * r + alpha1[t - 1, :m]) * emit1[t, :m]
        total = raw0 + raw1
        scale[t, :m] = total
        alpha0[t, :m] = raw0 / total
        alpha1[t, :m] = raw1 / total

    beta = np.ones((2, length, count))
    beta0, beta1 = beta
    next0 = np.zeros((length - 1, count))
    next1 = np.zeros((length - 1, count))
    for t in range(length - 2, -1, -1):
        m = active[t + 1]
        stay = stay0[t + 1, :m] * beta0[t + 1, :m]
        learn = emit1[t + 1, :m] * beta1[t + 1, :m]
        total = scale[t + 1, :m]
        beta0[t, :m] = (stay + r * learn) / total
        beta1[t, :m] = next1[t, :m] = learn / total
        next0[t, :m] = stay / total
    return alpha, beta, scale, next0, next1


def _one_learner(theta: ParamSet, seq: AttemptSequence) -> tuple[np.ndarray, ...]:
    """The recursions over the one-learner chunk of seq, learner axis dropped."""

    ((_, answers, active),) = Dataset((seq,))._chunks
    return tuple(array[..., 0] for array in _recursions(theta, answers, active.tolist()))


def forward_backward(theta: ParamSet, seq: AttemptSequence) -> ForwardBackward:
    """Scaled forward/backward pass over one sequence."""

    alpha, beta, scale, _, _ = _one_learner(theta, seq)
    return ForwardBackward(alpha.T, beta.T, scale, float(np.log(scale).sum()))


def posteriors(theta: ParamSet, seq: AttemptSequence) -> Posteriors:
    """State and transition posteriors for one sequence."""

    alpha, beta, _, next0, next1 = _one_learner(theta, seq)
    gamma = (alpha * beta).T
    gamma /= gamma.sum(axis=1, keepdims=True)
    xi = np.zeros((len(seq) - 1, 2, 2))
    xi[:, 0, 0] = alpha[0, :-1] * next0
    xi[:, 0, 1] = alpha[0, :-1] * theta.r * next1
    xi[:, 1, 1] = alpha[1, :-1] * next1
    xi /= xi.sum(axis=(1, 2), keepdims=True)
    return Posteriors(gamma=gamma, xi=xi)


def _chunk_rows(theta: ParamSet, answers: np.ndarray, active: list[int]) -> np.ndarray:
    """Per-learner (n, 9) rows of expected counts and log-likelihoods."""

    alpha, beta, scale, next0, next1 = _recursions(theta, answers, active)
    gamma0, gamma1 = alpha * beta
    correct = answers == 1
    wrong = answers == 0
    # Columns: prior a/b, guess a/b, slip a/b, transit a/b, log-likelihood.
    rows = np.empty((9, answers.shape[1]))
    rows[0] = gamma1[0]
    rows[1] = gamma0[0]
    rows[2] = (gamma0 * correct).sum(axis=0)
    rows[3] = (gamma0 * wrong).sum(axis=0)
    rows[4] = (gamma1 * wrong).sum(axis=0)
    rows[5] = (gamma1 * correct).sum(axis=0)
    rows[6] = (alpha[0, :-1] * next1).sum(axis=0) * theta.r
    rows[7] = (alpha[0, :-1] * next0).sum(axis=0)
    rows[8] = np.log(scale).sum(axis=0)
    return rows.T


def sufficient_stats(
    theta: ParamSet, dataset: Dataset | Iterable[AttemptSequence]
) -> SufficientStats:
    """Expected counts for every parameter plus the dataset log-likelihood."""

    data = as_dataset(dataset)
    count = len(data)
    per_learner = np.empty((count, 9))
    for learners, answers, active in data._chunks:
        per_learner[learners] = _chunk_rows(theta, answers, active.tolist())
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
