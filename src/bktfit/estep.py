"""Posteriors and sufficient statistics over each learner's switch time.

The hidden chain has two states (0 = non-proficient, 1 = proficient) with

    transition = [[1-r, r], [0, 1]]
    emission   = [[1-g, g], [s, 1-s]]     rows by state, columns by answer
    initial    = [1-l0, l0]

Proficiency is absorbing, so a learner with L answers has L+1 hidden paths,
one per switch time tau = 0..L, the first proficient step (L: never). With
C_tau the correct answers before step tau, path tau has the log weight

    W[tau] = log P(tau) + tau log((1-g)/s) + C_tau delta + C_L log(1-s) + (L-C_L) log s
    delta  = log g + log s - log(1-s) - log(1-g)

where log P(tau) is log l0 at tau = 0, else log(1-l0) + (tau-1) log(1-r) + log r
without the log r at tau = L. For each p the M-step objective takes counts
(a, b) with derivative a/p - b/(1-p), each a sum over tau of the posterior
q_tau times a count of path tau, so never a difference:

    prior   a = q_0                         b = sum_{tau >= 1} q
    guess   a = sum q C_tau                 b = sum q (tau - C_tau)
    slip    a = sum q (wrong from tau on)   b = sum q (C_L - C_tau)
    transit a = sum_{1 <= tau < L} q        b = sum q (tau - 1)^+

W reaches L |log p|, and one rounding at that size moves q by |W| 2^-53 (1e-11
at 5,000 steps with a coordinate near 1e-6). So W's coefficients are taken in
long double (80-bit on x86-64) and split into a high part on a grid where sums
are exact and a low rest, added after each learner's largest high W is taken off.

The E-step runs over a Dataset's chunks of (T, n) padded answers (see
data.Dataset._chunks). A chunk fills three (T+1, n) planes, a row per switch
time: C, W and then q in place, and a scratch plane; rows past a learner's
length get W = -inf and add exactly 0. Each sufficient_stats call allocates
one workspace of three planes of its largest chunk (1.5 MiB at most unless a
learner is longer than 32,768 steps), and posteriors runs the same kernel on
a one-learner chunk. Per-learner rows are summed in ascending learner order,
so results are bitwise reproducible. forward_backward keeps the scaled
recursion (Rabiner, Proc. IEEE 1989) over one sequence for its alpha and beta.
"""

from __future__ import annotations

import math
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

_Weights = tuple[np.ndarray, np.ndarray]  # _log_weights: the tau-column, the scalars


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


def _log_weights(theta: ParamSet, steps: int) -> _Weights:
    """W's coefficients for up to steps answers, as rows of high and low parts: the
    tau-column log P(tau) + tau log((1-g)/s), with the log r of tau < L, for
    tau = 0..steps, and delta, log r, log(1-s), log s. High parts are multiples
    of a power of two under which each high part of a W or a log-likelihood is
    an integer below 2^53, so their sums are exact."""

    p = np.array(theta.astuple(), dtype=np.longdouble)
    (log_l0, log_g, log_s, log_r), (log_k0, log_kg, log_ks, log_kr) = np.log(p), np.log1p(-p)
    slope, offset = log_kg - log_s + log_kr, log_k0 + log_r - log_kr
    exact = np.array([slope, offset, log_l0, log_g + log_s - log_ks - log_kg, log_r, log_ks, log_s])
    unit = math.ldexp(1.0, math.frexp(float(2 * (steps + 1) * abs(exact).sum()))[1] - 51)
    high = np.rint(exact / unit) * unit
    parts = np.array([high, exact - high], dtype=float)
    column = parts[:, :1] * np.arange(steps + 1) + parts[:, 1:2]
    column[:, 0] = parts[:, 2]
    return column, parts[:, 3:]


def _switch_posteriors(
    weights: _Weights, answers: np.ndarray, lengths: np.ndarray, workspace: np.ndarray
) -> tuple[np.ndarray, ...]:
    """A chunk's q (T+1, n), each learner's posterior over switch times up to a factor,
    C and a free plane, all in workspace; and each learner's high W peak and tau = L cell."""

    steps, count = answers.shape
    q, correct, scratch = workspace[: 3 * (steps + 1) * count].reshape(3, steps + 1, count)
    column, ((delta, log_r, _, _), (delta_low, log_r_low, _, _)) = weights
    correct[0] = 0.0
    correct[1:] = answers  # cast in place: np.cumsum(answers, dtype=float) copies them
    np.cumsum(correct[1:], axis=0, out=correct[1:])
    last = lengths * count + np.arange(count)
    np.multiply(correct, delta, out=q)
    q += column[0, : steps + 1, None]
    q.reshape(-1)[last] -= log_r
    if lengths[-1] < steps:  # learners of one length are a run: mask their rows past it
        starts = (np.flatnonzero(lengths[1:] < lengths[:-1]) + 1).tolist()
        for start, stop in zip([0] + starts, starts + [count]):
            q[lengths[start] + 1 :, start:stop] = -np.inf
    peak = q.max(axis=0)
    q -= peak
    np.multiply(correct, delta_low, out=scratch)
    scratch += column[1, : steps + 1, None]
    q += scratch
    q.reshape(-1)[last] -= log_r_low
    return np.exp(q, out=q), correct, scratch, peak, last


def forward_backward(theta: ParamSet, seq: AttemptSequence) -> ForwardBackward:
    """Scaled forward/backward pass over one sequence.

    One state's scaled alpha underflows against the other's when guess and
    slip vanish: at theta = (0.5, 1e-200, 1e-200, 0.5) the answers
    [0, 1, 1, 0, 0, 0, 1, 1] read -1382.94 against the exact -925.89.
    sufficient_stats, posteriors and log_likelihood are exact there.
    """

    answers = seq.attempts
    emit = ((1.0 - theta.g, theta.g), (theta.s, 1.0 - theta.s))  # [state][answer]
    alpha, scale = [], []
    raw0, raw1 = 1.0 - theta.l0, theta.l0
    for answer in answers:
        raw0, raw1 = raw0 * emit[0][answer], raw1 * emit[1][answer]
        scale.append(raw0 + raw1)
        alpha.append((raw0 / scale[-1], raw1 / scale[-1]))
        raw0, raw1 = alpha[-1][0] * (1.0 - theta.r), alpha[-1][0] * theta.r + alpha[-1][1]
    beta = [(1.0, 1.0)]
    for answer, total in zip(answers[:0:-1], scale[:0:-1]):
        stay, learn = emit[0][answer] * beta[-1][0], emit[1][answer] * beta[-1][1]
        beta.append(((stay * (1.0 - theta.r) + theta.r * learn) / total, learn / total))
    scale = np.array(scale)
    return ForwardBackward(np.array(alpha), np.array(beta[::-1]), scale, float(np.log(scale).sum()))


def posteriors(theta: ParamSet, seq: AttemptSequence) -> Posteriors:
    """State and transition posteriors for one sequence."""

    ((_, answers, lengths),) = Dataset((seq,))._chunks
    weights = _log_weights(theta, len(seq))
    q = _switch_posteriors(weights, answers, lengths, np.empty(3 * answers.size + 3))[0][:, 0]
    q /= q.sum()
    proficient = np.cumsum(q)[:-1]  # P(tau <= t)
    novice = np.cumsum(q[:0:-1])[::-1]  # P(tau > t)
    xi = np.zeros((len(seq) - 1, 2, 2))
    xi[:, 0, 0], xi[:, 0, 1], xi[:, 1, 1] = novice[1:], q[1:-1], proficient[:-1]
    return Posteriors(gamma=np.column_stack((novice, proficient)), xi=xi)


def _chunk_rows(
    weights: _Weights, answers: np.ndarray, lengths: np.ndarray, workspace: np.ndarray
) -> np.ndarray:
    """Per-learner (n, 9) rows of expected counts and log-likelihoods."""

    q, correct, counts, peak, last = _switch_posteriors(weights, answers, lengths, workspace)
    high, low = weights[1][:, 2:]
    tau = np.arange(len(q), dtype=float)[:, None]
    right = correct.reshape(-1)[last]
    wrong = lengths - right
    # Columns: prior a/b, guess a/b, slip a/b, transit a/b, log-likelihood.
    rows = np.empty((9, len(lengths)))
    rows[2] = np.einsum("ij,ij->j", q, correct)
    rows[3] = np.einsum("ij,ij->j", q, np.subtract(tau, correct, out=counts))
    rows[4] = np.einsum("ij,ij->j", q, np.subtract(wrong, counts, out=counts))
    rows[5] = np.einsum("ij,ij->j", q, np.subtract(right, correct, out=counts))
    rows[7] = np.einsum("ij,i->j", q[1:], tau[:-1, 0])
    rows[0], rows[1] = q[0], q.reshape(-1)[last]
    q.reshape(-1)[last] = 0.0  # transit a stops before tau = L
    rows[6] = q[1:].sum(axis=0)
    rows[1] += rows[6]
    total = rows[0] + rows[1]
    rows[:8] /= total
    rows[8] = peak + right * high[0] + wrong * high[1]
    rows[8] += np.log(total) + right * low[0] + wrong * low[1]
    return rows.T


def sufficient_stats(
    theta: ParamSet, dataset: Dataset | Iterable[AttemptSequence]
) -> SufficientStats:
    """Expected counts for every parameter plus the dataset log-likelihood."""

    data = as_dataset(dataset)
    chunks = data._chunks
    weights = _log_weights(theta, len(chunks[0][1]))
    workspace = np.empty(3 * max(answers.size + answers.shape[1] for _, answers, _ in chunks))
    per_learner = np.empty((len(data), 9))
    for learners, answers, lengths in chunks:
        per_learner[learners] = _chunk_rows(weights, answers, lengths, workspace)
    # Fixed reduction order: sum over learners in ascending index order.
    totals = per_learner.sum(axis=0).tolist()
    pairs = [tuple(totals[i : i + 2]) for i in range(0, 8, 2)]
    return SufficientStats(*pairs, learner_count=len(data), log_likelihood=totals[8])


def log_likelihood(theta: ParamSet, dataset: Dataset | Iterable[AttemptSequence]) -> float:
    """Observed-data log-likelihood, summed over learners in fixed order."""

    return sufficient_stats(theta, dataset).log_likelihood
