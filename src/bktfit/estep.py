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
time. Padded cells are set to alpha 0, beta 1, scale 1 and xi factors 0
before the loops, which never touch them, and the answer masks leave them
out of the gamma sums: each learner's last step gets beta = 1 and padding
adds exactly 0 to every count. Per-learner rows are summed in ascending
learner order, so results are bitwise reproducible for any scheduling.

Each sufficient_stats call allocates one flat float64 workspace of nine
planes the size of the dataset's largest chunk: at most 65,536 cells, 4.5
MiB in all, unless one learner is longer. Each chunk takes its nine
contiguous planes from the start of it, and its emission gathers, alpha,
beta, scale, xi factors, gamma, answer masks and masked gammas are written
into them with out=; the only other chunk-sized array is the index array
np.take converts the answers to. forward_backward and
posteriors run the same kernel in a fresh one-learner workspace, so the
arrays they return are their own.
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

_PLANES = 9  # workspace planes of one chunk's cells each, see _recursions
_CODES = np.array([1, 0], dtype=np.uint8)[:, None, None]  # answer codes: correct, wrong


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


def _recursions(
    theta: ParamSet, answers: np.ndarray, active: list[int], workspace: np.ndarray
) -> np.ndarray:
    """One chunk's (9, T, n) planes in workspace: alpha0, alpha1, next0, next1,
    beta0, beta1, scale, stay0 and emit1 (the emission gathers).

    Between steps t < T-1 and t+1, xi_00 = alpha_0 next0, xi_01 = r alpha_0
    next1 and xi_11 = alpha_1 next1.
    """

    length, count = answers.shape
    planes = workspace[: _PLANES * answers.size].reshape(_PLANES, length, count)
    alpha0, alpha1, next0, next1, beta0, beta1, scale, stay0, emit1 = planes
    r = theta.r
    emit0 = np.array([1.0 - theta.g, theta.g, 0.0])
    emissions = [(1.0 - r) * emit0, [theta.s, 1.0 - theta.s, 0.0]]
    np.take(emissions, answers, axis=1, out=planes[7:], mode="clip")
    # Padding lies after the shortest learner's last step; the passes fill the rest.
    pad = active.count(count) - 1
    planes[:4, pad:] = 0.0
    planes[4:7, pad:] = 1.0

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
        total = np.add(raw0, raw1, out=scale[t, :m])
        np.divide(raw0, total, out=alpha0[t, :m])
        np.divide(raw1, total, out=alpha1[t, :m])

    for t in range(length - 2, -1, -1):
        m = active[t + 1]
        stay = stay0[t + 1, :m] * beta0[t + 1, :m]
        learn = emit1[t + 1, :m] * beta1[t + 1, :m]
        total = scale[t + 1, :m]
        np.divide(stay + r * learn, total, out=beta0[t, :m])
        beta1[t, :m] = np.divide(learn, total, out=next1[t, :m])
        np.divide(stay, total, out=next0[t, :m])
    return planes


def _one_learner(theta: ParamSet, seq: AttemptSequence) -> np.ndarray:
    """The (9, T) planes of seq's one-learner chunk, in a workspace of their own."""

    ((_, answers, active),) = Dataset((seq,))._chunks
    return _recursions(theta, answers, active.tolist(), np.empty(_PLANES * answers.size))[..., 0]


def forward_backward(theta: ParamSet, seq: AttemptSequence) -> ForwardBackward:
    """Scaled forward/backward pass over one sequence."""

    planes = _one_learner(theta, seq)
    alpha, beta, scale = planes[:2], planes[4:6], planes[6]
    return ForwardBackward(alpha.T, beta.T, scale, float(np.log(scale).sum()))


def posteriors(theta: ParamSet, seq: AttemptSequence) -> Posteriors:
    """State and transition posteriors for one sequence."""

    planes = _one_learner(theta, seq)
    alpha, (next0, next1), beta = planes[:2], planes[2:4, :-1], planes[4:6]
    gamma = (alpha * beta).T
    gamma /= gamma.sum(axis=1, keepdims=True)
    xi = np.zeros((len(seq) - 1, 2, 2))
    xi[:, 0, 0] = alpha[0, :-1] * next0
    xi[:, 0, 1] = alpha[0, :-1] * theta.r * next1
    xi[:, 1, 1] = alpha[1, :-1] * next1
    xi /= xi.sum(axis=(1, 2), keepdims=True)
    return Posteriors(gamma=gamma, xi=xi)


def _chunk_rows(
    theta: ParamSet, answers: np.ndarray, active: list[int], workspace: np.ndarray
) -> np.ndarray:
    """Per-learner (n, 9) rows of expected counts and log-likelihoods."""

    planes = _recursions(theta, answers, active, workspace)
    alpha, xi, beta, scale = planes[:2], planes[2:4, :-1], planes[4:6], planes[6]
    # Columns: prior a/b, guess a/b, slip a/b, transit a/b, log-likelihood.
    rows = np.empty((9, answers.shape[1]))
    rows[7:5:-1] = np.multiply(alpha[0, :-1], xi, out=xi).sum(axis=1)
    rows[6] *= theta.r
    gamma = np.multiply(alpha, beta, out=beta)
    rows[:2] = gamma[::-1, 0]
    # products[k, i] = gamma_i where the answer is _CODES[k], else 0.
    masks, products = planes[7:], planes[:4].reshape(2, 2, *answers.shape)
    np.equal(answers, _CODES, out=masks)
    np.multiply(masks[:, None], gamma, out=products)
    rows[[2, 5, 3, 4]] = products.sum(axis=2).reshape(4, -1)
    rows[8] = np.log(scale, out=scale).sum(axis=0)
    return rows.T


def sufficient_stats(
    theta: ParamSet, dataset: Dataset | Iterable[AttemptSequence]
) -> SufficientStats:
    """Expected counts for every parameter plus the dataset log-likelihood."""

    data = as_dataset(dataset)
    count = len(data)
    chunks = data._chunks
    workspace = np.empty(_PLANES * max(answers.size for _, answers, _ in chunks))
    per_learner = np.empty((count, 9))
    for learners, answers, active in chunks:
        per_learner[learners] = _chunk_rows(theta, answers, active.tolist(), workspace)
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
