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

The E-step runs over a Dataset's chunks (see data.Dataset._layout), which hold
each distinct answer sequence once, as a column. Each chunk keeps the four
counts of the table above as exact integer planes, (T+1, n) with a row per
switch time: C, tau - C, wrong from tau on and right from tau on. They do not
depend on theta; the sums weighted by q are taken afresh, all four in one
einsum straight from the integer planes. An E-step fills two float planes per
chunk: a scratch plane, which takes C cast to doubles once, then W's low part;
and W, then q in place. Rows past a sequence's length get W = -inf and add
exactly 0. Each sufficient_stats call allocates one workspace of two planes of
its largest chunk (1 MiB at most unless a learner is longer than 32,768 steps).
A column's row of counts depends on theta, its answers and the grid of W's
high parts (set by the dataset's longest sequence) alone, not on its chunk's
width, padding or other columns (numpy sums a lone column in another order,
so a chunk never has one). Each chunk writes what depends on its q into
a (9, columns) table: q at tau = 0 and at tau = L, the four-plane sums, the
tau sum, the sum over tau >= 1 and the W peak. The rest of each row, the
totals, the division and the log-likelihood, then runs once over every column,
with the same expressions in the same order, after the workspace is freed. The
table is copied to C-ordered (columns, 9) rows, each learner's row is gathered
by its slot, and one einsum adds the rows in ascending learner order, as
sum(axis=0) does on a C-ordered array (on a Fortran-ordered one both add in
another order). So results are bitwise reproducible and equal to those of a
column per learner.
forward_backward runs the scaled recursion (Rabiner, Proc. IEEE 1989) over one
sequence in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import ParamSet
from .data import AttemptSequence, Dataset, _Chunk, _Layout, as_dataset

__all__ = [
    "ForwardBackward",
    "Posteriors",
    "SufficientStats",
    "forward_backward",
    "posteriors",
    "sufficient_stats",
    "log_likelihood",
]

_Weights = tuple[np.ndarray, list[list[float]]]  # _log_weights: the tau-column, the scalars


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


def _log_weights(theta: ParamSet, tau: np.ndarray) -> _Weights:
    """W's coefficients for the switch times tau = 0..T (floats), as rows of high
    and low parts: the tau-column log P(tau) + tau log((1-g)/s), with the log r
    of tau < L, and delta, log r, log(1-s), log s as floats. High parts are
    multiples of a power of two under which each high part of a W or a
    log-likelihood is an integer below 2^53, so their sums are exact."""

    p = np.array(theta.astuple(), dtype=np.longdouble)
    (log_l0, log_g, log_s, log_r), (log_k0, log_kg, log_ks, log_kr) = np.log(p), np.log1p(-p)
    slope, offset = log_kg - log_s + log_kr, log_k0 + log_r - log_kr
    exact = np.array([slope, offset, log_l0, log_g + log_s - log_ks - log_kg, log_r, log_ks, log_s])
    unit = math.ldexp(1.0, math.frexp(float(2 * len(tau) * np.add.reduce(abs(exact))))[1] - 51)
    high = np.rint(exact / unit) * unit
    parts = np.array([high, exact - high], dtype=float)
    column = parts[:, :1] * tau + parts[:, 1:2]
    column[:, 0] = parts[:, 2]
    return column, parts[:, 3:].tolist()


def _switch_posteriors(
    weights: _Weights, chunk: _Chunk, workspace: np.ndarray
) -> tuple[np.ndarray, ...]:
    """A chunk's q (T+1, n), each learner's posterior over switch times up to a factor,
    in workspace; and each learner's high W peak."""

    correct = chunk.counts[0]
    size = correct.size
    # The tau = L cells: the last row, a slice, where every sequence has length T.
    last = chunk.last if chunk.runs else slice(size - len(chunk.learners), None)
    flat, scratch = workspace[:size], workspace[size : 2 * size].reshape(correct.shape)
    q = flat.reshape(correct.shape)
    column, ((delta, log_r, _, _), (delta_low, log_r_low, _, _)) = weights
    np.copyto(scratch, correct)  # C as exact doubles, cast once
    np.multiply(scratch, delta, out=q)
    q += column[0, : len(q), None]
    flat[last] -= log_r
    for row, start, stop in chunk.runs:
        q[row:, start:stop] = -np.inf
    peak = q.max(axis=0)
    q -= peak
    scratch *= delta_low
    scratch += column[1, : len(q), None]
    q += scratch
    flat[last] -= log_r_low
    return np.exp(q, out=q), peak


def forward_backward(theta: ParamSet, seq: AttemptSequence) -> ForwardBackward:
    """Scaled forward/backward pass over one sequence.

    Each state's alpha and beta are carried as logs and combined with
    logaddexp, so neither state's underflows against the other's however
    small guess and slip are, and log_likelihood is exact. The arrays are
    the exponentials of those logs: where a state's scaled alpha is below
    the smallest double it reads 0, and its scaled beta, which can then
    exceed the largest, reads inf.
    """

    answers = seq.attempts
    l0, g, s, r = theta.astuple()
    emit = ((math.log1p(-g), math.log(g)), (math.log(s), math.log1p(-s)))  # [state][answer]
    stay, learn = math.log1p(-r), math.log(r)
    alpha, scale = np.empty((len(answers), 2)), np.empty(len(answers))
    raw0, raw1 = math.log1p(-l0), math.log(l0)
    for t, answer in enumerate(answers):
        raw0, raw1 = raw0 + emit[0][answer], raw1 + emit[1][answer]
        scale[t] = np.logaddexp(raw0, raw1)
        alpha[t] = raw0 - scale[t], raw1 - scale[t]
        raw0, raw1 = alpha[t, 0] + stay, np.logaddexp(alpha[t, 0] + learn, alpha[t, 1])
    beta = np.zeros((len(answers), 2))
    for t in range(len(answers) - 1, 0, -1):
        next0, next1 = emit[0][answers[t]] + beta[t, 0], emit[1][answers[t]] + beta[t, 1]
        beta[t - 1] = np.logaddexp(stay + next0, learn + next1), next1
        beta[t - 1] -= scale[t]
    with np.errstate(over="ignore"):
        beta = np.exp(beta)
    return ForwardBackward(np.exp(alpha), beta, np.exp(scale), float(scale.sum()))


def posteriors(theta: ParamSet, seq: AttemptSequence) -> Posteriors:
    """State and transition posteriors for one sequence."""

    dataset = Dataset((seq,))
    # The chunk of the one learner alone: its answers are the only window.
    chunk = dataset._chunk(np.zeros(1, dtype=np.intp), dataset._answers[None])
    weights = _log_weights(theta, chunk.tau)
    q = _switch_posteriors(weights, chunk, np.empty(2 * chunk.counts[0].size))[0][:, 0]
    q /= q.sum()
    proficient = np.cumsum(q)[:-1]  # P(tau <= t)
    novice = np.cumsum(q[:0:-1])[::-1]  # P(tau > t)
    xi = np.zeros((len(seq) - 1, 2, 2))
    xi[:, 0, 0], xi[:, 0, 1], xi[:, 1, 1] = novice[1:], q[1:-1], proficient[:-1]
    return Posteriors(gamma=np.column_stack((novice, proficient)), xi=xi)


def _column_rows(weights: _Weights, layout: _Layout) -> np.ndarray:
    """Each column's row of expected counts and log-likelihood, as a C-ordered
    (columns, 9) array: prior a/b, guess a/b, slip a/b, transit a/b, log-likelihood."""

    workspace = np.empty(layout.workspace)
    table = np.empty((9, len(layout.right)))
    stop = 0
    for chunk in layout.chunks:
        start, stop = stop, stop + len(chunk.learners)
        rows = table[:, start:stop]
        q, rows[8] = _switch_posteriors(weights, chunk, workspace)  # row 8: the W peak
        flat, later = q.reshape(-1), q[1:]
        last = chunk.last if chunk.runs else slice(flat.size - len(chunk.learners), None)
        np.einsum("kij,ij->kj", chunk.counts, q, out=rows[2:6])
        np.einsum("ij,i->j", later, chunk.tau[:-1], out=rows[7])
        rows[0], rows[1] = q[0], flat[last]
        flat[last] = 0.0  # transit a stops before tau = L
        np.add.reduce(later, axis=0, out=rows[6])
    del q, flat, later, workspace  # freed before the tail's temporaries and the transposed copy
    (_, _, *high), (_, _, *low) = weights[1]
    right, wrong = layout.right, layout.wrong
    table[1] += table[6]
    total = table[0] + table[1]
    table[:8] /= total
    table[8] += right * high[0]  # peak + right high + wrong high, left to right
    table[8] += wrong * high[1]
    np.log(total, out=total)
    total += right * low[0]
    total += wrong * low[1]
    table[8] += total
    return np.ascontiguousarray(table.T)


def sufficient_stats(
    theta: ParamSet, dataset: Dataset | Iterable[AttemptSequence]
) -> SufficientStats:
    """Expected counts for every parameter plus the dataset log-likelihood."""

    data = as_dataset(dataset)
    layout = data._layout
    rows = _column_rows(_log_weights(theta, layout.chunks[0].tau), layout)
    rows = rows.take(layout.slot, axis=0)  # each learner's row
    # einsum adds the C-ordered rows one after another, in ascending learner
    # order, as sum(axis=0) does; on a Fortran-ordered array both reorder.
    a0, b0, ag, bg, as_, bs, ar, br, loglik = np.einsum("ij->j", rows).tolist()
    return SufficientStats((a0, b0), (ag, bg), (as_, bs), (ar, br), len(data), loglik)


def log_likelihood(theta: ParamSet, dataset: Dataset | Iterable[AttemptSequence]) -> float:
    """Observed-data log-likelihood, summed over learners in fixed order."""

    return sufficient_stats(theta, dataset).log_likelihood
