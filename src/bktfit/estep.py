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

The first E-step that reads a Dataset builds its layout (_layout_of) and keeps
it there for every later E-step of every fit. The layout holds each distinct
answer sequence once, as the column of the first learner who gave it (one sort
of the learners' packed answers finds them), those learners in stable
descending-length order, cut into chunks. Each chunk keeps the four counts of
the table above as exact integer planes, (T+1, n) with a row per switch time: C,
tau - C, wrong from tau on and right from tau on, in the smallest unsigned type
that holds T. The layout also keeps each learner's slot, the column of its
sequence, and each column's C_L and L - C_L as floats. So the planes take memory
per distinct sequence, not per learner, and do not depend on theta; the sums
weighted by q are taken afresh, all four in one einsum straight from the integer
planes. An E-step fills two float planes per chunk: a scratch plane, which takes
C cast to doubles once, then W's low part; and W, then q in place. Rows past a
sequence's length get W = -inf and add exactly 0. Each sufficient_stats call
allocates one workspace of two planes of its largest chunk (1 MiB at most unless
a learner is longer than 32,768 steps). A column's row of counts depends on
theta, its answers and the grid of W's high parts (set by the dataset's longest
sequence) alone, not on its chunk's width, padding or other columns (numpy sums
a lone column in another order, so a chunk never has one). Each chunk writes
what depends on its q into a (9, columns) table: q at tau = 0 and at tau = L,
the four-plane sums, the tau sum, the sum over tau >= 1 and the W peak. The rest
of each row, the totals, the division and the log-likelihood, then runs once
over every column, with the same expressions in the same order, after the
workspace is freed. Each learner's row is gathered by its slot from the table's
(columns, 9) transpose, which take returns as C-ordered rows, and one einsum
adds the rows in ascending learner order, as sum(axis=0) does on a C-ordered
array (on a Fortran-ordered one both add in another order). So results are
bitwise reproducible and equal to those of a column per learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ParamSet
from .data import AttemptSequence, Dataset, as_dataset

__all__ = [
    "Posteriors",
    "SufficientStats",
    "posteriors",
    "sufficient_stats",
    "log_likelihood",
]

_Weights = tuple[np.ndarray, list[list[float]]]  # _log_weights: the tau-column, the scalars

# A chunk takes _CHUNK_CELLS // T distinct sequences (at least one, then held
# twice), T the longest of them; it keeps four count planes of T + 1 rows, and an
# E-step one workspace of two float planes of T + 1 rows, which reads the count
# planes in place.
_CHUNK_CELLS = 1 << 15

# The layout sorts learners by keys of up to _SORT_ANSWERS answers each, as
# low bits, then an end bit: with n answers left, cut to _SORT_ANSWERS + 1
# (which stands for more), a key is the packed bits & _SORT_BITS[n] | _SORT_END[n].
_SORT_ANSWERS = 56
_SORT_BITS = np.array([(1 << min(n, _SORT_ANSWERS)) - 1 for n in range(58)], dtype=np.uint64)
_SORT_END = np.array([1 << n for n in range(58)], dtype=np.uint64)


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


class _Chunk(NamedTuple):
    """What every E-step reads of some distinct answer sequences, all of it
    independent of theta.

    Planes have a row per switch time tau = 0..T, T the first sequence's
    length, and a column per sequence, held by the first learner who gave
    it; a column's rows past its length L are padding. A chunk of one
    sequence holds it in both of two columns.
    """

    learners: np.ndarray  # each column's first learner, in stable descending-length order
    # (4, T + 1, n) exact counts of path tau in np.min_scalar_type(T): the correct
    # answers before tau (C_tau), the wrong ones before tau (tau - C_tau), the
    # wrong ones from tau on and the correct ones from tau on (C_L - C_tau).
    counts: np.ndarray
    last: np.ndarray | slice  # the tau = L cells, flat; with no padding, the last row's slice
    runs: tuple[tuple[int, int, int], ...]  # (row, start, stop): padding from row on
    tau: np.ndarray  # 0..T, as floats


class _Layout(NamedTuple):
    """A dataset as the E-step reads it: its distinct answer sequences in chunks,
    where to find each learner's, what the E-step's tail reads of every column
    at once, and the size of the one workspace the chunks share.

    Columns are counted through the chunks in order, so column j of the
    E-step's (9, columns) table and right[j] and wrong[j] are one sequence's.
    """

    chunks: tuple[_Chunk, ...]
    slot: np.ndarray  # each learner's column of its answer sequence
    right: np.ndarray  # each column's C_L, as floats
    wrong: np.ndarray  # each column's L - C_L, as floats
    workspace: int  # two planes of the largest chunk, in floats


def _layout_of(dataset: Dataset) -> _Layout:
    """The dataset's layout, chunks of _CHUNK_CELLS // T columns each, built on
    first use and kept in dataset._layout."""

    if dataset._layout is not None:
        return dataset._layout  # type: ignore[return-value]
    lengths, longest = dataset._lengths, int(dataset._lengths.max())
    # windows[i, :n] is the n answers from flat index i on, zeros past the end.
    padded = np.append(dataset._answers, np.zeros(longest, dtype=np.uint8))
    windows = sliding_window_view(padded, longest)
    order = np.argsort(-lengths, kind="stable")
    first = _first_learners(dataset)
    distinct = order[first[order] == order]
    chunks, start = [], 0
    while start < len(distinct):
        learners = distinct[start : start + max(1, _CHUNK_CELLS // lengths[distinct[start]])]
        start += len(learners)
        chunks.append(_chunk(dataset, learners, windows))
    columns = np.concatenate([chunk.learners for chunk in chunks])
    column = np.empty(len(dataset), dtype=np.int64)
    column[columns] = np.arange(len(columns))
    right = np.concatenate([chunk.counts[0].reshape(-1)[chunk.last] for chunk in chunks])
    right = right.astype(float)
    workspace = 2 * max(chunk.counts[0].size for chunk in chunks)
    wrong = lengths[columns] - right
    dataset._layout = _Layout(tuple(chunks), column[first], right, wrong, workspace)
    return dataset._layout


def _first_learners(dataset: Dataset) -> np.ndarray:
    """Each learner's first learner with the same answers.

    A learner's key is its first 56 answers as bits of an integer, with
    one more bit set just past its last answer, or past the 56 if it has
    more. One sort of the keys puts learners with equal answers and
    lengths together; the smallest index of each run of equal keys is
    their first learner. Learners longer than 56 are sorted again by that
    first learner and the key of their next 56 answers, and so on.
    """

    lengths = dataset._lengths
    bits = np.append(np.packbits(dataset._answers, bitorder="little"), np.zeros(8, np.uint8))
    # words[i]: the 64 bits from byte i of the packed answers on.
    words = np.ndarray(len(bits) - 7, "<u8", bits, 0, (1,))
    # Each learner's first learner so far; the first sort needs no such key.
    first, rows = np.zeros(len(dataset), dtype=np.int64), np.arange(len(dataset))
    for offset in range(0, int(lengths.max()), _SORT_ANSWERS):
        rows = rows[lengths[rows] > offset]  # in dataset order
        at = (dataset._bounds[rows] + offset).astype(np.uint64)
        left = np.minimum(lengths[rows] - offset, _SORT_ANSWERS + 1)
        keys = words[at >> np.uint64(3)] >> (at & np.uint64(7)) & _SORT_BITS[left] | _SORT_END[left]
        sort = np.lexsort((keys, first[rows])) if offset else np.argsort(keys)
        keys, classes, learners = keys[sort], first[rows][sort], rows[sort]
        new = np.empty(len(rows), dtype=bool)
        new[0] = True
        new[1:] = (keys[1:] != keys[:-1]) | (classes[1:] != classes[:-1])
        first[learners] = np.minimum.reduceat(learners, np.flatnonzero(new))[np.cumsum(new) - 1]
    return first


def _chunk(dataset: Dataset, learners: np.ndarray, windows: np.ndarray) -> _Chunk:
    """The chunk of these learners, the longest first. A lone learner is held
    twice: numpy sums a single column over tau in another order."""

    if len(learners) == 1:
        learners = learners.repeat(2)
    lengths, count = dataset._lengths[learners], len(learners)
    steps = int(lengths[0])
    starts = (np.flatnonzero(lengths[1:] < lengths[:-1]) + 1).tolist()
    runs = tuple(  # learners of one length are a run of columns
        (int(lengths[lo]) + 1, lo, hi)
        for lo, hi in zip([0] + starts, starts + [count])
        if lengths[lo] < steps
    )
    answers = windows[dataset._bounds[learners], :steps].T
    for row, start, stop in runs:
        answers[row - 1 :, start:stop] = 0  # the next learners' answers
    dtype = np.min_scalar_type(steps)
    counts = np.empty((4, steps + 1, count), dtype=dtype)
    correct, wrong_before, wrong_after, right_after = counts
    correct[0] = 0
    np.cumsum(answers, axis=0, dtype=dtype, out=correct[1:])
    np.subtract(np.arange(steps + 1, dtype=dtype)[:, None], correct, out=wrong_before)
    last = lengths * count + np.arange(count) if runs else slice(steps * count, None)
    right = correct.reshape(-1)[last]
    wrong = (lengths - right).astype(dtype)
    np.subtract(right, correct, out=right_after)
    # Wrong from tau on is wrong minus wrong before tau; past L, tau - C
    # exceeds wrong, so the minimum makes the plane 0 there.
    np.minimum(wrong_before, wrong, out=wrong_after)
    np.subtract(wrong, wrong_after, out=wrong_after)
    return _Chunk(learners, counts, last, runs, np.arange(steps + 1.0))


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
    flat, scratch = workspace[:size], workspace[size : 2 * size].reshape(correct.shape)
    q = flat.reshape(correct.shape)
    column, ((delta, log_r, _, _), (delta_low, log_r_low, _, _)) = weights
    np.copyto(scratch, correct)  # C as exact doubles, cast once
    np.multiply(scratch, delta, out=q)
    q += column[0, : len(q), None]
    flat[chunk.last] -= log_r
    for row, start, stop in chunk.runs:
        q[row:, start:stop] = -np.inf
    peak = q.max(axis=0)
    q -= peak
    scratch *= delta_low
    scratch += column[1, : len(q), None]
    q += scratch
    flat[chunk.last] -= log_r_low
    return np.exp(q, out=q), peak


def posteriors(theta: ParamSet, seq: AttemptSequence) -> Posteriors:
    """State and transition posteriors for one sequence."""

    dataset = Dataset((seq,))
    # The chunk of the one learner alone: its answers are the only window.
    chunk = _chunk(dataset, np.zeros(1, dtype=np.intp), dataset._answers[None])
    weights = _log_weights(theta, chunk.tau)
    q = _switch_posteriors(weights, chunk, np.empty(2 * chunk.counts[0].size))[0][:, 0]
    q /= q.sum()
    proficient = np.cumsum(q)[:-1]  # P(tau <= t)
    novice = np.cumsum(q[:0:-1])[::-1]  # P(tau > t)
    xi = np.zeros((len(seq) - 1, 2, 2))
    xi[:, 0, 0], xi[:, 0, 1], xi[:, 1, 1] = novice[1:], q[1:-1], proficient[:-1]
    return Posteriors(gamma=np.column_stack((novice, proficient)), xi=xi)


def _column_rows(weights: _Weights, layout: _Layout) -> np.ndarray:
    """Each column's row of expected counts and log-likelihood, as the (columns, 9)
    transpose of a C-ordered table: prior a/b, guess a/b, slip a/b, transit a/b, log-likelihood."""

    workspace = np.empty(layout.workspace)
    table = np.empty((9, len(layout.right)))
    stop = 0
    for chunk in layout.chunks:
        start, stop = stop, stop + len(chunk.learners)
        rows = table[:, start:stop]
        q, rows[8] = _switch_posteriors(weights, chunk, workspace)  # row 8: the W peak
        flat, later = q.reshape(-1), q[1:]
        np.einsum("kij,ij->kj", chunk.counts, q, out=rows[2:6])
        np.einsum("ij,i->j", later, chunk.tau[:-1], out=rows[7])
        rows[0], rows[1] = q[0], flat[chunk.last]
        flat[chunk.last] = 0.0  # transit a stops before tau = L
        np.add.reduce(later, axis=0, out=rows[6])
    del q, flat, later, workspace  # freed before the tail's temporaries
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
    return table.T


def sufficient_stats(
    theta: ParamSet, dataset: Dataset | Iterable[AttemptSequence]
) -> SufficientStats:
    """Expected counts for every parameter plus the dataset log-likelihood."""

    data = as_dataset(dataset)
    layout = _layout_of(data)
    rows = _column_rows(_log_weights(theta, layout.chunks[0].tau), layout)
    rows = rows.take(layout.slot, axis=0)  # each learner's row, C-ordered
    # einsum adds the C-ordered rows one after another, in ascending learner
    # order, as sum(axis=0) does; on a Fortran-ordered array both reorder.
    a0, b0, ag, bg, as_, bs, ar, br, loglik = np.einsum("ij->j", rows).tolist()
    return SufficientStats((a0, b0), (ag, bg), (as_, bs), (ar, br), len(data), loglik)


def log_likelihood(theta: ParamSet, dataset: Dataset | Iterable[AttemptSequence]) -> float:
    """Observed-data log-likelihood, summed over learners in fixed order."""

    return sufficient_stats(theta, dataset).log_likelihood
