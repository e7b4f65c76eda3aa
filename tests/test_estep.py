"""Scaled forward-backward and expected counts against the oracle."""

from __future__ import annotations

import ast
import decimal
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bktfit import (
    AttemptSequence,
    Dataset,
    ParamSet,
    log_likelihood,
    posteriors,
    simulate_dataset,
    sufficient_stats,
)
from bktfit import data, estep
from conftest import TRUE_THETA, random_attempts, random_theta
from reference import enumerate_likelihood, enumerate_posteriors, forward_backward


def test_forward_backward_matches_oracle_likelihood():
    rng = np.random.default_rng(10)
    for _ in range(50):
        theta = random_theta(rng)
        seq = AttemptSequence(random_attempts(rng, int(rng.integers(1, 13))))
        fb = forward_backward(theta, seq)
        oracle = enumerate_likelihood(theta, seq)
        assert fb.log_likelihood == pytest.approx(math.log(oracle), rel=1e-13)


def test_scaled_alpha_rows_normalized():
    seq = AttemptSequence((True, False, True, True, False))
    fb = forward_backward(TRUE_THETA, seq)
    np.testing.assert_allclose(fb.scaled_alpha.sum(axis=1), 1.0, rtol=1e-14)
    assert fb.scale_factors.shape == (5,)
    assert np.all(fb.scale_factors > 0)


def test_forward_backward_keeps_paths_at_vanishing_guess_and_slip():
    # One state's alpha is about 1e-400 of the other's at step 3; a recursion
    # in plain doubles drops it and reads -1382.94.
    theta = ParamSet(0.5, 1e-200, 1e-200, 0.5)
    seq = AttemptSequence((0, 1, 1, 0, 0, 0, 1, 1))
    fb = forward_backward(theta, seq)
    assert fb.log_likelihood == pytest.approx(-925.89, abs=0.005)
    assert fb.log_likelihood == pytest.approx(log_likelihood(theta, [seq]), rel=1e-9)
    assert fb.log_likelihood == pytest.approx(float(_exact_counts_row(theta, seq)[8]), rel=1e-13)
    # Logs near -460 carry about 1e-13 relative error into their exponentials.
    np.testing.assert_allclose(fb.scaled_alpha.sum(axis=1), 1.0, rtol=1e-12)
    assert np.all(fb.scale_factors > 0)


def test_posteriors_match_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta = random_theta(rng)
        seq = AttemptSequence(random_attempts(rng, int(rng.integers(2, 13))))
        got = posteriors(theta, seq)
        want = enumerate_posteriors(theta, seq)
        np.testing.assert_allclose(got.gamma, want.gamma, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(got.xi, want.xi, rtol=1e-12, atol=1e-300)


def test_posteriors_build_the_chunk_of_their_one_sequence_directly(monkeypatch):
    # posteriors builds the chunk of its sequence without the dataset layout;
    # it is the chunk the layout of that sequence alone holds, so the
    # posteriors keep their bits, uint16 planes and a length-1 sequence included.
    rng = np.random.default_rng(26)
    read = []
    kernel = estep._switch_posteriors

    def recorded(weights, chunk, workspace):
        read.append(chunk)
        return kernel(weights, chunk, workspace)

    monkeypatch.setattr(estep, "_switch_posteriors", recorded)
    for length in (1, 2, 5, 12, 300):
        theta = random_theta(rng)
        seq = AttemptSequence(random_attempts(rng, length))
        got = posteriors(theta, seq)
        (chunk,) = read  # one kernel call, on one chunk
        (want,) = estep._layout_of(Dataset((seq,))).chunks
        for field, expected in zip(chunk, want):
            assert np.asarray(field).dtype == np.asarray(expected).dtype
            assert np.array_equal(field, expected)
        read.clear()
        if length <= 12:
            oracle = enumerate_posteriors(theta, seq)
            np.testing.assert_allclose(got.gamma, oracle.gamma, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(got.xi, oracle.xi, rtol=1e-12, atol=1e-300)


def test_posterior_invariants():
    seq = AttemptSequence((False, True, True, False, True, False))
    post = posteriors(TRUE_THETA, seq)
    np.testing.assert_allclose(post.gamma.sum(axis=1), 1.0, rtol=1e-13)
    np.testing.assert_allclose(post.xi.sum(axis=(1, 2)), 1.0, rtol=1e-13)
    assert np.all(post.xi[:, 1, 0] == 0.0)
    np.testing.assert_allclose(post.xi.sum(axis=2), post.gamma[:-1], rtol=1e-12)
    np.testing.assert_allclose(post.xi.sum(axis=1), post.gamma[1:], rtol=1e-12)


def test_long_sequences_do_not_underflow():
    seq = AttemptSequence((False,) * 2000)
    fb = forward_backward(TRUE_THETA, seq)
    assert math.isfinite(fb.log_likelihood)
    assert np.all(np.isfinite(fb.scaled_beta))


def test_sufficient_stats_against_oracle_sums():
    rng = np.random.default_rng(12)
    theta = random_theta(rng)
    sequences = [
        AttemptSequence(random_attempts(rng, int(rng.integers(1, 9)))) for _ in range(12)
    ]
    stats = sufficient_stats(theta, sequences)

    prior = np.zeros(2)
    guess = np.zeros(2)
    slip = np.zeros(2)
    transit = np.zeros(2)
    total_ll = 0.0
    for seq in sequences:
        post = enumerate_posteriors(theta, seq)
        y = np.array(list(seq))
        prior += post.gamma[0, 1], post.gamma[0, 0]
        guess += (y * post.gamma[:, 0]).sum(), ((1 - y) * post.gamma[:, 0]).sum()
        slip += ((1 - y) * post.gamma[:, 1]).sum(), (y * post.gamma[:, 1]).sum()
        if len(seq) > 1:
            transit += post.xi[:, 0, 1].sum(), post.xi[:, 0, 0].sum()
        total_ll += math.log(enumerate_likelihood(theta, seq))

    np.testing.assert_allclose(stats.prior, prior, rtol=1e-12)
    np.testing.assert_allclose(stats.guess, guess, rtol=1e-12)
    np.testing.assert_allclose(stats.slip, slip, rtol=1e-12)
    np.testing.assert_allclose(stats.transit, transit, rtol=1e-12)
    assert stats.log_likelihood == pytest.approx(total_ll, rel=1e-12)
    assert stats.learner_count == 12


def test_mixed_lengths_match_per_sequence_loop():
    rng = np.random.default_rng(13)
    theta = random_theta(rng)
    sequences = [
        AttemptSequence(random_attempts(rng, length))
        for length in (1, 4, 4, 2, 7, 1, 3)
    ]
    batched = log_likelihood(theta, sequences)
    looped = sum(forward_backward(theta, seq).log_likelihood for seq in sequences)
    assert batched == pytest.approx(looped, rel=1e-13)


def test_stats_pairs_layout():
    stats = sufficient_stats(TRUE_THETA, [AttemptSequence((True, False))])
    pairs = stats.pairs()
    assert pairs.shape == (4, 2)
    np.testing.assert_allclose(pairs[0], stats.prior)
    np.testing.assert_allclose(pairs[3], stats.transit)


def test_the_layout_is_the_estep_modules_own():
    # data stores and reads answers; how the E-step lays them out is estep's alone.
    for name in ("_Chunk", "_Layout", "_CHUNK_CELLS", "_chunk", "_first_learners"):
        assert not hasattr(data, name) and not hasattr(data.Dataset, name), name
    tree = ast.parse(Path(estep.__file__).read_text(encoding="utf-8"))
    (names,) = [
        [alias.name for alias in node.names]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "data"
    ]
    assert names and not [name for name in names if name.startswith("_")], names


def test_dataset_encodes_answers_once_time_major(monkeypatch):
    monkeypatch.setattr(estep, "_CHUNK_CELLS", 6)
    answers = ((1, 0), (0, 1, 1), (1,), (1, 1, 0), (0, 0))
    dataset = Dataset(tuple(AttemptSequence(a) for a in answers))
    assert dataset._layout is None
    chunks, slot, right, wrong, workspace = estep._layout_of(dataset)
    assert chunks is estep._layout_of(dataset).chunks
    # Stable descending length: the two length-3 and the two length-2
    # learners keep their dataset order. Six cells take two learners of
    # length 3, then three of length 2 or less.
    assert [chunk.learners.tolist() for chunk in chunks] == [[1, 3], [0, 4, 2]]
    first, second = chunks
    assert first.counts.dtype == second.counts.dtype == np.uint8
    # Planes by switch time tau: C, tau - C, wrong from tau on, right from tau on.
    assert first.counts.tolist() == [
        [[0, 0], [0, 1], [1, 2], [2, 2]],
        [[0, 0], [1, 0], [1, 0], [1, 1]],
        [[1, 1], [0, 1], [0, 1], [0, 0]],
        [[2, 2], [2, 1], [1, 0], [0, 0]],
    ]
    # Learner 2 has one answer: its tau = 2 row is padding, 0 in the last two planes.
    assert second.counts.tolist() == [
        [[0, 0, 0], [1, 0, 1], [1, 0, 1]],
        [[0, 0, 0], [0, 1, 0], [1, 2, 1]],
        [[1, 2, 0], [1, 1, 0], [0, 0, 0]],
        [[1, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    # A chunk without padding holds its tau = L cells as the slice of its last row.
    assert first.last == slice(6, None) and second.last.tolist() == [6, 7, 5]
    # C_L and L - C_L of every column, the first chunk's columns first.
    assert right.tolist() == [2.0, 2.0] + [1.0, 0.0, 1.0]
    assert wrong.tolist() == [1.0, 1.0] + [1.0, 2.0, 0.0]
    assert right.dtype == wrong.dtype == float
    assert workspace == 2 * 3 * 3  # two planes of the larger chunk, 3 x 3 against 4 x 2
    assert first.runs == () and second.runs == ((2, 2, 3),)
    assert first.tau.tolist() == [0.0, 1.0, 2.0, 3.0] and second.tau.tolist() == [0.0, 1.0, 2.0]
    # The five answer sequences differ: each learner has a column of its own.
    assert slot.tolist() == [2, 0, 4, 1, 3]


@pytest.mark.parametrize(
    "longest, dtype", [(None, np.uint8), (300, np.uint16), (70_000, np.uint32)]
)
def test_chunk_count_planes_match_counts_from_the_answers(longest, dtype):
    rng = np.random.default_rng(21)
    lengths = [1] * 5 + rng.integers(1, 31, 95).tolist() + ([longest] if longest else [])
    answers = [rng.integers(0, 2, n) for n in rng.permutation(lengths)]
    dataset = Dataset(tuple(AttemptSequence(a) for a in answers))
    chunks, _, right, wrong, workspace = estep._layout_of(dataset)
    assert chunks[0].counts.dtype == dtype
    assert len(right) == len(wrong) == sum(len(chunk.learners) for chunk in chunks)
    assert workspace == 2 * max(chunk.counts[0].size for chunk in chunks)
    offset = 0
    for chunk in chunks:
        steps, count = len(chunk.tau) - 1, len(chunk.learners)
        plane_type = chunk.counts.dtype
        # The smallest unsigned type that holds T.
        assert plane_type == np.min_scalar_type(steps) and plane_type.kind == "u"
        assert np.iinfo(plane_type).max >= steps
        assert plane_type == np.uint8 or np.iinfo(f"u{plane_type.itemsize // 2}").max < steps
        assert chunk.counts.shape == (4, steps + 1, count)
        # The count planes are all the chunk keeps per cell: no answer or float plane.
        arrays = [field for field in chunk if isinstance(field, np.ndarray)]
        planes = sum(array.nbytes for array in arrays if array.ndim > 1)
        assert planes <= 4 * (steps + 1) * count * plane_type.itemsize
        own = slice(offset, offset + count)  # the chunk's columns of the layout
        offset += count
        # The tau = L cells: a slice of the last row exactly where no column has padding.
        assert isinstance(chunk.last, slice) == (not chunk.runs)
        last = np.arange(chunk.counts[0].size)[chunk.last]
        vectors = (chunk.learners, last, right[own], wrong[own])
        assert all(vector.shape == (count,) for vector in vectors)
        assert chunk.tau.tolist() == list(range(steps + 1))
        tau = np.arange(steps + 1)
        for column, learner in enumerate(chunk.learners.tolist()):
            seq, length = answers[learner], len(answers[learner])
            assert last[column] == length * count + column
            # Counted from the back of the answers; past L every plane stays as at L,
            # except the two "from tau on" planes, which are 0.
            right_from = np.append(np.cumsum(seq[::-1])[::-1], 0)
            wrong_from = np.append(np.cumsum(1 - seq[::-1])[::-1], 0)
            before = np.pad(seq.sum() - right_from, (0, steps - length), mode="edge")
            want = (
                before,
                tau - before,
                np.pad(wrong_from, (0, steps - length)),
                np.pad(right_from, (0, steps - length)),
            )
            for plane, expected in zip(chunk.counts[:, :, column], want):
                assert np.array_equal(plane, expected)
            assert chunk.counts[0].reshape(-1)[last[column]] == seq.sum()
            assert (right[own][column], wrong[own][column]) == (seq.sum(), length - seq.sum())
        padding = tau[:, None] > np.array([len(answers[i]) for i in chunk.learners.tolist()])
        for row, start, stop in chunk.runs:
            assert padding[row:, start:stop].all() and not padding[row - 1, start:stop].any()
        assert sum(stop - start for _, start, stop in chunk.runs) == np.count_nonzero(
            padding.any(axis=0)
        )


def test_dataset_chunks_keep_dataset_order_among_equal_lengths():
    # 200 learners of lengths 1-4: at most 30 distinct answer sequences, each
    # held by the first learner that gave it.
    rng = np.random.default_rng(3)
    lengths = rng.integers(1, 5, 200).tolist()
    answers = [tuple(rng.integers(0, 2, n).tolist()) for n in lengths]
    dataset = Dataset(answers)
    order = np.concatenate([chunk.learners for chunk in estep._layout_of(dataset).chunks]).tolist()
    firsts = [i for i in range(200) if answers[i] not in answers[:i]]
    assert order == sorted(firsts, key=lambda i: (-lengths[i], i))
    assert 16 < len(order) <= 30


@pytest.mark.parametrize("cells", [40, 300, estep._CHUNK_CELLS])
def test_layout_holds_each_distinct_answer_sequence_once(monkeypatch, cells):
    monkeypatch.setattr(estep, "_CHUNK_CELLS", cells)
    rng = np.random.default_rng(23)
    pool = [tuple(rng.integers(0, 2, n).tolist()) for n in rng.integers(1, 31, 40)]
    answers = [pool[i] for i in rng.integers(0, 40, 300)]
    answers += [tuple(rng.integers(0, 2, n).tolist()) for n in rng.integers(1, 31, 30)]
    dataset = Dataset(answers)
    chunks, slot, *_ = estep._layout_of(dataset)
    columns = np.concatenate([chunk.learners for chunk in chunks])
    held = [answers[i] for i in columns.tolist()]
    # Each distinct sequence is held once, save a chunk's lone sequence, held twice.
    twice = [chunk.learners.tolist() for chunk in chunks if len(set(chunk.learners.tolist())) == 1]
    assert all(len(learners) == 2 for learners in twice)
    assert len(held) == len(set(answers)) + len(twice) and set(held) == set(answers)
    # Every learner's slot is a column with its answers.
    for learner, column in enumerate(np.arange(len(answers))[slot].tolist()):
        assert held[column] == answers[learner]
    # The columns are each sequence's first learner, in stable descending-length order.
    firsts = [i for i in range(len(answers)) if answers[i] not in answers[:i]]
    distinct = list(dict.fromkeys(columns.tolist()))
    assert distinct == sorted(firsts, key=lambda i: (-len(answers[i]), i))
    assert len(chunks) > 1 or cells == estep._CHUNK_CELLS


def test_layout_slot_is_the_identity_where_no_learner_moves():
    chunks, slot, *_ = estep._layout_of(Dataset([(0, 1), (1, 0), (1, 1), (0, 0)]))
    assert slot.tolist() == [0, 1, 2, 3] and chunks[0].learners.tolist() == [0, 1, 2, 3]
    # Sorting by length moves learners, and so does a repeated sequence.
    assert estep._layout_of(Dataset([(0,), (1, 0)])).slot.tolist() == [1, 0]
    assert estep._layout_of(Dataset([(1, 0), (0, 1), (1, 0)])).slot.tolist() == [0, 1, 0]
    # One sequence alone in a chunk is held twice, in two columns.
    (chunk,), slot, *_ = estep._layout_of(Dataset([(1, 0, 1)] * 3))
    assert chunk.learners.tolist() == [0, 0] and chunk.counts.shape == (4, 4, 2)
    assert slot.tolist() in ([0, 0, 0], [1, 1, 1])


def _reference_first_learners(dataset: Dataset) -> np.ndarray:
    """Each learner's first learner with the same answers, by a dict of tuples."""

    firsts: dict[tuple[int, ...], int] = {}
    return np.array([firsts.setdefault(tuple(seq), i) for i, seq in enumerate(dataset)])


def _layouts_equal(got, want) -> bool:
    if isinstance(got, np.ndarray):
        return isinstance(want, np.ndarray) and got.dtype == want.dtype and np.array_equal(got, want)
    if isinstance(got, tuple):
        return len(got) == len(want) and all(map(_layouts_equal, got, want))
    return got == want


@pytest.mark.parametrize("lengths", [1, 30, 300])
def test_layout_groups_answers_as_the_reference_does(monkeypatch, lengths):
    # Learners share a pool of sequences, so every length has repeats, and
    # lengths past 56 answers take more than one sort key.
    rng = np.random.default_rng(lengths)
    sizes = rng.permutation(np.arange(1, lengths + 1) * (1 if lengths > 1 else 70))
    pool = [rng.integers(0, 2, n) for n in sizes.tolist() for _ in range(3)]
    pool += [np.concatenate((seq[:-1], 1 - seq[-1:])) for seq in pool[::3]]  # last answer differs
    answers = [pool[i] for i in rng.integers(0, len(pool), 4 * len(pool))]
    dataset = Dataset(tuple(AttemptSequence(a.tolist()) for a in answers))
    first = _reference_first_learners(dataset)
    assert np.array_equal(estep._first_learners(dataset), first)
    assert len(set(first.tolist())) < len(dataset)
    got = estep._layout_of(dataset)
    monkeypatch.setattr(estep, "_first_learners", lambda dataset: first)
    want = estep._layout_of(Dataset(tuple(AttemptSequence(a.tolist()) for a in answers)))
    for field in ("chunks", "slot", "right", "wrong", "workspace"):
        assert _layouts_equal(getattr(got, field), getattr(want, field)), field


def _counts_row(seq, post, loglik):
    """One sequence's expected counts in (a, b) pair order, then its log-likelihood."""

    y = np.array(list(seq))
    g0, g1 = post.gamma[:, 0], post.gamma[:, 1]
    return np.array(
        [
            g1[0],
            g0[0],
            (y * g0).sum(),
            ((1 - y) * g0).sum(),
            ((1 - y) * g1).sum(),
            (y * g1).sum(),
            post.xi[:, 0, 1].sum(),
            post.xi[:, 0, 0].sum(),
            loglik,
        ]
    )


def _stats_row(stats):
    return np.append(stats.pairs().ravel(), stats.log_likelihood)


def test_chunk_boundaries_leave_the_stats_unchanged(monkeypatch):
    rng = np.random.default_rng(14)
    theta = random_theta(rng)
    lengths = rng.permutation([1] * 6 + rng.integers(1, 10, 44).tolist())
    sequences = [AttemptSequence(random_attempts(rng, int(n))) for n in lengths]
    oracle = sum(
        _counts_row(
            seq, enumerate_posteriors(theta, seq), math.log(enumerate_likelihood(theta, seq))
        )
        for seq in sequences
    )

    default = estep._CHUNK_CELLS
    got, chunks = {}, {}
    for cells in (1, 3, 20, default):
        monkeypatch.setattr(estep, "_CHUNK_CELLS", cells)
        dataset = Dataset(tuple(sequences))
        chunks[cells] = len(estep._layout_of(dataset).chunks)
        got[cells] = _stats_row(sufficient_stats(theta, dataset))
        np.testing.assert_allclose(got[cells], oracle, rtol=1e-12)
    # A chunk holds each distinct sequence once: the six length-1 learners give two.
    distinct = len({seq.attempts for seq in sequences})
    assert chunks[1] == distinct < len(sequences)
    assert chunks[1] > chunks[3] > chunks[20] > chunks[default] == 1
    for row in got.values():
        assert np.array_equal(row, got[1])


def test_stats_are_the_in_order_sum_of_each_learners_own_row():
    # A learner's row depends on theta and its answers alone, not on its chunk's
    # width, padding or neighbours. So rows taken one learner at a time and
    # summed in dataset order give the dataset's stats bit for bit, however
    # many learners share a sequence and wherever their columns lie.
    rng = np.random.default_rng(24)
    pool = [random_attempts(rng, int(n)) for n in rng.integers(1, 31, 25)]
    sequences = [AttemptSequence(pool[i]) for i in rng.integers(0, 25, 400)]
    sequences += [sequences[i] for i in rng.permutation(400)]  # a permuted copy
    sequences.insert(137, AttemptSequence(random_attempts(rng, 300)))  # uint16 planes
    theta = random_theta(rng)
    dataset = Dataset(tuple(sequences))
    assert len(estep._layout_of(dataset).chunks[0].tau) == 301
    weights = estep._log_weights(theta, np.arange(301.0))
    own = []
    for seq in sequences:
        # The learner's sequence in both columns of a chunk of its own.
        own.append(estep._column_rows(weights, estep._layout_of(Dataset((seq, seq))))[0])
    assert np.array_equal(_stats_row(sufficient_stats(theta, dataset)), np.array(own).sum(axis=0))


def _left_fold(rows):
    """The rows added one after another, as Python floats."""

    return functools.reduce(lambda total, row: [a + b for a, b in zip(total, row)], rows)


def test_stats_are_a_left_fold_of_the_learners_rows_in_learner_order(monkeypatch):
    # Over 8,192 learners (numpy's buffer size), a permuted copy and rows from
    # 1e-12 to 1e12 of either sign, adding in any other order, pairwise or in
    # blocks, changes the bits.
    rng = np.random.default_rng(25)
    pool = [random_attempts(rng, int(n)) for n in rng.integers(1, 21, 40)]
    sequences = [AttemptSequence(pool[i]) for i in rng.integers(0, 40, 4500)]
    sequences += [sequences[i] for i in rng.permutation(4500)]
    shared = Dataset(tuple(sequences))
    distinct = Dataset([random_attempts(rng, 30) for _ in range(9000)])
    theta = random_theta(rng)
    for dataset in (shared, distinct):
        layout = estep._layout_of(dataset)
        slot = np.arange(len(layout.right))[layout.slot].tolist()
        columns = estep._column_rows(estep._log_weights(theta, layout.chunks[0].tau), layout)
        want = _left_fold(columns[column].tolist() for column in slot)
        assert _stats_row(sufficient_stats(theta, dataset)).tolist() == want
        # The same fold of made-up rows.
        magnitudes = np.exp(rng.uniform(math.log(1e-12), math.log(1e12), columns.shape))
        rows = magnitudes * rng.choice([-1.0, 1.0], columns.shape)
        monkeypatch.setattr(estep, "_column_rows", lambda weights, layout: rows)
        want = _left_fold(rows[column].tolist() for column in slot)
        assert _stats_row(sufficient_stats(theta, dataset)).tolist() == want
        monkeypatch.undo()


def test_long_learner_among_length_one_learners_matches_per_sequence_loop():
    rng = np.random.default_rng(15)
    theta = random_theta(rng)
    sequences = [AttemptSequence(random_attempts(rng, 1)) for _ in range(30)]
    sequences.insert(11, AttemptSequence(random_attempts(rng, 2000)))
    dataset = Dataset(tuple(sequences))
    cells = [(len(chunk.tau) - 1) * len(chunk.learners) for chunk in estep._layout_of(dataset).chunks]
    assert max(cells) <= estep._CHUNK_CELLS
    stats = _stats_row(sufficient_stats(theta, dataset))
    assert np.all(np.isfinite(stats))
    looped = sum(
        _counts_row(seq, posteriors(theta, seq), forward_backward(theta, seq).log_likelihood)
        for seq in sequences
    )
    np.testing.assert_allclose(stats, looped, rtol=1e-12)


def test_count_planes_of_every_width_give_the_per_sequence_counts():
    # Planes in uint16 (a 300-step learner) and uint32 (70,000 steps) among
    # ragged learners with length 1, summed as the per-sequence loop sums them.
    rng = np.random.default_rng(22)
    theta = random_theta(rng, 0.1, 0.9)
    lengths = rng.permutation([1] * 4 + rng.integers(1, 31, 36).tolist() + [300, 70_000])
    sequences = [AttemptSequence(random_attempts(rng, int(n))) for n in lengths]
    dataset = Dataset(tuple(sequences))
    widths = [chunk.counts.dtype for chunk in estep._layout_of(dataset).chunks]
    assert widths == [np.uint32, np.uint16]  # the short learners share the 300-step chunk
    stats = _stats_row(sufficient_stats(theta, dataset))
    looped = sum(
        _counts_row(seq, posteriors(theta, seq), forward_backward(theta, seq).log_likelihood)
        for seq in sequences
    )
    np.testing.assert_allclose(stats, looped, rtol=1e-12)
    # The kernel reads each plane as exact doubles, so the plane's width is invisible.
    chunks = estep._layout_of(dataset).chunks
    wide = tuple(chunk._replace(counts=chunk.counts.astype(float)) for chunk in chunks)
    dataset._layout = estep._layout_of(dataset)._replace(chunks=wide)
    assert np.array_equal(_stats_row(sufficient_stats(theta, dataset)), stats)


def test_returned_arrays_outlive_later_calls():
    rng = np.random.default_rng(16)
    theta = random_theta(rng)
    seq = AttemptSequence(random_attempts(rng, 9))
    fb, post = forward_backward(theta, seq), posteriors(theta, seq)
    returned = (fb.scaled_alpha, fb.scaled_beta, fb.scale_factors, post.gamma, post.xi)
    kept = [array.copy() for array in returned]
    for length in (9, 3, 9, 40):
        other, other_theta = AttemptSequence(random_attempts(rng, length)), random_theta(rng)
        forward_backward(other_theta, other)
        posteriors(other_theta, other)
    sufficient_stats(theta, [seq] * 5)
    for array, copy in zip(returned, kept):
        assert np.array_equal(array, copy)


def test_chunks_of_every_shape_share_one_workspace(monkeypatch):
    rng = np.random.default_rng(16)
    lengths = rng.permutation([1] * 8 + rng.integers(2, 12, 52).tolist())
    sequences = [AttemptSequence(random_attempts(rng, int(n))) for n in lengths]
    theta, other = random_theta(rng), random_theta(rng)
    looped = sum(
        _counts_row(seq, posteriors(theta, seq), forward_backward(theta, seq).log_likelihood)
        for seq in sequences
    )
    default = _stats_row(sufficient_stats(theta, Dataset(tuple(sequences))))
    assert len(estep._layout_of(Dataset(tuple(sequences))).chunks) == 1

    # NaN in every workspace cell before each chunk: a cell the chunk reads
    # without writing it first turns its rows into NaN.
    workspaces = []
    kernel = estep._switch_posteriors

    def poisoned(weights, chunk, workspace):
        workspaces.append(workspace)
        workspace.fill(np.nan)
        return kernel(weights, chunk, workspace)

    monkeypatch.setattr(estep, "_switch_posteriors", poisoned)
    # Chunk sizes under which the 47 distinct sequences fill chunks of many shapes.
    for cells in (26, 44, 74):
        monkeypatch.setattr(estep, "_CHUNK_CELLS", cells)
        dataset = Dataset(tuple(sequences))
        chunks = estep._layout_of(dataset).chunks
        # Every chunk holds two or more columns, so its sums over time run
        # in the same order as in the one default chunk.
        shapes = [chunk.counts.shape[1:] for chunk in chunks]  # (T + 1, n)
        assert min(count for _, count in shapes) >= 2
        assert len({rows for rows, _ in shapes}) > 5
        assert len({count for _, count in shapes}) > 3
        assert any(rows == 2 for rows, _ in shapes)  # a chunk of length-1 learners
        workspaces.clear()
        got = _stats_row(sufficient_stats(theta, dataset))
        assert len(workspaces) == len(chunks)
        assert all(workspace is workspaces[0] for workspace in workspaces)
        # Two planes of one row per switch time, T + 1 rows.
        largest = max(rows * count for rows, count in shapes)
        assert workspaces[0].size == 2 * largest
        assert np.array_equal(got, default)
        sufficient_stats(other, dataset)
        assert np.array_equal(_stats_row(sufficient_stats(theta, dataset)), got)
        np.testing.assert_allclose(got, looped, rtol=1e-12)


def test_one_estep_on_wide_data_allocates_one_workspace():
    dataset = simulate_dataset(TRUE_THETA, 2000, 50, 1)
    chunks = estep._layout_of(dataset).chunks
    # 1,990 of the 2,000 answer sequences are distinct, and each is held once.
    assert [chunk.counts.shape for chunk in chunks] == [(4, 51, 655)] * 3 + [(4, 51, 25)]
    assert all(chunk.counts.dtype == np.uint8 for chunk in chunks)
    # Two planes of 51 rows, one per switch time, by the widest chunk; the
    # chunks above are built and kept, so only the E-step's own arrays count.
    workspace = 2 * 51 * 655 * 8
    tracemalloc.start()
    try:
        sufficient_stats(TRUE_THETA, dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= workspace + 320 * 2**10


def _extreme_theta(rng, low=1e-6, high=0.5):
    """Coordinates log-uniform in [low, high], each mirrored to 1 - p half the time."""

    coordinates = np.exp(rng.uniform(math.log(low), math.log(high), 4))
    return ParamSet(*np.where(rng.random(4) < 0.5, 1.0 - coordinates, coordinates))


def _exact_counts_row(theta, seq):
    """One learner's _counts_row in 40-digit decimals, summed over its L + 1 switch times."""

    context = decimal.Context(prec=40)
    one = decimal.Decimal(1)
    l0, g, s, r = (decimal.Decimal(p) for p in theta.astuple())
    log = {name: context.ln(p) for name, p in dict(l0=l0, g=g, s=s, r=r).items()}
    log.update({f"1-{name}": context.ln(one - p) for name, p in dict(l0=l0, g=g, s=s, r=r).items()})
    length, before = len(seq), [0]
    for answer in seq.attempts:
        before.append(before[-1] + answer)
    right = before[-1]
    weights = []
    for tau, correct in enumerate(before):
        prior = log["l0"] if tau == 0 else log["1-l0"] + (tau - 1) * log["1-r"]
        prior += log["r"] if 0 < tau < length else 0
        emissions = correct * log["g"] + (tau - correct) * log["1-g"]
        emissions += (right - correct) * log["1-s"] + (length - tau - right + correct) * log["s"]
        weights.append(prior + emissions)
    peak = max(weights)
    q = [context.exp(w - peak) for w in weights]
    total = sum(q)
    sums = [
        q[0],
        sum(q[1:]),
        sum(p * c for p, c in zip(q, before)),
        sum(p * (tau - c) for tau, (p, c) in enumerate(zip(q, before))),
        sum(p * (length - tau - right + c) for tau, (p, c) in enumerate(zip(q, before))),
        sum(p * (right - c) for p, c in zip(q, before)),
        sum(q[1:length]),
        sum(p * max(tau - 1, 0) for tau, p in enumerate(q)),
    ]
    return np.array([float(x / total) for x in sums] + [float(peak + context.ln(total))])


def test_extreme_parameters_match_the_oracle():
    rng = np.random.default_rng(17)
    for _ in range(8):
        theta = _extreme_theta(rng)
        lengths = rng.permutation([1] * 6 + rng.integers(1, 21, 24).tolist())
        sequences = [AttemptSequence(random_attempts(rng, int(n))) for n in lengths]
        oracle = sum(
            _counts_row(
                seq, enumerate_posteriors(theta, seq), math.log(enumerate_likelihood(theta, seq))
            )
            for seq in sequences
        )
        stats = _stats_row(sufficient_stats(theta, sequences))
        np.testing.assert_allclose(stats, oracle, rtol=1e-12)
        for seq in sequences[:12]:
            got, want = posteriors(theta, seq), enumerate_posteriors(theta, seq)
            np.testing.assert_allclose(got.gamma, want.gamma, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(got.xi, want.xi, rtol=1e-12, atol=1e-300)


def test_vanishing_guess_and_slip_stay_exact():
    # g s underflows here, so delta must be a sum of logs.
    theta = ParamSet(0.5, 1e-200, 1e-200, 0.5)
    rng = np.random.default_rng(18)
    lengths = [1, 1, 1] + rng.integers(1, 21, 27).tolist()
    sequences = [AttemptSequence(random_attempts(rng, int(n))) for n in lengths]
    stats = _stats_row(sufficient_stats(theta, sequences))
    assert np.all(np.isfinite(stats))
    exact = sum(_exact_counts_row(theta, seq) for seq in sequences)
    np.testing.assert_allclose(stats, exact, rtol=1e-13)


def test_long_learners_with_extreme_parameters_match_exact_sums():
    # At 5,000 steps with coordinates near 1e-6 the log weights reach 1e5,
    # where one rounding of each would move the counts by about 1e-11.
    rng = np.random.default_rng(19)
    cases = []
    for length in (2000, 3500, 5000):
        p = rng.uniform(0.2, 0.8)
        cases.append((_extreme_theta(rng, 1e-6, 1e-5), AttemptSequence(rng.random(length) < p)))
    # Alternating answers keep W level over all 5,001 switch times, so a
    # rounded coefficient of W, times tau, shows in the counts: with W's
    # coefficients as plain doubles they are 4.9e-12 off.
    cases.append((ParamSet(0.5, 1e-6, 1e-6, 1e-6), AttemptSequence(np.arange(5000) % 2)))
    for theta, seq in cases:
        np.testing.assert_allclose(
            _stats_row(sufficient_stats(theta, [seq])), _exact_counts_row(theta, seq), rtol=1e-12
        )


def test_long_double_has_the_precision_the_estep_docstring_promises():
    # W's coefficients are taken in np.longdouble and split into a high and a
    # low part; the exactness above needs its 63-bit mantissa (x86-64's
    # 80-bit long double). Where numpy's long double is a plain double, fits
    # lose those bits.
    assert np.finfo(np.longdouble).nmant >= 63, (
        "np.longdouble has a "
        f"{np.finfo(np.longdouble).nmant}-bit mantissa; the estep module docstring's "
        "precision promise for W's coefficients assumes at least 63 bits"
    )

