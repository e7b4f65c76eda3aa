"""Dataset containers and the CSV read/write paths."""

from __future__ import annotations

import csv
import dataclasses
import io
import pickle
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bktfit import (
    AttemptSequence,
    Dataset,
    DatasetFormatError,
    read_dataset,
    simulate_dataset,
    write_dataset,
)
from bktfit import data
from bktfit.data import write_ground_truth
from bktfit.simulate import simulate_dataset_with_paths
from conftest import TRUE_THETA


def _toy_dataset() -> Dataset:
    return Dataset(
        (
            AttemptSequence((True, False, True)),
            AttemptSequence((False, False)),
            AttemptSequence((True,)),
        )
    )


def test_attempt_sequence_rejects_empty():
    with pytest.raises(ValueError):
        AttemptSequence(())


def test_attempt_sequence_as_ints():
    assert list(AttemptSequence((True, False))) == [1, 0]


def test_hidden_path_rejects_lost_proficiency(tmp_path):
    with pytest.raises(ValueError, match="learner 0 loses proficiency"):
        write_ground_truth([[1, 0]], np.array([True, False]), tmp_path / "truth.csv")
    assert not (tmp_path / "truth.csv").exists()


def test_sequences_and_paths_hold_one_byte_per_step():
    assert AttemptSequence((True, False)).attempts == b"\x01\x00"
    _, states = simulate_dataset_with_paths(TRUE_THETA, 3, 4, 0)
    assert states.dtype == np.uint8 and states.shape == (3, 4)
    assert [type(seq.attempts) for seq in _toy_dataset()] == [bytes] * 3
    assert type(_toy_dataset()[0].attempts) is bytes


@pytest.mark.parametrize(
    "attempts, bad", [(b"\x01\x02", "2"), (b"\x00\x07\x01\x02", "7"), (b"0", "48")]
)
def test_attempt_bytes_name_their_first_bad_byte(attempts, bad):
    with pytest.raises(ValueError, match=f"attempt entries must be 0/1 or boolean, got {bad}$"):
        AttemptSequence(attempts)


def test_hidden_path_bytes_must_be_monotone(tmp_path):
    # Learner 1's states fall within it; a learner may start below the last one's end.
    dataset, destination = Dataset([[1, 0], [0, 1, 1], [1]]), tmp_path / "truth.csv"
    write_ground_truth(dataset, np.array([1, 1, 0, 1, 1, 0], np.uint8), destination)
    destination.unlink()
    for states, message in [
        ([1, 1, 1, 0, 1, 1], "learner 1 loses proficiency"),
        ([0, 1, 0, 2, 1, 1], "state entries must be 0/1 or boolean, got 2$"),
        ([0, 1, 0, 1, 0.5, 1], "state entries must be 0/1 or boolean, got 0.5$"),
    ]:
        with pytest.raises(ValueError, match=message):
            write_ground_truth(dataset, np.array(states), destination)
        assert not destination.exists()


@pytest.mark.parametrize("edge", [-2, -1, 0, 3])
def test_hidden_path_falls_are_found_across_check_blocks(tmp_path, edge):
    # Learners of 7 answers over four blocks of states; the first block edge
    # falls inside learner 2,340 (16,384 = 7 * 2,340 + 4).
    dataset, destination = Dataset([[1] * 7] * 8_000), tmp_path / "truth.csv"
    states = np.ones(56_000, np.uint8)
    fell = data._WRITE_ROWS + edge  # the state at fell + 1 falls to 0
    states[fell + 1] = 0
    with pytest.raises(ValueError, match=f"learner {fell // 7} loses proficiency"):
        write_ground_truth(dataset, states, destination)
    # A bad value in a later block is reported before the fall.
    states[-1] = 2
    with pytest.raises(ValueError, match="state entries must be 0/1 or boolean, got 2$"):
        write_ground_truth(dataset, states, destination)
    assert not destination.exists()
    # A learner may start below the last one's end, here at the block edge.
    dataset = Dataset([[1] * data._WRITE_ROWS, [1] * 5])
    write_ground_truth(dataset, np.repeat(np.uint8([1, 0]), [data._WRITE_ROWS, 5]), destination)


def test_hidden_path_needs_a_state(tmp_path):
    with pytest.raises(ValueError, match="need one hidden state per answer, 1, got 0"):
        write_ground_truth([[1]], np.array([], np.uint8), tmp_path / "truth.csv")
    assert not (tmp_path / "truth.csv").exists()


def test_attempt_sequence_is_a_frozen_value_checked_on_every_construction():
    seq = AttemptSequence(attempts=(True, False, True))
    with pytest.raises(dataclasses.FrozenInstanceError):
        seq.attempts = b"\x01"  # type: ignore[misc]
    assert pickle.loads(pickle.dumps(seq)) == seq
    assert dataclasses.replace(seq) == seq
    assert dataclasses.replace(seq, attempts=[0, 1]) == AttemptSequence(b"\x00\x01")
    assert repr(seq) == "AttemptSequence(attempts=b'\\x01\\x00\\x01')"
    assert hash(seq) == hash(AttemptSequence(b"\x01\x00\x01"))
    for build in (AttemptSequence, lambda attempts: dataclasses.replace(seq, attempts=attempts)):
        with pytest.raises(ValueError, match=r"^attempt entries must be 0/1 or boolean, got 2$"):
            build([1, 2])
        with pytest.raises(ValueError, match=r"^attempt entries must be 0/1 or boolean, got 'x'$"):
            build(["x"])
        with pytest.raises(ValueError, match="^an attempt sequence needs at least one attempt$"):
            build(b"")


def test_bools_ints_and_bytes_build_the_same_sequence():
    built = [AttemptSequence((True, False, True)), AttemptSequence([1, 0, 1])]
    built.append(AttemptSequence(b"\x01\x00\x01"))
    assert built[0] == built[1] == built[2]
    assert len({hash(seq) for seq in built}) == 1



def test_dataset_answers_are_every_answer_in_order():
    answers = [(True, False, True), [0, 0], b"\x01", np.array([1, 1, 0])]
    dataset = Dataset(answers)
    assert dataset._answers.dtype == np.uint8
    assert dataset._answers.tobytes() == b"\x01\x00\x01\x00\x00\x01\x01\x01\x00"
    assert dataset._lengths.tolist() == [3, 2, 1, 3]


def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        Dataset(())


def test_dataset_encodes_answers_once_time_major(monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_CELLS", 6)
    answers = ((1, 0), (0, 1, 1), (1,), (1, 1, 0), (0, 0))
    dataset = Dataset(tuple(AttemptSequence(a) for a in answers))
    assert "_layout" not in vars(dataset)
    chunks, slot, right, wrong, workspace = dataset._layout
    assert chunks is dataset._layout.chunks
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
    chunks, _, right, wrong, workspace = dataset._layout
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
    order = np.concatenate([chunk.learners for chunk in dataset._layout.chunks]).tolist()
    firsts = [i for i in range(200) if answers[i] not in answers[:i]]
    assert order == sorted(firsts, key=lambda i: (-lengths[i], i))
    assert 16 < len(order) <= 30


@pytest.mark.parametrize("cells", [40, 300, data._CHUNK_CELLS])
def test_layout_holds_each_distinct_answer_sequence_once(monkeypatch, cells):
    monkeypatch.setattr(data, "_CHUNK_CELLS", cells)
    rng = np.random.default_rng(23)
    pool = [tuple(rng.integers(0, 2, n).tolist()) for n in rng.integers(1, 31, 40)]
    answers = [pool[i] for i in rng.integers(0, 40, 300)]
    answers += [tuple(rng.integers(0, 2, n).tolist()) for n in rng.integers(1, 31, 30)]
    dataset = Dataset(answers)
    chunks, slot, *_ = dataset._layout
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
    assert len(chunks) > 1 or cells == data._CHUNK_CELLS


def test_layout_slot_is_the_identity_where_no_learner_moves():
    chunks, slot, *_ = Dataset([(0, 1), (1, 0), (1, 1), (0, 0)])._layout
    assert slot.tolist() == [0, 1, 2, 3] and chunks[0].learners.tolist() == [0, 1, 2, 3]
    # Sorting by length moves learners, and so does a repeated sequence.
    assert Dataset([(0,), (1, 0)])._layout.slot.tolist() == [1, 0]
    assert Dataset([(1, 0), (0, 1), (1, 0)])._layout.slot.tolist() == [0, 1, 0]
    # One sequence alone in a chunk is held twice, in two columns.
    (chunk,), slot, *_ = Dataset([(1, 0, 1)] * 3)._layout
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
    assert np.array_equal(dataset._first_learners(), first)
    assert len(set(first.tolist())) < len(dataset)
    got = dataset._layout
    monkeypatch.setattr(Dataset, "_first_learners", lambda self: first)
    want = Dataset(tuple(AttemptSequence(a.tolist()) for a in answers))._layout
    for field in ("chunks", "slot", "right", "wrong", "workspace"):
        assert _layouts_equal(getattr(got, field), getattr(want, field)), field


def test_dataset_round_trip(tmp_path):
    dataset = _toy_dataset()
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    assert read_dataset(path) == dataset


_COLUMNS = ("learner_id", "step", "correct")
_TRUTH_COLUMNS = _COLUMNS + ("proficient",)


def test_ground_truth_holds_answers_and_states_as_csv_writer_writes_them(tmp_path):
    # Nothing reads a ground-truth file back: its bytes are checked instead.
    dataset = Dataset((AttemptSequence((True, False)), AttemptSequence((False,))))
    destination = tmp_path / "truth.csv"
    write_ground_truth(dataset, np.array([0, 1, 1], np.uint8), destination)
    rows = [(0, 1, 1, 0), (0, 2, 0, 1), (1, 1, 0, 1)]
    assert destination.read_bytes() == _csv_bytes(_TRUTH_COLUMNS, rows)


@pytest.mark.parametrize("count", [2, 4], ids=["fewer", "more"])
def test_ground_truth_needs_one_state_per_answer(tmp_path, count):
    dataset = Dataset((AttemptSequence((True, False)), AttemptSequence((False,))))
    destination = tmp_path / "truth.csv"
    with pytest.raises(ValueError, match=f"need one hidden state per answer, 3, got {count}$"):
        write_ground_truth(dataset, np.ones(count, np.uint8), destination)
    assert not destination.exists()


def test_ground_truth_takes_the_simulator_states_as_they_are(tmp_path):
    # A (learners, steps) array ravels to the dataset's answer order, and
    # bools and ints write as the uint8 states do.
    dataset, states = simulate_dataset_with_paths(TRUE_THETA, 4, 3, 5)
    write_ground_truth(dataset, states, tmp_path / "grid.csv")
    for flat in (states.ravel().astype(bool), states.ravel().tolist()):
        write_ground_truth(dataset, np.array(flat), tmp_path / "flat.csv")
        assert (tmp_path / "flat.csv").read_bytes() == (tmp_path / "grid.csv").read_bytes()


def test_readers_accept_a_byte_order_mark(tmp_path):
    # Spreadsheet programs save "UTF-8 CSV" with a leading byte-order mark.
    dataset = Dataset((AttemptSequence((True, False)), AttemptSequence((False,))))
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_dataset(path) == dataset


def test_dataset_header_and_ids(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset(_toy_dataset(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "learner_id,step,correct"
    assert lines[1] == "0,1,1"
    assert lines[2] == "0,2,0"
    # 3 + 2 + 1 data rows
    assert len(lines) == 7


def test_writers_take_any_iterable_of_answer_sequences(tmp_path):
    expected = Dataset((AttemptSequence((True, False)), AttemptSequence((False,))))
    for answers in ([[1, 0], [0]], iter([(True, False), (False,)])):
        write_dataset(answers, tmp_path / "data.csv")
        assert read_dataset(tmp_path / "data.csv") == expected
    write_ground_truth(iter([[1, 0], [0]]), np.array([0, 1, 1]), tmp_path / "truth.csv")
    rows = [(0, 1, 1, 0), (0, 2, 0, 1), (1, 1, 0, 1)]
    assert (tmp_path / "truth.csv").read_bytes() == _csv_bytes(_TRUTH_COLUMNS, rows)


def _csv_bytes(header: tuple[str, ...], rows: list[tuple[int, ...]]) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


def _golden_lengths(case: str) -> list[int]:
    rng = np.random.default_rng(17)
    if case == "widths":
        # Ids cross 9/10 through 9999/10000; learner 5's steps cross 9/10
        # through 999/1000; most learners have one or two answers.
        lengths = rng.integers(1, 3, 10_002).tolist()
        lengths[5] = 1_000
        return lengths
    total = data._WRITE_ROWS + {"block-1": -1, "block": 0, "block+1": 1}[case]
    lengths: list[int] = []
    while sum(lengths) < total:
        lengths.append(min(int(rng.integers(1, 31)), total - sum(lengths)))
    return lengths


@pytest.mark.parametrize("case", ["widths", "block-1", "block", "block+1"])
def test_writers_write_the_bytes_of_csv_writer(tmp_path, case):
    lengths = _golden_lengths(case)
    rng = np.random.default_rng(len(lengths))
    answers = [rng.integers(0, 2, n).tolist() for n in lengths]
    switches = rng.integers(0, 40, len(lengths)).tolist()
    states = [[int(t >= k) for t in range(n)] for n, k in zip(lengths, switches)]
    rows = [
        (learner, step + 1, answer, state)
        for learner, (seq, path) in enumerate(zip(answers, states))
        for step, (answer, state) in enumerate(zip(seq, path))
    ]
    dataset = Dataset(answers)
    write_dataset(dataset, tmp_path / "data.csv")
    expected = _csv_bytes(_COLUMNS, [row[:3] for row in rows])
    assert (tmp_path / "data.csv").read_bytes() == expected
    write_ground_truth(dataset, np.concatenate(states), tmp_path / "truth.csv")
    expected = _csv_bytes(_TRUTH_COLUMNS, rows)
    assert (tmp_path / "truth.csv").read_bytes() == expected


def _edge_lengths(case: str) -> list[int]:
    if case == "learner-over-three-blocks":
        # Learner 1 starts inside block 0, ends in block 2, and its steps
        # cross 9,999/10,000 inside block 0.
        return [5, 2 * data._WRITE_ROWS + 7, 3]
    if case == "ids-cross-100000":
        return [1] * 100_002  # ids 99,999 and 100,000 are rows of block 6
    return [7] * 5_000  # 16,384 = 7 * 2,340 + 4: blocks 1 and 2 start inside a learner


def _edge_rows(lengths: list[int]) -> tuple[Dataset, np.ndarray, list[tuple[int, ...]]]:
    """A dataset of these lengths, its states, and its truth rows built one by one."""

    rng = np.random.default_rng(len(lengths))
    answers = rng.integers(0, 2, sum(lengths), dtype=np.uint8).tobytes()
    switches = rng.integers(0, 40, len(lengths)).tolist()
    rows, at = [], 0
    for learner, (n, switch) in enumerate(zip(lengths, switches)):
        rows += [(learner, step, answers[at + step - 1], int(step > switch)) for step in range(1, n + 1)]
        at += n
    dataset = Dataset(answers[lo : lo + n] for lo, n in zip(np.cumsum([0] + lengths).tolist(), lengths))
    return dataset, np.array([row[3] for row in rows], dtype=np.uint8), rows


@pytest.mark.parametrize("case", ["learner-over-three-blocks", "ids-cross-100000", "mid-learner"])
def test_writer_edges_write_the_bytes_of_csv_writer(tmp_path, case):
    dataset, states, rows = _edge_rows(_edge_lengths(case))
    write_dataset(dataset, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_bytes() == _csv_bytes(_COLUMNS, [row[:3] for row in rows])
    write_ground_truth(dataset, states, tmp_path / "truth.csv")
    assert (tmp_path / "truth.csv").read_bytes() == _csv_bytes(_TRUTH_COLUMNS, rows)


def test_ground_truth_writes_bool_and_number_states_as_the_same_bytes(tmp_path):
    dataset, states, rows = _edge_rows(_edge_lengths("learner-over-three-blocks"))
    expected = _csv_bytes(_TRUTH_COLUMNS, rows)
    for dtype in (bool, np.uint8, np.int64, np.float64):
        write_ground_truth(dataset, states.astype(dtype), tmp_path / "truth.csv")
        assert (tmp_path / "truth.csv").read_bytes() == expected, dtype


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="empty file"):
        read_dataset(path)


def test_read_rejects_header_only(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("learner_id,step,correct\n")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        read_dataset(path)


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n0,1,1\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        read_dataset(path)


def test_read_names_offending_line_for_bad_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("learner_id,step,correct\n0,1,1\n0,2,2\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        read_dataset(path)


def test_read_rejects_non_contiguous_learners(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "learner_id,step,correct\n0,1,1\n1,1,0\n0,2,1\n"
    )
    with pytest.raises(DatasetFormatError, match="line 4"):
        read_dataset(path)


# Each cell is one that int() reads as a valid learner_id (1) or step (2).
@pytest.mark.parametrize(
    "row",
    [
        "1_0,1,1",
        "+1,1,1",
        " 1,1,1",
        "1 ,1,1",
        "\u0661,1,1",
        "0,+2,1",
        "0, 2,1",
        "0,2 ,1",
        "0,0_2,1",
        "0,\u0662,1",
    ],
)
@pytest.mark.parametrize("crlf", [False, True])
def test_read_rejects_non_decimal_integers(tmp_path, row, crlf):
    end = "\r\n" if crlf else "\n"
    path = tmp_path / "data.csv"
    path.write_bytes(f"learner_id,step,correct{end}0,1,1{end}{row}{end}".encode())
    with pytest.raises(DatasetFormatError, match="line 3: .* decimal integer"):
        read_dataset(path)


@pytest.mark.parametrize("crlf", [False, True])
@pytest.mark.parametrize("row", [b"0,2,\xe9", b"\xe9,2,1", b"0,\xc3(,1"])
def test_readers_name_the_line_of_a_byte_that_is_not_utf8(tmp_path, row, crlf):
    end = b"\r\n" if crlf else b"\n"
    path = tmp_path / "data.csv"
    path.write_bytes(b"learner_id,step,correct" + end + b"0,1,1" + end + row + end)
    with pytest.raises(DatasetFormatError, match="line 3: "):
        read_dataset(path)


def test_read_names_line_1_for_a_header_that_is_not_utf8(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"learner_id,st\xe9p,correct\n0,1,1\n")
    with pytest.raises(DatasetFormatError, match="line 1: "):
        read_dataset(path)


def test_read_rejects_bad_step_numbering(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("learner_id,step,correct\n0,1,1\n0,3,0\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        read_dataset(path)


def test_read_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("learner_id,step,correct\n0,1\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        read_dataset(path)


def test_dataset_iteration_and_indexing_rebuild_the_sequences():
    sequences = [AttemptSequence((True, False, True)), AttemptSequence((False,))]
    dataset = Dataset(sequences)
    assert list(dataset) == sequences
    assert dataset[1] == dataset[-1] == sequences[1]
    assert dataset[0].attempts == b"\x01\x00\x01"
    with pytest.raises(IndexError):
        dataset[2]
    assert dataset == Dataset(tuple(sequences))
    assert dataset != Dataset(sequences[:1])


def test_dataset_is_unequal_to_other_types_and_repr_lists_its_sequences():
    sequences = [AttemptSequence((True, False))]
    dataset = Dataset(sequences)
    assert (dataset == 3) is False
    assert repr(dataset) == f"Dataset({sequences!r})"


def test_read_rejects_a_quoted_cell(tmp_path):
    # Cells are split at bare commas; csv quoting is not unwrapped.
    path = tmp_path / "data.csv"
    path.write_text('learner_id,step,correct\n0,1,1\n"0",2,1\n')
    with pytest.raises(DatasetFormatError, match="line 3: learner_id .* got '\"0\"'"):
        read_dataset(path)


def _reference_table(raw: bytes) -> list[list[bool]]:
    """The row-by-row reader that the block reader replaced: the oracle it must match.

    Lines are split at LF with one trailing CR dropped, cells at bare commas;
    otherwise every check and message is the one the reader documents.
    """

    header = list(_COLUMNS)
    text = raw.decode("utf-8-sig", errors="surrogateescape")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetFormatError("empty file: expected a header row")
    lines = [line.removesuffix("\r") for line in lines]
    rows = [line.split(",") if line else [] for line in lines]

    def quote(text: str, show=repr) -> str:
        return show(text) if len(text) <= 80 else f"{show(text[:80])}... ({len(text)} characters)"

    if rows[0] != header:
        raise DatasetFormatError(
            f"line 1: expected header {','.join(header)!r}, got {quote(lines[0])}"
        )

    def count(text: str, column: str, lineno: int) -> int:
        if text.isascii() and text.isdigit():
            return int(text)
        raise DatasetFormatError(
            f"line {lineno}: {column} must be a non-negative decimal integer, got {quote(text)}"
        )

    learners: list[list[bool]] = []
    seen: set[int] = set()
    current_id: int | None = None
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise DatasetFormatError(f"line {lineno}: expected 3 columns, got {len(row)}")
        learner_id = count(row[0], "learner_id", lineno)
        step = count(row[1], "step", lineno)
        if row[2] not in ("0", "1"):
            raise DatasetFormatError(f"line {lineno}: correct must be 0 or 1, got {quote(row[2])}")
        if learner_id != current_id:
            if learner_id in seen:
                raise DatasetFormatError(
                    f"line {lineno}: learner {quote(str(learner_id), str)} appears in "
                    "non-contiguous blocks"
                )
            seen.add(learner_id)
            learners.append([])
            current_id = learner_id
        attempts = learners[-1]
        if step != len(attempts) + 1:
            raise DatasetFormatError(
                f"line {lineno}: expected step {len(attempts) + 1} for learner "
                f"{quote(str(learner_id), str)}, got {quote(str(step), str)}"
            )
        attempts.append(row[2] == "1")
    if not learners:
        raise DatasetFormatError("no data rows: dataset is empty")
    return learners


# Ids around the int64 and 18-digit limits take the reader's wide-cell path.
_IDS = st.one_of(
    st.integers(0, 40),
    st.integers(10**18 - 2, 10**18 + 2),
    st.integers(2**63 - 2, 2**63 + 2),
    st.integers(10**25, 10**25 + 2),
)


@st.composite
def _dataset_files(draw, valid: bool = True, ids=_IDS) -> bytes:
    """A dataset file, in any accepted framing.

    Unless valid, a learner id may repeat, which splits a learner into
    blocks or restarts one at step 1.
    """

    ids = draw(st.lists(ids, min_size=1, max_size=6, unique=valid))
    lines = [",".join(_COLUMNS)]
    for learner_id in ids:
        for step in range(1, draw(st.integers(1, 5)) + 1):
            zeros = "0" * draw(st.integers(0, 2))  # int() reads "007" as 7
            lines.append(f"{zeros}{learner_id},{zeros}{step},{draw(st.integers(0, 1))}")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode()


def _assert_reads_as_reference(path, raw: bytes, block: int) -> None:
    path.write_bytes(raw)
    try:
        expected = _reference_table(raw)
    except DatasetFormatError as exc:
        with mock.patch.object(data, "_BLOCK_BYTES", block):
            with pytest.raises(DatasetFormatError) as got:
                read_dataset(path)
        assert str(got.value) == str(exc)
    else:
        with mock.patch.object(data, "_BLOCK_BYTES", block):
            assert [list(seq) for seq in read_dataset(path)] == expected


# Small blocks cut lines, cells, the CR of a CRLF and the byte-order mark.
_BLOCKS = st.sampled_from([1, 2, 3, 7, 64, data._BLOCK_BYTES])
_FIXTURE_OK = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FIXTURE_OK
@given(draws=st.data(), block=_BLOCKS)
def test_valid_files_read_as_the_reference_reads_them(tmp_path, draws, block):
    raw = draws.draw(_dataset_files())
    assert _reference_table(raw)
    _assert_reads_as_reference(tmp_path / "data.csv", raw, block)


_CORRUPT_BYTES = list(b'019,\n\r" +-a\x00\xe9\xef\xff')


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    draws=st.data(),
    edit=st.sampled_from(["replace", "insert", "delete"]),
    byte=st.sampled_from(_CORRUPT_BYTES),
    block=_BLOCKS,
)
def test_single_byte_corruptions_read_or_fail_as_the_reference(tmp_path, draws, edit, byte, block):
    raw = draws.draw(_dataset_files(valid=False))
    at = draws.draw(st.integers(0, len(raw) - (edit != "insert")))
    tail = raw[at + (edit != "insert") :]
    corrupted = raw[:at] + (bytes([byte]) if edit != "delete" else b"") + tail
    _assert_reads_as_reference(tmp_path / "data.csv", corrupted, block)


def test_a_line_of_many_blocks_is_read_in_time_linear_in_its_length(tmp_path):
    # CR-only line ends (classic Mac) make the whole file one line, here of
    # 125,000 blocks: joining them one at a time copied the line so far for
    # each, in time quadratic in its length.
    path = tmp_path / "mac.csv"
    path.write_bytes(b"learner_id,step,correct" + b"\r0,1,1" * 333_333 + b"\r")
    with mock.patch.object(data, "_BLOCK_BYTES", 16):
        start = time.perf_counter()
        with pytest.raises(DatasetFormatError) as error:
            read_dataset(path)
        assert time.perf_counter() - start < 2.0
    # The message quotes the line's first 80 characters, its last CR read as
    # a line end, and gives its length.
    line = path.read_bytes().decode().removesuffix("\r")
    assert str(error.value) == (
        f"line 1: expected header 'learner_id,step,correct', got {line[:80]!r}... "
        f"({len(line)} characters)"
    )


def test_a_bad_cell_is_quoted_up_to_80_characters(tmp_path):
    path = tmp_path / "data.csv"
    for cell, shown in [("x" * 80, repr("x" * 80)), ("x" * 81, f"{'x' * 80!r}... (81 characters)")]:
        path.write_text(f"learner_id,step,correct\n0,1,{cell}\n")
        with pytest.raises(DatasetFormatError) as error:
            read_dataset(path)
        assert str(error.value) == f"line 2: correct must be 0 or 1, got {shown}"


# int() refuses strings of more than 4,300 digits. Messages show the first
# 80 digits of such a cell, as they quote 80 characters of any other.
_LONG = "9" * 5_000
_SHOWN = f"{_LONG[:80]}... (5000 characters)"


@pytest.mark.parametrize(
    "rows, message",
    [
        ([f"{_LONG},2,1"], f"line 2: expected step 1 for learner {_SHOWN}, got 2"),
        (["0,1,1", f"0,{_LONG},1"], f"line 3: expected step 2 for learner 0, got {_SHOWN}"),
        (
            [f"{_LONG},1,1", "5,1,0", f"000{_LONG},1,1"],
            f"line 4: learner {_SHOWN} appears in non-contiguous blocks",
        ),
        ([f"{_LONG},1,1", f"{_LONG}x,2,1"], "line 3: learner_id must be a non-negative"),
    ],
    ids=["learner", "step", "non-contiguous", "not-digits"],
)
def test_cells_of_more_than_4300_digits_fail_with_their_line(tmp_path, rows, message):
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["learner_id,step,correct", *rows]) + "\n")
    with pytest.raises(DatasetFormatError) as error:
        read_dataset(path)
    assert str(error.value).startswith(message)
    assert len(str(error.value)) < 200


def test_long_learner_cells_are_one_learner_whatever_their_leading_zeros(tmp_path):
    # "007" is learner 7, in cells of any length, beyond int64 or not.
    path = tmp_path / "data.csv"
    rows = [f"{_LONG},1,1", f"00{_LONG},2,0", f"{'0' * 30}7,1,1", "7,2,1", f"{'0' * 4_999}7,3,0"]
    path.write_text("\n".join(["learner_id,step,correct", *rows]) + "\n")
    assert read_dataset(path) == Dataset([(1, 0), (1, 1, 0)])


def _ragged_dataset(learners: int, seed: int) -> Dataset:
    full = simulate_dataset(TRUE_THETA, learners, 30, seed)
    cut = np.random.default_rng(seed).integers(1, 31, learners).tolist()
    return Dataset(AttemptSequence(seq.attempts[:n]) for seq, n in zip(full, cut))


@pytest.mark.parametrize("block", [97, 4096, data._BLOCK_BYTES])
def test_large_files_read_back_at_any_block_size(tmp_path, block):
    # 2,000 learners of 1-30 answers, about 31,000 rows: blocks cut lines,
    # cells and CRLFs many times over, within and between learners.
    dataset = _ragged_dataset(2000, 5)
    crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
    write_dataset(dataset, crlf)
    lf.write_bytes(b"\xef\xbb\xbf" + crlf.read_bytes().replace(b"\r\n", b"\n"))
    with mock.patch.object(data, "_BLOCK_BYTES", block):
        for path in (crlf, lf):
            assert read_dataset(path) == dataset


# Learner cells of about the 8 bytes that the reader compares as one integer,
# leading zeros included: "01234567" and "91234567" differ in their first
# byte only, the lowest of that integer.
_EIGHT_BYTE_IDS = st.builds(
    lambda head, tail: head * 10**7 + tail,
    st.integers(0, 10),
    st.sampled_from([0, 1, 1_234_567, 9_999_999]),
)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draws=st.data(), valid=st.booleans(), block=_BLOCKS)
def test_eight_byte_learner_cells_read_as_the_reference(tmp_path, draws, valid, block):
    raw = draws.draw(_dataset_files(valid, _EIGHT_BYTE_IDS))
    _assert_reads_as_reference(tmp_path / "data.csv", raw, block)


def test_read_dataset_memory_stays_within_a_constant_of_the_file_size(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset(simulate_dataset(TRUE_THETA, 10_000, 20, 0), path)  # 200k rows
    size = path.stat().st_size
    tracemalloc.start()
    try:
        dataset = read_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 10_000
    assert peak <= 2 * size + 4 * 2**20, (peak, size)


def test_write_dataset_memory_stays_within_a_constant_of_one_block(tmp_path):
    peaks = []
    for learners in (5_000, 20_000):  # 100k and 400k rows
        dataset = simulate_dataset(TRUE_THETA, learners, 20, 0)
        tracemalloc.start()
        try:
            write_dataset(dataset, tmp_path / "data.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0], peaks
    assert peaks[0] <= 100 * data._WRITE_ROWS + 2**20, peaks


def test_ground_truth_memory_stays_within_a_constant_of_the_dataset_writer(tmp_path):
    # The states are checked a block at a time: at 1.6M rows the truth
    # writer peaks near write_dataset, not at full-length temporaries.
    dataset, states = simulate_dataset_with_paths(TRUE_THETA, 80_000, 20, 0)
    writes = (
        lambda path: write_dataset(dataset, path),
        lambda path: write_ground_truth(dataset, states, path),
    )
    peaks = []
    for write in writes:
        tracemalloc.start()
        try:
            write(tmp_path / "out.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0], peaks
