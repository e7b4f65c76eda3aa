"""Dataset containers and the CSV read/write paths."""

from __future__ import annotations

import numpy as np
import pytest

from bktfit import AttemptSequence, Dataset, DatasetFormatError, read_dataset, write_dataset
from bktfit import data
from bktfit.data import HiddenPath, read_ground_truth, write_ground_truth


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
    assert AttemptSequence((True, False)).as_ints() == [1, 0]


def test_hidden_path_rejects_lost_proficiency():
    with pytest.raises(ValueError, match="loses proficiency"):
        HiddenPath((True, False))


def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        Dataset(())


def test_dataset_encodes_answers_once_time_major(monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_CELLS", 6)
    answers = ((1, 0), (0, 1, 1), (1,), (1, 1, 0), (0, 0))
    dataset = Dataset(tuple(AttemptSequence(a) for a in answers))
    assert "_chunks" not in vars(dataset)
    chunks = dataset._chunks
    assert chunks is dataset._chunks
    # Stable descending length: the two length-3 and the two length-2
    # learners keep their dataset order. Six cells take two learners of
    # length 3, then three of length 2 or less.
    assert [learners.tolist() for learners, _, _ in chunks] == [[1, 3], [0, 4, 2]]
    (_, first, first_active), (_, second, second_active) = chunks
    assert first.dtype == second.dtype == np.uint8
    assert first.tolist() == [[0, 1], [1, 1], [1, 0]]
    assert second.tolist() == [[1, 0, 1], [0, 0, data._PADDING]]
    assert first_active.tolist() == [2, 2, 2]
    assert second_active.tolist() == [3, 2]


def test_dataset_chunks_keep_dataset_order_among_equal_lengths():
    rng = np.random.default_rng(3)
    lengths = rng.integers(1, 5, 200).tolist()
    dataset = Dataset(tuple(AttemptSequence((True,) * n) for n in lengths))
    order = np.concatenate([learners for learners, _, _ in dataset._chunks]).tolist()
    assert order == sorted(range(200), key=lambda i: (-lengths[i], i))


def test_dataset_round_trip(tmp_path):
    dataset = _toy_dataset()
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    assert read_dataset(path) == dataset


def test_ground_truth_round_trip(tmp_path):
    dataset = Dataset((AttemptSequence((True, False)), AttemptSequence((False,))))
    paths = (HiddenPath((False, True)), HiddenPath((True,)))
    destination = tmp_path / "truth.csv"
    write_ground_truth(dataset, paths, destination)
    got_dataset, got_paths = read_ground_truth(destination)
    assert got_dataset == dataset
    assert got_paths == paths


def test_readers_accept_a_byte_order_mark(tmp_path):
    # Spreadsheet programs save "UTF-8 CSV" with a leading byte-order mark.
    dataset = Dataset((AttemptSequence((True, False)), AttemptSequence((False,))))
    paths = (HiddenPath((False, True)), HiddenPath((True,)))
    data_path, truth_path = tmp_path / "data.csv", tmp_path / "truth.csv"
    write_dataset(dataset, data_path)
    write_ground_truth(dataset, paths, truth_path)
    for path in (data_path, truth_path):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_dataset(data_path) == dataset
    assert read_ground_truth(truth_path) == (dataset, paths)


def test_dataset_header_and_ids(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset(_toy_dataset(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "learner_id,step,correct"
    assert lines[1] == "0,1,1"
    assert lines[2] == "0,2,0"
    # 3 + 2 + 1 data rows
    assert len(lines) == 7


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
@pytest.mark.parametrize("truth", [False, True])
def test_read_rejects_non_decimal_integers(tmp_path, row, truth):
    extra = ",1" if truth else ""
    header = "learner_id,step,correct" + (",proficient" if truth else "")
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\n0,1,1{extra}\n{row}{extra}\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 3: .* decimal integer"):
        (read_ground_truth if truth else read_dataset)(path)


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
