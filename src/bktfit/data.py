"""Learner response sequences, datasets, and their CSV serialization.

Dataset files are UTF-8 CSV with header ``learner_id,step,correct``:
learner_id is a non-negative integer, step starts at 1 and increments by 1
within a learner, correct is 0 or 1, and rows are sorted by learner then
step. The optional ground-truth variant carries one extra ``proficient``
column with the hidden state that generated each attempt.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "AttemptSequence",
    "HiddenPath",
    "Dataset",
    "DatasetFormatError",
    "read_dataset",
    "write_dataset",
    "read_ground_truth",
    "write_ground_truth",
]

_DATASET_HEADER = ["learner_id", "step", "correct"]
_TRUTH_HEADER = ["learner_id", "step", "correct", "proficient"]


class DatasetFormatError(ValueError):
    """A dataset file violates the expected CSV layout."""


def _as_bool_tuple(values: Iterable[object], what: str) -> tuple[bool, ...]:
    out: list[bool] = []
    for value in values:
        if isinstance(value, bool):
            out.append(value)
            continue
        try:
            number = int(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ValueError(f"{what} entries must be 0/1 or boolean, got {value!r}") from None
        if number != value or number not in (0, 1):
            raise ValueError(f"{what} entries must be 0/1 or boolean, got {value!r}")
        out.append(bool(number))
    return tuple(out)


@dataclass(frozen=True)
class AttemptSequence:
    """Ordered correctness record for one learner, True meaning correct."""

    attempts: tuple[bool, ...]

    def __post_init__(self) -> None:
        attempts = _as_bool_tuple(self.attempts, "attempt")
        if not attempts:
            raise ValueError("an attempt sequence needs at least one attempt")
        object.__setattr__(self, "attempts", attempts)

    def __len__(self) -> int:
        return len(self.attempts)

    def __iter__(self) -> Iterator[bool]:
        return iter(self.attempts)

    def as_ints(self) -> list[int]:
        return [int(a) for a in self.attempts]


@dataclass(frozen=True)
class HiddenPath:
    """Proficiency states behind one attempt sequence.

    Proficiency is absorbing, so the path must be monotone: once True it
    stays True.
    """

    states: tuple[bool, ...]

    def __post_init__(self) -> None:
        states = _as_bool_tuple(self.states, "state")
        if not states:
            raise ValueError("a hidden path needs at least one state")
        for earlier, later in zip(states, states[1:]):
            if earlier and not later:
                raise ValueError("hidden path loses proficiency, which the model forbids")
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[bool]:
        return iter(self.states)


@dataclass(frozen=True)
class Dataset:
    """One attempt sequence per learner; lengths may differ."""

    sequences: tuple[AttemptSequence, ...]

    def __post_init__(self) -> None:
        sequences = tuple(as_sequence(seq) for seq in self.sequences)
        if not sequences:
            raise ValueError("a dataset needs at least one learner")
        object.__setattr__(self, "sequences", sequences)

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[AttemptSequence]:
        return iter(self.sequences)

    def __getitem__(self, index: int) -> AttemptSequence:
        return self.sequences[index]


def as_sequence(seq: AttemptSequence | Iterable[object]) -> AttemptSequence:
    """The sequence itself, or one validated from an iterable of answers."""

    return seq if isinstance(seq, AttemptSequence) else AttemptSequence(tuple(seq))


def as_dataset(data: Dataset | Iterable[object]) -> Dataset:
    """The dataset itself, or one built once from an iterable of sequences."""

    return data if isinstance(data, Dataset) else Dataset(tuple(data))


def write_dataset(dataset: Dataset, destination: str | Path) -> None:
    """Write the dataset in the canonical CSV layout."""

    with open(destination, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_DATASET_HEADER)
        for learner_id, seq in enumerate(dataset):
            for step, correct in enumerate(seq, start=1):
                writer.writerow([learner_id, step, int(correct)])


def write_ground_truth(
    dataset: Dataset, paths: Iterable[HiddenPath], destination: str | Path
) -> None:
    """Write attempts together with the hidden states that generated them."""

    paths = tuple(paths)
    if len(paths) != len(dataset):
        raise ValueError("need exactly one hidden path per learner")
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_TRUTH_HEADER)
        for learner_id, (seq, path) in enumerate(zip(dataset, paths)):
            if len(path) != len(seq):
                raise ValueError(f"hidden path length mismatch for learner {learner_id}")
            rows = zip(seq, path)
            for step, (correct, proficient) in enumerate(rows, start=1):
                writer.writerow([learner_id, step, int(correct), int(proficient)])


def _parse_binary(text: str, column: str, lineno: int) -> bool:
    if text == "0":
        return False
    if text == "1":
        return True
    raise DatasetFormatError(f"line {lineno}: {column} must be 0 or 1, got {text!r}")


def _read_rows(source: str | Path, header: list[str]) -> list[list[str]]:
    with open(source, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows:
        raise DatasetFormatError("empty file: expected a header row")
    if rows[0] != header:
        raise DatasetFormatError(
            f"line 1: expected header {','.join(header)!r}, got {','.join(rows[0])!r}"
        )
    if len(rows) == 1:
        raise DatasetFormatError("no data rows: dataset is empty")
    return rows[1:]


def _parse_table(
    rows: list[list[str]], width: int
) -> list[tuple[int, list[bool], list[bool]]]:
    """Group validated rows into (learner_id, attempts, extras) triples."""

    learners: list[tuple[int, list[bool], list[bool]]] = []
    current_id: int | None = None
    for offset, row in enumerate(rows):
        lineno = offset + 2  # header occupies line 1
        if len(row) != width:
            raise DatasetFormatError(f"line {lineno}: expected {width} columns, got {len(row)}")
        try:
            learner_id = int(row[0])
            step = int(row[1])
        except ValueError:
            raise DatasetFormatError(
                f"line {lineno}: learner_id and step must be integers"
            ) from None
        if learner_id < 0:
            raise DatasetFormatError(f"line {lineno}: learner_id must be non-negative")
        correct = _parse_binary(row[2], "correct", lineno)
        extra = [_parse_binary(cell, "proficient", lineno) for cell in row[3:width]]
        if learner_id != current_id:
            if any(learner_id == seen for seen, _, _ in learners):
                raise DatasetFormatError(
                    f"line {lineno}: learner {learner_id} appears in non-contiguous blocks"
                )
            learners.append((learner_id, [], []))
            current_id = learner_id
        attempts = learners[-1][1]
        if step != len(attempts) + 1:
            raise DatasetFormatError(
                f"line {lineno}: expected step {len(attempts) + 1} for learner "
                f"{learner_id}, got {step}"
            )
        attempts.append(correct)
        if extra:
            learners[-1][2].append(extra[0])
    return learners


def read_dataset(source: str | Path) -> Dataset:
    """Read a dataset CSV, validating the layout row by row."""

    rows = _read_rows(source, _DATASET_HEADER)
    learners = _parse_table(rows, width=3)
    return Dataset(tuple(AttemptSequence(tuple(attempts)) for _, attempts, _ in learners))


def read_ground_truth(source: str | Path) -> tuple[Dataset, tuple[HiddenPath, ...]]:
    """Read a ground-truth CSV, returning attempts and hidden paths."""

    rows = _read_rows(source, _TRUTH_HEADER)
    learners = _parse_table(rows, width=4)
    dataset = Dataset(tuple(AttemptSequence(tuple(attempts)) for _, attempts, _ in learners))
    paths = tuple(HiddenPath(tuple(states)) for _, _, states in learners)
    return dataset, paths
