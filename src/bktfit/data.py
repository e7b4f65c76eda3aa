"""Learner response sequences, datasets, and their CSV serialization.

Dataset files are UTF-8 CSV with header ``learner_id,step,correct``:
learner_id is a non-negative integer, step starts at 1 and increments by 1
within a learner, correct is 0 or 1, and rows are sorted by learner then
step. The optional ground-truth variant carries one extra ``proficient``
column with the hidden state that generated each attempt. learner_id and
step cells hold ASCII decimal digits only.

A Dataset encodes its answers once: the first E-step that reads it sorts
the learners by descending length into time-major chunks (Dataset._chunks),
and every later E-step of every fit on that dataset reuses them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

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

# An E-step holds about a dozen float arrays of _CHUNK_CELLS at a time: a
# chunk takes _CHUNK_CELLS // T learners, T the longest of them.
_CHUNK_CELLS = 1 << 15
_PADDING = 2  # answer code of the cells after a learner's last attempt


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

    @cached_property
    def _chunks(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(learners, answers, active) per chunk, built on first use and kept.

        learners: dataset indices, stable descending-length order; answers:
        (T, n) uint8, 0 incorrect, 1 correct, _PADDING after the last attempt;
        active[t]: learners with an attempt at step t, a prefix of the chunk.
        """

        lengths = np.array([len(seq) for seq in self.sequences])
        order = np.argsort(-lengths, kind="stable")
        chunks, start = [], 0
        while start < len(order):
            learners = order[start : start + max(1, _CHUNK_CELLS // lengths[order[start]])]
            start += len(learners)
            sizes = lengths[learners]
            filled = np.arange(sizes[0]) < sizes[:, None]
            cells = np.full(filled.shape, _PADDING, dtype=np.uint8)
            attempts = chain.from_iterable(self.sequences[i].attempts for i in learners)
            cells[filled] = np.fromiter(attempts, dtype=np.uint8, count=int(sizes.sum()))
            chunks.append((learners, np.ascontiguousarray(cells.T), filled.sum(axis=0)))
        return tuple(chunks)


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


def _parse_count(text: str, column: str, lineno: int) -> int:
    # int() would also take "1_0", "+2", " 7" and non-ASCII digits.
    if text.isascii() and text.isdigit():
        return int(text)
    raise DatasetFormatError(
        f"line {lineno}: {column} must be a non-negative decimal integer, got {text!r}"
    )


def _parse_table(source: str | Path, header: list[str]) -> list[tuple[list[bool], list[bool]]]:
    """Read and validate the CSV in one pass into (attempts, proficient) lists per learner."""

    width = len(header)
    learners: list[tuple[list[bool], list[bool]]] = []
    seen: set[int] = set()
    current_id: int | None = None
    # utf-8-sig drops the byte-order mark that spreadsheet programs write.
    # A byte that is not UTF-8 decodes to a lone surrogate, which no cell
    # check accepts, so it is reported with its line number.
    with open(source, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None:
            raise DatasetFormatError("empty file: expected a header row")
        if first != header:
            raise DatasetFormatError(
                f"line 1: expected header {','.join(header)!r}, got {','.join(first)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DatasetFormatError(
                    f"line {lineno}: expected {width} columns, got {len(row)}"
                )
            learner_id = _parse_count(row[0], "learner_id", lineno)
            step = _parse_count(row[1], "step", lineno)
            correct = _parse_binary(row[2], "correct", lineno)
            if learner_id != current_id:
                if learner_id in seen:
                    raise DatasetFormatError(
                        f"line {lineno}: learner {learner_id} appears in non-contiguous blocks"
                    )
                seen.add(learner_id)
                learners.append(([], []))
                current_id = learner_id
            attempts, states = learners[-1]
            if step != len(attempts) + 1:
                raise DatasetFormatError(
                    f"line {lineno}: expected step {len(attempts) + 1} for learner "
                    f"{learner_id}, got {step}"
                )
            attempts.append(correct)
            if width == 4:
                proficient = _parse_binary(row[3], "proficient", lineno)
                if states and states[-1] and not proficient:
                    raise DatasetFormatError(
                        f"line {lineno}: learner {learner_id} loses proficiency, "
                        f"which the model forbids"
                    )
                states.append(proficient)
    if not learners:
        raise DatasetFormatError("no data rows: dataset is empty")
    return learners


def read_dataset(source: str | Path) -> Dataset:
    """Read a dataset CSV, validating the layout row by row."""

    learners = _parse_table(source, _DATASET_HEADER)
    return Dataset(tuple(AttemptSequence(tuple(attempts)) for attempts, _ in learners))


def read_ground_truth(source: str | Path) -> tuple[Dataset, tuple[HiddenPath, ...]]:
    """Read a ground-truth CSV, returning attempts and hidden paths."""

    learners = _parse_table(source, _TRUTH_HEADER)
    dataset = Dataset(tuple(AttemptSequence(tuple(attempts)) for attempts, _ in learners))
    paths = tuple(HiddenPath(tuple(states)) for _, states in learners)
    return dataset, paths
