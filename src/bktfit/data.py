"""Learner response sequences, datasets, and their CSV serialization.

Dataset files are UTF-8 CSV with header ``learner_id,step,correct``:
learner_id is a non-negative integer, step starts at 1 and increments by 1
within a learner, correct is 0 or 1, and rows are sorted by learner then
step. The ground-truth layout carries one extra ``proficient`` column with the
hidden state that generated each attempt; it is write-only, for inspection,
and nothing reads it back. learner_id and step cells hold ASCII decimal digits
only. The reader takes the file as bytes: a leading UTF-8 byte-order mark is
skipped, lines end in LF or CRLF (the last one may lack its line end), and
cells are split at bare commas, so a quoted cell is malformed like any other.
Every malformed line raises DatasetFormatError naming its line number, which
`bktfit` reports with exit code 3; a message quotes at most 80 characters of a
line or cell. A file with CR-only line ends is one line, and fails as a header.

The reader checks a file in blocks of 64 KiB cut after their last LF, a line
longer than that joined whole from its pieces. A block takes one pass to find
its marks, the bytes below "0" (every LF, CR and comma, and any stray byte),
and one count of its bytes above "9". The marks of lines that can make rows
repeat one pattern (two commas, then CR for CRLF, then LF), so one comparison
finds the first line that cannot; between the marks, each cell is digits,
read as a decimal with one table lookup per digit position, and a learner cell
only where its bytes differ from the line above's. A block's temporaries come
to about 1 MiB; beyond them a read keeps the learner ids it has seen and a
byte per row, so with tracemalloc, reading the writer's 2.0 MiB file of
200,000 rows peaked at 2.1 MiB, and its 8.6 MiB file of 800,000 rows at 6.2 MiB.

The writers write UTF-8 with CRLF line ends, the bytes of csv.writer with
lineterminator "\\r\\n", in blocks of 16,384 rows (_WRITE_ROWS). A block is one
byte matrix of fixed-width lines (digits, commas, 0/1 flags, CRLF), each number
right-aligned with its leading zeros as byte 0, which no file holds, so the
matrix less its 0 bytes is one write. Digits come a row at a time from floor
division in the smallest unsigned type that holds the block's largest value; a
learner's id is formatted once and its digits repeated over its rows. A block's
temporaries are about 50 bytes per row: with tracemalloc, writing 100,000 or
400,000 rows peaked at 0.84 or 0.87 MB.

A Dataset holds its answers once, flat: one uint8 array of every learner's
answers in order, and the learners' lengths. The reader and the simulator
fill these arrays directly. AttemptSequence holds the same encoding, bytes
of one 0 or 1 per step: iterating or indexing a dataset cuts its answers'
bytes into sequences, each checked in one pass, and a dataset built from
sequences joins their bytes. The ground-truth writer takes the hidden
states as one array in the same order, as the simulator returns them, and
checks it a block of _WRITE_ROWS at a time. The first E-step that reads a
dataset builds its layout (Dataset._layout) and keeps it for every later
E-step of every fit: each distinct answer sequence once, as the column of the
first learner who gave it (one sort of the learners' packed answers finds
them), those learners sorted by descending length into chunks, each chunk
with the E-step's four count planes, a row per switch time and a column per
sequence, in the smallest unsigned type that holds the chunk's longest
length; each learner's slot, the column of its sequence; and, for the
E-step's tail over every column at once, each column's correct and wrong
answer counts as floats, and the size of the workspace its chunks share.
So the planes take memory per distinct sequence, not per learner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "AttemptSequence",
    "Dataset",
    "DatasetFormatError",
    "read_dataset",
    "write_dataset",
    "write_ground_truth",
]

_DATASET_HEADER = "learner_id,step,correct"
_TRUTH_HEADER = _DATASET_HEADER + ",proficient"

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

# A block's temporaries are about 16 times its size (see the module docstring).
_BLOCK_BYTES = 1 << 16
_WRITE_ROWS = 1 << 14
_BOM = b"\xef\xbb\xbf"
_LF, _CR, _COMMA, _ZERO, _NINE = 10, 13, 44, 48, 57
_MAX_DIGITS = 18  # every decimal of up to 18 digits fits an int64
# _DIGITS[k][byte]: the byte's digit times 10**k, and 0 for a mark (a byte
# below "0"), so the mark before a cell reads as a leading zero.
_DIGITS = np.zeros((_MAX_DIGITS, 256), dtype=np.int64)
_DIGITS[:, _ZERO : _ZERO + 10] = 10 ** np.arange(_MAX_DIGITS)[:, None] * np.arange(10)
_QUOTED = 80  # characters of a line or cell that an error message quotes
# Shifting the eight bytes before a cell's end right by _CELL_SHIFTS[size]
# leaves the cell's bytes; a cell of no or more than eight bytes leaves 0.
_CELL_SHIFTS = np.array([64, 56, 48, 40, 32, 24, 16, 8, 0, 64], dtype=np.uint64)


class DatasetFormatError(ValueError):
    """A dataset file violates the expected CSV layout."""


def _flags(values: Iterable[object], what: str) -> bytes:
    """values as one byte per entry, 0 or 1. A bytes object is checked in one
    pass; any other iterable entry by entry, each a bool or a number equal to 0 or 1."""

    if isinstance(values, bytes):
        if bad := values.translate(None, b"\x00\x01"):
            raise ValueError(f"{what} entries must be 0/1 or boolean, got {bad[0]}")
        return values
    out = bytearray()
    for value in values:
        try:
            number = int(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ValueError(f"{what} entries must be 0/1 or boolean, got {value!r}") from None
        if number != value or number not in (0, 1):
            raise ValueError(f"{what} entries must be 0/1 or boolean, got {value!r}")
        out.append(number)
    return bytes(out)


@dataclass(frozen=True, init=False)
class AttemptSequence:
    """Ordered correctness record for one learner: a byte per attempt, 1 meaning correct."""

    attempts: bytes

    def __init__(self, attempts: Iterable[object]) -> None:
        attempts = _flags(attempts, "attempt")
        if not attempts:
            raise ValueError("an attempt sequence needs at least one attempt")
        object.__setattr__(self, "attempts", attempts)

    def __len__(self) -> int:
        return len(self.attempts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.attempts)


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


class Dataset:
    """One attempt sequence per learner; lengths may differ.

    The answers live in one flat uint8 array, learner after learner; the
    sequences are slices of its bytes, cut when the dataset is iterated or
    indexed.
    """

    def __init__(self, sequences: Iterable[AttemptSequence | Iterable[object]]) -> None:
        sequences = [s if isinstance(s, AttemptSequence) else AttemptSequence(s) for s in sequences]
        if not sequences:
            raise ValueError("a dataset needs at least one learner")
        lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
        self._set(np.frombuffer(b"".join(seq.attempts for seq in sequences), np.uint8), lengths)

    @classmethod
    def _of(cls, answers: np.ndarray, lengths: np.ndarray) -> Dataset:
        """The dataset over flat 0/1 answers and positive lengths the caller has checked."""

        dataset = cls.__new__(cls)
        dataset._set(answers, lengths)
        return dataset

    def _set(self, answers: np.ndarray, lengths: np.ndarray) -> None:
        self._answers = answers
        self._lengths = lengths
        self._bounds = np.concatenate(([0], np.cumsum(lengths)))

    def __len__(self) -> int:
        return len(self._lengths)

    def __iter__(self) -> Iterator[AttemptSequence]:
        answers, bounds = self._answers.tobytes(), self._bounds.tolist()
        return (AttemptSequence(answers[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def __getitem__(self, index: int) -> AttemptSequence:
        learner = range(len(self))[index]
        lo, hi = self._bounds[learner : learner + 2].tolist()
        return AttemptSequence(self._answers[lo:hi].tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self._lengths, other._lengths) and np.array_equal(
            self._answers, other._answers
        )

    def __repr__(self) -> str:
        return f"Dataset({list(self)!r})"

    @cached_property
    def _layout(self) -> _Layout:
        """Each distinct answer sequence once, as the column of its first learner:
        those learners in stable descending-length order, cut into chunks of
        _CHUNK_CELLS // T of them; built on first use and kept."""

        lengths, longest = self._lengths, int(self._lengths.max())
        # windows[i, :n] is the n answers from flat index i on, zeros past the end.
        padded = np.append(self._answers, np.zeros(longest, dtype=np.uint8))
        windows = sliding_window_view(padded, longest)
        order = np.argsort(-lengths, kind="stable")
        first = self._first_learners()
        distinct = order[first[order] == order]
        chunks, start = [], 0
        while start < len(distinct):
            learners = distinct[start : start + max(1, _CHUNK_CELLS // lengths[distinct[start]])]
            start += len(learners)
            chunks.append(self._chunk(learners, windows))
        columns = np.concatenate([chunk.learners for chunk in chunks])
        column = np.empty(len(self), dtype=np.int64)
        column[columns] = np.arange(len(columns))
        right = np.concatenate([chunk.counts[0].reshape(-1)[chunk.last] for chunk in chunks])
        right = right.astype(float)
        workspace = 2 * max(chunk.counts[0].size for chunk in chunks)
        return _Layout(tuple(chunks), column[first], right, lengths[columns] - right, workspace)

    def _first_learners(self) -> np.ndarray:
        """Each learner's first learner with the same answers.

        A learner's key is its first 56 answers as bits of an integer, with
        one more bit set just past its last answer, or past the 56 if it has
        more. One sort of the keys puts learners with equal answers and
        lengths together; the smallest index of each run of equal keys is
        their first learner. Learners longer than 56 are sorted again by that
        first learner and the key of their next 56 answers, and so on.
        """

        lengths = self._lengths
        bits = np.append(np.packbits(self._answers, bitorder="little"), np.zeros(8, np.uint8))
        # words[i]: the 64 bits from byte i of the packed answers on.
        words = np.ndarray(len(bits) - 7, "<u8", bits, 0, (1,))
        # Each learner's first learner so far; the first sort needs no such key.
        first, rows = np.zeros(len(self), dtype=np.int64), np.arange(len(self))
        for offset in range(0, int(lengths.max()), _SORT_ANSWERS):
            rows = rows[lengths[rows] > offset]  # in dataset order
            at = (self._bounds[rows] + offset).astype(np.uint64)
            left = np.minimum(lengths[rows] - offset, _SORT_ANSWERS + 1)
            keys = words[at >> np.uint64(3)] >> (at & np.uint64(7)) & _SORT_BITS[left] | _SORT_END[left]
            sort = np.lexsort((keys, first[rows])) if offset else np.argsort(keys)
            keys, classes, learners = keys[sort], first[rows][sort], rows[sort]
            new = np.empty(len(rows), dtype=bool)
            new[0] = True
            new[1:] = (keys[1:] != keys[:-1]) | (classes[1:] != classes[:-1])
            first[learners] = np.minimum.reduceat(learners, np.flatnonzero(new))[np.cumsum(new) - 1]
        return first

    def _chunk(self, learners: np.ndarray, windows: np.ndarray) -> _Chunk:
        """The chunk of these learners, the longest first. A lone learner is held
        twice: numpy sums a single column over tau in another order."""

        if len(learners) == 1:
            learners = learners.repeat(2)
        lengths, count = self._lengths[learners], len(learners)
        steps = int(lengths[0])
        starts = (np.flatnonzero(lengths[1:] < lengths[:-1]) + 1).tolist()
        runs = tuple(  # learners of one length are a run of columns
            (int(lengths[lo]) + 1, lo, hi)
            for lo, hi in zip([0] + starts, starts + [count])
            if lengths[lo] < steps
        )
        answers = windows[self._bounds[learners], :steps].T
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


def as_dataset(data: Dataset | Iterable[object]) -> Dataset:
    """The dataset itself, or one built once from an iterable of sequences."""

    return data if isinstance(data, Dataset) else Dataset(data)


def _decimals(values: np.ndarray) -> np.ndarray:
    """The non-negative values' decimal digits as bytes, a row per digit of the
    largest and the units last; a leading zero is byte 0, and a 0 keeps its one
    digit. They are taken in the smallest unsigned type that holds the largest."""

    largest = int(values.max())
    rest = values.astype(np.min_scalar_type(largest))
    digits = np.empty((len(str(largest)), len(values)), dtype=np.uint8)
    for row in digits[::-1]:
        higher = rest // 10
        np.subtract(rest, higher * 10, out=row, casting="unsafe")
        row += (rest != 0) * np.uint8(_ZERO)
        rest = higher
    digits[-1] |= _ZERO
    return digits


def _write_table(
    destination: str | Path, header: str, dataset: Dataset, *flags: np.ndarray
) -> None:
    """Write one row per attempt: learner index, step, then each flag column as 0/1.

    A block of _WRITE_ROWS rows is laid out as one byte matrix, a row per
    line: each number right-aligned in as many columns as the block's widest
    value of it, its leading zeros as byte 0, commas between, CRLF at the end.
    The matrix less its 0 bytes is one write, the bytes csv.writer writes.
    """

    bounds, total = dataset._bounds, len(dataset._answers)
    with open(destination, "wb") as handle:
        handle.write((header + "\r\n").encode())
        for lo in range(0, total, _WRITE_ROWS):
            hi = min(lo + _WRITE_ROWS, total)
            first, last = np.searchsorted(bounds, [lo, hi - 1], side="right") - 1
            starts = bounds[first : last + 1]
            # The rows of each learner the block spans; its id is formatted once.
            counts = np.minimum(bounds[first + 1 : last + 2], hi) - np.maximum(starts, lo)
            steps = np.arange(lo + 1, hi + 1) - np.repeat(starts, counts)
            ids = np.repeat(_decimals(np.arange(first, last + 1)), counts, axis=1)
            columns = [*ids, _COMMA, *_decimals(steps)]
            for flag in flags:
                columns += [_COMMA, flag[lo:hi] + _ZERO]
            line = np.empty((hi - lo, len(columns) + 2), dtype=np.uint8)
            for at, column in enumerate(columns + [_CR, _LF]):
                line[:, at] = column
            handle.write(line[line != 0])


def write_dataset(dataset: Dataset | Iterable[object], destination: str | Path) -> None:
    """Write the dataset, or any iterable of answer sequences, in the canonical CSV layout."""

    dataset = as_dataset(dataset)
    _write_table(destination, _DATASET_HEADER, dataset, dataset._answers)


def write_ground_truth(
    dataset: Dataset | Iterable[object], states: np.ndarray, destination: str | Path
) -> None:
    """Write attempts, a dataset or any iterable of answer sequences, together
    with the hidden states that generated them.

    states holds one 0/1 state per answer, 1 meaning proficient, in the
    dataset's answer order: any array that ravels to that, such as the
    (learners, steps) states of simulate_dataset_with_paths. Proficiency is
    absorbing, so no learner's state may fall from 1 to 0. A count, value or
    fall that breaks this raises ValueError before the file is opened.
    """

    dataset = as_dataset(dataset)
    states, bounds, total = np.ravel(states), dataset._bounds, len(dataset._answers)
    if len(states) != total:
        raise ValueError(f"need one hidden state per answer, {total}, got {len(states)}")
    fell = None  # the first state that falls at the next, within a learner
    for lo in range(0, total, _WRITE_ROWS):
        at = max(lo - 1, 0)  # the block with the state before it, for a fall across its edge
        block = states[at : lo + _WRITE_ROWS]
        if len(bad := np.flatnonzero((block != 0) & (block != 1))):
            raise ValueError(f"state entries must be 0/1 or boolean, got {block[bad[0]]}")
        if fell is None:
            falls = block[:-1] > block[1:]
            # The state before a learner's first is another's.
            first, stop = np.searchsorted(bounds, [at + 1, at + len(block)])
            falls[bounds[first:stop] - at - 1] = False
            if len(down := np.flatnonzero(falls)):
                fell = at + int(down[0])
    if fell is not None:
        learner = np.searchsorted(bounds, fell, side="right") - 1
        raise ValueError(f"learner {learner} loses proficiency, which the model forbids")
    _write_table(destination, _TRUTH_HEADER, dataset, dataset._answers, states)


def _quote(text: str, show: Callable[[str], str] = repr) -> str:
    """text quoted, or shown by show, cut after _QUOTED characters: a message stays short."""

    if len(text) <= _QUOTED:
        return show(text)
    return f"{show(text[:_QUOTED])}... ({len(text)} characters)"


def _cell_digits(text: str, column: str, lineno: int) -> str:
    """The cell's digits without leading zeros, as str(int(text)), with no int():
    int() also takes "1_0", "+2", " 7" and non-ASCII digits, and refuses more
    than 4,300 digits."""

    if text.isascii() and text.isdigit():
        return text.lstrip("0") or "0"
    raise DatasetFormatError(
        f"line {lineno}: {column} must be a non-negative decimal integer, got {_quote(text)}"
    )


def _text(line: bytes) -> str:
    """One line without its CR, decoded; a byte that is not UTF-8 becomes a lone surrogate."""

    return line.removesuffix(b"\r").decode("utf-8", errors="surrogateescape")


def _blocks(handle: BinaryIO) -> Iterator[bytes]:
    """The file after its byte-order mark, in pieces of whole lines, each ending in LF.

    A line longer than a block is gathered as a list of pieces and joined
    once, so a piece takes time linear in its size.
    """

    rest = [handle.read(len(_BOM)).removeprefix(_BOM)]
    while block := handle.read(_BLOCK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join([*rest, block[:cut]])
            rest = [block[cut:]]
        else:
            rest.append(block)
    if tail := b"".join(rest):
        yield tail.removesuffix(b"\n") + b"\n"


class _Table:
    """A CSV read under way: the validated columns so far and the last row's state.

    Each block is checked with array operations over its marks (see the
    module docstring). The first line that fails any check is then checked
    again alone, in the order a row-by-row read would check it, to raise
    that read's message for it: fail builds every message.
    """

    def __init__(self) -> None:
        self.last: tuple[int, int] | None = None  # learner code, step
        self.seen: set[int] = set()  # codes of every learner read so far
        self.huge: dict[str, int] = {}  # the negative codes of cells beyond int64
        self.rows = 0  # data rows read, each one line after the header
        self.starts: list[np.ndarray] = []  # row index of each learner's first row
        self.answers: list[np.ndarray] = []  # each block's correct column, as 0/1 bytes
        # The marks of lines that can make rows, k marks a line: 3 for lines
        # that end in LF, 4 for CRLF; tiled as long as needed.
        self.patterns = {
            3: np.array([_COMMA, _COMMA, _LF], dtype=np.uint8),
            4: np.array([_COMMA, _COMMA, _CR, _LF], dtype=np.uint8),
        }

    def code(self, digits: str) -> int:
        """The decimal's value when it fits an int64, else a negative code unique
        to it, kept by its digits without leading zeros: int() refuses more
        than 4,300 digits, and "007" is learner 7."""

        digits = digits.lstrip("0") or "0"
        if len(digits) < 20 and (value := int(digits)) < 1 << 63:
            return value
        return self.huge.setdefault(digits, -1 - len(self.huge))

    def pattern(self, k: int, size: int) -> np.ndarray:
        """The first size marks of lines that can make rows, of k marks each."""

        marks = self.patterns[k]
        if len(marks) < size:
            marks = self.patterns[k] = np.tile(marks[:k], 2 * size // k + 1)
        return marks[:size]

    def counts(self, data: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The codes of the decimal cells data[lo:hi], taken to hold digits only,
        each cell preceded by a mark."""

        sizes = hi - lo
        shortest, longest = int(sizes.min(initial=_MAX_DIGITS)), int(sizes.max(initial=0))
        values = np.zeros(len(lo), dtype=np.int64)
        for k in range(min(longest, _MAX_DIGITS)):
            digits = _DIGITS[k].take(data[hi - (k + 1)])
            if k > shortest:  # past a shorter cell's mark lie other cells' bytes
                digits[sizes < k] = 0
            values += digits
        if longest > _MAX_DIGITS:
            for i in np.flatnonzero(sizes > _MAX_DIGITS).tolist():
                values[i] = self.code(data[lo[i] : hi[i]].tobytes().decode())
        return values

    def read(self, block: bytes) -> None:
        """Check and keep the rows of one block of whole lines."""

        buffer = bytes(8) + block  # so that every cell has eight bytes before its end
        data = np.frombuffer(buffer, dtype=np.uint8, offset=8)
        marks = np.flatnonzero(data < _ZERO)
        kinds = data[marks]

        # A line that can make a row has as marks two commas, its CR if it
        # ends in CRLF, and its LF. Where the marks are those of lines that
        # all end as the block's last does, they are taken as they stand (a CR
        # not just before its LF is then in the line's last cell, which it
        # makes too long); else each CR just before an LF is dropped.
        k = 3 + block.endswith(b"\r\n")
        same = kinds == self.pattern(k, len(kinds))
        if not same.all():
            line_ends = np.flatnonzero(kinds == _CR)
            line_ends = line_ends[data[marks[line_ends] + 1] == _LF]
            marks, kinds, k = np.delete(marks, line_ends), np.delete(kinds, line_ends), 3
            same = kinds == self.pattern(k, len(kinds))
        # The lines before the first mark out of pattern are lines that can make rows.
        clean = bool(same.all())
        n = len(kinds) // k if clean else int(np.argmin(same)) // k
        # So are their LFs, up to the first line with a byte above "9".
        lf = marks[k - 1 :: k][:n]
        if np.count_nonzero(data > _NINE):
            n = min(n, int(np.searchsorted(lf, np.argmax(data > _NINE))))
            clean, lf = False, lf[:n]

        # The lines before it: every cell is digits, up to the line's next mark.
        cr = data[lf - 1] == _CR  # data[-1] is the block's last LF
        hi = [marks[0::k][:n], marks[1::k][:n], lf - cr]
        lo = [np.concatenate(([0], lf + 1))[:-1], hi[0] + 1, hi[1] + 1]
        # A learner cell is parsed only where its bytes differ from the line
        # before's, told apart by the cell's bytes as one integer, its key;
        # a cell of no or more than eight bytes keys to 0 and is always parsed.
        # words[i]: the eight bytes before data[i], the last the highest.
        words = np.ndarray(len(block) + 1, "<u8", buffer, 0, (1,))
        keys = words[hi[0]] >> _CELL_SHIFTS[np.minimum(hi[0] - lo[0], 9)]
        fresh = keys == 0
        fresh[1:] |= keys[1:] != keys[:-1]
        fresh[:1] = True
        at = np.flatnonzero(fresh)
        ids = self.counts(data, lo[0][at], hi[0][at])
        last = self.last or (0, 0)
        changed = ids != np.concatenate(([last[0]], ids))[:-1]
        changed[:1] |= self.last is None
        starts = at[changed]  # each learner's first line
        firsts = ids[changed].tolist()
        new = np.zeros(n, dtype=bool)
        new[starts] = True
        steps = self.counts(data, lo[1], hi[1])
        answers = data[lo[2]] - _ZERO
        wrong = hi[0] == lo[0]  # an empty learner; an empty step reads as 0, never a step
        wrong |= steps != np.where(new, 1, np.concatenate(([last[1]], steps))[:-1] + 1)
        wrong |= (hi[2] - lo[2] != 1) | (answers > 1)
        if len(set(firsts)) < len(firsts) or not self.seen.isdisjoint(firsts):
            seen = set(self.seen)
            for start, learner in zip(starts.tolist(), firsts):
                if learner in seen:
                    wrong[start] = True
                    break
                seen.add(learner)
        if wrong.any() or not clean:
            i = int(np.argmax(wrong)) if wrong.any() else n
            previous = self.last
            if i:
                learner = ids[np.searchsorted(at, i - 1, side="right") - 1]
                previous = (int(learner), int(steps[i - 1]))
            self.seen.update(firsts[: np.searchsorted(starts, i)])
            begin = int(lf[i - 1]) + 1 if i else 0
            self.fail(_text(block[begin : block.index(b"\n", begin)]), self.rows + i + 2, previous)

        self.starts.append(self.rows + starts)
        self.answers.append(answers)
        self.seen.update(firsts)
        self.rows += n
        if n:
            self.last = (int(ids[-1]), int(steps[-1]))

    def fail(self, line: str, lineno: int, previous: tuple[int, int] | None) -> None:
        """Raise the error a row-by-row read raises first on this line."""

        cells = line.split(",") if line else []
        if len(cells) != 3:
            raise DatasetFormatError(f"line {lineno}: expected 3 columns, got {len(cells)}")
        learner_id = _cell_digits(cells[0], "learner_id", lineno)
        step = _cell_digits(cells[1], "step", lineno)
        if cells[2] not in ("0", "1"):
            raise DatasetFormatError(
                f"line {lineno}: correct must be 0 or 1, got {_quote(cells[2])}"
            )
        learner = self.code(learner_id)
        new = previous is None or learner != previous[0]
        shown = _quote(learner_id, str)
        if new and learner in self.seen:
            raise DatasetFormatError(
                f"line {lineno}: learner {shown} appears in non-contiguous blocks"
            )
        expected = 1 if new else previous[1] + 1  # type: ignore[index]
        if step != str(expected):
            raise DatasetFormatError(
                f"line {lineno}: expected step {expected} for learner {shown}, "
                f"got {_quote(step, str)}"
            )
        raise AssertionError(f"line {lineno} failed an array check but no row check")


def read_dataset(source: str | Path) -> Dataset:
    """Read a dataset CSV, validating every row."""

    table = _Table()
    with open(source, "rb") as handle:
        blocks = _blocks(handle)
        first = next(blocks, None)
        if first is None:
            raise DatasetFormatError("empty file: expected a header row")
        end = first.index(b"\n")
        line = _text(first[:end])
        if line != _DATASET_HEADER:
            raise DatasetFormatError(
                f"line 1: expected header {_DATASET_HEADER!r}, got {_quote(line)}"
            )
        table.read(first[end + 1 :])
        for block in blocks:
            table.read(block)
    if not table.rows:
        raise DatasetFormatError("no data rows: dataset is empty")
    lengths = np.diff(np.concatenate(table.starts), append=table.rows)
    return Dataset._of(np.concatenate(table.answers), lengths)
