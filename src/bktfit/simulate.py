"""Seeded sampling from the generative mastery process.

Learner i of a dataset seeded with ``seed`` draws from the stream of
``Generator(PCG64(SeedSequence((*seed, i))))``, so datasets are reproducible
and independent of how generation is scheduled. Per learner the draws are
laid out as one initial-state uniform, then one uniform per attempt, then one
uniform per between-attempt transition, so the stream layout does not depend
on the sampled path.

The streams are derived here, for a block of learners at once: numpy's
SeedSequence hash and PCG64's seeding and 128-bit LCG (XSL-RR output) are
computed in uint32 and uint64 vectors over the block, and each draw's
``(output >> 11) * 2**-53`` is written into its column of the block's
uniforms, bit for bit what ``Generator.random`` returns. Besides the
(block, 2 * length) float64 uniforms, a block's temporaries peak at about
fourteen vectors of one 64-bit word per learner, 112 bytes a learner and
448 KiB for a full block, whatever the length.

``random_init`` draws its four uniforms from one such stream, derived on
Python ints by the same SeedSequence code, and ``_words`` checks every seed.
So no numpy generator is built, and numpy's random module, which would add
about 6 MB to the process, is never imported.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

from .core import ParamSet, _require_int
from .data import Dataset, HiddenPath, _runs

__all__ = [
    "simulate_dataset",
    "simulate_dataset_with_paths",
    "DEFAULT_LEARNERS",
    "DEFAULT_STEPS",
]

# Desk-scale experiment defaults; small enough that degenerate unconstrained
# fits actually occur.
DEFAULT_LEARNERS = 100
DEFAULT_STEPS = 10

Seed = int | list[int] | tuple[int, ...]

# Learners per block of uniforms: the (block, 2 * length) float64 draws are
# the simulator's largest temporary, so this bounds its peak memory. On a
# 2-core Xeon, blocks of 16,384 derived 10,000 x 30 streams no faster.
_BLOCK = 4_096

# numpy's SeedSequence: pool of four uint32 words, its hash and mix constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715

# PCG64's 128-bit LCG multiplier. The vector path holds it as two 64-bit
# halves, and the low half's 32-bit limbs for the high half of a 64 x 64-bit
# product; there every shift and mask is a numpy scalar of its vector's type,
# so numpy 1.x and 2.x promote alike.
_MULTIPLIER = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1
_MUL_HI, _MUL_LO = np.uint64(_MULTIPLIER >> 64), np.uint64(_MULTIPLIER & _MASK64)
_MUL_LO_HI, _MUL_LO_LO = np.uint64(_MULTIPLIER >> 32 & _MASK32), np.uint64(_MULTIPLIER & _MASK32)
_LOW32, _HALF = np.uint64(_MASK32), np.uint64(32)
_ONE, _TOP_BIT, _TOP_SIX, _MOD64 = np.uint64(1), np.uint64(63), np.uint64(58), np.uint64(63)
_DOUBLE_SHIFT, _DOUBLE_SCALE = np.uint64(11), 2.0**-53


def _words(seed: Seed) -> list[int]:
    """The uint32 words SeedSequence reads of the seed's ints (an int seed is
    one), each int's low word first.

    A seed is an int or a list or tuple of ints, none negative; a bool or a
    numpy integer reads as its int. Text or a negative int raises ValueError,
    any other seed TypeError.
    """

    if isinstance(seed, (str, bytes)):
        raise ValueError(f"seed must be an int or a list or tuple of ints, got {seed!r}")
    words = []
    for value in seed if isinstance(seed, (list, tuple)) else (seed,):
        try:
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"seed must be an int or a list or tuple of ints, got {seed!r}") from None
        if value < 0:
            raise ValueError(f"seed must hold no negative int, got {seed!r}")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return words


# A uint32 word, as an int or as a vector with one per learner. SeedSequence's
# hash and mix treat both alike: their masks keep every int below 2**32, so
# where one meets a vector it reads as a uint32 under numpy 1.x and 2.x alike.
Word = int | np.ndarray


def _hasher(hash_const: int, mult: int) -> Callable[[Word], Word]:
    """SeedSequence's hash of a word, its constant advancing by mult at each word hashed."""

    def hash_word(value: Word) -> Word:
        nonlocal hash_const
        # xor with the constant, then multiply by the next one.
        value = (value ^ hash_const) * (hash_const := hash_const * mult & _MASK32) & _MASK32
        return value ^ value >> 16

    return hash_word


def _pool(words: list[Word]) -> list[Word]:
    """SeedSequence's entropy pool, mixed from words."""

    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x: Word, y: Word) -> Word:
        result = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
        return result ^ result >> 16

    # Words past the entropy hash as zeros.
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg64_seeds(pool: list[Word]) -> list[Word]:
    """SeedSequence.generate_state(8, np.uint32). Paired low word first, the
    eight words are the four uint64 ones PCG64 seeds from: its initstate and
    initseq, each high half first."""

    hash_word = _hasher(_INIT_B, _MULT_B)
    return [hash_word(pool[i % _POOL_SIZE]) for i in range(8)]


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> None:
    """One LCG step in place: state = state * multiplier + inc mod 2**128, on 64-bit halves."""

    # The high half of lo * _MUL_LO from 32-bit limbs, none of whose sums overflow.
    a0, a1 = lo & _LOW32, lo >> _HALF
    mid = (a0 * _MUL_LO_LO >> _HALF) + a1 * _MUL_LO_LO
    cross = (mid & _LOW32) + a0 * _MUL_LO_HI
    hi *= _MUL_LO
    hi += a1 * _MUL_LO_HI + (mid >> _HALF) + (cross >> _HALF) + lo * _MUL_HI + inc_hi
    lo *= _MUL_LO
    lo += inc_lo
    hi += lo < inc_lo


def _uniforms(prefix: list[int], last: np.ndarray, out: np.ndarray) -> None:
    """Row k of out: the first draws of Generator.random on SeedSequence(prefix + [last[k]])."""

    words = _pcg64_seeds(_pool([*prefix, last]))
    hi, lo, seq_hi, seq_lo = (
        words[i].astype(np.uint64) | words[i + 1].astype(np.uint64) << _HALF for i in range(0, 8, 2)
    )
    # PCG64 seeding: inc = initseq << 1 | 1; a step from state 0 gives inc,
    # initstate is added, and the state is stepped once more.
    inc_hi, inc_lo = seq_hi << _ONE | seq_lo >> _TOP_BIT, seq_lo << _ONE | _ONE
    del seq_hi, seq_lo
    lo += inc_lo
    hi += inc_hi + (lo < inc_lo)
    _step(hi, lo, inc_hi, inc_lo)
    for column in out.T:
        _step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: the halves' xor rotated right by the state's top six bits.
        x, rot = hi ^ lo, hi >> _TOP_SIX
        draw = x >> rot | x << (-rot & _MOD64)
        np.multiply(draw >> _DOUBLE_SHIFT, _DOUBLE_SCALE, out=column)


def _random(seed: Seed, count: int) -> list[float]:
    """The first count draws of Generator.random on SeedSequence(seed),
    computed on Python ints: no generator is built."""

    w = _pcg64_seeds(_pool(_words(seed)))
    state, seq = (w[i] << 64 | w[i + 1] << 96 | w[i + 2] | w[i + 3] << 32 for i in (0, 4))
    # PCG64 seeding as in _uniforms, then a step before each output.
    inc = (seq << 1 | 1) & _MASK128
    state = ((inc + state) * _MULTIPLIER + inc) & _MASK128
    draws = []
    for _ in range(count):
        state = (state * _MULTIPLIER + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122  # XSL-RR
        draws.append((((x >> rot | x << 64 - rot) & _MASK64) >> 11) * _DOUBLE_SCALE)
    return draws


def _sample(
    theta: ParamSet, prefix: list[int], last: np.ndarray, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """(count, length) boolean states and answers, learner k seeded by prefix + [last[k]]."""

    count = len(last)
    states = np.empty((count, length), dtype=bool)
    answers = np.empty_like(states)
    u = np.empty((min(count, _BLOCK), 2 * length))
    for lo in range(0, count, _BLOCK):
        block, drawn = u[: count - lo], states[lo : lo + _BLOCK]
        _uniforms(prefix, last[lo : lo + _BLOCK], block)
        # Column 0 starts the path; column length + t decides whether a
        # learner not yet proficient becomes so before attempt t.
        np.less(block[:, 0], theta.l0, out=drawn[:, 0])
        np.less(block[:, length + 1 :], theta.r, out=drawn[:, 1:])
        np.logical_or.accumulate(drawn, axis=1, out=drawn)
        emit = np.where(drawn, 1.0 - theta.s, theta.g)
        np.less(block[:, 1 : length + 1], emit, out=answers[lo : lo + _BLOCK])
    return states, answers


def _simulate(
    theta: ParamSet, learners: int, length: int, seed: Seed
) -> tuple[Dataset, np.ndarray]:
    _require_int(learners, "learners")
    _require_int(length, "length")
    if learners < 1:
        raise ValueError("learners must be at least 1")
    if length < 1:
        raise ValueError("length must be at least 1")
    if learners > 2**32:
        # A learner index of 2**32 or more would take two entropy words.
        raise ValueError(f"learners must be at most 2**32, got {learners}")
    states, answers = _sample(theta, _words(seed), np.arange(learners, dtype=np.uint32), length)
    lengths = np.full(learners, length, dtype=np.int64)
    return Dataset._of(answers.view(np.uint8).ravel(), lengths), states


def simulate_dataset_with_paths(
    theta: ParamSet, learners: int, length: int, seed: Seed
) -> tuple[Dataset, tuple[HiddenPath, ...]]:
    """Sample a dataset and keep the generating hidden paths for inspection."""

    dataset, states = _simulate(theta, learners, length, seed)
    return dataset, tuple(_runs(HiddenPath, states.tobytes(), dataset._bounds.tolist()))


def simulate_dataset(theta: ParamSet, learners: int, length: int, seed: Seed) -> Dataset:
    """Sample a dataset of independent learners."""

    dataset, _ = _simulate(theta, learners, length, seed)
    return dataset
