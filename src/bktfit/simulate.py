"""Seeded sampling from the generative mastery process.

Learner i of a dataset seeded with ``seed`` draws from the stream of
``Generator(PCG64(SeedSequence((*seed, i))))``, so datasets are reproducible
and independent of how generation is scheduled. Per learner the draws are
laid out as one initial-state uniform, then one uniform per attempt, then one
uniform per between-attempt transition, so the stream layout does not depend
on the sampled path.

The streams are derived here, for a block of learners at once: numpy's
SeedSequence hash and PCG64's seeding are computed in uint32 and uint64
vectors over the block. PCG64's 128-bit LCG then jumps ahead in closed form
(F. B. Brown, "Random Number Generation with Arbitrary Strides", 1994):
stepped t times, it takes a state s to ``s * M**t + inc * G_t`` mod 2**128,
with ``G_t`` the sum of ``M**i`` over ``i < t``. So a block of n learners
takes its draws W = 4,096 // n at a time (at least one, at most all of
them), in (W, n) arrays of states: the first W from the seeded state with a
multiplier per draw, and each later W in one leap of W steps from the W
before. Each draw's XSL-RR output is taken as ``(output >> 11) * 2**-53``
into its column of the block's uniforms, bit for bit what
``Generator.random`` returns. Besides the (block, 2 * steps) float64
uniforms, a block's temporaries peak at about eighteen 64-bit words per
learner while seeding, and fourteen per state while drawing, with at most
4,096 states at a time: about 580 KiB for a full block, whatever the
number of steps.

``random_init`` draws its four uniforms from one such stream, seeded by the
same SeedSequence code and stepped on Python ints, and ``_words`` checks
every seed. So no numpy generator is built, and numpy's random module, which
would add about 6 MB to the process, is never imported.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable

import numpy as np

from .core import ParamSet, _require_int
from .data import Dataset

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

# Learners per block of uniforms: the (block, 2 * steps) float64 draws are
# the simulator's largest temporary, so this bounds its peak memory. On a
# 2-core Xeon, blocks of 16,384 derived 10,000 x 30 streams no faster. A
# block of _CELLS learners or more draws one step per array operation.
_BLOCK = 4_096
# Stream states per array operation: a block of n learners takes its draws
# _CELLS // n at a time (at least one). At 8,192 the traced peak of
# simulating 2000 x 50 rose 11%, as the stream temporaries outgrew the
# block's emission probabilities.
_CELLS = 4_096

# numpy's SeedSequence: pool of four uint32 words, its hash and mix constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715

# PCG64's 128-bit LCG multiplier. The vector path holds it, and its powers,
# as uint64 arrays of two 64-bit halves and the low half's 32-bit limbs for
# the high half of a 64 x 64-bit product; there every constant, shift and
# mask is a uint64 array or scalar, so numpy 1.x and 2.x promote alike.
_MULTIPLIER = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1
_LOW32, _HALF = np.uint64(_MASK32), np.uint64(32)
_ZERO, _ONE, _TOP_BIT, _TOP_SIX, _MOD64 = (np.uint64(n) for n in (0, 1, 63, 58, 63))
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


# SeedSequence.generate_state hashes the pool twice over, its hash constant
# advancing at each word: word i is xored with INIT_B * MULT_B**i and
# multiplied by INIT_B * MULT_B**(i + 1), mod 2**32.
_STATE_XOR, _STATE_MUL = (
    np.array([_INIT_B * _MULT_B**i & _MASK32 for i in range(start, start + 8)], dtype=np.uint32)[:, None]
    for start in (0, 1)
)
_SIXTEEN = np.uint32(16)


def _pcg64_seeds(pool: list[Word]) -> np.ndarray:
    """SeedSequence.generate_state(8, np.uint32), paired low word first: the
    four uint64 words PCG64 seeds from, its initstate and initseq each high
    half first. A (4, n) array for a pool of n-vectors, (4, 1) for one of ints."""

    words = (np.array(pool * 2, dtype=np.uint32).reshape(8, -1) ^ _STATE_XOR) * _STATE_MUL
    words ^= words >> _SIXTEEN
    return words[0::2].astype(np.uint64) | words[1::2].astype(np.uint64) << _HALF


# A 128-bit multiplier as four uint64 scalars, or one per row as four
# (rows, 1) arrays: the high half, the low half, and the low half's high and
# low 32-bit limbs.
_Multiplier = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _limbs(value: int) -> tuple[int, int, int, int]:
    low = value & _MASK64
    return value >> 64, low, low >> 32, low & _MASK32


def _constant(value: int) -> _Multiplier:
    return tuple(map(np.uint64, _limbs(value)))


def _per_row(values: list[int]) -> _Multiplier:
    limbs = np.array([_limbs(value) for value in values], dtype=np.uint64).reshape(-1, 4)
    limbs.flags.writeable = False
    return tuple(limbs.T[..., None])


_STEP = _constant(_MULTIPLIER)


def _mul_add(
    hi: np.ndarray, lo: np.ndarray, mul: _Multiplier, add_hi: np.ndarray, add_lo: np.ndarray
) -> None:
    """state = state * mul + add mod 2**128 in place, on 64-bit halves."""

    m_hi, m_lo, m_lo_hi, m_lo_lo = mul
    # The high half of lo * m_lo from 32-bit limbs, none of whose sums overflow.
    a0, a1 = lo & _LOW32, lo >> _HALF
    mid = (a0 * m_lo_lo >> _HALF) + a1 * m_lo_lo
    cross = (mid & _LOW32) + a0 * m_lo_hi
    hi *= m_lo
    hi += a1 * m_lo_hi + (mid >> _HALF) + (cross >> _HALF) + lo * m_hi + add_hi
    lo *= m_lo
    lo += add_lo
    hi += lo < add_lo


@functools.lru_cache(maxsize=8)
def _jumps(width: int) -> tuple[_Multiplier, _Multiplier, _Multiplier]:
    """Stepped t times, the LCG takes state to state * M**t + inc * G_t mod
    2**128, with G_t the sum of M**i over i < t. Per row, G_t for t = 2 ..
    width and M**t for t = 1 .. width; then M**width."""

    powers, sums = [1], [0]
    for _ in range(width):
        powers.append(powers[-1] * _MULTIPLIER & _MASK128)
        sums.append(sums[-1] * _MULTIPLIER + 1 & _MASK128)
    return _per_row(sums[2:]), _per_row(powers[1:]), _constant(powers[width])


def _uniforms(prefix: list[int], last: np.ndarray, out: np.ndarray) -> None:
    """Row k of out: the first draws of Generator.random on SeedSequence(prefix + [last[k]])."""

    count, draws = out.shape
    width = max(1, min(draws, _CELLS // count))
    total, power, leap = _jumps(width)
    hi, lo, seq_hi, seq_lo = _pcg64_seeds(_pool([*prefix, last]))
    # PCG64 seeding: inc = initseq << 1 | 1; a step from state 0 gives inc,
    # initstate is added, and the state is stepped once more. Draw t comes
    # from the seeded state stepped t + 1 times.
    inc_hi, inc_lo = seq_hi << _ONE | seq_lo >> _TOP_BIT, seq_lo << _ONE | _ONE
    del seq_hi, seq_lo
    lo += inc_lo
    hi += inc_hi + (lo < inc_lo)
    _mul_add(hi, lo, _STEP, inc_hi, inc_lo)
    # Time-major (width, count) arrays: row t - 1 of add is inc * G_t (G_1
    # is 1), and the first width draws' states are the seeded state stepped
    # t = 1 .. width times.
    add_hi, add_lo = (np.repeat(v[None], width, axis=0) for v in (inc_hi, inc_lo))
    del inc_hi, inc_lo
    _mul_add(add_hi[1:], add_lo[1:], total, _ZERO, _ZERO)
    hi, lo = (np.repeat(v[None], width, axis=0) for v in (hi, lo))
    _mul_add(hi, lo, power, add_hi, add_lo)
    # A leap takes a group's states to those width draws on: times M**width,
    # plus inc * G_width. Every operand has the states' shape, as numpy
    # takes longer to broadcast a row.
    add_hi, add_lo = (np.repeat(v[-1:], width, axis=0) for v in (add_hi, add_lo))
    for t in range(0, draws, width):
        if t:
            if t + width > draws:
                hi, lo, add_hi, add_lo = (a[: draws - t] for a in (hi, lo, add_hi, add_lo))
            _mul_add(hi, lo, leap, add_hi, add_lo)
        # XSL-RR: the halves' xor rotated right by the state's top six bits.
        x, rot = hi ^ lo, hi >> _TOP_SIX
        draw = x >> rot | x << (-rot & _MOD64)
        np.multiply(draw >> _DOUBLE_SHIFT, _DOUBLE_SCALE, out=out.T[t : t + width])


def _random(seed: Seed, count: int) -> list[float]:
    """The first count draws of Generator.random on SeedSequence(seed), the
    LCG stepped on Python ints: no generator is built."""

    hi, lo, seq_hi, seq_lo = (int(word) for word in _pcg64_seeds(_pool(_words(seed)))[:, 0])
    state, seq = hi << 64 | lo, seq_hi << 64 | seq_lo
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
    theta: ParamSet, prefix: list[int], last: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """(count, steps) boolean states and answers, learner k seeded by prefix + [last[k]]."""

    count = len(last)
    states = np.empty((count, steps), dtype=bool)
    answers = np.empty_like(states)
    u = np.empty((min(count, _BLOCK), 2 * steps))
    for lo in range(0, count, _BLOCK):
        block, drawn = u[: count - lo], states[lo : lo + _BLOCK]
        _uniforms(prefix, last[lo : lo + _BLOCK], block)
        # Column 0 starts the path; column steps + t decides whether a
        # learner not yet proficient becomes so before attempt t.
        np.less(block[:, 0], theta.l0, out=drawn[:, 0])
        np.less(block[:, steps + 1 :], theta.r, out=drawn[:, 1:])
        np.logical_or.accumulate(drawn, axis=1, out=drawn)
        emit = np.where(drawn, 1.0 - theta.s, theta.g)
        np.less(block[:, 1 : steps + 1], emit, out=answers[lo : lo + _BLOCK])
    return states, answers


def simulate_dataset_with_paths(
    theta: ParamSet, learners: int, steps: int, seed: Seed
) -> tuple[Dataset, np.ndarray]:
    """Sample a dataset and keep the generating hidden states for inspection:
    a (learners, steps) uint8 array, 1 meaning proficient."""

    _require_int(learners, "learners")
    _require_int(steps, "steps")
    if learners < 1:
        raise ValueError("learners must be at least 1")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if learners > 2**32:
        # A learner index of 2**32 or more would take two entropy words.
        raise ValueError(f"learners must be at most 2**32, got {learners}")
    states, answers = _sample(theta, _words(seed), np.arange(learners, dtype=np.uint32), steps)
    lengths = np.full(learners, steps, dtype=np.int64)
    return Dataset._of(answers.view(np.uint8).ravel(), lengths), states.view(np.uint8)


def simulate_dataset(theta: ParamSet, learners: int, steps: int, seed: Seed) -> Dataset:
    """Sample a dataset of independent learners."""

    return simulate_dataset_with_paths(theta, learners, steps, seed)[0]
