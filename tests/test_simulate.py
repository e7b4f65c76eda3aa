"""Seeded generative sampling."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from bktfit import ParamSet, random_init, simulate, simulate_dataset
from bktfit.simulate import simulate_dataset_with_paths
from conftest import TRUE_THETA


@pytest.mark.parametrize(
    "call",
    [
        lambda: simulate_dataset(TRUE_THETA, 2.5, 4, 0),
        lambda: simulate_dataset(TRUE_THETA, 3, 4.0, 0),
        lambda: simulate_dataset_with_paths(TRUE_THETA, 3, 2.5, 0),
        lambda: simulate_dataset(TRUE_THETA, 3, True, 0),
    ],
    ids=["learners", "steps", "length", "bool-length"],
)
def test_simulate_rejects_counts_that_are_not_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def _reference_learner(theta, length, seed):
    """The per-step sampling loop the array simulator replaced, on the same stream."""

    u = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).random(2 * length)
    states, attempts = [], []
    proficient = bool(u[0] < theta.l0)
    for t in range(length):
        states.append(proficient)
        attempts.append(bool(u[1 + t] < (1.0 - theta.s if proficient else theta.g)))
        if t < length - 1 and not proficient:
            proficient = bool(u[1 + length + t] < theta.r)
    return bytes(states), bytes(attempts)


# Seeds of one to six entropy words. With the learner index, 2**64 + 3 and
# (4, 1, 2) fill SeedSequence's four-word pool exactly, and the last seed
# spills three words past it.
_SEEDS = [0, (4, 1), 2**32, 2**64 + 3, (4, 1, 2), (2**33, 5, 6, 7, 8)]


@pytest.mark.parametrize("length", [1, 2, 7, 300])
@pytest.mark.parametrize("seed", _SEEDS)
def test_simulator_draws_what_the_per_step_loop_draws(length, seed):
    rng = np.random.default_rng(length)
    for theta in [TRUE_THETA, ParamSet(*rng.uniform(0.05, 0.95, 4))]:
        dataset, states = simulate_dataset_with_paths(theta, 30, length, seed)
        base = seed if isinstance(seed, tuple) else (seed,)
        expected = [_reference_learner(theta, length, base + (i,)) for i in range(30)]
        assert [(p.tobytes(), s.attempts) for p, s in zip(states, dataset)] == expected


@pytest.mark.parametrize("length", [1, 300])
@pytest.mark.parametrize("seed", [*_SEEDS, 42, (), True, [3, 0]])
def test_simulate_learner_draws_what_the_per_step_loop_draws(length, seed):
    # Learner i of a dataset draws the stream of (*seed, i); the empty seed
    # gives learner i the stream of (i,).
    theta = ParamSet(0.3, 0.4, 0.2, 0.05)  # a slow learner keeps most transitions drawn
    dataset, states = simulate_dataset_with_paths(theta, 3, length, seed)
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    expected = [_reference_learner(theta, length, base + (i,)) for i in range(3)]
    assert [(p.tobytes(), s.attempts) for p, s in zip(states, dataset)] == expected


def test_blocks_of_learners_draw_what_the_per_step_loop_draws(monkeypatch):
    # One short of a block, one block, one learner past it, and four full
    # blocks and a partial one.
    counts = [6, 7, 8, 30]
    one_block = [simulate_dataset(TRUE_THETA, learners, 5, 3) for learners in counts]
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    for learners, whole in zip(counts, one_block):
        dataset, states = simulate_dataset_with_paths(TRUE_THETA, learners, 5, 3)
        expected = [_reference_learner(TRUE_THETA, 5, (3, i)) for i in range(learners)]
        assert [(p.tobytes(), s.attempts) for p, s in zip(states, dataset)] == expected
        assert np.array_equal(dataset._answers, whole._answers)


def test_simulator_peak_memory_is_the_output_plus_one_block(monkeypatch):
    # Five blocks; a smaller block keeps the traced run short.
    monkeypatch.setattr(simulate, "_BLOCK", 1024)
    learners, steps = 5_000, 100
    tracemalloc.start()
    try:
        dataset = simulate_dataset(TRUE_THETA, learners, steps, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == learners
    # States and answers take a byte per cell; one block's uniforms and
    # emission probabilities take 24 bytes per learner-step. The dense
    # (learners, 2 * steps) uniform matrix alone would be 8 MB.
    assert peak <= 2 * learners * steps + 24 * 1024 * steps + 2 * 2**20, peak


def test_simulated_streams_match_their_recorded_hashes():
    # Pins every draw of these streams, whatever numpy's own generators do later.
    dataset, states = simulate_dataset_with_paths(TRUE_THETA, 200, 12, (7, 0, 3))
    answers = b"".join(s.attempts for s in dataset)
    # The C-order bytes of the (learners, steps) states are every learner's path in turn.
    assert hashlib.sha256(answers).hexdigest() == (
        "85a68e664d8033a11cb2d0b099f9989dbe7572d8aaf4f5143a4c4f32f7edd7bd"
    )
    assert hashlib.sha256(states.tobytes()).hexdigest() == (
        "e5dc96014101b89b460bf3f1a5df99176ad8f632728c3758f2811ec3cae0c665"
    )


def test_streams_over_two_blocks_and_many_leaps_match_their_recorded_hashes():
    # A full block of 4,096 learners takes its 80 draws one at a time, and
    # the 904 left take them four at a time, from the seeded state and then
    # in leaps.
    dataset, states = simulate_dataset_with_paths(TRUE_THETA, 5000, 40, (11, 0, 0))
    answers = b"".join(s.attempts for s in dataset)
    assert hashlib.sha256(answers).hexdigest() == (
        "f00ab7f77b5892740b70361793ea2a6d7e85580d7a75ecc7fa25966e90e3bed8"
    )
    assert hashlib.sha256(states.tobytes()).hexdigest() == (
        "6dcde19ee664f6e7c444f885d64503b1729fc48a0917fba7c9ffea880cb28f0b"
    )


@pytest.mark.parametrize("width", [1, 2, 3, "draws - 1", 10**6])
@pytest.mark.parametrize(
    "learners, steps, block",
    [(1, 7, 4096), (9, 5, 5), (4, 1, 4096)],
    ids=["one-learner", "two-blocks", "one-step"],
)
def test_every_jump_width_draws_what_the_per_step_loop_draws(monkeypatch, width, learners, steps, block):
    # A block of n learners takes its draws _CELLS // n at a time: the first
    # group from the seeded state, then each in one leap from the one
    # before, the last group short where the width does not divide the
    # 2 * steps draws. Two blocks of 5 and 4 learners take different widths.
    draws = 2 * steps
    width = draws - 1 if width == "draws - 1" else width
    monkeypatch.setattr(simulate, "_BLOCK", block)
    monkeypatch.setattr(simulate, "_CELLS", width * min(learners, block), raising=False)
    theta = ParamSet(0.3, 0.4, 0.2, 0.05)  # a slow learner keeps most transitions drawn
    dataset, states = simulate_dataset_with_paths(theta, learners, steps, (6, 1))
    expected = [_reference_learner(theta, steps, (6, 1, i)) for i in range(learners)]
    assert [(p.tobytes(), s.attempts) for p, s in zip(states, dataset)] == expected
    u = np.empty((learners, draws))
    simulate._uniforms([6, 1], np.arange(learners, dtype=np.uint32), u)
    for i, row in enumerate(u):
        stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence((6, 1, i))))
        assert row.tobytes() == stream.random(draws).tobytes()


@pytest.mark.parametrize(
    "seed, error",
    [(-1, ValueError), ((1, -2), ValueError), (2.5, TypeError), ((1, 2.0), TypeError), ("ab", ValueError)],
)
def test_simulate_rejects_seeds_numpy_rejects(seed, error):
    with pytest.raises(error):
        simulate_dataset(TRUE_THETA, 3, 4, seed)


def test_simulate_reads_bool_and_list_seeds_as_their_ints():
    assert simulate_dataset(TRUE_THETA, 20, 6, True) == simulate_dataset(TRUE_THETA, 20, 6, 1)
    assert simulate_dataset(TRUE_THETA, 20, 6, [3, 4]) == simulate_dataset(TRUE_THETA, 20, 6, (3, 4))


# simulate_dataset and random_init read a seed by one rule.
_SEEDED = [lambda seed: simulate_dataset(TRUE_THETA, 3, 4, seed), random_init]


@pytest.mark.parametrize("draw", _SEEDED, ids=["simulate_dataset", "random_init"])
@pytest.mark.parametrize(
    "seed, error",
    [(None, TypeError), (((1, 2),), TypeError), (np.array([1, 2]), TypeError), (b"ab", ValueError)],
    ids=["none", "nested", "array", "bytes"],
)
def test_seeds_are_ints_or_lists_or_tuples_of_ints(draw, seed, error):
    with pytest.raises(error, match="seed must be an int or a list or tuple of ints"):
        draw(seed)


@pytest.mark.parametrize(
    "seed, error",
    [(-1, ValueError), ((1, -2), ValueError), (2.5, TypeError), ((1, 2.0), TypeError), ("ab", ValueError)],
)
def test_random_init_rejects_the_seeds_the_simulator_rejects(seed, error):
    with pytest.raises(error, match="seed must"):
        random_init(seed)


@pytest.mark.parametrize("draw", _SEEDED, ids=["simulate_dataset", "random_init"])
def test_bools_numpy_ints_and_lists_read_as_their_ints(draw):
    assert draw(True) == draw(1)
    assert draw(np.int64(7)) == draw(np.uint32(7)) == draw(7)
    assert draw([3, np.int8(4)]) == draw((3, 4))


def test_simulate_refuses_learner_indices_past_one_entropy_word():
    # Index 2**32 would take a second entropy word; refused before any allocation.
    with pytest.raises(ValueError, match="at most 2\\*\\*32"):
        simulate_dataset(TRUE_THETA, 2**32 + 1, 1, 0)


def test_simulate_learner_is_deterministic():
    a = simulate_dataset_with_paths(TRUE_THETA, 1, 12, (3, 0))
    b = simulate_dataset_with_paths(TRUE_THETA, 1, 12, (3, 0))
    assert a[0] == b[0] and np.array_equal(a[1], b[1])


def test_simulate_learner_shapes():
    dataset, states = simulate_dataset_with_paths(TRUE_THETA, 1, 5, 42)
    assert states.shape == (1, 5) and states.dtype == np.uint8
    assert len(dataset[0]) == 5


def test_simulate_needs_a_learner_and_a_step():
    with pytest.raises(ValueError, match="learners must be at least 1"):
        simulate_dataset(TRUE_THETA, 0, 3, 0)
    with pytest.raises(ValueError, match="steps must be at least 1"):
        simulate_dataset_with_paths(TRUE_THETA, 3, 0, 0)


def test_paths_are_absorbing():
    _, states = simulate_dataset_with_paths(TRUE_THETA, 200, 15, 9)
    assert np.isin(states, (0, 1)).all()
    for path in states.tolist():
        assert path == sorted(path)  # 0 before 1, never back


def test_dataset_prefix_stable_under_learner_count():
    small, _ = simulate_dataset_with_paths(TRUE_THETA, 5, 8, 11)
    large, _ = simulate_dataset_with_paths(TRUE_THETA, 10, 8, 11)
    assert tuple(small) == tuple(large)[:5]


def test_tuple_seeds_are_flattened_substreams():
    # A tuple seed must derive the same per-learner streams as manual
    # flattening, so experiment streams never collide.
    dataset = simulate_dataset(TRUE_THETA, 3, 6, (5, 0, 2))
    manual = [_reference_learner(TRUE_THETA, 6, (5, 0, 2, i))[1] for i in range(3)]
    assert [seq.attempts for seq in dataset] == manual


def test_distinct_seeds_differ():
    a = simulate_dataset(TRUE_THETA, 20, 10, 0)
    b = simulate_dataset(TRUE_THETA, 20, 10, 1)
    assert a != b


def test_first_attempt_rate_matches_model():
    # P(correct at step 1) = l0 (1-s) + (1-l0) g; Monte Carlo at 4 sigma.
    n = 20000
    dataset = simulate_dataset(TRUE_THETA, n, 1, 123)
    rate = np.mean([seq.attempts[0] for seq in dataset])
    expected = TRUE_THETA.l0 * (1 - TRUE_THETA.s) + (1 - TRUE_THETA.l0) * TRUE_THETA.g
    sigma = np.sqrt(expected * (1 - expected) / n)
    assert abs(rate - expected) < 4 * sigma


def test_hidden_initial_rate_matches_prior():
    n = 20000
    _, states = simulate_dataset_with_paths(TRUE_THETA, n, 1, 321)
    rate = np.mean(states[:, 0])
    sigma = np.sqrt(TRUE_THETA.l0 * (1 - TRUE_THETA.l0) / n)
    assert abs(rate - TRUE_THETA.l0) < 4 * sigma


def test_transition_rate_matches_model():
    # Among learners not yet proficient at step 1, the chance of being
    # proficient at step 2 is r.
    n = 20000
    _, states = simulate_dataset_with_paths(TRUE_THETA, n, 2, 555)
    eligible = states[states[:, 0] == 0]
    rate = np.mean(eligible[:, 1])
    sigma = np.sqrt(TRUE_THETA.r * (1 - TRUE_THETA.r) / len(eligible))
    assert abs(rate - TRUE_THETA.r) < 4 * sigma
