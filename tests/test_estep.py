"""Scaled forward-backward and expected counts against the oracle."""

from __future__ import annotations

import decimal
import functools
import math
import tracemalloc

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
        (want,) = Dataset((seq,))._layout.chunks
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

    default = data._CHUNK_CELLS
    got, chunks = {}, {}
    for cells in (1, 3, 20, default):
        monkeypatch.setattr(data, "_CHUNK_CELLS", cells)
        dataset = Dataset(tuple(sequences))
        chunks[cells] = len(dataset._layout.chunks)
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
    assert len(dataset._layout.chunks[0].tau) == 301
    weights = estep._log_weights(theta, np.arange(301.0))
    own = []
    for seq in sequences:
        # The learner's sequence in both columns of a chunk of its own.
        own.append(estep._column_rows(weights, Dataset((seq, seq))._layout)[0])
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
        layout = dataset._layout
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
    cells = [(len(chunk.tau) - 1) * len(chunk.learners) for chunk in dataset._layout.chunks]
    assert max(cells) <= data._CHUNK_CELLS
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
    widths = [chunk.counts.dtype for chunk in dataset._layout.chunks]
    assert widths == [np.uint32, np.uint16]  # the short learners share the 300-step chunk
    stats = _stats_row(sufficient_stats(theta, dataset))
    looped = sum(
        _counts_row(seq, posteriors(theta, seq), forward_backward(theta, seq).log_likelihood)
        for seq in sequences
    )
    np.testing.assert_allclose(stats, looped, rtol=1e-12)
    # The kernel reads each plane as exact doubles, so the plane's width is invisible.
    chunks = dataset._layout.chunks
    wide = tuple(chunk._replace(counts=chunk.counts.astype(float)) for chunk in chunks)
    vars(dataset)["_layout"] = dataset._layout._replace(chunks=wide)
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
    assert len(Dataset(tuple(sequences))._layout.chunks) == 1

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
        monkeypatch.setattr(data, "_CHUNK_CELLS", cells)
        dataset = Dataset(tuple(sequences))
        chunks = dataset._layout.chunks
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
    chunks = dataset._layout.chunks
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

