"""Scaled forward-backward and expected counts against the oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bktfit import (
    AttemptSequence,
    Dataset,
    enumerate_likelihood,
    enumerate_posteriors,
    forward_backward,
    log_likelihood,
    posteriors,
    sufficient_stats,
)
from bktfit import data
from conftest import TRUE_THETA, random_attempts, random_theta


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


def test_posteriors_match_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta = random_theta(rng)
        seq = AttemptSequence(random_attempts(rng, int(rng.integers(2, 13))))
        got = posteriors(theta, seq)
        want = enumerate_posteriors(theta, seq)
        np.testing.assert_allclose(got.gamma, want.gamma, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(got.xi, want.xi, rtol=1e-12, atol=1e-300)


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
        y = np.array(seq.as_ints())
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

    y = np.array(seq.as_ints())
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
        chunks[cells] = len(dataset._chunks)
        got[cells] = _stats_row(sufficient_stats(theta, dataset))
        np.testing.assert_allclose(got[cells], oracle, rtol=1e-12)
    assert chunks[1] == len(sequences) > chunks[3] > chunks[20] > chunks[default] == 1
    for row in got.values():
        np.testing.assert_allclose(row, got[1], rtol=1e-13)


def test_long_learner_among_length_one_learners_matches_per_sequence_loop():
    rng = np.random.default_rng(15)
    theta = random_theta(rng)
    sequences = [AttemptSequence(random_attempts(rng, 1)) for _ in range(30)]
    sequences.insert(11, AttemptSequence(random_attempts(rng, 2000)))
    dataset = Dataset(tuple(sequences))
    assert max(answers.size for _, answers, _ in dataset._chunks) <= data._CHUNK_CELLS
    stats = _stats_row(sufficient_stats(theta, dataset))
    assert np.all(np.isfinite(stats))
    looped = sum(
        _counts_row(seq, posteriors(theta, seq), forward_backward(theta, seq).log_likelihood)
        for seq in sequences
    )
    np.testing.assert_allclose(stats, looped, rtol=1e-12)
