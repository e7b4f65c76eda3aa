"""Enumeration oracle self-checks.

The oracle is the trusted side of the dual-route tests, so its own checks
avoid the fitting code entirely: they use closure identities (total
probability, posterior normalization) and tiny hand-computed cases.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from bktfit import (
    AttemptSequence,
    ParamSet,
    enumerate_em_objective,
    enumerate_likelihood,
    enumerate_paths,
    enumerate_posteriors,
)
from bktfit.oracle import MAX_ENUMERATION_LENGTH, SequenceTooLongError, monotone_paths
from conftest import TRUE_THETA, random_theta


def test_monotone_paths_count_and_shape():
    paths = monotone_paths(4)
    assert len(paths) == 5
    for states in paths:
        assert len(states) == 4
        assert list(states) == sorted(states)
    assert len(set(paths)) == 5


def test_monotone_paths_need_a_step():
    with pytest.raises(ValueError, match="length must be at least 1"):
        monotone_paths(0)


def test_single_step_likelihood():
    # P(correct) = l0 (1-s) + (1-l0) g
    value = enumerate_likelihood(TRUE_THETA, AttemptSequence((True,)))
    assert value == pytest.approx(0.45 * 0.9 + 0.55 * 0.25, rel=1e-15)


def test_two_step_likelihood_by_hand():
    # Sum over the three monotone paths for observations (correct, wrong).
    l0, g, s, r = TRUE_THETA.astuple()
    both = l0 * (1 - s) * s
    late = (1 - l0) * g * r * s
    never = (1 - l0) * g * (1 - r) * (1 - g)
    value = enumerate_likelihood(TRUE_THETA, AttemptSequence((True, False)))
    assert value == pytest.approx(both + late + never, rel=1e-15)


def test_likelihood_sums_to_one_over_all_observations():
    rng = np.random.default_rng(2)
    for _ in range(5):
        theta = random_theta(rng)
        total = math.fsum(
            enumerate_likelihood(theta, AttemptSequence(bits))
            for bits in itertools.product((False, True), repeat=6)
        )
        assert total == pytest.approx(1.0, abs=1e-13)


def test_path_weights_sum_to_likelihood():
    seq = AttemptSequence((True, False, True, True))
    enum = enumerate_paths(TRUE_THETA, seq)
    assert math.fsum(enum.weights) == pytest.approx(enum.likelihood, rel=1e-15)


def test_posteriors_normalized():
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta = random_theta(rng)
        bits = tuple(bool(b) for b in rng.integers(0, 2, 7))
        post = enumerate_posteriors(theta, AttemptSequence(bits))
        np.testing.assert_allclose(post.gamma.sum(axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(post.xi.sum(axis=(1, 2)), 1.0, rtol=1e-12)
        assert np.all(post.xi[:, 1, 0] == 0.0)


def test_gamma_consistent_with_xi_margins():
    theta = TRUE_THETA
    post = enumerate_posteriors(theta, AttemptSequence((True, False, False, True)))
    np.testing.assert_allclose(
        post.xi.sum(axis=2), post.gamma[:-1], rtol=1e-12, atol=1e-300
    )
    np.testing.assert_allclose(
        post.xi.sum(axis=1), post.gamma[1:], rtol=1e-12, atol=1e-300
    )


def test_em_objective_at_reference_vs_entropy_identity():
    # sum_paths P(path|y) log P(y, path) = log P(y) - entropy(P(path|y)),
    # an independent identity linking the objective to the likelihood.
    rng = np.random.default_rng(4)
    theta = random_theta(rng)
    seq = AttemptSequence(tuple(bool(b) for b in rng.integers(0, 2, 5)))
    enum = enumerate_paths(theta, seq)
    total = enum.likelihood
    posts = [w / total for w in enum.weights]
    entropy = -math.fsum(p * math.log(p) for p in posts if p > 0)
    objective = enumerate_em_objective(theta, theta, [seq])
    assert objective == pytest.approx(math.log(total) - entropy, rel=1e-12)


def test_em_objective_maximized_at_closed_form_ratio_direction():
    # Moving theta toward the reference posterior's implied update must not
    # decrease the objective evaluated against that same reference.
    theta_ref = TRUE_THETA
    seqs = [AttemptSequence((True, False, True)), AttemptSequence((False, False))]
    base = enumerate_em_objective(theta_ref, theta_ref, seqs)
    worse = enumerate_em_objective(
        ParamSet(l0=0.9, g=0.9, s=0.6, r=0.9), theta_ref, seqs
    )
    assert worse < base


def test_enumeration_length_cap():
    too_long = AttemptSequence((True,) * (MAX_ENUMERATION_LENGTH + 1))
    with pytest.raises(SequenceTooLongError):
        enumerate_likelihood(TRUE_THETA, too_long)
