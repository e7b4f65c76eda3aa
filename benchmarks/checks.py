"""Correctness checks on the benchmark's fit results.

Each check returns None when the result passes and a one-line problem
otherwise. The references are computed here, apart from the program (a
scaled forward pass written without bktfit.estep, the constraint margin,
one more closed-form update), or are properties the method guarantees.
Nothing is compared against a stored copy of an earlier run.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

MONOTONE_TOL = 1e-10
LOGLIK_REL_TOL = 1e-9
FIXED_POINT_TOL = 1e-4
GIVE_UP_SHARE = 0.01
REPLAY_TOL = 1e-6
CLI_MATCH_TOL = 1e-12

Theta = Sequence[float]  # (l0, g, s, r)


def encode(sequences: Iterable[Iterable[bool]]) -> dict[int, np.ndarray]:
    """Answers grouped by sequence length, one uint8 matrix per length."""

    groups: dict[int, list[list[int]]] = {}
    for seq in sequences:
        row = [int(a) for a in seq]
        groups.setdefault(len(row), []).append(row)
    return {length: np.array(rows, dtype=np.uint8) for length, rows in groups.items()}


def forward_log_likelihood(theta: Theta, groups: dict[int, np.ndarray]) -> float:
    """Observed-data log-likelihood by a scaled forward pass."""

    l0, g, s, r = (float(x) for x in theta)
    total = 0.0
    for length in sorted(groups):
        obs = groups[length].astype(bool)
        e0 = np.where(obs, g, 1.0 - g)  # P(answer | not mastered)
        e1 = np.where(obs, 1.0 - s, s)  # P(answer | mastered)
        a0 = (1.0 - l0) * e0[:, 0]
        a1 = l0 * e1[:, 0]
        norm = a0 + a1
        loglik = np.log(norm)
        a0, a1 = a0 / norm, a1 / norm
        for t in range(1, length):
            a0, a1 = a0 * (1.0 - r) * e0[:, t], (a0 * r + a1) * e1[:, t]
            norm = a0 + a1
            loglik += np.log(norm)
            a0, a1 = a0 / norm, a1 / norm
        total += float(loglik.sum())
    return total


def margin(theta: Theta) -> float:
    """c(theta) = (1 - s - g) * l0 - (1 - g) * r."""

    l0, g, s, r = theta
    return (1.0 - s - g) * l0 - (1.0 - g) * r


def closed_form(pairs: np.ndarray) -> tuple[float, float, float, float]:
    """One closed-form EM update a / (a + b) per parameter."""

    a, b = pairs[:, 0], pairs[:, 1]
    return tuple(float(x) for x in a / (a + b))  # type: ignore[return-value]


def not_converged(converged: bool) -> str | None:
    return None if converged else "fit did not converge"


def decreasing_trace(trace: Sequence[float]) -> str | None:
    for step, (before, after) in enumerate(zip(trace, trace[1:]), start=1):
        if after < before - MONOTONE_TOL:
            return f"log-likelihood fell by {before - after:.3g} at iteration {step}"
    return None


def loglik_mismatch(reported: float, theta: Theta, groups: dict[int, np.ndarray]) -> str | None:
    expected = forward_log_likelihood(theta, groups)
    if abs(reported - expected) <= LOGLIK_REL_TOL * abs(expected):
        return None
    return f"final log-likelihood {reported!r} differs from the forward pass {expected!r}"


def infeasible(theta: Theta) -> str | None:
    c = margin(theta)
    return None if c > 0.0 else f"constraint margin {c:.3g} is not positive"


def not_fixed_point(theta: Theta, pairs: np.ndarray) -> str | None:
    move = max(abs(new - old) for new, old in zip(closed_form(pairs), theta))
    if move <= FIXED_POINT_TOL:
        return None
    return f"one more EM update moves a coordinate by {move:.3g}"


def gives_up_too_much(loglik_bw: float, loglik_constrained: float) -> str | None:
    share = (loglik_bw - loglik_constrained) / abs(loglik_bw)
    if share <= GIVE_UP_SHARE:
        return None
    return f"constrained fit gives up {share:.3%} of the Baum-Welch log-likelihood"


def far_from(theta: Theta, reference: Theta, tol: float, what: str) -> str | None:
    gap = max(abs(a - b) for a, b in zip(theta, reference))
    return None if gap <= tol else f"{what} differs by {gap:.3g} (tolerance {tol:g})"


def below_generating(loglik_fit: float, loglik_generating: float) -> str | None:
    """A maximum-likelihood fit scores at least the generating parameters."""

    if loglik_fit >= loglik_generating - LOGLIK_REL_TOL * abs(loglik_generating):
        return None
    return f"log-likelihood {loglik_fit!r} is below the generating theta's {loglik_generating!r}"


def none_violates(bw_thetas: Iterable[Theta]) -> str | None:
    if any(margin(theta) <= 0.0 for theta in bw_thetas):
        return None
    return "no Baum-Welch fit violates the constraint"


def first_problem(*problems: str | None) -> str | None:
    return next((p for p in problems if p is not None), None)
