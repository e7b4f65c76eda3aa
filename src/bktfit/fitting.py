"""Shared fitting plumbing: options, reports, the EM driver, and initial guesses.

Both fitters are generalized EM (Dempster, Laird & Rubin, 1977): the same
E-step, stopping rule and log-likelihood trace around different M-steps.
_run_em is that loop; each fitter passes in its M-step and its diagnostics.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

from .core import (
    ConstraintReport,
    ParamSet,
    _generator,
    _require_int,
    parse_object,
    validate_params,
)
from .data import Dataset, as_dataset
from .estep import SufficientStats, sufficient_stats

__all__ = [
    "ALGORITHM_BAUM_WELCH",
    "ALGORITHM_CONSTRAINED",
    "INIT_LOW",
    "INIT_HIGH",
    "FitOptions",
    "FitReport",
    "NewtonConvergenceError",
    "random_init",
]

ALGORITHM_BAUM_WELCH = "baum-welch"
ALGORITHM_CONSTRAINED = "constrained"

# Initial guesses stay away from the walls; the sampling range is a project
# choice, exposed here so the harness and CLI agree.
INIT_LOW = 0.05
INIT_HIGH = 0.95


@dataclass(frozen=True)
class FitOptions:
    """Stopping rules for the EM loop."""

    max_iterations: int = 500
    loglik_tolerance: float = 1e-8
    param_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        _require_int(self.max_iterations, "max_iterations")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in ("loglik_tolerance", "param_tolerance"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            # An infinite tolerance would stop every fit after one M-step.
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping: object) -> "FitOptions":
        kinds = {"max_iterations": int, "loglik_tolerance": float, "param_tolerance": float}
        return cls(**parse_object(mapping, kinds, "fit option"))  # type: ignore[arg-type]


@dataclass(frozen=True)
class FitReport:
    """Outcome of one EM fit: estimate, trace, and constraint verdicts."""

    algorithm: str
    theta_hat: ParamSet
    initial_theta: ParamSet
    loglik_trace: tuple[float, ...]
    iterations: int
    converged: bool
    constraints: ConstraintReport
    diagnostics: dict[str, object] = field(default_factory=dict)

    @property
    def final_log_likelihood(self) -> float:
        return self.loglik_trace[-1]

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


class NewtonConvergenceError(RuntimeError):
    """A constrained M-step failed: the Newton routine of the reduced solve
    on c = 0 (reported at mu = 0) or of a barrier stage stopped short of its
    decrement, the constraint was slack on c = 0, or the result lowered the
    objective. Nothing restarts. residual_norm is the max-norm of the
    routine's gradient in slack coordinates where it stopped, or of the KKT
    residual when the objective dropped.

    Raised inside a fit, it carries the fit up to the last completed M-step
    as `report` (estimate, trace, iteration count, diagnostics, with
    converged False); it is None when raised outside a fit, as by
    interior_point_m_step or solve_barrier_subproblem.
    """

    def __init__(self, message: str, *, mu: float, residual_norm: float):
        super().__init__(f"{message} (mu={mu:g}, residual max-norm={residual_norm:g})")
        self.mu = mu
        self.residual_norm = residual_norm
        self.report: FitReport | None = None


def _run_em(
    algorithm: str,
    dataset: Dataset | Iterable[object],
    init: ParamSet,
    options: FitOptions | None,
    m_step: Callable[[SufficientStats, ParamSet, int], ParamSet],
    diagnostics: dict[str, object],
) -> FitReport:
    """The EM loop: E-step, m_step(stats, theta, iteration), stopping rule.

    Stops when the log-likelihood gain or the largest parameter change drops
    below its tolerance, or at the iteration cap. diagnostics is the fitter's
    own record, which its M-step fills in; the report carries it as is.
    """

    opts = options or FitOptions()
    data = as_dataset(dataset)
    theta = init
    stats = sufficient_stats(theta, data)
    trace = [stats.log_likelihood]
    iterations = 0
    converged = False

    def report() -> FitReport:
        return FitReport(
            algorithm=algorithm,
            theta_hat=theta,
            initial_theta=init,
            loglik_trace=tuple(trace),
            iterations=iterations,
            converged=converged,
            constraints=validate_params(theta),
            diagnostics=diagnostics,
        )

    for _ in range(opts.max_iterations):
        try:
            theta_new = m_step(stats, theta, iterations + 1)
        except NewtonConvergenceError as exc:
            exc.report = report()
            raise
        iterations += 1
        delta = max(
            abs(new - old) for new, old in zip(theta_new.astuple(), theta.astuple())
        )
        theta = theta_new
        stats = sufficient_stats(theta, data)
        trace.append(stats.log_likelihood)
        if abs(trace[-1] - trace[-2]) < opts.loglik_tolerance or delta < opts.param_tolerance:
            converged = True
            break
    return report()


def random_init(seed: int | Sequence[int]) -> ParamSet:
    """Sample an initial guess uniformly from (INIT_LOW, INIT_HIGH)^4."""

    l0, g, s, r = _generator(seed).uniform(INIT_LOW, INIT_HIGH, 4)
    return ParamSet(l0=l0, g=g, s=s, r=r)
