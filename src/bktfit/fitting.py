"""Shared fitting plumbing: options, reports, the EM driver, and initial guesses.

Both fitters are generalized EM (Dempster, Laird & Rubin, 1977): the same
E-step, stopping rule and log-likelihood trace around different M-steps.
_run_em is that loop. Each fitter passes in its M-step, which returns an
MStep record, and its _diagnostics, which turns the records of the completed
M-steps into the report's diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, NamedTuple

from .core import (
    ConstraintReport,
    ParamSet,
    _require_int,
    _require_real,
    parse_object,
    validate_params,
)
from .data import Dataset, as_dataset
from .estep import SufficientStats, sufficient_stats
from .simulate import Seed, _random

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
            value = _require_real(getattr(self, name), name)
            # An infinite tolerance would stop every fit after one M-step.
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, mapping: object) -> "FitOptions":
        names = [item.name for item in fields(cls)]
        return cls(**parse_object(mapping, names, "fit option"))  # type: ignore[arg-type]


@dataclass(frozen=True)
class FitReport:
    """Outcome of one EM fit: estimate, trace, and constraint verdicts.

    failure is the message of the NewtonConvergenceError that stopped the
    fit after its last completed M-step, and empty when no M-step failed.
    """

    algorithm: str
    theta_hat: ParamSet
    initial_theta: ParamSet
    loglik_trace: tuple[float, ...]
    iterations: int
    converged: bool
    constraints: ConstraintReport
    diagnostics: dict[str, object] = field(default_factory=dict)
    failure: str = ""

    @property
    def final_log_likelihood(self) -> float:
        return self.loglik_trace[-1]

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


class MStep(NamedTuple):
    """One M-step's outcome, as both fitters' M-steps return it.

    theta is the update. dual is the constraint's multiplier, 0.0 unless the
    constraint bound, and kkt_residual the max-norm of the KKT residual at
    (theta, dual), nan where the M-step does not certify its point.
    reduced_steps and floor_steps count the Newton steps of the reduced solve
    and of the floor stage. restoration is project_feasible's record when
    the iterate the M-step started from violated c, else None, and
    boundary_hits names the parameters nudged off the walls of the box.
    """

    theta: ParamSet
    dual: float = 0.0
    kkt_residual: float = math.nan
    reduced_steps: int = 0
    floor_steps: int = 0
    restoration: dict[str, object] | None = None
    boundary_hits: tuple[str, ...] = ()


class NewtonConvergenceError(RuntimeError):
    """A constrained M-step failed: the Newton routine of the reduced solve
    on c = 0 (reported at mu = 0) or of the floor stage stopped short of its
    decrement, the constraint was slack on c = 0, or the result lowered the
    objective. Nothing restarts. residual_norm is the max-norm of the
    routine's gradient in slack coordinates where it stopped, or of the KKT
    residual when the objective dropped.

    interior_point_m_step raises it; a fit stops at it and returns its
    message as FitReport.failure.
    """

    def __init__(self, message: str, *, mu: float, residual_norm: float):
        super().__init__(f"{message} (mu={mu:g}, residual max-norm={residual_norm:g})")
        self.mu = mu
        self.residual_norm = residual_norm


def _run_em(
    algorithm: str,
    dataset: Dataset | Iterable[object],
    init: ParamSet,
    options: FitOptions | None,
    m_step: Callable[[SufficientStats, ParamSet], MStep],
    diagnostics: Callable[[list[MStep]], dict[str, object]],
) -> FitReport:
    """The EM loop: E-step, m_step(stats, theta), stopping rule.

    Stops when the log-likelihood gain or the largest parameter change drops
    below its tolerance, at the iteration cap, or when m_step raises
    NewtonConvergenceError, whose message becomes the report's failure. The
    report's diagnostics are diagnostics(records), from the MStep records of
    the completed M-steps in order.
    """

    opts = options or FitOptions()
    data = as_dataset(dataset)
    theta = init
    stats = sufficient_stats(theta, data)
    trace = [stats.log_likelihood]
    records: list[MStep] = []
    converged = False
    failure = ""
    for _ in range(opts.max_iterations):
        try:
            record = m_step(stats, theta)
        except NewtonConvergenceError as exc:
            failure = str(exc)
            break
        records.append(record)
        new = record.theta
        delta = max(
            abs(new.l0 - theta.l0), abs(new.g - theta.g), abs(new.s - theta.s), abs(new.r - theta.r)
        )
        theta = new
        stats = sufficient_stats(theta, data)
        trace.append(stats.log_likelihood)
        if abs(trace[-1] - trace[-2]) < opts.loglik_tolerance or delta < opts.param_tolerance:
            converged = True
            break
    return FitReport(
        algorithm=algorithm,
        theta_hat=theta,
        initial_theta=init,
        loglik_trace=tuple(trace),
        iterations=len(records),
        converged=converged,
        constraints=validate_params(theta),
        diagnostics=diagnostics(records),
        failure=failure,
    )


def random_init(seed: Seed) -> ParamSet:
    """Sample an initial guess uniformly from (INIT_LOW, INIT_HIGH)^4.

    The guess is INIT_LOW + (INIT_HIGH - INIT_LOW) * u for the first four
    draws u of the stream of Generator(PCG64(SeedSequence(seed))): what its
    uniform(INIT_LOW, INIT_HIGH, 4) returns, derived without numpy's random
    module. The seed is read as simulate_dataset reads it.
    """

    l0, g, s, r = (INIT_LOW + (INIT_HIGH - INIT_LOW) * u for u in _random(seed, 4))
    return ParamSet(l0=l0, g=g, s=s, r=r)
