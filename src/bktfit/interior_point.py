"""Constraint-guaranteeing M-step: log barrier plus primal-dual Newton.

The M-step objective is separable in the four parameters,

    objective(theta) = sum over parameters p of  a log p + b log(1-p),

with the (a, b) pairs taken from SufficientStats. The behavioral conditions
combine into the single inequality c(theta) >= 0 with

    c(theta) = (1-s-g)l0 - (1-g)r.

The objective is strictly concave, so when its unconstrained maximizer (the
closed-form ratios) already satisfies c > 0, the constraint is inactive and
that maximizer is the M-step's answer; fit_constrained takes it directly.
Only when the closed form violates c (or touches the box walls) does the
M-step need the barrier: it maximizes objective + mu*log(c) for a decreasing
sequence of barrier weights mu, warm-starting each stage at the previous
solution. A dual value lam tied to the constraint by lam*c = mu turns each
stage into a square root-finding problem: the residual

    F(theta, lam) = [grad objective + lam * grad c,  lam*c - mu]

is driven to zero by damped Newton steps on the exact 5x5 Jacobian. The
damping keeps every iterate strictly feasible (fraction-to-boundary rule on
c and lam, box interiority on theta) and falls back to step halving, then
jittered restarts, when a step fails to reduce the residual. The final
stage's residual at the mu floor is the solution certificate.

The box (0,1)^4 needs no extra barrier terms: the objective's log terms
already blow up at the walls wherever the matching expected counts are
positive. Datasets whose counts vanish (all answers identical, or no
learner answering twice) push a parameter onto the wall, so they are
rejected as degenerate up front.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Iterable

import numpy as np

from .baum_welch import DegenerateStatsError, closed_form_ratios
from .core import ParamSet, parse_object
from .data import Dataset
from .estep import SufficientStats
from .fitting import (
    ALGORITHM_CONSTRAINED,
    FitOptions,
    FitReport,
    NewtonConvergenceError,
    _run_em,
)

__all__ = [
    "BarrierSchedule",
    "BarrierState",
    "InfeasibleStateError",
    "NewtonConvergenceError",
    "DEFAULT_FEASIBLE_MARGIN",
    "constraint_value",
    "constraint_gradient",
    "objective_value",
    "objective_gradient",
    "objective_hessian_diag",
    "kkt_residual",
    "kkt_jacobian",
    "solve_barrier_subproblem",
    "barrier_continuation",
    "project_feasible",
    "interior_point_m_step",
    "fit_constrained",
]

# Hard interiority box for theta coordinates during Newton iterations.
_THETA_MIN = 1e-12
_THETA_MAX = 1.0 - 1e-12

# Warm starts are pushed at least this far inside the feasible set.
DEFAULT_FEASIBLE_MARGIN = 1e-3

_MAX_RESTARTS = 5
_MAX_STEP_HALVINGS = 45
_JITTER_SCALE = 1e-3
_JITTER_STREAM = 0x1B7  # fixed entropy tag so restarts are deterministic


class InfeasibleStateError(ValueError):
    """A barrier iterate left the strictly feasible region c(theta) > 0."""


@dataclass(frozen=True)
class BarrierSchedule:
    """Continuation plan for the barrier weight and Newton stop rules.

    The floor stays strictly positive: with an active constraint the Newton
    system degenerates at exactly mu = 0, so the certificate is the KKT
    residual at the floor instead.
    """

    mu_initial: float = 1.0
    decay: float = 0.2
    mu_floor: float = 1e-10
    newton_tolerance: float = 1e-9
    max_newton_steps: int = 200
    fraction_to_boundary: float = 0.995

    def __post_init__(self) -> None:
        # An infinite start would never decay to the floor.
        if not 0 < self.mu_initial < math.inf:
            raise ValueError("mu_initial must be positive and finite")
        if not 0 < self.decay < 1:
            raise ValueError("decay must be in (0, 1)")
        if not 0 < self.mu_floor < self.mu_initial:
            raise ValueError("mu_floor must satisfy 0 < mu_floor < mu_initial")
        if not self.newton_tolerance > 0:
            raise ValueError("newton_tolerance must be positive")
        if self.max_newton_steps < 1:
            raise ValueError("max_newton_steps must be at least 1")
        if not 0 < self.fraction_to_boundary < 1:
            raise ValueError("fraction_to_boundary must be in (0, 1)")

    def mu_sequence(self) -> list[float]:
        """Strictly decreasing barrier weights, ending exactly at the floor."""

        mus = []
        mu = self.mu_initial
        while mu > self.mu_floor:
            mus.append(mu)
            mu *= self.decay
        mus.append(self.mu_floor)
        return mus

    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping: object) -> "BarrierSchedule":
        kinds = {field.name: float for field in fields(cls)}
        kinds["max_newton_steps"] = int
        return cls(**parse_object(mapping, kinds, "schedule"))  # type: ignore[arg-type]


DEFAULT_SCHEDULE = BarrierSchedule()


@dataclass(frozen=True)
class BarrierState:
    """Primal-dual iterate: parameters, constraint multiplier, barrier weight."""

    theta: ParamSet
    dual: float
    mu: float

    def __post_init__(self) -> None:
        if constraint_value(self.theta) <= 0.0:
            raise InfeasibleStateError(
                f"constraint margin must be strictly positive, got "
                f"{constraint_value(self.theta)!r}"
            )
        if self.dual < 0.0:
            raise ValueError("dual value must be non-negative")
        if self.mu < 0.0:
            raise ValueError("mu must be non-negative")


def _vec(theta: ParamSet) -> np.ndarray:
    return np.array(theta.astuple())


def _to_theta(v: np.ndarray) -> ParamSet:
    return ParamSet(l0=float(v[0]), g=float(v[1]), s=float(v[2]), r=float(v[3]))


def _cval(v: np.ndarray) -> float:
    l0, g, s, r = v
    return (1.0 - s - g) * l0 - (1.0 - g) * r


def _cgrad(v: np.ndarray) -> np.ndarray:
    l0, g, s, r = v
    return np.array([1.0 - s - g, r - l0, -l0, g - 1.0])


def constraint_value(theta: ParamSet) -> float:
    """Signed feasibility margin c(theta) = (1-s-g)l0 - (1-g)r."""

    return _cval(_vec(theta))


def constraint_gradient(theta: ParamSet) -> np.ndarray:
    """Gradient of the margin: (1-s-g, r-l0, -l0, g-1)."""

    return _cgrad(_vec(theta))


def objective_value(stats: SufficientStats, theta: ParamSet) -> float:
    """M-step objective (expected complete-data log-likelihood) at theta."""

    pairs = stats.pairs()
    v = _vec(theta)
    return float(np.sum(pairs[:, 0] * np.log(v) + pairs[:, 1] * np.log1p(-v)))


def objective_gradient(stats: SufficientStats, theta: ParamSet) -> np.ndarray:
    """Per-parameter derivative a/p - b/(1-p)."""

    return _qgrad(stats.pairs(), _vec(theta))


def objective_hessian_diag(stats: SufficientStats, theta: ParamSet) -> np.ndarray:
    """Diagonal second derivatives -a/p^2 - b/(1-p)^2; cross terms are zero."""

    return _qhess(stats.pairs(), _vec(theta))


def _qgrad(pairs: np.ndarray, v: np.ndarray) -> np.ndarray:
    return pairs[:, 0] / v - pairs[:, 1] / (1.0 - v)


def _qhess(pairs: np.ndarray, v: np.ndarray) -> np.ndarray:
    return -pairs[:, 0] / v**2 - pairs[:, 1] / (1.0 - v) ** 2


def _residual(pairs: np.ndarray, v: np.ndarray, lam: float, mu: float) -> np.ndarray:
    out = np.empty(5)
    out[:4] = _qgrad(pairs, v) + lam * _cgrad(v)
    out[4] = lam * _cval(v) - mu
    return out


def _jacobian(pairs: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    cg = _cgrad(v)
    J = np.zeros((5, 5))
    J[np.arange(4), np.arange(4)] = _qhess(pairs, v)
    J[0, 1] = J[0, 2] = J[1, 0] = J[2, 0] = -lam
    J[1, 3] = J[3, 1] = lam
    J[:4, 4] = cg
    J[4, :4] = lam * cg
    J[4, 4] = _cval(v)
    return J


def kkt_residual(state: BarrierState, stats: SufficientStats) -> np.ndarray:
    """Five-component optimality residual at a barrier iterate."""

    return _residual(stats.pairs(), _vec(state.theta), state.dual, state.mu)


def kkt_jacobian(state: BarrierState, stats: SufficientStats) -> np.ndarray:
    """Exact Jacobian of the residual with respect to (theta, dual)."""

    return _jacobian(stats.pairs(), _vec(state.theta), state.dual)


class _NewtonStall(Exception):
    """Internal: a Newton step could not make progress."""


def _newton_stage(
    pairs: np.ndarray, v: np.ndarray, lam: float, mu: float, schedule: BarrierSchedule
) -> tuple[np.ndarray, float]:
    """Drive the residual below tolerance at fixed mu; raise _NewtonStall else."""

    tau = schedule.fraction_to_boundary
    F = _residual(pairs, v, lam, mu)
    norm = float(np.max(np.abs(F)))
    for _ in range(schedule.max_newton_steps):
        if norm < schedule.newton_tolerance:
            return v, lam
        J = _jacobian(pairs, v, lam)
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise _NewtonStall("singular Newton system") from None
        # Fraction-to-boundary: never step more than tau of the way to the
        # dual wall or the coordinate box.
        nu = 1.0
        if delta[4] < 0.0:
            nu = min(nu, tau * lam / -delta[4])
        for i in range(4):
            if delta[i] > 0.0:
                nu = min(nu, tau * (_THETA_MAX - v[i]) / delta[i])
            elif delta[i] < 0.0:
                nu = min(nu, tau * (v[i] - _THETA_MIN) / -delta[i])
        c_here = _cval(v)
        accepted = False
        for _ in range(_MAX_STEP_HALVINGS):
            cand_v = v + nu * delta[:4]
            cand_lam = lam + nu * delta[4]
            if _cval(cand_v) >= (1.0 - tau) * c_here:
                F_cand = _residual(pairs, cand_v, cand_lam, mu)
                cand_norm = float(np.max(np.abs(F_cand)))
                if cand_norm < norm:
                    v, lam, F, norm = cand_v, cand_lam, F_cand, cand_norm
                    accepted = True
                    break
            nu *= 0.5
        if not accepted:
            raise _NewtonStall("residual stopped decreasing")
    raise _NewtonStall("step limit reached")


def _jittered_start(
    v: np.ndarray, mu: float, attempt: int
) -> tuple[np.ndarray, float]:
    """Deterministic perturbed restart point, kept feasible."""

    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((_JITTER_STREAM, attempt)))
    )
    scale = _JITTER_SCALE
    for _ in range(60):
        cand = np.clip(v + rng.uniform(-scale, scale, 4), 1e-9, 1.0 - 1e-9)
        cand = _project_vec(cand, min(1e-8, max(_cval(v), 1e-12)))
        if _cval(cand) > 0.0:
            return cand, mu / _cval(cand)
        scale *= 0.5
    return v, mu / _cval(v)


def solve_barrier_subproblem(
    stats: SufficientStats, start: BarrierState, schedule: BarrierSchedule | None = None
) -> BarrierState:
    """Solve one fixed-mu stage to the Newton tolerance.

    Retries from jittered feasible points when the iteration stalls or the
    linear system is singular, then reports failure with diagnostics.
    """

    schedule = schedule or DEFAULT_SCHEDULE
    pairs = stats.pairs()
    v = _vec(start.theta)
    lam = start.dual if start.dual > 0.0 else start.mu / _cval(v)
    mu = start.mu
    last_norm = float(np.max(np.abs(_residual(pairs, v, lam, mu))))
    for attempt in range(_MAX_RESTARTS + 1):
        if attempt:
            v_try, lam_try = _jittered_start(_vec(start.theta), mu, attempt)
        else:
            v_try, lam_try = v, lam
        try:
            v_out, lam_out = _newton_stage(pairs, v_try, lam_try, mu, schedule)
        except _NewtonStall as stall:
            last_norm = float(np.max(np.abs(_residual(pairs, v_try, lam_try, mu))))
            last_reason = str(stall)
            continue
        return BarrierState(theta=_to_theta(v_out), dual=float(lam_out), mu=mu)
    raise NewtonConvergenceError(
        f"barrier stage failed: {last_reason}",
        mu=mu,
        residual_norm=last_norm,
        restarts=_MAX_RESTARTS,
    )


def barrier_continuation(
    stats: SufficientStats, theta_start: ParamSet, schedule: BarrierSchedule | None = None
) -> BarrierState:
    """Follow the decreasing-mu path from a strictly feasible start."""

    schedule = schedule or DEFAULT_SCHEDULE
    margin = constraint_value(theta_start)
    if margin <= 0.0:
        raise InfeasibleStateError(
            f"continuation needs a strictly feasible start, margin={margin!r}"
        )
    mus = schedule.mu_sequence()
    state = BarrierState(theta=theta_start, dual=mus[0] / margin, mu=mus[0])
    for mu in mus:
        if state.mu != mu:
            state = BarrierState(theta=state.theta, dual=state.dual, mu=mu)
        state = solve_barrier_subproblem(stats, state, schedule)
    return state


def _project_vec(v: np.ndarray, target: float) -> np.ndarray:
    """Raise the margin to at least ~target by shrinking s, g, then r."""

    l0, g, s, r = (float(x) for x in v)
    if (1.0 - s - g) * l0 - (1.0 - g) * r >= target:
        return v
    target_eff = min(target, l0 / 4.0)
    headroom = 1.0 - s - g
    if headroom * l0 < 2.0 * target_eff:
        needed = 2.0 * target_eff / l0
        shrink = (1.0 - needed) / (s + g)
        s *= shrink
        g *= shrink
        headroom = 1.0 - s - g
    if headroom * l0 - (1.0 - g) * r < target_eff:
        r = (headroom * l0 - target_eff) / (1.0 - g)
    return np.array([l0, g, s, r])


def project_feasible(
    theta: ParamSet, target: float = DEFAULT_FEASIBLE_MARGIN
) -> tuple[ParamSet, dict[str, object] | None]:
    """Return a parameter vector with margin at least ~target.

    The transit rate r enters the margin linearly with a negative
    coefficient, so it is scaled down first; when even r -> 0 cannot reach
    the target (s + g too close to 1, which random inits hit often), s and
    g are shrunk proportionally beforehand. Returns the adjusted vector and
    a change record, or (theta, None) when theta already clears the target.
    """

    v = _vec(theta)
    before = _cval(v)
    projected = _project_vec(v, target)
    if projected is v:
        return theta, None
    adjusted = _to_theta(projected)
    info: dict[str, object] = {
        "margin_before": before,
        "margin_after": constraint_value(adjusted),
        "from": theta.to_dict(),
        "to": adjusted.to_dict(),
    }
    return adjusted, info


def _check_estimable(stats: SufficientStats) -> None:
    """Reject expected counts that put the maximizer on the coordinate box."""

    for name, (a, b) in zip(("guess", "slip", "transit"), stats.pairs()[1:]):
        if a + b == 0.0:
            raise DegenerateStatsError(
                f"cannot update {name!r}: expected-count denominator is zero"
            )
        if a == 0.0 or b == 0.0:
            raise DegenerateStatsError(
                f"cannot update {name!r}: one-sided expected counts put the "
                f"maximizer on the boundary"
            )


def _barrier_m_step(
    stats: SufficientStats, theta_star: ParamSet, start: ParamSet, schedule: BarrierSchedule
) -> BarrierState:
    """Barrier chain from the feasible start, checked against theta_star."""

    final = barrier_continuation(stats, start, schedule)
    star_margin = constraint_value(theta_star)
    if star_margin > 0.0:
        # The barrier gap at the mu floor is below 1e-10, so any real drop
        # means the solver landed on the wrong point.
        drop = objective_value(stats, final.theta) - objective_value(stats, theta_star)
        if drop < -1e-9:
            residual = float(np.max(np.abs(kkt_residual(final, stats))))
            raise NewtonConvergenceError(
                "constrained M-step decreased the EM objective",
                mu=final.mu,
                residual_norm=residual,
                restarts=0,
            )
    return final


def interior_point_m_step(
    stats: SufficientStats, theta_star: ParamSet, schedule: BarrierSchedule | None = None
) -> ParamSet:
    """Maximize the M-step objective subject to c(theta) >= 0.

    Runs the barrier continuation from (a feasible version of) theta_star
    and returns the mu-floor solution, which satisfies the constraint
    strictly and never scores below theta_star on the objective.
    """

    _check_estimable(stats)
    start, _ = project_feasible(theta_star)
    return _barrier_m_step(stats, theta_star, start, schedule or DEFAULT_SCHEDULE).theta


def fit_constrained(
    dataset: Dataset | Iterable[object],
    init: ParamSet,
    options: FitOptions | None = None,
    schedule: BarrierSchedule | None = None,
) -> FitReport:
    """EM loop whose M-step keeps every iterate and the final estimate
    inside the behavioral constraints.

    Each M-step first tries the closed-form update: when it lies strictly
    inside the box and satisfies c > 0, it is the constrained maximizer
    (the objective is separable and strictly concave) and is taken as is,
    with the gradient norm as its certificate. Otherwise the barrier chain
    runs from the current iterate, projected inward when it is infeasible
    or nearly so; genuine restorations (margin <= 0, typically only the
    initial guess) are recorded in the diagnostics, as is the count of
    M-steps that ran the barrier. The log-likelihood trace is
    non-decreasing from the first feasible iterate on: from an infeasible
    init, the projection can lose likelihood at iteration 1.
    """

    sched = schedule or DEFAULT_SCHEDULE
    restorations: list[dict[str, object]] = []
    diagnostics: dict[str, object] = {
        "restorations": restorations,
        "warm_start_adjustments": 0,
        "barrier_m_steps": 0,
        "mu_floor": sched.mu_floor,
    }

    def m_step(stats: SufficientStats, theta: ParamSet, iteration: int) -> ParamSet:
        _check_estimable(stats)
        start, adjustment = project_feasible(theta)
        ratios = np.array(closed_form_ratios(stats))
        if np.all((ratios > 0.0) & (ratios < 1.0)) and _cval(ratios) > 0.0:
            # Inactive constraint: the KKT residual with lam = 0 is the gradient.
            theta_new, dual = _to_theta(ratios), 0.0
            residual = float(np.max(np.abs(_qgrad(stats.pairs(), ratios))))
        else:
            final = _barrier_m_step(stats, theta, start, sched)
            theta_new, dual = final.theta, final.dual
            residual = float(np.max(np.abs(kkt_residual(final, stats))))
            diagnostics["barrier_m_steps"] += 1  # type: ignore[operator]
        if adjustment is not None:
            diagnostics["warm_start_adjustments"] += 1  # type: ignore[operator]
            if adjustment["margin_before"] <= 0.0:
                restorations.append({"iteration": iteration, **adjustment})
        diagnostics["final_kkt_residual"] = residual
        diagnostics["final_dual"] = dual
        return theta_new

    return _run_em(ALGORITHM_CONSTRAINED, dataset, init, options, m_step, diagnostics)
