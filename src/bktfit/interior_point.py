"""Constraint-guaranteeing M-step: Newton on c = 0 plus one barrier stage.

The M-step objective is separable in the four parameters,

    objective(theta) = sum over parameters p of  a log p + b log(1-p),

with the (a, b) pairs taken from SufficientStats. The behavioral conditions
combine into the single inequality c(theta) >= 0 with

    c(theta) = (1-s-g)l0 - (1-g)r.

interior_point_m_step maximizes the objective subject to c >= 0, and
fit_constrained runs it as its M-step. The objective is strictly concave, so
when the closed-form ratios satisfy c > 0 they are the M-step's answer.
Otherwise the maximizer lies on c = 0, where c is linear in r: eliminating r
(Nocedal & Wright, Numerical Optimization, 2006, 15.2) leaves a smooth
problem in three variables that Newton solves, and the dual follows as
lam = (df/dr)/(1-g).

One barrier stage then maximizes objective + mu*log(c) at the floor weight
mu = 1e-10, started at that point with dual lam and moved inward to
c = mu/lam, which makes c strictly positive. The dual tied to the constraint
by lam*c = mu turns the stage into a square root-finding problem: the residual

    F(theta, lam) = [grad objective + lam * grad c,  lam*c - mu]

is driven to zero by damped Newton steps on the exact 5x5 Jacobian. The
damping keeps every iterate strictly feasible (fraction-to-boundary rule on
c and lam, box interiority on theta) and falls back to step halving, then
jittered restarts, when a step fails to reduce the residual. The stage's
residual is the solution certificate. The floor and the Newton stop rules
are module constants, not options. When the reduced solve or that stage
fails, or the result scores below the current iterate, the M-step raises
NewtonConvergenceError.

The box (0,1)^4 needs no extra barrier terms: the objective's log terms
already blow up at the walls wherever the matching expected counts are
positive. Datasets whose counts vanish (all answers identical, or no
learner answering twice) push a parameter onto the wall, so they are
rejected as degenerate up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .baum_welch import _PARAM_LABELS, DegenerateStatsError, closed_form_ratios
from .core import ParamSet, _generator, _margin
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
    "BarrierState",
    "InfeasibleStateError",
    "NewtonConvergenceError",
    "constraint_value",
    "constraint_gradient",
    "objective_value",
    "objective_gradient",
    "objective_hessian_diag",
    "kkt_residual",
    "kkt_jacobian",
    "solve_barrier_subproblem",
    "project_feasible",
    "interior_point_m_step",
    "fit_constrained",
]

# Hard interiority box for theta coordinates during Newton iterations.
_THETA_MIN = 1e-12
_THETA_MAX = 1.0 - 1e-12

# Warm starts are pushed at least this far inside the feasible set.
_FEASIBLE_MARGIN = 1e-3

# Barrier weight of the floor stage. It stays strictly positive: with an
# active constraint the Newton system degenerates at exactly mu = 0, so the
# certificate is the KKT residual at the floor instead.
_MU_FLOOR = 1e-10

# Newton stop rules for one barrier stage: the residual max-norm that ends
# it, the step cap, and how far a step may go toward the dual wall or box.
_NEWTON_TOLERANCE = 1e-9
_MAX_NEWTON_STEPS = 200
_FRACTION_TO_BOUNDARY = 0.995
_MAX_RESTARTS = 5
_MAX_STEP_HALVINGS = 45
_JITTER_SCALE = 1e-3
_JITTER_STREAM = 0x1B7  # fixed entropy tag so restarts are deterministic
# Newton on c = 0: the step cap and the decrement, in objective units, that ends it.
_MAX_REDUCED_STEPS = 60
_REDUCED_DECREMENT = 1e-8


class InfeasibleStateError(ValueError):
    """A barrier iterate left the strictly feasible region c(theta) > 0."""


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


def _cgrad(v: np.ndarray) -> np.ndarray:
    l0, g, s, r = v
    return np.array([1.0 - s - g, r - l0, -l0, g - 1.0])


def constraint_value(theta: ParamSet) -> float:
    """Signed feasibility margin c(theta) = (1-s-g)l0 - (1-g)r."""

    return _margin(*_vec(theta))


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
    out[4] = lam * _margin(*v) - mu
    return out


def _jacobian(pairs: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    cg = _cgrad(v)
    J = np.zeros((5, 5))
    J[np.arange(4), np.arange(4)] = _qhess(pairs, v)
    J[0, 1] = J[0, 2] = J[1, 0] = J[2, 0] = -lam
    J[1, 3] = J[3, 1] = lam
    J[:4, 4] = cg
    J[4, :4] = lam * cg
    J[4, 4] = _margin(*v)
    return J


def kkt_residual(state: BarrierState, stats: SufficientStats) -> np.ndarray:
    """Five-component optimality residual at a barrier iterate."""

    return _residual(stats.pairs(), _vec(state.theta), state.dual, state.mu)


def kkt_jacobian(state: BarrierState, stats: SufficientStats) -> np.ndarray:
    """Exact Jacobian of the residual with respect to (theta, dual)."""

    return _jacobian(stats.pairs(), _vec(state.theta), state.dual)


class _NewtonStall(Exception):
    """Internal: a Newton step could not make progress."""


@dataclass
class _Work:
    """Solver work of one fit: Newton steps, reduced and barrier."""

    steps: int = 0


def _newton_stage(
    pairs: np.ndarray, v: np.ndarray, lam: float, mu: float, work: _Work
) -> tuple[np.ndarray, float]:
    """Drive the residual below tolerance at fixed mu; raise _NewtonStall else."""

    tau = _FRACTION_TO_BOUNDARY
    F = _residual(pairs, v, lam, mu)
    norm = float(np.max(np.abs(F)))
    for _ in range(_MAX_NEWTON_STEPS):
        if norm < _NEWTON_TOLERANCE:
            return v, lam
        J = _jacobian(pairs, v, lam)
        work.steps += 1
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
        c_here = _margin(*v)
        accepted = False
        for _ in range(_MAX_STEP_HALVINGS):
            cand_v = v + nu * delta[:4]
            cand_lam = lam + nu * delta[4]
            if _margin(*cand_v) >= (1.0 - tau) * c_here:
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

    rng = _generator((_JITTER_STREAM, attempt))
    scale = _JITTER_SCALE
    for _ in range(60):
        cand = np.clip(v + rng.uniform(-scale, scale, 4), 1e-9, 1.0 - 1e-9)
        cand = _project_vec(cand, min(1e-8, max(_margin(*v), 1e-12)))
        if _margin(*cand) > 0.0:
            return cand, mu / _margin(*cand)
        scale *= 0.5
    return v, mu / _margin(*v)


def _solve_stage(
    pairs: np.ndarray, v: np.ndarray, lam: float, mu: float, work: _Work
) -> tuple[np.ndarray, float]:
    """One fixed-mu stage from (v, lam), restarting from jittered points."""

    for attempt in range(_MAX_RESTARTS + 1):
        v_try, lam_try = _jittered_start(v, mu, attempt) if attempt else (v, lam)
        try:
            return _newton_stage(pairs, v_try, lam_try, mu, work)
        except _NewtonStall as stall:
            last_norm = float(np.max(np.abs(_residual(pairs, v_try, lam_try, mu))))
            last_reason = str(stall)
    raise NewtonConvergenceError(
        f"barrier stage failed: {last_reason}",
        mu=mu,
        residual_norm=last_norm,
        restarts=_MAX_RESTARTS,
    )


def solve_barrier_subproblem(stats: SufficientStats, start: BarrierState) -> BarrierState:
    """Solve one fixed-mu stage to the Newton tolerance.

    Retries from jittered feasible points when the iteration stalls or the
    linear system is singular, then reports failure with diagnostics.
    """

    v = _vec(start.theta)
    lam = start.dual if start.dual > 0.0 else start.mu / _margin(*v)
    v_out, lam_out = _solve_stage(stats.pairs(), v, lam, start.mu, _Work())
    return BarrierState(theta=_to_theta(v_out), dual=float(lam_out), mu=start.mu)


def _project_vec(v: np.ndarray, target: float) -> np.ndarray:
    """Raise the margin to at least ~target by shrinking s, g, then r."""

    l0, g, s, r = (float(x) for x in v)
    if _margin(l0, g, s, r) >= target:
        return v
    target_eff = min(target, l0 / 4.0)
    headroom = 1.0 - s - g
    if headroom * l0 < 2.0 * target_eff:
        needed = 2.0 * target_eff / l0
        shrink = (1.0 - needed) / (s + g)
        s *= shrink
        g *= shrink
        headroom = 1.0 - s - g
    if _margin(l0, g, s, r) < target_eff:
        r = (headroom * l0 - target_eff) / (1.0 - g)
    return np.array([l0, g, s, r])


def project_feasible(theta: ParamSet) -> tuple[ParamSet, dict[str, object] | None]:
    """Return a parameter vector with margin at least ~1e-3.

    The transit rate r enters the margin linearly with a negative
    coefficient, so it is scaled down first; when even r -> 0 cannot reach
    that margin (s + g too close to 1, which random inits hit often), s and
    g are shrunk proportionally beforehand. Returns the adjusted vector and
    a change record, or (theta, None) when theta already clears the margin.
    """

    v = _vec(theta)
    before = _margin(*v)
    projected = _project_vec(v, _FEASIBLE_MARGIN)
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


def _estimable_ratios(stats: SufficientStats) -> tuple[float, float, float, float]:
    """Closed-form ratios, rejecting counts that put the maximizer on the box."""

    ratios = closed_form_ratios(stats)
    for label, (a, b) in zip(_PARAM_LABELS[1:], stats.pairs()[1:]):
        if a == 0.0 or b == 0.0:
            raise DegenerateStatsError(
                f"cannot update {label!r}: one-sided expected counts put the "
                f"maximizer on the boundary"
            )
    return ratios


def _reduced_newton(pairs: np.ndarray, v: np.ndarray, work: _Work) -> tuple[np.ndarray, float]:
    """Maximize the objective on c = 0 from v, with r eliminated.

    With k = (1-s-g)/(1-g), c = 0 is s = (1-g)(1-k), r = l0 k over the open
    box (l0, g, k) in (0,1)^3. Newton there, backtracking on the objective,
    returns the point and its dual lam = (df/dr)/(1-g), or raises
    NewtonConvergenceError at mu = 0 with the reduced gradient as residual.
    """

    ab = pairs.tolist()

    def point(l0: float, g: float, k: float) -> tuple[float, float, float, float]:
        return l0, g, (1.0 - g) * (1.0 - k), l0 * k

    def value(x: tuple[float, ...]) -> float:
        if not all(0.0 < t < 1.0 for t in x):
            return -math.inf
        return sum(a * math.log(p) + b * math.log1p(-p) for (a, b), p in zip(ab, point(*x)))

    l0, g, s, _ = v.tolist()
    x: tuple[float, ...] = (l0, g, (1.0 - s - g) / (1.0 - g))
    f = value(x)
    for _ in range(_MAX_REDUCED_STEPS):
        l0, g, k = x
        d1 = [a / p - b / (1.0 - p) for (a, b), p in zip(ab, point(*x))]
        d2 = [-a / p**2 - b / (1.0 - p) ** 2 for (a, b), p in zip(ab, point(*x))]
        grad = (d1[0] + d1[3] * k, d1[1] - d1[2] * (1.0 - k), d1[3] * l0 - d1[2] * (1.0 - g))
        # Hessian [[A, 0, C], [0, D, E], [C, E, F]]. The exact one (C and E
        # with the map's curvature terms d1[3], d1[2]) can be indefinite away
        # from the maximizer; the Gauss-Newton one is negative definite.
        A, D = d2[0] + d2[3] * k * k, d2[1] + d2[2] * (1.0 - k) ** 2
        F = d2[2] * (1.0 - g) ** 2 + d2[3] * l0 * l0
        C, E = d2[3] * k * l0, d2[2] * (1.0 - k) * (1.0 - g)
        for exact, C, E in ((True, C + d1[3], E + d1[2]), (False, C, E)):
            det = A * (D * F - E * E) - C * C * D
            if A < 0.0 and D < 0.0 and det < 0.0:
                break
        else:
            raise _reduced_failure("Hessian is singular", grad)
        adjugate = (  # Cramer's rule: step = -H^-1 grad
            (D * F - E * E, C * E, -C * D), (C * E, A * F - C * C, -A * E), (-C * D, -A * E, A * D)
        )
        step = [-sum(m * gi for m, gi in zip(row, grad)) / det for row in adjugate]
        work.steps += 1
        decrement = sum(gi * di for gi, di in zip(grad, step))
        # A small exact decrement: one last full step ends the solve.
        last = exact and decrement < _REDUCED_DECREMENT
        t = 1.0
        for _ in range(_MAX_STEP_HALVINGS):
            trial = tuple(xi + t * di for xi, di in zip(x, step))
            f_trial = value(trial)
            if f_trial >= f + 1e-4 * t * decrement or (last and f_trial > -math.inf):
                break
            t *= 0.5
        else:
            raise _reduced_failure("objective stopped increasing", grad)
        x, f = trial, f_trial
        if last:
            p = point(*x)
            lam = (ab[3][0] / p[3] - ab[3][1] / (1.0 - p[3])) / (1.0 - p[1])
            if not lam > 0.0:
                raise _reduced_failure("constraint is slack on c = 0", grad)
            return np.array(p), lam
    raise _reduced_failure("step limit reached", grad)


def _reduced_failure(reason: str, grad: Iterable[float]) -> NewtonConvergenceError:
    return NewtonConvergenceError(
        f"reduced solve failed: {reason}", mu=0.0, residual_norm=max(map(abs, grad)), restarts=0
    )


def _binding_m_step(
    stats: SufficientStats, theta_star: ParamSet, start: ParamSet, work: _Work
) -> BarrierState:
    """The reduced solve from start and its floor stage (see the module
    docstring). Raises NewtonConvergenceError naming the step that failed:
    the reduced solve, the inward move, the floor stage or the objective check."""

    pairs = stats.pairs()
    v, lam = _reduced_newton(pairs, _vec(start), work)
    v[3] -= _MU_FLOOR / lam / (1.0 - v[1])
    if not _margin(*v) > 0.0:
        raise NewtonConvergenceError(
            "floor stage start is not strictly feasible",
            mu=_MU_FLOOR,
            residual_norm=float(np.max(np.abs(_residual(pairs, v, lam, _MU_FLOOR)))),
            restarts=0,
        )
    v, lam = _solve_stage(pairs, v, lam, _MU_FLOOR, work)
    final = BarrierState(_to_theta(v), float(lam), _MU_FLOOR)
    # The barrier gap at the floor is below 1e-10, so any real drop below a
    # feasible theta_star means the solver landed on the wrong point.
    if constraint_value(theta_star) > 0.0:
        drop = objective_value(stats, final.theta) - objective_value(stats, theta_star)
        if drop < -1e-9:
            raise NewtonConvergenceError(
                "constrained M-step decreased the EM objective",
                mu=_MU_FLOOR,
                residual_norm=float(np.max(np.abs(kkt_residual(final, stats)))),
                restarts=0,
            )
    return final


def _m_step(
    stats: SufficientStats, theta_star: ParamSet, work: _Work
) -> tuple[ParamSet, float, float, dict[str, object] | None]:
    """The constrained M-step from theta_star: the new theta, its dual (0.0
    exactly when the closed form is feasible), its KKT residual max-norm and
    project_feasible's adjustment of theta_star."""

    ratios = np.array(_estimable_ratios(stats))
    start, adjustment = project_feasible(theta_star)
    if np.all((ratios > 0.0) & (ratios < 1.0)) and _margin(*ratios) > 0.0:
        # Inactive constraint: the KKT residual with lam = 0 is the gradient.
        residual = float(np.max(np.abs(_qgrad(stats.pairs(), ratios))))
        return _to_theta(ratios), 0.0, residual, adjustment
    final = _binding_m_step(stats, theta_star, start, work)
    residual = float(np.max(np.abs(kkt_residual(final, stats))))
    return final.theta, final.dual, residual, adjustment


def interior_point_m_step(stats: SufficientStats, theta_star: ParamSet) -> ParamSet:
    """Maximize the M-step objective subject to c(theta) >= 0.

    This is fit_constrained's update: the closed-form ratios when they
    satisfy c > 0, else the reduced solve on c = 0 from (a feasible version
    of) theta_star and one floor stage. The result satisfies the constraint
    strictly and never scores below a feasible theta_star on the objective.
    Raises DegenerateStatsError for one-sided counts, and
    NewtonConvergenceError when the reduced solve, the floor stage or the
    objective check fails.
    """

    return _m_step(stats, theta_star, _Work())[0]


def fit_constrained(
    dataset: Dataset | Iterable[object],
    init: ParamSet,
    options: FitOptions | None = None,
) -> FitReport:
    """EM loop whose M-step, interior_point_m_step from the current
    iterate, keeps every iterate and the final estimate inside the
    behavioral constraints.

    When an M-step fails, the fit raises NewtonConvergenceError carrying the
    fit up to the last completed M-step. The diagnostics record genuine
    restorations (margin <= 0, typically only the initial guess) and, over
    the completed M-steps, the counts of binding M-steps and of Newton steps
    (reduced and barrier). The log-likelihood trace is non-decreasing from
    the first feasible iterate on: from an infeasible init, the projection
    can lose likelihood at iteration 1.
    """

    restorations: list[dict[str, object]] = []
    diagnostics: dict[str, object] = {
        "restorations": restorations,
        "warm_start_adjustments": 0,
        "barrier_m_steps": 0,
        "newton_steps": 0,
        "mu_floor": _MU_FLOOR,
    }
    work = _Work()

    def m_step(stats: SufficientStats, theta: ParamSet, iteration: int) -> ParamSet:
        theta_new, dual, residual, adjustment = _m_step(stats, theta, work)
        if dual > 0.0:  # only a binding M-step has a dual, and it is positive
            diagnostics["barrier_m_steps"] += 1  # type: ignore[operator]
        diagnostics["newton_steps"] = work.steps
        if adjustment is not None:
            diagnostics["warm_start_adjustments"] += 1  # type: ignore[operator]
            if adjustment["margin_before"] <= 0.0:
                restorations.append({"iteration": iteration, **adjustment})
        diagnostics["final_kkt_residual"] = residual
        diagnostics["final_dual"] = dual
        return theta_new

    return _run_em(ALGORITHM_CONSTRAINED, dataset, init, options, m_step, diagnostics)
