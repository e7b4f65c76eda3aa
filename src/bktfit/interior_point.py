"""Constraint-guaranteeing M-step: one Newton routine in slack coordinates.

The M-step objective is separable in the four parameters,

    objective(theta) = sum over parameters p of  a log p + b log(1-p),

with the (a, b) pairs taken from SufficientStats. The behavioral conditions
combine into the single inequality c(theta) >= 0 with

    c(theta) = (1-s-g)l0 - (1-g)r.

interior_point_m_step maximizes the objective subject to c >= 0, and
fit_constrained runs it as its M-step. The objective is strictly concave, so
when the closed-form ratios satisfy c > 0 they are the M-step's answer.
Otherwise the maximizer lies on c = 0.

The solver works in slack coordinates x = (l0, g, k, e) in the open box
(0,1)^4, with s = (1-g)(1-k) and r = k l0 (1-e). There c = (1-g) k l0 e is a
product that keeps full relative precision however small it is, and c > 0 is
the box itself. One Newton routine maximizes objective + mu*log(c) over the
box, with the exact Hessian or, where that is not negative definite, the
Gauss-Newton one, backtracking on that objective. It stops on the Newton
decrement: a step whose decrement is below 1e-8 is taken in full, and ends
the solve if that decrement is also below 1e-8 at mu = 0, or 1e-18 at mu > 0,
where the dual mu/c rests on e alone. A binding M-step runs it twice. The
reduced solve holds e at 0, the face c = 0, at mu = 0 (r eliminated as in
Nocedal & Wright, Numerical Optimization, 2006, 15.2); its dual is
lam = (df/dr)/(1-g). The floor stage runs at mu = 1e-10 from e where
c = mu/lam, which makes c strictly positive. The certificate is the KKT
residual in theta, [grad objective + lam * grad c,  lam*c - mu]. The floor
and the stop rules are module constants, not options. When a solve fails, or
the result scores below the current iterate, the M-step raises
NewtonConvergenceError.

The parameter box needs no extra barrier terms: the objective's log terms
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
from .core import ParamSet, _margin
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
    "solve_barrier_subproblem",
    "project_feasible",
    "interior_point_m_step",
    "fit_constrained",
]

# Warm starts are pushed at least this far inside the feasible set.
_FEASIBLE_MARGIN = 1e-3

# Barrier weight of the floor stage, which moves the reduced solve's point
# off c = 0 to c = mu/lam, strictly inside.
_MU_FLOOR = 1e-10

# Newton stop rules: the step cap, the backtracking cap, and the decrement,
# in objective units, below which steps are taken in full. A full step whose
# decrement is below _DECREMENT ends the reduced solve, and one below
# _DECREMENT * _MU_FLOOR ends a barrier stage, so that its dual mu/c, which
# rests on e alone, is as accurate as the point at every mu.
_MAX_NEWTON_STEPS = 100
_MAX_STEP_HALVINGS = 45
_DECREMENT = 1e-8


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


def constraint_value(theta: ParamSet) -> float:
    """Signed feasibility margin c(theta) = (1-s-g)l0 - (1-g)r."""

    return _margin(*_vec(theta))


def constraint_gradient(theta: ParamSet) -> np.ndarray:
    """Gradient of the margin: (1-s-g, r-l0, -l0, g-1)."""

    l0, g, s, r = _vec(theta)
    return np.array([1.0 - s - g, r - l0, -l0, g - 1.0])


def objective_value(stats: SufficientStats, theta: ParamSet) -> float:
    """M-step objective (expected complete-data log-likelihood) at theta."""

    pairs = stats.pairs()
    v = _vec(theta)
    return float(np.sum(pairs[:, 0] * np.log(v) + pairs[:, 1] * np.log1p(-v)))


def objective_gradient(stats: SufficientStats, theta: ParamSet) -> np.ndarray:
    """Per-parameter derivative a/p - b/(1-p)."""

    pairs, v = stats.pairs(), _vec(theta)
    return pairs[:, 0] / v - pairs[:, 1] / (1.0 - v)


def objective_hessian_diag(stats: SufficientStats, theta: ParamSet) -> np.ndarray:
    """Diagonal second derivatives -a/p^2 - b/(1-p)^2; cross terms are zero."""

    pairs, v = stats.pairs(), _vec(theta)
    return -pairs[:, 0] / v**2 - pairs[:, 1] / (1.0 - v) ** 2


def kkt_residual(state: BarrierState, stats: SufficientStats) -> np.ndarray:
    """Five-component optimality residual at a barrier iterate."""

    theta, lam = state.theta, state.dual
    top = objective_gradient(stats, theta) + lam * constraint_gradient(theta)
    return np.append(top, lam * constraint_value(theta) - state.mu)


@dataclass
class _Work:
    """Solver work of one fit: Newton steps, reduced and barrier."""

    steps: int = 0


def _point(x: tuple[float, ...]) -> tuple[float, float, float, float]:
    """theta at the slack coordinates x = (l0, g, k, e)."""

    l0, g, k, e = x
    return l0, g, (1.0 - g) * (1.0 - k), k * l0 * (1.0 - e)


def _slack(theta: ParamSet) -> tuple[float, float, float, float]:
    """The slack coordinates of a strictly feasible theta."""

    l0, g, s, r = theta.astuple()
    k = (1.0 - s - g) / (1.0 - g)
    return l0, g, k, _margin(l0, g, s, r) / ((1.0 - g) * k * l0)


def _state(x: tuple[float, ...], mu: float) -> BarrierState:
    """The barrier iterate at x, with the dual mu/c from c's product form.

    Where c is below the rounding of c's difference form, the four floats
    can still give c <= 0; r then moves down past that rounding.
    """

    l0, g, k, e = x
    _, _, s, r = _point(x)
    while not _margin(l0, g, s, r) > 0.0:
        r = math.nextafter(r + _margin(l0, g, s, r) / (1.0 - g), 0.0)
    return BarrierState(ParamSet(l0, g, s, r), mu / ((1.0 - g) * k * l0 * e), mu)


def _derivatives(
    ab: list[list[float]], x: tuple[float, ...], mu: float
) -> tuple[list[float], list[list[float]], list[list[float]]]:
    """Gradient, exact Hessian and Gauss-Newton Hessian in x of f(theta(x)) + mu log c."""

    l0, g, k, e = x
    d1, d2 = [], []
    for (a, b), q in zip(ab, _point(x)):
        u, v = a / q, b / (1.0 - q)
        d1.append(u - v)
        d2.append(-u / q - v / (1.0 - q))
    (f0, fg, fs, fr), (h0, hg, hs, hr) = d1, d2
    # J = dtheta/dx: l0 and g are coordinates, and s and r have these rows.
    s1, s2 = k - 1.0, g - 1.0
    r0, r2, r3 = k * (1.0 - e), l0 * (1.0 - e), -k * l0
    grad = [f0 + fr * r0, fg + fs * s1, fs * s2 + fr * r2, fr * r3]
    gn = [
        [h0 + hr * r0 * r0, 0.0, hr * r0 * r2, hr * r0 * r3],
        [0.0, hg + hs * s1 * s1, hs * s1 * s2, 0.0],
        [hr * r0 * r2, hs * s1 * s2, hs * s2 * s2 + hr * r2 * r2, hr * r2 * r3],
        [hr * r0 * r3, 0.0, hr * r2 * r3, hr * r3 * r3],
    ]
    if mu:  # log c = log l0 + log(1-g) + log k + log e
        for i, dlog in enumerate((1.0 / l0, -1.0 / (1.0 - g), 1.0 / k, 1.0 / e)):
            grad[i] += mu * dlog
            gn[i][i] -= mu * dlog * dlog
    exact = [row[:] for row in gn]
    # The curvature of s in (g, k) and of r in (l0, k, e).
    for i, j, term in ((1, 2, fs), (0, 2, fr * (1.0 - e)), (0, 3, -fr * k), (2, 3, -fr * l0)):
        exact[i][j] += term
        exact[j][i] += term
    return grad, exact, gn


def _ascent_step(
    hess: list[list[float]], grad: list[float], n: int
) -> tuple[list[float], float] | None:
    """The Newton step -hess^-1 grad over the first n coordinates and its
    decrement, by Gauss-Jordan elimination on [-hess | grad]; None unless
    every pivot is positive, that is unless -hess is positive definite."""

    rows = [[-h for h in row[:n]] + [gi] for row, gi in zip(hess, grad[:n])]
    for i, pivot_row in enumerate(rows):
        if not pivot_row[i] > 0.0:
            return None
        for row in rows:
            if row is not pivot_row:
                factor = row[i] / pivot_row[i]
                for j in range(i + 1, n + 1):
                    row[j] -= factor * pivot_row[j]
    step = [row[n] / row[i] for i, row in enumerate(rows)]
    return step, sum(g * d for g, d in zip(grad, step))


def _newton(
    pairs: np.ndarray, x: tuple[float, ...], mu: float, work: _Work
) -> tuple[float, ...]:
    """Maximize f(theta(x)) + mu log c over the open box (0,1)^4 from x, as
    the module docstring describes; at mu = 0, e keeps its start value.
    Raises NewtonConvergenceError at mu, with the gradient's max-norm in x as
    residual."""

    ab = pairs.tolist()
    n = 4 if mu > 0.0 else 3

    def value(x: tuple[float, ...]) -> float:
        if not all(0.0 < t < 1.0 for t in x[:n]):
            return -math.inf
        f = sum(a * math.log(p) + b * math.log1p(-p) for (a, b), p in zip(ab, _point(x)))
        return f + mu * math.log((1.0 - x[1]) * x[2] * x[0] * x[3]) if mu else f

    stop = _DECREMENT * _MU_FLOOR if mu else _DECREMENT
    f = value(x)
    for _ in range(_MAX_NEWTON_STEPS):
        grad, exact_hess, gn_hess = _derivatives(ab, x, mu)
        for exact, hess in ((True, exact_hess), (False, gn_hess)):
            solved = _ascent_step(hess, grad, n)
            if solved is not None:
                break
        else:
            raise _failure("Hessian is singular", mu, grad)
        step, decrement = solved
        work.steps += 1
        full = exact and decrement < _DECREMENT
        t = 1.0
        for _ in range(_MAX_STEP_HALVINGS):
            trial = tuple(xi + t * di for xi, di in zip(x, step)) + x[n:]
            f_trial = value(trial)
            if f_trial >= f + 1e-4 * t * decrement or (full and f_trial > -math.inf):
                break
            t *= 0.5
        else:
            raise _failure("objective stopped increasing", mu, grad)
        x, f = trial, f_trial
        if full and t == 1.0 and decrement < stop:
            return x
    raise _failure("step limit reached", mu, grad)


def _failure(reason: str, mu: float, grad: Iterable[float]) -> NewtonConvergenceError:
    stage = "barrier stage" if mu else "reduced solve"
    return NewtonConvergenceError(
        f"{stage} failed: {reason}", mu=mu, residual_norm=max(map(abs, grad), default=0.0)
    )


def solve_barrier_subproblem(stats: SufficientStats, start: BarrierState) -> BarrierState:
    """Maximize objective + mu*log(c) at start.mu > 0 from start.theta.

    Runs the module's Newton routine in slack coordinates; start.dual is not
    used, and the result's dual is mu/c.
    """

    if not start.mu > 0.0:
        raise ValueError("a barrier stage needs mu > 0")
    x = _newton(stats.pairs(), _slack(start.theta), start.mu, _Work())
    return _state(x, start.mu)


def project_feasible(theta: ParamSet) -> tuple[ParamSet, dict[str, object] | None]:
    """Return a parameter vector with margin at least ~1e-3.

    The transit rate r enters the margin linearly with a negative
    coefficient, so it is scaled down first; when even r -> 0 cannot reach
    that margin (s + g too close to 1, which random inits hit often), s and
    g are shrunk proportionally beforehand. Returns the adjusted vector and
    a change record, or (theta, None) when theta already clears the margin.
    """

    l0, g, s, r = theta.astuple()
    before = _margin(l0, g, s, r)
    if before >= _FEASIBLE_MARGIN:
        return theta, None
    target = min(_FEASIBLE_MARGIN, l0 / 4.0)
    if (1.0 - s - g) * l0 < 2.0 * target:
        shrink = (1.0 - 2.0 * target / l0) / (s + g)
        s *= shrink
        g *= shrink
    if _margin(l0, g, s, r) < target:
        r = ((1.0 - s - g) * l0 - target) / (1.0 - g)
    adjusted = ParamSet(l0, g, s, r)
    info: dict[str, object] = {
        "margin_before": before,
        "margin_after": constraint_value(adjusted),
        "from": theta.to_dict(),
        "to": adjusted.to_dict(),
    }
    return adjusted, info


def _binding_m_step(
    stats: SufficientStats, theta_star: ParamSet, start: ParamSet, work: _Work
) -> BarrierState:
    """The reduced solve from start and its floor stage (see the module
    docstring). Raises NewtonConvergenceError naming the step that failed:
    the reduced solve, the floor stage or the objective check."""

    pairs = stats.pairs()
    l0, g, k, _ = _newton(pairs, _slack(start)[:3] + (0.0,), 0.0, work)
    # On c = 0 the dual is lam = (df/dr)/(1-g), and c = (1-g)k l0 e, so the
    # floor stage starts at c = mu/lam, e = mu/(r df/dr), inside the box.
    (a, b), r = pairs[3].tolist(), k * l0
    rate = r * (a / r - b / (1.0 - r))
    if not rate > _MU_FLOOR:
        raise _failure("constraint is slack on c = 0", 0.0, ())
    final = _state(_newton(pairs, (l0, g, k, _MU_FLOOR / rate), _MU_FLOOR, work), _MU_FLOOR)
    # The barrier gap at the floor is below 1e-10, so any real drop below a
    # feasible theta_star means the solver landed on the wrong point.
    if constraint_value(theta_star) > 0.0:
        drop = objective_value(stats, final.theta) - objective_value(stats, theta_star)
        if drop < -1e-9:
            raise NewtonConvergenceError(
                "constrained M-step decreased the EM objective",
                mu=_MU_FLOOR,
                residual_norm=float(np.max(np.abs(kkt_residual(final, stats)))),
            )
    return final


def _m_step(
    stats: SufficientStats, theta_star: ParamSet, work: _Work
) -> tuple[ParamSet, float, float, dict[str, object] | None]:
    """The constrained M-step from theta_star: the new theta, its dual (0.0
    exactly when the closed form is feasible), its KKT residual max-norm and
    project_feasible's adjustment of theta_star. Rejects counts that put
    the maximizer on the box."""

    ratios = np.array(closed_form_ratios(stats))
    for label, (a, b) in zip(_PARAM_LABELS[1:], stats.pairs()[1:]):
        if a == 0.0 or b == 0.0:
            raise DegenerateStatsError(
                f"cannot update {label!r}: one-sided expected counts put the "
                f"maximizer on the boundary"
            )
    start, adjustment = project_feasible(theta_star)
    if np.all((ratios > 0.0) & (ratios < 1.0)) and _margin(*ratios) > 0.0:
        # Inactive constraint: the KKT residual with lam = 0 is the gradient.
        theta = ParamSet(*ratios.tolist())
        return theta, 0.0, float(np.max(np.abs(objective_gradient(stats, theta)))), adjustment
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
