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
lam = (df/dr)/(1-g). The floor stage, solve_barrier_subproblem, runs at
mu = 1e-10 from e where c = mu/lam, which makes c strictly positive. The
certificate is the KKT residual in theta, [grad objective + lam * grad c,
lam*c - mu]. The floor and the stop rules are module constants, not options.
When a solve fails, or the result scores below the current iterate, the
M-step raises NewtonConvergenceError.

The M-step runs on the stats' Python floats (numpy only in the public helpers
that return arrays), with Newton steps written out and sums as left folds,
unlike sum() from Python 3.12 on: fits are the same bits on every Python.

The parameter box needs no extra barrier terms: the objective's log terms
already blow up at the walls wherever the matching expected counts are
positive. Datasets whose counts vanish (all answers identical, or no
learner answering twice) push a parameter onto the wall, so they are
rejected as degenerate up front.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .baum_welch import _PARAM_LABELS, DegenerateStatsError, closed_form_ratios
from .core import ParamSet, _margin
from .data import Dataset
from .estep import SufficientStats
from .fitting import (
    ALGORITHM_CONSTRAINED, FitOptions, FitReport, MStep, NewtonConvergenceError, _run_em
)

__all__ = [
    "NewtonConvergenceError",
    "constraint_value",
    "objective_value",
    "objective_gradient",
    "objective_hessian_diag",
    "kkt_residual",
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


def _ab(stats: SufficientStats) -> tuple[tuple[float, float], ...]:
    """The four (a, b) pairs in (l0, g, s, r) order, as the stats' floats."""

    return stats.prior, stats.guess, stats.slip, stats.transit


def _margin_gradient(l0: float, g: float, s: float, r: float) -> list[float]:
    return [1.0 - s - g, r - l0, -l0, g - 1.0]


def _objective(ab: Iterable[tuple[float, float]], theta: Iterable[float]) -> float:
    """The M-step objective: a log p + b log(1-p) summed over the parameters, left to right."""

    ((a0, b0), (ag, bg), (as_, bs), (ar, br)), (l0, g, s, r) = ab, theta
    f = a0 * math.log(l0) + b0 * math.log1p(-l0) + (ag * math.log(g) + bg * math.log1p(-g))
    return f + (as_ * math.log(s) + bs * math.log1p(-s)) + (ar * math.log(r) + br * math.log1p(-r))


def _residual(
    ab: Iterable[tuple[float, float]], theta: tuple[float, ...], lam: float, mu: float
) -> list[float]:
    """The KKT residual [grad f + lam * grad c, lam*c - mu] at theta."""

    ((a0, b0), (ag, bg), (as_, bs), (ar, br)), (l0, g, s, r) = ab, theta
    c0, cg, cs, cr = _margin_gradient(l0, g, s, r)
    f0, fg = a0 / l0 - b0 / (1.0 - l0) + lam * c0, ag / g - bg / (1.0 - g) + lam * cg
    fs, fr = as_ / s - bs / (1.0 - s) + lam * cs, ar / r - br / (1.0 - r) + lam * cr
    return [f0, fg, fs, fr, lam * _margin(l0, g, s, r) - mu]


def constraint_value(theta: ParamSet) -> float:
    """Signed feasibility margin c(theta) = (1-s-g)l0 - (1-g)r."""

    return _margin(*theta.astuple())


def objective_value(stats: SufficientStats, theta: ParamSet) -> float:
    """M-step objective (expected complete-data log-likelihood) at theta."""

    return _objective(_ab(stats), theta.astuple())


def objective_gradient(stats: SufficientStats, theta: ParamSet) -> np.ndarray:
    """Per-parameter derivative a/p - b/(1-p)."""

    return np.array(_residual(_ab(stats), theta.astuple(), 0.0, 0.0)[:4])


def objective_hessian_diag(stats: SufficientStats, theta: ParamSet) -> np.ndarray:
    """Diagonal second derivatives -a/p^2 - b/(1-p)^2; cross terms are zero."""

    ab, v = _ab(stats), theta.astuple()
    return np.array([-a / (p * p) - b / ((1.0 - p) * (1.0 - p)) for (a, b), p in zip(ab, v)])


def kkt_residual(stats: SufficientStats, theta: ParamSet, dual: float, mu: float) -> np.ndarray:
    """Five-component optimality residual [grad objective + dual * grad c,
    dual*c - mu] at theta."""

    return np.array(_residual(_ab(stats), theta.astuple(), dual, mu))


def _point(x: tuple[float, ...]) -> tuple[float, float, float, float]:
    """theta at the slack coordinates x = (l0, g, k, e)."""

    l0, g, k, e = x
    return l0, g, (1.0 - g) * (1.0 - k), k * l0 * (1.0 - e)


def _slack(theta: ParamSet) -> tuple[float, float, float, float]:
    """The slack coordinates of a strictly feasible theta."""

    l0, g, s, r = theta.astuple()
    k = (1.0 - s - g) / (1.0 - g)
    return l0, g, k, _margin(l0, g, s, r) / ((1.0 - g) * k * l0)


def _state(x: tuple[float, ...], mu: float) -> tuple[ParamSet, float]:
    """theta at x, with the dual mu/c from c's product form.

    Where c is below the rounding of c's difference form, the four floats
    can still give c <= 0; r then moves down past that rounding.
    """

    l0, g, k, e = x
    _, _, s, r = _point(x)
    while not _margin(l0, g, s, r) > 0.0:
        r = math.nextafter(r + _margin(l0, g, s, r) / (1.0 - g), 0.0)
    return ParamSet(l0, g, s, r), mu / ((1.0 - g) * k * l0 * e)


def _derivatives(
    ab: Iterable[tuple[float, float]], x: tuple[float, ...], mu: float
) -> tuple[list[float], list[list[float]], list[list[float]]]:
    """Gradient, exact Hessian and Gauss-Newton Hessian in x of f(theta(x)) + mu log c."""

    (a0, b0), (ag, bg), (as_, bs), (ar, br) = ab
    (l0, g, s, r), k, e = _point(x), x[2], x[3]
    u0, ug, us, ur = a0 / l0, ag / g, as_ / s, ar / r
    v0, vg, vs, vr = b0 / (1.0 - l0), bg / (1.0 - g), bs / (1.0 - s), br / (1.0 - r)
    f0, fg, fs, fr = u0 - v0, ug - vg, us - vs, ur - vr
    h0, hg = -u0 / l0 - v0 / (1.0 - l0), -ug / g - vg / (1.0 - g)
    hs, hr = -us / s - vs / (1.0 - s), -ur / r - vr / (1.0 - r)
    # J = dtheta/dx: l0 and g are coordinates, and s and r have these rows.
    s1, s2 = k - 1.0, g - 1.0
    r0, r2, r3 = k * (1.0 - e), l0 * (1.0 - e), -k * l0
    grad = [f0 + fr * r0, fg + fs * s1, fs * s2 + fr * r2, fr * r3]
    diag = [h0 + hr * r0 * r0, hg + hs * s1 * s1, hs * s2 * s2 + hr * r2 * r2, hr * r3 * r3]
    if mu:  # log c = log l0 + log(1-g) + log k + log e
        for i, dlog in enumerate((1.0 / l0, -1.0 / (1.0 - g), 1.0 / k, 1.0 / e)):
            grad[i] += mu * dlog
            diag[i] -= mu * dlog * dlog
    d0, d1, d2, d3 = diag
    # J^T diag(f'') J, and the curvature of s in (g, k) and of r in (l0, k, e).
    n02, n03, n12, n23 = hr * r0 * r2, hr * r0 * r3, hs * s1 * s2, hr * r2 * r3
    x02, x03, x12, x23 = n02 + fr * (1.0 - e), n03 - fr * k, n12 + fs, n23 - fr * l0
    exact = [[d0, 0.0, x02, x03], [0.0, d1, x12, 0.0], [x02, x12, d2, x23], [x03, 0.0, x23, d3]]
    gn = [[d0, 0.0, n02, n03], [0.0, d1, n12, 0.0], [n02, n12, d2, n23], [n03, 0.0, n23, d3]]
    return grad, exact, gn


def _ascent_step(
    hess: list[list[float]], grad: list[float], n: int
) -> tuple[list[float], float] | None:
    """The Newton step -hess^-1 grad over the first n = 3 or 4 coordinates (0.0
    past them) and its decrement; None unless -hess is positive definite. Gauss-Jordan
    on [hess | grad] gives [-hess | grad]'s floats, negated outside grad's column."""

    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = hess
    a4, b4, c4, d4 = grad
    if not a0 < 0.0:
        return None
    fb, fc, fd = b0 / a0, c0 / a0, d0 / a0
    b1, b2, b3, b4 = b1 - fb * a1, b2 - fb * a2, b3 - fb * a3, b4 - fb * a4
    c1, c2, c3, c4 = c1 - fc * a1, c2 - fc * a2, c3 - fc * a3, c4 - fc * a4
    d1, d2, d3, d4 = d1 - fd * a1, d2 - fd * a2, d3 - fd * a3, d4 - fd * a4
    if not b1 < 0.0:
        return None
    fa, fc, fd = a1 / b1, c1 / b1, d1 / b1
    a2, a3, a4 = a2 - fa * b2, a3 - fa * b3, a4 - fa * b4
    c2, c3, c4 = c2 - fc * b2, c3 - fc * b3, c4 - fc * b4
    d2, d3, d4 = d2 - fd * b2, d3 - fd * b3, d4 - fd * b4
    if not c2 < 0.0:
        return None
    fa, fb, fd = a2 / c2, b2 / c2, d2 / c2
    a3, a4, b3, b4 = a3 - fa * c3, a4 - fa * c4, b3 - fb * c3, b4 - fb * c4
    d3, d4 = d3 - fd * c3, d4 - fd * c4
    if n == 4:
        if not d3 < 0.0:
            return None
        fa, fb, fc = a3 / d3, b3 / d3, c3 / d3
        a4, b4, c4 = a4 - fa * d4, b4 - fb * d4, c4 - fc * d4
    step = [a4 / -a0, b4 / -b1, c4 / -c2, d4 / -d3 if n == 4 else 0.0]
    decrement = grad[0] * step[0] + grad[1] * step[1] + grad[2] * step[2]
    return step, decrement + grad[3] * step[3] if n == 4 else decrement


def _newton(
    ab: tuple[tuple[float, float], ...], x: tuple[float, ...], mu: float
) -> tuple[tuple[float, ...], int]:
    """Maximize f(theta(x)) + mu log c over the open box (0,1)^4 from x, as
    the module docstring describes; at mu = 0, e keeps its start value.
    Returns the maximizer and the number of Newton steps taken. Raises
    NewtonConvergenceError at mu, with the gradient's max-norm in x as
    residual."""

    n = 4 if mu > 0.0 else 3

    def value(l0: float, g: float, k: float, e: float) -> float:
        if not (0.0 < l0 < 1.0 and 0.0 < g < 1.0 and 0.0 < k < 1.0 and (n < 4 or 0.0 < e < 1.0)):
            return -math.inf
        f = _objective(ab, _point((l0, g, k, e)))
        return f + mu * math.log((1.0 - g) * k * l0 * e) if mu else f

    stop = _DECREMENT * _MU_FLOOR if mu else _DECREMENT
    f = value(*x)
    for steps in range(1, _MAX_NEWTON_STEPS + 1):
        grad, exact_hess, gn_hess = _derivatives(ab, x, mu)
        for exact, hess in ((True, exact_hess), (False, gn_hess)):
            solved = _ascent_step(hess, grad, n)
            if solved is not None:
                break
        else:
            raise _failure("Hessian is singular", mu, grad)
        step, decrement = solved
        full = exact and decrement < _DECREMENT
        (l0, g, k, e), (d0, d1, d2, d3) = x, step
        t = 1.0
        for _ in range(_MAX_STEP_HALVINGS):
            f_trial = value(l0 + t * d0, g + t * d1, k + t * d2, e + t * d3)
            if f_trial >= f + 1e-4 * t * decrement or (full and f_trial > -math.inf):
                break
            t *= 0.5
        else:
            raise _failure("objective stopped increasing", mu, grad)
        x, f = (l0 + t * d0, g + t * d1, k + t * d2, e + t * d3), f_trial
        if full and t == 1.0 and decrement < stop:
            return x, steps
    raise _failure("step limit reached", mu, grad)


def _failure(reason: str, mu: float, grad: Iterable[float]) -> NewtonConvergenceError:
    stage = "barrier stage" if mu else "reduced solve"
    return NewtonConvergenceError(
        f"{stage} failed: {reason}", mu=mu, residual_norm=max(map(abs, grad), default=0.0)
    )


def solve_barrier_subproblem(
    ab: tuple[tuple[float, float], ...], x: tuple[float, ...], mu: float
) -> tuple[tuple[float, ...], int]:
    """One barrier stage: maximize objective + mu*log(c), mu > 0, over the
    box from the slack coordinates x. Returns the maximizer in slack
    coordinates, where e keeps its precision however small c is, and the
    Newton steps taken; _state gives its theta and dual. Every binding
    M-step runs one, the floor stage."""

    return _newton(ab, x, mu)


def _pushed_inside(theta: ParamSet) -> ParamSet:
    """theta, or project_feasible's adjusted vector when theta's margin is below ~1e-3."""

    l0, g, s, r = theta.astuple()
    if _margin(l0, g, s, r) >= _FEASIBLE_MARGIN:
        return theta
    target = min(_FEASIBLE_MARGIN, l0 / 4.0)
    if (1.0 - s - g) * l0 < 2.0 * target:
        shrink = (1.0 - 2.0 * target / l0) / (s + g)
        s, g = s * shrink, g * shrink
    if _margin(l0, g, s, r) < target:
        r = ((1.0 - s - g) * l0 - target) / (1.0 - g)
    return ParamSet(l0, g, s, r)


def project_feasible(theta: ParamSet) -> tuple[ParamSet, dict[str, object] | None]:
    """Return a parameter vector with margin at least ~1e-3.

    The transit rate r enters the margin linearly with a negative
    coefficient, so it is scaled down first; when even r -> 0 cannot reach
    that margin (s + g too close to 1, which random inits hit often), s and
    g are shrunk proportionally beforehand. Returns the adjusted vector and
    a change record, or (theta, None) when theta already clears the margin.
    """

    adjusted = _pushed_inside(theta)
    if adjusted is theta:
        return theta, None
    margins = {"margin_before": constraint_value(theta), "margin_after": constraint_value(adjusted)}
    return adjusted, {**margins, "from": theta.to_dict(), "to": adjusted.to_dict()}


def _m_step(stats: SufficientStats, theta_star: ParamSet) -> MStep:
    """interior_point_m_step's theta as an MStep record: its dual is 0.0
    exactly when the closed form is feasible, and its restoration is
    project_feasible's record when theta_star violates c. A failed binding
    M-step raises NewtonConvergenceError naming the reduced solve, the floor
    stage or the objective check."""

    ratios, ab = closed_form_ratios(stats), _ab(stats)
    for label, (a, b) in zip(_PARAM_LABELS[1:], ab[1:]):
        if a == 0.0 or b == 0.0:
            raise DegenerateStatsError(
                f"cannot update {label!r}: one-sided expected counts put the "
                f"maximizer on the boundary"
            )
    feasible = constraint_value(theta_star) > 0.0
    restoration = None if feasible else project_feasible(theta_star)[1]
    if 0.0 < min(ratios) and max(ratios) < 1.0 and _margin(*ratios) > 0.0:  # a NaN ratio fails c
        residual = max(map(abs, _residual(ab, ratios, 0.0, 0.0)))
        return MStep(ParamSet(*ratios), 0.0, residual, restoration=restoration)
    (l0, g, k, _), reduced = _newton(ab, _slack(_pushed_inside(theta_star))[:3] + (0.0,), 0.0)
    # On c = 0 the dual is lam = (df/dr)/(1-g), and c = (1-g)k l0 e, so the
    # floor stage starts at c = mu/lam, e = mu/(r df/dr), inside the box.
    rate = k * l0 * (ab[3][0] / (k * l0) - ab[3][1] / (1.0 - k * l0))
    if not rate > _MU_FLOOR:
        raise _failure("constraint is slack on c = 0", 0.0, ())
    x, floor = solve_barrier_subproblem(ab, (l0, g, k, _MU_FLOOR / rate), _MU_FLOOR)
    theta, dual = _state(x, _MU_FLOOR)
    residual = max(map(abs, _residual(ab, theta.astuple(), dual, _MU_FLOOR)))
    # The barrier gap at the floor is below 1e-10, so any real drop below a
    # feasible theta_star means the solver landed on the wrong point.
    drop = _objective(ab, theta.astuple()) - _objective(ab, theta_star.astuple())
    if feasible and drop < -1e-9:
        raise NewtonConvergenceError(
            "constrained M-step decreased the EM objective", mu=_MU_FLOOR, residual_norm=residual
        )
    return MStep(theta, dual, residual, reduced, floor, restoration)


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

    return _m_step(stats, theta_star).theta


def _diagnostics(records: list[MStep]) -> dict[str, object]:
    diagnostics: dict[str, object] = {
        "restorations": [
            {"iteration": iteration, **record.restoration}
            for iteration, record in enumerate(records, 1)
            if record.restoration is not None
        ],
        # Only a binding M-step has a dual, and it is positive.
        "barrier_m_steps": sum(record.dual > 0.0 for record in records),
        "newton_steps": sum(record.reduced_steps + record.floor_steps for record in records),
        "mu_floor": _MU_FLOOR,
    }
    if records:
        diagnostics["final_kkt_residual"] = records[-1].kkt_residual
        diagnostics["final_dual"] = records[-1].dual
    return diagnostics


def fit_constrained(
    dataset: Dataset | Iterable[object],
    init: ParamSet,
    options: FitOptions | None = None,
) -> FitReport:
    """EM loop whose M-step, interior_point_m_step from the current
    iterate, keeps every iterate and the final estimate inside the
    behavioral constraints.

    When an M-step fails, the fit stops and returns the fit up to the last
    completed M-step, with the error's message as failure. The diagnostics
    record genuine restorations (margin <= 0, typically only the initial
    guess) and, over the completed M-steps, the counts of binding M-steps
    and of Newton steps (reduced solve and floor stage). The log-likelihood
    trace is non-decreasing from the first feasible iterate on: from an
    infeasible init, the projection can lose likelihood at iteration 1.
    """

    return _run_em(ALGORITHM_CONSTRAINED, dataset, init, options, _m_step, _diagnostics)
