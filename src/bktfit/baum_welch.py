"""Classical EM for the mastery model: closed-form M-step plus the outer loop.

The M-step is a set of ratios of expected counts:

    l0 = a_prior / D      g = a_guess / (a_guess + b_guess)
    s  = a_slip / (a_slip + b_slip)      r = a_transit / (a_transit + b_transit)

Ratios of non-negative sums stay in [0, 1] but can land exactly on the
boundary (for example s = 0 when every answer in the dataset is correct).
A boundary value would make the next E-step's logs infinite, so it is
nudged inward by 1e-12 and the hit is recorded in the report rather than
treated as an error. Nothing here enforces the behavioral constraints; the
report simply says whether the fitted parameters happen to satisfy them.
"""

from __future__ import annotations

from typing import Iterable

from .core import PARAM_NAMES, ParamSet
from .data import Dataset
from .estep import SufficientStats
from .fitting import ALGORITHM_BAUM_WELCH, FitOptions, FitReport, _run_em

__all__ = [
    "DegenerateStatsError",
    "BOUNDARY_NUDGE",
    "closed_form_ratios",
    "m_step_closed_form",
    "fit_baum_welch",
]

BOUNDARY_NUDGE = 1e-12

_PARAM_LABELS = ("prior", "guess", "slip", "transit")


class DegenerateStatsError(RuntimeError):
    """An M-step denominator is zero, so a parameter is unidentifiable."""


def closed_form_ratios(stats: SufficientStats) -> tuple[float, float, float, float]:
    """Raw M-step ratios, which may sit exactly on 0 or 1."""

    ratios = []
    pairs = (stats.prior, stats.guess, stats.slip, stats.transit)
    for name, label, (a, b) in zip(PARAM_NAMES, _PARAM_LABELS, pairs):
        denominator = stats.learner_count if name == "l0" else a + b
        if denominator <= 0.0:
            raise DegenerateStatsError(
                f"cannot update {label!r}: expected-count denominator is zero"
            )
        ratios.append(a / denominator)
    return tuple(ratios)  # type: ignore[return-value]


def _nudge_interior(ratios: tuple[float, float, float, float]) -> tuple[ParamSet, list[str]]:
    nudged = [min(max(value, BOUNDARY_NUDGE), 1.0 - BOUNDARY_NUDGE) for value in ratios]
    hits = [name for name, value, new in zip(PARAM_NAMES, ratios, nudged) if new != value]
    return ParamSet(*nudged), hits


def m_step_closed_form(stats: SufficientStats) -> ParamSet:
    """Closed-form parameter update, nudged off exact boundaries."""

    theta, _ = _nudge_interior(closed_form_ratios(stats))
    return theta


def fit_baum_welch(
    dataset: Dataset | Iterable[object], init: ParamSet, options: FitOptions | None = None
) -> FitReport:
    """EM loop alternating expected counts and the closed-form update.

    Stops when the log-likelihood gain or the largest parameter change
    drops below its tolerance, or at the iteration cap. The fitted
    parameters may violate the behavioral constraints; the report's
    constraint verdicts say so without altering the estimate.
    """

    boundary_hits: list[dict[str, object]] = []

    def m_step(stats: SufficientStats, theta: ParamSet, iteration: int) -> ParamSet:
        theta_new, hits = _nudge_interior(closed_form_ratios(stats))
        if hits:
            boundary_hits.append({"iteration": iteration, "parameters": hits})
        return theta_new

    diagnostics = {"boundary_hits": boundary_hits}
    return _run_em(ALGORITHM_BAUM_WELCH, dataset, init, options, m_step, diagnostics)
