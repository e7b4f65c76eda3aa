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
from .fitting import ALGORITHM_BAUM_WELCH, FitOptions, FitReport, MStep, _run_em

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

    (a0, _), (ag, bg), (as_, bs), (ar, br) = stats.prior, stats.guess, stats.slip, stats.transit
    denominators = (stats.learner_count, ag + bg, as_ + bs, ar + br)
    if min(denominators) <= 0.0:  # the int learner_count comes first, so min skips NaN
        label = next(label for label, d in zip(_PARAM_LABELS, denominators) if d <= 0.0)
        raise DegenerateStatsError(f"cannot update {label!r}: expected-count denominator is zero")
    learners, guesses, slips, transits = denominators
    return a0 / learners, ag / guesses, as_ / slips, ar / transits


def _m_step(stats: SufficientStats, theta: ParamSet | None = None) -> MStep:
    """The closed-form update, nudged off exact boundaries, and the names of
    the parameters it nudged; the current iterate theta is not used."""

    ratios = closed_form_ratios(stats)
    l0, g, s, r = ratios
    low, high = BOUNDARY_NUDGE, 1.0 - BOUNDARY_NUDGE
    if low <= l0 <= high and low <= g <= high and low <= s <= high and low <= r <= high:
        return MStep(ParamSet(l0, g, s, r))
    nudged = [min(max(value, BOUNDARY_NUDGE), 1.0 - BOUNDARY_NUDGE) for value in ratios]
    hits = tuple(name for name, value, new in zip(PARAM_NAMES, ratios, nudged) if new != value)
    return MStep(ParamSet(*nudged), boundary_hits=hits)


def m_step_closed_form(stats: SufficientStats) -> ParamSet:
    """Closed-form parameter update, nudged off exact boundaries."""

    return _m_step(stats).theta


def _diagnostics(records: list[MStep]) -> dict[str, object]:
    hits = [
        {"iteration": iteration, "parameters": list(record.boundary_hits)}
        for iteration, record in enumerate(records, 1)
        if record.boundary_hits
    ]
    return {"boundary_hits": hits}


def fit_baum_welch(
    dataset: Dataset | Iterable[object], init: ParamSet, options: FitOptions | None = None
) -> FitReport:
    """EM loop alternating expected counts and the closed-form update.

    Stops when the log-likelihood gain or the largest parameter change
    drops below its tolerance, or at the iteration cap. The fitted
    parameters may violate the behavioral constraints; the report's
    constraint verdicts say so without altering the estimate.
    """

    return _run_em(ALGORITHM_BAUM_WELCH, dataset, init, options, _m_step, _diagnostics)

