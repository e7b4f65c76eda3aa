"""Replays of the fitters' EM loops through bktfit's public layer functions.

The traced run drives each fit from here, not from inside the program: every
iteration calls sufficient_stats, then m_step_closed_form (Baum-Welch) or
interior_point_m_step (constrained), with the fitters' stopping rule, and
records a span around each call. The replay must end where the fitter ended,
so that its layer numbers describe the same fits.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator

import bktfit.interior_point as interior_point
from bktfit import (
    Dataset,
    FitOptions,
    ParamSet,
    interior_point_m_step,
    m_step_closed_form,
    sufficient_stats,
)

import checks
from tracing import Tracer

ESTEP = "estep.sufficient_stats"
BW_MSTEP = "baum_welch.m_step_closed_form"
IP_ACTIVE = "interior_point.m_step.active"
IP_INACTIVE = "interior_point.m_step.inactive"


@dataclass
class StageCounter:
    """Counts barrier stages: calls of interior_point.solve_barrier_subproblem."""

    stages: int = 0

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        original = interior_point.solve_barrier_subproblem

        def counted(*args, **kwargs):  # type: ignore[no-untyped-def]
            self.stages += 1
            return original(*args, **kwargs)

        interior_point.solve_barrier_subproblem = counted
        try:
            yield
        finally:
            interior_point.solve_barrier_subproblem = original


def replay(tracer: Tracer, kind: str, dataset: Dataset, init: ParamSet) -> ParamSet:
    """One EM fit, layer call by layer call; returns the final theta.

    kind is "bw" or "constrained". A constrained M-step is labelled active
    when the closed-form ratios from the same stats give c <= 0.
    """

    opts = FitOptions()
    theta = init
    with tracer.span(f"fit.{kind}"):
        stats = tracer.call(ESTEP, sufficient_stats, theta, dataset)
        trace = [stats.log_likelihood]
        for _ in range(opts.max_iterations):
            if kind == "bw":
                theta_new = tracer.call(BW_MSTEP, m_step_closed_form, stats)
            else:
                active = checks.margin(checks.closed_form(stats.pairs())) <= 0.0
                name = IP_ACTIVE if active else IP_INACTIVE
                theta_new = tracer.call(name, interior_point_m_step, stats, theta)
            delta = max(abs(new - old) for new, old in zip(theta_new.astuple(), theta.astuple()))
            theta = theta_new
            stats = tracer.call(ESTEP, sufficient_stats, theta, dataset)
            trace.append(stats.log_likelihood)
            if abs(trace[-1] - trace[-2]) < opts.loglik_tolerance or delta < opts.param_tolerance:
                break
    return theta
