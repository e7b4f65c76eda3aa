"""Mastery-model fitting with behavioral constraints built in.

The package simulates learner response data from a two-state absorbing
mastery model, fits it with plain Baum-Welch or with a barrier-method EM
whose every iterate satisfies the behavioral constraints, and ships an
enumeration oracle plus experiment harness for auditing both.
"""

from .baum_welch import DegenerateStatsError, fit_baum_welch, m_step_closed_form
from .core import (
    ConstraintReport,
    ParamSet,
    ParameterError,
    UndefinedFixedPointError,
    fixed_point,
    trace_sequence,
    validate_params,
)
from .data import AttemptSequence, Dataset, DatasetFormatError, read_dataset, write_dataset
from .estep import forward_backward, log_likelihood, posteriors, sufficient_stats
from .experiment import ExperimentConfig, run_experiment
from .fitting import FitOptions, FitReport, random_init
from .interior_point import (
    NewtonConvergenceError,
    fit_constrained,
    interior_point_m_step,
    kkt_residual,
    project_feasible,
)
from .oracle import (
    enumerate_em_objective,
    enumerate_likelihood,
    enumerate_paths,
    enumerate_posteriors,
)
from .simulate import simulate_dataset

__version__ = "0.1.0"

__all__ = [
    "AttemptSequence",
    "ConstraintReport",
    "Dataset",
    "DatasetFormatError",
    "DegenerateStatsError",
    "ExperimentConfig",
    "FitOptions",
    "FitReport",
    "NewtonConvergenceError",
    "ParamSet",
    "ParameterError",
    "UndefinedFixedPointError",
    "enumerate_em_objective",
    "enumerate_likelihood",
    "enumerate_paths",
    "enumerate_posteriors",
    "fit_baum_welch",
    "fit_constrained",
    "fixed_point",
    "forward_backward",
    "interior_point_m_step",
    "kkt_residual",
    "log_likelihood",
    "m_step_closed_form",
    "posteriors",
    "project_feasible",
    "random_init",
    "read_dataset",
    "run_experiment",
    "simulate_dataset",
    "sufficient_stats",
    "trace_sequence",
    "validate_params",
    "write_dataset",
]
