"""Command-line front end.

    bktfit simulate --params theta.json --learners 100 --steps 10 --seed 0 \
        --out data.csv
    bktfit fit --data data.csv --algorithm constrained --out report.json
    bktfit experiment --config experiment.json --out results/ --jobs 4 --svg
    bktfit validate theta.json

Exit codes: 0 success, 2 usage, 3 I/O or parse failure, 4 non-convergence,
5 degenerate result (constraint-violating fit, unanswerable data, or failed
validation), so batch scripts can branch on the outcome.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baum_welch import DegenerateStatsError, fit_baum_welch
from .core import ParamSet, ParameterError, param_values, parse_object, validate_values
from .data import DatasetFormatError, read_dataset, write_dataset, write_ground_truth
from .experiment import ExperimentConfig, run_experiment, write_experiment_artifacts
from .fitting import (
    ALGORITHM_BAUM_WELCH,
    ALGORITHM_CONSTRAINED,
    FitOptions,
    FitReport,
    random_init,
)
from .interior_point import (
    BarrierSchedule,
    NewtonConvergenceError,
    fit_constrained,
)
from .simulate import DEFAULT_LEARNERS, DEFAULT_STEPS, simulate_dataset_with_paths

__all__ = ["main", "entrypoint", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_CONVERGENCE = 4
EXIT_DEGENERATE = 5


def _load_json(path: Path) -> object:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: invalid JSON: {exc}") from exc


def _load_params(path: Path) -> ParamSet:
    return ParamSet.from_dict(_load_json(path))


_SIDECAR_KINDS = {"theta": dict, "learners": int, "steps": int, "seed": int}


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.sidecar is not None:
        fields = parse_object(
            _load_json(args.sidecar), _SIDECAR_KINDS, "sidecar", required=_SIDECAR_KINDS
        )
        theta = ParamSet.from_dict(fields["theta"])
        learners, steps, seed = fields["learners"], fields["steps"], fields["seed"]
    else:
        theta = _load_params(args.params)
        learners, steps, seed = args.learners, args.steps, args.seed
    dataset, paths = simulate_dataset_with_paths(theta, learners, steps, seed)
    write_dataset(dataset, args.out)
    sidecar = {
        "theta": theta.to_dict(),
        "learners": learners,
        "steps": steps,
        "seed": seed,
    }
    Path(str(args.out) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    if args.truth is not None:
        write_ground_truth(dataset, paths, args.truth)
    print(f"wrote {learners} learners x {steps} steps to {args.out}")
    return EXIT_OK


def _write_report(report: FitReport, out: Path | None) -> None:
    text = json.dumps(report.to_dict(), indent=2)
    if out is not None:
        out.write_text(text + "\n")
    else:
        print(text)


def cmd_fit(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.data)
    init = _load_params(args.init) if args.init is not None else random_init(args.init_seed)
    options = FitOptions(
        max_iterations=args.max_iterations,
        loglik_tolerance=args.loglik_tolerance,
        param_tolerance=args.param_tolerance,
    )
    if args.algorithm == ALGORITHM_BAUM_WELCH:
        report = fit_baum_welch(dataset, init, options)
    else:
        schedule = BarrierSchedule(
            mu_initial=args.mu_initial, decay=args.mu_decay, mu_floor=args.mu_floor
        )
        try:
            report = fit_constrained(dataset, init, options, schedule)
        except NewtonConvergenceError as exc:
            # Keep the fit up to the failed M-step; main still exits 4.
            if exc.report is not None:
                _write_report(exc.report, args.out)
            raise
    _write_report(report, args.out)
    if not report.converged:
        print(
            f"did not converge within {options.max_iterations} iterations",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    if not report.constraints.satisfied:
        print("fit violates the behavioral constraints", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config.read_text())
    result = run_experiment(config, jobs=args.jobs)
    paths = write_experiment_artifacts(result, args.out, svg=args.svg)
    for path in paths.values():
        print(path)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    report = validate_values(**param_values(_load_json(args.params_file)))
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.satisfied else EXIT_DEGENERATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bktfit",
        description="Simulate, fit, and audit the constrained mastery model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--params", type=Path, help="JSON file with l0, g, s, r")
    source.add_argument(
        "--sidecar", type=Path, help="regenerate from an existing .meta.json sidecar"
    )
    sim.add_argument(
        "--learners", type=int, default=DEFAULT_LEARNERS, help="ignored with --sidecar"
    )
    sim.add_argument(
        "--steps", type=int, default=DEFAULT_STEPS, help="ignored with --sidecar"
    )
    sim.add_argument("--seed", type=int, default=0, help="ignored with --sidecar")
    sim.add_argument("--out", type=Path, required=True, help="dataset CSV destination")
    sim.add_argument("--truth", type=Path, help="also write hidden states here")
    sim.set_defaults(handler=cmd_simulate)

    fit = sub.add_parser("fit", help="fit parameters to a dataset CSV")
    fit.add_argument("--data", type=Path, required=True)
    fit.add_argument(
        "--algorithm",
        choices=[ALGORITHM_BAUM_WELCH, ALGORITHM_CONSTRAINED],
        required=True,
    )
    fit.add_argument("--init", type=Path, help="initial guess JSON; default is random")
    fit.add_argument("--init-seed", type=int, default=0)
    fit.add_argument("--max-iterations", type=int, default=500)
    fit.add_argument("--loglik-tolerance", type=float, default=1e-8)
    fit.add_argument("--param-tolerance", type=float, default=1e-8)
    fit.add_argument("--mu-initial", type=float, default=1.0)
    fit.add_argument("--mu-decay", type=float, default=0.2)
    fit.add_argument("--mu-floor", type=float, default=1e-10)
    fit.add_argument("--out", type=Path, help="report JSON destination; default stdout")
    fit.set_defaults(handler=cmd_fit)

    exp = sub.add_parser("experiment", help="run a batch comparison experiment")
    exp.add_argument("--config", type=Path, required=True, help="experiment JSON")
    exp.add_argument("--out", type=Path, required=True, help="output directory")
    exp.add_argument("--jobs", type=int, default=1)
    exp.add_argument("--svg", action="store_true", help="also write scatter SVGs")
    exp.set_defaults(handler=cmd_experiment)

    val = sub.add_parser("validate", help="check a parameter file's constraints")
    val.add_argument("params_file", type=Path)
    val.set_defaults(handler=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except (DatasetFormatError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DegenerateStatsError as exc:
        print(f"degenerate result: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NewtonConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())
