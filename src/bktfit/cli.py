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
import functools
import json
import sys
from pathlib import Path

from .baum_welch import DegenerateStatsError
from .core import ParamSet, _require_int, param_values, parse_object, validate_values
from .data import read_dataset, write_dataset, write_ground_truth
from .experiment import FITTERS, ExperimentConfig, run_experiment, write_experiment_artifacts
from .fitting import FitOptions, FitReport, random_init
from .simulate import DEFAULT_LEARNERS, DEFAULT_STEPS, simulate_dataset_with_paths

__all__ = ["main", "entrypoint", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_CONVERGENCE = 4
EXIT_DEGENERATE = 5


def _load_json(path: Path) -> object:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def _load_params(path: Path) -> ParamSet:
    return ParamSet.from_dict(_load_json(path))


_SIDECAR_KEYS = ("theta", "learners", "steps", "seed")


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.sidecar is not None:
        fields = parse_object(
            _load_json(args.sidecar), _SIDECAR_KEYS, "sidecar", required=_SIDECAR_KEYS
        )
        theta = ParamSet(**param_values(fields["theta"], "sidecar 'theta'"))
        learners, steps, seed = fields["learners"], fields["steps"], fields["seed"]
        # A sidecar records an int --seed; the simulator's wider seed rule
        # would read a bool as its int and raise TypeError on a float.
        _require_int(seed, "seed")
    else:
        theta = _load_params(args.params)
        learners, steps, seed = args.learners, args.steps, args.seed
    dataset, states = simulate_dataset_with_paths(theta, learners, steps, seed)
    if args.truth is not None:
        write_ground_truth(dataset, states, args.truth)
    write_dataset(dataset, args.out)
    sidecar = {
        "theta": theta.to_dict(),
        "learners": learners,
        "steps": steps,
        "seed": seed,
    }
    Path(str(args.out) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")
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
    report = FITTERS[args.algorithm](dataset, init, options)
    _write_report(report, args.out)
    if report.failure:
        print(f"solver failure: {report.failure}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
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
    config = ExperimentConfig.from_dict(_load_json(args.config))
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
    fit.add_argument("--algorithm", choices=list(FITTERS), required=True)
    fit.add_argument("--init", type=Path, help="initial guess JSON; default is random")
    fit.add_argument("--init-seed", type=int, default=0)
    options = FitOptions()
    fit.add_argument("--max-iterations", type=int, default=options.max_iterations)
    fit.add_argument("--loglik-tolerance", type=float, default=options.loglik_tolerance)
    fit.add_argument("--param-tolerance", type=float, default=options.param_tolerance)
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


# main's parser, built once: the tree depends only on constants, and parsing
# leaves it as it was.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except DegenerateStatsError as exc:
        print(f"degenerate result: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, ValueError) as exc:
        # DatasetFormatError and ParameterError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())
