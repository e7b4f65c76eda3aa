"""The three workloads: their inputs, the operations of one round, and checks.

Every workload builds its inputs from the seed alone, then runs rounds of
the same operations: library fits (fit_baum_welch, fit_constrained) and
in-process `bktfit fit` calls through bktfit.cli.main. Why each workload
exists is written in its build function's docstring.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from bktfit import (
    AttemptSequence,
    Dataset,
    FitReport,
    ParamSet,
    cli,
    fit_baum_welch,
    fit_constrained,
    random_init,
    read_dataset,
    simulate_dataset,
    sufficient_stats,
    write_dataset,
)

import checks
from tracing import NullTracer, Tracer

TRUE_THETA = ParamSet(l0=0.45, g=0.25, s=0.1, r=0.3)

# Inits for the single-dataset workloads. They do not depend on the seed,
# and two of them violate the constraint, so the constrained fitter's
# M-step starts out with the constraint active and then leaves it.
FIXED_INITS = (
    ParamSet(l0=0.2, g=0.45, s=0.35, r=0.5),
    ParamSet(l0=0.3, g=0.2, s=0.2, r=0.2),
    ParamSet(l0=0.6, g=0.35, s=0.05, r=0.1),
    ParamSet(l0=0.5, g=0.1, s=0.3, r=0.45),
)

# A fit must score at least the generating theta's log-likelihood and lie
# within this distance of it per coordinate. The maximum-likelihood l0 of
# one 2000x50 dataset (seed (7, 0, 3)) is 0.057 below the generating 0.45,
# from every init tried, with a log-likelihood 7.8 above the generating
# theta's, so the distance only catches a fit in the wrong place.
RECOVERY_TOL = 0.1

BW, CONSTRAINED, CLI = "bw", "constrained", "cli"

Tracing = Tracer | NullTracer


@dataclass(frozen=True)
class Op:
    """One operation of a round: a fit of dataset `data` from init `init`."""

    kind: str
    data: int
    init: int
    cli_files: tuple[Path, Path, Path] | None = None  # data CSV, init JSON, report


@dataclass
class Inputs:
    datasets: list[Dataset]
    inits: list[ParamSet]
    ops: list[Op]
    recovery_tol: float | None
    require_violation: bool
    csv_files: list[tuple[Path, int]]  # (written CSV, dataset index)
    _groups: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)

    def groups(self, data: int) -> dict[int, np.ndarray]:
        if data not in self._groups:
            self._groups[data] = checks.encode(self.datasets[data])
        return self._groups[data]

    def generating_loglik(self, data: int) -> float:
        return checks.forward_log_likelihood(TRUE_THETA.astuple(), self.groups(data))


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path, Tracing, bool], Inputs]


def _write_cli_inputs(
    tracer: Tracing, out: Path, tag: str, dataset: Dataset, init: ParamSet
) -> tuple[Path, Path, Path]:
    data_csv = out / f"{tag}.csv"
    init_json = out / f"{tag}.init.json"
    tracer.call("data.write_dataset", write_dataset, dataset, data_csv)
    init_json.write_text(json.dumps(init.to_dict()))
    return data_csv, init_json, out / f"{tag}.report.json"


def build_paired(seed: int, out: Path, tracer: Tracing, quick: bool) -> Inputs:
    """paired-100x10: the paper's experiment, seeded as run_experiment seeds it.

    At this size the barrier M-step is about 3/4 of constrained fit time and
    per-call numpy overhead dominates the E-step. Plain EM violates the
    constraint on about a third of the datasets, so both active and inactive
    constrained M-steps occur.
    """

    count, cli_count = (12, 3) if quick else (100, 50)
    datasets = [
        tracer.call("simulate.simulate_dataset", simulate_dataset, TRUE_THETA, 100, 10, (seed, 0, i))
        for i in range(count)
    ]
    inits = [random_init((seed, 1, i)) for i in range(count)]
    ops = [Op(kind, i, i) for i in range(count) for kind in (BW, CONSTRAINED)]
    csv_files = []
    for i in range(cli_count):
        files = _write_cli_inputs(tracer, out, f"pair{i}", datasets[i], inits[i])
        ops.append(Op(CLI, i, i, files))
        csv_files.append((files[0], i))
    return Inputs(datasets, inits, ops, None, True, csv_files)


def build_large(seed: int, out: Path, tracer: Tracing, quick: bool) -> Inputs:
    """large-2000x50: big datasets, fitted by both algorithms from fixed inits.

    The E-step is over 90% of every iteration here, so E-step and
    iteration-count changes show, while a barrier-only change should not.
    Dataset j is fitted from FIXED_INITS[j]. How many iterations EM takes
    depends on the dataset, and with a single dataset per seed the per-fit
    times and iteration sums moved by about 16% between seeds.
    """

    learners, steps = (300, 20) if quick else (2000, 50)
    datasets = [
        tracer.call("simulate.simulate_dataset", simulate_dataset, TRUE_THETA, learners, steps, (seed, 0, j))
        for j in range(len(FIXED_INITS))
    ]
    ops = [Op(kind, j, j) for j in range(len(FIXED_INITS)) for kind in (BW, CONSTRAINED)]
    csv_files = []
    for j, dataset in enumerate(datasets):
        files = _write_cli_inputs(tracer, out, f"large{j}", dataset, FIXED_INITS[j])
        ops.append(Op(CLI, j, j, files))
        csv_files.append((files[0], j))
    tol = RECOVERY_TOL * math.sqrt(2000 / learners)
    return Inputs(datasets, list(FIXED_INITS), ops, tol, False, csv_files)


def _ragged(full: Dataset, seed: int) -> Dataset:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 2))))
    lengths = rng.integers(1, 31, len(full))
    return Dataset(
        tuple(AttemptSequence(seq.attempts[:n]) for seq, n in zip(full, lengths.tolist()))
    )


def build_csv_ragged(seed: int, out: Path, tracer: Tracing, quick: bool) -> Inputs:
    """csv-ragged-10k: learners with seeded lengths of 1-30 steps, read from CSV.

    The only workload whose fit starts from a CSV file, which `bktfit fit`
    reads in time quadratic in learners today. Its E-step runs over 30
    length groups, length-1 learners included.
    """

    learners = 500 if quick else 10_000
    full = tracer.call(
        "simulate.simulate_dataset", simulate_dataset, TRUE_THETA, learners, 30, (seed, 0, 0)
    )
    dataset = _ragged(full, seed)
    inits = [FIXED_INITS[0]]
    files = _write_cli_inputs(tracer, out, "ragged", dataset, inits[0])
    ops = [Op(CLI, 0, 0, files), Op(CONSTRAINED, 0, 0), Op(BW, 0, 0)]
    tol = RECOVERY_TOL * math.sqrt(10_000 / learners)
    return Inputs([dataset], inits, ops, tol, False, [(files[0], 0)])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paired-100x10", build_paired),
        Workload("large-2000x50", build_large),
        Workload("csv-ragged-10k", build_csv_ragged),
    )
}


def call_cli(files: tuple[Path, Path, Path]) -> int:
    data_csv, init_json, report = files
    argv = ["fit", "--data", str(data_csv), "--algorithm", "constrained"]
    return cli.main(argv + ["--init", str(init_json), "--out", str(report)])


def operation(inputs: Inputs, op: Op) -> Callable[[], object]:
    """The call that one op times."""

    dataset, init = inputs.datasets[op.data], inputs.inits[op.init]
    if op.kind == BW:
        return lambda: fit_baum_welch(dataset, init)
    if op.kind == CONSTRAINED:
        return lambda: fit_constrained(dataset, init)
    assert op.cli_files is not None
    files = op.cli_files
    return lambda: call_cli(files)


@dataclass(frozen=True)
class FitOutcome:
    """What the checks need from a fit, whether library report or CLI JSON."""

    theta: tuple[float, float, float, float]
    trace: tuple[float, ...]
    converged: bool

    @classmethod
    def of_report(cls, report: FitReport) -> "FitOutcome":
        return cls(report.theta_hat.astuple(), report.loglik_trace, report.converged)

    @classmethod
    def of_json(cls, path: Path) -> "FitOutcome":
        payload = json.loads(path.read_text())
        theta = ParamSet.from_dict(payload["theta_hat"]).astuple()
        return cls(theta, tuple(payload["loglik_trace"]), bool(payload["converged"]))


def outcome(op: Op, value: object) -> FitOutcome:
    if op.kind == CLI:
        assert op.cli_files is not None
        return FitOutcome.of_json(op.cli_files[2])
    assert isinstance(value, FitReport)
    return FitOutcome.of_report(value)


def check_round(
    inputs: Inputs, ops: list[Op], values: list[object], errors: list[BaseException | None]
) -> list[str | None]:
    """The first problem with each op's result, or None where it passed."""

    outcomes: dict[int, FitOutcome] = {}
    problems: list[str | None] = []
    for index, (op, value, error) in enumerate(zip(ops, values, errors)):
        if error is not None:
            problems.append(f"raised {type(error).__name__}: {error}")
            continue
        if op.kind == CLI and value != 0:
            problems.append(f"bktfit fit exited {value}")
            continue
        try:
            outcomes[index] = outcome(op, value)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable fit report: {exc}")
            continue
        problems.append(None)

    library = {(op.kind, op.data, op.init): outcomes.get(i) for i, op in enumerate(ops) if op.kind != CLI}
    for index, op in enumerate(ops):
        fit = outcomes.get(index)
        if fit is None:
            continue
        groups = inputs.groups(op.data)
        # EM's ascent guarantee needs a feasible current iterate for the
        # constrained M-step, so a constrained fit from an infeasible init
        # is held to it from its first M-step on.
        init_infeasible = op.kind != BW and checks.margin(inputs.inits[op.init].astuple()) <= 0.0
        found = [
            checks.decreasing_trace(fit.trace[1:] if init_infeasible else fit.trace),
            checks.loglik_mismatch(fit.trace[-1], fit.theta, groups),
        ]
        if op.kind == BW:
            # Plain EM ran into its 500-iteration cap on two of 2,200 paired
            # datasets, crawling toward a boundary, so its stopping reason
            # is not checked; the fixed-point check below still rejects a
            # fit stopped short of convergence.
            pairs = sufficient_stats(ParamSet(*fit.theta), inputs.datasets[op.data]).pairs()
            found.append(checks.not_fixed_point(fit.theta, pairs))
        else:
            found.append(checks.not_converged(fit.converged))
            found.append(checks.infeasible(fit.theta))
            plain = library.get((BW, op.data, op.init))
            if plain is not None:
                found.append(checks.gives_up_too_much(plain.trace[-1], fit.trace[-1]))
        if op.kind == CLI:
            lib = library.get((CONSTRAINED, op.data, op.init))
            if lib is None:
                found.append("no library fit_constrained of the same data to compare with")
            else:
                found.append(checks.far_from(fit.theta, lib.theta, checks.CLI_MATCH_TOL, "CLI theta vs library fit"))
        if inputs.recovery_tol is not None:
            found.append(checks.below_generating(fit.trace[-1], inputs.generating_loglik(op.data)))
            found.append(
                checks.far_from(fit.theta, TRUE_THETA.astuple(), inputs.recovery_tol, "fitted vs generating theta")
            )
        problems[index] = checks.first_problem(*found)
    return problems


def round_problems(inputs: Inputs, ops: list[Op], values: list[object]) -> list[str]:
    """Properties of a whole round rather than of one op."""

    found = []
    if inputs.require_violation:
        bw = [v.theta_hat.astuple() for op, v in zip(ops, values) if op.kind == BW and isinstance(v, FitReport)]
        found.append(checks.none_violates(bw))
    return [p for p in found if p is not None]


def read_back_problems(inputs: Inputs) -> list[str]:
    """Every CSV the workload wrote must read back equal to its dataset."""

    found = []
    for path, data in inputs.csv_files:
        if read_dataset(path) != inputs.datasets[data]:
            found.append(f"{path.name} does not read back equal to the dataset written")
    return found


def iterations(ops: list[Op], values: list[object], kind: str) -> int:
    return sum(v.iterations for op, v in zip(ops, values) if op.kind == kind and isinstance(v, FitReport))
