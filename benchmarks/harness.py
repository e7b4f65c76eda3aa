"""Untraced and traced runs of one workload, and the metrics they report.

An untraced run sets the workload up SETUP_REPEATS times, then measures
whole rounds of its operations, each bracketed by calibration kernels. It
starts another round only while the last round's duration still fits in
the time left. A traced run measures one untraced round for the raw
seconds, then replays the same fits layer by layer with spans, drives the
CLI and the experiment harness, and reports per-layer metrics.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from bktfit import ExperimentConfig, read_dataset, run_experiment

import checks
import layers
import workloads
from calibration import Clock, Timing
from tracing import NullTracer, Tracer
from workloads import BW, CLI, CONSTRAINED, Inputs, Op, Workload

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "bw_fit_s_p50": "s",
    "constrained_fit_s_p50": "s",
    "constrained_fit_s_p90": "s",
    "cli_fit_s": "s",
    "bw_em_iterations": "count",
    "constrained_em_iterations": "count",
    "peak_rss_mb": "MB",
}

_TIMED = ("setup_s", "bw_fit_s_p50", "constrained_fit_s_p50", "constrained_fit_s_p90", "cli_fit_s")

PER_LAYER_UNITS = {
    "calibration.ref_s": "s",
    "simulate.simulate_dataset_s": "s",
    "data.write_dataset_s": "s",
    "data.read_dataset_s": "s",
    "estep.sufficient_stats_s": "s",
    "estep.calls": "count",
    "estep.total_s": "s",
    "baum_welch.m_step_s": "s",
    "interior_point.m_step_s": "s",
    "interior_point.total_s": "s",
    "interior_point.m_step_active_s": "s",
    "interior_point.m_step_inactive_s": "s",
    "interior_point.m_steps_active": "count",
    "interior_point.m_steps_inactive": "count",
    "interior_point.barrier_stages": "count",
    "cli.fit_s": "s",
    "cli.overhead_s": "s",
    "experiment.run_experiment_s.jobs1": "s",
    "experiment.run_experiment_s.jobs2": "s",
    "trace.overhead_s": "s",
    **{f"raw.{name}": "s" for name in _TIMED},
}


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measurement:
    """Everything an untraced run saw."""

    inputs: Inputs
    setups: list[Timing]
    rounds: list[list[Timing]] = field(default_factory=list)
    problems: list[str | None] = field(default_factory=list)  # one per op, all rounds
    run_problems: list[str] = field(default_factory=list)
    kernel_times: list[float] = field(default_factory=list)

    def times(self, kind: str, calibrated: bool) -> list[float]:
        ops = self.inputs.ops
        return [
            t.calibrated_s if calibrated else t.raw_s
            for timings in self.rounds
            for op, t in zip(ops, timings)
            if op.kind == kind
        ]

    def timed_metrics(self, calibrated: bool) -> dict[str, float]:
        setup = [t.calibrated_s if calibrated else t.raw_s for t in self.setups]
        bw = self.times(BW, calibrated)
        constrained = self.times(CONSTRAINED, calibrated)
        return {
            "setup_s": median(setup),
            "bw_fit_s_p50": median(bw),
            "constrained_fit_s_p50": median(constrained),
            "constrained_fit_s_p90": p90(constrained),
            "cli_fit_s": median(self.times(CLI, calibrated)),
        }

    def first_round_values(self) -> list[object]:
        return [t.value for t in self.rounds[0]]

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(p is not None for p in self.problems)


def measure(workload: Workload, seed: int, seconds: float, out: Path, quick: bool) -> Measurement:
    clock = Clock()
    setups = [clock.measure(lambda: workload.build(seed, out, NullTracer(), quick)) for _ in range(SETUP_REPEATS)]
    for timing in setups:
        if timing.error is not None:
            raise timing.error
    inputs = setups[-1].value
    assert isinstance(inputs, Inputs)
    result = Measurement(inputs, setups)
    measured = 0.0
    while True:
        round_started = time.perf_counter()
        timings = [clock.measure(workloads.operation(inputs, op)) for op in inputs.ops]
        round_s = time.perf_counter() - round_started
        measured += round_s
        result.rounds.append(timings)
        # Checked before the next round rewrites the CLI reports.
        values = [t.value for t in timings]
        result.problems += workloads.check_round(inputs, inputs.ops, values, [t.error for t in timings])
        result.run_problems += workloads.round_problems(inputs, inputs.ops, values)
        if measured + round_s > seconds:
            break
    result.kernel_times = clock.kernel_times
    result.run_problems += workloads.read_back_problems(inputs)
    return result


def end_to_end(m: Measurement) -> dict[str, float]:
    values = m.first_round_values()
    metrics = m.timed_metrics(calibrated=True)
    metrics["bw_em_iterations"] = workloads.iterations(m.inputs.ops, values, BW)
    metrics["constrained_em_iterations"] = workloads.iterations(m.inputs.ops, values, CONSTRAINED)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


@dataclass
class Traced:
    metrics: dict[str, float]
    attempted: int
    failed: int
    op_problems: list[str]
    run_problems: list[str]
    tracer: Tracer


def _experiment(seed: int, quick: bool) -> tuple[dict[str, float], str | None]:
    """paired-100x10's config through run_experiment with 1 and 2 workers."""

    config = ExperimentConfig(
        true_theta=workloads.TRUE_THETA,
        num_datasets=12 if quick else 100,
        learners=100,
        steps=10,
        master_seed=seed,
    )
    seconds = {}
    fitted = {}
    for jobs in (1, 2):
        started = time.perf_counter()
        result = run_experiment(config, jobs=jobs)
        seconds[f"experiment.run_experiment_s.jobs{jobs}"] = time.perf_counter() - started
        fitted[jobs] = [(r.run_id, r.algorithm, r.report.theta_hat, r.report.loglik_trace) for r in result.records]
    problem = None if fitted[1] == fitted[2] else "run_experiment results differ between 1 and 2 workers"
    return seconds, problem


def traced(workload: Workload, seed: int, out: Path, quick: bool) -> Traced:
    m = measure(workload, seed, 0.0, out, quick)  # exactly one round
    problems = [p for p in m.problems if p is not None]
    untraced_s = {op: t.raw_s for op, t in zip(m.inputs.ops, m.rounds[0])}
    reports = dict(zip(m.inputs.ops, m.first_round_values()))

    tracer = Tracer()
    with tracer.span("setup"):
        inputs = workload.build(seed, out, tracer, quick)
    simulate_s = sum(tracer.durations("simulate.simulate_dataset"))
    write_s = sum(tracer.durations("data.write_dataset"))

    # One entry per traced operation: None, or what went wrong with it.
    traced_problems: list[str | None] = []
    counter = layers.StageCounter()
    fit_ops = [op for op in inputs.ops if op.kind != CLI]
    with counter.installed():
        for op in fit_ops:
            fitted = reports.get(op)
            try:
                theta = layers.replay(tracer, op.kind, inputs.datasets[op.data], inputs.inits[op.init])
            except Exception as exc:  # counted as a failed operation
                problem: str | None = f"replay raised {type(exc).__name__}: {exc}"
            else:
                problem = (
                    "fitter raised, nothing to compare the replay with"
                    if fitted is None
                    else checks.far_from(theta.astuple(), fitted.theta_hat.astuple(), checks.REPLAY_TOL, "replay vs fitter theta")
                )
            traced_problems.append(problem and f"{op.kind} fit {op.data}/{op.init}: {problem}")
    replay_s = sum(tracer.durations("fit.bw")) + sum(tracer.durations("fit.constrained"))
    overhead_s = replay_s - sum(untraced_s[op] for op in fit_ops)

    cli_s, cli_overhead_s, read_s = [], [], []
    for op in inputs.ops:
        if op.kind != CLI:
            continue
        assert op.cli_files is not None
        with tracer.span("data.read_dataset"):
            read_dataset(op.cli_files[0])
        with tracer.span("cli.main"):
            code = workloads.call_cli(op.cli_files)
        traced_problems.append(None if code == 0 else f"bktfit fit exited {code}")
        cli_s.append(tracer.durations("cli.main")[-1])
        read_s.append(tracer.durations("data.read_dataset")[-1])
        library_s = untraced_s[Op(CONSTRAINED, op.data, op.init)]
        cli_overhead_s.append(cli_s[-1] - read_s[-1] - library_s)

    experiment_s, experiment_problem = _experiment(seed, quick)
    traced_problems.append(experiment_problem)

    estep = tracer.durations(layers.ESTEP)
    active = tracer.durations(layers.IP_ACTIVE)
    inactive = tracer.durations(layers.IP_INACTIVE)
    ip = active + inactive
    metrics: dict[str, float] = {
        "calibration.ref_s": median(m.kernel_times),
        "simulate.simulate_dataset_s": simulate_s,
        "data.write_dataset_s": write_s,
        "data.read_dataset_s": sum(read_s),
        "estep.sufficient_stats_s": median(estep),
        "estep.calls": len(estep),
        "estep.total_s": sum(estep),
        "baum_welch.m_step_s": median(tracer.durations(layers.BW_MSTEP)),
        "interior_point.m_step_s": median(ip),
        "interior_point.total_s": sum(ip),
        "interior_point.m_step_active_s": median(active) if active else 0.0,
        "interior_point.m_step_inactive_s": median(inactive) if inactive else 0.0,
        "interior_point.m_steps_active": len(active),
        "interior_point.m_steps_inactive": len(inactive),
        "interior_point.barrier_stages": counter.stages,
        "cli.fit_s": median(cli_s),
        "cli.overhead_s": median(cli_overhead_s),
        **experiment_s,
        "trace.overhead_s": overhead_s,
    }
    for name, value in m.timed_metrics(calibrated=False).items():
        metrics[f"raw.{name}"] = value
    problems += [p for p in traced_problems if p is not None]
    attempted = m.attempted + len(traced_problems)
    return Traced(metrics, attempted, len(problems), problems, m.run_problems, tracer)
