"""Tests of the benchmark itself: each check rejects a corrupted result, and
the quick mode runs every workload to a well-formed result."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from bktfit import ParamSet, fit_baum_welch, fit_constrained, log_likelihood, simulate_dataset

import checks
import workloads
from calibration import Clock
from tracing import NullTracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THETA = (0.45, 0.25, 0.1, 0.3)
VIOLATING = (0.5, 0.6, 0.3, 0.4)  # c = 0.1 * 0.5 - 0.4 * 0.4 < 0


@pytest.fixture(scope="module")
def small():
    dataset = simulate_dataset(ParamSet(*THETA), 60, 8, (5, 0, 0))
    return dataset, checks.encode(dataset)


def test_forward_pass_matches_the_program(small):
    dataset, groups = small
    for theta in (THETA, (0.3, 0.2, 0.2, 0.2), VIOLATING):
        expected = log_likelihood(ParamSet(*theta), dataset)
        assert checks.forward_log_likelihood(theta, groups) == pytest.approx(expected, rel=1e-12)


def test_forward_pass_handles_ragged_lengths():
    dataset = [(True,), (False, True), (True, True, False), (False,)]
    groups = checks.encode(dataset)
    assert sorted(groups) == [1, 2, 3]
    expected = log_likelihood(ParamSet(*THETA), dataset)
    assert checks.forward_log_likelihood(THETA, groups) == pytest.approx(expected, rel=1e-12)


def test_not_converged():
    assert checks.not_converged(True) is None
    assert checks.not_converged(False)


def test_decreasing_trace():
    assert checks.decreasing_trace([-10.0, -9.0, -9.0 - 1e-11]) is None
    assert checks.decreasing_trace([-10.0, -9.0, -9.5])


def test_loglik_mismatch(small):
    _, groups = small
    exact = checks.forward_log_likelihood(THETA, groups)
    assert checks.loglik_mismatch(exact, THETA, groups) is None
    assert checks.loglik_mismatch(exact * (1 + 1e-7), THETA, groups)


def test_infeasible():
    assert checks.infeasible(THETA) is None
    assert checks.infeasible(VIOLATING)


def test_not_fixed_point(small):
    from bktfit import sufficient_stats

    dataset, _ = small
    fitted = fit_baum_welch(dataset, ParamSet(0.3, 0.2, 0.2, 0.2)).theta_hat
    assert checks.not_fixed_point(fitted.astuple(), sufficient_stats(fitted, dataset).pairs()) is None
    moved = ParamSet(fitted.l0, fitted.g + 0.01, fitted.s, fitted.r)
    assert checks.not_fixed_point(moved.astuple(), sufficient_stats(moved, dataset).pairs())


def test_gives_up_too_much():
    assert checks.gives_up_too_much(-100.0, -100.5) is None
    assert checks.gives_up_too_much(-100.0, -102.0)


def test_far_from():
    assert checks.far_from(THETA, THETA, 0.0, "theta") is None
    assert checks.far_from((0.45, 0.25, 0.1, 0.3 + 2e-6), THETA, checks.REPLAY_TOL, "replay")


def test_below_generating():
    assert checks.below_generating(-100.0, -100.0) is None
    assert checks.below_generating(-100.1, -100.0)


def test_none_violates():
    assert checks.none_violates([THETA, VIOLATING]) is None
    assert checks.none_violates([THETA, THETA])


@pytest.fixture(scope="module")
def paired_round(tmp_path_factory):
    out = tmp_path_factory.mktemp("paired")
    inputs = workloads.build_paired(0, out, NullTracer(), quick=True)
    values = [workloads.operation(inputs, op)() for op in inputs.ops]
    return inputs, values


def test_quick_round_passes_every_check(paired_round):
    inputs, values = paired_round
    errors = [None] * len(values)
    assert workloads.check_round(inputs, inputs.ops, values, errors) == [None] * len(values)
    assert workloads.round_problems(inputs, inputs.ops, values) == []
    assert workloads.read_back_problems(inputs) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: dataclasses.replace(r, converged=False),
        lambda r: dataclasses.replace(r, loglik_trace=r.loglik_trace[:-1] + (r.loglik_trace[-2] - 1.0,)),
        lambda r: dataclasses.replace(r, loglik_trace=r.loglik_trace[:-1] + (r.loglik_trace[-1] + 1e-3,)),
        lambda r: dataclasses.replace(r, theta_hat=ParamSet(*VIOLATING)),
    ],
    ids=["not-converged", "decreasing", "loglik", "infeasible"],
)
def test_round_check_rejects_corrupted_constrained_fit(paired_round, corrupt):
    inputs, values = paired_round
    index = next(i for i, op in enumerate(inputs.ops) if op.kind == workloads.CONSTRAINED)
    values = list(values)
    values[index] = corrupt(values[index])
    problems = workloads.check_round(inputs, inputs.ops, values, [None] * len(values))
    assert problems[index] is not None


def test_round_check_rejects_moved_bw_fit_and_cli_failures(paired_round):
    inputs, values = paired_round
    bw = next(i for i, op in enumerate(inputs.ops) if op.kind == workloads.BW)
    cli = next(i for i, op in enumerate(inputs.ops) if op.kind == workloads.CLI)
    values = list(values)
    fitted = values[bw].theta_hat
    values[bw] = dataclasses.replace(values[bw], theta_hat=ParamSet(fitted.l0, fitted.g, fitted.s, fitted.r + 0.02))
    values[cli] = 3
    errors = [None] * len(values)
    errors[0] = RuntimeError("boom")
    problems = workloads.check_round(inputs, inputs.ops, values, errors)
    assert problems[bw] is not None and problems[cli] is not None and problems[0] is not None


def test_run_checks_reject_no_violation_and_bad_read_back(paired_round, tmp_path):
    inputs, values = paired_round
    feasible = [
        fit_constrained(inputs.datasets[op.data], inputs.inits[op.init]) if op.kind == workloads.BW else v
        for op, v in zip(inputs.ops, values)
    ]
    assert workloads.round_problems(inputs, inputs.ops, feasible)
    path, data = inputs.csv_files[0]
    bad = tmp_path / "bad.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-1] + ("0" if lines[1].endswith("1") else "1")
    bad.write_text("\n".join(lines) + "\n")
    broken = dataclasses.replace(inputs, csv_files=[(bad, data)])
    assert workloads.read_back_problems(broken)


def test_recovery_check_rejects_a_distant_fit(tmp_path):
    inputs = workloads.build_large(0, tmp_path, NullTracer(), quick=True)
    op = inputs.ops[0]
    report = fit_baum_welch(inputs.datasets[0], inputs.inits[op.init])
    fitted = report.theta_hat
    shifted = dataclasses.replace(report, theta_hat=ParamSet(fitted.l0 + 0.3, fitted.g, fitted.s, fitted.r))
    assert workloads.check_round(inputs, [op], [report], [None]) == [None]
    assert workloads.check_round(inputs, [op], [shifted], [None])[0] is not None
    # A feasible, converged constrained fit that stopped below the generating theta.
    poor = (0.3, 0.2, 0.2, 0.2)
    loglik = checks.forward_log_likelihood(poor, inputs.groups(0))
    stuck = dataclasses.replace(report, theta_hat=ParamSet(*poor), loglik_trace=(loglik,), converged=True)
    constrained = workloads.Op(workloads.CONSTRAINED, 0, op.init)
    assert "below the generating" in workloads.check_round(inputs, [constrained], [stuck], [None])[0]


def test_clock_returns_errors_instead_of_raising():
    clock = Clock()
    timing = clock.measure(lambda: 1 / 0)
    assert isinstance(timing.error, ZeroDivisionError) and timing.raw_s >= 0.0
    assert len(clock.kernel_times) == 2


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "benchmarks" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["paired-100x10", "large-2000x50", "csv-ragged-10k"])
def test_quick_mode_prints_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "paired-100x10", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
