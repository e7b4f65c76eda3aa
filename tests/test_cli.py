"""Command-line behavior: outputs, round-trips, and the exit-code contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bktfit.interior_point as interior_point
from bktfit import NewtonConvergenceError, random_init, read_dataset
from bktfit.cli import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from conftest import TRUE_THETA


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(TRUE_THETA.to_json())
    return path


@pytest.fixture
def dataset_file(tmp_path, theta_file):
    path = tmp_path / "data.csv"
    code = main(
        [
            "simulate",
            "--params",
            str(theta_file),
            "--learners",
            "40",
            "--steps",
            "8",
            "--seed",
            "6",
            "--out",
            str(path),
        ]
    )
    assert code == EXIT_OK
    return path


def test_validate_satisfied(theta_file, capsys):
    assert main(["validate", str(theta_file)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["satisfied"] is True
    assert report["margin"] > 0


def test_validate_violating_parameters(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"l0": 0.5, "g": 0.7, "s": 0.5, "r": 0.2}')
    assert main(["validate", str(path)]) == EXIT_DEGENERATE
    report = json.loads(capsys.readouterr().out)
    assert report["satisfied"] is False
    assert report["fixed_point"] is None


def test_validate_missing_key_is_parse_error(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text('{"l0": 0.5}')
    assert main(["validate", str(path)]) == EXIT_IO
    assert "missing parameter keys" in capsys.readouterr().err


def test_validate_missing_file_is_io_error(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_IO


def test_simulate_writes_dataset_truth_and_sidecar(tmp_path, theta_file):
    out = tmp_path / "data.csv"
    truth = tmp_path / "truth.csv"
    code = main(
        [
            "simulate",
            "--params",
            str(theta_file),
            "--learners",
            "10",
            "--steps",
            "5",
            "--seed",
            "3",
            "--out",
            str(out),
            "--truth",
            str(truth),
        ]
    )
    assert code == EXIT_OK
    dataset = read_dataset(out)
    assert len(dataset) == 10
    assert len(dataset[0]) == 5
    assert truth.exists()
    sidecar = json.loads((tmp_path / "data.csv.meta.json").read_text())
    assert sidecar == {
        "theta": TRUE_THETA.to_dict(),
        "learners": 10,
        "steps": 5,
        "seed": 3,
    }


def test_simulate_regenerates_identically_from_sidecar(tmp_path, dataset_file):
    regen = tmp_path / "regen.csv"
    sidecar = dataset_file.parent / (dataset_file.name + ".meta.json")
    assert main(["simulate", "--sidecar", str(sidecar), "--out", str(regen)]) == EXIT_OK
    assert regen.read_text() == dataset_file.read_text()


def test_fit_constrained_exits_zero_and_satisfies(tmp_path, dataset_file):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "fit",
            "--data",
            str(dataset_file),
            "--algorithm",
            "constrained",
            "--init-seed",
            "2",
            "--out",
            str(report_path),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["algorithm"] == "constrained"
    assert report["converged"] is True
    assert report["constraints"]["satisfied"] is True


def test_fit_reports_to_stdout_without_out_flag(dataset_file, capsys):
    code = main(
        ["fit", "--data", str(dataset_file), "--algorithm", "baum-welch"]
    )
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["algorithm"] == "baum-welch"
    assert code in (EXIT_OK, EXIT_DEGENERATE)


def test_fit_with_explicit_init_file(tmp_path, dataset_file):
    init_path = tmp_path / "init.json"
    init_path.write_text(random_init(8).to_json())
    code = main(
        [
            "fit",
            "--data",
            str(dataset_file),
            "--algorithm",
            "constrained",
            "--init",
            str(init_path),
        ]
    )
    assert code == EXIT_OK


def test_fit_nonconvergence_exit_code(tmp_path, dataset_file):
    code = main(
        [
            "fit",
            "--data",
            str(dataset_file),
            "--algorithm",
            "baum-welch",
            "--max-iterations",
            "2",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == EXIT_NO_CONVERGENCE


def test_fit_degenerate_exit_for_violating_baum_welch(tmp_path, theta_file):
    # Seeds picked so the unconstrained fit lands outside the feasible set.
    data = tmp_path / "d.csv"
    main(
        [
            "simulate",
            "--params",
            str(theta_file),
            "--learners",
            "100",
            "--steps",
            "10",
            "--seed",
            "1",
            "--out",
            str(data),
        ]
    )
    report_path = tmp_path / "report.json"
    common = ["--data", str(data), "--init-seed", "2", "--out", str(report_path)]
    code = main(["fit", "--algorithm", "baum-welch", *common])
    assert code == EXIT_DEGENERATE
    report = json.loads(report_path.read_text())
    assert report["converged"] is True
    assert report["constraints"]["satisfied"] is False
    # the same data and init under the constrained algorithm succeed
    code = main(["fit", "--algorithm", "constrained", *common])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["constraints"]["satisfied"] is True


def test_fit_writes_the_partial_report_on_solver_failure(
    tmp_path, theta_file, monkeypatch, capsys
):
    # The Baum-Welch fit of this dataset violates c, so the constrained fit
    # runs the barrier in several M-steps; the third barrier M-step fails.
    data = tmp_path / "d.csv"
    simulate = ["simulate", "--params", str(theta_file), "--learners", "100"]
    assert main([*simulate, "--steps", "10", "--seed", "1", "--out", str(data)]) == EXIT_OK
    stages_per_m_step = len(interior_point.DEFAULT_SCHEDULE.mu_sequence())
    calls = 0
    original = interior_point.solve_barrier_subproblem

    def failing(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 2 * stages_per_m_step + 1:
            raise NewtonConvergenceError("injected", mu=1.0, residual_norm=1.0, restarts=5)
        return original(*args, **kwargs)

    monkeypatch.setattr(interior_point, "solve_barrier_subproblem", failing)
    report_path = tmp_path / "report.json"
    code = main(
        ["fit", "--data", str(data), "--algorithm", "constrained", "--init-seed", "2"]
        + ["--out", str(report_path)]
    )
    assert code == EXIT_NO_CONVERGENCE
    assert calls == 2 * stages_per_m_step + 1
    assert "solver failure" in capsys.readouterr().err
    report = json.loads(report_path.read_text())
    assert report["converged"] is False
    assert report["iterations"] >= 2
    assert len(report["loglik_trace"]) == report["iterations"] + 1
    assert report["diagnostics"]["barrier_m_steps"] == 2
    assert report["constraints"]["satisfied"] is True


def test_fit_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("garbage\n")
    code = main(["fit", "--data", str(bad), "--algorithm", "constrained"])
    assert code == EXIT_IO
    assert "line 1" in capsys.readouterr().err


def test_unknown_algorithm_is_usage_error(dataset_file, capsys):
    code = main(["fit", "--data", str(dataset_file), "--algorithm", "nonsense"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_missing_subcommand_is_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_experiment_end_to_end(tmp_path, capsys):
    config = {
        "true_theta": TRUE_THETA.to_dict(),
        "num_datasets": 2,
        "learners": 20,
        "steps": 5,
        "master_seed": 9,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    code = main(
        [
            "experiment",
            "--config",
            str(config_path),
            "--out",
            str(out_dir),
            "--svg",
        ]
    )
    assert code == EXIT_OK
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "scatter_guess_slip.svg").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["summary"]["record_count"] == 4


def test_experiment_bad_config_is_parse_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"num_datasets": 2}')
    code = main(
        ["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_IO
    assert "true_theta" in capsys.readouterr().err


_TINY_CONFIG = {
    "true_theta": TRUE_THETA.to_dict(),
    "num_datasets": 1,
    "learners": 10,
    "steps": 4,
}
_SIDECAR = {"theta": TRUE_THETA.to_dict(), "learners": 3, "steps": 4, "seed": 1}


@pytest.mark.parametrize(
    "command, override",
    [
        ("experiment", {"schedule": {"mu_initial": "big"}}),
        ("experiment", {"schedule": {"mu_initial": 10**400}}),
        ("experiment", {"options": {"max_iterations": "5"}}),
        ("experiment", {"options": {"seed": 0}}),
        ("experiment", {"learners": "10"}),
        ("experiment", {"num_datasets": 2.5}),
        ("experiment", {"algorithms": "constrained"}),
        ("experiment", {"true_theta": [0.45, 0.25, 0.1, 0.3]}),
        ("simulate", {"learners": None}),
        ("simulate", {"learners": 2.7}),
        ("simulate", {"theta": 5}),
        ("simulate", {"seed": "1"}),
    ],
)
def test_mistyped_json_fields_exit_3(tmp_path, capsys, command, override):
    if command == "experiment":
        source = tmp_path / "config.json"
        source.write_text(json.dumps({**_TINY_CONFIG, **override}))
        argv = ["experiment", "--config", str(source), "--out", str(tmp_path / "o")]
    else:
        source = tmp_path / "data.csv.meta.json"
        source.write_text(json.dumps({**_SIDECAR, **override}))
        argv = ["simulate", "--sidecar", str(source), "--out", str(tmp_path / "d.csv")]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    key, value = next(iter(override.items()))
    assert (next(iter(value)) if isinstance(value, dict) else key) in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "d.csv").exists()


def test_python_dash_m_runs_the_cli(tmp_path, theta_file):
    violating = tmp_path / "bad.json"
    violating.write_text('{"l0": 0.5, "g": 0.7, "s": 0.5, "r": 0.2}')
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for path, expected in ((theta_file, EXIT_OK), (violating, EXIT_DEGENERATE)):
        done = subprocess.run(
            [sys.executable, "-m", "bktfit", "validate", str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == expected, done.stderr
