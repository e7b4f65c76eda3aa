"""Command-line behavior: outputs, round-trips, and the exit-code contract."""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bktfit.interior_point as interior_point
import bktfit.simulate as simulate_module
from bktfit import (
    ExperimentConfig,
    FitOptions,
    random_init,
    read_dataset,
    run_experiment,
)
from bktfit.cli import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from bktfit.data import HiddenPath
from bktfit.experiment import FITTERS
from conftest import TRUE_THETA, fail_floor_stage


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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_validate_rejects_a_non_finite_number(tmp_path, capsys, literal):
    # json reads these as floats; printing their margin would not be JSON.
    path = tmp_path / "theta.json"
    path.write_text(f'{{"l0": 0.5, "g": 0.2, "s": {literal}, "r": 0.1}}')
    assert main(["validate", str(path)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parameter 's' must be a finite number")


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


def test_simulate_builds_hidden_paths_only_for_truth(tmp_path, theta_file, monkeypatch):
    kinds = []
    runs = simulate_module._runs

    def counted(kind, *args):
        kinds.append(kind)
        return runs(kind, *args)

    monkeypatch.setattr(simulate_module, "_runs", counted)
    argv = ["simulate", "--params", str(theta_file), "--learners", "30", "--steps", "7"]
    plain, with_truth = tmp_path / "plain.csv", tmp_path / "with-truth.csv"
    assert main([*argv, "--out", str(plain)]) == EXIT_OK
    assert kinds == []
    truth = ["--truth", str(tmp_path / "truth.csv")]
    assert main([*argv, "--out", str(with_truth), *truth]) == EXIT_OK
    assert kinds == [HiddenPath]
    assert plain.read_bytes() == with_truth.read_bytes()


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


def test_fit_reads_a_dataset_with_a_byte_order_mark(tmp_path, dataset_file, capsys):
    plain = main(["fit", "--data", str(dataset_file), "--algorithm", "constrained"])
    expected = capsys.readouterr().out
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + dataset_file.read_bytes())
    code = main(["fit", "--data", str(marked), "--algorithm", "constrained"])
    assert code == plain == EXIT_OK
    assert capsys.readouterr().out == expected


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
    # takes the reduced solve in several M-steps. The third reduced solve
    # stalls, which stops the fit.
    data = tmp_path / "d.csv"
    simulate = ["simulate", "--params", str(theta_file), "--learners", "100"]
    assert main([*simulate, "--steps", "10", "--seed", "1", "--out", str(data)]) == EXIT_OK
    reduced_calls = 0
    original_newton = interior_point._newton

    def failing_reduced(pairs, x, mu, work):
        nonlocal reduced_calls
        reduced_calls += mu == 0.0
        if mu == 0.0 and reduced_calls == 3:
            raise interior_point._failure("injected", 0.0, (1.0,))
        return original_newton(pairs, x, mu, work)

    monkeypatch.setattr(interior_point, "_newton", failing_reduced)
    report_path = tmp_path / "report.json"
    code = main(
        ["fit", "--data", str(data), "--algorithm", "constrained", "--init-seed", "2"]
        + ["--out", str(report_path)]
    )
    assert code == EXIT_NO_CONVERGENCE
    assert reduced_calls == 3
    assert "solver failure: reduced solve failed: injected" in capsys.readouterr().err
    report = json.loads(report_path.read_text())
    assert report["converged"] is False
    assert report["iterations"] >= 2
    assert len(report["loglik_trace"]) == report["iterations"] + 1
    assert report["diagnostics"]["barrier_m_steps"] == 2
    assert "barrier_stages" not in report["diagnostics"]
    assert report["constraints"]["satisfied"] is True


def test_fit_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("garbage\n")
    code = main(["fit", "--data", str(bad), "--algorithm", "constrained"])
    assert code == EXIT_IO
    assert "line 1" in capsys.readouterr().err


def test_fit_rejects_non_decimal_integer_cells(tmp_path, capsys):
    # int() reads these rows as learners 10 and 7 with two answers each.
    data = tmp_path / "data.csv"
    data.write_text(
        "learner_id,step,correct\n1_0,1,1\n1_0,+2,0\n 7,1,1\n7, 2 ,0\n", encoding="utf-8"
    )
    code = main(["fit", "--data", str(data), "--algorithm", "constrained"])
    assert code == EXIT_IO
    assert "line 2" in capsys.readouterr().err


def test_fit_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_bytes(b"learner_id,step,correct\n0,1,1\n0,2,\xe9\n")
    code = main(["fit", "--data", str(data), "--algorithm", "constrained"])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert "line 3: correct must be 0 or 1" in err
    assert "codec" not in err


@pytest.mark.parametrize("flag", ["--param-tolerance", "--loglik-tolerance"])
def test_fit_rejects_an_infinite_tolerance(tmp_path, dataset_file, capsys, flag):
    out = tmp_path / "report.json"
    argv = ["fit", "--data", str(dataset_file), "--algorithm", "constrained"]
    assert main([*argv, flag, "inf", "--out", str(out)]) == EXIT_IO
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def test_fit_defaults_are_the_dataclass_defaults():
    args = build_parser().parse_args(["fit", "--data", "d.csv", "--algorithm", "constrained"])
    options = FitOptions()
    assert args.max_iterations == options.max_iterations
    assert args.loglik_tolerance == options.loglik_tolerance
    assert args.param_tolerance == options.param_tolerance


@pytest.mark.parametrize("knob", ["initial", "decay", "floor"])
def test_fit_has_no_barrier_path_flags(tmp_path, dataset_file, capsys, knob):
    # The barrier weight is a solver constant: no flag sets it.
    out = tmp_path / "report.json"
    argv = ["fit", "--data", str(dataset_file), "--algorithm", "constrained"]
    assert main([*argv, f"--mu-{knob}", "0.5", "--out", str(out)]) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()
    assert main(["fit", "--help"]) == EXIT_OK
    assert f"--mu-{knob}" not in capsys.readouterr().out


def test_algorithm_choices_are_the_fitter_table():
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    (algorithm,) = (a for a in commands.choices["fit"]._actions if a.dest == "algorithm")
    assert algorithm.choices == list(FITTERS)


@pytest.mark.parametrize("algorithm", list(FITTERS))
def test_fit_reports_the_algorithm_it_ran(tmp_path, dataset_file, algorithm):
    out = tmp_path / "report.json"
    argv = ["fit", "--data", str(dataset_file), "--algorithm", algorithm, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert json.loads(out.read_text())["algorithm"] == algorithm


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
    assert "schedule" not in summary["config"]


def test_experiment_keeps_every_row_when_a_binding_m_step_fails(tmp_path, monkeypatch):
    # The third binding M-step of run 1's constrained fit fails; the
    # experiment still writes all six rows and exits 0.
    config = {
        "true_theta": TRUE_THETA.to_dict(),
        "num_datasets": 3,
        "learners": 25,
        "steps": 6,
        "master_seed": 12,
    }
    clean = run_experiment(ExperimentConfig.from_dict(config)).records
    fail_floor_stage(monkeypatch, clean[1].report.diagnostics["barrier_m_steps"] + 3)
    source = tmp_path / "config.json"
    source.write_text(json.dumps(config))
    out = tmp_path / "runs"
    assert main(["experiment", "--config", str(source), "--out", str(out)]) == EXIT_OK
    with open(out / "records.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["run_id"], row["algorithm"]) for row in rows] == [
        (str(rec.run_id), rec.algorithm) for rec in clean
    ]
    unconverged = [(row["run_id"], row["algorithm"]) for row in rows if row["converged"] != "true"]
    assert unconverged == [("1", "constrained")]
    assert rows[3]["iterations"] != str(clean[3].report.iterations)


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


@pytest.mark.parametrize("key", ["param_tolerance", "loglik_tolerance"])
def test_experiment_rejects_an_infinite_tolerance(tmp_path, capsys, key):
    # json reads both Infinity and 1e400 as an infinite float.
    source = tmp_path / "config.json"
    source.write_text(json.dumps({**_TINY_CONFIG, "options": {key: float("inf")}}))
    argv = ["experiment", "--config", str(source), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_IO
    assert f"{key} must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
        # The barrier path and the Newton stop rules are solver constants.
        ("experiment", {"schedule": {"newton_tolerance": 1e-9}}),
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
    if key == "schedule":
        assert "unknown config keys: schedule" in err
    else:
        assert (next(iter(value)) if isinstance(value, dict) else key) in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("source", ["flag", "sidecar", "experiment"])
def test_negative_seeds_exit_3(tmp_path, theta_file, capsys, source):
    out = tmp_path / "out"
    if source == "flag":
        argv = ["simulate", "--params", str(theta_file), "--seed", "-1", "--out", str(out)]
    elif source == "sidecar":
        sidecar = tmp_path / "data.csv.meta.json"
        sidecar.write_text(json.dumps({**_SIDECAR, "seed": -5}))
        argv = ["simulate", "--sidecar", str(sidecar), "--out", str(out)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**_TINY_CONFIG, "master_seed": -1}))
        argv = ["experiment", "--config", str(config), "--out", str(out)]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


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
