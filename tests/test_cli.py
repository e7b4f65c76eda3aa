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
from bktfit.simulate import simulate_dataset_with_paths
from conftest import TRUE_THETA, fail_floor_stage


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(TRUE_THETA.to_dict()))
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


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"l0": 0.5, "g": 0.2', "invalid JSON"),
        (
            '{"l0": 1%s, "g": 0.2, "s": 0.1, "r": 0.1}' % ("0" * 399),
            "parameter 'l0' is too large for a float",
        ),
    ],
    ids=["truncated JSON", "400-digit l0"],
)
def test_validate_rejects_a_malformed_parameter_file(tmp_path, capsys, text, message):
    path = tmp_path / "theta.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{json}"],
        ["fit", "--data", "{csv}", "--algorithm", "constrained", "--init", "{json}"],
        ["simulate", "--params", "{json}", "--out", "{out}"],
        ["simulate", "--sidecar", "{json}", "--out", "{out}"],
        ["experiment", "--config", "{json}", "--out", "{out}"],
    ],
    ids=["validate", "fit --init", "simulate --params", "simulate --sidecar", "experiment"],
)
def test_truncated_json_exits_3_naming_its_file(tmp_path, capsys, argv):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"l0": 0.5, "g": 0.2')
    data = tmp_path / "data.csv"
    data.write_text("learner_id,step,correct\n0,1,1\n0,2,0\n")
    out = tmp_path / "out"
    names = {"json": truncated, "csv": data, "out": out}
    assert main([arg.format(**names) for arg in argv]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {truncated}: invalid JSON: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{json}"],
        ["fit", "--data", "{csv}", "--algorithm", "constrained", "--init", "{json}"],
        ["simulate", "--params", "{json}", "--out", "{out}"],
        ["simulate", "--sidecar", "{json}", "--out", "{out}"],
        ["experiment", "--config", "{json}", "--out", "{out}"],
    ],
    ids=["validate", "fit --init", "simulate --params", "simulate --sidecar", "experiment"],
)
def test_json_that_is_not_utf8_exits_3_naming_its_file(tmp_path, capsys, argv):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"l0": 0.5, "g": \xe9}')  # a Latin-1 e-acute
    data = tmp_path / "data.csv"
    data.write_text("learner_id,step,correct\n0,1,1\n0,2,0\n")
    out = tmp_path / "out"
    names = {"json": latin, "csv": data, "out": out}
    assert main([arg.format(**names) for arg in argv]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {latin}: not UTF-8: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


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
    # The truth file holds the data file's rows, each with the state behind it.
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    with open(truth, newline="") as handle:
        truth_rows = list(csv.reader(handle))
    expected, paths = simulate_dataset_with_paths(TRUE_THETA, 10, 5, 3)
    assert dataset == expected
    states = [str(state) for path in paths for state in path]
    assert truth_rows == [rows[0] + ["proficient"]] + [
        row + [state] for row, state in zip(rows[1:], states, strict=True)
    ]
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
    init_path.write_text(json.dumps(random_init(8).to_dict()))
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

    def failing_reduced(ab, x, mu):
        nonlocal reduced_calls
        reduced_calls += mu == 0.0
        if mu == 0.0 and reduced_calls == 3:
            raise interior_point._failure("injected", 0.0, (1.0,))
        return original_newton(ab, x, mu)

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
    assert report["failure"].startswith("reduced solve failed: injected (mu=0,")
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


def test_fit_on_cr_only_line_ends_exits_3(tmp_path, capsys):
    # Classic Mac line ends: the file is one line, which is no header.
    data = tmp_path / "mac.csv"
    data.write_bytes(b"learner_id,step,correct\r0,1,1\r0,2,0\r")
    report = tmp_path / "report.json"
    code = main(["fit", "--data", str(data), "--algorithm", "constrained", "--out", str(report)])
    assert code == EXIT_IO == 3
    assert "line 1: expected header" in capsys.readouterr().err
    assert not report.exists()


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


def test_main_answers_each_call_alike_in_one_process(tmp_path, theta_file, capsys):
    # main parses with one parser per process; no call may leave a trace in it.
    missing = str(tmp_path / "missing.csv")
    calls = [
        (["validate", str(theta_file)], EXIT_OK),
        (["fit", "--data", missing, "--algorithm", "constrained"], EXIT_IO),
        (["fit", "--data", missing, "--algorithm", "nonsense"], EXIT_USAGE),
        ([], EXIT_USAGE),
        (["simulate", "--params", str(theta_file), "--sidecar", missing, "--out", "x"], EXIT_USAGE),
        (["simulate", "--learners", "3", "--out", missing], EXIT_USAGE),
        (["fit", "--help"], EXIT_OK),
        (["--help"], EXIT_OK),
    ]
    first = []
    for argv, code in calls:
        assert main(argv) == code
        first.append(capsys.readouterr())
    assert all(out or err for out, err in first)
    for _ in range(2):
        for (argv, code), want in zip(reversed(calls), reversed(first)):
            assert main(argv) == code
            assert capsys.readouterr() == want
    assert first[-1].out == build_parser().format_help()


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
        # Its entry used to reach a set() unchecked: a TypeError traceback.
        ("experiment", {"algorithms": [["constrained"]]}),
        # Sidecars record an int --seed: a float, a bool or null is refused.
        ("simulate", {"seed": 1.5}),
        ("simulate", {"seed": True}),
        ("simulate", {"seed": None}),
        ("simulate", {"seed": [1]}),
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


@pytest.mark.parametrize(
    "source, change, message",
    [
        ("simulate", ["--learners", "0"], "learners must be at least 1"),
        ("experiment", ["--jobs", "0"], "jobs must be at least 1"),
        ("config", {"num_datasets": 0}, "run count must be at least 1"),
        ("config", {"algorithms": []}, "algorithms must not be empty"),
        ("config", {"algorithms": ["constrained", "constrained"]}, "duplicate algorithm names"),
        ("config", {"learners": 0}, "learners and steps must be at least 1"),
    ],
)
def test_out_of_range_counts_exit_3(tmp_path, theta_file, capsys, source, change, message):
    out = tmp_path / "out"
    if source == "simulate":
        argv = ["simulate", "--params", str(theta_file), *change, "--out", str(out)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**_TINY_CONFIG, **(change if source == "config" else {})}))
        argv = ["experiment", "--config", str(config), "--out", str(out)]
        argv += change if source == "experiment" else []
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_fit_on_all_correct_answers_is_degenerate(tmp_path, capsys):
    # No answer is wrong, so no count pins the guess: the constrained M-step
    # raises DegenerateStatsError and fit exits 5 without a report.
    data = tmp_path / "all-correct.csv"
    data.write_text("learner_id,step,correct\n0,1,1\n0,2,1\n1,1,1\n1,2,1\n")
    out = tmp_path / "report.json"
    argv = ["fit", "--data", str(data), "--algorithm", "constrained", "--out", str(out)]
    assert main(argv) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert err.startswith("degenerate result: cannot update 'guess'")
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


# Every step below runs in a fresh process; numpy.random is then loaded only if
# bktfit, or numpy itself, imports it.
_RUN_WITHOUT_NUMPY_RANDOM = """
import json
import sys
from pathlib import Path

import numpy

eager = "numpy.random" in sys.modules
from bktfit import (
    ExperimentConfig, ParamSet, fit_baum_welch, fit_constrained, random_init, run_experiment,
    simulate_dataset,
)
from bktfit.cli import main

folder = Path(sys.argv[1])
theta = ParamSet(0.45, 0.25, 0.1, 0.3)
data = simulate_dataset(theta, 30, 6, 1)
fit_baum_welch(data, random_init(2))
fit_constrained(data, random_init((0, 1, 2)))
run_experiment(ExperimentConfig(true_theta=theta, num_datasets=2, learners=20, steps=5))
(folder / "theta.json").write_text(json.dumps(theta.to_dict()))
csv = str(folder / "data.csv")
simulate = ["simulate", "--params", str(folder / "theta.json"), "--learners", "30"]
assert main([*simulate, "--steps", "6", "--seed", "1", "--out", csv]) == 0
fit = ["fit", "--data", csv, "--algorithm", "constrained", "--init-seed", "2"]
assert main([*fit, "--out", str(folder / "report.json")]) == 0
print(eager, "numpy.random" in sys.modules)
"""


def test_simulating_and_fitting_never_load_numpy_random(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_NUMPY_RANDOM, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    eager, loaded = done.stdout.splitlines()[-1].split()
    if eager == "True":
        pytest.skip("this numpy (1.x) imports numpy.random with numpy itself")
    assert loaded == "False"
