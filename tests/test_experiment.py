"""Experiment harness: config round-trips, determinism, and artifacts."""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ElementTree
from dataclasses import replace

import pytest

import bktfit.experiment as experiment
from bktfit import (
    ExperimentConfig,
    fit_constrained,
    random_init,
    run_experiment,
    simulate_dataset,
)
from bktfit.experiment import (
    FITTERS,
    MODE_DATASETS,
    MODE_INITS,
    records_to_csv,
    scatter_svg,
    write_experiment_artifacts,
)
from conftest import TRUE_THETA, fail_floor_stage


def _tiny_config(**overrides):
    settings = {
        "true_theta": TRUE_THETA,
        "num_datasets": 3,
        "learners": 25,
        "steps": 6,
        "master_seed": 14,
    }
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_config_requires_exactly_one_count():
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(true_theta=TRUE_THETA)
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(true_theta=TRUE_THETA, num_datasets=2, num_inits=2)


def test_config_mode_and_runs():
    assert _tiny_config().mode == MODE_DATASETS
    config = ExperimentConfig(true_theta=TRUE_THETA, num_inits=4)
    assert config.mode == MODE_INITS
    assert config.runs == 4


@pytest.mark.parametrize("count", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("field", ["num_datasets", "num_inits"])
def test_config_rejects_non_integer_run_counts(field, count):
    # runs used to truncate 2.5 to 2 while to_dict() still reported 2.5.
    with pytest.raises(ValueError, match="run count must be an integer"):
        ExperimentConfig(true_theta=TRUE_THETA, **{field: count})


@pytest.mark.parametrize(
    "field, value",
    [("learners", 2.5), ("steps", 3.5), ("master_seed", 1.5), ("learners", True)],
)
def test_config_rejects_non_integer_counts(field, value):
    # Caught at construction, not later as a TypeError inside run_experiment.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        _tiny_config(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("true_theta", TRUE_THETA.to_dict()), ("options", {"max_iterations": 5})],
)
def test_config_rejects_blocks_that_are_not_their_types(field, value):
    # The JSON path converts these blocks; a raw dict used to fail only in
    # run_experiment, with AttributeError.
    with pytest.raises(ValueError, match=field):
        _tiny_config(**{field: value})


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithms"):
        _tiny_config(algorithms=("gradient-descent",))


@pytest.mark.parametrize("algorithms", ["constrained", [["constrained"]], ("constrained", 1)])
def test_config_rejects_algorithms_that_are_not_a_list_of_names(algorithms):
    # A bare string used to be read letter by letter as algorithm names.
    with pytest.raises(ValueError, match="^algorithms must be a list or tuple of strings"):
        _tiny_config(algorithms=algorithms)


def test_config_defaults_to_every_fitter():
    assert _tiny_config().algorithms == tuple(FITTERS) == ("baum-welch", "constrained")


def test_config_json_round_trip():
    # to_dict and from_dict are the one serialization; JSON text carries the dict.
    config = _tiny_config(master_seed=77)
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    inits = ExperimentConfig(true_theta=TRUE_THETA, num_inits=5, master_seed=3)
    assert ExperimentConfig.from_dict(json.loads(json.dumps(inits.to_dict()))) == inits


def test_config_rejects_unknown_keys():
    payload = _tiny_config().to_dict()
    payload["extra"] = 1
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict(payload)


def test_dataset_mode_seeds_vary_but_init_mode_dataset_is_shared():
    datasets = _tiny_config()
    assert datasets.dataset_seed(0) != datasets.dataset_seed(1)
    inits = ExperimentConfig(true_theta=TRUE_THETA, num_inits=3, master_seed=14)
    assert inits.dataset_seed(0) == inits.dataset_seed(2)
    assert inits.init_seed(0) != inits.init_seed(2)


def test_run_experiment_record_shape_and_pairing():
    config = _tiny_config()
    result = run_experiment(config)
    assert len(result.records) == config.runs * len(config.algorithms)
    by_run: dict[int, list[str]] = {}
    for record in result.records:
        by_run.setdefault(record.run_id, []).append(record.algorithm)
        # both algorithms saw the same initial guess
    for run_id in range(config.runs):
        assert by_run[run_id] == list(config.algorithms)
    for run_id in range(config.runs):
        inits = {
            rec.report.initial_theta
            for rec in result.records
            if rec.run_id == run_id
        }
        assert len(inits) == 1


def test_jobs_do_not_change_results():
    config = _tiny_config()
    sequential = run_experiment(config, jobs=1)
    parallel = run_experiment(config, jobs=2)
    for a, b in zip(sequential.records, parallel.records):
        assert a.run_id == b.run_id
        assert a.algorithm == b.algorithm
        assert a.report.theta_hat == b.report.theta_hat
        assert a.report.loglik_trace == b.report.loglik_trace


def test_a_failed_binding_m_step_keeps_its_partial_report(monkeypatch):
    # Run 1's constrained fit takes several binding M-steps; its third one
    # fails. The run keeps the fit up to there and the experiment goes on.
    config = _tiny_config(master_seed=12)
    clean = run_experiment(config)
    constrained = [rec for rec in clean.records if rec.algorithm == "constrained"]
    assert [rec.run_id for rec in constrained] == [0, 1, 2]
    assert constrained[1].report.diagnostics["barrier_m_steps"] >= 3
    fail_floor_stage(monkeypatch, constrained[0].report.diagnostics["barrier_m_steps"] + 3)
    result = run_experiment(config, jobs=1)
    monkeypatch.undo()
    assert len(result.records) == len(clean.records)
    for record, reference in zip(result.records, clean.records):
        if record.run_id == 1 and record.algorithm == "constrained":
            failed = record
        else:
            assert replace(record, wall_time=0.0) == replace(reference, wall_time=0.0)
    partial = failed.report
    assert failed.failure == partial.failure
    assert partial.failure.startswith("injected (mu=")
    assert not partial.converged
    assert partial.diagnostics["barrier_m_steps"] == 2
    dataset = simulate_dataset(
        config.true_theta, config.learners, config.steps, config.dataset_seed(1)
    )
    cut = replace(config.options, max_iterations=partial.iterations)
    capped = fit_constrained(dataset, random_init(config.init_seed(1)), cut)
    assert replace(partial, failure="") == capped
    assert partial.iterations < constrained[1].report.iterations
    assert result.summary()["algorithms"]["constrained"]["converged"] == 2


def test_a_failed_fit_is_told_from_a_capped_one(monkeypatch, tmp_path):
    # Run 1's third binding M-step fails mid-run; at a cap of 2 iterations
    # no fit fails and none converges. Only the failure column tells them apart.
    config = _tiny_config(master_seed=12)
    clean = run_experiment(config)
    fail_floor_stage(monkeypatch, clean.records[1].report.diagnostics["barrier_m_steps"] + 3)
    failed = run_experiment(config, jobs=1)
    monkeypatch.undo()
    capped = run_experiment(replace(config, options=replace(config.options, max_iterations=2)))
    assert [rec.failure for rec in capped.records] == [""] * 6
    assert [bool(rec.failure) for rec in failed.records] == [False] * 3 + [True] + [False] * 2
    assert failed.records[3].algorithm == "constrained"
    assert failed.records[3].failure.startswith("injected (mu=")
    assert failed.records[3].report.iterations == capped.records[3].report.iterations == 2
    for result, failures in ((failed, 1), (capped, 0)):
        summary = result.summary()["algorithms"]
        assert summary["constrained"]["failed"] == failures
        assert summary["baum-welch"]["failed"] == 0
        paths = write_experiment_artifacts(result, tmp_path / str(failures))
        with open(paths["records"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["failure"] for row in rows] == [rec.failure for rec in result.records]
        written = json.loads(paths["summary"].read_text())["summary"]["algorithms"]
        assert written["constrained"]["failed"] == failures
    assert failed.summary()["algorithms"]["constrained"]["converged"] == 2
    assert capped.summary()["algorithms"]["constrained"]["converged"] == 0


class _InlineExecutor:
    """Runs the pool's work in this process and records the worker count."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.mark.parametrize("jobs, runs, workers", [(4, 2, [2]), (2, 3, [2]), (8, 1, [])])
def test_worker_count_is_capped_by_runs(monkeypatch, jobs, runs, workers):
    monkeypatch.setattr(_InlineExecutor, "max_workers", [])
    monkeypatch.setattr(experiment.concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    config = _tiny_config(num_datasets=runs, learners=10, steps=4)
    result = run_experiment(config, jobs=jobs)
    assert _InlineExecutor.max_workers == workers
    assert len(result.records) == runs * len(config.algorithms)


@pytest.mark.parametrize("jobs", [True, 2.5, "2", None])
def test_run_experiment_rejects_jobs_that_are_not_integers(jobs):
    with pytest.raises(ValueError, match="jobs must be an integer"):
        run_experiment(_tiny_config(), jobs=jobs)


def test_summary_recomputable_from_records():
    result = run_experiment(_tiny_config())
    summary = result.summary()
    assert summary["record_count"] == len(result.records)
    for algorithm, block in summary["algorithms"].items():
        subset = [rec for rec in result.records if rec.algorithm == algorithm]
        assert block["runs"] == len(subset)
        assert block["constraint_violations"] == sum(
            not rec.satisfied for rec in subset
        )
        fitted_l0 = [rec.report.theta_hat.l0 for rec in subset]
        assert block["parameters"]["l0"]["mean"] == pytest.approx(
            sum(fitted_l0) / len(fitted_l0)
        )


def test_records_csv_round_trip(tmp_path):
    result = run_experiment(_tiny_config())
    path = tmp_path / "records.csv"
    records_to_csv(result.records, path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(result.records)
    for row, record in zip(rows, result.records):
        assert int(row["run_id"]) == record.run_id
        assert row["algorithm"] == record.algorithm
        assert float(row["fitted_l0"]) == record.report.theta_hat.l0
        assert row["constraints_satisfied"] == str(record.satisfied).lower()
        assert float(row["log_likelihood"]) == record.report.final_log_likelihood


def test_scatter_svg_is_wellformed_and_marks_every_record():
    result = run_experiment(_tiny_config())
    svg = scatter_svg(result.records, "g", "s", TRUE_THETA)
    root = ElementTree.fromstring(svg)
    assert root.tag.endswith("svg")
    markers = [
        el for el in root.iter() if el.tag.split("}")[-1] in ("circle", "polygon")
    ]
    # every record plus the two legend markers
    assert len(markers) == len(result.records) + 2
    # Shape is the record's algorithm, color its constraint verdict.
    shapes = {"baum-welch": "circle", "constrained": "polygon"}
    colors = {True: "#2e7d32", False: "#c62828"}
    drawn = [(el.tag.split("}")[-1], el.get("fill")) for el in markers[:-2]]
    assert drawn == [(shapes[rec.algorithm], colors[rec.satisfied]) for rec in result.records]
    assert {rec.satisfied for rec in result.records} == {True, False}


def test_scatter_svg_rejects_unknown_axis():
    with pytest.raises(ValueError):
        scatter_svg([], "g", "bogus")


def test_write_experiment_artifacts(tmp_path):
    result = run_experiment(_tiny_config())
    paths = write_experiment_artifacts(result, tmp_path / "out", svg=True)
    assert paths["records"].exists()
    assert paths["summary"].exists()
    assert paths["scatter_guess_slip"].exists()
    assert paths["scatter_prior_transit"].exists()
    payload = json.loads(paths["summary"].read_text())
    assert ExperimentConfig.from_dict(payload["config"]) == result.config
    assert payload["summary"]["record_count"] == len(result.records)
