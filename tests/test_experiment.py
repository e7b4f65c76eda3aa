"""Experiment harness: config round-trips, determinism, and artifacts."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ElementTree

import pytest

import bktfit.experiment as experiment
from bktfit import ExperimentConfig, run_experiment, write_experiment_artifacts
from bktfit.experiment import (
    MODE_DATASETS,
    MODE_INITS,
    records_to_csv,
    rows_from_csv,
    scatter_svg,
)
from conftest import TRUE_THETA


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


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithms"):
        _tiny_config(algorithms=("gradient-descent",))


def test_config_json_round_trip():
    config = _tiny_config(master_seed=77)
    assert ExperimentConfig.from_json(config.to_json()) == config
    inits = ExperimentConfig(true_theta=TRUE_THETA, num_inits=5, master_seed=3)
    assert ExperimentConfig.from_json(inits.to_json()) == inits


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
    rows = rows_from_csv(path)
    assert len(rows) == len(result.records)
    for row, record in zip(rows, result.records):
        assert row["run_id"] == record.run_id
        assert row["algorithm"] == record.algorithm
        assert row["fitted_l0"] == record.report.theta_hat.l0
        assert row["constraints_satisfied"] == record.satisfied
        assert row["log_likelihood"] == record.report.final_log_likelihood


def test_scatter_svg_is_wellformed_and_marks_every_record(tmp_path):
    result = run_experiment(_tiny_config())
    rows = [record.to_row() for record in result.records]
    svg = scatter_svg(rows, "g", "s", TRUE_THETA)
    root = ElementTree.fromstring(svg)
    assert root.tag.endswith("svg")
    markers = [
        el for el in root.iter() if el.tag.split("}")[-1] in ("circle", "polygon")
    ]
    # every record plus the two legend markers
    assert len(markers) == len(result.records) + 2


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
