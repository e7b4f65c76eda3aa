"""Batch comparison harness for the two fitting algorithms.

Two modes, one knob each:

    datasets  many simulated datasets, one shared random init per dataset,
              every algorithm fit on the same (dataset, init) pair
    inits     one simulated dataset, many random inits

Seeding is derived, never shared: dataset i draws from the stream
(master_seed, 0, i) and init i from (master_seed, 1, i), so results are
reproducible from the config alone and identical for any --jobs setting.
Records carry the full fit reports in memory; the CSV keeps the plot-ready
columns (fitted coordinates, algorithm, constraint verdict) so figures can
be regenerated without refitting.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .baum_welch import fit_baum_welch
from .core import PARAM_NAMES, ParamSet, parse_object
from .fitting import (
    ALGORITHM_BAUM_WELCH,
    ALGORITHM_CONSTRAINED,
    FitOptions,
    FitReport,
    random_init,
)
from .interior_point import BarrierSchedule, fit_constrained
from .simulate import DEFAULT_LEARNERS, DEFAULT_STEPS, simulate_dataset

__all__ = [
    "MODE_DATASETS",
    "MODE_INITS",
    "KNOWN_ALGORITHMS",
    "ExperimentConfig",
    "RunRecord",
    "ExperimentResult",
    "run_experiment",
    "records_to_csv",
    "rows_from_csv",
    "scatter_svg",
    "write_experiment_artifacts",
]

MODE_DATASETS = "datasets"
MODE_INITS = "inits"
KNOWN_ALGORITHMS = (ALGORITHM_BAUM_WELCH, ALGORITHM_CONSTRAINED)

_CONFIG_KINDS = {
    **dict.fromkeys(("num_datasets", "num_inits", "learners", "steps", "master_seed"), int),
    **dict.fromkeys(("true_theta", "options", "schedule"), dict),
    "algorithms": list,
}

_CSV_COLUMNS = (
    ["run_id", "algorithm", "converged", "iterations", "log_likelihood"]
    + ["constraints_satisfied", "margin", "wall_time_s"]
    + [f"init_{name}" for name in PARAM_NAMES]
    + [f"fitted_{name}" for name in PARAM_NAMES]
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible experiment description; round-trips through JSON."""

    true_theta: ParamSet
    num_datasets: int | None = None
    num_inits: int | None = None
    learners: int = DEFAULT_LEARNERS
    steps: int = DEFAULT_STEPS
    master_seed: int = 0
    algorithms: tuple[str, ...] = KNOWN_ALGORITHMS
    options: FitOptions = FitOptions()
    schedule: BarrierSchedule = BarrierSchedule()

    def __post_init__(self) -> None:
        if (self.num_datasets is None) == (self.num_inits is None):
            raise ValueError("set exactly one of num_datasets and num_inits")
        if isinstance(self.runs, bool) or not isinstance(self.runs, int):
            raise ValueError(f"run count must be an integer, got {self.runs!r}")
        if self.runs < 1:
            raise ValueError("run count must be at least 1")
        if self.learners < 1 or self.steps < 1:
            raise ValueError("learners and steps must be at least 1")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        unknown = [a for a in self.algorithms if a not in KNOWN_ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms: {', '.join(map(repr, unknown))}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("duplicate algorithm names")

    @property
    def mode(self) -> str:
        return MODE_DATASETS if self.num_datasets is not None else MODE_INITS

    @property
    def runs(self) -> int:
        count = self.num_datasets if self.num_datasets is not None else self.num_inits
        return count  # type: ignore[return-value]

    def dataset_seed(self, run_id: int) -> tuple[int, int, int]:
        return (self.master_seed, 0, run_id if self.mode == MODE_DATASETS else 0)

    def init_seed(self, run_id: int) -> tuple[int, int, int]:
        return (self.master_seed, 1, run_id)

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {"true_theta": self.true_theta.to_dict()}
        if self.num_datasets is not None:
            payload["num_datasets"] = self.num_datasets
        else:
            payload["num_inits"] = self.num_inits
        payload.update(
            learners=self.learners,
            steps=self.steps,
            master_seed=self.master_seed,
            algorithms=list(self.algorithms),
            options=self.options.to_dict(),
            schedule=self.schedule.to_dict(),
        )
        return payload

    @classmethod
    def from_dict(cls, mapping: object) -> "ExperimentConfig":
        kwargs = parse_object(mapping, _CONFIG_KINDS, "config", required=("true_theta",))
        kwargs["true_theta"] = ParamSet.from_dict(kwargs["true_theta"])
        if "options" in kwargs:
            kwargs["options"] = FitOptions.from_dict(kwargs["options"])
        if "schedule" in kwargs:
            kwargs["schedule"] = BarrierSchedule.from_dict(kwargs["schedule"])
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid config JSON: {exc}") from exc
        return cls.from_dict(payload)


@dataclass(frozen=True)
class RunRecord:
    """One algorithm's fit on one (dataset, init) pair."""

    run_id: int
    algorithm: str
    report: FitReport
    wall_time: float

    @property
    def satisfied(self) -> bool:
        return self.report.constraints.satisfied

    @property
    def margin(self) -> float:
        return self.report.constraints.margin

    def to_row(self) -> dict[str, object]:
        row: dict[str, object] = {
            "run_id": self.run_id,
            "algorithm": self.algorithm,
            "converged": str(self.report.converged).lower(),
            "iterations": self.report.iterations,
            "log_likelihood": repr(self.report.final_log_likelihood),
            "constraints_satisfied": str(self.satisfied).lower(),
            "margin": repr(self.margin),
            "wall_time_s": repr(self.wall_time),
        }
        for name, value in self.report.initial_theta.to_dict().items():
            row[f"init_{name}"] = repr(value)
        for name, value in self.report.theta_hat.to_dict().items():
            row[f"fitted_{name}"] = repr(value)
        return row


@dataclass(frozen=True)
class ExperimentResult:
    """All run records plus the config that produced them."""

    config: ExperimentConfig
    records: tuple[RunRecord, ...]

    def summary(self) -> dict[str, object]:
        """Aggregate accuracy/precision and verdict counts, per algorithm."""

        truth = self.config.true_theta.to_dict()
        by_algorithm: dict[str, object] = {}
        for algorithm in self.config.algorithms:
            subset = [rec for rec in self.records if rec.algorithm == algorithm]
            per_param: dict[str, object] = {}
            for name in PARAM_NAMES:
                fitted = np.array(
                    [getattr(rec.report.theta_hat, name) for rec in subset]
                )
                errors = np.abs(fitted - truth[name])
                per_param[name] = {
                    "mean": float(fitted.mean()),
                    "std": float(fitted.std()),
                    "mean_abs_error": float(errors.mean()),
                    "median_abs_error": float(np.median(errors)),
                }
            by_algorithm[algorithm] = {
                "runs": len(subset),
                "converged": sum(rec.report.converged for rec in subset),
                "constraint_violations": sum(not rec.satisfied for rec in subset),
                "parameters": per_param,
            }
        return {
            "mode": self.config.mode,
            "runs": self.config.runs,
            "record_count": len(self.records),
            "true_theta": truth,
            "algorithms": by_algorithm,
        }


def _execute_run(config: ExperimentConfig, run_id: int) -> tuple[RunRecord, ...]:
    dataset = simulate_dataset(
        config.true_theta, config.learners, config.steps, config.dataset_seed(run_id)
    )
    init = random_init(config.init_seed(run_id))
    records = []
    for algorithm in config.algorithms:
        started = time.perf_counter()
        if algorithm == ALGORITHM_BAUM_WELCH:
            report = fit_baum_welch(dataset, init, config.options)
        else:
            report = fit_constrained(dataset, init, config.options, config.schedule)
        elapsed = time.perf_counter() - started
        records.append(
            RunRecord(run_id=run_id, algorithm=algorithm, report=report, wall_time=elapsed)
        )
    return tuple(records)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Execute every (run, algorithm) fit, optionally across processes.

    At most min(jobs, runs) worker processes start, none when that is one.
    Results are merged in run order, so the output is independent of jobs.
    """

    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    run_ids = range(config.runs)
    workers = min(jobs, config.runs)
    if workers == 1:
        per_run = [_execute_run(config, run_id) for run_id in run_ids]
    else:
        worker = functools.partial(_execute_run, config)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_run = list(pool.map(worker, run_ids))
    records = tuple(record for group in per_run for record in group)
    return ExperimentResult(config=config, records=records)


def records_to_csv(records: Iterable[RunRecord], destination: str | Path) -> None:
    with open(destination, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for record in records:
            writer.writerow(record.to_row())


def rows_from_csv(source: str | Path) -> list[dict[str, object]]:
    """Typed plot rows from a records CSV; enough to redraw every figure."""

    with open(source, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != _CSV_COLUMNS:
            raise ValueError(f"unexpected records header in {source}")
        rows: list[dict[str, object]] = []
        for raw in reader:
            row: dict[str, object] = {
                "run_id": int(raw["run_id"]),
                "algorithm": raw["algorithm"],
                "converged": raw["converged"] == "true",
                "iterations": int(raw["iterations"]),
                "constraints_satisfied": raw["constraints_satisfied"] == "true",
            }
            for key in ("log_likelihood", "margin", "wall_time_s"):
                row[key] = float(raw[key])
            for name in PARAM_NAMES:
                row[f"init_{name}"] = float(raw[f"init_{name}"])
                row[f"fitted_{name}"] = float(raw[f"fitted_{name}"])
            rows.append(row)
    return rows


_SVG_SIZE = 480
_SVG_MARGIN = 56
_SVG_COLORS = {True: "#2e7d32", False: "#c62828"}  # constraint verdict


def _svg_xy(x: float, y: float) -> tuple[float, float]:
    span = _SVG_SIZE - 2 * _SVG_MARGIN
    px = _SVG_MARGIN + min(max(x, 0.0), 1.0) * span
    py = _SVG_SIZE - _SVG_MARGIN - min(max(y, 0.0), 1.0) * span
    return px, py


def _svg_marker(algorithm: str, px: float, py: float, color: str) -> str:
    if algorithm == ALGORITHM_BAUM_WELCH:
        return f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3.5" fill="{color}" fill-opacity="0.6"/>'
    pts = f"{px:.1f},{py - 4.5:.1f} {px - 4:.1f},{py + 3.5:.1f} {px + 4:.1f},{py + 3.5:.1f}"
    return f'<polygon points="{pts}" fill="{color}" fill-opacity="0.6"/>'


def scatter_svg(
    rows: Sequence[Mapping[str, object]],
    x_param: str,
    y_param: str,
    true_theta: ParamSet | None = None,
) -> str:
    """Self-contained scatter of fitted coordinates on the unit square.

    Marker shape encodes the algorithm (circle: baum-welch, triangle:
    constrained), color the constraint verdict; an x marks the generating
    parameters when given.
    """

    if x_param not in PARAM_NAMES or y_param not in PARAM_NAMES:
        raise ValueError("scatter axes must be parameter names")
    span = _SVG_SIZE - 2 * _SVG_MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
        f'<rect x="{_SVG_MARGIN}" y="{_SVG_MARGIN}" width="{span}" height="{span}" '
        f'fill="none" stroke="#444"/>',
    ]
    for i in range(6):
        value = i / 5.0
        px, py = _svg_xy(value, value)
        parts.append(
            f'<text x="{px:.1f}" y="{_SVG_SIZE - _SVG_MARGIN + 16}" font-size="11" '
            f'text-anchor="middle">{value:.1f}</text>'
        )
        parts.append(
            f'<text x="{_SVG_MARGIN - 8}" y="{py + 4:.1f}" font-size="11" '
            f'text-anchor="end">{value:.1f}</text>'
        )
    parts.append(
        f'<text x="{_SVG_SIZE / 2:.0f}" y="{_SVG_SIZE - 14}" font-size="13" '
        f'text-anchor="middle">fitted {x_param}</text>'
    )
    parts.append(
        f'<text x="16" y="{_SVG_SIZE / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_SVG_SIZE / 2:.0f})">fitted {y_param}</text>'
    )
    for row in rows:
        px, py = _svg_xy(float(row[f"fitted_{x_param}"]), float(row[f"fitted_{y_param}"]))
        verdict = row["constraints_satisfied"]
        if not isinstance(verdict, bool):
            verdict = str(verdict).lower() == "true"
        parts.append(_svg_marker(str(row["algorithm"]), px, py, _SVG_COLORS[verdict]))
    if true_theta is not None:
        px, py = _svg_xy(getattr(true_theta, x_param), getattr(true_theta, y_param))
        parts.append(
            f'<path d="M {px - 5:.1f} {py - 5:.1f} L {px + 5:.1f} {py + 5:.1f} '
            f'M {px - 5:.1f} {py + 5:.1f} L {px + 5:.1f} {py - 5:.1f}" '
            f'stroke="black" stroke-width="2"/>'
        )
    legend_y = _SVG_MARGIN - 36
    parts.append(
        f'<circle cx="{_SVG_MARGIN + 6}" cy="{legend_y}" r="3.5" fill="#555"/>'
        f'<text x="{_SVG_MARGIN + 14}" y="{legend_y + 4}" font-size="11">baum-welch</text>'
    )
    parts.append(
        _svg_marker(ALGORITHM_CONSTRAINED, _SVG_MARGIN + 106, legend_y, "#555")
        + f'<text x="{_SVG_MARGIN + 114}" y="{legend_y + 4}" font-size="11">constrained</text>'
    )
    parts.append(
        f'<text x="{_SVG_MARGIN + 210}" y="{legend_y + 4}" font-size="11">'
        f'<tspan fill="{_SVG_COLORS[True]}">satisfied</tspan> / '
        f'<tspan fill="{_SVG_COLORS[False]}">violated</tspan></text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def write_experiment_artifacts(
    result: ExperimentResult, out_dir: str | Path, svg: bool = False
) -> dict[str, Path]:
    """Write records.csv and summary.json, plus two scatters when svg=True."""

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"records": out / "records.csv", "summary": out / "summary.json"}
    records_to_csv(result.records, paths["records"])
    payload = {"config": result.config.to_dict(), "summary": result.summary()}
    paths["summary"].write_text(json.dumps(payload, indent=2) + "\n")
    if svg:
        rows = [record.to_row() for record in result.records]
        for key, (x_param, y_param) in {
            "scatter_guess_slip": ("g", "s"),
            "scatter_prior_transit": ("l0", "r"),
        }.items():
            path = out / f"{key}.svg"
            path.write_text(
                scatter_svg(rows, x_param, y_param, result.config.true_theta) + "\n"
            )
            paths[key] = path
    return paths
