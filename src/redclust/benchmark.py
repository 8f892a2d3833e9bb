"""The reduce -> DBSCAN -> filter -> EM benchmark harness.

One run covers every (dataset, reducer) cell of the grid: reduce (or pass
through), time DBSCAN with a monotonic clock, count clusters
(performance-1), drop noise rows, fit the EM mixture and record its mean
log-likelihood (performance-2). EM reads the (reduced) coordinates, so the
bench derives no similarity matrix; ``data_to_similarity`` stays a library
utility. Reports are deterministic for a given seed except for the
wall-time fields.
"""

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dataset import load_dataset, normalize
from .dataset import data_to_similarity, filter_examples  # noqa: F401  (call-site tracers wrap these names here)
from .density import NOISE, dbscan, cluster_count
from .errors import InvalidConfigError, OutputError, SchemaError
from .mixture import em_fit
from .reducers import (
    ReducedDataset,
    fastica_fit,
    fastica_transform,
    pca_encode,
    pca_fit,
    som_encode,
    som_fit,
    svd_reduce,
)
from .reducers.ica import NONLINEARITIES
from .reference import (
    CANONICAL_DATASETS,
    DISPLAY_NAMES,
    EXPECTED_REGULAR_ATTRIBUTES,
    KNOWN_DEVIATIONS,
    PCA_SWEEP_THRESHOLDS,
    REDUCER_ORDER,
    REFERENCE_ATTRIBUTE_COUNTS,
    REFERENCE_CLUSTER_COUNTS,
    ROW_LABELS,
)


@dataclass
class BenchmarkConfig:
    """Canonical defaults: eps=1, minPts=5, EM k=2/runs=5/steps=100/quality=1e-10."""

    datasets: list = field(default_factory=list)  # (data_path, schema_path) pairs
    reducers: tuple = REDUCER_ORDER
    eps: float = 1.0
    min_pts: int = 5
    em_k: int = 2
    em_runs: int = 5
    em_steps: int = 100
    em_quality: float = 1e-10
    seed: int = 17
    normalize: bool = True
    svd_k: int = 1
    pca_k: int | None = None
    pca_variance_threshold: float = 0.95
    som_width: int = 10
    som_height: int = 10
    som_epochs: int = 100
    som_lr0: float = 0.5
    som_radius0: float | None = None  # fit-time default: max(width, height) / 2
    ica_nonlinearity: str = "tanh"
    ica_tol: float = 1e-6
    ica_max_iter: int = 200

    def validate(self):
        if not self.datasets:
            raise InvalidConfigError("config lists no datasets")
        unknown = [r for r in self.reducers if r not in REDUCER_ORDER]
        if unknown:
            raise InvalidConfigError(f"unknown reducers {unknown}; valid: {list(REDUCER_ORDER)}")
        if not 0 < self.eps < math.inf:
            raise InvalidConfigError(f"eps must be positive and finite, got {self.eps}")
        if self.min_pts < 1:
            raise InvalidConfigError(f"minpts must be >= 1, got {self.min_pts}")
        if self.em_k < 1 or self.em_runs < 1 or self.em_steps < 1:
            raise InvalidConfigError("em-k, em-runs and em-steps must be >= 1")
        if not 0 < self.em_quality < math.inf:
            raise InvalidConfigError(f"em-quality must be positive and finite, got {self.em_quality}")
        if self.svd_k < 1:
            raise InvalidConfigError(f"k must be >= 1, got {self.svd_k}")
        if self.pca_k is not None and self.pca_k < 1:
            raise InvalidConfigError(f"pca_k must be >= 1, got {self.pca_k}")
        if self.pca_k is None and not 0.0 < self.pca_variance_threshold <= 1.0:
            raise InvalidConfigError(
                f"variance-threshold must be in (0, 1], got {self.pca_variance_threshold}"
            )
        if self.som_width < 1 or self.som_height < 1 or self.som_width * self.som_height < 2:
            raise InvalidConfigError(
                f"som_width x som_height must give at least 2 nodes, "
                f"got {self.som_width}x{self.som_height}"
            )
        if self.som_epochs < 1:
            raise InvalidConfigError(f"som_epochs must be >= 1, got {self.som_epochs}")
        if not 0.0 < self.som_lr0 <= 1.0:
            raise InvalidConfigError(f"som_lr0 must be in (0, 1], got {self.som_lr0}")
        if self.som_radius0 is not None and not self.som_radius0 >= 0:
            raise InvalidConfigError(f"som_radius0 must be >= 0, got {self.som_radius0}")
        if self.ica_nonlinearity not in NONLINEARITIES:
            raise InvalidConfigError(
                f"ica_nonlinearity must be one of {sorted(NONLINEARITIES)}, "
                f"got {self.ica_nonlinearity!r}"
            )
        if not self.ica_tol > 0:
            raise InvalidConfigError(f"ica_tol must be positive, got {self.ica_tol}")
        if self.ica_max_iter < 1:
            raise InvalidConfigError(f"ica_max_iter must be >= 1, got {self.ica_max_iter}")

    def to_dict(self):
        out = asdict(self)
        out["datasets"] = [[str(p) for p in pair] for pair in self.datasets]
        out["reducers"] = list(self.reducers)
        return out

    def config_hash(self):
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()


@dataclass
class BenchmarkCell:
    dataset: str
    reducer: str
    attribute_count: int | None = None
    reduce_ms: int | None = None
    cluster_ms: int | None = None
    total_ms: int | None = None
    n_clusters: int | None = None  # performance-1
    noise_count: int | None = None
    mean_log_likelihood: float | None = None  # performance-2
    em_note: str | None = None
    reducer_converged: bool | None = None
    error: str | None = None
    points: list = field(default_factory=list)  # (x, y, cluster, noise01)

    @property
    def failed(self):
        return self.error is not None


@dataclass
class BenchmarkReport:
    cells: dict  # (dataset, reducer) -> BenchmarkCell
    dataset_names: list
    config: BenchmarkConfig
    normalized: bool
    warnings: list = field(default_factory=list)

    def cell(self, dataset, reducer):
        return self.cells[(dataset, reducer)]


def _derive_seed(base, dataset_index, reducer_index):
    return int(
        np.random.SeedSequence(base, spawn_key=(dataset_index, reducer_index)).generate_state(1)[0]
    )


def fit_reducer(name, matrix, config, seed):
    """Fit one named reducer to a numeric matrix: (model, ReducedDataset).

    The one dispatch behind the bench grid and every CLI subcommand; the
    model is None for svd, which keeps no fitted state.
    """
    if name == "svd":
        return None, svd_reduce(matrix, k=min(config.svd_k, min(matrix.shape)))
    if name == "pca":
        if config.pca_k is not None:
            model = pca_fit(matrix, k=min(config.pca_k, matrix.shape[1]))
        else:
            model = pca_fit(matrix, variance_threshold=config.pca_variance_threshold)
        return model, pca_encode(model, matrix)
    if name == "som":
        grid = som_fit(
            matrix,
            width=config.som_width,
            height=config.som_height,
            epochs=config.som_epochs,
            lr0=config.som_lr0,
            radius0=config.som_radius0,
            seed=seed,
        )
        return grid, som_encode(grid, matrix)
    if name == "fastica":
        # centred rows span at most n - 1 directions, so wider tables keep n - 1
        model = fastica_fit(
            matrix,
            n_components=min(matrix.shape[1], matrix.shape[0] - 1),
            nonlinearity=config.ica_nonlinearity,
            tol=config.ica_tol,
            max_iter=config.ica_max_iter,
            seed=seed,
        )
        return model, fastica_transform(model, matrix)
    raise InvalidConfigError(f"unknown reducer {name!r}")


def load_config_datasets(config):
    """Load and sanity-check every dataset before any cell runs."""
    loaded = []
    for data_path, schema_path in config.datasets:
        ds = load_dataset(data_path, schema_path)
        expected = EXPECTED_REGULAR_ATTRIBUTES.get(ds.name)
        if expected is not None and ds.n_regular != expected:
            raise SchemaError(
                f"canonical dataset {ds.name!r} must carry {expected} regular attributes, "
                f"found {ds.n_regular}"
            )
        loaded.append(ds)
    return loaded


def _plot_points(coords, assignment):
    """Per-example plot records: two leading coordinates, cluster id, noise flag."""
    if coords.shape[1] >= 2:
        xy = coords[:, :2]
    else:
        xy = np.column_stack([coords[:, 0], np.zeros(coords.shape[0])])
    return [
        (float(x), float(y), int(label), int(label == NOISE))
        for (x, y), label in zip(xy, assignment.labels)
    ]


def _run_cell(ds, work, reducer, config, seed):
    cell = BenchmarkCell(dataset=ds.name, reducer=reducer)
    try:
        t0 = time.perf_counter()
        if reducer == "none":
            reduced = None
            cell.attribute_count = work.n_regular
        else:
            model, reduced = fit_reducer(reducer, work.numeric_matrix(), config, seed)
            cell.attribute_count = reduced.k
            cell.reducer_converged = getattr(model, "converged", None)
        t1 = time.perf_counter()

        if reduced is None:
            cluster_input, schema = work.feature_rows(), work.distance_schema()
            coords = work.numeric_matrix()
        else:
            cluster_input, schema = reduced.data, None
            coords = reduced.data
        t2 = time.perf_counter()
        assignment = dbscan(cluster_input, eps=config.eps, min_pts=config.min_pts, schema=schema)
        t3 = time.perf_counter()

        cell.reduce_ms = round((t1 - t0) * 1000.0)
        cell.cluster_ms = round((t3 - t2) * 1000.0)
        cell.total_ms = round(((t1 - t0) + (t3 - t2)) * 1000.0)
        cell.n_clusters = cluster_count(assignment)
        cell.noise_count = assignment.noise_count
        cell.points = _plot_points(coords, assignment)

        em_input = coords[assignment.labels != NOISE]
        if em_input.shape[0] < config.em_k:
            cell.em_note = f"EM skipped: {em_input.shape[0]} non-noise rows < k={config.em_k}"
        else:
            model = em_fit(
                em_input,
                k=config.em_k,
                max_runs=config.em_runs,
                max_steps=config.em_steps,
                quality=config.em_quality,
                seed=seed,
            )
            cell.mean_log_likelihood = model.mean_log_likelihood
    except Exception as exc:  # a failed cell must not abort the grid
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def run_benchmark(config, datasets=None):
    """Populate the full (dataset x reducer) grid for one normalization variant.

    ``datasets`` are config.datasets already loaded by load_config_datasets;
    they are loaded here when not given.
    """
    config.validate()
    if datasets is None:
        datasets = load_config_datasets(config)
    cells = {}
    warnings = []
    for di, ds in enumerate(datasets):
        work = normalize(ds) if config.normalize else ds
        for ri, reducer in enumerate(config.reducers):
            seed = _derive_seed(config.seed, di, ri)
            cell = _run_cell(ds, work, reducer, config, seed)
            cells[(ds.name, reducer)] = cell
            if cell.failed:
                warnings.append(f"cell ({ds.name}, {reducer}) failed: {cell.error}")
            elif cell.reducer_converged is False:
                warnings.append(f"cell ({ds.name}, {reducer}): reducer hit its iteration cap")
    return BenchmarkReport(
        cells=cells,
        dataset_names=[ds.name for ds in datasets],
        config=config,
        normalized=config.normalize,
        warnings=warnings,
    )


def _ordered_datasets(report):
    canonical = [n for n in CANONICAL_DATASETS if n in report.dataset_names]
    extra = [n for n in report.dataset_names if n not in CANONICAL_DATASETS]
    return canonical + extra


def _table_lines(report, value_of):
    names = _ordered_datasets(report)
    header = ["reduction"] + [DISPLAY_NAMES.get(n, n) for n in names]
    lines = ["\t".join(header)]
    for reducer in report.config.reducers:
        row = [ROW_LABELS.get(reducer, reducer)]
        for name in names:
            cell = report.cells.get((name, reducer))
            if cell is None:
                row.append("")
            elif cell.failed:
                row.append("ERROR")
            else:
                row.append(str(value_of(cell)))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def _cell_payload(cell):
    return {
        "dataset": cell.dataset,
        "reducer": cell.reducer,
        "attribute_count": cell.attribute_count,
        "reduce_ms": cell.reduce_ms,
        "cluster_ms": cell.cluster_ms,
        "total_ms": cell.total_ms,
        "performance_1_clusters": cell.n_clusters,
        "noise_count": cell.noise_count,
        "performance_2_mean_log_likelihood": cell.mean_log_likelihood,
        "em_note": cell.em_note,
        "reducer_converged": cell.reducer_converged,
        "error": cell.error,
    }


def emit_report(report, out_dir):
    """Write the three measurement tables, the full JSON detail, and plot data.

    Only report.json carries wall times and a timestamp; every other file is
    byte-stable across runs with the same seed and config.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "points").mkdir(exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out_dir}: {exc}") from exc

    tables = {
        "table_attributes.tsv": lambda c: c.attribute_count,
        "table_time_ms.tsv": lambda c: c.total_ms,
        "table_clusters.tsv": lambda c: c.n_clusters,
    }
    try:
        for filename, value_of in tables.items():
            (out_dir / filename).write_text(_table_lines(report, value_of), encoding="utf-8")

        payload = {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "seed": report.config.seed,
            "config": report.config.to_dict(),
            "config_hash": report.config.config_hash(),
            "normalized": report.normalized,
            "datasets": _ordered_datasets(report),
            "warnings": list(report.warnings),
            "cells": [
                _cell_payload(report.cells[(name, reducer)])
                for name in _ordered_datasets(report)
                for reducer in report.config.reducers
                if (name, reducer) in report.cells
            ],
        }
        if not report.cells:
            payload["warnings"].append("report is empty: no cells were run")
        (out_dir / "report.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

        for (name, reducer), cell in report.cells.items():
            if cell.failed:
                continue
            lines = ["x\ty\tcluster\tnoise"]
            lines += [f"{x!r}\t{y!r}\t{c}\t{n}" for x, y, c, n in cell.points]
            (out_dir / "points" / f"{name}_{reducer}.points").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
    except OSError as exc:
        raise OutputError(f"cannot write report files under {out_dir}: {exc}") from exc


def pca_threshold_sweep(datasets, config):
    """Retained PCA dimensions per dataset for each sweep threshold.

    Rows: (dataset, threshold, retained, reference, match). The sweep runs
    on the same normalization variant the canonical comparison uses.
    """
    rows = []
    for ds in datasets:
        work = normalize(ds) if config.normalize else ds
        matrix = work.numeric_matrix()
        reference = REFERENCE_ATTRIBUTE_COUNTS["pca"].get(ds.name)
        for threshold in PCA_SWEEP_THRESHOLDS:
            model = pca_fit(matrix, variance_threshold=threshold)
            rows.append(
                {
                    "dataset": ds.name,
                    "threshold": threshold,
                    "retained": model.retained,
                    "reference": reference,
                    "match": reference is not None and model.retained == reference,
                }
            )
    return rows


def write_comparison_files(out_dir, normalized_report, raw_report, sweep_rows):
    """Reference-vs-observed artifacts: attributes, cluster counts, PCA sweep."""
    out_dir = Path(out_dir)

    primary = normalized_report or raw_report
    names = _ordered_datasets(primary)

    lines = ["dataset\treducer\treference\tobserved\tstatus"]
    for name in names:
        for reducer in primary.config.reducers:
            cell = primary.cells.get((name, reducer))
            observed = "ERROR" if cell is None or cell.failed else cell.attribute_count
            reference = REFERENCE_ATTRIBUTE_COUNTS.get(reducer, {}).get(name, "")
            if (reducer, name) in KNOWN_DEVIATIONS and observed != reference:
                status = KNOWN_DEVIATIONS[(reducer, name)]
            elif reference == "":
                status = "no-reference"
            elif observed == reference:
                status = "match"
            else:
                status = "deviation"
            lines.append(f"{name}\t{reducer}\t{reference}\t{observed}\t{status}")
    (out_dir / "attribute_comparison.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def observed_clusters(report, name, reducer):
        if report is None:
            return "-"
        cell = report.cells.get((name, reducer))
        if cell is None or cell.failed:
            return "ERROR"
        return cell.n_clusters

    lines = [
        "dataset\treducer\treference\tobserved_normalized\tobserved_raw"
        "\tmatch_normalized\tmatch_raw"
    ]
    for name in names:
        for reducer in primary.config.reducers:
            reference = REFERENCE_CLUSTER_COUNTS.get(reducer, {}).get(name, "")
            obs_n = observed_clusters(normalized_report, name, reducer)
            obs_r = observed_clusters(raw_report, name, reducer)
            lines.append(
                f"{name}\t{reducer}\t{reference}\t{obs_n}\t{obs_r}"
                f"\t{str(obs_n == reference).lower()}\t{str(obs_r == reference).lower()}"
            )
    (out_dir / "cluster_comparison.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["dataset\tthreshold\tretained\treference\tmatch"]
    for row in sweep_rows:
        lines.append(
            f"{row['dataset']}\t{row['threshold']}\t{row['retained']}"
            f"\t{row['reference']}\t{str(row['match']).lower()}"
        )
    (out_dir / "pca_threshold_sweep.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    by_dataset = {}
    for row in sweep_rows:
        by_dataset.setdefault(row["dataset"], []).append(row)
    lines = ["dataset\tmatching_thresholds"]
    for name, rows in by_dataset.items():
        matches = [str(r["threshold"]) for r in rows if r["match"]]
        lines.append(f"{name}\t{','.join(matches) if matches else 'none'}")
    (out_dir / "pca_threshold_summary.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_full_benchmark(config, out_dir):
    """The bench entry point: both normalization variants plus comparison files.

    With config.normalize False only the raw variant runs (emitted under
    raw/); otherwise normalized/ and raw/ both appear, mirroring the open
    question of whether eps applies to normalized or raw attributes.
    """
    config.validate()
    datasets = load_config_datasets(config)  # any load failure precedes output creation
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out_dir}: {exc}") from exc

    reports = {}
    variants = [True, False] if config.normalize else [False]
    for normalized in variants:
        report = run_benchmark(replace(config, normalize=normalized), datasets)
        reports["normalized" if normalized else "raw"] = report
        emit_report(report, out_dir / ("normalized" if normalized else "raw"))

    sweep_rows = pca_threshold_sweep(datasets, config)
    write_comparison_files(
        out_dir, reports.get("normalized"), reports.get("raw"), sweep_rows
    )
    return reports


def paired_dbscan_timing(ds, config, repetitions=11):
    """Median DBSCAN wall time, reduced (svd k=1) vs unreduced, same process.

    Runs the pairs back to back so the comparison sees the same machine
    state; returns (median_reduced_ms, median_unreduced_ms).
    """
    work = normalize(ds) if config.normalize else ds
    matrix = work.numeric_matrix()
    reduced = svd_reduce(matrix, k=1)
    rows, schema = work.feature_rows(), work.distance_schema()

    reduced_ms = []
    unreduced_ms = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        dbscan(reduced.data, eps=config.eps, min_pts=config.min_pts)
        t1 = time.perf_counter()
        dbscan(rows, eps=config.eps, min_pts=config.min_pts, schema=schema)
        t2 = time.perf_counter()
        reduced_ms.append((t1 - t0) * 1000.0)
        unreduced_ms.append((t2 - t1) * 1000.0)
    return float(np.median(reduced_ms)), float(np.median(unreduced_ms))
