"""The reduce -> DBSCAN -> filter -> EM benchmark harness.

One run covers every (dataset, reducer) cell of the grid: reduce (or pass
through), time DBSCAN with a monotonic clock, count clusters
(performance-1), drop noise rows, fit the EM mixture and record its mean
log-likelihood (performance-2). EM reads the (reduced) coordinates, so the
bench derives no similarity matrix: ``data_to_similarity`` (an n x n array)
and ``filter_examples`` (rows by boolean mask) stay library utilities. A
PCA cell keeps its fitted spectrum for the threshold sweep.
Reports are deterministic for a given seed except for the wall-time fields.
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
from .density import NOISE, NOMINAL, dbscan, cluster_count
from .errors import InvalidConfigError, OutputError, SchemaError
from .mixture import em_fit
from .reducers import (
    ReducedDataset,
    fastica_fit,
    fastica_transform,
    pca_encode,
    pca_fit,
    retained_for_threshold,
    som_encode,
    som_fit,
    svd_reduce,
)
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

    def validate(self):
        if not self.datasets:
            raise InvalidConfigError("config lists no datasets")
        unknown = [r for r in self.reducers if r not in REDUCER_ORDER]
        if unknown:
            raise InvalidConfigError(f"unknown reducers {unknown}; valid: {list(REDUCER_ORDER)}")
        if not 0 < self.eps < math.inf:
            raise InvalidConfigError(f"eps must be positive and finite, got {self.eps}")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
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
    spectrum: np.ndarray | None = None  # a PCA cell's covariance eigenvalues, descending
    error: str | None = None
    points: list = field(default_factory=list)  # (x, y, cluster, noise01)

    @property
    def failed(self):
        return self.error is not None


@dataclass
class BenchmarkReport:
    cells: dict  # (dataset, reducer) -> BenchmarkCell
    dataset_names: list
    config: BenchmarkConfig  # config.normalize says which variant this is
    warnings: list = field(default_factory=list)

    def cell(self, dataset, reducer):
        return self.cells[(dataset, reducer)]


def _derive_seed(base, dataset_index, reducer_index):
    return int(
        np.random.SeedSequence(base, spawn_key=(dataset_index, reducer_index)).generate_state(1)[0]
    )


def fit_reducer(name, work, config, seed):
    """Fit one named reducer to the working Dataset: (model, ReducedDataset).

    The one dispatch behind the bench grid and every CLI subcommand, and the
    one place that decides what the unreduced cell clusters on: for "none"
    the ReducedDataset is every regular column (nominal ones as level codes)
    with the table's DistanceSchema. The four reducers fit
    ``work.numeric_matrix()``; the SOM is a 10x10 map and FastICA uses
    tanh, each at its fit function's defaults otherwise. The model is None
    for svd and none, which keep no fitted state.
    """
    if name == "none":
        return None, ReducedDataset(work.feature_rows(), work.distance_schema())
    matrix = work.numeric_matrix()
    if name == "svd":
        return None, svd_reduce(matrix, k=min(config.svd_k, min(matrix.shape)))
    if name == "pca":
        if config.pca_k is not None:
            model = pca_fit(matrix, k=min(config.pca_k, matrix.shape[1]))
        else:
            model = pca_fit(matrix, variance_threshold=config.pca_variance_threshold)
        return model, pca_encode(model, matrix)
    if name == "som":
        grid = som_fit(matrix, width=10, height=10, seed=seed)
        return grid, som_encode(grid, matrix)
    if name == "fastica":
        # centred rows span at most n - 1 directions, so wider tables keep n - 1
        n, d = matrix.shape
        model = fastica_fit(matrix, n_components=min(d, n - 1), seed=seed)
        return model, fastica_transform(model, matrix)
    raise InvalidConfigError(f"unknown reducer {name!r}")


def load_config_datasets(config):
    """Load and sanity-check every dataset before any cell runs."""
    loaded = []
    for data_path, schema_path in config.datasets:
        ds = load_dataset(data_path, schema_path)
        if any(seen.name == ds.name for seen in loaded):
            # cells, columns and point files are keyed by name
            raise InvalidConfigError(f"two datasets are named {ds.name!r}; each needs its own name")
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
    coords = np.asarray(coords, dtype=float)
    xs = coords[:, 0].tolist()
    ys = coords[:, 1].tolist() if coords.shape[1] >= 2 else [0.0] * len(xs)
    labels = assignment.labels
    return list(zip(xs, ys, labels.tolist(), (labels == NOISE).astype(int).tolist()))


def _run_cell(work, reducer, config, seed):
    cell = BenchmarkCell(dataset=work.name, reducer=reducer)
    try:
        t0 = time.perf_counter()
        model, reduced = fit_reducer(reducer, work, config, seed)
        t1 = time.perf_counter()
        cell.attribute_count = reduced.k
        cell.reducer_converged = getattr(model, "converged", None)
        cell.spectrum = getattr(model, "eigenvalues", None)

        # EM and the plots take the unreduced table's numeric columns, not its
        # level codes; an all-nominal table plots its codes and skips EM
        all_nominal = reduced.schema is not None and set(reduced.schema.kinds) == {NOMINAL}
        coords = reduced.data if reduced.schema is None or all_nominal else work.numeric_matrix()
        t2 = time.perf_counter()
        assignment = dbscan(
            reduced.data, eps=config.eps, min_pts=config.min_pts, schema=reduced.schema
        )
        t3 = time.perf_counter()

        cell.reduce_ms = round((t1 - t0) * 1000.0)
        cell.cluster_ms = round((t3 - t2) * 1000.0)
        cell.total_ms = round(((t1 - t0) + (t3 - t2)) * 1000.0)
        cell.n_clusters = cluster_count(assignment)
        cell.noise_count = assignment.noise_count
        cell.points = _plot_points(coords, assignment)

        em_input = coords[assignment.labels != NOISE]
        if all_nominal:
            cell.em_note = "EM skipped: the table has no numeric columns"
        elif em_input.shape[0] < config.em_k:
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


def _working_tables(datasets, normalized):
    """The tables a variant's grid runs on: the loaded datasets, z-normalized when ``normalized``."""
    return [normalize(ds) for ds in datasets] if normalized else datasets


def run_benchmark(config, datasets=None):
    """Populate the full (dataset x reducer) grid for one normalization variant.

    ``datasets`` are config.datasets as ``load_config_datasets`` returns
    them, loaded here when not given; the grid runs on them z-normalized
    when config.normalize (``_working_tables``).
    """
    config.validate()
    if datasets is None:
        datasets = load_config_datasets(config)
    tables = _working_tables(datasets, config.normalize)
    cells = {}
    warnings = []
    for di, work in enumerate(tables):
        for ri, reducer in enumerate(config.reducers):
            seed = _derive_seed(config.seed, di, ri)
            cell = _run_cell(work, reducer, config, seed)
            cells[(work.name, reducer)] = cell
            if cell.failed:
                warnings.append(f"cell ({work.name}, {reducer}) failed: {cell.error}")
            elif cell.reducer_converged is False:
                warnings.append(f"cell ({work.name}, {reducer}): reducer hit its iteration cap")
    return BenchmarkReport(
        cells=cells,
        dataset_names=[work.name for work in tables],
        config=config,
        warnings=warnings,
    )


def _ordered_datasets(report):
    canonical = [n for n in CANONICAL_DATASETS if n in report.dataset_names]
    extra = [n for n in report.dataset_names if n not in CANONICAL_DATASETS]
    return canonical + extra


def _observed(report, name, reducer, value_of):
    """A grid cell's value as the tables print it: "-" without a report, "ERROR" if it failed."""
    if report is None:
        return "-"
    cell = report.cell(name, reducer)
    return "ERROR" if cell.failed else value_of(cell)


def _table_rows(report, value_of):
    names = _ordered_datasets(report)
    rows = [["reduction"] + [DISPLAY_NAMES.get(n, n) for n in names]]
    for reducer in report.config.reducers:
        observed = [_observed(report, name, reducer, value_of) for name in names]
        rows.append([ROW_LABELS.get(reducer, reducer)] + observed)
    return rows


def _delimited(rows, sep="\t"):
    """Rows as ``sep``-joined lines; Python scalars only (``.tolist()``), whose str is stable."""
    return "".join(sep.join(map(str, row)) + "\n" for row in rows)


def write_texts(out_dir, files):
    """Create ``out_dir`` and write each ``files`` text, as UTF-8, at its relative path.

    Parent directories are created; any OSError becomes one OutputError naming the path.
    """
    path = out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for relative, text in files.items():
            path = out_dir / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


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
    tables = {
        "table_attributes.tsv": lambda c: c.attribute_count,
        "table_time_ms.tsv": lambda c: c.total_ms,
        "table_clusters.tsv": lambda c: c.n_clusters,
    }
    files = {name: _delimited(_table_rows(report, value_of)) for name, value_of in tables.items()}

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "seed": report.config.seed,
        "config": report.config.to_dict(),
        "config_hash": report.config.config_hash(),
        "normalized": report.config.normalize,
        "datasets": _ordered_datasets(report),
        "warnings": list(report.warnings),
        "cells": [
            _cell_payload(report.cell(name, reducer))
            for name in _ordered_datasets(report)
            for reducer in report.config.reducers
        ],
    }
    if not report.cells:
        payload["warnings"].append("report is empty: no cells were run")
    files["report.json"] = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    # one fixed template, not _delimited: points files are the bulk of the
    # bytes, and a generic per-value join formats them ~30% slower
    for (name, reducer), cell in report.cells.items():
        if not cell.failed:
            files[f"points/{name}_{reducer}.points"] = "x\ty\tcluster\tnoise\n" + "".join(
                [f"{x!r}\t{y!r}\t{c}\t{n}\n" for x, y, c, n in cell.points]
            )
    write_texts(Path(out_dir) / "points", {})  # present even when every cell failed
    write_texts(out_dir, files)


def pca_threshold_sweep(report):
    """Retained PCA dimensions per dataset for each sweep threshold.

    Rows: (dataset, threshold, retained, reference, match) for each PCA cell
    of ``report``, datasets in the tables' order, read from the spectrum the
    cell's fit kept: the count ``pca_fit(variance_threshold=t)`` keeps. A
    cell whose fit failed gets "ERROR" rows; one whose fit succeeded keeps
    its counts even if a later stage failed.
    """
    rows = []
    for name in _ordered_datasets(report):
        cell = report.cells.get((name, "pca"))
        if cell is None:
            continue
        reference = REFERENCE_ATTRIBUTE_COUNTS["pca"].get(name)
        spectrum = cell.spectrum
        for threshold in PCA_SWEEP_THRESHOLDS:
            retained = "ERROR" if spectrum is None else retained_for_threshold(spectrum, threshold)
            rows.append(
                {
                    "dataset": name,
                    "threshold": threshold,
                    "retained": retained,
                    "reference": reference,
                    "match": reference is not None and retained == reference,
                }
            )
    return rows


def write_comparison_files(out_dir, normalized_report, raw_report):
    """Reference-vs-observed artifacts read from the reports: attributes, clusters, PCA sweep."""
    primary = normalized_report or raw_report
    names = _ordered_datasets(primary)

    attributes = ["dataset reducer reference observed status".split()]
    for name in names:
        for reducer in primary.config.reducers:
            observed = _observed(primary, name, reducer, lambda c: c.attribute_count)
            reference = REFERENCE_ATTRIBUTE_COUNTS.get(reducer, {}).get(name, "")
            if (reducer, name) in KNOWN_DEVIATIONS and observed != reference:
                status = KNOWN_DEVIATIONS[(reducer, name)]
            elif reference == "":
                status = "no-reference"
            elif observed == reference:
                status = "match"
            else:
                status = "deviation"
            attributes.append((name, reducer, reference, observed, status))
    files = {"attribute_comparison.tsv": _delimited(attributes)}

    clusters = [("dataset reducer reference observed_normalized observed_raw"
                 " match_normalized match_raw").split()]
    for name in names:
        for reducer in primary.config.reducers:
            reference = REFERENCE_CLUSTER_COUNTS.get(reducer, {}).get(name, "")
            obs_n = _observed(normalized_report, name, reducer, lambda c: c.n_clusters)
            obs_r = _observed(raw_report, name, reducer, lambda c: c.n_clusters)
            matches = [str(obs == reference).lower() for obs in (obs_n, obs_r)]
            clusters.append((name, reducer, reference, obs_n, obs_r, *matches))
    files["cluster_comparison.tsv"] = _delimited(clusters)

    sweep_rows = pca_threshold_sweep(primary)
    sweep = ["dataset threshold retained reference match".split()]
    sweep += [
        (r["dataset"], r["threshold"], r["retained"], r["reference"], str(r["match"]).lower())
        for r in sweep_rows
    ]
    files["pca_threshold_sweep.tsv"] = _delimited(sweep)

    by_dataset = {}
    for row in sweep_rows:
        by_dataset.setdefault(row["dataset"], []).append(row)
    summary = [["dataset", "matching_thresholds"]]
    for name, rows in by_dataset.items():
        matches = [str(r["threshold"]) for r in rows if r["match"]]
        summary.append((name, ",".join(matches) if matches else "none"))
    files["pca_threshold_summary.tsv"] = _delimited(summary)
    write_texts(out_dir, files)


def run_full_benchmark(config, out_dir, datasets=None):
    """The bench entry point: both normalization variants plus comparison files.

    With config.normalize False only the raw variant runs (emitted under
    raw/); otherwise normalized/ and raw/ both appear, mirroring the open
    question of whether eps applies to normalized or raw attributes.
    ``datasets`` are config.datasets as ``load_config_datasets`` returns
    them; they are loaded here when not given.
    """
    config.validate()
    if datasets is None:
        datasets = load_config_datasets(config)  # any load failure precedes output creation
    out_dir = Path(out_dir)
    write_texts(out_dir, {})  # an unusable --out fails before any cell runs

    reports = {}
    for normalized in [True, False] if config.normalize else [False]:
        report = run_benchmark(replace(config, normalize=normalized), datasets)
        reports["normalized" if normalized else "raw"] = report
        emit_report(report, out_dir / ("normalized" if normalized else "raw"))

    write_comparison_files(out_dir, reports.get("normalized"), reports.get("raw"))
    return reports


def paired_dbscan_timing(ds, config, repetitions=11):
    """Median DBSCAN wall time, reduced (svd k=1) vs unreduced, same process.

    Runs the pairs back to back so the comparison sees the same machine
    state; returns (median_reduced_ms, median_unreduced_ms).
    """
    work = _working_tables([ds], config.normalize)[0]
    config = replace(config, svd_k=1)
    _, reduced = fit_reducer("svd", work, config, config.seed)
    _, unreduced = fit_reducer("none", work, config, config.seed)

    reduced_ms = []
    unreduced_ms = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        dbscan(reduced.data, eps=config.eps, min_pts=config.min_pts, schema=reduced.schema)
        t1 = time.perf_counter()
        dbscan(unreduced.data, eps=config.eps, min_pts=config.min_pts, schema=unreduced.schema)
        t2 = time.perf_counter()
        reduced_ms.append((t1 - t0) * 1000.0)
        unreduced_ms.append((t2 - t1) * 1000.0)
    return float(np.median(reduced_ms)), float(np.median(unreduced_ms))
