"""Each correctness check accepts the program's real output and rejects a corrupted one.

    python3 -m pytest perfbench -q
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import redclust  # noqa: E402
from checks import CheckFailure  # noqa: E402


@pytest.fixture
def x():
    rng = np.random.default_rng(5)
    return rng.normal(size=(40, 4)) * np.array([3.0, 1.5, 1.0, 0.2]) + rng.normal(size=4)


def test_svd_check(x):
    factors = redclust.svd(x)
    checks.check_svd(x, factors)
    nudged = factors.s.copy()
    nudged[1] *= 1.0 + 1e-6
    with pytest.raises(CheckFailure):
        checks.check_svd(x, dataclasses.replace(factors, s=nudged))


def test_svd_reduce_check(x):
    reduced = redclust.svd_reduce(x, 1)
    checks.check_svd_reduce(x, 1, reduced)
    with pytest.raises(CheckFailure):
        checks.check_svd_reduce(x, 1, dataclasses.replace(reduced, data=reduced.data * 1.001))


def test_pca_fit_check(x):
    model = redclust.pca_fit(x, variance_threshold=0.95)
    checks.check_pca_fit(x, 0.95, None, model)
    dropped = dataclasses.replace(model, basis=model.basis[:, :-1])
    with pytest.raises(CheckFailure, match="retained"):
        checks.check_pca_fit(x, 0.95, None, dropped)
    skewed = dataclasses.replace(model, basis=model.basis * 1.01)
    with pytest.raises(CheckFailure, match="orthonormal"):
        checks.check_pca_fit(x, 0.95, None, skewed)


def test_fastica_check(x):
    model = redclust.fastica_fit(x, seed=3)
    reduced = redclust.fastica_transform(model, x)
    checks.check_fastica(model, reduced)
    w = model.unmixing.copy()
    w[0, 0] += 1e-4
    with pytest.raises(CheckFailure, match="W W"):
        checks.check_fastica(dataclasses.replace(model, unmixing=w), reduced)
    with pytest.raises(CheckFailure, match="covariance"):
        checks.check_fastica(model, dataclasses.replace(reduced, data=reduced.data * 1.01))


def test_som_check(x):
    grid = redclust.som_fit(x, width=3, height=3, epochs=5, seed=2)
    reduced = redclust.som_encode(grid, x)
    checks.check_som(grid, x, reduced)
    with pytest.raises(CheckFailure, match="off the grid"):
        checks.check_som(grid, x, dataclasses.replace(reduced, data=reduced.data + 0.5))
    untrained = dataclasses.replace(grid, codebook=grid.codebook + 100.0)
    with pytest.raises(CheckFailure, match="quantization"):
        checks.check_som(untrained, x, reduced)


@pytest.fixture
def blobs():
    rng = np.random.default_rng(8)
    return np.vstack([rng.normal(0.0, 0.3, size=(30, 2)), rng.normal(5.0, 0.3, size=(30, 2)),
                      [[20.0, 20.0]]])


def _with_labels(assignment, labels, roles=None):
    return dataclasses.replace(assignment, labels=labels,
                               roles=assignment.roles if roles is None else roles)


def test_dbscan_check(blobs):
    assignment = redclust.dbscan(blobs, eps=1.0, min_pts=5)
    checks.check_dbscan(blobs, 1.0, 5, None, assignment)
    labels = assignment.labels
    assert labels[-1] == -1 and len(set(labels[:-1])) == 2

    flipped = labels.copy()
    flipped[0] = labels[40]  # one core point moved into the other blob's cluster
    with pytest.raises(CheckFailure, match="connected components"):
        checks.check_dbscan(blobs, 1.0, 5, None, _with_labels(assignment, flipped))

    claimed = labels.copy()
    claimed[-1] = labels[0]  # the isolated point claimed as a border point
    with pytest.raises(CheckFailure, match="border"):
        checks.check_dbscan(blobs, 1.0, 5, None, _with_labels(assignment, claimed))

    roles = assignment.roles.copy()
    roles[-1] = "core"
    with pytest.raises(CheckFailure, match="core set"):
        checks.check_dbscan(blobs, 1.0, 5, None, _with_labels(assignment, labels, roles))


def test_dbscan_check_mixed_rows():
    rows = [(0.0, "a"), (0.1, "a"), (0.2, "a"), (0.15, "b"), (5.0, "a")]
    schema = redclust.DistanceSchema(kinds=("numeric", "nominal"))
    assignment = redclust.dbscan(rows, eps=0.5, min_pts=3, schema=schema)
    checks.check_dbscan(rows, 0.5, 3, schema, assignment)
    noise = assignment.labels.copy()
    noise[0] = -1
    with pytest.raises(CheckFailure):
        checks.check_dbscan(rows, 0.5, 3, schema, _with_labels(assignment, noise))


def test_em_check(blobs):
    model = redclust.em_fit(blobs, k=2, max_runs=3, max_steps=50, quality=1e-10, seed=4)
    checks.check_em(blobs, model)
    with pytest.raises(CheckFailure, match="mean log-likelihood"):
        checks.check_em(blobs, dataclasses.replace(model, mean_log_likelihood=model.mean_log_likelihood + 1e-6))
    traces = [list(t) for t in model.traces]
    traces[0] = traces[0] + [traces[0][-1] - 1.0]
    with pytest.raises(CheckFailure, match="falls"):
        checks.check_em(blobs, dataclasses.replace(model, traces=traces))


def test_output_digest_ignores_only_timings(tmp_path):
    (tmp_path / "points").mkdir()
    (tmp_path / "points" / "a.points").write_text("x\ty\n1.0\t2.0\n")
    (tmp_path / "table_time_ms.tsv").write_text("reduction\tA\nwith SVD\t3\n")
    report = '{"generated_at": "%s", "cells": [{"total_ms": %d, "performance_1_clusters": 2}]}'
    (tmp_path / "report.json").write_text(report % ("t0", 3))
    first = checks.output_digest(tmp_path)

    (tmp_path / "table_time_ms.tsv").write_text("reduction\tA\nwith SVD\t9\n")
    (tmp_path / "report.json").write_text(report % ("t1", 9))
    assert checks.output_digest(tmp_path) == first

    (tmp_path / "points" / "a.points").write_text("x\ty\n1.0\t2.5\n")
    assert checks.output_digest(tmp_path) != first
