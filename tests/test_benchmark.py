import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

import redclust.benchmark as bench
from redclust.benchmark import (
    BenchmarkConfig,
    emit_report,
    pca_threshold_sweep,
    run_benchmark,
    run_full_benchmark,
    write_comparison_files,
)
from redclust.dataset import load_dataset
from redclust.errors import (
    DatasetParseError,
    InvalidConfigError,
    InvalidInputError,
    SchemaError,
)
from redclust.model_io import load_model, save_model
from redclust.reducers import fastica_fit, pca_fit, som_fit


def fast_config(pairs, **overrides):
    base = dict(
        datasets=list(pairs),
        som_width=4,
        som_height=4,
        som_epochs=5,
        ica_max_iter=50,
        em_runs=2,
        em_steps=30,
        seed=17,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


class TestRunBenchmark:
    def test_grid_complete(self, tiny_pair):
        report = run_benchmark(fast_config([tiny_pair]))
        assert len(report.cells) == 5
        for (name, reducer), cell in report.cells.items():
            assert name == "tiny"
            assert not cell.failed, cell.error
            assert cell.attribute_count is not None
            assert isinstance(cell.total_ms, int)
            assert cell.n_clusters is not None
            assert len(cell.points) == 60

    def test_fastica_and_none_attribute_counts_equal(self, tiny_pair):
        report = run_benchmark(fast_config([tiny_pair]))
        assert (
            report.cell("tiny", "fastica").attribute_count
            == report.cell("tiny", "none").attribute_count
            == 3
        )
        assert report.cell("tiny", "svd").attribute_count == 1
        assert report.cell("tiny", "som").attribute_count == 2

    def test_deterministic_apart_from_timing(self, tiny_pair):
        config = fast_config([tiny_pair])
        a = run_benchmark(config)
        b = run_benchmark(replace(config))
        for key, cell_a in a.cells.items():
            cell_b = b.cells[key]
            assert cell_a.attribute_count == cell_b.attribute_count
            assert cell_a.n_clusters == cell_b.n_clusters
            assert cell_a.noise_count == cell_b.noise_count
            assert cell_a.points == cell_b.points
            assert cell_a.mean_log_likelihood == cell_b.mean_log_likelihood

    def test_two_blobs_cluster_downstream(self, tiny_pair):
        report = run_benchmark(fast_config([tiny_pair]))
        # well-separated blobs survive every reduction
        for reducer in ("svd", "pca", "none"):
            assert report.cell("tiny", reducer).n_clusters == 2
            assert report.cell("tiny", reducer).mean_log_likelihood is not None

    def test_cell_failure_isolated(self, tmp_path, tiny_pair):
        # constant second column: rank < dim, so fastica alone must fail
        rows = ["x1,x2"] + [f"{v:.4f},7.0" for v in np.linspace(0.0, 3.0, 40)]
        data = tmp_path / "flat.csv"
        data.write_text("\n".join(rows) + "\n")
        schema = tmp_path / "flat.schema.json"
        schema.write_text(
            json.dumps({"name": "flat", "columns": [{"name": "x1"}, {"name": "x2"}]})
        )
        report = run_benchmark(fast_config([(str(data), str(schema))]))
        assert report.cell("flat", "fastica").failed
        assert "DegenerateInputError" in report.cell("flat", "fastica").error
        for reducer in ("svd", "pca", "som", "none"):
            assert not report.cell("flat", reducer).failed
        assert any("fastica" in w for w in report.warnings)

    def test_fastica_on_wide_table(self, tmp_path):
        # 40 centred rows span 39 directions, whatever the column count
        rng = np.random.default_rng(40)
        names = [f"x{j}" for j in range(60)]
        rows = [",".join(names)] + [
            ",".join(f"{v:.6f}" for v in row) for row in rng.normal(size=(40, 60))
        ]
        data = tmp_path / "wide.csv"
        data.write_text("\n".join(rows) + "\n")
        schema = tmp_path / "wide.schema.json"
        schema.write_text(json.dumps({"name": "wide", "columns": [{"name": n} for n in names]}))
        report = run_benchmark(fast_config([(str(data), str(schema))], reducers=("fastica",)))
        cell = report.cell("wide", "fastica")
        assert not cell.failed, cell.error
        assert cell.attribute_count == 39

    def test_no_float_distance_or_similarity_matrix(self, monkeypatch, tiny_pair):
        # DBSCAN needs only the eps-graph and EM reads coordinates
        def refuse(*args, **kwargs):
            raise AssertionError("the bench built an n x n float matrix")

        monkeypatch.setattr("redclust.density.pairwise_distances", refuse)
        monkeypatch.setattr("redclust.benchmark.data_to_similarity", refuse)
        report = run_benchmark(fast_config([tiny_pair]))
        assert len(report.cells) == len(report.config.reducers)
        for cell in report.cells.values():
            assert not cell.failed, cell.error
            assert cell.n_clusters == 2
            assert cell.mean_log_likelihood is not None

    def test_reducer_calls_reach_the_benchmark_names(self, monkeypatch, tiny_pair):
        # perfbench wraps these names at redclust.benchmark and binds their
        # arguments by parameter name; a dispatch that bypasses them checks nothing
        bound = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                arguments = inspect.signature(fn).bind(*args, **kwargs)
                arguments.apply_defaults()
                bound.setdefault(name, []).append(set(arguments.arguments))
                return fn(*args, **kwargs)

            return wrapper

        params = {
            "svd_reduce": {"x", "k"},
            "pca_fit": {"x", "k", "variance_threshold"},
            "som_fit": {"x", "epochs"},
            "som_encode": {"grid", "x"},
            "fastica_fit": {"x"},
            "fastica_transform": {"model"},
            "dbscan": {"data", "eps", "min_pts", "schema"},
            "em_fit": {"x"},
        }
        for name in params:
            monkeypatch.setattr(bench, name, counting(name, getattr(bench, name)))
        report = run_benchmark(fast_config([tiny_pair]))
        assert not any(cell.failed for cell in report.cells.values())
        fitted = sum(cell.mean_log_likelihood is not None for cell in report.cells.values())
        counts = {name: len(calls) for name, calls in bound.items()}
        assert counts == {
            "svd_reduce": 1,
            "pca_fit": 1,
            "som_fit": 1,
            "som_encode": 1,
            "fastica_fit": 1,
            "fastica_transform": 1,
            "dbscan": len(report.cells),
            "em_fit": fitted,
        }
        assert fitted >= 1
        for name, calls in bound.items():
            assert all(params[name] <= call for call in calls), name

    def test_validation_errors(self, tiny_pair):
        with pytest.raises(InvalidConfigError):
            run_benchmark(fast_config([tiny_pair], eps=0.0))
        with pytest.raises(InvalidConfigError):
            run_benchmark(fast_config([tiny_pair], min_pts=0))
        with pytest.raises(InvalidConfigError):
            run_benchmark(fast_config([tiny_pair], reducers=("svd", "umap")))
        with pytest.raises(InvalidConfigError):
            run_benchmark(BenchmarkConfig(datasets=[]))
        with pytest.raises(InvalidConfigError):
            run_benchmark(fast_config([tiny_pair], em_quality=0.0))
        with pytest.raises(InvalidConfigError):
            run_benchmark(fast_config([tiny_pair], pca_k=0))

    @pytest.mark.parametrize(
        "override",
        [{"som_width": 0}, {"som_width": 1, "som_height": 1}, {"som_width": -2, "som_height": -1},
         {"som_epochs": 0}, {"som_lr0": 0.0}, {"som_lr0": 1.5}, {"som_lr0": float("nan")},
         {"som_radius0": -1.0}, {"som_radius0": float("nan")}, {"ica_tol": 0.0},
         {"ica_tol": float("nan")}, {"ica_max_iter": 0}, {"ica_nonlinearity": "relu"},
         {"eps": float("nan")}, {"eps": float("inf")}, {"em_quality": float("nan")},
         {"em_quality": float("inf")}],
    )
    def test_reducer_and_threshold_ranges_rejected(self, tiny_pair, override):
        config = fast_config([tiny_pair], **override)
        with pytest.raises(InvalidConfigError, match=next(iter(override)).split("_")[0]):
            config.validate()

    def test_unknown_dataset_fails_before_work(self, tmp_path):
        config = fast_config([(str(tmp_path / "missing.csv"), str(tmp_path / "missing.json"))])
        with pytest.raises((DatasetParseError, SchemaError)):
            run_benchmark(config)

    def test_canonical_attribute_counts_enforced(self, tmp_path):
        # a dataset claiming a canonical name must carry its attribute count
        data = tmp_path / "fake.csv"
        data.write_text("a\n1.0\n2.0\n")
        schema = tmp_path / "fake.schema.json"
        schema.write_text(json.dumps({"name": "e-coli", "columns": [{"name": "a"}]}))
        with pytest.raises(SchemaError):
            run_benchmark(fast_config([(str(data), str(schema))]))


class TestEmitReport:
    def test_emitted_tree(self, tmp_path, tiny_pair):
        report = run_benchmark(fast_config([tiny_pair]))
        out = tmp_path / "out"
        emit_report(report, out)
        for name in ("table_attributes.tsv", "table_time_ms.tsv", "table_clusters.tsv"):
            assert (out / name).is_file()
        table = (out / "table_attributes.tsv").read_text().splitlines()
        assert len(table) == 6  # header + five reducer rows
        assert table[0].split("\t") == ["reduction", "tiny"]
        payload = json.loads((out / "report.json").read_text())
        assert payload["seed"] == 17
        assert len(payload["cells"]) == 5
        assert len(payload["config_hash"]) == 64
        points = sorted(p.name for p in (out / "points").glob("*.points"))
        assert points == [
            "tiny_fastica.points",
            "tiny_none.points",
            "tiny_pca.points",
            "tiny_som.points",
            "tiny_svd.points",
        ]
        body = (out / "points" / "tiny_svd.points").read_text().splitlines()
        assert body[0] == "x\ty\tcluster\tnoise"
        assert len(body) == 61

    def test_reemission_is_byte_identical_outside_json(self, tmp_path, tiny_pair):
        report = run_benchmark(fast_config([tiny_pair]))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        emit_report(report, out_a)
        emit_report(report, out_b)
        for rel in (
            "table_attributes.tsv",
            "table_time_ms.tsv",
            "table_clusters.tsv",
            "points/tiny_svd.points",
            "points/tiny_none.points",
        ):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        a.pop("generated_at")
        b.pop("generated_at")
        assert a == b

    def test_empty_report_headers_only(self, tmp_path):
        from redclust.benchmark import BenchmarkReport

        report = BenchmarkReport(
            cells={}, dataset_names=[], config=BenchmarkConfig(datasets=[("x", "y")]),
            normalized=True,
        )
        out = tmp_path / "empty"
        emit_report(report, out)
        lines = (out / "table_attributes.tsv").read_text().splitlines()
        assert lines[0] == "reduction"
        assert len(lines) == 6  # header + reducer labels with no data columns
        payload = json.loads((out / "report.json").read_text())
        assert any("empty" in w for w in payload["warnings"])


class TestFullBenchmark:
    def test_both_variants_and_comparisons(self, tmp_path, tiny_pair):
        out = tmp_path / "full"
        reports = run_full_benchmark(fast_config([tiny_pair]), out)
        assert set(reports) == {"normalized", "raw"}
        assert (out / "normalized" / "report.json").is_file()
        assert (out / "raw" / "report.json").is_file()
        comparison = (out / "cluster_comparison.tsv").read_text().splitlines()
        assert len(comparison) == 6  # header + 5 reducers x 1 dataset
        sweep = (out / "pca_threshold_sweep.tsv").read_text().splitlines()
        assert len(sweep) == 5  # header + 4 thresholds
        assert (out / "pca_threshold_summary.tsv").is_file()
        assert (out / "attribute_comparison.tsv").is_file()

    def test_no_normalize_runs_raw_only(self, tmp_path, tiny_pair):
        out = tmp_path / "rawonly"
        reports = run_full_benchmark(fast_config([tiny_pair], normalize=False), out)
        assert set(reports) == {"raw"}
        assert not (out / "normalized").exists()

    def test_each_dataset_loaded_once(self, monkeypatch, tmp_path, tiny_pair):
        loads = []
        load = bench.load_dataset
        monkeypatch.setattr(bench, "load_dataset", lambda *a: loads.append(a) or load(*a))
        reports = run_full_benchmark(fast_config([tiny_pair]), tmp_path / "full")
        assert len(loads) == 1
        assert [r.dataset_names for r in reports.values()] == [["tiny"], ["tiny"]]

    def test_sweep_rows(self, tiny_pair):
        ds = load_dataset(*tiny_pair)
        rows = pca_threshold_sweep([ds], fast_config([tiny_pair]))
        assert len(rows) == 4
        assert [r["threshold"] for r in rows] == [0.85, 0.90, 0.95, 0.99]
        for r in rows:
            assert 1 <= r["retained"] <= 3
            assert r["reference"] is None  # tiny is not canonical


class TestModelIo:
    def test_pca_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        model = pca_fit(rng.normal(size=(30, 4)), k=2)
        path = tmp_path / "pca.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.basis, model.basis)
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.eigenvalues, model.eigenvalues)
        resaved = tmp_path / "pca_again.json"
        save_model(back, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_som_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = som_fit(rng.normal(size=(20, 3)), width=3, height=2, epochs=4, seed=5)
        path = tmp_path / "som.json"
        save_model(grid, path)
        back = load_model(path)
        assert np.array_equal(back.codebook, grid.codebook)
        assert back.qe_log == grid.qe_log
        assert (back.width, back.height) == (3, 2)
        resaved = tmp_path / "som_again.json"
        save_model(back, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_ica_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        model = fastica_fit(rng.uniform(size=(100, 3)), seed=7)
        path = tmp_path / "ica.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.unmixing, model.unmixing)
        assert np.array_equal(back.whitening, model.whitening)
        assert np.array_equal(back.mean, model.mean)
        assert back.nonlinearity == model.nonlinearity
        assert back.converged == model.converged
        assert back.n_iter == model.n_iter
        resaved = tmp_path / "ica_again.json"
        save_model(back, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "payload, named",
        [
            ([], "JSON object"),
            ({"basis": [[1.0]]}, "unknown model type None"),
            ({"type": "umap"}, "'umap'"),
            ({"type": "pca", "basis": [[1.0]]}, "'mean'"),
            ({"type": "pca", "basis": [[1.0]], "mean": [0.0], "eigenvalues": [1.0],
              "scale": 2.0}, "'scale'"),
            ({"type": "som", "width": "wide", "height": 1, "codebook": [[0.0]],
              "qe_log": []}, "'width'"),
        ],
    )
    def test_malformed_model_rejected(self, tmp_path, payload, named):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidInputError) as info:
            load_model(path)
        assert str(path) in str(info.value)
        assert named in str(info.value)
