import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

import redclust.benchmark as bench
from redclust.benchmark import (
    BenchmarkConfig,
    emit_report,
    load_config_datasets,
    pca_threshold_sweep,
    run_benchmark,
    run_full_benchmark,
    write_comparison_files,
)
from redclust.dataset import load_dataset, normalize
from redclust.errors import (
    DatasetParseError,
    InvalidConfigError,
    InvalidInputError,
    SchemaError,
)
from redclust.model_io import load_model, model_from_dict, model_to_dict, save_model
from redclust.reducers import fastica_fit, pca_fit, som_fit
from redclust.reference import ROW_LABELS


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

    @pytest.mark.parametrize("normalized", [True, False])
    def test_loaded_datasets_give_the_configs_grid(self, tiny_pair, tmp_path, normalized):
        # run_benchmark normalizes given tables itself, so they cannot disagree with the flag
        config = fast_config([tiny_pair], normalize=normalized, reducers=("pca", "none"))

        def observed(report):
            out = {}
            for key, cell in report.cells.items():
                payload = bench._cell_payload(cell)
                for timing in ("reduce_ms", "cluster_ms", "total_ms"):
                    payload.pop(timing)
                out[key] = (payload, cell.points, cell.spectrum.tolist() if key[1] == "pca" else None)
            return out

        given = run_benchmark(config, load_config_datasets(config))
        assert observed(given) == observed(run_benchmark(config))
        ds = load_dataset(*tiny_pair)
        work = normalize(ds) if normalized else ds
        assert [p[0] for p in given.cell("tiny", "none").points] == work.values[0].tolist()
        emit_report(given, tmp_path)
        assert json.loads((tmp_path / "report.json").read_text())["normalized"] is normalized

    @pytest.mark.parametrize(
        "override",
        [{"som_width": 0}, {"som_width": 1, "som_height": 1}, {"som_width": -2, "som_height": -1},
         {"som_epochs": 0}, {"som_radius0": -1.0}, {"som_radius0": float("nan")}, {"ica_tol": 0.0},
         {"ica_tol": float("nan")}, {"ica_max_iter": 0}, {"ica_nonlinearity": "relu"},
         {"eps": float("nan")}, {"eps": float("inf")}, {"em_quality": float("nan")},
         {"em_quality": float("inf")}, {"som_radius0": float("inf")}],
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
            cells={}, dataset_names=[], config=BenchmarkConfig(datasets=[("x", "y")])
        )
        out = tmp_path / "empty"
        emit_report(report, out)
        lines = (out / "table_attributes.tsv").read_text().splitlines()
        assert lines[0] == "reduction"
        assert len(lines) == 6  # header + reducer labels with no data columns
        payload = json.loads((out / "report.json").read_text())
        assert any("empty" in w for w in payload["warnings"])
        assert (out / "points").is_dir()


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

    def test_each_table_normalized_once(self, monkeypatch, tmp_path, tiny_pair):
        # the PCA sweep reads the normalized grid's tables instead of normalizing again
        calls = []
        norm = bench.normalize
        monkeypatch.setattr(bench, "normalize", lambda ds: calls.append(ds.name) or norm(ds))
        run_full_benchmark(fast_config([tiny_pair]), tmp_path / "full")
        assert calls == ["tiny"]

    def test_sweep_rows(self, tiny_pair):
        report = run_benchmark(fast_config([tiny_pair], reducers=("pca",)))
        rows = pca_threshold_sweep(report)
        assert len(rows) == 4
        assert [r["threshold"] for r in rows] == [0.85, 0.90, 0.95, 0.99]
        for r in rows:
            assert 1 <= r["retained"] <= 3
            assert r["reference"] is None  # tiny is not canonical

    @pytest.mark.parametrize("normalized", [True, False])
    def test_sweep_matches_per_threshold_fits(self, canonical_pairs, normalized):
        datasets = [load_dataset(*pair) for pair in canonical_pairs]
        tables = [normalize(ds) if normalized else ds for ds in datasets]
        config = BenchmarkConfig(
            datasets=list(canonical_pairs), reducers=("pca",), normalize=normalized
        )
        rows = pca_threshold_sweep(run_benchmark(config, datasets))
        assert len(rows) == 4 * len(datasets)
        matrices = {work.name: work.numeric_matrix() for work in tables}
        for r in rows:
            fitted = pca_fit(matrices[r["dataset"]], variance_threshold=r["threshold"])
            assert r["retained"] == fitted.retained

    def test_pca_fitted_once_per_pca_cell(self, monkeypatch, tmp_path, tiny_pair):
        # the sweep reads the grid cells' spectra instead of fitting again
        calls = []
        fit = bench.pca_fit
        monkeypatch.setattr(bench, "pca_fit", lambda *a, **kw: calls.append(a) or fit(*a, **kw))
        reports = run_full_benchmark(fast_config([tiny_pair]), tmp_path / "full")
        pca_cells = [c for r in reports.values() for c in r.cells.values() if c.reducer == "pca"]
        assert len(pca_cells) == 2
        assert len(calls) == len(pca_cells)

    def test_grid_without_pca_writes_header_only_sweep(self, tmp_path, tiny_pair):
        out = tmp_path / "full"
        run_full_benchmark(fast_config([tiny_pair], reducers=("svd", "none")), out)
        assert (out / "pca_threshold_sweep.tsv").read_text() == (
            "dataset\tthreshold\tretained\treference\tmatch\n"
        )
        assert (out / "pca_threshold_summary.tsv").read_text() == "dataset\tmatching_thresholds\n"

    def test_sweep_keeps_counts_when_dbscan_fails(self, monkeypatch, tmp_path, tiny_pair):
        # the spectrum is stored when the fit returns, before DBSCAN runs
        def broken(*args, **kwargs):
            raise RuntimeError("dbscan broke")

        monkeypatch.setattr(bench, "dbscan", broken)
        out = tmp_path / "full"
        reports = run_full_benchmark(fast_config([tiny_pair], reducers=("pca",)), out)
        assert "dbscan broke" in reports["normalized"].cell("tiny", "pca").error
        matrix = normalize(load_dataset(*tiny_pair)).numeric_matrix()
        thresholds = (0.85, 0.90, 0.95, 0.99)
        expected = [pca_fit(matrix, variance_threshold=t).retained for t in thresholds]
        sweep = [line.split("\t") for line in
                 (out / "pca_threshold_sweep.tsv").read_text().splitlines()[1:]]
        assert [row[2] for row in sweep] == [str(k) for k in expected]


    def test_failed_cell_reads_error_in_every_table(self, monkeypatch, tmp_path, tiny_pair):
        def broken(*args, **kwargs):
            raise RuntimeError("svd broke")

        monkeypatch.setattr(bench, "svd_reduce", broken)
        out = tmp_path / "full"
        run_full_benchmark(fast_config([tiny_pair], reducers=("svd", "none")), out)
        for variant in ("normalized", "raw"):
            for table in ("table_attributes.tsv", "table_time_ms.tsv", "table_clusters.tsv"):
                _, svd_row, none_row = tsv(out / variant / table)
                assert svd_row == [ROW_LABELS["svd"], "ERROR"]
                assert none_row[1] != "ERROR"
        _, svd_row, none_row = tsv(out / "attribute_comparison.tsv")
        assert svd_row[:4] == ["tiny", "svd", "", "ERROR"]
        assert none_row[3] == "3"
        _, svd_row, none_row = tsv(out / "cluster_comparison.tsv")
        assert svd_row[3:5] == ["ERROR", "ERROR"]
        assert "ERROR" not in none_row

    def test_sweep_lists_datasets_in_table_order(self, tmp_path, tiny_pair, canonical_pairs):
        # canonical datasets first, as in the tables, whatever order they were given in
        out = tmp_path / "full"
        run_full_benchmark(fast_config([tiny_pair, canonical_pairs[0]], reducers=("pca",)), out)
        header = tsv(out / "normalized" / "table_attributes.tsv")[0]
        assert header == ["reduction", "E-coli", "tiny"]
        assert [row[0] for row in tsv(out / "attribute_comparison.tsv")[1:]] == ["e-coli", "tiny"]
        sweep = [row[0] for row in tsv(out / "pca_threshold_sweep.tsv")[1:]]
        assert sweep == ["e-coli"] * 4 + ["tiny"] * 4
        assert [row[0] for row in tsv(out / "pca_threshold_summary.tsv")[1:]] == ["e-coli", "tiny"]


def tsv(path):
    return [line.split("\t") for line in path.read_text().splitlines()]


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


def fitted_model_dicts():
    """A valid saved-model dict for each model type, keyed by type."""
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(40, 3))
    models = [pca_fit(x, k=2), som_fit(x, width=3, height=2, epochs=2, seed=1),
              fastica_fit(x, seed=2)]
    return {d["type"]: d for d in map(model_to_dict, models)}


class TestModelFieldChecks:
    """model_from_dict checks each field's JSON type and the arrays' shapes; it coerces nothing."""

    @pytest.mark.parametrize(
        "kind, field, value, named",
        [
            ("fastica", "converged", "false", "true or false"),
            ("fastica", "converged", 0, "true or false"),
            ("fastica", "n_iter", 7.9, "an integer"),
            ("fastica", "n_iter", True, "an integer"),
            ("fastica", "nonlinearity", 12, "a string"),
            ("fastica", "nonlinearity", "sine", "'cube', 'tanh'"),
            ("som", "width", 2.7, "an integer"),
            ("som", "height", True, "an integer"),
            ("som", "width", -3, "grid sides"),
            ("som", "qe_log", "abc", "a list of numbers"),
            ("som", "qe_log", [0.5, "x"], "a list of numbers"),
            ("pca", "mean", "abc", "a list"),
            ("pca", "basis", [[1.0, 0.0], [0.0]], "bad field 'basis'"),
        ],
    )
    def test_wrong_json_type_rejected(self, kind, field, value, named):
        payload = dict(fitted_model_dicts()[kind], **{field: value})
        with pytest.raises(InvalidInputError) as info:
            model_from_dict(payload)
        assert named in str(info.value)

    @pytest.mark.parametrize(
        "kind, field, trim",
        [
            ("som", "codebook", lambda a: a[:-1]),  # 5 rows for a 3 x 2 grid
            ("som", "codebook", lambda a: a + a),  # 12 rows for a 3 x 2 grid
            ("som", "codebook", lambda a: a[0]),  # one row, not a table
            ("pca", "mean", lambda a: a[:-1]),
            ("pca", "eigenvalues", lambda a: a + a),
            ("pca", "basis", lambda a: a[:-1]),
            ("fastica", "unmixing", lambda a: [row[:-1] for row in a]),
            ("fastica", "whitening", lambda a: [row[:-1] for row in a]),
            ("fastica", "mean", lambda a: a[:-1]),
        ],
    )
    def test_mismatched_shapes_rejected(self, kind, field, trim):
        payload = fitted_model_dicts()[kind]
        payload[field] = trim(payload[field])
        # the first field whose shape disagrees with those before it is named
        with pytest.raises(InvalidInputError, match="has shape"):
            model_from_dict(payload)

    @pytest.mark.parametrize("kind, field", [("som", "codebook"), ("pca", "basis"),
                                             ("fastica", "unmixing")])
    def test_non_finite_array_rejected(self, kind, field):
        # json reads NaN and Infinity; one NaN codebook cell drew every row to its node
        payload = fitted_model_dicts()[kind]
        payload[field][0][0] = float("nan")
        with pytest.raises(InvalidInputError, match="non-finite"):
            model_from_dict(json.loads(json.dumps(payload)))
