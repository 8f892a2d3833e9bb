import json

import numpy as np
import pytest

from redclust.benchmark import BenchmarkConfig, fit_reducer
from redclust.cli import main
from redclust.dataset import load_dataset, normalize
from redclust.model_io import load_model


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_arguments_usage(self, capsys):
        code, _, err = run([], capsys)
        assert code != 0

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(["--help"], capsys)
        assert code == 0

    def test_unknown_flag(self, capsys, tiny_pair):
        code, _, _ = run(["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
                          "--frobnicate"], capsys)
        assert code != 0

    def test_eps_zero_names_flag(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "never"
        code, _, err = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--eps", "0", "--out", str(out)],
            capsys,
        )
        assert code != 0
        assert "eps" in err
        assert not out.exists()  # no partial output files

    @pytest.mark.parametrize("command", ["reduce", "cluster", "bench"])
    def test_k_zero_names_flag(self, capsys, tiny_pair, tmp_path, command):
        out = tmp_path / "never"
        code, _, err = run(
            [command, "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--k", "0", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert "--k must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reduce", "cluster", "bench"])
    def test_out_is_a_file(self, capsys, tiny_pair, tmp_path, command):
        out = tmp_path / "taken"
        out.write_text("")
        code, stdout, err = run(
            [command, "--dataset", tiny_pair[0], "--schema", tiny_pair[1], "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
        assert str(out) in err
        assert out.read_text() == ""

    def test_blocked_output_file_is_one_error_line(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "bench"
        blocked = out / "attribute_comparison.tsv"
        blocked.mkdir(parents=True)
        code, stdout, err = run(
            ["bench", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "svd", "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
        assert str(blocked) in err

    @pytest.mark.parametrize("command", ["reduce", "cluster"])
    def test_repeated_reducer_rejected(self, capsys, tiny_pair, tmp_path, command):
        out = tmp_path / "never"
        code, _, err = run(
            [command, "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "svd", "--reducer", "pca", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ") and "--reducer" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reduce", "cluster", "bench"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_one_usage_line(self, capsys, tiny_pair, tmp_path, command, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -5}))
        seed_args = ["--seed", "-5"] if source == "flag" else ["--config", str(cfg)]
        out = tmp_path / "never"
        code, stdout, err = run(
            [command, "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "som", *seed_args, "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert err == "error: seed must be >= 0, got -5\n"
        assert not out.exists()

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            ["cluster", "--dataset", str(tmp_path / "nope.csv"),
             "--schema", str(tmp_path / "nope.json")],
            capsys,
        )
        assert code != 0
        assert "no such file" in err

    def test_malformed_schema_is_one_error_line(self, capsys, tiny_pair, tmp_path):
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps({"name": "tiny", "columns": 5}))
        code, stdout, err = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", str(schema),
             "--out", str(tmp_path / "out")],
            capsys,
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
        assert str(schema) in err and "'columns'" in err


class TestReduce:
    def test_writes_reduced_file(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "red"
        code, stdout, _ = run(
            ["reduce", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "svd", "--k", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        path = out / "tiny_svd_reduced.csv"
        assert path.is_file()
        lines = path.read_text().splitlines()
        assert lines[0] == "c1"
        assert len(lines) == 61
        assert "8 -> 1" in stdout or "3 -> 1" in stdout

    def test_csv_cells_are_the_reduced_floats(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "red"
        code, _, _ = run(
            ["reduce", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "pca", "--k", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = (out / "tiny_pca_reduced.csv").read_text().splitlines()[1:]
        written = np.array([[float(v) for v in row.split(",")] for row in rows])
        config = BenchmarkConfig(pca_k=2)
        matrix = normalize(load_dataset(*tiny_pair)).numeric_matrix()
        expected = fit_reducer("pca", matrix, config, config.seed)[1].data
        assert written.shape == expected.shape
        assert written.tobytes() == expected.tobytes()  # bit for bit, signed zeros included

    def test_save_model_roundtrip(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "red"
        model_path = tmp_path / "model.json"
        code, _, _ = run(
            ["reduce", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "pca", "--out", str(out), "--save-model", str(model_path)],
            capsys,
        )
        assert code == 0
        model = load_model(model_path)
        assert model.basis.shape[0] == 3

    def test_config_pca_k_honoured(self, capsys, tiny_pair, tmp_path):
        # the 0.95 variance rule keeps one axis of the two blobs; pca_k overrides it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pca_k": 2}))
        out = tmp_path / "red"
        code, stdout, _ = run(
            ["reduce", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "pca", "--config", str(cfg), "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert (out / "tiny_pca_reduced.csv").read_text().splitlines()[0] == "c1,c2"
        assert "3 -> 2" in stdout

    @pytest.mark.parametrize("reducer", ["svd", "none"])
    def test_save_model_rejected_without_model(self, capsys, tiny_pair, tmp_path, reducer):
        code, _, err = run(
            ["reduce", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", reducer, "--save-model", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 2
        assert "save-model" in err
        assert reducer in err
        assert not (tmp_path / "m.json").exists()

    def test_fastica_on_wide_table(self, capsys, tmp_path):
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
        out = tmp_path / "red"
        code, stdout, err = run(
            ["reduce", "--dataset", str(data), "--schema", str(schema),
             "--reducer", "fastica", "--out", str(out)],
            capsys,
        )
        assert code == 0, err
        lines = (out / "wide_fastica_reduced.csv").read_text().splitlines()
        assert lines[0].split(",") == [f"c{i + 1}" for i in range(39)]
        assert len(lines) == 41
        assert all(len(line.split(",")) == 39 for line in lines[1:])
        assert "60 -> 39" in stdout


class TestCluster:
    def test_writes_assignment_and_summary(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "cl"
        code, stdout, _ = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assignment = (out / "tiny_assignment.tsv").read_text().splitlines()
        assert assignment[0] == "row\tcluster\trole"
        assert len(assignment) == 61
        summary = json.loads((out / "tiny_clustering.json").read_text())
        assert summary["performance_1_clusters"] == 2
        assert summary["eps"] == 1.0
        assert summary["minpts"] == 5
        assert "2 clusters" in stdout

    def test_reduced_clustering(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "cl2"
        code, _, _ = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "svd", "--k", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        summary = json.loads((out / "tiny_clustering.json").read_text())
        assert summary["reducer"] == "svd"
        assert summary["performance_1_clusters"] == 2


class TestConfigPrecedence:
    def test_config_file_overrides_defaults(self, capsys, tiny_pair, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 2.5}))
        out = tmp_path / "c1"
        code, _, _ = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--config", str(cfg), "--out", str(out)],
            capsys,
        )
        assert code == 0
        summary = json.loads((out / "tiny_clustering.json").read_text())
        assert summary["eps"] == 2.5

    def test_flag_overrides_config_file(self, capsys, tiny_pair, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 2.5}))
        out = tmp_path / "c2"
        code, _, _ = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--config", str(cfg), "--eps", "3.0", "--out", str(out)],
            capsys,
        )
        assert code == 0
        summary = json.loads((out / "tiny_clustering.json").read_text())
        assert summary["eps"] == 3.0

    def test_unknown_config_key_rejected(self, capsys, tiny_pair, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epzilon": 1}))
        code, _, err = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert "epzilon" in err

    @pytest.mark.parametrize(
        "entry",
        [{"eps": "1"}, {"min_pts": 5.0}, {"em_k": True}, {"eps": False}, {"seed": None},
         {"normalize": 1}, {"ica_nonlinearity": 3}],
    )
    def test_mistyped_config_value_rejected(self, capsys, tiny_pair, tmp_path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        out = tmp_path / "never"
        code, _, err = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--config", str(cfg), "--out", str(out)],
            capsys,
        )
        assert code == 2
        (key,) = entry
        assert err.startswith("error:") and err.count("\n") == 1 and key in err
        assert not out.exists()

    def test_non_object_config_rejected(self, capsys, tiny_pair, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        code, _, err = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert "JSON object" in err

    def test_int_accepted_for_float_and_null_for_optional(self, capsys, tiny_pair, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 2, "pca_k": None, "som_radius0": None}))
        out = tmp_path / "c3"
        code, _, _ = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--config", str(cfg), "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert json.loads((out / "tiny_clustering.json").read_text())["eps"] == 2

    @pytest.mark.parametrize(
        "text",
        ['{"som_width": 0}', '{"som_epochs": 0}', '{"som_lr0": 2}', '{"som_radius0": -1}',
         '{"ica_tol": 0}', '{"ica_max_iter": 0}', '{"ica_nonlinearity": "relu"}',
         '{"eps": NaN}', '{"em_quality": Infinity}', '{"eps": 1' + "0" * 400 + "}",
         '{"eps": 1' + "0" * 5000 + "}"],
    )
    def test_out_of_range_config_is_usage_error(self, capsys, tiny_pair, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "never"
        code, _, err = run(
            ["bench", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "som", "--config", str(cfg), "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        if "som_lr0" in text:  # the batch map has no learning rate: an unknown key, named
            assert "unknown config file keys: ['som_lr0']" in err
        assert not out.exists()

    def test_nan_eps_flag_is_usage_error(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "never"
        code, _, err = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--eps", "nan", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert "eps" in err
        assert not out.exists()

    def test_config_pca_k_zero_is_usage_error(self, capsys, tiny_pair, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pca_k": 0}))
        code, _, err = run(
            ["reduce", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "pca", "--config", str(cfg), "--out", str(tmp_path / "never")],
            capsys,
        )
        assert code == 2
        assert "pca_k" in err


class TestBench:
    def test_bench_tree(self, capsys, tiny_pair, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"som_epochs": 5, "som_width": 4, "som_height": 4,
                                   "em_runs": 2, "em_steps": 20, "ica_max_iter": 40}))
        out = tmp_path / "bench"
        code, stdout, _ = run(
            ["bench", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--config", str(cfg), "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert (out / "normalized" / "table_clusters.tsv").is_file()
        assert (out / "raw" / "table_clusters.tsv").is_file()
        assert (out / "cluster_comparison.tsv").is_file()
        assert (out / "pca_threshold_sweep.tsv").is_file()
        assert "normalized: 5 cells" in stdout

    def test_bench_reducer_flag_restricts_grid(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "bench"
        code, stdout, _ = run(
            ["bench", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "pca", "--out", str(out)],
            capsys,
        )
        assert code == 0
        report = json.loads((out / "normalized" / "report.json").read_text())
        assert [c["reducer"] for c in report["cells"]] == ["pca"]
        assert "normalized: 1 cells" in stdout

    def test_repeated_reducer_runs_each_once_in_grid_order(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "bench"
        code, stdout, _ = run(
            ["bench", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "none", "--reducer", "svd", "--reducer", "pca", "--reducer", "svd",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        for variant in ("normalized", "raw"):
            report = json.loads((out / variant / "report.json").read_text())
            assert [c["reducer"] for c in report["cells"]] == ["svd", "pca", "none"]
        assert "normalized: 3 cells" in stdout

    def test_k_sets_pca_dimensions(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "bench"
        code, _, _ = run(
            ["bench", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--reducer", "pca", "--k", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        for variant in ("normalized", "raw"):
            report = json.loads((out / variant / "report.json").read_text())
            assert [c["attribute_count"] for c in report["cells"]] == [2]

    def test_mismatched_dataset_schema_counts(self, capsys, tiny_pair, tmp_path):
        code, _, err = run(
            ["bench", "--dataset", tiny_pair[0], "--dataset", tiny_pair[0],
             "--schema", tiny_pair[1], "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "--schema" in err
