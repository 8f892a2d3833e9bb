import argparse
import dataclasses
import json
import re

import numpy as np
import pytest

import redclust.benchmark as bench
import redclust.cli as cli
from redclust.benchmark import BenchmarkConfig, fit_reducer
from redclust.cli import build_parser, main
from redclust.dataset import load_dataset, normalize
from redclust.model_io import load_model


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_table(directory, name, header, rows, kinds=None, schema_name=None):
    """Write ``rows`` as CSV plus its schema (numeric unless ``kinds`` says); return both paths."""
    data = directory / f"{name}.csv"
    data.write_text("\n".join(",".join(map(str, row)) for row in [header, *rows]) + "\n")
    kinds = kinds or ["numeric"] * len(header)
    schema = directory / f"{name}.schema.json"
    schema.write_text(json.dumps({
        "name": name if schema_name is None else schema_name,
        "columns": [{"name": n, "kind": k} for n, k in zip(header, kinds)],
    }))
    return str(data), str(schema)


MIXED_ROWS = [[1, 2, "x"], [1.5, 2.5, "y"], [3, 1, "x"], [2, 2, "z"], [0, 1, "y"]]


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

    @pytest.mark.parametrize("command", ["reduce", "cluster", "bench"])
    @pytest.mark.parametrize("flags, expected", [([], ["tiny"]), (["--no-normalize"], [])])
    def test_every_subcommand_normalizes_as_the_bench_grid(
        self, capsys, monkeypatch, tmp_path, tiny_pair, command, flags, expected
    ):
        # the working table is decided in one place, benchmark._working_tables
        calls = []
        norm = bench.normalize
        monkeypatch.setattr(bench, "normalize", lambda ds: calls.append(ds.name) or norm(ds))
        code, _, err = run(
            [command, "--dataset", tiny_pair[0], "--schema", tiny_pair[1], "--reducer", "svd",
             *flags, "--out", str(tmp_path / "out")],
            capsys,
        )
        assert code == 0, err
        assert calls == expected


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
        work = normalize(load_dataset(*tiny_pair))
        expected = fit_reducer("pca", work, config, config.seed)[1].data
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

    def test_none_writes_every_regular_column_as_bench_counts_it(self, capsys, tmp_path):
        pair = write_table(
            tmp_path, "mixed", ["a", "b", "c"], MIXED_ROWS, kinds=["numeric", "numeric", "nominal"]
        )
        out = tmp_path / "red"
        code, stdout, err = run(
            ["reduce", "--dataset", pair[0], "--schema", pair[1],
             "--reducer", "none", "--no-normalize", "--out", str(out)],
            capsys,
        )
        assert code == 0, err
        assert "3 -> 3" in stdout
        lines = (out / "mixed_none_reduced.csv").read_text().splitlines()
        assert lines[0] == "c1,c2,c3"
        # numeric cells as read, nominal cells as sorted-level codes (x, y, z -> 0, 1, 2)
        assert [line.split(",")[2] for line in lines[1:]] == ["0.0", "1.0", "0.0", "2.0", "1.0"]
        assert lines[1] == "1.0,2.0,0.0"

        code, _, err = run(
            ["bench", "--dataset", pair[0], "--schema", pair[1],
             "--reducer", "none", "--no-normalize", "--out", str(tmp_path / "bench")],
            capsys,
        )
        assert code == 0, err
        report = json.loads((tmp_path / "bench" / "raw" / "report.json").read_text())
        assert [c["attribute_count"] for c in report["cells"]] == [3]

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

    def test_none_on_all_nominal_table(self, capsys, tmp_path):
        rows = [["x", "p"], ["y", "q"], ["x", "p"], ["x", "p"], ["x", "q"], ["x", "p"]]
        pair = write_table(tmp_path, "nominal", ["c", "d"], rows, kinds=["nominal"] * 2)
        out = tmp_path / "cl"
        code, stdout, err = run(
            ["cluster", "--dataset", pair[0], "--schema", pair[1], "--out", str(out)],
            capsys,
        )
        assert code == 0, err
        summary = json.loads((out / "nominal_clustering.json").read_text())
        assert summary["performance_1_clusters"] == 1
        assert summary["noise_count"] == 0

    @pytest.mark.parametrize("command", ["cluster", "bench"])
    def test_name_with_a_path_is_rejected(self, capsys, tmp_path, tiny_pair, command):
        rows = np.loadtxt(tiny_pair[0], delimiter=",", skiprows=1).tolist()
        pair = write_table(tmp_path, "t", ["x1", "x2", "x3"], rows, schema_name="../escaped")
        out = tmp_path / "out" / "cl"
        code, stdout, err = run(
            [command, "--dataset", pair[0], "--schema", pair[1], "--reducer", "svd",
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'name'" in err
        assert not (tmp_path / "out").exists()  # neither --out nor its parent got a file
        assert stdout == ""


# the arguments that name inputs, outputs or actions rather than a BenchmarkConfig field
NON_CONFIG_DESTS = {
    "command", "dataset", "schema", "config", "out", "reducer", "k", "save_model",
    "timing_check", "help",
}


class TestConfigPrecedence:
    def test_every_flag_dest_is_a_config_field(self):
        # a flag sets the config field its dest names; merge_config keeps no map of its own
        config_fields = {f.name for f in dataclasses.fields(BenchmarkConfig)}
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for name, sub in [("redclust", parser), *subparsers.choices.items()]:
            for action in sub._actions:
                assert action.dest in config_fields | NON_CONFIG_DESTS, (name, action.dest)

    @pytest.mark.parametrize(
        "flags, field, file_value, flag_value",
        [
            (["--eps", "3.0"], "eps", 2.5, 3.0),
            (["--minpts", "7"], "min_pts", 3, 7),
            (["--variance-threshold", "0.9"], "pca_variance_threshold", 0.5, 0.9),
            (["--no-normalize"], "normalize", True, False),
            (["--seed", "5"], "seed", 3, 5),
            (["--em-k", "3"], "em_k", 4, 3),
            (["--em-runs", "2"], "em_runs", 4, 2),
            (["--em-steps", "7"], "em_steps", 50, 7),
            (["--em-quality", "1e-06"], "em_quality", 1e-3, 1e-6),
        ],
    )
    def test_each_flag_overrides_its_config_file_key(
        self, capsys, monkeypatch, tiny_pair, tmp_path, flags, field, file_value, flag_value
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: file_value}))
        configs = []
        monkeypatch.setattr(cli, "run_full_benchmark", lambda c, out, ds: configs.append(c) or {})
        argv = ["bench", "--dataset", tiny_pair[0], "--schema", tiny_pair[1], "--config", str(cfg),
                "--out", str(tmp_path / "out")]
        for extra in ([], flags):
            code, _, err = run(argv + extra, capsys)
            assert code == 0, err
        assert [getattr(c, field) for c in configs] == [file_value, flag_value]

    def test_cluster_flags_reach_the_summary(self, capsys, tiny_pair, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_pts": 3, "normalize": True,
                                   "pca_variance_threshold": 0.5}))
        out = tmp_path / "c"
        code, _, err = run(
            ["cluster", "--dataset", tiny_pair[0], "--schema", tiny_pair[1], "--config", str(cfg),
             "--reducer", "pca", "--minpts", "5", "--variance-threshold", "0.9",
             "--no-normalize", "--out", str(out)],
            capsys,
        )
        assert code == 0, err
        summary = json.loads((out / "tiny_clustering.json").read_text())
        assert (summary["minpts"], summary["normalized"]) == (5, False)

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

    def test_no_normalize_comparison_has_no_normalized_counts(self, capsys, tiny_pair, tmp_path):
        out = tmp_path / "bench"
        code, _, err = run(
            ["bench", "--dataset", tiny_pair[0], "--schema", tiny_pair[1], "--reducer", "svd",
             "--reducer", "none", "--no-normalize", "--out", str(out)],
            capsys,
        )
        assert code == 0, err
        header, *rows = [line.split("\t") for line in
                         (out / "cluster_comparison.tsv").read_text().splitlines()]
        normalized, raw = header.index("observed_normalized"), header.index("observed_raw")
        assert [row[normalized] for row in rows] == ["-", "-"]
        assert all(row[raw].isdigit() for row in rows)

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

    def test_duplicate_dataset_names_rejected(self, capsys, tiny_pair, tmp_path):
        rows = np.loadtxt(tiny_pair[0], delimiter=",", skiprows=1).tolist()
        other = write_table(tmp_path, "other", ["x1", "x2", "x3"], rows[:30], schema_name="tiny")
        out = tmp_path / "bench"
        code, stdout, err = run(
            ["bench", "--dataset", tiny_pair[0], "--schema", tiny_pair[1],
             "--dataset", other[0], "--schema", other[1], "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'tiny'" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "header, rows, kinds",
        [
            (["a", "b"], [[1, 2]], None),
            (["c", "d"], [["x", "p"], ["y", "q"], ["x", "p"]], ["nominal", "nominal"]),
        ],
        ids=["one-row", "no-numeric-column"],
    )
    def test_sweep_failure_is_error_rows(self, capsys, tmp_path, header, rows, kinds):
        pair = write_table(tmp_path, "odd", header, rows, kinds=kinds)
        out = tmp_path / "bench"
        code, stdout, err = run(
            ["bench", "--dataset", pair[0], "--schema", pair[1], "--out", str(out)], capsys
        )
        assert code == 0, err
        sweep = [line.split("\t") for line in
                 (out / "pca_threshold_sweep.tsv").read_text().splitlines()[1:]]
        assert [row[0] for row in sweep] == ["odd"] * 4
        assert all(row[2] == "ERROR" and row[4] == "false" for row in sweep)
        assert (out / "pca_threshold_summary.tsv").read_text() == (
            "dataset\tmatching_thresholds\nodd\tnone\n"
        )
        assert (out / "attribute_comparison.tsv").is_file()
        assert (out / "cluster_comparison.tsv").is_file()
        assert "reports written under" in stdout

    def test_timing_check(self, capsys, tiny_pair, tmp_path):
        code, stdout, err = run(
            ["bench", "--dataset", tiny_pair[0], "--schema", tiny_pair[1], "--reducer", "svd",
             "--timing-check", "--out", str(tmp_path / "bench")],
            capsys,
        )
        assert code == 0, err
        assert re.search(
            r"^paired DBSCAN timing on tiny: svd\(k=1\) median \d+\.\d ms "
            r"vs unreduced \d+\.\d ms$",
            stdout,
            re.MULTILINE,
        )

    def test_none_cell_of_an_all_nominal_table_agrees_with_cluster(self, capsys, tmp_path):
        data = tmp_path / "nom.csv"
        data.write_text("c1,c2\na,x\na,x\na,x\nb,y\nb,y\nb,y\nc,z\n")
        schema = tmp_path / "nom.schema.json"
        schema.write_text(json.dumps(
            {"name": "nom", "columns": [{"name": n, "kind": "nominal"} for n in ("c1", "c2")]}
        ))
        common = ["--dataset", str(data), "--schema", str(schema), "--minpts", "2"]
        code, _, err = run(["cluster", *common, "--out", str(tmp_path / "c")], capsys)
        assert code == 0, err
        summary = json.loads((tmp_path / "c" / "nom_clustering.json").read_text())
        assert (summary["performance_1_clusters"], summary["noise_count"]) == (2, 1)

        out = tmp_path / "b"
        code, _, err = run(["bench", *common, "--reducer", "none", "--reducer", "svd",
                            "--out", str(out)], capsys)
        assert code == 0, err
        for variant in ("normalized", "raw"):
            cells = json.loads((out / variant / "report.json").read_text())["cells"]
            none, svd = sorted(cells, key=lambda c: c["reducer"])
            assert none["error"] is None
            for key in ("performance_1_clusters", "noise_count"):
                assert none[key] == summary[key]
            assert none["em_note"] == "EM skipped: the table has no numeric columns"
            assert "has no numeric regular columns" in svd["error"]
            # the points are the level codes DBSCAN ran on
            assert (out / variant / "points" / "nom_none.points").read_text().splitlines()[1:] == (
                ["0.0\t0.0\t0\t0"] * 3 + ["1.0\t1.0\t1\t0"] * 3 + ["2.0\t2.0\t-1\t1"]
            )

    def test_timing_check_loads_the_table_once(self, monkeypatch, capsys, tiny_pair, tmp_path):
        # the timing check reads the table the grid ran on instead of loading it again
        loads = []
        load = bench.load_dataset

        def counting(*a):
            loads.append(a)
            return load(*a)

        monkeypatch.setattr(bench, "load_dataset", counting)
        monkeypatch.setattr(cli, "load_dataset", counting)
        code, stdout, err = run(
            ["bench", "--dataset", tiny_pair[0], "--schema", tiny_pair[1], "--reducer", "svd",
             "--timing-check", "--out", str(tmp_path / "bench")],
            capsys,
        )
        assert code == 0, err
        assert "paired DBSCAN timing on tiny" in stdout
        assert len(loads) == 1

    def test_mismatched_dataset_schema_counts(self, capsys, tiny_pair, tmp_path):
        code, _, err = run(
            ["bench", "--dataset", tiny_pair[0], "--dataset", tiny_pair[0],
             "--schema", tiny_pair[1], "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "--schema" in err
