import importlib.util
import json
from pathlib import Path

import pytest

from redclust.cli import main as cli_main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def two_runs(tiny_pair, tmp_path):
    """Two same-seed bench trees over one small table."""
    data, schema = tiny_pair
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["bench", "--out", str(out), "--seed", "17",
                         "--dataset", data, "--schema", schema])
        assert code == 0
        outs.append(out)
    return outs


def edit_report(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_same_seed_runs_match(compare_outputs, two_runs, capsys):
    a, b = two_runs
    assert compare_outputs.compare(a, b) == []
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "no differences\n"


def test_timing_fields_ignored(compare_outputs, two_runs):
    a, b = two_runs

    def retime(payload):
        payload["generated_at"] = "1970-01-01T00:00:00+00:00"
        for cell in payload["cells"]:
            for key in ("reduce_ms", "cluster_ms", "total_ms"):
                cell[key] = 123456

    edit_report(b / "normalized" / "report.json", retime)
    (b / "raw" / "table_time_ms.tsv").write_text("anything\n")
    assert compare_outputs.compare(a, b) == []


def test_every_other_difference_reported(compare_outputs, two_runs, capsys):
    a, b = two_runs
    points = next((b / "normalized" / "points").iterdir())
    points.write_bytes(points.read_bytes() + b"\n")

    def rehash(payload):
        payload["config_hash"] += "0"
        payload["cells"][0]["mean_log_likelihood"] = -0.0

    edit_report(b / "raw" / "report.json", rehash)
    (a / "raw" / "table_clusters.tsv").unlink()
    (b / "raw" / "table_time_ms.tsv").unlink()
    assert sorted(compare_outputs.compare(a, b)) == sorted([
        f"differs: {points.relative_to(b)}",
        "differs: raw/report.json",
        f"only in {a}: raw/table_time_ms.tsv",
        f"only in {b}: raw/table_clusters.tsv",
    ])
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_zero_sign_counts(compare_outputs, two_runs):
    a, b = two_runs
    for tree, value in ((a, 0.0), (b, -0.0)):
        edit_report(tree / "raw" / "report.json",
                    lambda p: p["cells"][0].update(mean_log_likelihood=value))
    assert compare_outputs.compare(a, b) == ["differs: raw/report.json"]


def test_usage(compare_outputs, tmp_path):
    assert compare_outputs.main([str(tmp_path)]) == 2
    assert compare_outputs.main([str(tmp_path), str(tmp_path / "missing")]) == 2
