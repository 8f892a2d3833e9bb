import json
import warnings

import numpy as np
import pytest

import redclust
import redclust.reducers
from redclust.dataset import (
    ColumnSpec,
    Dataset,
    data_to_similarity,
    filter_examples,
    load_dataset,
    normalize,
    read_schema,
)
from redclust.density import NOISE, DistanceSchema, dbscan, mixed_euclidean
from redclust.errors import (
    DatasetParseError,
    InvalidInputError,
    SchemaError,
)
from redclust.reducers import ReducedDataset


def write_dataset(tmp_path, name, header, rows, columns, expected_rows=None):
    data_path = tmp_path / f"{name}.csv"
    data_path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]))
    schema = {"name": name, "columns": columns}
    if expected_rows is not None:
        schema["expected_rows"] = expected_rows
    schema_path = tmp_path / f"{name}.schema.json"
    schema_path.write_text(json.dumps(schema))
    return data_path, schema_path


@pytest.fixture
def small_mixed(tmp_path):
    return write_dataset(
        tmp_path,
        "mini",
        ["id", "a", "b", "color", "class"],
        [
            ["r1", 1.0, 10.0, "red", "x"],
            ["r2", 2.0, 20.0, "blue", "x"],
            ["r3", 3.0, 30.0, "red", "y"],
        ],
        [
            {"name": "id", "kind": "nominal", "role": "id"},
            {"name": "a", "kind": "numeric"},
            {"name": "b", "kind": "numeric"},
            {"name": "color", "kind": "nominal"},
            {"name": "class", "kind": "nominal", "role": "label"},
        ],
    )


class TestLoadDataset:
    def test_basic_load(self, small_mixed):
        ds = load_dataset(*small_mixed)
        assert ds.name == "mini"
        assert ds.n_rows == 3
        assert ds.n_regular == 3  # a, b, color; id and label excluded
        assert ds.distance_schema().kinds == ("numeric", "numeric", "nominal")
        assert ds.numeric_matrix().shape == (3, 2)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        s = tmp_path / "empty.schema.json"
        s.write_text(json.dumps({"name": "empty", "columns": [{"name": "a"}]}))
        with pytest.raises(DatasetParseError):
            load_dataset(p, s)

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a\n")
        s = tmp_path / "h.schema.json"
        s.write_text(json.dumps({"name": "h", "columns": [{"name": "a"}]}))
        with pytest.raises(DatasetParseError):
            load_dataset(p, s)

    def test_bad_numeric_cell_names_location(self, tmp_path):
        paths = write_dataset(
            tmp_path,
            "bad",
            ["a", "b"],
            [[1.0, 2.0], [3.0, "oops"], [5.0, 6.0]],
            [{"name": "a"}, {"name": "b"}],
        )
        with pytest.raises(DatasetParseError) as err:
            load_dataset(*paths)
        assert err.value.line == 3
        assert err.value.column == 2

    def test_nonfinite_cell_rejected(self, tmp_path):
        paths = write_dataset(tmp_path, "inf", ["a"], [[1.0], ["inf"]], [{"name": "a"}])
        with pytest.raises(DatasetParseError):
            load_dataset(*paths)

    def test_header_mismatch(self, tmp_path):
        paths = write_dataset(tmp_path, "hm", ["x", "y"], [[1, 2]], [{"name": "a"}, {"name": "y"}])
        with pytest.raises(SchemaError):
            load_dataset(*paths)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1,2\n3\n")
        s = tmp_path / "r.schema.json"
        s.write_text(json.dumps({"name": "r", "columns": [{"name": "a"}, {"name": "b"}]}))
        with pytest.raises(DatasetParseError) as err:
            load_dataset(p, s)
        assert err.value.line == 3

    def test_expected_rows_enforced(self, tmp_path):
        paths = write_dataset(
            tmp_path, "er", ["a"], [[1.0], [2.0]], [{"name": "a"}], expected_rows=3
        )
        with pytest.raises(SchemaError):
            load_dataset(*paths)

    def test_missing_file(self, tmp_path):
        s = tmp_path / "s.json"
        s.write_text(json.dumps({"name": "s", "columns": [{"name": "a"}]}))
        with pytest.raises(DatasetParseError):
            load_dataset(tmp_path / "nope.csv", s)


    @pytest.mark.parametrize(
        "schema, field",
        [
            ({"columns": []}, "'name'"),
            (5, "JSON object"),
            ({"name": 5, "columns": [{"name": "a"}]}, "'name'"),
            ({"name": "s", "columns": 5}, "'columns'"),
            ({"name": "s", "columns": ["a", "b"]}, "column 1"),
            ({"name": "s", "columns": [{"name": "a"}, {"kind": "numeric"}]}, "column 2"),
            ({"name": "s", "columns": [{"name": "a", "kind": "weird"}]}, "unknown kind"),
            ({"name": "s", "columns": [{"name": "a"}], "delimiter": ";;"}, "'delimiter'"),
            ({"name": "s", "columns": [{"name": "a"}], "delimiter": 1}, "'delimiter'"),
            ({"name": "s", "columns": [{"name": "a"}], "expected_rows": "2"}, "'expected_rows'"),
            ({"name": "s", "columns": [{"name": "a"}], "expected_rows": True}, "'expected_rows'"),
            ({"name": "s", "columns": [{"name": "a"}], "expected_rows": 1.5}, "'expected_rows'"),
            ({"name": "s", "columns": [{"name": "a"}], "expected_rows": -1}, "'expected_rows'"),
        ],
        ids=[
            "no-name", "not-an-object", "name-not-a-string", "columns-not-a-list",
            "column-not-an-object", "column-without-name", "unknown-kind", "long-delimiter",
            "delimiter-not-a-string", "expected-rows-string", "expected-rows-bool",
            "expected-rows-float", "expected-rows-negative",
        ],
    )
    def test_schema_validation(self, tmp_path, schema, field):
        s = tmp_path / "s.json"
        s.write_text(json.dumps(schema))
        with pytest.raises(SchemaError) as info:
            read_schema(s)
        assert str(s) in str(info.value) and field in str(info.value)

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "/abs", "a\\b"])
    def test_name_must_be_a_file_name(self, tmp_path, name):
        # output files are named after the dataset; a path in the name escapes --out
        s = tmp_path / "s.json"
        s.write_text(json.dumps({"name": name, "columns": [{"name": "a"}]}))
        with pytest.raises(SchemaError) as info:
            read_schema(s)
        assert str(s) in str(info.value) and "'name'" in str(info.value)

    @pytest.mark.parametrize("name", ["e-coli", "a.b", "...", "x y"])
    def test_plain_names_accepted(self, tmp_path, name):
        s = tmp_path / "s.json"
        s.write_text(json.dumps({"name": name, "columns": [{"name": "a"}]}))
        assert read_schema(s)["name"] == name

    def test_column_spec_validation(self):
        with pytest.raises(SchemaError):
            ColumnSpec(name="a", kind="weird")
        with pytest.raises(SchemaError):
            ColumnSpec(name="a", role="weird")


def write_raw(tmp_path, data, columns):
    """A dataset file holding exactly ``data`` (bytes) and its schema; (data_path, schema_path)."""
    data_path = tmp_path / "raw.csv"
    data_path.write_bytes(data)
    schema_path = tmp_path / "raw.schema.json"
    schema_path.write_text(json.dumps({"name": "raw", "columns": columns}))
    return data_path, schema_path


class TestLineSplitting:
    """csv splits the rows, so quoted line breaks and Unicode separators stay in their cells."""

    TWO = [{"name": "a"}, {"name": "b", "kind": "nominal"}]

    def test_quoted_line_break_stays_in_its_cell(self, tmp_path):
        ds = load_dataset(*write_raw(tmp_path, b'a,b\n1,"x\ny"\n2,z\n', self.TWO))
        assert ds.values[1].tolist() == ["x\ny", "z"]
        assert ds.values[0].tolist() == [1.0, 2.0]

    def test_unicode_line_separator_is_cell_text(self, tmp_path):
        ds = load_dataset(*write_raw(tmp_path, "a,b\n1,p\n2,x\u2028y\n".encode(), self.TWO))
        assert ds.values[1].tolist() == ["p", "x\u2028y"]

    def test_errors_name_the_physical_line_after_a_multiline_cell(self, tmp_path):
        paths = write_raw(tmp_path, b'a,b\n1,"x\ny"\noops,z\n', self.TWO)
        with pytest.raises(DatasetParseError) as err:
            load_dataset(*paths)
        assert (err.value.line, err.value.column) == (4, 1)

    def test_byte_order_mark_is_not_header_text(self, tmp_path):
        data = b"\xef\xbb\xbfa,b\n1,p\n"
        data_path, schema_path = write_raw(tmp_path, data, self.TWO)
        ds = load_dataset(data_path, schema_path)
        assert ds.values[0].tolist() == [1.0]

    def test_csv_error_is_a_parse_error(self, tmp_path):
        # one quoted cell past the csv module's field size limit
        paths = write_raw(tmp_path, b'a,b\n1,p\n2,"' + b"x" * 200_000 + b'"\n', self.TWO)
        with pytest.raises(DatasetParseError, match="field limit") as err:
            load_dataset(*paths)
        assert err.value.line == 3

    def test_unterminated_quote_is_a_parse_error(self, tmp_path):
        # not one row whose cell swallows the rest of the file
        paths = write_raw(tmp_path, b'a,b\n1,"p\n2,q\n3,r\n', self.TWO)
        with pytest.raises(DatasetParseError, match="unexpected end of data") as err:
            load_dataset(*paths)
        assert err.value.line == 4

    @pytest.mark.parametrize("cell", [b'"p"x', b'"p" '])
    def test_text_after_a_closing_quote_is_a_parse_error(self, tmp_path, cell):
        paths = write_raw(tmp_path, b"a,b\n1," + cell + b"\n2,q\n", self.TWO)
        with pytest.raises(DatasetParseError, match="expected after") as err:
            load_dataset(*paths)
        assert err.value.line == 2

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        paths = write_raw(tmp_path, b"a,b\n1,\xff\n", self.TWO)
        with pytest.raises(DatasetParseError, match="not UTF-8"):
            load_dataset(*paths)


class TestNormalize:
    def test_constant_column_zeroed(self):
        ds = Dataset(
            name="c",
            columns=[ColumnSpec("a")],
            values=[np.array([7.0, 7.0, 7.0])],
        )
        out = normalize(ds)
        assert np.array_equal(out.values[0], np.zeros(3))

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170, 1e300])
    def test_extreme_scales_keep_the_z_scores(self, scale):
        # sigma's squares would overflow at 1e160 and underflow to 0 at 1e-170
        ds = Dataset(name="s", columns=[ColumnSpec("a")], values=[np.arange(1.0, 5.0) * scale])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = normalize(ds)
        expected = (np.arange(1.0, 5.0) - 2.5) / np.sqrt(1.25)
        assert np.allclose(out.values[0], expected, rtol=1e-14, atol=0.0)

    def test_population_sigma_convention(self):
        ds = Dataset(name="p", columns=[ColumnSpec("a")], values=[np.array([1.0, 2.0, 3.0])])
        out = normalize(ds)
        assert np.allclose(out.values[0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_zero_mean_unit_sigma(self):
        rng = np.random.default_rng(91)
        ds = Dataset(
            name="z",
            columns=[ColumnSpec("a"), ColumnSpec("b")],
            values=[rng.normal(5.0, 2.0, size=40), rng.uniform(size=40)],
        )
        out = normalize(ds)
        for col in out.values:
            assert abs(col.mean()) <= 1e-12
            assert abs(np.sqrt(np.mean((col - col.mean()) ** 2)) - 1.0) <= 1e-9

    def test_nominal_and_label_untouched(self, tmp_path, small_mixed):
        ds = load_dataset(*small_mixed)
        out = normalize(ds)
        assert list(out.values[3]) == ["red", "blue", "red"]
        assert list(out.values[4]) == ["x", "x", "y"]


class TestSimilarity:
    def test_identical_rows_similarity_one(self):
        x = np.tile([1.5, -2.0], (4, 1))
        sim = data_to_similarity(x)
        assert np.array_equal(sim, np.ones((4, 4)))

    def test_distance_one_gives_half(self):
        x = np.array([[0.0], [1.0]])
        sim = data_to_similarity(x)
        assert sim[0, 1] == pytest.approx(0.5)
        assert sim[0, 0] == 1.0

    def test_matrix_honours_schema(self):
        # a coded matrix with a nominal column: codes 0 and 2 differ by 1, not 2
        x = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        schema = DistanceSchema(("numeric", "nominal"))
        expected = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
        assert np.array_equal(data_to_similarity(x, schema), expected)
        reduced = ReducedDataset(x, schema)
        assert np.array_equal(data_to_similarity(reduced.data, reduced.schema), expected)
        assert data_to_similarity(x)[0, 2] == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("n", [10, 50])
    def test_matches_double_loop_oracle(self, n):
        rng = np.random.default_rng(92)
        ds = Dataset(
            name="o",
            columns=[ColumnSpec("a"), ColumnSpec("c", kind="nominal")],
            values=[
                rng.normal(size=n),
                np.asarray([["u", "v"][i] for i in rng.integers(2, size=n)], dtype=object),
            ],
        )
        schema = ds.distance_schema()
        sim = data_to_similarity(ds.feature_rows(), schema)
        assert sim.shape == (n, n)
        assert np.array_equal(np.diag(sim), np.ones(n))
        rows = list(zip(*ds.values))
        for i in range(n):
            for j in range(n):
                expected = 1.0 / (1.0 + mixed_euclidean(rows[i], rows[j], schema))
                assert sim[i, j] == pytest.approx(expected, abs=1e-12)
        assert np.array_equal(sim, sim.T)


class TestFilterExamples:
    def test_always_true_identity(self, small_mixed):
        ds = load_dataset(*small_mixed)
        out = filter_examples(ds, np.ones(ds.n_rows, dtype=bool))
        assert out.n_rows == ds.n_rows
        assert [c.name for c in out.columns] == [c.name for c in ds.columns]
        for kept, full in zip(out.values, ds.values):
            assert list(kept) == list(full)

    def test_always_false_keeps_schema(self, small_mixed):
        ds = load_dataset(*small_mixed)
        out = filter_examples(ds, np.zeros(ds.n_rows, dtype=bool))
        assert out.n_rows == 0
        assert [c.name for c in out.columns] == [c.name for c in ds.columns]

    def test_attribute_condition(self, small_mixed):
        ds = load_dataset(*small_mixed)
        out = filter_examples(ds, ds.values[1] >= 2.0)
        assert out.n_rows == 2
        assert list(out.values[1]) == [2.0, 3.0]

    def test_mask_must_be_one_bool_per_row(self, small_mixed):
        ds = load_dataset(*small_mixed)
        wrong_length = ([True, False], [True, False, True, False], [[True, False, True]])
        not_boolean = ([1, 0, 1], np.array([1.0, 0.0, 1.0]), "yes")
        for keep in wrong_length + not_boolean:
            with pytest.raises(InvalidInputError, match="boolean mask of 3 rows"):
                filter_examples(ds, keep)

    def test_non_noise_filter(self):
        rng = np.random.default_rng(93)
        dense = rng.normal(scale=0.2, size=(17, 2))
        outliers = np.array([[50.0, 50.0], [-60.0, 10.0], [30.0, -40.0]])
        x = np.vstack([dense, outliers])
        ds = Dataset(
            name="n",
            columns=[ColumnSpec("x"), ColumnSpec("y")],
            values=[x[:, 0], x[:, 1]],
        )
        assignment = dbscan(x, eps=1.0, min_pts=5)
        assert assignment.noise_count == 3
        out = filter_examples(ds, assignment.labels != NOISE)
        assert out.n_rows == 17
        assert np.array_equal(out.values[0], dense[:, 0])

    def test_order_preserved(self, small_mixed):
        ds = load_dataset(*small_mixed)
        out = filter_examples(ds, [color == "red" for color in ds.values[3]])
        assert list(out.values[0]) == ["r1", "r3"]


@pytest.mark.parametrize("module", [redclust, redclust.reducers], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
