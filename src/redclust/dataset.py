"""Tabular dataset ingestion, normalization, similarity, and row filtering.

Files are delimited text with a header row, described by a JSON sidecar
schema declaring each column's name, kind (numeric | nominal) and role
(regular | id | label). Only regular columns feed the clustering pipeline;
id and label columns ride along for reporting. ``filter_examples`` keeps
the rows a boolean mask selects; ``data_to_similarity`` returns a plain
n x n array.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .density import DistanceSchema, pairwise_distances
from .errors import DatasetParseError, InvalidInputError, SchemaError

KINDS = ("numeric", "nominal")
ROLES = ("regular", "id", "label")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str = "numeric"
    role: str = "regular"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise SchemaError(f"column {self.name!r}: unknown role {self.role!r}")


@dataclass
class Dataset:
    """A rectangular table plus its schema.

    ``columns[i]`` describes ``values[i]``, a numpy array holding one column
    (float64 for numeric, object for nominal).
    """

    name: str
    columns: list
    values: list

    def __post_init__(self):
        if len(self.columns) != len(self.values):
            raise SchemaError("column specs and value columns differ in count")
        lengths = {len(v) for v in self.values}
        if len(lengths) > 1:
            raise SchemaError("columns have differing lengths")
        for spec, column in zip(self.columns, self.values):
            if spec.kind == "numeric" and not np.isfinite(
                np.asarray(column, dtype=float)
            ).all():
                raise InvalidInputError(f"column {spec.name!r} holds non-finite values")

    @property
    def n_rows(self):
        return len(self.values[0]) if self.values else 0

    @property
    def regular_columns(self):
        return [c for c in self.columns if c.role == "regular"]

    @property
    def n_regular(self):
        return len(self.regular_columns)

    def distance_schema(self):
        return DistanceSchema(kinds=tuple(c.kind for c in self.regular_columns))

    def feature_rows(self):
        """Regular columns as one float matrix; nominal ones hold sorted-level codes."""
        cols = [
            np.unique(v, return_inverse=True)[1] if c.kind == "nominal" else v
            for c, v in zip(self.columns, self.values)
            if c.role == "regular"
        ]
        return np.array(cols, dtype=float).reshape(len(cols), self.n_rows).T

    def numeric_matrix(self):
        """Rows x numeric-regular-columns float matrix (reducer/EM input)."""
        cols = [
            np.asarray(v, dtype=float)
            for c, v in zip(self.columns, self.values)
            if c.role == "regular" and c.kind == "numeric"
        ]
        if not cols:
            raise InvalidInputError(f"dataset {self.name!r} has no numeric regular columns")
        return np.column_stack(cols)


def read_schema(path):
    """Load a JSON schema descriptor: name, columns, optional expected_rows."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(f"cannot read schema {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"schema {path} must be a JSON object, found {type(raw).__name__}")
    if "name" not in raw or "columns" not in raw:
        raise SchemaError(f"schema {path} must declare 'name' and 'columns'")
    if not isinstance(raw["name"], str):
        raise SchemaError(f"schema {path}: 'name' must be a string, got {raw['name']!r}")
    # output files are named after the dataset, so the name must stay inside --out
    if raw["name"] in ("", ".", "..") or any(sep in raw["name"] for sep in "/\\"):
        raise SchemaError(
            f"schema {path}: 'name' must be a plain file name, without / or \\, "
            f"got {raw['name']!r}"
        )
    if not isinstance(raw["columns"], list):
        raise SchemaError(f"schema {path}: 'columns' must be a list, got {raw['columns']!r}")
    columns = []
    for number, c in enumerate(raw["columns"], start=1):
        if not isinstance(c, dict) or not isinstance(c.get("name"), str):
            raise SchemaError(
                f"schema {path}: column {number} must be an object with a string 'name', got {c!r}"
            )
        try:
            columns.append(
                ColumnSpec(
                    name=c["name"], kind=c.get("kind", "numeric"), role=c.get("role", "regular")
                )
            )
        except SchemaError as exc:
            raise SchemaError(f"schema {path}: {exc}") from None
    delimiter = raw.get("delimiter", ",")
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise SchemaError(
            f"schema {path}: 'delimiter' must be a 1-character string, got {delimiter!r}"
        )
    expected = raw.get("expected_rows")
    if expected is not None and (
        isinstance(expected, bool) or not isinstance(expected, int) or expected < 0
    ):
        raise SchemaError(
            f"schema {path}: 'expected_rows' must be a non-negative integer, got {expected!r}"
        )
    return {
        "name": raw["name"],
        "columns": columns,
        "delimiter": delimiter,
        "expected_rows": expected,
    }


def _numbered_rows(reader, data_path):
    """(last physical line, cells) for each row of ``reader``; a csv error is a DatasetParseError."""
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DatasetParseError(f"dataset {data_path}: {exc}", line=reader.line_num) from None


def load_dataset(data_path, schema):
    """Parse a delimited text file against a schema descriptor.

    ``schema`` is a path to a JSON descriptor or an already-read descriptor
    dict. The file is UTF-8, with or without a byte-order mark; a quoted
    cell may span lines, but a quote left open or text after a closing
    quote is a DatasetParseError (RFC 4180). Parse failures name the
    offending physical line (a row's last) and column; declared attribute
    counts and (when present) expected row counts are enforced.
    """
    if not isinstance(schema, dict):
        schema = read_schema(schema)
    data_path = Path(data_path)
    try:
        text = data_path.read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise DatasetParseError(f"cannot read dataset {data_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"dataset {data_path} is not UTF-8: {exc}") from None

    # csv splits rows itself: only then does a quoted line break stay in its cell
    reader = csv.reader(
        io.StringIO(text, newline=""), delimiter=schema["delimiter"], strict=True
    )
    rows = _numbered_rows(reader, data_path)  # streamed: the rows are never all held at once
    first = next(rows, None)
    if first is None:
        raise DatasetParseError(f"dataset {data_path} is empty", line=1)

    columns = schema["columns"]
    header = [h.strip() for h in first[1]]
    declared = [c.name for c in columns]
    if header != declared:
        raise SchemaError(
            f"dataset {data_path} header {header} does not match declared columns {declared}"
        )

    raw_columns = [[] for _ in columns]
    for line_no, row in rows:
        if len(row) != len(columns):
            raise DatasetParseError(
                f"expected {len(columns)} cells, found {len(row)}", line=line_no
            )
        for col_no, (spec, cell) in enumerate(zip(columns, row), start=1):
            cell = cell.strip()
            if spec.kind == "numeric":
                try:
                    value = float(cell)
                except ValueError:
                    raise DatasetParseError(
                        f"column {spec.name!r} expects a number, found {cell!r}",
                        line=line_no,
                        column=col_no,
                    ) from None
                if not math.isfinite(value):
                    raise DatasetParseError(
                        f"column {spec.name!r} holds non-finite value {cell!r}",
                        line=line_no,
                        column=col_no,
                    )
                raw_columns[col_no - 1].append(value)
            else:
                raw_columns[col_no - 1].append(cell)
    if not raw_columns[0]:
        raise DatasetParseError(f"dataset {data_path} has a header but no rows", line=2)

    expected = schema.get("expected_rows")
    if expected is not None and len(raw_columns[0]) != expected:
        raise SchemaError(
            f"dataset {data_path} has {len(raw_columns[0])} rows, schema expects {expected}"
        )

    values = []
    for spec, raw in zip(columns, raw_columns):
        if spec.kind == "numeric":
            values.append(np.asarray(raw, dtype=float))
        else:
            values.append(np.asarray(raw, dtype=object))

    return Dataset(name=schema["name"], columns=columns, values=values)


def normalize(ds):
    """Z-transform every numeric regular column (population sigma).

    Constant columns map to all zeros.
    """
    new_values = []
    for spec, column in zip(ds.columns, ds.values):
        if spec.role == "regular" and spec.kind == "numeric":
            col = np.asarray(column, dtype=float)
            centred = col - col.mean()
            # squares of a column scaled by a power of two neither overflow
            # nor underflow; the scaling is exact, so sigma's bits are kept
            e = np.frexp(np.abs(centred).max(initial=0.0))[1]
            sigma = np.ldexp(np.sqrt(np.mean(np.ldexp(centred, -e) ** 2)), e)
            if sigma == 0.0:
                new_values.append(np.zeros_like(centred))
            else:
                new_values.append(centred / sigma)
        else:
            new_values.append(column)
    return Dataset(name=ds.name, columns=list(ds.columns), values=new_values)


def data_to_similarity(data, schema=None):
    """Similarity matrix 1 / (1 + pairwise_distances(data, schema)) of a 2-D table.

    Takes what ``pairwise_distances`` takes: ``ds.feature_rows(),
    ds.distance_schema()`` for a Dataset, ``reduced.data, reduced.schema``
    for a reducer's output. A row's distance to itself is exactly 0, so the
    diagonal is exactly 1; the matrix is symmetric bit for bit.
    """
    return 1.0 / (1.0 + pairwise_distances(data, schema))


def filter_examples(ds, keep):
    """The Dataset of the rows of ``ds`` where the boolean mask ``keep`` is true, in order.

    ``keep`` holds one bool per row, e.g. ``ds.values[i] >= 2.0`` or
    ``assignment.labels != NOISE``.
    """
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.shape != (ds.n_rows,):
        raise InvalidInputError(
            f"keep must be a boolean mask of {ds.n_rows} rows, got {keep.dtype} of shape {keep.shape}"
        )
    return Dataset(
        name=ds.name, columns=list(ds.columns), values=[np.asarray(v)[keep] for v in ds.values]
    )
