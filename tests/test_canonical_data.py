"""Structural checks on the four bundled stand-in datasets."""

import numpy as np

from redclust import load_dataset, normalize
from redclust.reference import EXPECTED_REGULAR_ATTRIBUTES

EXPECTED_ROWS = {
    "e-coli": 336,
    "acute-implant": 120,
    "blood-transfusion": 748,
    "prostate-cancer": 100,
}


def test_blood_transfusion_shape(canonical_pairs):
    blood = [p for p in canonical_pairs if "blood" in p[0]][0]
    ds = load_dataset(*blood)
    assert ds.n_rows == 748
    assert ds.n_regular == 5


def test_all_canonical_shapes(canonical_pairs):
    seen = {}
    for pair in canonical_pairs:
        ds = load_dataset(*pair)
        seen[ds.name] = (ds.n_rows, ds.n_regular)
    for name, attrs in EXPECTED_REGULAR_ATTRIBUTES.items():
        assert seen[name] == (EXPECTED_ROWS[name], attrs)


def test_numeric_regular_columns_finite_and_varied(canonical_pairs):
    for pair in canonical_pairs:
        ds = load_dataset(*pair)
        matrix = ds.numeric_matrix()
        assert np.isfinite(matrix).all()
        # FastICA at full dimension needs every direction to carry variance
        sigma = normalize(ds).numeric_matrix().std(axis=0)
        assert np.all(sigma > 0.1)


def test_labels_mark_generating_structure(canonical_pairs):
    ecoli = [p for p in canonical_pairs if "ecoli" in p[0]][0]
    ds = load_dataset(*ecoli)
    labels = [values for spec, values in zip(ds.columns, ds.values) if spec.role == "label"]
    assert len(labels) == 1
    assert "outlier" in set(labels[0])
