import numpy as np
import pytest

from redclust.dataset import ColumnSpec, Dataset, normalize
from redclust.errors import RedclustError
from redclust.mixture import em_fit
from redclust.reducers import fastica_fit, fastica_transform


def _normalize(x):
    ds = Dataset("s", [ColumnSpec(f"c{j}") for j in range(x.shape[1])], list(x.T))
    return np.column_stack(normalize(ds).values)


def _fastica(x):
    return fastica_transform(fastica_fit(x, seed=1), x).data


def _em(x):
    return em_fit(x, k=2, max_runs=5, max_steps=100, quality=1e-10, seed=3).means


STAGES = {"normalize": _normalize, "fastica": _fastica, "em": _em}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "stage, scale",
    # normalize's column sums overflow at 1e307; at 1e-6 every covariance
    # eigenvalue is below 1e-12, FastICA's rank floor as a share of the
    # largest; EM's squared distances overflow from 1e154
    [("normalize", 1e307), ("fastica", 1e-6), ("fastica", 1e-100), ("em", 1e154), ("em", 1e200)],
)
def test_extreme_scale_gives_finite_output_or_names_it(stage, scale):
    base = np.abs(np.random.default_rng(5).normal(size=(60, 4))) + 1
    x = base * scale
    try:
        out = STAGES[stage](x)
    except RedclustError as exc:
        assert f"scale ({np.abs(x).max():.3g})" in str(exc)
        return
    assert np.isfinite(out).all()
    if stage != "em":  # z-scores and whitened components are scale-free
        assert np.allclose(out, STAGES[stage](base), rtol=1e-9, atol=1e-9)
