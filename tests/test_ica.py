import numpy as np
import pytest

from redclust.errors import DegenerateInputError, InvalidConfigError, InvalidInputError
from redclust.reducers import fastica_fit, fastica_transform


def make_sources(rng, n_samples, kinds):
    """Unit-variance, zero-mean non-Gaussian sources of the requested kinds."""
    cols = []
    for kind in kinds:
        if kind == "uniform":
            cols.append(rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=n_samples))
        elif kind == "sawtooth":
            t = np.arange(n_samples) * 0.013
            saw = 2.0 * (t - np.floor(t)) - 1.0
            cols.append(saw / np.std(saw))
        elif kind == "square":
            t = np.arange(n_samples) * 0.007
            cols.append(np.sign(np.sin(2.0 * np.pi * t)))
        elif kind == "laplace":
            col = rng.laplace(scale=1.0 / np.sqrt(2.0), size=n_samples)
            cols.append(col / np.std(col))
        elif kind == "spikes":
            col = rng.normal(size=n_samples) * (rng.uniform(size=n_samples) < 0.1)
            cols.append(col / np.std(col))
        else:
            raise ValueError(kind)
    s = np.column_stack(cols)
    return s - s.mean(axis=0)


def greedy_match_correlations(recovered, truth):
    """Best |correlation| per true source under greedy one-to-one matching."""
    k = truth.shape[1]
    corr = np.corrcoef(recovered.T, truth.T)[:k, k:]
    corr = np.abs(corr)
    matched = []
    used_rows, used_cols = set(), set()
    for _ in range(k):
        best = -1.0
        pick = None
        for i in range(k):
            if i in used_rows:
                continue
            for j in range(k):
                if j in used_cols:
                    continue
                if corr[i, j] > best:
                    best = corr[i, j]
                    pick = (i, j)
        used_rows.add(pick[0])
        used_cols.add(pick[1])
        matched.append(best)
    return matched


class TestFasticaFit:
    def test_white_pm1_sources_identity_fixed_point(self):
        # balanced +-1 design: sample covariance is exactly proportional to I,
        # so whitening is a pure scaling and W = I is already the unmixing
        pattern = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        x = np.tile(pattern, (500, 1))
        model = fastica_fit(x, n_components=2, w_init=np.eye(2))
        assert model.converged
        w = np.abs(model.unmixing)
        assert np.allclose(w, np.eye(2), atol=1e-6) or np.allclose(
            w, np.eye(2)[::-1], atol=1e-6
        )

    def test_two_source_recovery(self):
        rng = np.random.default_rng(11)
        s = make_sources(rng, 2000, ("uniform", "sawtooth"))
        mixing = rng.normal(size=(2, 2))
        x = s @ mixing.T
        model = fastica_fit(x, n_components=2, seed=11)
        recovered = fastica_transform(model, x).data
        correlations = greedy_match_correlations(recovered, s)
        assert all(c >= 0.95 for c in correlations)

    def test_three_source_recovery(self):
        rng = np.random.default_rng(12)
        s = make_sources(rng, 2000, ("uniform", "sawtooth", "square"))
        mixing = rng.normal(size=(3, 3))
        x = s @ mixing.T
        model = fastica_fit(x, n_components=3, seed=3)
        recovered = fastica_transform(model, x).data
        correlations = greedy_match_correlations(recovered, s)
        assert all(c >= 0.95 for c in correlations)

    def test_unmixing_orthogonal(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(size=(500, 4))
        model = fastica_fit(x, seed=5)
        w = model.unmixing
        assert np.max(np.abs(w @ w.T - np.eye(4))) <= 1e-8

    def test_whitened_training_covariance(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(size=(300, 3)) @ np.diag([3.0, 1.0, 0.2]) + [5.0, -2.0, 0.0]
        model = fastica_fit(x, seed=6)
        whitened = (x - model.mean) @ model.whitening.T
        cov = np.cov(whitened, rowvar=False)
        assert np.max(np.abs(cov - np.eye(3))) <= 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(size=(200, 3))
        a = fastica_fit(x, seed=9)
        b = fastica_fit(x, seed=9)
        assert np.array_equal(a.unmixing, b.unmixing)
        assert np.array_equal(a.whitening, b.whitening)
        assert a.n_iter == b.n_iter

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(16)
        base = rng.normal(size=(100, 2))
        x = np.hstack([base, base[:, :1] + base[:, 1:]])  # third column dependent
        with pytest.raises(DegenerateInputError):
            fastica_fit(x, n_components=3)

    def test_cube_nonlinearity(self):
        # cube's fixed point is only stable for heavy-tailed sources under
        # the stabilized update, so this uses super-Gaussian signals
        rng = np.random.default_rng(17)
        s = make_sources(rng, 2000, ("laplace", "spikes"))
        mixing = rng.normal(size=(2, 2))
        model = fastica_fit(s @ mixing.T, nonlinearity="cube", seed=4)
        recovered = fastica_transform(model, s @ mixing.T).data
        correlations = greedy_match_correlations(recovered, s)
        assert all(c >= 0.95 for c in correlations)

    def test_config_validation(self):
        x = np.random.default_rng(0).normal(size=(50, 3))
        with pytest.raises(InvalidConfigError):
            fastica_fit(x, n_components=4)
        with pytest.raises(InvalidConfigError):
            fastica_fit(x, nonlinearity="gauss")
        with pytest.raises(InvalidConfigError):
            fastica_fit(x, tol=0.0)
        with pytest.raises(InvalidConfigError):
            fastica_fit(x, max_iter=0)
        with pytest.raises(DegenerateInputError):
            fastica_fit(x[:1])


class TestFasticaTransform:
    def test_mean_row_maps_to_zero(self):
        rng = np.random.default_rng(18)
        x = rng.uniform(size=(120, 3))
        model = fastica_fit(x, seed=2)
        out = fastica_transform(model, x.mean(axis=0)[None, :])
        assert np.allclose(out.data, 0.0, atol=1e-10)

    def test_training_components_have_identity_covariance(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(size=(400, 3)) * [2.0, 5.0, 0.5]
        model = fastica_fit(x, seed=8)
        y = fastica_transform(model, x).data
        cov = np.cov(y, rowvar=False)
        assert np.max(np.abs(cov - np.eye(3))) <= 1e-6

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(20)
        x = rng.uniform(size=(60, 3))
        model = fastica_fit(x, seed=1)
        with pytest.raises(InvalidInputError):
            fastica_transform(model, np.zeros((5, 4)))

    def test_reports_full_dimension(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(size=(80, 5))
        model = fastica_fit(x, seed=3)
        out = fastica_transform(model, x)
        assert out.k == 5
        assert out.original_dim == 5
        assert out.reducer == "fastica"

