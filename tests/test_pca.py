import warnings

import numpy as np
import pytest

from redclust import svd
from redclust.errors import DegenerateInputError, InvalidConfigError, InvalidInputError
from redclust.linalg import center, frobenius
from redclust.reducers import (
    fastica_fit,
    pca_encode,
    pca_fit,
    pca_reconstruct,
    retained_for_threshold,
    svd_reduce,
)
from redclust.reducers import pca as pca_module
from redclust.reducers.pca import covariance_eig


class TestPcaFit:
    def test_rank_one_line(self):
        t = np.linspace(-2.0, 2.0, 25)
        x = np.column_stack([t, t])  # points on y = x
        model = pca_fit(x, variance_threshold=0.95)
        assert model.retained == 1
        direction = model.basis[:, 0]
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(direction), [r, r], atol=1e-10)

    def test_eigenvalues_match_singular_values(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(50, 6))
        model = pca_fit(x, k=6)
        centered, _ = center(x)
        s = svd(centered).s
        assert np.allclose(model.eigenvalues, s**2 / (50 - 1), atol=1e-7)

    def test_threshold_picks_smallest_count(self):
        rng = np.random.default_rng(62)
        # construct data with one dominant direction plus faint noise
        base = rng.normal(size=(200, 1)) * 10.0
        x = np.hstack([base, base * 0.5]) + rng.normal(size=(200, 2)) * 0.01
        model = pca_fit(x, variance_threshold=0.95)
        assert model.retained == 1
        model_full = pca_fit(x, variance_threshold=1.0)
        assert model_full.retained == 2

    def test_single_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            pca_fit(np.ones((1, 3)), k=1)

    def test_bad_criteria(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(InvalidConfigError):
            pca_fit(x)
        with pytest.raises(InvalidConfigError):
            pca_fit(x, k=2, variance_threshold=0.9)
        with pytest.raises(InvalidConfigError):
            pca_fit(x, variance_threshold=0.0)
        with pytest.raises(InvalidConfigError):
            pca_fit(x, variance_threshold=1.5)
        with pytest.raises(InvalidConfigError):
            pca_fit(x, k=4)


class TestRetainedForThreshold:
    def test_full_threshold_capped_at_dimension(self):
        # cumsum drops each tiny value against the leading 1.0, numpy's pairwise
        # sum keeps them, so the last cumulative fraction lands below 1 - 1e-12
        eigenvalues = np.array([1.0] + [1e-16] * (2**15 - 1))
        fractions = np.cumsum(eigenvalues) / np.sum(eigenvalues)
        assert fractions[-1] < 1.0 - 1e-12
        assert retained_for_threshold(eigenvalues, 1.0) == len(eigenvalues)


class TestEncodeReconstruct:
    def test_mean_row_encodes_to_zero(self):
        rng = np.random.default_rng(63)
        x = rng.normal(size=(20, 4))
        model = pca_fit(x, k=2)
        out = pca_encode(model, model.mean[None, :])
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_full_dimension_roundtrip(self):
        rng = np.random.default_rng(64)
        x = rng.normal(size=(30, 5))
        model = pca_fit(x, k=5)
        back = pca_reconstruct(model, pca_encode(model, x))
        assert frobenius(back - x) <= 1e-8 * max(1.0, frobenius(x))

    def test_residual_matches_discarded_eigenvalues(self):
        rng = np.random.default_rng(65)
        x = rng.normal(size=(30, 5))
        for d in (2, 3):
            model = pca_fit(x, k=d)
            back = pca_reconstruct(model, pca_encode(model, x))
            residual = np.sum((x - back) ** 2)
            expected = np.sum(model.eigenvalues[d:]) * (30 - 1)
            assert residual == pytest.approx(expected, rel=1e-6)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(66)
        x = rng.normal(size=(25, 4))
        model = pca_fit(x, k=2)
        once = pca_reconstruct(model, pca_encode(model, x))
        twice = pca_reconstruct(model, pca_encode(model, once))
        assert np.allclose(once, twice, atol=1e-9)

    def test_zero_row_reconstructs_to_mean(self):
        rng = np.random.default_rng(67)
        x = rng.normal(loc=4.0, size=(15, 3))
        model = pca_fit(x, k=2)
        back = pca_reconstruct(model, np.zeros((1, 2)))
        assert np.allclose(back[0], model.mean, atol=1e-12)

    def test_rank_one_reconstruction_exact(self):
        t = np.linspace(-1.0, 3.0, 20)
        x = np.column_stack([t, t])
        model = pca_fit(x, variance_threshold=0.95)
        back = pca_reconstruct(model, pca_encode(model, x))
        assert np.allclose(back, x, atol=1e-9)

    def test_error_non_increasing_in_d(self):
        rng = np.random.default_rng(68)
        x = rng.normal(size=(40, 6)) @ np.diag([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
        errors = []
        for d in range(1, 7):
            model = pca_fit(x, k=d)
            back = pca_reconstruct(model, pca_encode(model, x))
            errors.append(frobenius(back - x))
        assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(5))
        assert errors[-1] <= 1e-8

    def test_encoded_columns_uncorrelated(self):
        rng = np.random.default_rng(69)
        x = rng.normal(size=(60, 5))
        model = pca_fit(x, k=4)
        y = pca_encode(model, x).data
        cov = np.cov(y, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 1e-8 * max(1.0, np.max(np.abs(cov)))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(70)
        x = rng.normal(size=(10, 3))
        model = pca_fit(x, k=2)
        with pytest.raises(InvalidInputError):
            pca_encode(model, np.zeros((4, 5)))
        with pytest.raises(InvalidInputError):
            pca_reconstruct(model, np.zeros((4, 3)))


class TestSvdReduce:
    def test_full_rank_preserves_distances(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(12, 4))
        out = svd_reduce(x, k=4)
        for i in range(12):
            for j in range(i + 1, 12):
                orig = np.linalg.norm(x[i] - x[j])
                red = np.linalg.norm(out.data[i] - out.data[j])
                assert red == pytest.approx(orig, abs=1e-8)

    def test_matches_pca_encode(self):
        rng = np.random.default_rng(72)
        x = rng.normal(size=(40, 6))
        reduced = svd_reduce(x, k=2)
        encoded = pca_encode(pca_fit(x, k=2), x)
        for col in range(2):
            a = reduced.data[:, col]
            b = encoded.data[:, col]
            assert np.allclose(a, b, atol=1e-7) or np.allclose(a, -b, atol=1e-7)

    def test_k_out_of_range(self):
        x = np.zeros((5, 3)) + np.arange(3)
        with pytest.raises(InvalidConfigError):
            svd_reduce(x, k=0)
        with pytest.raises(InvalidConfigError):
            svd_reduce(x, k=4)

    def test_reports_shape(self):
        rng = np.random.default_rng(73)
        x = rng.normal(size=(9, 5))
        out = svd_reduce(x, k=1)
        assert out.k == 1
        assert out.data.shape == (9, 1)
        assert out.schema is None  # reduced coordinates are all numeric


class TestCovarianceEig:
    @pytest.fixture
    def counted(self, monkeypatch):
        """sym_eig calls made through the name covariance_eig looks up, from an empty memo."""
        calls = []
        eig = pca_module.sym_eig

        def counting(a):
            calls.append(a)
            return eig(a)

        monkeypatch.setattr(pca_module, "sym_eig", counting)
        monkeypatch.setattr(pca_module, "_last_covariance", None)
        return calls

    def test_pca_then_fastica_decompose_once(self, counted):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(40, 4)) @ rng.normal(size=(4, 4))
        model = pca_fit(x, k=2)
        ica = fastica_fit(x, seed=3)
        assert len(counted) == 1
        other = x.copy()
        other[0, 0] += 1.0
        pca_fit(other, k=2)
        assert len(counted) == 2
        # the kept result is the one a fresh decomposition gives
        pca_module._last_covariance = None
        assert np.array_equal(pca_fit(x, k=2).basis, model.basis)
        assert np.array_equal(fastica_fit(x, seed=3).whitening, ica.whitening)
        assert len(counted) == 3

    def test_matrix_changed_in_place_is_decomposed_again(self, counted):
        x = np.random.default_rng(42).normal(size=(30, 3))
        first = covariance_eig(x)[2].values
        x[:, 1] *= 4.0
        assert not np.array_equal(covariance_eig(x)[2].values, first)
        assert len(counted) == 2

    def test_returned_arrays_are_read_only(self, counted):
        x = np.random.default_rng(43).normal(size=(20, 3))
        for result in (covariance_eig(x), covariance_eig(x)):
            centered, mean, pairs = result
            for array in (centered, mean, pairs.values, pairs.vectors):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0
        assert len(counted) == 1

    @pytest.mark.parametrize("fit", [lambda x: pca_fit(x, k=2), lambda x: fastica_fit(x, seed=3)])
    def test_overflowing_scale_is_named(self, counted, fit):
        x = np.random.default_rng(1).normal(size=(50, 3)) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError, match="scale overflows its covariance"):
                fit(x)
        assert counted == []

    def test_overflowing_column_sums(self, counted):
        # center's column sums overflow at this scale; its centered values do not
        x = np.abs(np.random.default_rng(1).normal(size=(50, 3))) * 1e307
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isfinite(svd_reduce(x, 2).data).all()
            for fit in (lambda: pca_fit(x, k=2), lambda: fastica_fit(x, seed=3)):
                with pytest.raises(InvalidInputError, match="scale overflows its covariance"):
                    fit()
        assert counted == []
