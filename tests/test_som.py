import numpy as np
import pytest

from redclust.errors import InvalidConfigError, InvalidInputError
from redclust.linalg import _pairwise_plan
from redclust.reducers import som_encode, som_fit
from redclust.reducers.som import (
    _CHUNK,
    LR_FLOOR,
    RADIUS_FLOOR,
    _decayed,
    quantization_error,
)


def two_clouds(rng, n_per=30, sep=10.0):
    a = rng.normal(scale=0.3, size=(n_per, 2))
    b = rng.normal(scale=0.3, size=(n_per, 2)) + [sep, 0.0]
    return np.vstack([a, b]), np.zeros(2), np.array([sep, 0.0])


def reference_som_fit(x, width, height, epochs, lr0=0.5, seed=0):
    """The sequential rule evaluated per sample; som_fit must match it bit for bit."""
    radius0 = max(width, height) / 2.0
    rng = np.random.default_rng(seed)
    n, dim = x.shape
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    flat = hi - lo == 0.0
    lo = np.where(flat, lo - 0.5, lo)
    hi = np.where(flat, hi + 0.5, hi)
    codebook = rng.uniform(size=(width * height, dim)) * (hi - lo) + lo
    coords = np.column_stack(
        [np.arange(width * height) % width, np.arange(width * height) // width]
    ).astype(float)
    qe_log = [quantization_error(codebook, x)]
    for epoch in range(epochs):
        lr = _decayed(lr0, LR_FLOOR, epoch, epochs)
        radius = max(_decayed(radius0, RADIUS_FLOOR, epoch, epochs), RADIUS_FLOOR)
        denom = 2.0 * radius * radius
        for i in rng.permutation(n):
            diff = x[i] - codebook
            bmu = int(np.argmin(np.sum(diff * diff, axis=1)))
            gd = coords - coords[bmu]
            influence = np.exp(-np.sum(gd * gd, axis=1) / denom)
            codebook += lr * influence[:, None] * diff
        qe_log.append(quantization_error(codebook, x))
    return codebook, qe_log


class TestSomFit:
    @pytest.mark.parametrize("seed", [3, 29])
    def test_bit_identical_to_per_sample_rule(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(80, 5))
        x[:, 2] = 1.5  # a constant column
        grid = som_fit(x, width=5, height=4, epochs=12, seed=seed)
        codebook, qe_log = reference_som_fit(x, 5, 4, 12, seed=seed)
        assert np.array_equal(grid.codebook, codebook)
        assert np.array_equal(grid.qe_log, qe_log)

    @pytest.mark.parametrize("n", [_CHUNK - 12, 2 * _CHUNK + 6])
    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 16, 17, 18, 24, 130])
    def test_bit_identical_for_every_summation_shape(self, dim, n):
        # numpy sums up to 7 terms in sequence, up to 128 in 8 accumulators
        # plus a tail, and more by halves; the grid is not square
        rng = np.random.default_rng(dim * 100 + n)
        x = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=dim)
        if dim > 1:
            x[:, dim // 2] = -2.25  # a constant column
        grid = som_fit(x, width=4, height=3, epochs=3, seed=dim)
        codebook, qe_log = reference_som_fit(x, 4, 3, 3, seed=dim)
        assert np.array_equal(grid.codebook, codebook)
        assert np.array_equal(grid.qe_log, qe_log)

    def test_pairwise_plan_matches_numpy_row_sum(self):
        rng = np.random.default_rng(11)
        for count in range(1, 300):
            terms = rng.uniform(size=(5, count)) * 10.0 ** rng.uniform(-8, 8, size=(5, count))
            order, adds = _pairwise_plan(0, count)
            assert sorted(order) == list(range(count))
            buf = terms[:, order].T.copy()
            for dst, src, rows in adds:
                buf[dst : dst + rows] += buf[src : src + rows]
            assert np.array_equal(buf[0], np.sum(terms, axis=1)), count

    def test_single_point_converges(self):
        x = np.array([[2.0, -1.0, 0.5]])
        grid = som_fit(x, width=3, height=2, epochs=30, seed=1)
        assert grid.qe_log[-1] < grid.qe_log[0]
        # every node should have been pulled toward the lone sample
        final = np.linalg.norm(grid.codebook - x[0], axis=1)
        assert final.max() < 1.0

    def test_two_clouds_split_across_2x1_grid(self):
        rng = np.random.default_rng(7)
        x, center_a, center_b = two_clouds(rng)
        grid = som_fit(x, width=2, height=1, epochs=50, seed=7)
        nearest = []
        for node in range(2):
            d_a = np.linalg.norm(grid.codebook[node] - center_a)
            d_b = np.linalg.norm(grid.codebook[node] - center_b)
            nearest.append("a" if d_a < d_b else "b")
        assert sorted(nearest) == ["a", "b"]

    def test_quantization_error_decreases(self):
        rng = np.random.default_rng(81)
        x = rng.normal(size=(60, 4))
        grid = som_fit(x, width=4, height=4, epochs=20, seed=2)
        assert grid.qe_log[-1] <= grid.qe_log[0]
        assert len(grid.qe_log) == 21  # initial + one per epoch

    def test_deterministic(self):
        rng = np.random.default_rng(82)
        x = rng.normal(size=(30, 3))
        a = som_fit(x, width=3, height=3, epochs=10, seed=5)
        b = som_fit(x, width=3, height=3, epochs=10, seed=5)
        assert np.array_equal(a.codebook, b.codebook)
        assert a.qe_log == b.qe_log

    def test_config_validation(self):
        x = np.zeros((3, 2))
        with pytest.raises(InvalidConfigError):
            som_fit(x, width=1, height=1)
        with pytest.raises(InvalidConfigError):
            som_fit(x, width=2, height=1, epochs=0)
        with pytest.raises(InvalidConfigError):
            som_fit(x, width=2, height=1, lr0=0.0)
        with pytest.raises(InvalidConfigError):
            som_fit(x, width=2, height=1, radius0=-1.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            som_fit(np.zeros((0, 2)), width=2, height=2)


class TestSomEncode:
    def test_codebook_vector_maps_to_own_node(self):
        rng = np.random.default_rng(83)
        x = rng.normal(size=(40, 3))
        grid = som_fit(x, width=3, height=2, epochs=15, seed=4)
        for node in range(grid.n_nodes):
            out = som_encode(grid, grid.codebook[node][None, :])
            col, row = out.data[0]
            assert int(col) == node % 3
            assert int(row) == node // 3

    def test_output_structure(self):
        rng = np.random.default_rng(84)
        x = rng.normal(size=(25, 5))
        grid = som_fit(x, width=4, height=3, epochs=10, seed=6)
        out = som_encode(grid, x)
        assert out.data.shape == (25, 2)
        assert out.k == 2
        assert np.array_equal(out.data, np.round(out.data))
        assert out.data[:, 0].min() >= 0 and out.data[:, 0].max() <= 3
        assert out.data[:, 1].min() >= 0 and out.data[:, 1].max() <= 2

    def test_two_clouds_get_distinct_coordinates(self):
        rng = np.random.default_rng(7)
        x, _, _ = two_clouds(rng)
        grid = som_fit(x, width=2, height=1, epochs=50, seed=7)
        out = som_encode(grid, x)
        first_half = set(map(tuple, out.data[:30]))
        second_half = set(map(tuple, out.data[30:]))
        assert first_half.isdisjoint(second_half)

    def test_dimension_mismatch(self):
        grid = som_fit(np.zeros((5, 2)) + np.arange(2), width=2, height=1, epochs=2, seed=0)
        with pytest.raises(InvalidInputError):
            som_encode(grid, np.zeros((3, 4)))


class TestQuantizationError:
    def test_exact_match_is_zero(self):
        codebook = np.array([[0.0, 0.0], [1.0, 1.0]])
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert quantization_error(codebook, x) == pytest.approx(0.0, abs=1e-7)

    def test_known_distance(self):
        codebook = np.array([[0.0], [10.0]])
        x = np.array([[1.0], [9.0]])
        assert quantization_error(codebook, x) == pytest.approx(1.0, abs=1e-9)
