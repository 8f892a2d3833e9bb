import warnings

import numpy as np
import pytest

from redclust.errors import InvalidConfigError, InvalidInputError
from redclust.reducers import som_encode, som_fit
from redclust.reducers.som import RADIUS_FLOOR, _decayed, quantization_error


def two_clouds(rng, n_per=30, sep=10.0):
    a = rng.normal(scale=0.3, size=(n_per, 2))
    b = rng.normal(scale=0.3, size=(n_per, 2)) + [sep, 0.0]
    return np.vstack([a, b]), np.zeros(2), np.array([sep, 0.0])


def initial_codebook(x, nodes, seed):
    """som_fit's seeded start: uniform over each column's range."""
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    return np.random.default_rng(seed).uniform(size=(nodes, x.shape[1])) * (hi - lo) + lo


def reference_som_fit(x, width, height, epochs, seed=0):
    """The batch map in plain loops: each node becomes the h-weighted mean of all rows."""
    radius0 = max(width, height) / 2.0
    nodes = width * height
    codebook = initial_codebook(x, nodes, seed)
    coords = [(j % width, j // width) for j in range(nodes)]
    qe_log = [quantization_error(codebook, x)]
    for epoch in range(epochs):
        radius = _decayed(radius0, RADIUS_FLOOR, epoch, epochs)
        bmus = [int(np.argmin(np.sum((row - codebook) ** 2, axis=1))) for row in x]
        updated = codebook.copy()
        for j in range(nodes):
            total = np.zeros(x.shape[1])
            weight = 0.0
            for row, b in zip(x, bmus):
                grid_sq = (coords[b][0] - coords[j][0]) ** 2 + (coords[b][1] - coords[j][1]) ** 2
                h = np.exp(-grid_sq / (2.0 * radius * radius))
                total += h * row
                weight += h
            if weight >= np.finfo(float).tiny:
                updated[j] = total / weight
        codebook = updated
        qe_log.append(quantization_error(codebook, x))
    return codebook, qe_log


class TestSomFit:
    @pytest.mark.parametrize("seed", [3, 29])
    def test_matches_loop_batch_map(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(80, 5))
        x[:, 2] = 1.5  # a constant column
        grid = som_fit(x, width=5, height=4, epochs=12, seed=seed)
        codebook, qe_log = reference_som_fit(x, 5, 4, 12, seed=seed)
        np.testing.assert_allclose(grid.codebook, codebook, rtol=1e-12, atol=1e-12 * np.abs(x).max())
        np.testing.assert_allclose(grid.qe_log, qe_log, rtol=1e-12)
        assert grid.qe_log[0] == qe_log[0]  # the same seeded start

    @pytest.mark.parametrize("n", [20, 70])
    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 16, 17, 18, 24, 130])
    def test_matches_loop_batch_map_for_every_shape(self, dim, n):
        # one column, more columns than rows, a grid that is not square. Column
        # scales stay within 0.1..10: at 1e-3..1e3 one large column can put
        # every row's BMU on one grid row (dim 18, n 20 after epoch 1); nodes
        # that share a grid column then get the same weighted mean in exact
        # arithmetic, and BMU ties among them fall to rounding
        rng = np.random.default_rng(dim * 100 + n)
        x = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-1, 1, size=dim)
        if dim > 1:
            x[:, dim // 2] = -2.25  # a constant column
        grid = som_fit(x, width=4, height=3, epochs=3, seed=dim)
        codebook, qe_log = reference_som_fit(x, 4, 3, 3, seed=dim)
        np.testing.assert_allclose(grid.codebook, codebook, rtol=1e-12, atol=1e-12 * np.abs(x).max())
        # the error takes square roots of expanded squares |x|^2 - 2 x.c + |c|^2,
        # which cancel: codebooks 1e-15 apart give errors 1e-12 apart
        np.testing.assert_allclose(grid.qe_log, qe_log, rtol=1e-9)

    @pytest.mark.parametrize("width, height", [(10, 10), (7, 3), (12, 1)])
    def test_prototypes_stay_in_column_range(self, width, height):
        # each prototype is a weighted mean of the rows, so it lies in their
        # column-wise [min, max] up to rounding
        rng = np.random.default_rng(width * height)
        x = rng.normal(size=(60, 6)) * 10.0 ** rng.uniform(-4, 4, size=6)
        x[:, 3] = -7.25  # a constant column
        lo, hi = x.min(axis=0), x.max(axis=0)
        slack = 4 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
        for epochs in (1, 2, 25):
            codebook = som_fit(x, width=width, height=height, epochs=epochs, seed=epochs).codebook
            assert np.all(codebook >= lo - slack) and np.all(codebook <= hi + slack), epochs

    def test_nodes_out_of_reach_keep_their_prototype(self):
        # at the 0.5 radius floor h = exp(-2 d^2) is 0 from d = 20 and
        # subnormal at d = 19, so a node 19 or more grid steps from both BMUs
        # has no weight to divide by
        x = np.array([[0.0, 1.0, -4.0], [3.0, -2.0, -4.0]])
        start = initial_codebook(x, 80, seed=4)
        bmus = np.array([int(np.argmin(np.sum((row - start) ** 2, axis=1))) for row in x])
        reach = np.abs(np.arange(80)[:, None] - bmus[None, :]).min(axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = som_fit(x, width=80, height=1, epochs=1, radius0=0.0, seed=4)
        kept = reach >= 19
        assert 0 < np.count_nonzero(kept) < 80
        assert np.array_equal(grid.codebook[kept], start[kept])
        moved = grid.codebook[~kept]
        slack = 4 * np.finfo(float).eps * np.abs(x).max()
        assert np.all(moved >= x.min(axis=0) - slack) and np.all(moved <= x.max(axis=0) + slack)

    def test_single_point_converges(self):
        # every column is constant, so every node starts on the lone sample
        # and each weighted mean of it returns it
        x = np.array([[2.0, -1.0, 0.5]])
        grid = som_fit(x, width=3, height=2, epochs=30, seed=1)
        assert grid.qe_log == [0.0] * 31
        assert np.array_equal(grid.codebook, np.tile(x, (6, 1)))

    @pytest.mark.parametrize("seed", range(10))
    def test_constant_column_does_not_collapse_the_map(self, seed):
        # a start spread on the constant column would outweigh a column of
        # scale 1e-3, put every row on one BMU and make every node the same
        # mean up to rounding, some 1e-17 of the column's spread
        rng = np.random.default_rng(seed)
        x = np.column_stack([rng.normal(scale=1e-3, size=20), np.full(20, 3.0)])
        grid = som_fit(x, width=4, height=3, epochs=1, seed=seed)
        assert np.ptp(grid.codebook[:, 0]) > 1e-3 * np.ptp(x[:, 0])

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
            som_fit(x, width=2, height=1, radius0=-1.0)

    @pytest.mark.parametrize(
        "grid", [{"width": -1, "height": -3}, {"width": 0, "height": 5}, {"width": 3, "height": -2}]
    )
    def test_non_positive_grid_side_rejected(self, grid):
        # -1 x -3 multiplies out to 3 nodes, which would encode to negative coordinates
        with pytest.raises(InvalidConfigError, match="grid"):
            som_fit(np.zeros((3, 2)), **grid)

    @pytest.mark.parametrize("radius0", [float("nan"), float("inf")])
    def test_non_finite_radius_rejected(self, radius0):
        # NaN used to train silently at the radius floor; inf divided 0 by 0
        with pytest.raises(InvalidConfigError, match="radius0"):
            som_fit(np.zeros((3, 2)), width=2, height=1, radius0=radius0)

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
