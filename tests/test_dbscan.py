import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import redclust.density as density
from redclust.dataset import ColumnSpec, Dataset
from redclust.density import (
    _BLOCK_ROWS,
    NOISE,
    ClusterAssignment,
    DistanceSchema,
    cluster_count,
    dbscan,
    mixed_euclidean,
    pairwise_distances,
    _key_margin,
    _squared_threshold,
    _sweep_order,
)
from redclust.errors import InvalidInputError


def reachability_oracle(dist, eps, min_pts):
    """Brute-force DBSCAN: transitive closure of the eps-graph over core points.

    Clusters are numbered by their smallest core row index; border points
    join the lowest-numbered cluster owning a core within eps. This mirrors
    the documented determinism of the row-order scan exactly.
    """
    n = dist.shape[0]
    within = dist <= eps
    core = [i for i in range(n) if within[i].sum() >= min_pts]
    core_set = set(core)

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in core:
        for j in core:
            if i < j and within[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    components = {}
    for i in core:
        components.setdefault(find(i), []).append(i)
    ordered = sorted(components.values(), key=min)
    cluster_of = {}
    for cid, members in enumerate(ordered):
        for i in members:
            cluster_of[i] = cid

    labels = np.full(n, NOISE, dtype=int)
    for i in core:
        labels[i] = cluster_of[i]
    for i in range(n):
        if i in core_set:
            continue
        candidates = [cluster_of[j] for j in core if within[i, j]]
        if candidates:
            labels[i] = min(candidates)
    return labels


def oracle_roles(dist, eps, min_pts, labels):
    """Roles implied by the eps-graph of ``dist`` and the oracle's labels."""
    core = (dist <= eps).sum(axis=1) >= min_pts
    return np.where(core, "core", np.where(labels == NOISE, "noise", "border"))


def coded(rows, schema):
    """Float table of ``rows``: each nominal cell becomes its index among the column's sorted levels."""
    columns = []
    for column, kind in zip(zip(*rows), schema.kinds):
        if kind == "nominal":
            levels = sorted(set(column))
            column = [levels.index(v) for v in column]
        columns.append(column)
    return np.array(columns, dtype=float).T


def scalar_distances(rows, schema):
    """n x n distances between ``rows`` by the per-pair ``mixed_euclidean``."""
    n = len(rows)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = mixed_euclidean(rows[i], rows[j], schema)
    return dist


@pytest.fixture
def row_blocks(monkeypatch):
    """DBSCAN blocks of ``_BLOCK_ROWS`` rows, so that small tables span several blocks."""
    monkeypatch.setattr(density, "_BLOCK_PAIRS", 0)


def as_partition(labels):
    clusters = {}
    noise = set()
    for i, lab in enumerate(labels):
        if lab == NOISE:
            noise.add(i)
        else:
            clusters.setdefault(lab, set()).add(i)
    return frozenset(frozenset(c) for c in clusters.values()), frozenset(noise)


class TestMixedEuclidean:
    def test_identical_rows(self):
        schema = DistanceSchema(kinds=("numeric", "nominal"))
        assert mixed_euclidean([1.0, "a"], [1.0, "a"], schema) == 0.0

    def test_nominal_mismatch_count(self):
        schema = DistanceSchema(kinds=("nominal",) * 6)
        a = ["x", "x", "x", "x", "x", "x"]
        b = ["y", "y", "y", "y", "x", "x"]
        assert mixed_euclidean(a, b, schema) == pytest.approx(2.0)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(21)
        kinds = ("numeric", "nominal", "numeric", "nominal", "numeric")
        schema = DistanceSchema(kinds=kinds)
        pool = ["a", "b", "c"]
        for _ in range(50):
            a = [rng.normal(), pool[rng.integers(3)], rng.normal(), pool[rng.integers(3)], rng.normal()]
            b = [rng.normal(), pool[rng.integers(3)], rng.normal(), pool[rng.integers(3)], rng.normal()]
            expected = 0.0
            for x, y, k in zip(a, b, kinds):
                if k == "numeric":
                    expected += (x - y) ** 2
                elif x != y:
                    expected += 1.0
            expected = expected**0.5
            assert mixed_euclidean(a, b, schema) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(22)
        schema = DistanceSchema(kinds=("numeric", "numeric", "nominal"))
        pool = ["u", "v"]
        rows = [[rng.normal(), rng.normal(), pool[rng.integers(2)]] for _ in range(30)]
        for _ in range(200):
            i, j, k = rng.integers(30, size=3)
            dij = mixed_euclidean(rows[i], rows[j], schema)
            dji = mixed_euclidean(rows[j], rows[i], schema)
            assert dij == pytest.approx(dji, abs=1e-12)
            dik = mixed_euclidean(rows[i], rows[k], schema)
            dkj = mixed_euclidean(rows[k], rows[j], schema)
            assert dij <= dik + dkj + 1e-9

    def test_pairwise_across_blocks_matches_broadcast(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2 * _BLOCK_ROWS + 17, 3))
        expected = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        dist = pairwise_distances(x)
        assert np.allclose(dist, expected, rtol=1e-14, atol=1e-14)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)

    def test_schema_mismatch(self):
        schema = DistanceSchema(kinds=("numeric",))
        with pytest.raises(InvalidInputError):
            mixed_euclidean([1.0, 2.0], [1.0, 2.0], schema)

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(23)
        schema = DistanceSchema(kinds=("numeric", "nominal", "numeric"))
        pool = ["a", "b", "c"]
        rows = [[rng.normal(), pool[rng.integers(3)], rng.normal()] for _ in range(12)]
        dist = pairwise_distances(coded(rows, schema), schema)
        for i in range(12):
            for j in range(12):
                assert dist[i, j] == pytest.approx(
                    mixed_euclidean(rows[i], rows[j], schema), abs=1e-12
                )


class TestDbscan:
    def test_ten_copies_one_cluster(self):
        x = np.tile([2.0, 3.0], (10, 1))
        out = dbscan(x, eps=1.0, min_pts=5)
        assert cluster_count(out) == 1
        assert out.noise_count == 0

    def test_two_blobs(self):
        rng = np.random.default_rng(31)
        a = rng.normal(scale=0.3, size=(20, 2))
        b = rng.normal(scale=0.3, size=(20, 2)) + [10.0, 0.0]
        x = np.vstack([a, b])
        out = dbscan(x, eps=1.0, min_pts=5)
        assert cluster_count(out) == 2
        assert out.noise_count == 0
        oracle = reachability_oracle(pairwise_distances(x), 1.0, 5)
        assert np.array_equal(out.labels, oracle)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(2, 41))
            d = int(rng.integers(1, 4))
            x = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, d))
            eps = float(rng.uniform(0.2, 2.5))
            min_pts = int(rng.integers(1, 8))
            out = dbscan(x, eps=eps, min_pts=min_pts)
            oracle = reachability_oracle(pairwise_distances(x), eps, min_pts)
            assert np.array_equal(out.labels, oracle)

    def test_mixed_data_matches_oracle(self):
        rng = np.random.default_rng(33)
        schema = DistanceSchema(kinds=("numeric", "nominal"))
        pool = ["a", "b"]
        for _ in range(20):
            n = int(rng.integers(5, 30))
            rows = [[float(rng.normal()), pool[rng.integers(2)]] for _ in range(n)]
            out = dbscan(coded(rows, schema), eps=1.0, min_pts=3, schema=schema)
            oracle = reachability_oracle(scalar_distances(rows, schema), 1.0, 3)
            assert np.array_equal(out.labels, oracle)

    def test_roles_and_invariants(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(40, 2))
        eps, min_pts = 0.8, 4
        out = dbscan(x, eps=eps, min_pts=min_pts)
        dist = pairwise_distances(x)
        within = dist <= eps
        for i in range(40):
            n_neighbors = within[i].sum()  # includes the point itself
            if out.roles[i] == "core":
                assert n_neighbors >= min_pts
            elif out.roles[i] == "noise":
                assert out.labels[i] == NOISE
                cores = [j for j in range(40) if out.roles[j] == "core"]
                assert not any(within[i, j] for j in cores)
            else:
                assert out.labels[i] != NOISE
                same = [
                    j
                    for j in range(40)
                    if out.roles[j] == "core" and out.labels[j] == out.labels[i]
                ]
                assert any(within[i, j] for j in same)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(30, 2))
        out = dbscan(x, eps=0.9, min_pts=3)
        perm = rng.permutation(30)
        out_p = dbscan(x[perm], eps=0.9, min_pts=3)
        unpermuted = np.empty(30, dtype=int)
        unpermuted[perm] = out_p.labels
        assert as_partition(out.labels) == as_partition(unpermuted)

    def test_noise_monotone_in_eps(self):
        rng = np.random.default_rng(36)
        x = rng.normal(size=(50, 2))
        previous = None
        for eps in [0.2, 0.4, 0.8, 1.6, 3.2]:
            out = dbscan(x, eps=eps, min_pts=4)
            if previous is not None:
                assert out.noise_count <= previous
            previous = out.noise_count

    def test_bad_parameters(self):
        x = np.zeros((3, 2))
        with pytest.raises(InvalidInputError):
            dbscan(x, eps=0.0, min_pts=5)
        with pytest.raises(InvalidInputError):
            dbscan(x, eps=1.0, min_pts=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            dbscan(np.array([[1.0], [np.inf]]), eps=1.0, min_pts=1)

    def test_string_rows_are_coded_on_entry(self):
        # "1" and "01" are distinct levels, though both parse as the number 1
        schema = DistanceSchema(kinds=("numeric", "nominal"))
        rows = [(0.0, "b"), (0.1, "1"), (0.2, "01"), (0.3, "b"), (0.4, "a")]
        coded = np.array([[0.0, 3.0], [0.1, 1.0], [0.2, 0.0], [0.3, 3.0], [0.4, 2.0]])
        assert np.array_equal(pairwise_distances(rows, schema), pairwise_distances(coded, schema))
        assert np.array_equal(pairwise_distances(rows, schema), scalar_distances(rows, schema))
        assert dbscan(rows, 0.5, 2, schema).labels.tolist() == dbscan(coded, 0.5, 2, schema).labels.tolist()

    def test_non_numeric_cells_rejected(self):
        mixed = DistanceSchema(kinds=("numeric", "nominal"))
        for rows, schema in [
            ([(0.0, "a"), (0.1, "b")], None),  # every column numeric
            ([("x", "a"), (0.1, "b")], mixed),  # a string in the numeric column
            ([(0.0, 1), (0.1, "b")], mixed),  # nominal levels that do not sort
        ]:
            with pytest.raises(InvalidInputError, match="non-numeric cell"):
                dbscan(rows, eps=1.0, min_pts=1, schema=schema)
            with pytest.raises(InvalidInputError, match="non-numeric cell"):
                pairwise_distances(rows, schema)

    def test_row_width_must_match_schema(self):
        # a third cell is neither dropped nor counted: the table is refused
        rows = np.array([[0.0, 0.0, 100.0], [0.1, 0.0, -100.0], [0.2, 0.0, 50.0]])
        strings = [(0.0, "a", 100.0), (0.1, "a", -100.0), (0.2, "a", 50.0)]
        for kinds in [("numeric", "nominal"), ("numeric", "numeric")]:
            for table in (rows, strings):
                with pytest.raises(InvalidInputError, match="with 2 columns"):
                    dbscan(table, eps=1.0, min_pts=2, schema=DistanceSchema(kinds=kinds))
        with pytest.raises(InvalidInputError, match="2-D"):
            dbscan([(0.0, 1.0), (0.5,)], eps=1.0, min_pts=2)
        with pytest.raises(InvalidInputError, match="2-D"):
            pairwise_distances(np.zeros(4))

    def test_dataset_feature_rows_are_sorted_level_codes(self):
        rng = np.random.default_rng(37)
        n = 60
        colour = np.asarray([["red", "blue", "green"][i] for i in rng.integers(3, size=n)], dtype=object)
        ds = Dataset(
            name="m",
            columns=[ColumnSpec("id", kind="nominal", role="id"), ColumnSpec("x"),
                     ColumnSpec("colour", kind="nominal"), ColumnSpec("y")],
            values=[np.arange(n).astype(str).astype(object), rng.normal(size=n), colour,
                    rng.normal(size=n)],
        )
        table = ds.feature_rows()
        assert table.dtype == np.float64 and table.shape == (n, 3)
        assert np.array_equal(table[:, 0], ds.values[1])
        assert np.array_equal(table[:, 2], ds.values[3])
        levels = ["blue", "green", "red"]
        assert table[:, 1].tolist() == [float(levels.index(c)) for c in colour]

        schema = ds.distance_schema()
        rows = list(zip(ds.values[1], colour, ds.values[3]))
        dist = scalar_distances(rows, schema)
        for eps, min_pts in [(0.8, 3), (1.2, 5)]:
            assert_matches_oracle(table, eps, min_pts, schema, dist)

    def test_dataset_without_regular_columns(self):
        ds = Dataset(name="e", columns=[ColumnSpec("id", role="id")], values=[np.arange(3.0)])
        table = ds.feature_rows()
        assert table.shape == (3, 0)
        assert list(dbscan(table, eps=1.0, min_pts=3, schema=ds.distance_schema()).labels) == [0] * 3


class TestEpsGraph:
    """DBSCAN builds its eps-graph in row blocks; it must match the full matrix."""

    # 7 and 9 rows fill part of a byte of the packed graph; 65 and 8 * 64 + 3
    # end on a partial byte after several blocks, and their frontier windows
    # start mid-byte
    @pytest.mark.parametrize(
        "n",
        [1, 7, 9, _BLOCK_ROWS // 2, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 17,
         8 * _BLOCK_ROWS + 3],
    )
    @pytest.mark.usefixtures("row_blocks")
    def test_block_boundaries_match_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(scale=1.5, size=(n, 3))
        for eps, min_pts in [(0.8, 1), (1.0, 4), (1.5, 7)]:
            assert_matches_oracle(x, eps, min_pts)

    @pytest.mark.usefixtures("row_blocks")
    def test_mixed_rows_across_blocks_match_oracle(self):
        rng = np.random.default_rng(41)
        schema = DistanceSchema(kinds=("numeric", "nominal", "numeric", "nominal"))
        pool = ["a", "b", "c"]
        n = 2 * _BLOCK_ROWS + 17
        rows = [
            (float(rng.normal()), pool[rng.integers(3)], float(rng.normal()), pool[rng.integers(2)])
            for _ in range(n)
        ]
        for eps, min_pts in [(1.0, 3), (1.5, 5), (2.0, 9)]:
            assert_rows_match_oracle(rows, eps, min_pts, schema)

    @pytest.mark.usefixtures("row_blocks")
    def test_boundary_ties_match_oracle(self):
        # a grid of step 0.5 puts many pairs at exactly eps
        grid = np.array([[0.5 * i, 0.5 * j] for i in range(12) for j in range(9)])
        for eps in (0.5, 1.0, 1.5):
            assert_matches_oracle(grid, eps, 5)

    def test_threshold_is_largest_square_within_eps(self):
        rng = np.random.default_rng(42)
        values = [1.0, 0.5, 0.1, 0.3, 2.0, 1e-3, 1e150, 1e-150, 7.0, 1e-160]
        values += list(rng.uniform(0.01, 10.0, size=500))
        values += list(10.0 ** rng.uniform(-100, 100, size=500))
        for eps in values:
            t = _squared_threshold(eps)
            assert math.sqrt(t) <= eps < math.sqrt(math.nextafter(t, math.inf))

    def test_pair_between_eps_squared_and_threshold_is_neighbour(self):
        # squared distance 1 + 2**-52 exceeds eps**2 = 1, yet its sqrt rounds to 1.0
        x = np.array([[0.0, 0.0], [1.0, 2.0**-26]])
        sq = 1.0 + (2.0**-26) ** 2
        assert _squared_threshold(1.0) == math.nextafter(1.0, math.inf) == sq
        assert pairwise_distances(x)[0, 1] == 1.0
        out = dbscan(x, eps=1.0, min_pts=2)
        assert list(out.labels) == [0, 0]
        assert list(out.roles) == ["core", "core"]

    def test_blocks_take_the_pair_budget(self, monkeypatch):
        # a small table is one block; a large one takes blocks of _BLOCK_ROWS rows
        rows = []
        blocks = density._near_blocks

        def recording(*args):
            for step in blocks(*args):
                rows.append(step[1] - step[0])
                yield step

        monkeypatch.setattr(density, "_near_blocks", recording)
        rng = np.random.default_rng(44)
        dbscan(rng.normal(size=(200, 2)), eps=0.5, min_pts=5)
        assert rows == [200]
        rows.clear()
        n = density._BLOCK_PAIRS // _BLOCK_ROWS + 1
        dbscan(rng.normal(size=(n, 2)), eps=0.5, min_pts=5)
        assert rows == [_BLOCK_ROWS] * (n // _BLOCK_ROWS) + [n % _BLOCK_ROWS]

    def test_peak_memory_below_one_float_matrix(self):
        n = 2000
        x = np.random.default_rng(43).normal(size=(n, 3))
        full_matrix = n * n * 8  # one float64 n x n matrix: 32 MB
        tracemalloc.start()
        try:
            dbscan(x, eps=0.5, min_pts=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_matrix / 2

    def test_peak_memory_below_half_a_byte_per_pair(self):
        # the eps-graph is packed one bit per pair; a byte per pair alone
        # would take n * n = 4 MB here
        n = 2000
        x = np.random.default_rng(43).normal(size=(n, 3))
        tracemalloc.start()
        try:
            dbscan(x, eps=0.5, min_pts=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n / 2


def assert_matches_oracle(data, eps, min_pts, schema=None, dist=None):
    """Labels and roles of ``dbscan`` equal the oracle's on the full distance matrix.

    ``dist`` defaults to ``pairwise_distances`` of the same table.
    """
    out = dbscan(data, eps=eps, min_pts=min_pts, schema=schema)
    if dist is None:
        dist = pairwise_distances(data, schema)
    labels = reachability_oracle(dist, eps, min_pts)
    assert np.array_equal(out.labels, labels)
    assert np.array_equal(out.roles, oracle_roles(dist, eps, min_pts, labels))


def assert_rows_match_oracle(rows, eps, min_pts, schema):
    """``dbscan`` on the coded table of ``rows``; the oracle on their ``mixed_euclidean``."""
    assert_matches_oracle(coded(rows, schema), eps, min_pts, schema, scalar_distances(rows, schema))


def farthest_neighbour(a, t):
    """The largest double b >= a whose key term fl((b - a)^2) stays within t."""
    b = a + math.sqrt(t)
    while (b - a) * (b - a) > t:
        b = math.nextafter(b, -math.inf)
    while (math.nextafter(b, math.inf) - a) ** 2 <= t:
        b = math.nextafter(b, math.inf)
    return b


class TestSweep:
    """The sorted sweep prunes pairs by one key column; the result must stay exact."""

    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_pairs_exactly_at_eps_on_key(self, eps):
        # steps of 0.25 on the key column put many pairs at exactly eps
        x = np.column_stack([0.25 * np.arange(150), np.full(150, 3.0)])
        for min_pts in (2, 3, 5):
            assert_matches_oracle(x, eps, min_pts)

    def test_offset_keys_at_the_window_edge(self):
        # keys near 1e6 have a spacing of 1.2e-10, so key +/- margin rounds by
        # far more than eps * 2^-40; each key is the last double still within
        # eps = 1e-3 of the one before, on the edge of its window
        eps = 1e-3
        t = _squared_threshold(eps)
        keys = [1e6]
        for _ in range(120):
            keys.append(farthest_neighbour(keys[-1], t))
        x = np.column_stack([keys, np.zeros(len(keys))])
        for min_pts in (2, 3):
            assert_matches_oracle(x, eps, min_pts)
        assert cluster_count(dbscan(x, eps=eps, min_pts=3)) == 1

    @pytest.mark.parametrize("eps", [1e-3, 0.3, 1.0])
    def test_farthest_neighbour_pairs_are_one_cluster(self, eps):
        # a and b straddle zero or a power of two, so b - a rounds; a window
        # of exactly sqrt(t) around a misses b for most of these pairs
        rng = np.random.default_rng(60)
        t = _squared_threshold(eps)
        for a in rng.normal(scale=eps, size=100):
            x = np.array([[a], [farthest_neighbour(float(a), t)]])
            out = dbscan(x, eps=eps, min_pts=2)
            assert list(out.labels) == [0, 0]
            assert list(out.roles) == ["core", "core"]

    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e6, 1e150])
    def test_window_holds_every_neighbour(self, scale):
        rng = np.random.default_rng(61)
        for a in rng.normal(scale=scale, size=50):
            for eps in (1e-3 * scale, scale, 5e-324, 1.0):
                t = _squared_threshold(eps)
                b = farthest_neighbour(float(a), t)
                margin = _key_margin(t, max(abs(a), abs(b)))
                assert b <= a + margin  # b lies in a's window
                assert b - margin <= a  # and a in b's

    def test_duplicate_rows_and_constant_key(self):
        rng = np.random.default_rng(62)
        base = rng.normal(scale=2.0, size=(40, 2))
        x = np.column_stack([np.repeat(base, 3, axis=0), np.full(120, 7.0)])
        for eps, min_pts in [(0.5, 3), (1.0, 4), (2.0, 6)]:
            assert_matches_oracle(x, eps, min_pts)
        constant = np.full((90, 3), -4.5)
        assert_matches_oracle(constant, 1.0, 5)
        assert list(dbscan(constant, eps=1.0, min_pts=91).roles) == ["noise"] * 90

    @pytest.mark.usefixtures("row_blocks")
    def test_all_nominal_schema_is_one_window(self):
        rng = np.random.default_rng(63)
        schema = DistanceSchema(kinds=("nominal",) * 3)
        pool = ["a", "b", "c"]
        rows = [tuple(pool[i] for i in rng.integers(3, size=3)) for _ in range(2 * _BLOCK_ROWS + 5)]
        for eps, min_pts in [(0.5, 3), (1.0, 6), (1.5, 20)]:
            assert_rows_match_oracle(rows, eps, min_pts, schema)
        order, lo, hi = _sweep_order(np.empty((len(rows), 0)), _squared_threshold(1.0))
        assert np.array_equal(order, np.arange(len(rows)))
        assert set(lo.tolist()) == {0} and set(hi.tolist()) == {len(rows)}

    @pytest.mark.usefixtures("row_blocks")
    def test_mixed_schema_with_spread_key(self):
        rng = np.random.default_rng(64)
        schema = DistanceSchema(kinds=("nominal", "numeric", "nominal", "numeric"))
        rows = [
            ("uv"[rng.integers(2)], float(rng.uniform(0, 40)), "xyz"[rng.integers(3)],
             float(rng.normal()))
            for _ in range(3 * _BLOCK_ROWS)
        ]
        for eps, min_pts in [(1.0, 2), (1.5, 4), (2.5, 6)]:
            assert_rows_match_oracle(rows, eps, min_pts, schema)

    def test_single_row(self):
        assert_matches_oracle(np.array([[1e6, -3.0]]), 1e-3, 1)
        assert_matches_oracle(np.array([[2.0]]), 1.0, 2)
        assert_rows_match_oracle([("a",)], 1.0, 1, DistanceSchema(kinds=("nominal",)))

    def test_best_key_is_not_column_zero(self):
        rng = np.random.default_rng(65)
        n = 400
        x = np.column_stack([rng.normal(scale=0.2, size=n), rng.uniform(0, 100, size=n)])
        order, _, _ = _sweep_order(x, _squared_threshold(1.0))
        assert np.array_equal(order, np.argsort(x[:, 1], kind="stable"))
        for eps, min_pts in [(1.0, 3), (2.0, 5)]:
            assert_matches_oracle(x, eps, min_pts)

    def test_spread_table_prunes_pairs(self, monkeypatch):
        rng = np.random.default_rng(66)
        n = 2000
        x = np.column_stack([rng.uniform(0, 1000, size=n), rng.normal(size=n)])
        computed = []
        blocks = density._near_blocks

        def counting(numeric, nominal, t, lo, hi):
            for start, stop, first, near in blocks(numeric, nominal, t, lo, hi):
                computed.append(near.size)
                yield start, stop, first, near

        monkeypatch.setattr(density, "_near_blocks", counting)
        dbscan(x, eps=1.0, min_pts=4)
        # all rows would be n * n pairs; windows of +-1 over a spread of 1000
        # leave well under a twentieth of that
        assert 0 < sum(computed) < n * n / 20


class TestSweepProperties:
    @pytest.mark.usefixtures("row_blocks")
    def test_sweep_matches_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def tables(draw):
            n = draw(st.integers(1, 70))
            n_numeric = draw(st.integers(0, 3))
            n_nominal = draw(st.integers(0 if n_numeric else 1, 2))
            offset = draw(st.sampled_from([0.0, -50.0, 1e6]))
            step = draw(st.sampled_from([0.25, 0.5, 1e-3, 0.3]))
            grid = st.integers(-8, 8).map(lambda i: offset + step * i)
            kinds = ("numeric",) * n_numeric + ("nominal",) * n_nominal
            rows = [
                tuple(draw(grid) for _ in range(n_numeric))
                + tuple(draw(st.sampled_from("ab")) for _ in range(n_nominal))
                for _ in range(n)
            ]
            eps = draw(st.sampled_from([step, 2 * step, 3.5 * step, 1.0]))
            return rows, DistanceSchema(kinds=kinds), eps, draw(st.integers(1, 6))

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(tables())
        def check(case):
            rows, schema, eps, min_pts = case
            assert_rows_match_oracle(rows, eps, min_pts, schema)

        check()


def offset_chain(start, eps, length):
    """Keys from ``start``, each the farthest double still within eps of the one before."""
    t = _squared_threshold(eps)
    keys = [start]
    for _ in range(length - 1):
        keys.append(farthest_neighbour(keys[-1], t))
    return np.array(keys)


class TestOneColumn:
    """One numeric column and no nominal one: neighbourhoods are runs of the sorted keys."""

    @pytest.mark.parametrize(
        "keys, eps",
        [
            (0.25 * np.arange(60), 0.25),  # pairs exactly at eps
            (0.25 * np.arange(60), 0.5),
            (np.repeat([0.0, 1.0, 1.5, 4.0, 4.5, 9.0], [3, 1, 4, 2, 5, 1]), 0.5),  # duplicates
            (offset_chain(1e6, 1e-3, 80), 1e-3),  # keys spaced 1.2e-10 apart
            (offset_chain(-2.5e-3, 1e-3, 8), 1e-3),  # keys straddling 0
            (np.array([7.0]), 1.0),
        ],
    )
    def test_runs_match_oracle(self, keys, eps):
        x = np.random.default_rng(70).permutation(keys)[:, None]
        for min_pts in (1, 2, 3, 5, 7):
            assert_matches_oracle(x, eps, min_pts)

    @pytest.mark.parametrize("left_first", [True, False])
    def test_border_between_two_clusters_takes_smaller_id(self, left_first):
        # 1.0 lies exactly eps from the cores 0.0 and 2.0, which are 2 eps apart
        left, right = [-1.0, -1.0, -1.0, 0.0], [2.0, 3.0, 3.0, 3.0]
        keys = (left + right if left_first else right + left) + [1.0]
        x = np.array(keys)[:, None]
        out = dbscan(x, eps=1.0, min_pts=4)
        assert out.roles[-1] == "border"
        assert out.labels[-1] == 0
        assert cluster_count(out) == 2
        assert_matches_oracle(x, 1.0, 4)

    def test_builds_no_graph(self, monkeypatch):
        blocks = []

        def spy(numeric, nominal, t, lo, hi):
            blocks.append(numeric.shape)
            return near_blocks(numeric, nominal, t, lo, hi)

        near_blocks = density._near_blocks
        monkeypatch.setattr(density, "_near_blocks", spy)
        rows = [(float(v), "ab"[i % 2]) for i, v in enumerate(np.linspace(0.0, 10.0, 40))]
        dbscan(np.array([[r[0]] for r in rows]), eps=1.0, min_pts=3)
        assert blocks == []
        schema = DistanceSchema(kinds=("numeric", "nominal"))
        dbscan(coded(rows, schema), eps=1.0, min_pts=3, schema=schema)
        assert blocks == [(40, 1)]

    def test_runs_match_oracle_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def columns(draw):
            offset = draw(st.sampled_from([0.0, -0.75, 1e6]))
            step = draw(st.sampled_from([0.25, 0.5, 1e-3, 0.3]))
            keys = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=80))
            eps = draw(st.sampled_from([step, 2 * step, 3.5 * step, 1.0]))
            x = np.array([[offset + step * k] for k in keys])
            return x, eps, draw(st.integers(1, 7))

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(columns())
        def check(case):
            x, eps, min_pts = case
            assert_matches_oracle(x, eps, min_pts)

        check()


def band_pairs(monkeypatch):
    """List that receives the size of each set of pairs decided one by one, inside the band."""
    pairs = []
    column_sums = density._column_sums

    def counting(numeric, nominal, rows, cols, q, diff):
        if isinstance(rows, np.ndarray):
            pairs.append(rows.size)
        column_sums(numeric, nominal, rows, cols, q, diff)

    monkeypatch.setattr(density, "_column_sums", counting)
    return pairs


def upper_sqrt(value):
    """A Fraction at least sqrt(value), within a relative 2^-200 of it."""
    shift = 201 + max(0, value.denominator.bit_length() - value.numerator.bit_length()) // 2
    return Fraction(math.isqrt(value.numerator * 4**shift // value.denominator) + 1, 2**shift)


def proved_band(t, largest_norm, p, r, width):
    """The ``_band`` formula evaluated exactly: the bound its docstring proves."""
    u, tiniest = Fraction(1, 2**53), Fraction(1, 2**1074)

    def gamma(k):
        return k * u / (1 - k * u)

    t, x = Fraction(t), (Fraction(largest_norm) + p * tiniest) / (1 - gamma(p))
    over_t = (gamma(p + r + 2) * t + p * tiniest) / (1 - gamma(p + r + 2))
    rho = 2 * u * upper_sqrt(x)
    return (
        over_t
        + rho * (2 * upper_sqrt(t + over_t) + rho)
        + gamma(width) * (4 * x + r)
        + 2 * gamma(p) * x
        + (width + 2 * p) * tiniest
    )


class TestBand:
    """Pairs whose product lies within the rounding band are decided by the column sums."""

    @pytest.mark.usefixtures("row_blocks")
    def test_offset_pairs_at_the_window_edge_enter_the_band(self, monkeypatch):
        # each key is the farthest double within eps of the one before, so q
        # sits within 2.3e-7 of t; decoys on the same keys, 50 away in the
        # second column, widen the band of every window to ~4e-6 t
        eps = 1e-3
        keys = offset_chain(1e6, eps, 100)
        x = np.vstack([
            np.column_stack([keys, np.zeros(keys.size)]),
            np.column_stack([keys, np.where(np.arange(keys.size) % 2, 50.0, -50.0)]),
        ])
        pairs = band_pairs(monkeypatch)
        for min_pts in (2, 3):
            assert_matches_oracle(x, eps, min_pts)
        assert sum(pairs) > 0

    @pytest.mark.parametrize("scale", [1e152, 1.5e153, 1e200])
    def test_huge_columns_with_equal_rows(self, scale):
        # steps of scale put pairs at eps; at 1.5e153 the product could
        # overflow, so the band is inf, and at 1e200 the squared norms do
        rng = np.random.default_rng(80)
        grid = rng.integers(-3, 4, size=(30, 2)).astype(float)
        x = scale * np.repeat(grid, 2, axis=0)
        # at 1e200 squared distances pass the double range: the column sums
        # round them to inf, and no scale may warn
        with np.errstate(over="raise"):
            for eps, min_pts in [(scale, 3), (1.5 * scale, 5), (1e-300, 2)]:
                assert_matches_oracle(x, eps, min_pts)

    @pytest.mark.usefixtures("row_blocks")
    def test_far_apart_groups_near_the_double_range(self):
        # the mean and norms of the augmented rows overflow, though no
        # window holds a pair across the groups: the band is inf and every
        # pair is decided by the column sums, without a warning
        x = np.vstack([np.full((2 * _BLOCK_ROWS, 2), 1.7e308), np.full((2 * _BLOCK_ROWS, 2), -1.7e308)])
        with np.errstate(all="raise"):
            for eps in (1.0, 1e150):
                out = dbscan(x, eps=eps, min_pts=3)
                assert out.labels.tolist() == [0] * (2 * _BLOCK_ROWS) + [1] * (2 * _BLOCK_ROWS)
                assert set(out.roles) == {"core"}

    @pytest.mark.parametrize("eps", [1e-160, 3e-162, 1e-322])
    def test_underflowing_squares(self, eps, monkeypatch):
        # fl((a - b)^2) and the products land in the subnormal range, where
        # rounding is absolute; grid steps of eps / 2 put pairs at eps
        rng = np.random.default_rng(81)
        x = 0.5 * eps * rng.integers(-6, 7, size=(90, 2))
        pairs = band_pairs(monkeypatch)
        for min_pts in (2, 4):
            assert_matches_oracle(x, eps, min_pts)
        assert sum(pairs) > 0

    @pytest.mark.usefixtures("row_blocks")
    def test_nominal_mixed_and_duplicate_tables_enter_the_band(self, monkeypatch):
        rng = np.random.default_rng(82)
        pairs = band_pairs(monkeypatch)
        # one mismatch is exactly eps = 1
        nominal = DistanceSchema(kinds=("nominal",) * 2)
        rows = [tuple("abc"[i] for i in rng.integers(3, size=2)) for _ in range(70)]
        assert_rows_match_oracle(rows, 1.0, 4, nominal)
        assert sum(pairs) > 0
        pairs.clear()
        # one mismatch plus a numeric step of 0 or 0.5 sits at eps in 1 or 1.25
        mixed = DistanceSchema(kinds=("numeric", "nominal", "numeric"))
        rows = [(0.5 * int(rng.integers(4)), "uv"[rng.integers(2)], 0.5 * int(rng.integers(3)))
                for _ in range(80)]
        for eps in (1.0, math.sqrt(1.25)):
            assert_rows_match_oracle(rows, eps, 3, mixed)
        assert sum(pairs) > 0
        pairs.clear()
        # duplicates at q = 0 with an eps far below the rounding of the product
        x = np.repeat(rng.normal(size=(40, 3)), 3, axis=0)
        assert_matches_oracle(x, 1e-9, 3)
        assert sum(pairs) > 0

    @pytest.mark.parametrize(
        "extra, columns", [(4, 1), (4, 2), (0, 2)], ids=["one-column", "two-columns", "at-the-cut-over"]
    )
    def test_many_nominal_levels_take_the_column_sums(self, extra, columns, monkeypatch):
        # the nominal columns share _ONE_HOT_COLUMNS + extra levels; only a
        # table within the cut-over takes the products and their band
        rng = np.random.default_rng(83)
        schema = DistanceSchema(kinds=("numeric",) + ("nominal",) * columns)
        levels = (density._ONE_HOT_COLUMNS + extra) // columns
        codes = [rng.permutation(np.arange(150) % levels) for _ in range(columns)]
        rows = [(float(rng.normal()),) + tuple(int(c[i]) for c in codes) for i in range(150)]
        bands = []
        band = density._band
        monkeypatch.setattr(density, "_band", lambda *args: bands.append(args) or band(*args))
        for eps, min_pts in [(1.0, 3), (1.2, 5)]:
            assert_rows_match_oracle(rows, eps, min_pts, schema)
        assert (bands != []) == (extra == 0)

    @pytest.mark.parametrize("width", [1e300, math.inf])
    @pytest.mark.usefixtures("row_blocks")
    def test_widened_band_decides_every_pair_exactly(self, width, monkeypatch):
        # 1e300 sends every pair through the one-by-one column sums, inf
        # sends every block through the blocked ones
        monkeypatch.setattr(density, "_band", lambda *args: width)
        pairs, computed = band_pairs(monkeypatch), []
        blocks = density._near_blocks

        def counting(*args):
            for step in blocks(*args):
                computed.append(step[3].size)
                yield step

        monkeypatch.setattr(density, "_near_blocks", counting)
        rng = np.random.default_rng(84)
        grid = np.array([[0.5 * i, 0.5 * j] for i in range(12) for j in range(9)])
        assert_matches_oracle(grid, 1.0, 5)
        schema = DistanceSchema(kinds=("nominal", "numeric", "numeric"))
        rows = [("xy"[rng.integers(2)], float(rng.normal()), float(rng.uniform(0, 8)))
                for _ in range(2 * _BLOCK_ROWS + 9)]
        assert_rows_match_oracle(rows, 1.0, 4, schema)
        assert sum(pairs) == (sum(computed) if width < math.inf else 0)

    @pytest.mark.parametrize("size", [1, 2**60])
    def test_products_in_chunks_or_whole_match_oracle(self, size, monkeypatch):
        # 8-column products, or one product per block, which a multi-threaded
        # BLAS splits across its threads
        monkeypatch.setattr(density, "_PRODUCT_SIZE", size)
        rng = np.random.default_rng(86)
        schema = DistanceSchema(kinds=("numeric", "numeric", "nominal"))
        x = np.column_stack([
            0.25 * rng.integers(0, 12, size=600), 0.25 * rng.integers(0, 8, size=600),
            rng.integers(0, 3, size=600),
        ])
        assert_matches_oracle(x, 1.0, 6, schema)

    def test_column_sums_of_single_pairs_match_the_blocks(self):
        rng = np.random.default_rng(85)
        numeric = rng.normal(size=(70, 3)) * [1e-3, 1.0, 1e6]
        nominal = rng.integers(3, size=(70, 2)).astype(float)
        blocks = np.empty((70, 70))
        density._column_sums(
            numeric, nominal, np.s_[:, None], np.s_[None, :], blocks, np.empty((70, 70))
        )
        rows, cols = np.triu_indices(70)
        q = np.empty(rows.size)
        density._column_sums(numeric, nominal, rows, cols, q, np.empty(rows.size))
        assert np.array_equal(q, blocks[rows, cols])

    @pytest.mark.parametrize(
        "t, largest_norm, p, r, width",
        [
            (1e-6, 1e-10, 2, 0, 4),  # rows close together: q's own rounding leads
            (1e-6, 2500.0, 2, 0, 4),  # the product's rounding leads
            (0.01, 20.0, 5, 1, 10),
            (1.0, 0.0, 0, 2, 8),  # nominal columns only
            (1e-320, 3e-320, 2, 1, 7),  # squares underflow
            (1e-320, 3e-320, 40, 0, 42),
            (1e300, 1e300, 3, 0, 5),
            (1.0, 3.0, 80, 0, 82),
        ],
    )
    def test_band_is_the_proved_bound(self, t, largest_norm, p, r, width):
        proved = proved_band(t, largest_norm, p, r, width)
        delta = Fraction(density._band(t, largest_norm, p, r, width))
        assert proved <= delta <= proved * (1 + Fraction(1, 2**30)) + Fraction(1, 2**1069)

    def test_band_is_inf_where_the_product_could_overflow(self):
        assert density._band(1.0, 2.0**1018, 2, 0, 4) == math.inf
        assert density._band(1.0, math.inf, 2, 0, 4) == math.inf
        assert density._band(1.0, math.nan, 2, 0, 4) == math.inf
        assert density._band(1.0, 2.0**1016, 2, 0, 4) < math.inf

    @pytest.mark.usefixtures("row_blocks")
    def test_band_holds_every_decision_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def tables(draw):
            n = draw(st.integers(1, 50))
            n_numeric = draw(st.integers(0, 4))
            n_nominal = draw(st.integers(0 if n_numeric else 1, 2))
            scale = draw(st.sampled_from([1e-161, 1e-3, 1.0, 1e6, 1e150]))
            offset = draw(st.sampled_from([0.0, 1.0, 1e6])) * scale
            step = draw(st.sampled_from([0.25, 0.3, 1e-3])) * scale
            numeric = offset + step * np.array(
                draw(st.lists(st.integers(-9, 9), min_size=n * n_numeric, max_size=n * n_numeric)),
                dtype=float,
            ).reshape(n, n_numeric)
            nominal = np.array(
                draw(st.lists(st.integers(0, 2), min_size=n * n_nominal, max_size=n * n_nominal)),
                dtype=float,
            ).reshape(n, n_nominal)
            eps = draw(st.sampled_from([1.0, 2.0, 3.5])) * step
            return numeric, nominal, eps, draw(st.integers(1, 6))

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(tables())
        def check(case):
            numeric, nominal, eps, min_pts = case
            n, t = numeric.shape[0], _squared_threshold(eps)
            left, right, norms = density._augmented(numeric, nominal)
            delta = density._band(t, float(norms.max()), numeric.shape[1], nominal.shape[1],
                                  left.shape[1])
            if delta < math.inf:
                rows, cols = np.indices((n, n)).reshape(2, -1)
                q = np.empty(rows.size)
                density._column_sums(numeric, nominal, rows, cols, q, np.empty(rows.size))
                g = (left @ right.T).reshape(-1)
                assert np.all(g[q <= t] <= t + delta)
                assert np.all(g[q > t] >= t - delta)
            schema = DistanceSchema(("numeric",) * numeric.shape[1] + ("nominal",) * nominal.shape[1])
            assert_matches_oracle(np.hstack([numeric, nominal]), eps, min_pts, schema)

        check()


class TestClusterCount:
    def test_all_noise(self):
        a = ClusterAssignment(labels=np.array([NOISE, NOISE]), roles=np.array(["noise", "noise"]))
        assert cluster_count(a) == 0

    def test_two_clusters_with_noise(self):
        a = ClusterAssignment(
            labels=np.array([0, 0, 1, NOISE]),
            roles=np.array(["core", "core", "core", "noise"]),
        )
        assert cluster_count(a) == 2
