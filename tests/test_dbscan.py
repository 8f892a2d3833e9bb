import math
import tracemalloc

import numpy as np
import pytest

import redclust.density as density
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
        dist = pairwise_distances(rows, schema)
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
            out = dbscan(rows, eps=1.0, min_pts=3, schema=schema)
            oracle = reachability_oracle(pairwise_distances(rows, schema), 1.0, 3)
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


class TestEpsGraph:
    """DBSCAN builds its eps-graph in row blocks; it must match the full matrix."""

    def assert_matches_oracle(self, data, eps, min_pts, schema=None):
        out = dbscan(data, eps=eps, min_pts=min_pts, schema=schema)
        dist = pairwise_distances(data, schema)
        labels = reachability_oracle(dist, eps, min_pts)
        assert np.array_equal(out.labels, labels)
        assert np.array_equal(out.roles, oracle_roles(dist, eps, min_pts, labels))

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS // 2, _BLOCK_ROWS, 3 * _BLOCK_ROWS + 17])
    def test_block_boundaries_match_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(scale=1.5, size=(n, 3))
        for eps, min_pts in [(0.8, 1), (1.0, 4), (1.5, 7)]:
            self.assert_matches_oracle(x, eps, min_pts)

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
            self.assert_matches_oracle(rows, eps, min_pts, schema)

    def test_boundary_ties_match_oracle(self):
        # a grid of step 0.5 puts many pairs at exactly eps
        grid = np.array([[0.5 * i, 0.5 * j] for i in range(12) for j in range(9)])
        for eps in (0.5, 1.0, 1.5):
            self.assert_matches_oracle(grid, eps, 5)

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


def assert_matches_oracle(data, eps, min_pts, schema=None):
    """Labels and roles of ``dbscan`` equal the oracle's on the full distance matrix."""
    out = dbscan(data, eps=eps, min_pts=min_pts, schema=schema)
    dist = pairwise_distances(data, schema)
    labels = reachability_oracle(dist, eps, min_pts)
    assert np.array_equal(out.labels, labels)
    assert np.array_equal(out.roles, oracle_roles(dist, eps, min_pts, labels))


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

    def test_all_nominal_schema_is_one_window(self):
        rng = np.random.default_rng(63)
        schema = DistanceSchema(kinds=("nominal",) * 3)
        pool = ["a", "b", "c"]
        rows = [tuple(pool[i] for i in rng.integers(3, size=3)) for _ in range(2 * _BLOCK_ROWS + 5)]
        for eps, min_pts in [(0.5, 3), (1.0, 6), (1.5, 20)]:
            assert_matches_oracle(rows, eps, min_pts, schema)
        order, lo, hi = _sweep_order(np.empty((len(rows), 0)), _squared_threshold(1.0))
        assert np.array_equal(order, np.arange(len(rows)))
        assert set(lo.tolist()) == {0} and set(hi.tolist()) == {len(rows)}

    def test_mixed_schema_with_spread_key(self):
        rng = np.random.default_rng(64)
        schema = DistanceSchema(kinds=("nominal", "numeric", "nominal", "numeric"))
        rows = [
            ("uv"[rng.integers(2)], float(rng.uniform(0, 40)), "xyz"[rng.integers(3)],
             float(rng.normal()))
            for _ in range(3 * _BLOCK_ROWS)
        ]
        for eps, min_pts in [(1.0, 2), (1.5, 4), (2.5, 6)]:
            assert_matches_oracle(rows, eps, min_pts, schema)

    def test_single_row(self):
        assert_matches_oracle(np.array([[1e6, -3.0]]), 1e-3, 1)
        assert_matches_oracle(np.array([[2.0]]), 1.0, 2)
        assert_matches_oracle([("a",)], 1.0, 1, DistanceSchema(kinds=("nominal",)))

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
        blocks = density._squared_blocks

        def counting(numeric, nominal, ends):
            for start, stop, end, sq in blocks(numeric, nominal, ends):
                computed.append(sq.size)
                yield start, stop, end, sq

        monkeypatch.setattr(density, "_squared_blocks", counting)
        dbscan(x, eps=1.0, min_pts=4)
        # all rows would be n * n / 2 pairs; windows of +-1 over a spread of 1000
        # leave well under a tenth of that
        assert 0 < sum(computed) < n * n / 20


class TestSweepProperties:
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
            assert_matches_oracle(rows, eps, min_pts, schema)

        check()


class TestClusterCount:
    def test_all_noise(self):
        a = ClusterAssignment(
            labels=np.array([NOISE, NOISE]), roles=np.array(["noise", "noise"]), eps=1.0, min_pts=5
        )
        assert cluster_count(a) == 0

    def test_two_clusters_with_noise(self):
        a = ClusterAssignment(
            labels=np.array([0, 0, 1, NOISE]),
            roles=np.array(["core", "core", "core", "noise"]),
            eps=1.0,
            min_pts=2,
        )
        assert cluster_count(a) == 2
