import numpy as np
import pytest

import redclust.mixture as mixture
from redclust.errors import InvalidConfigError
from redclust.mixture import (
    MixtureModel,
    em_fit,
    kmeans_init,
    log_likelihood,
    responsibilities,
)


def two_blobs(rng, n_per=100, sep=8.0):
    a = rng.normal(size=(n_per, 2)) * 0.5
    b = rng.normal(size=(n_per, 2)) * 0.5 + [sep, 0.0]
    labels = np.array([0] * n_per + [1] * n_per)
    return np.vstack([a, b]), labels


class TestKmeansInit:
    def test_k1_is_global_stats(self):
        rng = np.random.default_rng(41)
        x = rng.normal(loc=3.0, size=(30, 3))
        model = kmeans_init(x, k=1, seed=0)
        assert np.allclose(model.means[0], x.mean(axis=0), atol=1e-12)
        assert model.weights[0] == pytest.approx(1.0)
        assert np.allclose(model.variances[0], x.var(axis=0), atol=1e-12)

    def test_two_blobs_recovers_centers(self):
        rng = np.random.default_rng(42)
        x, _ = two_blobs(rng)
        model = kmeans_init(x, k=2, seed=3)
        found = model.means[np.argsort(model.means[:, 0])]
        assert np.linalg.norm(found[0] - [0.0, 0.0]) < 0.1
        assert np.linalg.norm(found[1] - [8.0, 0.0]) < 0.1
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(25, 2))
        a = kmeans_init(x, k=3, seed=9)
        b = kmeans_init(x, k=3, seed=9)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.variances, b.variances)

    def test_k_too_large(self):
        with pytest.raises(InvalidConfigError):
            kmeans_init(np.zeros((3, 2)), k=4, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_several_emptied_clusters_reseeded_at_distinct_rows(self):
        # three points, ten copies each: coincident starts empty two of the
        # three clusters in one step for some seeds
        x = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 10, axis=0)
        for seed in range(40):
            model = kmeans_init(x, k=3, seed=seed)
            assert np.isfinite(model.means).all(), seed
            assert np.all(model.weights > 0), seed

    @pytest.mark.filterwarnings("error")
    def test_fewer_distinct_rows_than_k(self):
        # two distinct rows for three clusters: one cluster stays empty
        x = np.array([[0.0], [1.0], [1.0]])
        for seed in range(40):
            model = kmeans_init(x, k=3, seed=seed)
            assert np.isfinite(model.means).all(), seed
            assert np.isfinite(model.variances).all(), seed
            assert np.all(model.variances >= mixture.VARIANCE_FLOOR), seed
            assert np.all(model.weights > 0), seed
            assert model.weights.sum() == pytest.approx(1.0, abs=1e-12), seed
            # the occupied clusters keep their rows' centroids
            assert {0.0, 1.0} <= set(model.means[:, 0]), seed


class TestEmFit:
    @pytest.mark.filterwarnings("error")
    def test_fewer_distinct_rows_than_k(self):
        x = np.array([[0.0]] + [[1.0]] * 5)
        for seed in range(40):
            model = em_fit(x, k=3, max_runs=5, max_steps=100, quality=1e-6, seed=seed)
            assert np.isfinite(model.weights).all(), seed
            assert np.isfinite(model.means).all(), seed
            assert np.isfinite(model.variances).all(), seed
            assert np.isfinite(model.mean_log_likelihood), seed
            assert model.weights.sum() == pytest.approx(1.0, abs=1e-12), seed

    def test_single_gaussian_recovered(self):
        rng = np.random.default_rng(44)
        x = rng.normal(loc=2.0, scale=1.5, size=(400, 1))
        model = em_fit(x, k=1, max_runs=2, max_steps=100, quality=1e-10, seed=5)
        se_mean = x.std() / np.sqrt(len(x))
        assert abs(model.means[0, 0] - x.mean()) < 3 * se_mean
        assert model.variances[0, 0] == pytest.approx(x.var(), rel=0.05)

    def test_two_blobs_responsibilities(self):
        rng = np.random.default_rng(45)
        x, truth = two_blobs(rng)
        model = em_fit(x, k=2, max_runs=5, max_steps=100, quality=1e-10, seed=7)
        resp = responsibilities(x, model)
        hard = np.argmax(resp, axis=1)
        # align component indexing with generating labels
        agreement = max(np.mean(hard == truth), np.mean(hard == 1 - truth))
        assert agreement >= 0.99

    def test_traces_non_decreasing(self):
        rng = np.random.default_rng(46)
        x = np.vstack([rng.normal(size=(60, 2)), rng.normal(size=(60, 2)) + 4.0])
        model = em_fit(x, k=2, max_runs=5, max_steps=100, quality=1e-10, seed=11)
        assert model.reset_events == []
        for trace in model.traces:
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-9)

    def test_best_run_selected(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(50, 2))
        model = em_fit(x, k=3, max_runs=5, max_steps=60, quality=1e-10, seed=13)
        finals = [t[-1] for t in model.traces]
        assert finals[model.chosen_run] == max(finals)
        assert model.mean_log_likelihood == pytest.approx(max(finals) / 50)

    def test_responsibilities_sum_to_one(self):
        rng = np.random.default_rng(48)
        x = rng.normal(size=(40, 3))
        model = em_fit(x, k=2, max_runs=2, max_steps=50, quality=1e-10, seed=1)
        resp = responsibilities(x, model)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(49)
        x = rng.normal(size=(45, 2))
        a = em_fit(x, k=2, max_runs=3, max_steps=40, quality=1e-10, seed=21)
        b = em_fit(x, k=2, max_runs=3, max_steps=40, quality=1e-10, seed=21)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.variances, b.variances)
        assert a.traces == b.traces

    def test_weights_sum_and_variance_floor(self):
        rng = np.random.default_rng(50)
        x = np.repeat(rng.normal(size=(4, 2)), 10, axis=0)  # exact duplicates
        model = em_fit(x, k=2, max_runs=2, max_steps=50, quality=1e-10, seed=2)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(model.variances >= 1e-9)

    def test_log_likelihood_matches_trace(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(30, 2))
        model = em_fit(x, k=2, max_runs=2, max_steps=30, quality=1e-10, seed=3)
        assert log_likelihood(x, model) == pytest.approx(
            model.traces[model.chosen_run][-1], abs=1e-8
        )

    def test_bad_config(self):
        x = np.zeros((5, 2))
        with pytest.raises(InvalidConfigError):
            em_fit(x, k=0, max_runs=1, max_steps=1, quality=1e-10, seed=0)
        with pytest.raises(InvalidConfigError):
            em_fit(x, k=2, max_runs=0, max_steps=1, quality=1e-10, seed=0)
        with pytest.raises(InvalidConfigError):
            em_fit(x, k=2, max_runs=1, max_steps=1, quality=0.0, seed=0)

    def test_nan_quality_rejected(self):
        # NaN compares false, so no step would ever count as converged
        with pytest.raises(InvalidConfigError, match="quality"):
            em_fit(np.zeros((5, 2)), k=2, max_runs=1, max_steps=3, quality=float("nan"), seed=0)


class TestEmProperties:
    """Fits stay well formed on awkward tables; this guards the kernels' numerics."""

    @pytest.mark.filterwarnings("error")
    def test_fit_is_well_formed(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def cases(draw):
            d = draw(st.integers(1, 4))
            scales = 10.0 ** np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
            n_distinct = draw(st.integers(1, 12))
            grid = st.integers(-6, 6)
            distinct = np.array(
                [[draw(grid) for _ in range(d)] for _ in range(n_distinct)], dtype=float
            )
            if draw(st.booleans()):
                distinct[:, 0] = draw(grid)  # a constant column
            repeats = draw(st.lists(st.integers(1, 5), min_size=n_distinct, max_size=n_distinct))
            x = np.repeat(distinct * scales, repeats, axis=0)  # duplicate rows
            k = min(draw(st.sampled_from([1, 2, 3, len(x)])), len(x))  # n == k included
            return x, k, draw(st.integers(0, 2**32 - 1))

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            x, k, seed = case
            model = em_fit(x, k=k, max_runs=3, max_steps=30, quality=1e-10, seed=seed)
            for name in ("weights", "means", "variances"):
                assert np.isfinite(getattr(model, name)).all(), name
            assert np.isfinite(model.mean_log_likelihood)
            assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(model.variances >= mixture.VARIANCE_FLOOR)
            resets = set(model.reset_events)
            for run, trace in enumerate(model.traces):
                assert np.isfinite(trace).all(), run
                for step, (before, after) in enumerate(zip(trace, trace[1:])):
                    if (run, step) not in resets:  # a reset may lower the likelihood
                        assert after >= before - 1e-9 * (1.0 + abs(before)), (run, step)

        check()


def em_fit_every_run(x, k, max_runs, max_steps, quality, seed):
    """(model, traces, chosen run, reset events) with every run iterated from its own start."""
    run_seeds = np.random.SeedSequence(seed).generate_state(max_runs)
    runs = [
        mixture._em_single_run(x, k, max_steps, quality, kmeans_init(x, k, int(s)))
        for s in run_seeds
    ]
    finals = [trace[-1] for _, trace, _ in runs]
    best = int(np.argmax(finals))
    resets = [(run, step) for run, (_, _, steps) in enumerate(runs) for step in steps]
    return runs[best][0], [trace for _, trace, _ in runs], best, resets


class TestDuplicateStarts:
    """em_fit reuses a run whose k-means start repeats; results must not change."""

    def assert_same_as_every_run(self, x, k, max_runs, max_steps, seed):
        got = em_fit(x, k=k, max_runs=max_runs, max_steps=max_steps, quality=1e-10, seed=seed)
        model, traces, best, resets = em_fit_every_run(x, k, max_runs, max_steps, 1e-10, seed)
        for name in ("weights", "means", "variances"):
            assert getattr(got, name).tobytes() == getattr(model, name).tobytes()
        assert got.traces == traces
        assert got.chosen_run == best
        assert got.reset_events == resets
        assert got.mean_log_likelihood == traces[best][-1] / len(x)
        return got

    def test_separated_blobs_iterate_each_start_once(self, monkeypatch):
        rng = np.random.default_rng(52)
        x, _ = two_blobs(rng, n_per=60)
        calls = []
        single_run = mixture._em_single_run

        def counting(*args):
            calls.append(args)
            return single_run(*args)

        monkeypatch.setattr(mixture, "_em_single_run", counting)
        got = em_fit(x, k=2, max_runs=5, max_steps=100, quality=1e-10, seed=7)
        monkeypatch.setattr(mixture, "_em_single_run", single_run)
        # the starts repeat, so runs tie; the first of the tied best wins, and a
        # repeated run still gets its own trace list
        assert len(calls) < 5
        finals = [t[-1] for t in got.traces]
        assert got.chosen_run == finals.index(max(finals))
        assert len({id(t) for t in got.traces}) == 5
        self.assert_same_as_every_run(x, 2, 5, 100, 7)

    @pytest.mark.parametrize("seed", [3, 13, 21])
    def test_distinct_and_repeated_starts(self, seed):
        rng = np.random.default_rng(seed)
        x = np.vstack([rng.normal(size=(40, 2)), rng.normal(size=(25, 2)) * 0.4 + [3.0, 1.0]])
        self.assert_same_as_every_run(x, 3, 6, 60, seed)

    def test_reset_events_follow_each_run(self, monkeypatch):
        # a high degenerate-weight floor makes the small blob's component reset every step
        monkeypatch.setattr(mixture, "_DEGENERATE_WEIGHT", 0.3)
        rng = np.random.default_rng(52)
        x = np.vstack([rng.normal(size=(80, 2)), rng.normal(size=(20, 2)) * 0.5 + [5.0, 0.0]])
        got = self.assert_same_as_every_run(x, 3, 6, 40, 4)
        assert {run for run, _ in got.reset_events} == set(range(6))


# Row-major reference copies of the EM and k-means kernels as they were
# before the column-major layout. The kernels reduce along other axes, so
# they round differently; they must match the references to a relative 1e-9
# and take the same steps, resets and best run.


def reference_log_density(x, weights, means, variances):
    n, d = x.shape
    out = np.empty((n, len(weights)))
    for j in range(len(weights)):
        diff = x - means[j]
        quad = np.sum(diff * diff / variances[j], axis=1)
        logdet = np.sum(np.log(variances[j]))
        out[:, j] = np.log(weights[j]) - 0.5 * (d * np.log(2.0 * np.pi) + logdet + quad)
    return out


def reference_logsumexp(a, axis):
    peak = np.max(a, axis=axis, keepdims=True)
    return (peak + np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True))).squeeze(axis)


def reference_lloyd(x, k, rng):
    n = x.shape[0]
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(mixture._KMEANS_MAX_ITER):
        sq = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(sq, axis=1)
        dist_to_own = sq[np.arange(n), new_assign]
        for j in range(k):
            if not np.any(new_assign == j):
                far = int(np.argmax(dist_to_own))
                centers[j] = x[far]
                new_assign[far] = j
                dist_to_own[far] = -np.inf
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = assign == j
            if members.any():
                centers[j] = x[members].mean(axis=0)
    return centers, assign


def reference_em_single_run(x, k, max_steps, quality, model):
    n, _ = x.shape
    weights, means, variances = model.weights, model.means, model.variances
    global_var = np.maximum(x.var(axis=0), mixture.VARIANCE_FLOOR)

    logd = reference_log_density(x, weights, means, variances)
    norm = reference_logsumexp(logd, axis=1)
    trace = [float(np.sum(norm))]
    resets = []
    for step in range(max_steps):
        resp = np.exp(logd - norm[:, None])
        bulk = resp.sum(axis=0)
        degenerate = np.flatnonzero(bulk / n < mixture._DEGENERATE_WEIGHT)
        if degenerate.size:
            hardness = np.argsort(norm)
            for slot, j in enumerate(degenerate):
                means[j] = x[hardness[slot % n]]
                variances[j] = global_var
                weights[j] = 1.0 / k
            weights = weights / weights.sum()
            resets.append(step)
        else:
            weights = bulk / n
            for j in range(k):
                r = resp[:, j][:, None]
                means[j] = np.sum(r * x, axis=0) / bulk[j]
                diff = x - means[j]
                variances[j] = np.maximum(
                    np.sum(r * diff * diff, axis=0) / bulk[j], mixture.VARIANCE_FLOOR
                )
        logd = reference_log_density(x, weights, means, variances)
        norm = reference_logsumexp(logd, axis=1)
        trace.append(float(np.sum(norm)))
        if abs(trace[-1] - trace[-2]) < quality and step not in resets:
            break
    return MixtureModel(weights=weights, means=means, variances=variances), trace, resets


RTOL = 1e-9


def assert_models_close(got, want, err_msg=""):
    for name in ("weights", "means", "variances"):
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), rtol=RTOL, atol=0, err_msg=err_msg
        )


def scaled_blobs(rng, n, d, k):
    """k blobs in d columns whose scales span six orders of magnitude."""
    centres = rng.normal(size=(k, d)) * 4.0
    x = centres[rng.integers(k, size=n)] + rng.normal(size=(n, d))
    return x * 10.0 ** rng.uniform(-3, 3, size=d)


class TestMatchesRowMajorReference:
    """The column-major kernels give the row-major kernels' results to a relative 1e-9."""

    def assert_em_fit_matches(self, monkeypatch, x, k, max_runs, max_steps, seed):
        got = em_fit(x, k=k, max_runs=max_runs, max_steps=max_steps, quality=1e-10, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(mixture, "_lloyd", reference_lloyd)
            patch.setattr(mixture, "_em_single_run", reference_em_single_run)
            want = em_fit(x, k=k, max_runs=max_runs, max_steps=max_steps, quality=1e-10, seed=seed)
        assert_models_close(got, want)
        assert [len(t) for t in got.traces] == [len(t) for t in want.traces]
        for got_trace, want_trace in zip(got.traces, want.traces):
            np.testing.assert_allclose(got_trace, want_trace, rtol=RTOL, atol=0)
        assert got.chosen_run == want.chosen_run
        assert got.reset_events == want.reset_events
        assert got.mean_log_likelihood == pytest.approx(want.mean_log_likelihood, rel=RTOL, abs=0)
        return got

    def assert_kmeans_init_matches(self, monkeypatch, x, k, seeds):
        for seed in seeds:
            got = kmeans_init(x, k, seed)
            with monkeypatch.context() as patch:
                patch.setattr(mixture, "_lloyd", reference_lloyd)
                want = kmeans_init(x, k, seed)
            assert_models_close(got, want, err_msg=f"seed {seed}")

    @pytest.mark.parametrize("d", [1, 2, 5, 7, 8, 9, 18, 130])
    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_em_fit(self, monkeypatch, d, k):
        rng = np.random.default_rng(1000 * d + k)
        x = scaled_blobs(rng, 150, d, max(k, 2))  # above 128 rows: width-1 sums split in halves
        self.assert_em_fit_matches(monkeypatch, x, k, 3, 25, seed=d + k)
        self.assert_kmeans_init_matches(monkeypatch, x, k, range(3))

    @pytest.mark.parametrize("d", [1, 3, 9])
    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_log_likelihood_and_responsibilities(self, d, k):
        rng = np.random.default_rng(2000 * d + k)
        x = scaled_blobs(rng, 140, d, 3)
        model = kmeans_init(x, k, seed=4)
        model.weights = rng.dirichlet(np.ones(k))
        logd = reference_log_density(x, model.weights, model.means, model.variances)
        norm = reference_logsumexp(logd, axis=1)
        assert log_likelihood(x, model) == pytest.approx(float(np.sum(norm)), rel=RTOL, abs=0)
        resp = responsibilities(x, model)
        assert resp.shape == (140, k) and resp.flags.c_contiguous
        np.testing.assert_allclose(resp, np.exp(logd - norm[:, None]), rtol=RTOL, atol=0)

    def test_duplicate_rows(self, monkeypatch):
        rng = np.random.default_rng(61)
        x = np.repeat(scaled_blobs(rng, 12, 4, 3), rng.integers(1, 30, size=12), axis=0)
        for k in (2, 3, 9):
            self.assert_em_fit_matches(monkeypatch, x, k, 5, 40, seed=k)
            self.assert_kmeans_init_matches(monkeypatch, x, k, range(10))

    def test_emptied_kmeans_clusters(self, monkeypatch):
        # coincident starts empty clusters for some seeds; [[0], [1], [1]] keeps one empty
        x = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 10, axis=0)
        self.assert_kmeans_init_matches(monkeypatch, x, 3, range(40))
        self.assert_kmeans_init_matches(monkeypatch, np.array([[0.0], [1.0], [1.0]]), 3, range(40))
        self.assert_em_fit_matches(monkeypatch, x, 3, 5, 30, seed=5)

    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_degenerate_resets(self, monkeypatch, d):
        monkeypatch.setattr(mixture, "_DEGENERATE_WEIGHT", 0.3)
        rng = np.random.default_rng(62 + d)
        x = np.vstack([rng.normal(size=(80, d)), rng.normal(size=(20, d)) * 0.5 + 5.0])
        got = self.assert_em_fit_matches(monkeypatch, x, 3, 4, 30, seed=d)
        assert got.reset_events

    def test_nearest_ties_go_to_lowest_index(self):
        x = np.array([[0.5], [0.0], [1.0], [0.5]])
        nearest, dist = mixture._nearest(x.T.copy(), np.array([[0.0], [1.0], [0.0]]))
        assert nearest.tolist() == [0, 0, 1, 0]
        assert dist.tolist() == [0.25, 0.0, 0.0, 0.25]
