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


class TestEmFit:
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
