"""Gaussian-mixture clustering by expectation maximization.

Components carry diagonal covariances (variance floor 1e-9). Fitting runs
several independent EM runs, each initialized by Lloyd's k-means, and keeps
the run with the highest final log-likelihood. Everything is deterministic
for a given seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .linalg import as_matrix

VARIANCE_FLOOR = 1e-9
_DEGENERATE_WEIGHT = 1e-12
_KMEANS_MAX_ITER = 100


@dataclass
class MixtureModel:
    """A k-component diagonal Gaussian mixture plus its fitting history."""

    weights: np.ndarray  # (k,), sums to 1
    means: np.ndarray  # (k, d)
    variances: np.ndarray  # (k, d), each >= VARIANCE_FLOOR
    traces: list = field(default_factory=list)  # per-run log-likelihood traces
    chosen_run: int | None = None
    reset_events: list = field(default_factory=list)  # (run, step) degenerate resets
    mean_log_likelihood: float | None = None  # performance-2: final LL per example

    @property
    def k(self):
        return len(self.weights)


def _log_density(x, weights, means, variances):
    """Per-example, per-component log of weight * diagonal Gaussian density."""
    n, d = x.shape
    out = np.empty((n, len(weights)))
    for j in range(len(weights)):
        diff = x - means[j]
        quad = np.sum(diff * diff / variances[j], axis=1)
        logdet = np.sum(np.log(variances[j]))
        out[:, j] = np.log(weights[j]) - 0.5 * (d * np.log(2.0 * np.pi) + logdet + quad)
    return out


def _logsumexp(a, axis):
    peak = np.max(a, axis=axis, keepdims=True)
    return (peak + np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True))).squeeze(axis)


def log_likelihood(x, model):
    """Total log-likelihood of ``x`` under the mixture."""
    x = as_matrix(x, "data")
    return float(np.sum(_logsumexp(_log_density(x, model.weights, model.means, model.variances), axis=1)))


def responsibilities(x, model):
    """Posterior component probabilities per example; rows sum to 1."""
    x = as_matrix(x, "data")
    logd = _log_density(x, model.weights, model.means, model.variances)
    logd -= _logsumexp(logd, axis=1)[:, None]
    return np.exp(logd)


def _lloyd(x, k, rng):
    """Lloyd's k-means from seeded distinct-row centers.

    An emptied cluster is re-seeded at the point farthest from its assigned
    centroid (lowest row index on ties), then iteration continues.
    """
    n = x.shape[0]
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(_KMEANS_MAX_ITER):
        sq = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(sq, axis=1)
        for j in range(k):
            if not np.any(new_assign == j):
                dist_to_own = sq[np.arange(n), new_assign]
                far = int(np.argmax(dist_to_own))
                centers[j] = x[far]
                new_assign[far] = j
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            centers[j] = x[assign == j].mean(axis=0)
    return centers, assign


def kmeans_init(x, k, seed):
    """Initial MixtureModel from a k-means run (the 'install distribution' step).

    Component means are the centroids, variances the within-cluster
    per-dimension variances (floored), weights the cluster fractions.
    """
    x = as_matrix(x, "data")
    n, d = x.shape
    if k < 1 or k > n:
        raise InvalidConfigError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centers, assign = _lloyd(x, k, rng)
    weights = np.empty(k)
    variances = np.empty((k, d))
    for j in range(k):
        members = x[assign == j]
        weights[j] = len(members) / n
        variances[j] = np.maximum(members.var(axis=0), VARIANCE_FLOOR)
    weights /= weights.sum()
    return MixtureModel(weights=weights, means=centers, variances=variances)


def _em_single_run(x, k, max_steps, quality, model):
    """EM from the initial ``model``, whose arrays it updates in place.

    Draws no randomness, so equal starts give bit-identical runs.
    """
    n, _ = x.shape
    weights, means, variances = model.weights, model.means, model.variances
    global_var = np.maximum(x.var(axis=0), VARIANCE_FLOOR)

    logd = _log_density(x, weights, means, variances)
    norm = _logsumexp(logd, axis=1)
    trace = [float(np.sum(norm))]
    resets = []
    for step in range(max_steps):
        resp = np.exp(logd - norm[:, None])
        bulk = resp.sum(axis=0)
        degenerate = np.flatnonzero(bulk / n < _DEGENERATE_WEIGHT)
        if degenerate.size:
            # reset dead components at the worst-explained rows
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
                    np.sum(r * diff * diff, axis=0) / bulk[j], VARIANCE_FLOOR
                )
        logd = _log_density(x, weights, means, variances)
        norm = _logsumexp(logd, axis=1)
        trace.append(float(np.sum(norm)))
        if abs(trace[-1] - trace[-2]) < quality and step not in resets:
            break
    return MixtureModel(weights=weights, means=means, variances=variances), trace, resets


def em_fit(x, k, max_runs, max_steps, quality, seed):
    """Best-of-``max_runs`` EM fit; each run starts from its own k-means init.

    A run stops when the log-likelihood improves by less than ``quality``
    (absolute) or after ``max_steps`` iterations. The returned model is the
    run with the highest final log-likelihood (lowest run index on ties)
    and carries the per-run traces plus the final mean log-likelihood per
    example (performance-2). A run whose k-means start is bit-identical to
    an earlier run's reuses that run's result instead of iterating again:
    EM draws nothing random after its start, so the outcome is the same.
    """
    x = as_matrix(x, "data")
    n = x.shape[0]
    if k < 1 or k > n:
        raise InvalidConfigError(f"k must be in [1, {n}], got {k}")
    if max_runs < 1 or max_steps < 1:
        raise InvalidConfigError("max_runs and max_steps must be >= 1")
    if quality <= 0:
        raise InvalidConfigError(f"quality must be positive, got {quality}")

    run_seeds = np.random.SeedSequence(seed).generate_state(max_runs)
    runs = []
    finished = {}  # k-means start bytes -> (model, trace, resets) of the first run from it
    for run_seed in run_seeds:
        init = kmeans_init(x, k, int(run_seed))
        start = b"".join(a.tobytes() for a in (init.weights, init.means, init.variances))
        if start not in finished:
            finished[start] = _em_single_run(x, k, max_steps, quality, init)
        runs.append(finished[start])

    traces = [list(trace) for _, trace, _ in runs]  # a repeated run gets its own list
    finals = [t[-1] for t in traces]
    best = int(np.argmax(finals))
    model = runs[best][0]
    model.traces = traces
    model.chosen_run = best
    model.reset_events = [(run, step) for run, (_, _, resets) in enumerate(runs) for step in resets]
    model.mean_log_likelihood = finals[best] / n
    return model
