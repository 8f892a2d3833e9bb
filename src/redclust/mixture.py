"""Gaussian-mixture clustering by expectation maximization.

Components carry diagonal covariances (variance floor 1e-9). Fitting runs
several independent EM runs, each initialized by Lloyd's k-means, and keeps
the run with the highest final log-likelihood. Everything is deterministic
for a given seed.

EM and k-means work on a (d, n) copy of the n examples, with all k
components at once as (d, k, n) or (k, d, n) arrays, so each step is a few
numpy calls over whole contiguous rows instead of one loop per component.
Every reduction is numpy's own: sums over the contiguous n axis are
pairwise (Higham 1993), and sums over d and k add whole rows.
``tests/test_mixture.py`` keeps the row-major kernels these replaced as
references and checks the fits against them to a relative 1e-9.
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


def _log_density(xt, weights, means, variances):
    """(k, n) log of weight * diagonal Gaussian density, per component and example."""
    d = len(xt)
    quad = xt[:, None, :] - means.T[:, :, None]  # (d, k, n)
    quad *= quad
    quad /= variances.T[:, :, None]
    consts = d * np.log(2.0 * np.pi) + np.log(variances).sum(axis=1)
    return np.log(weights)[:, None] - 0.5 * (consts[:, None] + quad.sum(axis=0))


def _logsumexp(a):
    """log(sum(exp(a))) down each column of (k, n) ``a``, stable against overflow."""
    peak = a.max(axis=0)
    return peak + np.log(np.exp(a - peak).sum(axis=0))


def log_likelihood(x, model):
    """Total log-likelihood of ``x`` under the mixture."""
    x = as_matrix(x, "data")
    logd = _log_density(x.T, model.weights, model.means, model.variances)
    return float(_logsumexp(logd).sum())


def responsibilities(x, model):
    """Posterior component probabilities per example; rows sum to 1."""
    x = as_matrix(x, "data")
    logd = _log_density(x.T, model.weights, model.means, model.variances)
    logd -= _logsumexp(logd)
    return np.exp(logd).T.copy()


def _nearest(xt, centers):
    """Index of each example's nearest center (lowest on ties) and its squared distance."""
    sq = xt[:, None, :] - centers.T[:, :, None]  # (d, k, n)
    sq *= sq
    sq = sq.sum(axis=0)
    # a strict-< loop over the k rows: argmin(axis=0) over (k, n) is slower at these sizes
    nearest = np.zeros(sq.shape[1], dtype=np.intp)
    best = sq[0].copy()
    for j in range(1, len(centers)):
        np.copyto(nearest, j, where=sq[j] < best)
        np.minimum(best, sq[j], out=best)
    return nearest, best


def _lloyd(x, k, rng):
    """Lloyd's k-means from seeded distinct-row centers.

    An emptied cluster is re-seeded at the point farthest from its assigned
    centroid (lowest row index on ties), then iteration continues. A row
    re-seeded in one step is not picked again in that step, so several
    emptied clusters get distinct rows. A cluster that stays empty, which
    happens when the table has fewer distinct rows than k, keeps its centre.
    """
    n = x.shape[0]
    xt = x.T.copy()
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(_KMEANS_MAX_ITER):
        new_assign, dist_to_own = _nearest(xt, centers)
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
                centers[j] = xt[:, members].mean(axis=-1)
    return centers, assign


def kmeans_init(x, k, seed):
    """Initial MixtureModel from a k-means run (the 'install distribution' step).

    Component means are the centroids, variances the within-cluster
    per-dimension variances (floored), weights the cluster fractions. An
    empty cluster is set up as EM resets a dead component: the table's
    per-column variance (floored) and weight 1/k, before normalizing.
    """
    x = as_matrix(x, "data")
    n, d = x.shape
    if k < 1 or k > n:
        raise InvalidConfigError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centers, assign = _lloyd(x, k, rng)
    counts = np.bincount(assign, minlength=k)
    weights = np.where(counts > 0, counts / n, 1.0 / k)
    variances = np.empty((k, d))
    for j in range(k):
        variances[j] = x[assign == j].var(axis=0) if counts[j] else x.var(axis=0)
    np.maximum(variances, VARIANCE_FLOOR, out=variances)
    weights /= weights.sum()
    return MixtureModel(weights=weights, means=centers, variances=variances)


def _em_single_run(x, k, max_steps, quality, model):
    """EM from the initial ``model``, whose arrays it updates in place.

    Draws no randomness, so equal starts give bit-identical runs.
    """
    n = x.shape[0]
    xt = x.T.copy()
    weights, means, variances = model.weights, model.means, model.variances
    global_var = np.maximum(xt.var(axis=-1), VARIANCE_FLOOR)

    logd = _log_density(xt, weights, means, variances)
    norm = _logsumexp(logd)
    trace = [float(norm.sum())]
    resets = []
    for step in range(max_steps):
        resp = np.exp(logd - norm)
        bulk = resp.sum(axis=-1)
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
            r = resp[:, None, :]
            means[:] = (r * xt).sum(axis=-1) / bulk[:, None]
            diff = xt - means[:, :, None]  # (k, d, n)
            np.maximum((r * diff * diff).sum(axis=-1) / bulk[:, None], VARIANCE_FLOOR, out=variances)
        logd = _log_density(xt, weights, means, variances)
        norm = _logsumexp(logd)
        trace.append(float(norm.sum()))
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
    if not quality > 0:
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
