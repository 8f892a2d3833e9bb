"""Gaussian-mixture clustering by expectation maximization.

Components carry diagonal covariances (variance floor 1e-9). Fitting runs
several independent EM runs, each initialized by Lloyd's k-means, and keeps
the run with the highest final log-likelihood. Everything is deterministic
for a given seed.

EM works on a (d, n) copy of the n examples and handles all k components
at once. Each step forms one (k, d, n) array of squared differences from
the new means: the M-step reduces it to the variances, and the next E-step
reduces it to the densities, each by one matrix product over the rows. The
means are one product of the responsibilities with the rows, and the
log-sum-exp's one ``exp`` also gives the responsibilities. Lloyd's
centroids and the k-means variances are likewise one product of a one-hot
assignment matrix with the rows. Sums over the n rows are thus the BLAS's,
not numpy's pairwise ones. ``tests/test_mixture.py`` keeps row-major
per-component kernels as references and checks the fits against them to a
relative 1e-9.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
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


def _squared_differences(xt, means, out=None):
    """(k, d, n) squared difference of each example from each component mean."""
    out = np.subtract(xt, means[:, :, None], out=out)
    return np.multiply(out, out, out=out)


def _log_density(sq, weights, variances):
    """(k, n) log of weight * diagonal Gaussian density from the squared differences ``sq``."""
    d = sq.shape[1]
    logd = np.matmul((1.0 / variances)[:, None, :], sq)[:, 0, :]  # (k, n) quadratic forms
    logd += (d * np.log(2.0 * np.pi) + np.log(variances).sum(axis=1))[:, None]
    logd *= -0.5
    logd += np.log(weights)[:, None]
    return logd


def _posteriors(logd):
    """Log-sum-exp down each column of (k, n) ``logd``, and the posteriors; overwrites ``logd``.

    Returns (log-likelihood per example, (k, n) responsibilities), both from
    one ``exp``, stable against overflow.
    """
    peak = logd.max(axis=0)
    logd -= peak
    resp = np.exp(logd, out=logd)
    total = resp.sum(axis=0)
    resp /= total
    return peak + np.log(total), resp


def _fit_posteriors(x, model):
    """``_posteriors`` of the rows of ``x`` under ``model``."""
    x = as_matrix(x, "data")
    logd = _log_density(_squared_differences(x.T, model.means), model.weights, model.variances)
    return _posteriors(logd)


def log_likelihood(x, model):
    """Total log-likelihood of ``x`` under the mixture."""
    return float(_fit_posteriors(x, model)[0].sum())


def responsibilities(x, model):
    """Posterior component probabilities per example; rows sum to 1."""
    return _fit_posteriors(x, model)[1].T.copy()


def _one_hot(assign, k):
    """(k, n) indicator matrix of each example's cluster."""
    return (assign == np.arange(k)[:, None]).astype(float)


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
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        centers[filled] = (_one_hot(assign, k) @ x)[filled] / counts[filled, None]
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
    filled = counts > 0
    weights = np.where(filled, counts / n, 1.0 / k)
    spread = x - centers[assign]
    spread *= spread
    variances = _one_hot(assign, k) @ spread
    variances[filled] /= counts[filled, None]
    if not filled.all():
        variances[~filled] = x.var(axis=0)
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

    sq = _squared_differences(xt, means)
    norm, resp = _posteriors(_log_density(sq, weights, variances))
    trace = [float(norm.sum())]
    resets = []
    for step in range(max_steps):
        bulk = resp.sum(axis=-1)
        share = bulk / n
        degenerate = np.flatnonzero(share < _DEGENERATE_WEIGHT)
        if degenerate.size:
            # reset dead components at the worst-explained rows
            hardness = np.argsort(norm)
            global_var = np.maximum(xt.var(axis=-1), VARIANCE_FLOOR)
            for slot, j in enumerate(degenerate):
                means[j] = x[hardness[slot % n]]
                variances[j] = global_var
                weights[j] = 1.0 / k
            weights = weights / weights.sum()
            resets.append(step)
            _squared_differences(xt, means, out=sq)
        else:
            weights = share
            np.divide(resp @ x, bulk[:, None], out=means)
            _squared_differences(xt, means, out=sq)
            np.divide(np.matmul(sq, resp[:, :, None])[:, :, 0], bulk[:, None], out=variances)
            np.maximum(variances, VARIANCE_FLOOR, out=variances)
        norm, resp = _posteriors(_log_density(sq, weights, variances))
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
    Data whose scale overflows the squared distances raises
    InvalidInputError.
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
    with np.errstate(over="ignore", invalid="ignore"):
        for run_seed in run_seeds:
            init = kmeans_init(x, k, int(run_seed))
            start = b"".join(a.tobytes() for a in (init.weights, init.means, init.variances))
            if start not in finished:
                finished[start] = _em_single_run(x, k, max_steps, quality, init)
            runs.append(finished[start])

    traces = [list(trace) for _, trace, _ in runs]  # a repeated run gets its own list
    finals = [t[-1] for t in traces]
    if not np.isfinite(finals).all():
        raise InvalidInputError(
            f"data's scale ({np.abs(x).max():.3g}) overflows EM's squared distances; "
            "rescale its columns"
        )
    best = int(np.argmax(finals))
    model = runs[best][0]
    model.traces = traces
    model.chosen_run = best
    model.reset_events = [(run, step) for run, (_, _, resets) in enumerate(runs) for step in resets]
    model.mean_log_likelihood = finals[best] / n
    return model
