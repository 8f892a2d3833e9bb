"""Gaussian-mixture clustering by expectation maximization.

Components carry diagonal covariances (variance floor 1e-9). Fitting runs
several independent EM runs, each initialized by Lloyd's k-means, and keeps
the run with the highest final log-likelihood. Everything is deterministic
for a given seed.

EM and k-means work on a (d, n) copy of the n examples (``_Columns``), with
all k components at once as (d, k, n) or (k, d, n) arrays, so a reduction
over the short axis of an (n, d) or (n, k) array is a few numpy calls on
whole contiguous rows instead of one inner loop per example. Results are
bit-identical to the row-major form, which looped over components and
summed over d and k with ``np.sum(axis=1)`` and over n with
``np.sum(axis=0)``, because each reduction rounds as that form did:

- Sums over d (the quadratic form, k-means distances) and over k (the sum
  of exponentials): numpy sums each short row pairwise, and
  ``_pairwise_plan`` permutes the rows so that order becomes a few
  contiguous row adds. The terms are squares and exponentials, never -0.0,
  so the plan's one departure from numpy cannot arise.
- Max over k: an ``np.maximum`` chain. A maximum does not round, and log
  densities of finite data are never NaN or -0.0.
- Argmin over k: strict ``<`` comparisons in component order, so ties go
  to the lowest index, as in ``np.argmin``.
- Sums over n (component bulks, M-step numerators, variances, k-means
  member means): numpy adds the rows of an (n, m) array in sequence, from
  +0.0, when m > 1, and sums a single column pairwise. ``_sum_over_n``
  does the first with ``einsum`` over a row-major copy, which adds in the
  same sequence, and the second with contiguous row sums. Each component's
  sums keep the width m of the array the row-major form summed.
- Elementwise steps keep the operand order of the row-major form, such as
  ``(r * diff) * diff``, and ``np.exp``/``np.log`` still see contiguous
  arrays. Per-component scalars (``log(weights[j])``, the log-determinant)
  are still taken one component at a time from the model's (k, d) arrays,
  which stay in column order.

``tests/test_mixture.py`` keeps the row-major kernels as references and
checks the numpy summation orders relied on here.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .linalg import as_matrix

VARIANCE_FLOOR = 1e-9
_DEGENERATE_WEIGHT = 1e-12
_KMEANS_MAX_ITER = 100
_ACCUMULATORS = (0, 4, 2, 6, 1, 5, 3, 7)  # accumulator held by each row of an 8-block


def _pairwise_plan(start, count):
    """Row order and row adds that sum ``count`` terms as numpy's pairwise sum does.

    Returns ``(order, adds)``. Buffer row ``start + p`` is to hold term
    ``order[p]``, an index in start..start+count-1; then applying each
    ``(dst, src, rows)`` in turn as ``buf[dst:dst+rows] += buf[src:src+rows]``
    leaves in ``buf[start]`` numpy's pairwise sum of the terms in their
    original order, rounding for rounding. With the terms of many sums laid
    out along the rows, ``np.sum(a, axis=1)`` of an (n, count) array becomes
    a few contiguous row adds over its (count, n) transpose.

    numpy sums a contiguous run pairwise (Higham 1993): below 8 terms in
    sequence; up to 128 terms in 8 strided accumulators, then the tree
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in sequence; above
    128 terms as the sum of two halves split at a multiple of 8. In each
    8-block the rows hold accumulators 0,4,2,6,1,5,3,7, so every level of
    the tree adds one half of a block to the other; addition is
    commutative, so operand order does not matter. numpy starts the sum
    from +0.0, so only a sum of nothing but -0.0 terms differs in sign
    (numpy +0.0, the plan -0.0).
    """
    if count < 8:
        return list(range(start, start + count)), [(start, start + i, 1) for i in range(1, count)]
    if count <= 128:
        full = count - count % 8
        order = [start + b + k for b in range(0, full, 8) for k in _ACCUMULATORS]
        order += range(start + full, start + count)
        adds = [(start, start + b, 8) for b in range(8, full, 8)]  # strided accumulators
        adds += [(start, start + 4, 4), (start, start + 2, 2), (start, start + 1, 1)]  # their tree
        adds += [(start, start + i, 1) for i in range(full, count)]  # sequential tail
        return order, adds
    half = count // 2
    half -= half % 8
    low_order, low_adds = _pairwise_plan(start, half)
    high_order, high_adds = _pairwise_plan(start + half, count - half)
    return low_order + high_order, low_adds + high_adds + [(start, start + half, 1)]


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


@dataclass(frozen=True)
class _Columns:
    """The rows of ``x`` as a (d, n) array, columns in ``_pairwise_plan`` order."""

    data: np.ndarray  # (d, n): data[p] is column order[p] of x
    order: np.ndarray
    adds: list

    @classmethod
    def of(cls, x):
        order, adds = _pairwise_plan(0, x.shape[1])
        order = np.array(order, dtype=np.intp)
        return cls(x[:, order].T.copy(), order, adds)


def _add_rows(buf, adds):
    """Apply a ``_pairwise_plan``'s row adds to ``buf``; return the row that holds the sums."""
    for dst, src, rows in adds:
        buf[dst : dst + rows] += buf[src : src + rows]
    return buf[0]


def _sum_over_n(t, width):
    """Sum ``t`` over its last axis (n) as ``np.sum(axis=0)`` sums an (n, width) array.

    numpy adds the rows of an (n, width) array in sequence, starting from
    +0.0, when width > 1, and sums its one contiguous column pairwise when
    width == 1. ``einsum`` over a row-major copy adds the rows in that same
    sequence, at a fraction of the per-row cost of ``np.sum``.
    """
    if width == 1:
        return t.sum(axis=-1)
    rows = t.reshape(-1, t.shape[-1])
    return np.einsum("ij->j", rows.T.copy()).reshape(t.shape[:-1])


def _var_over_n(t, width):
    """Variance over the last axis of (m, n) ``t``, as ``np.var(axis=0)`` of (n, width) arrays."""
    n = t.shape[-1]
    dev = t - (_sum_over_n(t, width) / n)[:, None]
    dev *= dev
    return _sum_over_n(dev, width) / n


def _log_density(cols, weights, means, variances):
    """(k, n) log of weight * diagonal Gaussian density, per component and example."""
    d = len(cols.data)
    quad = cols.data[:, None, :] - means.T[cols.order, :, None]  # (d, k, n)
    quad *= quad
    quad /= variances.T[cols.order, :, None]
    quad = _add_rows(quad, cols.adds)  # (k, n)
    # scalar logs, one per component as in the row-major form: a vector log may round differently
    log_weights = np.array([np.log(w) for w in weights])
    consts = np.array([d * np.log(2.0 * np.pi) + np.sum(np.log(v)) for v in variances])
    return log_weights[:, None] - 0.5 * (consts[:, None] + quad)


def _logsumexp(a):
    """log(sum(exp(a))) down each column of (k, n) ``a``, stable against overflow."""
    order, adds = _pairwise_plan(0, len(a))
    peak = a[0].copy()
    for row in a[1:]:
        np.maximum(peak, row, out=peak)
    return peak + np.log(_add_rows(np.exp(a[order] - peak), adds))


def log_likelihood(x, model):
    """Total log-likelihood of ``x`` under the mixture."""
    x = as_matrix(x, "data")
    logd = _log_density(_Columns.of(x), model.weights, model.means, model.variances)
    return float(np.sum(_logsumexp(logd)))


def responsibilities(x, model):
    """Posterior component probabilities per example; rows sum to 1."""
    x = as_matrix(x, "data")
    logd = _log_density(_Columns.of(x), model.weights, model.means, model.variances)
    logd -= _logsumexp(logd)
    return np.exp(logd).T.copy()


def _nearest(cols, centers):
    """Index of each example's nearest center (lowest on ties) and its squared distance."""
    sq = cols.data[:, None, :] - centers.T[cols.order, :, None]  # (d, k, n)
    sq *= sq
    sq = _add_rows(sq, cols.adds)
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
    cols = _Columns.of(x)
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(_KMEANS_MAX_ITER):
        new_assign, dist_to_own = _nearest(cols, centers)
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
                total = _sum_over_n(cols.data[:, members], len(cols.data))
                centers[j, cols.order] = total / np.count_nonzero(members)
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
    cols = _Columns.of(x)
    weights = np.empty(k)
    variances = np.empty((k, d))
    for j in range(k):
        members = assign == j
        count = np.count_nonzero(members)
        if count:
            weights[j] = count / n
            spread = _var_over_n(cols.data[:, members], d)
        else:
            weights[j] = 1.0 / k
            spread = _var_over_n(cols.data, d)
        variances[j, cols.order] = np.maximum(spread, VARIANCE_FLOOR)
    weights /= weights.sum()
    return MixtureModel(weights=weights, means=centers, variances=variances)


def _em_single_run(x, k, max_steps, quality, model):
    """EM from the initial ``model``, whose arrays it updates in place.

    Draws no randomness, so equal starts give bit-identical runs.
    """
    n, d = x.shape
    cols = _Columns.of(x)
    weights, means, variances = model.weights, model.means, model.variances
    global_var = np.empty(d)
    global_var[cols.order] = np.maximum(_var_over_n(cols.data, d), VARIANCE_FLOOR)

    logd = _log_density(cols, weights, means, variances)
    norm = _logsumexp(logd)
    trace = [float(np.sum(norm))]
    resets = []
    for step in range(max_steps):
        resp = np.exp(logd - norm)
        bulk = _sum_over_n(resp, k)
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
            mean = _sum_over_n(r * cols.data, d) / bulk[:, None]  # (k, d)
            diff = cols.data - mean[:, :, None]  # (k, d, n)
            spread = _sum_over_n(r * diff * diff, d) / bulk[:, None]
            means[:, cols.order] = mean
            variances[:, cols.order] = np.maximum(spread, VARIANCE_FLOOR)
        logd = _log_density(cols, weights, means, variances)
        norm = _logsumexp(logd)
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
