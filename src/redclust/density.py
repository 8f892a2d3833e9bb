"""DBSCAN over mixed numeric/nominal data.

Distances follow the mixed Euclidean rule: squared differences over numeric
columns plus 0/1 mismatch over nominal columns, combined under one square
root. Neighborhood search is an exact sorted sweep over one key column.
DBSCAN sorts the rows by the numeric column that leaves the fewest
candidate pairs and compares each row only with the rows whose key lies
within a margin of its own; a table without numeric columns gets one
window over all rows through the same code.

The sweep is exact. Every term of the squared distance q is non-negative
and floating-point addition is monotone, so fl((a - b)^2) > t on the key
column already proves q > t. The margin only has to over-cover: it bounds
|a - b| from fl(fl(a - b)^2) <= t, allowing for the rounding of the
subtraction, the square, underflow and the window's own ``key +/- margin``
(hence its ``np.spacing(max |key|)`` terms). Every candidate pair is then
decided as before, by ``q <= t`` with t from ``_squared_threshold(eps)``
and the same per-pair arithmetic (numeric columns in order, then
nominal), so the eps-graph equals the all-pairs one bit for bit, with its
rows permuted. Seeds are scanned in the original row order, so cluster
ids, border ties and roles do not depend on the sort.

DBSCAN never materialises a float n x n matrix. It accumulates squared
distances for a fixed block of rows at a time, each pair once, and keeps
only the boolean eps-graph, one byte per pair: 9 MB at 3000 rows, where
one float distance matrix takes 72 MB. ``pairwise_distances`` fills its
full float matrix from the same blocks, so both follow one distance rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

NOISE = -1

NUMERIC = "numeric"
NOMINAL = "nominal"

# rows of squared distances held at once; 32, 64 and 128 rows time alike
# on 3000 rows, 256 is slower
_BLOCK_ROWS = 64

_ROLES = ("noise", "border", "core")


@dataclass(frozen=True)
class DistanceSchema:
    """Per-column kinds ('numeric' or 'nominal') for the rows being compared."""

    kinds: tuple

    def __post_init__(self):
        for k in self.kinds:
            if k not in (NUMERIC, NOMINAL):
                raise InvalidInputError(f"unknown column kind {k!r}")

    @property
    def n_columns(self):
        return len(self.kinds)

    @classmethod
    def all_numeric(cls, n):
        return cls(kinds=("numeric",) * n)


@dataclass
class ClusterAssignment:
    """Per-example labels: cluster ids 0..C-1, noise = -1, plus point roles."""

    labels: np.ndarray
    roles: np.ndarray  # 'core' | 'border' | 'noise'
    eps: float
    min_pts: int

    @property
    def n_examples(self):
        return len(self.labels)

    @property
    def noise_count(self):
        return int(np.sum(self.labels == NOISE))


def mixed_euclidean(a, b, schema):
    """Distance between two rows under the mixed Euclidean rule.

    sqrt( sum over numeric columns (a_i - b_i)^2
          + count of nominal columns where a_i != b_i )
    """
    if len(a) != schema.n_columns or len(b) != schema.n_columns:
        raise InvalidInputError(
            f"rows have {len(a)}/{len(b)} columns, schema declares {schema.n_columns}"
        )
    total = 0.0
    for x, y, kind in zip(a, b, schema.kinds):
        if kind == NUMERIC:
            try:
                d = float(x) - float(y)
            except (TypeError, ValueError):
                raise InvalidInputError(f"non-numeric value in numeric column: {x!r} vs {y!r}")
            if not np.isfinite(d):
                raise InvalidInputError("non-finite value in numeric column")
            total += d * d
        else:
            if x != y:
                total += 1.0
    return float(np.sqrt(total))


def _split_blocks(rows, schema):
    """Split row data into a float numeric block and an integer-coded nominal block."""
    numeric_idx = [i for i, k in enumerate(schema.kinds) if k == NUMERIC]
    nominal_idx = [i for i, k in enumerate(schema.kinds) if k == NOMINAL]
    n = len(rows)
    numeric = np.empty((n, len(numeric_idx)))
    for j, col in enumerate(numeric_idx):
        try:
            numeric[:, j] = [float(r[col]) for r in rows]
        except (TypeError, ValueError):
            raise InvalidInputError(f"non-numeric value in numeric column {col}")
    if not np.isfinite(numeric).all():
        raise InvalidInputError("non-finite value in numeric column")
    nominal = np.empty((n, len(nominal_idx)), dtype=np.int64)
    for j, col in enumerate(nominal_idx):
        values = [r[col] for r in rows]
        _, codes = np.unique(np.asarray(values, dtype=object), return_inverse=True)
        nominal[:, j] = codes
    return numeric, nominal


def _distance_inputs(data, schema):
    """(float numeric block, integer-coded nominal block) of row data, validated.

    ``data`` is either a float 2-D array (treated as all numeric) or a
    sequence of rows paired with a schema carrying nominal columns.
    """
    if schema is None or all(k == NUMERIC for k in schema.kinds):
        numeric = np.asarray(data, dtype=float)
        if numeric.ndim != 2:
            raise InvalidInputError("expected 2-D row data")
        if not np.isfinite(numeric).all():
            raise InvalidInputError("non-finite value in numeric column")
        return numeric, np.empty((len(numeric), 0), dtype=np.int64)
    return _split_blocks(data, schema)


def _squared_blocks(numeric, nominal, ends):
    """Yield (start, stop, end, squared distances from rows start:stop to rows start:end).

    ``ends[i]`` is the exclusive bound of row i's candidate columns,
    non-decreasing in i; a block covers the columns up to its last row's
    bound. Sums run column by column, numeric columns first, then nominal
    mismatches. The distance is symmetric bit for bit, since a - b is
    exactly -(b - a) in IEEE arithmetic, so each block covers only the
    columns from ``start`` on and callers mirror it below the diagonal.
    The yielded block is a reused buffer, valid until the next step.
    """
    n = numeric.shape[0]
    blocks = [(start, min(n, start + _BLOCK_ROWS)) for start in range(0, n, _BLOCK_ROWS)]
    blocks = [(start, stop, int(ends[stop - 1])) for start, stop in blocks]
    size = max((stop - start) * (end - start) for start, stop, end in blocks)
    sq_buf, diff_buf, mismatch_buf = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for start, stop, end in blocks:
        shape = (stop - start, end - start)
        used = shape[0] * shape[1]
        q = sq_buf[:used].reshape(shape)
        d = diff_buf[:used].reshape(shape)
        m = mismatch_buf[:used].reshape(shape)
        q.fill(0.0)
        for j in range(numeric.shape[1]):
            col = numeric[:, j]
            np.subtract(col[start:stop, None], col[None, start:end], out=d)
            d *= d
            q += d
        for j in range(nominal.shape[1]):
            col = nominal[:, j]
            np.not_equal(col[start:stop, None], col[None, start:end], out=m)
            q += m
        yield start, stop, end, q


def pairwise_distances(data, schema=None):
    """Full n x n mixed-Euclidean distance matrix.

    ``data`` is either a float 2-D array (treated as all numeric) or a
    sequence of rows paired with a schema carrying nominal columns.
    """
    numeric, nominal = _distance_inputs(data, schema)
    n = numeric.shape[0]
    dist = np.empty((n, n))
    for start, stop, _, sq in _squared_blocks(numeric, nominal, np.full(n, n)):
        np.sqrt(sq, out=dist[start:stop, start:])
        dist[stop:, start:stop] = dist[start:stop, stop:].T
    return dist


def _squared_threshold(eps):
    """The largest double t with sqrt(t) <= eps.

    sqrt is correctly rounded and monotone, so ``sq <= t`` holds exactly
    when ``sqrt(sq) <= eps`` does. eps * eps can sit one ulp off either way
    (for eps = 1, t is 1.0000000000000002), so step to the boundary.
    """
    eps = float(eps)
    t = eps * eps
    while math.sqrt(t) > eps:
        t = math.nextafter(t, -math.inf)
    while t < math.inf and math.sqrt(math.nextafter(t, math.inf)) <= eps:
        t = math.nextafter(t, math.inf)
    return t


def _key_margin(t, max_abs):
    """Half-width of the key window for threshold t, a column's largest |key| given.

    A pair with fl(fl(a - b)^2) <= t has |a - b| <= sqrt(t) + 2^-537 +
    spacing(max_abs): the square rounds by at most a relative 2^-53 or,
    below the normal range, an absolute 2^-1075 (sqrt(2^-1074) = 2^-537),
    and the subtraction by at most half a spacing of |a - b| <= 2 max_abs.
    Rounding ``key +/- margin`` costs at most one more spacing(max_abs) plus
    2^-52 of the margin, and the factor 1 + 2^-40 covers that and the
    rounding of this sum, so the window never drops a neighbour.
    """
    return (np.sqrt(t) + 2.0**-537 + 2.0 * np.spacing(max_abs)) * (1.0 + 2.0**-40)


def _sweep_order(numeric, t):
    """(order, lo, hi): rows sorted by the best key column and each sorted row's window.

    The key is the numeric column whose windows hold the fewest candidate
    pairs (lowest index on ties); without numeric columns it is a constant,
    which gives one window over all rows. Row i of the sorted table can
    only neighbour rows lo[i]:hi[i]; both bounds are non-decreasing.
    """
    columns = numeric.T if numeric.shape[1] else np.zeros((1, numeric.shape[0]))
    margins = _key_margin(t, np.abs(columns).max(axis=1, initial=0.0))
    best = None
    for column, margin in zip(columns, margins):
        order = np.argsort(column, kind="stable")
        key = column[order]
        hi = np.searchsorted(key, key + margin, side="right")
        pairs = int(hi.sum())
        if best is None or pairs < best[0]:
            best = (pairs, order, key, margin, hi)
    _, order, key, margin, hi = best
    lo = np.searchsorted(key, key - margin, side="left")
    return order, lo, hi


def dbscan(data, eps, min_pts, schema=None):
    """Classic DBSCAN. Returns a ClusterAssignment.

    Clusters are maximal density-connected sets; the scan walks rows in
    order, so cluster ids are deterministic and a border point reachable
    from several clusters lands in the first-discovered one. The
    eps-neighborhood of a point includes the point itself.
    """
    if not eps > 0:
        raise InvalidInputError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise InvalidInputError(f"min_pts must be >= 1, got {min_pts}")
    numeric, nominal = _distance_inputs(data, schema)
    n = numeric.shape[0]
    if n == 0:
        raise InvalidInputError("dbscan needs at least one example")

    # the eps-graph over the rows in key order, block by block; pairs
    # outside every block's window stay False
    t = _squared_threshold(eps)
    order, lo, hi = _sweep_order(numeric, t)
    within = np.zeros((n, n), dtype=bool)
    counts = np.zeros(n, dtype=np.intp)
    for start, stop, end, sq in _squared_blocks(numeric[order], nominal[order], hi):
        block = within[start:stop, start:end]
        np.less_equal(sq, t, out=block)
        below = block[:, stop - start:]
        within[stop:end, start:stop] = below.T
        counts[start:stop] += np.count_nonzero(block, axis=1)
        counts[stop:end] += np.count_nonzero(below, axis=0)
    is_core = counts >= min_pts

    # expand in key order, seeding from core rows in the original row order;
    # whole-array steps only, no Python object per row
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    labels = np.full(n, NOISE, dtype=int)
    free = np.ones(n, dtype=bool)  # rows no cluster has claimed yet
    pending = rank[is_core[rank]]
    cluster = 0
    while pending.size:
        frontier = pending[:1]
        free[frontier] = False
        labels[frontier] = cluster
        while frontier.size:
            # frontier is ascending, so its rows' windows lie within a:b
            a, b = lo[frontier[0]], hi[frontier[-1]]
            reached = within[frontier, a:b].any(axis=0)
            reached &= free[a:b]
            claimed = np.flatnonzero(reached)
            claimed += a
            free[claimed] = False
            labels[claimed] = cluster
            frontier = claimed[is_core[claimed]]
        cluster += 1
        pending = pending[free[pending]]
    labels, is_core = labels[rank], is_core[rank]

    role = np.where(is_core, 2, (labels != NOISE).astype(np.intp))
    # a str array as wide as the longest role present, like np.array(names)
    width = max(len(_ROLES[r]) for r in np.flatnonzero(np.bincount(role)).tolist())
    roles = np.array(_ROLES, dtype=f"<U{width}")[role]
    return ClusterAssignment(labels=labels, roles=roles, eps=float(eps), min_pts=int(min_pts))


def cluster_count(assignment):
    """Number of distinct non-noise cluster labels (performance-1)."""
    labels = assignment.labels
    return int(len(set(labels[labels != NOISE].tolist())))
