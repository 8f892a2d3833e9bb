"""DBSCAN over mixed numeric/nominal data.

Distances follow the mixed Euclidean rule: squared differences over numeric
columns plus 0/1 mismatch over nominal columns, combined under one square
root. Nominal columns hold level codes (``Dataset.feature_rows``); string
cells are coded on entry. Neighborhood search is an exact sorted sweep over
one key column. DBSCAN sorts the rows by the numeric column that leaves the
fewest candidate pairs and compares each row only with the rows whose key
lies within a margin of its own; a table without numeric columns gets one
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

DBSCAN never materialises a float n x n matrix. It decides the pairs of a
block of rows at a time, over the whole window of the block's rows,
and keeps only the eps-graph, packed one bit per pair: row i holds its
neighbours in ceil(n/8) bytes, 1.1 MB at 3000 rows, where one float
distance matrix takes 72 MB. A block's pairs come from matrix products of
augmented rows (``_augmented``): the centred numeric columns with their
squared norms, and each nominal column one-hot coded, give a product g
within a proved band ``_band`` of q. A pair with g <= t - delta is a
neighbour, one with g > t + delta is not, and the few pairs inside the band
are decided by ``_column_sums``, the per-pair rule above (numeric columns
in order, then nominal mismatches). So the eps-graph stays the all-pairs
one bit for bit. A table whose band is not finite, or whose nominal
columns take more than ``_ONE_HOT_COLUMNS`` one-hot columns in all, takes
``_column_sums`` for every pair.
``pairwise_distances`` fills its full float matrix from ``_column_sums``
as well, so both follow one distance rule.

A table of exactly one numeric column and no nominal ones needs no graph.
There q is fl(fl(a - b)^2), and rounding is monotone, so with the rows
sorted by key each row's eps-neighbours under the same ``q <= t`` test form
one contiguous run of the sorted rows. Counts, clusters and border
assignments follow from the run ends alone (``_run_clusters``), in O(n)
memory.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

NOISE = -1

NUMERIC = "numeric"
NOMINAL = "nominal"

# A block of rows holds a bool per pair of its rows' window. It takes as
# many rows as give _BLOCK_PAIRS pairs against the whole table, and at least
# _BLOCK_ROWS: few large blocks save per-block set-up on small tables.
_BLOCK_ROWS = 64
_BLOCK_PAIRS = 2**16

# Multiply-adds per matrix product call, whose float results are compared
# at once. OpenBLAS splits larger products across threads, and at these
# sizes the hand-offs cost more than they save: on a loaded 2-vCPU machine
# they stalled DBSCAN by milliseconds per call.
_PRODUCT_SIZE = 2**18

# Nominal columns of more levels in all make every block take
# ``_column_sums``. One-hot coding costs a multiply-add per level and pair
# and two n x levels float arrays. Timed on tall-like tables (5 numeric
# columns and one nominal column, eps 1, 336 to 3000 rows, 2-vCPU machine),
# the products stayed faster up to 64 levels and were slower at 128, while
# their tracemalloc peak passed the column sums' between 32 and 40 levels
# at 1000 and 3000 rows; so memory sets the cut-over.
_ONE_HOT_COLUMNS = 32

_UNIT_ROUNDOFF = 2.0**-53
_TINIEST = 2.0**-1074  # the smallest subnormal double

# set bits of each byte value
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_POPCOUNT = _POPCOUNT.sum(axis=1, dtype=np.uint8)

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


@dataclass
class ClusterAssignment:
    """Per-example labels: cluster ids 0..C-1, noise = -1, plus point roles."""

    labels: np.ndarray
    roles: np.ndarray  # 'core' | 'border' | 'noise'

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


def _distance_inputs(data, schema):
    """(numeric block, nominal block) of a 2-D table as floats, validated.

    Nominal cells are level codes (``Dataset.feature_rows``) or other sortable
    cells, coded here by their index among the column's sorted levels.
    """
    width = None if schema is None else schema.n_columns
    try:
        table = np.asarray(data)
    except ValueError:  # rows of different widths
        table = None
    if table is None or table.ndim != 2 or width not in (None, table.shape[1]):
        raise InvalidInputError(f"expected a 2-D table with {'any' if width is None else width} columns")
    nominal = np.zeros(table.shape[1], dtype=bool)
    if schema is not None:
        nominal[:] = [k == NOMINAL for k in schema.kinds]
    try:
        if table.dtype.kind not in "biuf":
            table = np.array(data, dtype=object)
            for j in np.flatnonzero(nominal):
                table[:, j] = np.unique(table[:, j], return_inverse=True)[1]
        table = np.asarray(table, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError("non-numeric cell in a numeric column, or nominal levels that do not sort")
    if not np.isfinite(table).all():
        raise InvalidInputError("non-finite value in distance input")
    return table[:, ~nominal], table[:, nominal]


def _column_sums(numeric, nominal, rows, cols, q, diff):
    """Write into ``q`` the squared mixed distances between ``rows`` and ``cols``.

    ``rows`` and ``cols`` index the rows of ``numeric`` and ``nominal`` and
    broadcast to ``q``'s shape: slices with a new axis for a block, or
    index arrays for single pairs. Sums run column by column, numeric
    columns first (d = a - b; d *= d; q += d), then nominal mismatches,
    with ``diff`` as scratch. Each element takes the same operations in
    the same order whatever the shape, so a pair gets the same bits in a
    block and on its own. The distance is symmetric bit for bit, since
    a - b is exactly -(b - a) in IEEE arithmetic. A sum past the double
    range is inf, without a warning: it still compares above every finite
    threshold.
    """
    q.fill(0.0)
    with np.errstate(over="ignore"):
        for col in numeric.T:
            np.subtract(col[rows], col[cols], out=diff)
            diff *= diff
            q += diff
    for col in nominal.T:
        np.not_equal(col[rows], col[cols], out=diff)
        q += diff


def pairwise_distances(data, schema=None):
    """Full n x n mixed-Euclidean distance matrix of a 2-D table.

    Without a schema every column is numeric; with one, its nominal
    columns hold level codes or sortable cells (see ``_distance_inputs``).
    """
    numeric, nominal = _distance_inputs(data, schema)
    n = numeric.shape[0]
    dist = np.empty((n, n))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(n, start + _BLOCK_ROWS)
        block = dist[start:stop, start:]
        _column_sums(
            numeric, nominal, np.s_[start:stop, None], np.s_[None, start:], block,
            np.empty(block.shape),
        )
        np.sqrt(block, out=block)
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


def _augmented(numeric, nominal):
    """(left, right, norms) rows whose products approximate q, or None.

    With x a row's centred numeric columns, N its squared norm and e(v) the
    one-hot code of a nominal cell v, left_i = [-2 x_i, 1, N_i, 1 - e(v_i)]
    and right_j = [x_j, N_j, 1, e(v_j)], so left_i . right_j is
    N_i + N_j - 2 x_i . x_j plus one per mismatched nominal column: the
    squared mixed distance up to rounding (``_band``). None when the
    nominal columns have more than ``_ONE_HOT_COLUMNS`` levels in all.
    """
    codes = [np.unique(col, return_inverse=True)[1].reshape(-1) for col in nominal.T]
    levels = [int(c.max()) + 1 for c in codes]
    if sum(levels) > _ONE_HOT_COLUMNS:
        return None
    n, p = numeric.shape
    # columns near the double range can overflow here; an inf or NaN norm
    # makes the band inf, and every pair then takes the column sums
    left = np.empty((n, p + 2 + sum(levels)))
    with np.errstate(over="ignore", invalid="ignore"):
        centred = numeric - numeric.mean(axis=0)
        norms = np.einsum("ij,ij->i", centred, centred)
        np.multiply(centred, -2.0, out=left[:, :p])
    right = np.zeros_like(left)
    right[:, :p] = centred
    right[:, p] = norms
    right[:, p + 1] = 1.0
    offset = p + 2
    for code, count in zip(codes, levels):
        right[np.arange(n), offset + code] = 1.0
        offset += count
    left[:, p] = 1.0
    left[:, p + 1] = norms
    np.subtract(1.0, right[:, p + 2:], out=left[:, p + 2:])
    return left, right, norms


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error of k roundings."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _band(t, largest_norm, p, r, width):
    """delta such that q <= t gives g <= t + delta and q > t gives g >= t - delta, or inf.

    g is a pair's product of ``_augmented`` rows of length K = ``width``,
    q its ``_column_sums`` value, p and r the numeric and nominal column
    counts, and ``largest_norm`` the largest norm N over the table's rows.
    Let u = 2^-53, gamma_k = k u / (1 - k u), D the exact squared mixed
    distance of the two rows and c their nominal mismatches.

    - q: each numeric term fl(fl(a - b)^2) has two relative roundings and,
      below the normal range, at most 2^-1075 absolute; summing p + r
      non-negative terms adds at most p + r - 1 relative roundings. So
      (1 - gamma_m) D - p 2^-1075 <= q <= (1 + gamma_m) D + p 2^-1075 (1 + gamma_m)
      with m = p + r + 2, and q <= t gives D <= T = (t + p 2^-1074) / (1 - gamma_m)
      while q > t gives D > t - (T - t).
    - N: p rounded squares summed in any order, so |N - |x|^2| <=
      gamma_p |x|^2 + p 2^-1074, and every row has |x|^2 <=
      X = (largest_norm + p 2^-1074) / (1 - gamma_p).
    - centring: x = fl(a - mu) = (a - mu) / (1 + e) with |e| <= u moves
      each row by at most u |x|, so sqrt of the numeric part of
      D~ = |x_i - x_j|^2 + c is within rho = 2 u sqrt(X) of sqrt of D's.
      Then D <= T gives D~ <= (sqrt(D) + rho)^2 <= T + rho (2 sqrt(T) + rho);
      and y -> (sqrt(y) - rho)^2, taken as 0 below rho^2, has slope at most 1,
      so D > t - (T - t) gives D~ >= t - (T - t) - rho (2 sqrt(T) + rho).
    - the product: g rounds a sum of K products, in any order, blocking
      or thread split and with or without fused multiply-adds, so it is
      within gamma_K sum |left_k right_k| + K 2^-1074 (underflow) of the
      exact product (Higham, Accuracy and Stability of Numerical
      Algorithms, 2002, sec. 3.1). That product is D~ + (N_i - |x_i|^2) +
      (N_j - |x_j|^2), and sum |left_k right_k| = 2 sum |x_ik x_jk| + N_i +
      N_j + c <= 4 X + r.

    So delta = (T - t) + rho (2 sqrt(T) + rho) + gamma_K (4 X + r) +
    2 gamma_p X + (K + 2 p) 2^-1074 gives q <= t => g <= t + delta and
    q > t => g >= t - delta. The factor 1 + 2^-40 and the 2^-1071 cover the
    rounding and underflow of evaluating it. Where 4 X + r exceeds 2^1020
    (or is NaN) the product could overflow, and the band is inf.
    """
    gamma_m = _gamma(p + r + 2)
    x = (largest_norm + p * _TINIEST) / (1.0 - _gamma(p))
    if not 4.0 * x + r <= 2.0**1020:
        return math.inf
    rho = 2.0 * _UNIT_ROUNDOFF * math.sqrt(x)
    over_t = (gamma_m * t + p * _TINIEST) / (1.0 - gamma_m)  # T - t
    delta = (
        over_t
        + rho * (2.0 * math.sqrt(t + over_t) + rho)
        + _gamma(width) * (4.0 * x + r)
        + 2.0 * _gamma(p) * x
        + (width + 2 * p) * _TINIEST
    )
    return delta * (1.0 + 2.0**-40) + 2.0**-1071


def _near_blocks(numeric, nominal, t, lo, hi):
    """Yield (start, stop, first, near): which pairs of a block of rows are eps-neighbours.

    ``numeric`` and ``nominal`` are in key order with windows ``lo:hi``.
    A block covers rows start:stop and the columns of its rows' windows,
    from ``first`` = 8 * (lo[start] // 8), a byte boundary of the packed
    graph, to hi[stop - 1]; no pair outside those columns is a neighbour.
    ``near[i, j]`` equals q <= t for rows start + i and first + j, from the
    ``_augmented`` product where it lies outside the ``_band`` and from
    ``_column_sums`` where it does not. The yielded block is a reused
    buffer, valid until the next step.
    """
    n = numeric.shape[0]
    height = max(_BLOCK_ROWS, _BLOCK_PAIRS // n)
    blocks = [(start, min(n, start + height)) for start in range(0, n, height)]
    blocks = [(start, stop, 8 * (int(lo[start]) // 8), int(hi[stop - 1])) for start, stop in blocks]
    size = max((stop - start) * (end - first) for start, stop, first, end in blocks)
    widest = max(end - first for _, _, first, end in blocks)
    near_buf = np.empty(size, dtype=bool)
    augmented = _augmented(numeric, nominal)
    delta = math.inf
    if augmented is not None:
        left, right, norms = augmented
        delta = _band(t, float(norms.max()), numeric.shape[1], nominal.shape[1], left.shape[1])
        # one step outward keeps both tests strict through the rounding of t -/+ delta
        below = math.nextafter(t - delta, -math.inf)
        above = math.nextafter(t + delta, math.inf)
        step = min(widest, max(8, _PRODUCT_SIZE // left[:height].size))  # columns per product
        products = np.empty(left[:height].shape[0] * step)
    for start, stop, first, end in blocks:
        shape = (stop - start, end - first)
        used = shape[0] * shape[1]
        near = near_buf[:used].reshape(shape)
        if delta == math.inf:
            q = np.empty(shape)
            _column_sums(
                numeric, nominal, np.s_[start:stop, None], np.s_[None, first:end], q,
                np.empty(shape),
            )
            np.less_equal(q, t, out=near)
            yield start, stop, first, near
            continue
        rows = left[start:stop]
        for j in range(0, shape[1], step):
            window = right[first + j:min(end, first + j + step)]
            g = products[:shape[0] * window.shape[0]].reshape(shape[0], window.shape[0])
            np.matmul(rows, window.T, out=g)
            chunk = near[:, j:j + step]
            np.less_equal(g, above, out=chunk)
            undecided = np.count_nonzero(chunk)
            np.less_equal(g, below, out=chunk)
            if np.count_nonzero(chunk) < undecided:  # some pairs lie inside the band
                i, k = np.nonzero((g <= above) & ~chunk)
                q = np.empty(i.size)
                _column_sums(numeric, nominal, i + start, k + first + j, q, np.empty(i.size))
                chunk[i, k] = q <= t
        yield start, stop, first, near


def _graph_clusters(numeric, nominal, t, min_pts, lo, hi, rank):
    """Labels and core flags, in key order, from the packed eps-graph.

    ``numeric`` and ``nominal`` are in key order with windows ``lo:hi``;
    ``rank`` maps original rows to key order. Bit j % 8 (most significant
    first) of ``within[i, j // 8]`` says whether rows i and j are
    eps-neighbours; pairs outside every block's window stay 0.
    """
    n = numeric.shape[0]
    within = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    counts = np.empty(n, dtype=np.intp)
    for start, stop, first, near in _near_blocks(numeric, nominal, t, lo, hi):
        packed = np.packbits(near, axis=1)
        within[start:stop, first // 8:first // 8 + packed.shape[1]] = packed
        counts[start:stop] = _POPCOUNT.take(packed).sum(axis=1, dtype=np.intp)
    is_core = counts >= min_pts

    # expand in key order, seeding from core rows in the original row order;
    # whole-array steps only, no Python object per row
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
            packed = np.bitwise_or.reduce(within[frontier, a // 8:(b + 7) // 8], axis=0)
            reached = np.unpackbits(packed)[a % 8:a % 8 + b - a].view(bool)
            reached &= free[a:b]
            claimed = np.flatnonzero(reached)
            claimed += a
            free[claimed] = False
            labels[claimed] = cluster
            frontier = claimed[is_core[claimed]]
        cluster += 1
        pending = pending[free[pending]]
    return labels, is_core


def _run_clusters(key, t, min_pts, order, hi):
    """Labels and core flags, in key order, of one sorted numeric column.

    ``key`` is the column in ascending order, ``order`` its original row
    indices and ``hi`` its windows' ends. fl(x - y) is monotone in x and in
    -y, so row i's eps-neighbours are one run L[i]:R[i] of the sorted rows,
    and R is non-decreasing. R comes from bisection between i and hi[i],
    with the same ``q <= t`` test as the graph; by symmetry j < i lies in
    i's run exactly when i lies in j's, so L[i] is the first j with
    R[j] > i. The count is R - L. Two lemmas give the rest:

    - cores on one side of a row, all within eps of it, are mutually
      within eps (for c <= c' <= x, fl(x - c) bounds fl(c' - c)), so a
      border row reaches at most two clusters, through its nearest core on
      each side that lies in its run;
    - consecutive cores decide connectivity: rows between two neighbours
      are neighbours of each, so cores c < c' are density-connected exactly
      when every consecutive pair between them is joined, that is when
      each next core lies in the run of the one before.

    Cluster ids follow each component's smallest original row, the order
    in which the graph expansion seeds them, and a border row takes the
    smaller id of its two candidates, as in the graph expansion.
    """
    n = key.size
    inside, outside = np.arange(n), hi.copy()  # inside neighbours i, outside does not
    while (outside - inside > 1).any():
        mid = (inside + outside) // 2  # equals inside once a row is settled
        d = key - key[mid]
        d *= d
        near = d <= t
        inside = np.where(near, mid, inside)
        outside = np.where(near, outside, mid)
    run_end = outside
    run_start = np.searchsorted(run_end, np.arange(n), side="right")
    is_core = run_end - run_start >= min_pts

    labels = np.full(n, NOISE, dtype=int)
    cores = np.flatnonzero(is_core)
    if cores.size:
        first = np.ones(cores.size, dtype=bool)  # a core that starts a cluster
        first[1:] = cores[1:] >= run_end[cores[:-1]]
        component = np.cumsum(first) - 1
        smallest_row = np.minimum.reduceat(order[cores], np.flatnonzero(first))
        cluster_of = np.empty(smallest_row.size, dtype=int)
        cluster_of[np.argsort(smallest_row)] = np.arange(smallest_row.size)
        labels[cores] = cluster_of[component]

        rows = np.flatnonzero(~is_core)
        after = np.searchsorted(cores, rows)  # each row's next core
        left = cores[np.maximum(after - 1, 0)]
        right = cores[np.minimum(after, cores.size - 1)]
        # n exceeds every cluster id and stands for "no core on this side"
        from_left = np.where((after > 0) & (left >= run_start[rows]), labels[left], n)
        from_right = np.where((after < cores.size) & (right < run_end[rows]), labels[right], n)
        best = np.minimum(from_left, from_right)
        labels[rows] = np.where(best < n, best, NOISE)
    return labels, is_core


def dbscan(data, eps, min_pts, schema=None):
    """Classic DBSCAN over a 2-D table. Returns a ClusterAssignment.

    ``data`` and ``schema`` are as for ``pairwise_distances``. Clusters are
    maximal density-connected sets; the scan walks rows in order, so cluster
    ids are deterministic and a border point reachable from several
    clusters lands in the first-discovered one. The eps-neighborhood of a
    point includes the point itself.
    """
    if not eps > 0:
        raise InvalidInputError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise InvalidInputError(f"min_pts must be >= 1, got {min_pts}")
    numeric, nominal = _distance_inputs(data, schema)
    n = numeric.shape[0]
    if n == 0:
        raise InvalidInputError("dbscan needs at least one example")

    t = _squared_threshold(eps)
    order, lo, hi = _sweep_order(numeric, t)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    if numeric.shape[1] == 1 and not nominal.shape[1]:
        labels, is_core = _run_clusters(numeric[order, 0], t, min_pts, order, hi)
    else:
        labels, is_core = _graph_clusters(
            numeric[order], nominal[order], t, min_pts, lo, hi, rank
        )
    labels, is_core = labels[rank], is_core[rank]

    role = np.where(is_core, 2, (labels != NOISE).astype(np.intp))
    return ClusterAssignment(labels=labels, roles=np.array(_ROLES)[role])


def cluster_count(assignment):
    """Number of distinct non-noise cluster labels (performance-1)."""
    labels = assignment.labels
    return int(len(set(labels[labels != NOISE].tolist())))
