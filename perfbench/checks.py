"""Correctness checks on one benchmark pass, computed apart from redclust.

Each check compares what the program returned with numpy's own linear
algebra, or with a property the method must have, and raises CheckFailure
when they disagree. ``check_pass`` runs every check on the calls a
``layers.Capture`` recorded.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

NOISE = -1
TIMING_FILES = ("table_time_ms.tsv",)
TIMING_FIELDS = ("reduce_ms", "cluster_ms", "total_ms")


class CheckFailure(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailure(message)


def _centred(x):
    x = np.asarray(x, dtype=float)
    return x - x.mean(axis=0)


def check_svd(x, factors):
    """Singular values against numpy.linalg.svd of the same matrix."""
    expected = np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)
    scale = max(1.0, float(expected[0]))
    err = float(np.max(np.abs(np.asarray(factors.s) - expected)))
    _require(err <= 1e-8 * scale, f"svd: singular values differ from numpy by {err:.3e}")


def check_svd_reduce(x, k, reduced):
    """Each reduced column equals +-U_j s_j of numpy's SVD of the centred data."""
    u, s, _ = np.linalg.svd(_centred(x), full_matrices=False)
    data = np.asarray(reduced.data)
    _require(data.shape == (len(u), k), f"svd_reduce: shape {data.shape}, expected {(len(u), k)}")
    for j in range(k):
        ref = u[:, j] * s[j]
        err = min(np.max(np.abs(data[:, j] - ref)), np.max(np.abs(data[:, j] + ref)))
        _require(err <= 1e-7 * max(1.0, float(s[0])), f"svd_reduce: column {j} off +-U s by {err:.3e}")


def retained_count(eigenvalues, threshold):
    """Smallest count whose cumulative eigenvalue share reaches ``threshold``."""
    share = np.cumsum(eigenvalues) / np.sum(eigenvalues)
    return int(np.argmax(share >= threshold - 1e-12)) + 1


def check_pca_fit(x, threshold, k, model):
    """Retained count by the variance rule on numpy's eigvalsh; orthonormal basis."""
    centred = _centred(x)
    cov = centred.T @ centred / (len(centred) - 1)
    values = np.maximum(np.linalg.eigvalsh(cov)[::-1], 0.0)
    scale = max(1.0, float(values[0]))
    err = float(np.max(np.abs(np.asarray(model.eigenvalues) - values)))
    _require(err <= 1e-8 * scale, f"pca_fit: eigenvalues differ from numpy by {err:.3e}")
    expected = k if k is not None else retained_count(values, threshold)
    _require(model.retained == expected, f"pca_fit: retained {model.retained}, expected {expected}")
    basis = np.asarray(model.basis)
    err = float(np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))))
    _require(err <= 1e-9, f"pca_fit: basis is not orthonormal (max error {err:.3e})")


def check_fastica(model, reduced):
    """W W^T = I, and the transformed rows have identity covariance."""
    w = np.asarray(model.unmixing)
    err = float(np.max(np.abs(w @ w.T - np.eye(len(w)))))
    _require(err <= 1e-8, f"fastica: W W^T differs from I by {err:.3e}")
    cov = np.cov(np.asarray(reduced.data), rowvar=False, ddof=1)
    err = float(np.max(np.abs(np.atleast_2d(cov) - np.eye(len(w)))))
    _require(err <= 1e-6, f"fastica: covariance of transformed rows differs from I by {err:.3e}")


def quantization_error(codebook, x):
    """Mean distance from each row to its nearest prototype, by direct differences."""
    diff = np.asarray(x, dtype=float)[:, None, :] - np.asarray(codebook)[None, :, :]
    return float(np.mean(np.sqrt(np.min(np.sum(diff * diff, axis=2), axis=1))))


def check_som(grid, x, reduced):
    """Encoded coordinates lie on the grid; training lowered the quantization error."""
    coords = np.asarray(reduced.data)
    on_grid = (
        np.all(coords == np.round(coords))
        and np.all((coords[:, 0] >= 0) & (coords[:, 0] < grid.width))
        and np.all((coords[:, 1] >= 0) & (coords[:, 1] < grid.height))
    )
    _require(bool(on_grid), "som: encoded coordinates are off the grid")
    final = quantization_error(grid.codebook, x)
    initial = float(grid.qe_log[0])
    _require(final < initial, f"som: final quantization error {final:.6g} >= initial {initial:.6g}")


def _distance_blocks(data, schema):
    """(float numeric block, integer-coded nominal block) of DBSCAN's input rows."""
    if schema is None:
        return np.asarray(data, dtype=float), np.zeros((len(data), 0), dtype=np.int64)
    kinds = schema.kinds
    numeric = np.array([[float(r[i]) for i, k in enumerate(kinds) if k == "numeric"] for r in data])
    numeric = numeric.reshape(len(data), -1)
    nominal_cols = [i for i, k in enumerate(kinds) if k == "nominal"]
    nominal = np.zeros((len(data), len(nominal_cols)), dtype=np.int64)
    for j, col in enumerate(nominal_cols):
        codes = {}
        nominal[:, j] = [codes.setdefault(r[col], len(codes)) for r in data]
    return numeric, nominal


def neighbourhoods(data, schema, eps, chunk=256):
    """Boolean n x n eps-neighbourhood matrix under the mixed Euclidean distance."""
    numeric, nominal = _distance_blocks(data, schema)
    n = len(numeric)
    within = np.zeros((n, n), dtype=bool)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        sq = np.zeros((hi - lo, n))
        for j in range(numeric.shape[1]):
            diff = numeric[lo:hi, j, None] - numeric[None, :, j]
            sq += diff * diff
        for j in range(nominal.shape[1]):
            sq += nominal[lo:hi, j, None] != nominal[None, :, j]
        within[lo:hi] = np.sqrt(sq) <= eps
    return within


def _roots(parent, idx):
    """Union-find roots of ``idx`` by repeated pointer jumps."""
    r = parent[idx]
    while True:
        up = parent[r]
        if np.array_equal(up, r):
            return r
        r = up


def components(adjacency, members):
    """Union-find over the edges of ``adjacency`` among ``members``; root per row index."""
    parent = np.arange(len(adjacency))
    for i in members:
        linked = np.append(np.flatnonzero(adjacency[i]), i)
        roots = _roots(parent, linked)
        top = roots.min()
        parent[roots] = top
        parent[linked] = top
    return _roots(parent, np.arange(len(adjacency)))


def check_dbscan(data, eps, min_pts, schema, assignment):
    """Core set, core clusters, border and noise points against independent distances."""
    within = neighbourhoods(data, schema, eps)
    labels = np.asarray(assignment.labels)
    core = within.sum(axis=1) >= min_pts
    roles = np.asarray(assignment.roles)
    _require(np.array_equal(roles == "core", core), "dbscan: core set differs from independent distances")

    core_core = within & core[None, :]
    core_idx = np.flatnonzero(core)
    root = components(core_core, core_idx)[core_idx]
    core_labels = labels[core_idx]
    _require(bool(np.all(core_labels != NOISE)), "dbscan: a core point is labelled noise")
    pairs = set(zip(root.tolist(), core_labels.tolist()))
    _require(len(pairs) == len(set(root.tolist())) == len(set(core_labels.tolist())),
             "dbscan: core clusters differ from the connected components of the core eps-graph")

    others = np.flatnonzero(~core)
    has_core = core_core[others].any(axis=1)
    noise = labels[others] == NOISE
    _require(not bool(np.any(noise & has_core)), "dbscan: a noise point has a core neighbour")
    same = core_core[others] & (labels[None, :] == labels[others, None])
    _require(bool(np.all(same.any(axis=1) | noise)),
             "dbscan: a border point is not in the cluster of any core neighbour")


def mixture_log_likelihood(x, weights, means, variances):
    """Total log-likelihood of rows ``x`` under a diagonal Gaussian mixture."""
    x = np.asarray(x, dtype=float)
    parts = []
    for w, mu, var in zip(weights, means, variances):
        z = (x - mu) ** 2 / var + np.log(2.0 * np.pi * var)
        parts.append(np.log(w) - 0.5 * z.sum(axis=1))
    parts = np.column_stack(parts)
    peak = parts.max(axis=1)
    return float(np.sum(peak + np.log(np.exp(parts - peak[:, None]).sum(axis=1))))


def check_em(x, model):
    """mean_log_likelihood recomputed from the mixture; each trace rises except at resets."""
    n = len(x)
    expected = mixture_log_likelihood(x, model.weights, model.means, model.variances) / n
    got = model.mean_log_likelihood
    _require(abs(got - expected) <= 1e-9 * max(1.0, abs(expected)),
             f"em_fit: mean log-likelihood {got!r}, recomputed {expected!r}")
    resets = set(map(tuple, model.reset_events))
    for run, trace in enumerate(model.traces):
        for step in range(len(trace) - 1):
            if (run, step) in resets:
                continue
            drop = trace[step] - trace[step + 1]
            _require(drop <= 1e-9 * max(1.0, abs(trace[step])),
                     f"em_fit: run {run} log-likelihood falls by {drop:.3e} at step {step}")


# captured call key -> check reading that call's (arguments, result)
_CHECKS = {
    "svd": lambda a, out: check_svd(a["x"], out),
    "svd_reduce": lambda a, out: check_svd_reduce(a["x"], a["k"], out),
    "pca_fit": lambda a, out: check_pca_fit(a["x"], a["variance_threshold"], a["k"], out),
    "fastica_transform": lambda a, out: check_fastica(a["model"], out),
    "som_encode": lambda a, out: check_som(a["grid"], a["x"], out),
    "dbscan": lambda a, out: check_dbscan(a["data"], a["eps"], a["min_pts"], a["schema"], out),
    "em_fit": lambda a, out: check_em(a["x"], out),
}


def check_pass(calls):
    """Run every check on one pass's captured calls; return how many calls were checked."""
    for key, check in _CHECKS.items():
        for args, result in calls[key]:
            check(args, result)
    return sum(len(calls[key]) for key in _CHECKS)


def output_digest(out_dir):
    """SHA-256 over every output file with the wall-time fields taken out."""
    out_dir = Path(out_dir)
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        if path.name in TIMING_FILES:
            continue
        if path.name == "report.json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload.pop("generated_at", None)
            for cell in payload.get("cells", []):
                for key in TIMING_FIELDS:
                    cell.pop(key, None)
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        else:
            body = path.read_bytes()
        digest.update(rel.encode("utf-8") + b"\0" + body + b"\0")
    return digest.hexdigest()
