"""Dense real matrix factorizations underlying every reducer.

Matrices are plain float64 numpy arrays (rows x cols). Both factorizations
use Jacobi rotation schemes: simple, and accurate at the desk-scale sizes
this package targets (hundreds of rows, tens of columns). All functions are
pure; nothing here holds state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, InvalidInputError

# Rotations stop once every off-diagonal coupling falls below this, relative
# to the matrix norm; the sweep cap is 100 * n**2.
_REL_TOL = 1e-12
_SWEEP_CAP_FACTOR = 100
_POLAR_TOL = 1e-13
_POLAR_STEPS = 60


def as_matrix(x, name="matrix"):
    """Validate and return ``x`` as a non-empty, finite, 2-D float64 array."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInputError(f"{name} must be a non-empty 2-D array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def frobenius(a):
    return float(np.sqrt(np.sum(np.asarray(a, dtype=float) ** 2)))


@dataclass(frozen=True)
class SvdFactors:
    """Factorization X = U diag(S) V^T with orthonormal U, V columns.

    u is m x r, v is n x r, s holds the r = min(m, n) singular values
    sorted descending; trailing entries are exactly zero for rank-deficient
    input.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self):
        return (self.u * self.s) @ self.v.T


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted descending with matching orthonormal column vectors."""

    values: np.ndarray
    vectors: np.ndarray


def _sign_fix_columns(*mats):
    """Flip column signs so the first matrix's largest-magnitude entry is positive.

    Extra matrices get the same flips (an SVD must flip u and v together).
    """
    lead = mats[0]
    for k in range(lead.shape[1]):
        j = int(np.argmax(np.abs(lead[:, k])))
        if lead[j, k] < 0:
            for m in mats:
                m[:, k] = -m[:, k]


def _complete_orthonormal(u, start):
    """Fill columns of ``u`` from ``start`` on with unit vectors orthogonal to the rest.

    Each new column starts from the standard basis vector e_j with the
    largest residual after projecting out the columns so far. The squared
    residuals 1 - ||u[j, :col]||^2 sum to m - col, so the largest is at least
    (m - col) / m and the projection, applied twice, keeps full accuracy.
    """
    m = u.shape[0]
    for col in range(start, u.shape[1]):
        basis = u[:, :col]
        j = int(np.argmin(np.sum(basis * basis, axis=1)))
        e = np.zeros(m)
        e[j] = 1.0
        for _ in range(2):
            e -= basis @ (basis.T @ e)
        u[:, col] = e / np.sqrt(e @ e)


def _one_sided_jacobi(a):
    """One-sided Jacobi SVD of ``a`` with rows >= cols. Returns (u, s, v)."""
    m, n = a.shape
    w = a.copy()
    v = np.eye(n)
    cap = _SWEEP_CAP_FACTOR * n * n
    converged = n == 1
    for _ in range(cap):
        if converged:
            break
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                wp = w[:, p]
                wq = w[:, q]
                gamma = float(wp @ wq)
                alpha = float(wp @ wp)
                beta = float(wq @ wq)
                if alpha == 0.0 or beta == 0.0:
                    continue
                if abs(gamma) <= _REL_TOL * np.sqrt(alpha * beta):
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                sgn = 1.0 if zeta >= 0.0 else -1.0
                t = sgn / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                w[:, [p, q]] = w[:, [p, q]] @ rot
                v[:, [p, q]] = v[:, [p, q]] @ rot
                rotated = True
        if not rotated:
            converged = True
    if not converged:
        raise ConvergenceError(
            f"one-sided Jacobi SVD did not converge within the {cap}-sweep cap (100*n^2)"
        )

    norms = np.sqrt(np.sum(w * w, axis=0))
    order = np.argsort(-norms, kind="stable")
    s = norms[order]
    w = w[:, order]
    v = v[:, order]

    u = np.zeros((m, n))
    cutoff = max(m, n) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = 0
    for j in range(n):
        if s[j] > cutoff:
            u[:, j] = w[:, j] / s[j]
            rank = j + 1
        else:
            s[j] = 0.0
    if rank < n:
        s[rank:] = 0.0
        _complete_orthonormal(u, rank)
    return u, s, v


def svd(x):
    """Singular value decomposition X = U diag(S) V^T.

    Singular values come back non-negative and sorted descending; rank
    deficiency shows up as exactly-zero trailing values. Column signs are
    fixed so each right singular vector's largest-magnitude entry is
    positive (the paired left vector flips with it), which makes the output
    deterministic.
    """
    a = as_matrix(x, "svd input")
    if a.shape[0] >= a.shape[1]:
        u, s, v = _one_sided_jacobi(a)
    else:
        v, s, u = _one_sided_jacobi(a.T.copy())
    _sign_fix_columns(v, u)
    return SvdFactors(u=u, s=s, v=v)


def sym_eig(x):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns EigenPairs with eigenvalues sorted descending and orthonormal
    column eigenvectors, each sign-fixed so its largest-magnitude entry is
    positive. Raises InvalidInputError when the input is not symmetric to
    1e-10 relative.
    """
    a = as_matrix(x, "sym_eig input")
    n = a.shape[0]
    if a.shape[1] != n:
        raise InvalidInputError(f"sym_eig input must be square, got {a.shape}")
    anorm = frobenius(a)
    if frobenius(a - a.T) > 1e-10 * max(1.0, anorm):
        raise InvalidInputError("sym_eig input is not symmetric")

    w = (a + a.T) / 2.0
    v = np.eye(n)
    off_mask = ~np.eye(n, dtype=bool)
    cap = _SWEEP_CAP_FACTOR * n * n
    converged = False
    for _ in range(cap):
        off = np.sqrt(np.sum(w[off_mask] ** 2))
        if off <= _REL_TOL * max(1.0, anorm):
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                if apq == 0.0:
                    continue
                app = w[p, p]
                aqq = w[q, q]
                tau = (aqq - app) / (2.0 * apq)
                sgn = 1.0 if tau >= 0.0 else -1.0
                t = sgn / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # symmetric two-sided update J^T W J touching only rows/cols p, q
                rowp = c * w[p, :] - s * w[q, :]
                rowq = s * w[p, :] + c * w[q, :]
                w[p, :] = rowp
                w[q, :] = rowq
                w[:, p] = rowp
                w[:, q] = rowq
                w[p, p] = app - t * apq
                w[q, q] = aqq + t * apq
                w[p, q] = 0.0
                w[q, p] = 0.0
                colp = c * v[:, p] - s * v[:, q]
                v[:, q] = s * v[:, p] + c * v[:, q]
                v[:, p] = colp
    if not converged:
        raise ConvergenceError(
            f"Jacobi eigendecomposition did not converge within the {cap}-sweep cap (100*n^2)"
        )

    values = np.diag(w).copy()
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = v[:, order]
    _sign_fix_columns(vectors)
    return EigenPairs(values=values, vectors=vectors)


def center(x):
    """Subtract column means. Returns (centered, mean).

    A second refinement pass keeps the residual column means at the
    rounding floor rather than n*eps*scale.
    """
    a = as_matrix(x, "center input")
    mean = a.mean(axis=0)
    centered = a - mean
    correction = centered.mean(axis=0)
    centered -= correction
    return centered, mean + correction


def orthogonalize(w):
    """Symmetric decorrelation (W W^T)^(-1/2) W of a square full-rank matrix.

    All rows are decorrelated at once (no deflation), by matmuls alone: scale
    W by 1/sqrt(||W W^T||_1), which puts every singular value in (0, 1], then
    repeat W <- 1.5 W - 0.5 (W W^T) W (Bjorck & Bowie 1971) until
    max|W W^T - I| <= _POLAR_TOL = 1e-13. A step maps a singular value s to
    s (3 - s^2) / 2 <= 1.5 s, so reaching the bound within _POLAR_STEPS = 60
    steps certifies cond(W) <= 1.5**60 ~ 3.7e10. A W that does not, such as
    a rank-deficient one, raises DegenerateInputError.
    """
    a = as_matrix(w, "orthogonalize input")
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"orthogonalize input must be square, got {a.shape}")
    gram = a @ a.T
    scale = np.max(np.sum(np.abs(gram), axis=0))
    if scale > 0.0:
        eye = np.eye(a.shape[0])
        v = a / np.sqrt(scale)
        gram = gram / scale
        for _ in range(_POLAR_STEPS):
            if np.max(np.abs(gram - eye)) <= _POLAR_TOL:
                return v
            v = 1.5 * v - 0.5 * (gram @ v)
            gram = v @ v.T
    raise DegenerateInputError(f"orthogonalize input is singular or cond(W) > 1.5**{_POLAR_STEPS}")
