"""Dense real matrix factorizations underlying every reducer.

Matrices are plain float64 numpy arrays (rows x cols). One one-sided
(Hestenes) Jacobi kernel computes both factorizations: ``svd`` directly and
``sym_eig`` on a shifted positive semidefinite copy. It is simple, and
accurate at the desk-scale sizes this package targets (hundreds of rows,
tens of columns). All functions are pure; nothing here holds state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, InvalidInputError

# Rotations stop once every column pair's coupling |w_p . w_q| falls below
# this times ||w_p|| ||w_q||; the sweep cap is 100 * n**2.
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
    """One-sided Jacobi rotations of ``a`` with rows >= cols: (w, s, v, exponent).

    The rotations run on ``a`` times the power of two, 2**-exponent, that
    brings its largest entry into [0.5, 1), which is exact and changes no
    rotation. They stop with mutually orthogonal columns w = a v 2**-exponent,
    v orthogonal. The columns come sorted by norm, descending, and s holds
    those norms with every one at or below the rank cutoff set to 0.0, so
    ldexp(s, exponent) are the singular values; ``svd`` forms the left
    vectors from w and s, which ``sym_eig`` does not need. The stopping test
    scales |gamma| by sqrt(alpha) * sqrt(beta): for two columns far below the
    largest, alpha * beta underflows to 0 and the sweep would never stop.
    ``sq_norms`` caches each column's squared norm; a rotation recomputes
    only the two columns it touches. w sits above v in one (m + n) x n
    array, so a rotation is one product of its two columns with ``rot``.
    """
    m, n = a.shape
    exponent = math.frexp(float(np.abs(a).max()))[1]
    wv = np.empty((m + n, n))
    w = wv[:m]
    v = wv[m:]
    np.ldexp(a, -exponent, out=w)
    v[...] = np.eye(n)
    rot = np.empty((2, 2))
    cols = [w[:, j] for j in range(n)]
    sq_norms = [float(c @ c) for c in cols]
    cap = _SWEEP_CAP_FACTOR * n * n
    converged = n == 1
    for _ in range(cap):
        if converged:
            break
        rotated = False
        for p in range(n - 1):
            wp = cols[p]
            for q in range(p + 1, n):
                alpha = sq_norms[p]
                beta = sq_norms[q]
                if alpha == 0.0 or beta == 0.0:
                    continue
                wq = cols[q]
                gamma = float(wp @ wq)
                if abs(gamma) <= _REL_TOL * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                sgn = 1.0 if zeta >= 0.0 else -1.0
                t = sgn / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot[0, 0] = rot[1, 1] = c
                rot[0, 1] = s
                rot[1, 0] = -s
                pair = wv.take((p, q), axis=1) @ rot
                wv[:, p] = pair[:, 0]
                wv[:, q] = pair[:, 1]
                sq_norms[p] = float(wp @ wp)
                sq_norms[q] = float(wq @ wq)
                rotated = True
        if not rotated:
            converged = True
    if not converged:
        raise ConvergenceError(
            f"one-sided Jacobi rotations did not converge within the {cap}-sweep cap (100*n^2)"
        )

    norms = np.sqrt(np.sum(w * w, axis=0))
    order = np.argsort(-norms, kind="stable")
    s = norms[order]
    s[s <= max(m, n) * np.finfo(float).eps * s[0]] = 0.0
    return w[:, order], s, v[:, order], exponent


def _jacobi_svd(a):
    """SVD (u, s, v) of ``a`` with rows >= cols from the one-sided Jacobi kernel.

    Each left vector with a nonzero singular value is its rotated column
    over that value; the rest complete an orthonormal basis.
    """
    w, s, v, exponent = _one_sided_jacobi(a)
    rank = int(np.count_nonzero(s))
    u = np.zeros(w.shape)  # C order: _complete_orthonormal's products round by layout
    u[:, :rank] = w[:, :rank] / s[:rank]
    if rank < u.shape[1]:
        _complete_orthonormal(u, rank)
    return u, np.ldexp(s, exponent), v


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
        u, s, v = _jacobi_svd(a)
    else:
        v, s, u = _jacobi_svd(a.T.copy())
    _sign_fix_columns(v, u)
    return SvdFactors(u=u, s=s, v=v)


def sym_eig(x):
    """Eigendecomposition of a symmetric matrix by one-sided Jacobi rotations.

    The Gershgorin shift sigma = max(0, max_i(sum_{j!=i} |w_ij| - w_ii)) makes
    W + sigma*I positive semidefinite, so its singular values, from the same
    one-sided sweep behind ``svd``, are the eigenvalues plus sigma and its
    right singular vectors are the eigenvectors. The shift is what separates
    +/-lambda pairs: an unshifted one-sided sweep diagonalizes W^2. An exactly
    zero row of W (a constant column's covariance) is never rotated and keeps
    an exactly 0.0 eigenvalue, unless sigma is so small against the largest
    singular value that the rank cutoff zeroes it (then it reads -sigma).

    An input whose norms, row sums or shift could overflow is first scaled
    by a power of two, 2**-k, and its eigenvalues by 2**k afterwards; any
    other input is left as it is, so it rounds exactly as unscaled.

    Returns EigenPairs with eigenvalues sorted descending and orthonormal
    column eigenvectors, each sign-fixed so its largest-magnitude entry is
    positive. Raises InvalidInputError when the input is not symmetric,
    ||A - A^T|| > 1e-10 * max(1, ||A||), or has an eigenvalue beyond the
    float range.
    """
    a = as_matrix(x, "sym_eig input")
    n = a.shape[0]
    if a.shape[1] != n:
        raise InvalidInputError(f"sym_eig input must be square, got {a.shape}")
    # max|a| < 2**(510 - bit_length(n)) keeps every squared norm below
    # (2 n max|a|)**2 < 2**1022
    k = max(0, math.frexp(float(np.abs(a).max()))[1] + n.bit_length() - 510)
    if k:
        a = np.ldexp(a, -k)
    if frobenius(a - a.T) > 1e-10 * max(math.ldexp(1.0, -k), frobenius(a)):
        raise InvalidInputError("sym_eig input is not symmetric")

    w = (a + a.T) / 2.0
    diag = np.diag(w)
    off_row_sums = np.sum(np.abs(w - np.diag(diag)), axis=1)
    shift = max(0.0, float(np.max(off_row_sums - diag)))
    _, s, vectors, exponent = _one_sided_jacobi(w + shift * np.eye(n))
    _sign_fix_columns(vectors)
    values = np.ldexp(s, exponent) - shift
    if k:
        if np.abs(values).max() > math.ldexp(np.finfo(float).max, -k):
            raise InvalidInputError("sym_eig input has an eigenvalue beyond the float range")
        values = np.ldexp(values, k)
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
    scale = np.abs(gram).sum(axis=0).max()
    if scale > 0.0:
        eye = np.eye(a.shape[0])
        v = a / np.sqrt(scale)
        gram = gram / scale
        for _ in range(_POLAR_STEPS):
            if np.abs(gram - eye).max() <= _POLAR_TOL:
                return v
            v = 1.5 * v - 0.5 * (gram @ v)
            gram = v @ v.T
    raise DegenerateInputError(f"orthogonalize input is singular or cond(W) > 1.5**{_POLAR_STEPS}")
