"""Principal component analysis: fit, encode, reconstruct.

The basis holds the top eigenvectors of the sample covariance of the
centered data. The retained count comes either from a fixed ``k`` or from
the smallest count whose cumulative eigenvalue fraction reaches a variance
threshold.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateInputError, InvalidConfigError, InvalidInputError
from ..linalg import as_matrix, center, svd, sym_eig
from .base import ReducedDataset


@dataclass(frozen=True)
class PcaModel:
    """Fitted PCA state.

    basis: (original_dim, retained) orthonormal columns, leading axes first.
    mean: column means removed before fitting.
    eigenvalues: all original_dim covariance eigenvalues, descending.
    """

    basis: np.ndarray
    mean: np.ndarray
    eigenvalues: np.ndarray

    @property
    def retained(self):
        return self.basis.shape[1]

    @property
    def original_dim(self):
        return self.basis.shape[0]


# (shape, bytes) of the last matrix covariance_eig decomposed, and its result
_last_covariance = None


def covariance_eig(x):
    """Center the rows of ``x`` and eigendecompose their sample covariance.

    Returns (centered, mean, EigenPairs), eigenvalues descending. PCA and
    FastICA's whitening both start from this one decomposition, so the last
    result is kept and returned again, read-only, for an identical matrix:
    a PCA fit and a FastICA fit on one table decompose it once.
    """
    global _last_covariance
    x = np.asarray(x, dtype=float)
    key = (x.shape, x.tobytes())
    if _last_covariance is not None and _last_covariance[0] == key:
        return _last_covariance[1]
    centered, mean = center(x)
    cov = (centered.T @ centered) / (x.shape[0] - 1)
    pairs = sym_eig(cov)
    result = (centered, mean, pairs)
    for array in (centered, mean, pairs.values, pairs.vectors):
        array.setflags(write=False)
    _last_covariance = (key, result)
    return result


def retained_for_threshold(eigenvalues, threshold):
    """Smallest component count whose cumulative eigenvalue fraction >= threshold.

    Capped at len(eigenvalues): the last cumulative fraction can round just
    below a threshold of 1.0.
    """
    total = float(np.sum(eigenvalues))
    if total <= 0.0:
        return 1
    fractions = np.cumsum(eigenvalues) / total
    return min(int(np.searchsorted(fractions, threshold - 1e-12) + 1), len(eigenvalues))


def pca_fit(x, k=None, variance_threshold=None):
    """Fit a PcaModel choosing the retained count by exactly one criterion.

    Pass ``k`` for a fixed count or ``variance_threshold`` in (0, 1] for the
    cumulative-variance rule.
    """
    x = as_matrix(x, "pca input")
    n, d = x.shape
    if n < 2:
        raise DegenerateInputError("pca_fit needs at least 2 rows")
    if (k is None) == (variance_threshold is None):
        raise InvalidConfigError("specify exactly one of k or variance_threshold")
    if k is not None and not 1 <= k <= d:
        raise InvalidConfigError(f"k must be in [1, {d}], got {k}")
    if variance_threshold is not None and not 0.0 < variance_threshold <= 1.0:
        raise InvalidConfigError(
            f"variance_threshold must be in (0, 1], got {variance_threshold}"
        )

    _, mean, pairs = covariance_eig(x)
    eigenvalues = np.maximum(pairs.values, 0.0)  # clamp eigen-noise below zero

    if k is None:
        k = retained_for_threshold(eigenvalues, variance_threshold)
    return PcaModel(basis=pairs.vectors[:, :k].copy(), mean=mean, eigenvalues=eigenvalues)


def pca_encode(model, x):
    """Project rows onto the retained axes: (X - mean) @ basis."""
    x = as_matrix(x, "pca encode input")
    if x.shape[1] != model.original_dim:
        raise InvalidInputError(
            f"input has {x.shape[1]} columns, model expects {model.original_dim}"
        )
    return ReducedDataset((x - model.mean) @ model.basis)


def pca_reconstruct(model, reduced):
    """Map reduced coordinates back: Y @ basis^T + mean."""
    y = reduced.data if isinstance(reduced, ReducedDataset) else np.asarray(reduced, dtype=float)
    if y.ndim != 2 or y.shape[1] != model.retained:
        raise InvalidInputError(
            f"reduced data must have {model.retained} columns, got shape {y.shape}"
        )
    return y @ model.basis.T + model.mean


def svd_reduce(x, k):
    """Project rows onto the top-k right singular directions of the centered data.

    Returns U_k * S_k, which equals centered-X @ V_k; deterministic under
    the shared sign convention, so it matches pca_encode exactly (not just
    up to sign) on the same data.
    """
    x = as_matrix(x, "svd_reduce input")
    if not 1 <= k <= min(x.shape):
        raise InvalidConfigError(f"k must be in [1, {min(x.shape)}], got {k}")
    centered, _ = center(x)
    factors = svd(centered)
    return ReducedDataset(factors.u[:, :k] * factors.s[:k])
