"""FastICA by symmetric fixed-point iteration.

Rows are centered and whitened through PCA's ``covariance_eig``, the
eigendecomposition of the sample covariance, with each axis scaled to unit
variance; then the unmixing matrix W is driven by Hyvarinen's fixed-point
update (Hyvarinen 1999, "Fast and robust fixed-point algorithms for ICA")

    W+ = E{g(y) x^T} - diag(E{g'(y)}) W,   y = W x,

re-orthogonalizing W after every step (symmetric decorrelation, all
components at once). Expectations are sample means over the rows.

The starting W and every update are decorrelated to the polar factor
(W W^T)^(-1/2) W by ``linalg.orthogonalize``, the matmul-only iteration
of the same paper.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateInputError, InvalidConfigError, InvalidInputError
from ..linalg import as_matrix, orthogonalize
from ..linalg import sym_eig  # noqa: F401  (perfbench/layers.py traces sym_eig under this name)
from .base import ReducedDataset
from .pca import covariance_eig

# eigenvalues at or below this share of the largest are taken as rank deficiency
_EIGENVALUE_FLOOR = 1e-12


def _tanh(y):
    gy = np.tanh(y)
    return gy, 1.0 - gy**2


def _cube(y):
    return y**3, 3.0 * y**2


# name -> y -> (g(y), g'(y))
NONLINEARITIES = {"tanh": _tanh, "cube": _cube}


@dataclass
class IcaModel:
    """Fitted FastICA state: whitening map plus orthogonal unmixing matrix."""

    mean: np.ndarray  # (d,)
    whitening: np.ndarray  # (c, d): maps centered rows to unit-covariance space
    unmixing: np.ndarray  # (c, c): W, orthogonal
    nonlinearity: str
    converged: bool
    n_iter: int

    @property
    def n_components(self):
        return self.unmixing.shape[0]

    @property
    def original_dim(self):
        return self.whitening.shape[1]


def _whiten(x, n_components):
    centered, mean, pairs = covariance_eig(x)
    usable = int(np.sum(pairs.values > _EIGENVALUE_FLOOR * max(pairs.values[0], 0.0)))
    if usable < n_components:
        raise DegenerateInputError(
            f"covariance rank {usable} is below the requested {n_components} components"
        )
    values = pairs.values[:n_components]
    vectors = pairs.vectors[:, :n_components]
    whitening = (vectors / np.sqrt(values)).T
    return centered @ whitening.T, whitening, mean


def fastica_fit(
    x,
    n_components=None,
    nonlinearity="tanh",
    tol=1e-6,
    max_iter=200,
    seed=0,
    w_init=None,
):
    """Fit an IcaModel on the rows of ``x``.

    n_components defaults to the input dimension. Stops when the largest
    row-wise |1 - |<w_new, w_old>|| drops below ``tol``; hitting max_iter
    instead leaves converged=False on the model (a warning state, not a
    failure), which reports surface later.
    """
    x = as_matrix(x, "fastica input")
    n, d = x.shape
    if n < 2:
        raise DegenerateInputError("fastica_fit needs at least 2 rows")
    if n_components is None:
        n_components = d
    if not 1 <= n_components <= d:
        raise InvalidConfigError(f"n_components must be in [1, {d}], got {n_components}")
    if nonlinearity not in NONLINEARITIES:
        raise InvalidConfigError(
            f"nonlinearity must be one of {sorted(NONLINEARITIES)}, got {nonlinearity!r}"
        )
    if not tol > 0:
        raise InvalidConfigError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InvalidConfigError(f"max_iter must be >= 1, got {max_iter}")

    contrast = NONLINEARITIES[nonlinearity]
    whitened, whitening, mean = _whiten(x, n_components)

    if w_init is None:
        w_init = np.random.default_rng(seed).standard_normal((n_components, n_components))
    else:
        w_init = as_matrix(w_init, "w_init")
        if w_init.shape != (n_components, n_components):
            raise InvalidConfigError(
                f"w_init must be {(n_components, n_components)}, got {w_init.shape}"
            )
    w = orthogonalize(w_init)

    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        y = whitened @ w.T  # rows are y = W x per sample
        gy, g_prime_y = contrast(y)
        w_new = orthogonalize((gy.T @ whitened) / n - (g_prime_y.sum(axis=0) / n)[:, None] * w)
        drift = np.abs(1.0 - np.abs((w_new * w).sum(axis=1))).max()
        w = w_new
        if drift < tol:
            converged = True
            break

    return IcaModel(
        mean=mean,
        whitening=whitening,
        unmixing=w,
        nonlinearity=nonlinearity,
        converged=converged,
        n_iter=iteration,
    )


def fastica_transform(model, x):
    """Unmix rows: y = W . whiten(x - mean), one output row per input row."""
    x = as_matrix(x, "fastica transform input")
    if x.shape[1] != model.original_dim:
        raise InvalidInputError(
            f"input has {x.shape[1]} columns, model expects {model.original_dim}"
        )
    return ReducedDataset((x - model.mean) @ model.whitening.T @ model.unmixing.T)
