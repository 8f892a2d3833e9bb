"""Self-organizing map with a rectangular grid and Gaussian neighborhood.

Training is the sequential (per-sample) rule: find the best-matching unit,
then pull every node toward the sample with a weight that falls off with
squared grid distance from the BMU. Learning rate and radius decay
exponentially from their start values to fixed floors over the epochs.
Encoding a row yields the (col, row) grid coordinates of its BMU, a
2-attribute discretized representation.

The squared grid distances between every pair of nodes are tabled once per
fit, and the learning rate times the neighborhood weight once per epoch.
A sample then costs a few array operations in preallocated buffers: the
differences to every prototype, their squared norms and the argmin,
scaling the differences by the BMU's row of the epoch table, and adding
them to the codebook. That is the same arithmetic in the same order as
evaluating the rule per sample, so the codebook is bit-identical to it.
Each table holds nodes x nodes floats.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidConfigError, InvalidInputError
from ..linalg import as_matrix
from .base import ReducedDataset

LR_FLOOR = 0.01
RADIUS_FLOOR = 0.5


@dataclass
class SomGrid:
    """Fitted map: one prototype vector per node plus the training log.

    Node ``i`` sits at grid position (col, row) = (i % width, i // width).
    ``qe_log[0]`` is the mean quantization error before training; each later
    entry follows one epoch.
    """

    width: int
    height: int
    codebook: np.ndarray  # (width*height, input_dim)
    qe_log: list = field(default_factory=list)

    @property
    def n_nodes(self):
        return self.width * self.height

    def grid_coords(self):
        idx = np.arange(self.n_nodes)
        return np.column_stack([idx % self.width, idx // self.width]).astype(float)


def _decayed(start, floor, epoch, epochs):
    """Exponential decay from start to floor with time constant epochs/ln(start/floor)."""
    if start <= floor:
        return start
    tau = epochs / np.log(start / floor)
    return max(floor, start * np.exp(-epoch / tau))


def _squared_distances(x, codebook):
    """[i, j]: squared Euclidean distance of row i to prototype j, by the expanded square."""
    return (
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * x @ codebook.T
        + np.sum(codebook * codebook, axis=1)[None, :]
    )


def quantization_error(codebook, x):
    """Mean Euclidean distance from each row to its best-matching prototype."""
    nearest = _squared_distances(x, codebook).min(axis=1)
    return float(np.mean(np.sqrt(np.maximum(nearest, 0.0))))


def som_fit(x, width, height, epochs=100, lr0=0.5, radius0=None, seed=0):
    """Train a SomGrid on the rows of ``x``.

    radius0 defaults to half the larger grid side. Sample order is
    reshuffled each epoch from the seed, so identical seed/config/data give
    a bit-identical codebook.
    """
    x = as_matrix(x, "som input")
    if width * height < 2:
        raise InvalidConfigError("grid needs at least 2 nodes")
    if epochs < 1:
        raise InvalidConfigError(f"epochs must be >= 1, got {epochs}")
    if not 0.0 < lr0 <= 1.0:
        raise InvalidConfigError(f"lr0 must be in (0, 1], got {lr0}")
    if radius0 is None:
        radius0 = max(width, height) / 2.0
    if radius0 < 0:
        raise InvalidConfigError(f"radius0 must be >= 0, got {radius0}")

    rng = np.random.default_rng(seed)
    n, dim = x.shape
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    flat = hi - lo == 0.0  # constant columns still need a spread to learn from
    lo = np.where(flat, lo - 0.5, lo)
    hi = np.where(flat, hi + 0.5, hi)
    codebook = rng.uniform(size=(width * height, dim)) * (hi - lo) + lo

    coords = np.column_stack(
        [np.arange(width * height) % width, np.arange(width * height) // width]
    ).astype(float)
    gd = coords[:, None, :] - coords[None, :, :]
    grid_sq = np.sum(gd * gd, axis=2)  # [b, j]: squared grid distance of node j from node b

    diff = np.empty_like(codebook)
    diff_sq = np.empty_like(codebook)
    dist_sq = np.empty(width * height)
    qe_log = [quantization_error(codebook, x)]
    for epoch in range(epochs):
        lr = _decayed(lr0, LR_FLOOR, epoch, epochs)
        radius = max(_decayed(radius0, RADIUS_FLOOR, epoch, epochs), RADIUS_FLOOR)
        denom = 2.0 * radius * radius
        step = (lr * np.exp(-grid_sq / denom))[:, :, None]  # [b]: lr * influence of BMU b
        for i in rng.permutation(n):
            np.subtract(x[i], codebook, out=diff)
            np.multiply(diff, diff, out=diff_sq)
            diff_sq.sum(axis=1, out=dist_sq)
            diff *= step[dist_sq.argmin()]
            codebook += diff
        qe_log.append(quantization_error(codebook, x))

    return SomGrid(width=int(width), height=int(height), codebook=codebook, qe_log=qe_log)


def som_encode(grid, x):
    """Map each row to the (col, row) coordinates of its best-matching unit.

    Distance ties break toward the lowest node index.
    """
    x = as_matrix(x, "som encode input")
    if x.shape[1] != grid.codebook.shape[1]:
        raise InvalidInputError(
            f"input has {x.shape[1]} columns, codebook expects {grid.codebook.shape[1]}"
        )
    bmu = np.argmin(_squared_distances(x, grid.codebook), axis=1)
    data = np.column_stack([bmu % grid.width, bmu // grid.width]).astype(float)
    # a 1-D input still yields two grid coordinates; keep the dim bound consistent
    return ReducedDataset(
        data=data,
        reducer="som",
        k=2,
        original_dim=max(x.shape[1], 2),
        config={"width": grid.width, "height": grid.height},
    )
