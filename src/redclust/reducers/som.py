"""Self-organizing map with a rectangular grid and Gaussian neighborhood.

Training is Kohonen's batch map (Self-Organizing Maps, 3rd ed. 2001): each
epoch finds every row's best-matching unit (BMU) against the current
codebook, then sets each node to the mean of all rows weighted by the
Gaussian neighborhood h(BMU, node) of squared grid distance. The radius
decays exponentially from its start value to a fixed floor over the
epochs. There is no learning rate and no sample order. Encoding a row
yields the (col, row) grid coordinates of its BMU, a 2-attribute
discretized representation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidConfigError, InvalidInputError
from ..linalg import as_matrix
from .base import ReducedDataset

RADIUS_FLOOR = 0.5
_TINY = np.finfo(float).tiny  # smallest normal float


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
    """Exponential decay from start to floor with time constant epochs/ln(start/floor).

    Never below the floor: a start at or below it stays at the floor.
    """
    if start <= floor:
        return floor
    tau = epochs / np.log(start / floor)
    return max(floor, start * np.exp(-epoch / tau))


def _row_terms(x):
    """(2 x, |x_i|^2 as a column): the row terms of ``_squared_distances``."""
    return 2.0 * x, np.sum(x * x, axis=1)[:, None]


def _squared_distances(row_terms, codebook, out=None):
    """(rows, nodes) squared distances, written into ``out`` when given.

    By the expanded square |x_i|^2 - (2 x_i) . c_j + |c_j|^2, from the rows'
    ``_row_terms``, which rounds the same whether ``out`` is fresh or
    reused. Training computes the row terms once and reuses one buffer: a
    fresh (rows, nodes) array per epoch costs more than the arithmetic.
    """
    doubled, norms = row_terms
    out = np.matmul(doubled, codebook.T, out=out)
    np.subtract(norms, out, out=out)
    out += np.sum(codebook * codebook, axis=1)
    return out


def _mean_root(nearest):
    """Mean Euclidean distance to the nearest prototype, from each row's squared one."""
    return float(np.mean(np.sqrt(np.maximum(nearest, 0.0))))


def _mean_nearest(distances):
    """Mean Euclidean distance from each row to its nearest prototype, from squared distances."""
    return _mean_root(distances.min(axis=1))


def quantization_error(codebook, x):
    """Mean Euclidean distance from each row to its best-matching prototype."""
    return _mean_nearest(_squared_distances(_row_terms(x), codebook))


def som_fit(x, width, height, epochs=100, radius0=None, seed=0):
    """Train a SomGrid on the rows of ``x`` by the batch map.

    radius0 defaults to half the larger grid side. The codebook starts
    uniform over each column's range, drawn from the seed, so identical
    seed/config/data give a bit-identical codebook; a constant column
    starts every node at its value, so it moves no row's BMU. A node whose
    neighborhood weight, summed over the rows, underflows (to 0 or to a
    subnormal, too few bits to divide by) keeps its prototype that epoch.
    """
    x = as_matrix(x, "som input")
    if width < 1 or height < 1 or width * height < 2:
        raise InvalidConfigError(f"grid needs at least 2 nodes, got {width}x{height}")
    if epochs < 1:
        raise InvalidConfigError(f"epochs must be >= 1, got {epochs}")
    if radius0 is None:
        radius0 = max(width, height) / 2.0
    if not 0 <= radius0 < math.inf:
        raise InvalidConfigError(f"radius0 must be finite and >= 0, got {radius0}")

    rng = np.random.default_rng(seed)
    dim = x.shape[1]
    nodes = width * height
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    grid = SomGrid(
        width=int(width),
        height=int(height),
        codebook=rng.uniform(size=(nodes, dim)) * (hi - lo) + lo,
    )
    codebook = grid.codebook

    coords = grid.grid_coords()
    gd = coords[:, None, :] - coords[None, :, :]
    # [b, j]: squared grid distance of node j from node b, as an index into
    # its few distinct values, so each epoch takes exp of those values only
    grid_levels, grid_index = np.unique(np.sum(gd * gd, axis=2).ravel(), return_inverse=True)

    rows = np.arange(x.shape[0])
    columns = np.arange(dim)
    flat_x = x.ravel()
    row_terms = _row_terms(x)
    distances = _squared_distances(row_terms, codebook)
    bmu = distances.argmin(axis=1)
    qe_log = [_mean_root(distances[rows, bmu])]
    for epoch in range(epochs):
        radius = _decayed(radius0, RADIUS_FLOOR, epoch, epochs)
        # [b, j]: weight of BMU b's rows on node j
        h = np.exp(-grid_levels / (2.0 * radius * radius))[grid_index].reshape(nodes, nodes)
        # bin b * dim + j adds x[:, j] over BMU b's rows, in row order, as np.add.at would
        keys = (bmu[:, None] * dim + columns).ravel()
        sums = np.bincount(keys, weights=flat_x, minlength=nodes * dim).reshape(nodes, dim)
        weight = h.T @ np.bincount(bmu, minlength=nodes).astype(float)
        moved = weight >= _TINY
        codebook[moved] = (h.T @ sums)[moved] / weight[moved, None]
        _squared_distances(row_terms, codebook, out=distances)
        bmu = distances.argmin(axis=1)
        qe_log.append(_mean_root(distances[rows, bmu]))

    grid.qe_log = qe_log
    return grid


def som_encode(grid, x):
    """Map each row to the (col, row) coordinates of its best-matching unit.

    Distance ties break toward the lowest node index.
    """
    x = as_matrix(x, "som encode input")
    if x.shape[1] != grid.codebook.shape[1]:
        raise InvalidInputError(
            f"input has {x.shape[1]} columns, codebook expects {grid.codebook.shape[1]}"
        )
    distances = _squared_distances(_row_terms(x), grid.codebook)
    return ReducedDataset(grid.grid_coords()[np.argmin(distances, axis=1)])
