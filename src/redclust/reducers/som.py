"""Self-organizing map with a rectangular grid and Gaussian neighborhood.

Training is the sequential (per-sample) rule: find the best-matching unit,
then pull every node toward the sample with a weight that falls off with
squared grid distance from the BMU. Learning rate and radius decay
exponentially from their start values to fixed floors over the epochs.
Encoding a row yields the (col, row) grid coordinates of its BMU, a
2-attribute discretized representation.

The codebook is bit-identical to evaluating that rule per sample, in which
a sample's distances are ``np.sum((x[i] - codebook) ** 2, axis=1)`` and
its update is ``lr * influence[:, None] * diff``. Training keeps the
codebook transposed, as a (dim, nodes) array, so every numpy call per
sample works on contiguous arrays of one shape:

- Samples are copied, 32 at a time, into a (32, dim, nodes) tile
  with each row's value repeated along the nodes; subtracting the codebook
  from a tile slice gives the differences with no broadcast. Squaring is
  elementwise, so both round as before.
- numpy sums each row of the (nodes, dim) squares pairwise.
  ``linalg._pairwise_plan`` permutes the input columns so that this order
  becomes a short list of adds of contiguous rows of the (dim, nodes)
  squares. Each node then gets the same additions in the same order as
  numpy's row sum. The squares are never -0.0, so the plan's one departure
  from numpy, the sign of a sum of -0.0 terms alone, cannot arise.
- lr * influence is tabled once per epoch as (nodes, dim, nodes), each
  BMU's row repeated along dim, so scaling the differences is one
  same-shape multiply by the product the rule forms. The table holds
  nodes x dim x nodes floats: 0.4-1.4 MB for the bench's 10 x 10 grid on
  5-18 columns, but 80 MB for 1000 columns, and it grows with the fourth
  power of the grid side. The squared grid distances are tabled once per
  fit, and the tile holds 32 x dim x nodes floats.

The columns are permuted consistently in samples and codebook, and BMU
ties still break toward the lowest node index. Each epoch's quantization
error is computed from the codebook written back in its original
(nodes, dim) C order, because the matrix product's rounding depends on
layout, in one (rows, nodes) buffer reused across epochs.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidConfigError, InvalidInputError
from ..linalg import _pairwise_plan, as_matrix
from .base import ReducedDataset

LR_FLOOR = 0.01
RADIUS_FLOOR = 0.5
_CHUNK = 32  # samples copied into the difference tile at a time


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


def _squared_distances(x, codebook, out):
    """Fill ``out[i, j]`` with the squared distance of row i to prototype j; return it.

    By the expanded square |x_i|^2 - (2 x_i) . c_j + |c_j|^2, which rounds
    the same whether ``out`` is fresh or reused.
    """
    np.matmul(2.0 * x, codebook.T, out=out)
    np.subtract(np.sum(x * x, axis=1)[:, None], out, out=out)
    out += np.sum(codebook * codebook, axis=1)
    return out


def _mean_nearest(x, codebook, out):
    """Mean Euclidean distance from each row to its nearest prototype, computed in ``out``."""
    nearest = _squared_distances(x, codebook, out).min(axis=1)
    return float(np.mean(np.sqrt(np.maximum(nearest, 0.0))))


def quantization_error(codebook, x):
    """Mean Euclidean distance from each row to its best-matching prototype."""
    return _mean_nearest(x, codebook, np.empty((len(x), len(codebook))))


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
    nodes = width * height
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    flat = hi - lo == 0.0  # constant columns still need a spread to learn from
    lo = np.where(flat, lo - 0.5, lo)
    hi = np.where(flat, hi + 0.5, hi)
    grid = SomGrid(
        width=int(width),
        height=int(height),
        codebook=rng.uniform(size=(nodes, dim)) * (hi - lo) + lo,
    )
    codebook = grid.codebook

    coords = grid.grid_coords()
    gd = coords[:, None, :] - coords[None, :, :]
    grid_sq = np.sum(gd * gd, axis=2)  # [b, j]: squared grid distance of node j from node b

    order, adds = _pairwise_plan(0, dim)
    samples = x[:, order]
    work = codebook[:, order].T.copy()  # (dim, nodes), rows in the plan's order
    sq = np.empty((dim, nodes))
    row_adds = [(sq[dst : dst + rows], sq[src : src + rows]) for dst, src, rows in adds]
    dist_sq = sq[0]  # where the adds leave each node's squared distance
    tile = np.empty((_CHUNK, dim, nodes))
    step = np.empty((nodes, dim, nodes))  # [b, :, j]: lr * influence of BMU b on node j
    bmu_steps = list(step)  # one (dim, nodes) view per BMU
    near = np.empty((n, nodes))
    qe_log = [_mean_nearest(x, codebook, near)]
    for epoch in range(epochs):
        lr = _decayed(lr0, LR_FLOOR, epoch, epochs)
        radius = max(_decayed(radius0, RADIUS_FLOOR, epoch, epochs), RADIUS_FLOOR)
        denom = 2.0 * radius * radius
        np.copyto(step, (lr * np.exp(-grid_sq / denom))[:, None, :])
        permutation = rng.permutation(n)
        for first in range(0, n, _CHUNK):
            chunk = permutation[first : first + _CHUNK]
            diffs = tile[: len(chunk)]
            np.copyto(diffs, samples[chunk, :, None])
            for diff in diffs:
                diff -= work
                np.multiply(diff, diff, out=sq)
                for acc, term in row_adds:
                    acc += term
                diff *= bmu_steps[dist_sq.argmin()]
                work += diff
        codebook[:, order] = work.T
        qe_log.append(_mean_nearest(x, codebook, near))

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
    distances = _squared_distances(x, grid.codebook, np.empty((len(x), grid.n_nodes)))
    # a 1-D input still yields two grid coordinates; keep the dim bound consistent
    return ReducedDataset(
        data=grid.grid_coords()[np.argmin(distances, axis=1)],
        reducer="som",
        k=2,
        original_dim=max(x.shape[1], 2),
        config={"width": grid.width, "height": grid.height},
    )
