"""Shared output type for all four reducers and the unreduced table."""

from dataclasses import dataclass

import numpy as np

from ..density import DistanceSchema
from ..errors import InvalidInputError


@dataclass
class ReducedDataset:
    """DBSCAN's input: rows as a float matrix, with the schema that measures them.

    ``schema`` is None for reduced coordinates, which are all numeric; the
    unreduced table keeps its regular columns' DistanceSchema, nominal cells
    holding sorted-level codes. ``k`` is the column count.
    """

    data: np.ndarray  # (n, k)
    schema: DistanceSchema | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise InvalidInputError("reduced data must be 2-D")

    @property
    def k(self):
        return self.data.shape[1]
