"""Shared output type for all four reducers."""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError


@dataclass
class ReducedDataset:
    """Rows mapped into a reduced coordinate space.

    ``k`` is the retained dimension count, ``original_dim`` the input width
    it came from.
    """

    data: np.ndarray  # (n, k)
    reducer: str
    k: int
    original_dim: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise InvalidInputError("reduced data must be 2-D")
        if self.data.shape[1] != self.k:
            raise InvalidInputError(
                f"reduced data has {self.data.shape[1]} columns, expected k={self.k}"
            )
        if self.k > self.original_dim:
            raise InvalidInputError(
                f"retained dimension {self.k} exceeds original dimension {self.original_dim}"
            )
