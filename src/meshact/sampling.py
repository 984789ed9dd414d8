"""Sparse feature-transfer operators between hierarchy levels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SamplingOperator:
    """Sparse (rows x cols) matrix stored as aligned triple arrays.

    kind="down": one unit entry per row (vertex subset selection).
    kind="up":   1-3 nonnegative entries per row summing to 1 (barycentric).
    """

    rows: int
    cols: int
    row_idx: np.ndarray            # (nnz,) int32
    col_idx: np.ndarray            # (nnz,) int32
    weights: np.ndarray            # (nnz,) float64
    kind: str                      # "down" | "up"

    def __post_init__(self):
        if self.kind not in ("down", "up"):
            raise ValueError(f"bad operator kind {self.kind!r}")
        if not (len(self.row_idx) == len(self.col_idx) == len(self.weights)):
            raise ValueError("triple arrays must align")

    def dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        out[self.row_idx, self.col_idx] = self.weights
        return out

