"""Mini-batches of token sequences as stacked feature rows.

Every classifier head stacks B sequences of L tokens as B*L rows,
sequence-major: row b*L + t holds token t of sequence b. Row-wise ops
(projections, layer norm, feed-forward) then run once per mini-batch. The
fixed selections between this layout and others (pooling, per-sequence
picks, time-major order, position tables tiled per sequence, zero-padded
temporal windows) are constant RowPlans applied with engine.sparse_mm;
each is built once per (B, L) and cached, so a training step builds none.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import engine
from .engine import RowPlan, Tensor

CACHED_PLANS = 16  # per kind: a run sees a few (B, L) pairs


def stack_rows(tokens):
    """(L, C) or (B, L, C) tokens -> ((B*L, C) rows, B, L).

    An (L, C) input is the B=1 case. Arrays become float32 tensors.
    """
    if not isinstance(tokens, Tensor):
        tokens = Tensor(np.asarray(tokens, dtype=np.float32))
    if tokens.data.ndim == 2:
        return tokens, 1, tokens.shape[0]
    if tokens.data.ndim != 3:
        raise ValueError(f"tokens must be (L, C) or (B, L, C), "
                         f"got {tokens.shape}")
    batch, length, width = tokens.shape
    return engine.reshape(tokens, (batch * length, width)), batch, length


@lru_cache(maxsize=CACHED_PLANS)
def mean_plan(batch: int, length: int) -> RowPlan:
    """(B, B*L): the mean of each sequence's rows."""
    rows = np.arange(batch * length)
    return RowPlan(batch, batch * length, rows // length, rows,
                   np.full(rows.size, 1.0 / length))


@lru_cache(maxsize=CACHED_PLANS)
def first_row_plan(batch: int, length: int) -> RowPlan:
    """(B, B*L): the first row of each sequence."""
    return RowPlan.gather(np.arange(batch) * length, batch * length)


@lru_cache(maxsize=CACHED_PLANS)
def time_major_plan(batch: int, length: int) -> RowPlan:
    """(L*B, B*L): row t*B + b takes token t of sequence b."""
    rows = np.arange(batch * length).reshape(batch, length)
    return RowPlan.gather(rows.T, batch * length)


@lru_cache(maxsize=CACHED_PLANS)
def tile_plan(batch: int, length: int, table_rows: int) -> RowPlan:
    """(B*L, table_rows): table rows 0..L-1, once per sequence."""
    return RowPlan.gather(np.tile(np.arange(length), batch), table_rows)


@lru_cache(maxsize=CACHED_PLANS)
def prepend_plan(batch: int, length: int) -> RowPlan:
    """(B*(L+1), 1 + B*L): input row 0 in front of each sequence's L rows,
    which follow it in the input."""
    rows = np.arange(1, 1 + batch * length).reshape(batch, length)
    first = np.zeros((batch, 1), dtype=rows.dtype)
    return RowPlan.gather(np.concatenate([first, rows], axis=1),
                          1 + batch * length)


def _window_indices(length: int, kernel: int) -> np.ndarray:
    """(L, kernel) row indices centered per step; -1 marks zero padding."""
    half = kernel // 2
    idx = np.arange(length)[:, None] + np.arange(-half, kernel - half)[None, :]
    return np.where((idx < 0) | (idx >= length), -1, idx).astype(np.int64)


@lru_cache(maxsize=CACHED_PLANS)
def window_plan(batch: int, length: int, kernel: int) -> RowPlan:
    """(B*L*kernel, B*L): every row's zero-padded window, kept within its
    own sequence; one plan serves all conv layers of a (B, L) batch."""
    win = _window_indices(length, kernel)
    offsets = (np.arange(batch) * length)[:, None, None]
    return RowPlan.gather(np.where(win < 0, -1, win[None] + offsets),
                          batch * length)
