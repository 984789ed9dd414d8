"""Sparse sampling operators against dense matrix products."""

import numpy as np
import pytest

from meshact import engine, spae
from meshact.engine import Tensor
from meshact.sampling import SamplingOperator


def _apply(op, x):
    """The model's path: a one-frame plan through the engine op."""
    return engine.sparse_mm(spae.batched_sampling(op, 1), Tensor(x)).data


def _random_operator(rng, rows, cols, kind):
    if kind == "down":
        picks = rng.choice(cols, size=rows, replace=False)
        return SamplingOperator(rows=rows, cols=cols,
                                row_idx=np.arange(rows, dtype=np.int32),
                                col_idx=picks.astype(np.int32),
                                weights=np.ones(rows), kind="down")
    row_idx, col_idx, weights = [], [], []
    for r in range(rows):
        k = int(rng.integers(1, 4))
        cols_r = rng.choice(cols, size=k, replace=False)
        w = rng.random(k) + 0.1
        w /= w.sum()
        row_idx.extend([r] * k)
        col_idx.extend(cols_r.tolist())
        weights.extend(w.tolist())
    return SamplingOperator(rows=rows, cols=cols,
                            row_idx=np.array(row_idx, dtype=np.int32),
                            col_idx=np.array(col_idx, dtype=np.int32),
                            weights=np.array(weights), kind="up")


def test_apply_matches_dense_product():
    rng = np.random.default_rng(2)
    for kind in ("down", "up"):
        for _ in range(20):
            rows, cols = int(rng.integers(1, 12)), int(rng.integers(12, 16))
            op = _random_operator(rng, rows, cols, kind)
            x = rng.standard_normal((cols, int(rng.integers(1, 6))))
            assert np.allclose(_apply(op, x), op.dense() @ x, atol=1e-12)


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        SamplingOperator(rows=1, cols=1, row_idx=np.zeros(1, np.int32),
                         col_idx=np.zeros(1, np.int32),
                         weights=np.ones(1), kind="sideways")


def test_misaligned_triples_rejected():
    with pytest.raises(ValueError):
        SamplingOperator(rows=1, cols=2, row_idx=np.zeros(2, np.int32),
                         col_idx=np.zeros(1, np.int32),
                         weights=np.ones(1), kind="down")


def test_feature_row_mismatch_rejected():
    rng = np.random.default_rng(0)
    op = _random_operator(rng, 3, 8, "up")
    with pytest.raises(ValueError):
        _apply(op, np.zeros((7, 2)))
