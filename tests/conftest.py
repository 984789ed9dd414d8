"""Shared test helpers."""

import numpy as np
import pytest

from meshact import engine
from meshact.engine import Tensor


@pytest.fixture
def batch_gap():
    """gap(forward, params, seqs, labels, batched=None) -> the largest
    absolute difference, over logits and every parameter gradient of the
    cross-entropy, between one batched forward over `seqs` and the stack
    of B=1 forwards, one per sequence. `batched(params, seqs)` defaults to
    forward(params, (B, L, C) tokens)."""
    def gap(forward, params, seqs, labels, batched=None):
        if batched is None:
            def batched(p, s):
                return forward(p, Tensor(np.stack(s)))

        def run(logits):
            engine.cross_entropy(logits, labels).backward()
            return [logits.data.copy()] + [params[n].grad.copy()
                                           for n in sorted(params)]

        one = run(batched(params, seqs))
        rows = run(engine.concat_rows([forward(params, Tensor(s))
                                       for s in seqs]))
        assert one[0].shape == (len(seqs), rows[0].shape[1])
        return max(float(np.abs(a - b).max()) for a, b in zip(one, rows))
    return gap
