"""Tensor engine: forward semantics vs naive references, backward vs
finite differences, graph bookkeeping, and numeric guards."""

import numpy as np
import pytest

from meshact import engine
from meshact.engine import Tensor
from meshact.errors import NonFiniteError
from meshact.verify import fd_max_error, op_gradient_cases


def _t(a, grad=True):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


# ------------------------------------------------------------- forward math

def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    ref = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                ref[i, j] += a[i, k] * b[k, j]
    out = engine.matmul(_t(a), _t(b)).data
    assert np.abs(out - ref).max() < 1e-12


def test_softmax_rows_reference_values():
    out = engine.softmax_rows(_t([[1.0, 2.0, 3.0]])).data[0]
    e = np.exp([1.0, 2.0, 3.0])
    assert np.abs(out - e / e.sum()).max() < 1e-15
    assert abs(out[0] - 0.09003057317038046) < 1e-15
    assert abs(out[2] - 0.6652409557748219) < 1e-15


def test_softmax_rows_survive_large_scores():
    out = engine.softmax_rows(_t([[1000.0, 1000.0, 999.0]])).data[0]
    assert np.isfinite(out).all()
    assert abs(out.sum() - 1.0) < 1e-12


def test_elu_reference_value():
    out = engine.elu(_t([[-1.0, 0.5]])).data[0]
    assert abs(out[0] - (np.exp(-1.0) - 1.0)) < 1e-15
    assert abs(out[0] + 0.6321205588285577) < 1e-15
    assert out[1] == 0.5


def test_sigmoid_tanh_references():
    x = np.array([[-3.0, 0.0, 2.0]])
    assert np.abs(engine.sigmoid(_t(x)).data - 1 / (1 + np.exp(-x))).max() < 1e-15
    assert np.abs(engine.tanh(_t(x)).data - np.tanh(x)).max() < 1e-15


def test_l1_loss_is_mean_absolute_error():
    rng = np.random.default_rng(1)
    pred = rng.standard_normal((4, 6))
    target = rng.standard_normal((4, 6))
    out = engine.l1_loss(_t(pred), _t(target, grad=False)).item()
    assert abs(out - np.abs(pred - target).mean()) < 1e-14


def test_cross_entropy_uniform_logits_is_log_k():
    k = 18
    logits = _t(np.zeros((2, k)))
    out = engine.cross_entropy(logits, np.array([3, 11])).item()
    assert abs(out - np.log(k)) < 1e-12
    assert abs(out - 2.8903717578961645) < 1e-12


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((5, 4))
    labels = rng.integers(0, 4, size=5)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    ref = -np.log(p[np.arange(5), labels]).mean()
    out = engine.cross_entropy(_t(logits), labels).item()
    assert abs(out - ref) < 1e-12


def test_layernorm_reference():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6))
    g = rng.standard_normal(6)
    b = rng.standard_normal(6)
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    ref = (x - mu) / np.sqrt(var + 1e-5) * g + b
    out = engine.layernorm_rows(_t(x), _t(g), _t(b)).data
    assert np.abs(out - ref).max() < 1e-12


def test_gather_rows_with_sentinel():
    x = _t(np.arange(12.0).reshape(4, 3))
    out = engine.gather_rows(x, np.array([[2, -1], [0, 3]])).data
    assert np.array_equal(out[0, 0], x.data[2])
    assert np.array_equal(out[0, 1], np.zeros(3))
    assert np.array_equal(out[1, 1], x.data[3])


def test_gather_rows_rejects_bad_index():
    x = _t(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        engine.gather_rows(x, np.array([3]))
    with pytest.raises(ValueError):
        engine.gather_rows(x, np.array([-2]))


def test_sparse_mm_matches_dense():
    rng = np.random.default_rng(4)
    dense = np.zeros((5, 7))
    row_idx = rng.integers(0, 5, size=12)
    col_idx = rng.integers(0, 7, size=12)
    w = rng.standard_normal(12)
    for r, c, v in zip(row_idx, col_idx, w):
        dense[r, c] += v
    x = rng.standard_normal((7, 3))
    out = engine.sparse_mm(engine.RowPlan(5, 7, row_idx, col_idx, w),
                           _t(x)).data
    assert np.abs(out - dense @ x).max() < 1e-12


def test_shape_ops_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 8))
    t = _t(x)
    assert np.array_equal(engine.transpose(engine.transpose(t)).data, x)
    assert np.array_equal(engine.reshape(t, (6, 4)).data, x.reshape(6, 4))
    assert np.shares_memory(engine.reshape(t, (6, 4)).data, t.data)
    cat = engine.concat_rows([t, t])
    assert np.array_equal(cat.data, np.concatenate([x, x], axis=0))
    assert np.array_equal(engine.slice_rows(cat, 3, 6).data, x)
    side = engine.concat_cols([t, t])
    assert np.array_equal(engine.slice_cols(side, 8, 16).data, x)


def test_mean_rows_and_mean():
    x = np.array([[1.0, 3.0], [5.0, 7.0]])
    assert np.array_equal(engine.mean_rows(_t(x)).data, [[3.0, 5.0]])
    assert engine.mean(_t(x)).item() == 4.0


# ------------------------------------------------------------- backward

def test_every_op_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(2):
        rng = np.random.default_rng(seed)
        for name, params, make_loss in op_gradient_cases(rng):
            err = fd_max_error(make_loss, params, rng)
            worst = max(worst, err)
            assert err < 1e-5, f"{name} (seed {seed}): {err:.3e}"
    assert worst < 1e-5


def test_diamond_graph_accumulates():
    x = _t([[2.0]])
    y = engine.add(engine.scale(x, 2.0), engine.scale(x, 3.0))
    engine.mean(y).backward()
    assert x.grad[0, 0] == 5.0


def test_backward_replaces_stale_grad():
    x = _t([[1.0, 2.0]])
    loss = engine.mean(engine.mul(x, x))
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, first)


def test_backward_requires_scalar():
    x = _t([[1.0, 2.0]])
    with pytest.raises(ValueError):
        engine.mul(x, x).backward()


def test_backward_requires_grad_path():
    x = Tensor(np.ones((1, 1)))
    with pytest.raises(ValueError):
        engine.mean(x).backward()


def test_no_grad_inputs_skip_graph():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = engine.matmul(a, b)
    assert not out.requires_grad
    assert out._parents == ()


def test_non_finite_results_raise():
    big = Tensor(np.full((1, 1), 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            engine.add(big, big)
        with pytest.raises(NonFiniteError):
            engine.mul(big, big)


def test_as_tensor_defaults_to_float32():
    t = engine.as_tensor([1, 2, 3])
    assert t.dtype == np.float32
    t64 = engine.as_tensor([1, 2], dtype=np.float64)
    assert t64.dtype == np.float64
