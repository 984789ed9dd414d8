"""Tensor engine: forward semantics vs naive references, backward vs
finite differences, graph bookkeeping, and numeric guards."""

import warnings

import numpy as np
import pytest

from meshact import engine, heads, spae
from meshact.engine import Tensor
from meshact.errors import NonFiniteError
from meshact.hierarchy import build_hierarchy
from meshact.topology import icosphere
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


def _two_where_elu(x):
    with np.errstate(over="ignore"):
        out = np.where(x > 0, x, np.expm1(x))
    return out, np.where(x > 0, np.asarray(1, dtype=x.dtype), out + 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elu_equals_the_two_where_forms_bit_for_bit(dtype):
    info = np.finfo(dtype)
    edges = np.array([0.0, 1.0, 1e3, 88.0, info.smallest_subnormal,
                      3 * info.smallest_subnormal, info.tiny / 4, info.tiny,
                      info.max], dtype=dtype)
    grid = np.concatenate([edges, -edges, np.linspace(-40, 40, 801)]
                          ).astype(dtype)[None, :]
    x = Tensor(grid, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = engine.elu(x)
        out._backward(np.ones_like(grid))     # x.grad is the factor itself
    ref_out, ref_factor = _two_where_elu(grid)
    assert out.dtype == x.grad.dtype == dtype
    assert out.data.tobytes() == ref_out.tobytes()
    assert x.grad.tobytes() == ref_factor.tobytes()


def _two_branch_sigmoid(x):
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1 / (1 + e), e / (1 + e))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_equals_the_two_branch_formula_bit_for_bit(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    grid = np.concatenate([
        [0.0, -0.0, 1e3, -1e3, tiny, -tiny, 3 * tiny, -3 * tiny,
         np.finfo(dtype).tiny, -np.finfo(dtype).tiny],
        np.linspace(-40, 40, 801)]).astype(dtype)[None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = engine.sigmoid(Tensor(grid)).data
        ref = _two_branch_sigmoid(grid)
    assert out.dtype == dtype
    assert out.tobytes() == ref.tobytes()


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
    # both directions against the dense operator: out = dense @ x and
    # x.grad = dense.T @ g, with repeated output rows, duplicate
    # (row, col) entries, an empty output row (0) and an unreferenced
    # input row (the last), weighted and not
    rows, cols, f = 9, 11, 4
    for seed in range(3):
        for weighted in (True, False):
            rng = np.random.default_rng(seed)
            row_idx = rng.integers(1, rows, size=40)
            col_idx = rng.integers(0, cols - 1, size=40)
            row_idx[-3:], col_idx[-3:] = row_idx[0], col_idx[0]
            w = rng.standard_normal(40) if weighted else np.ones(40)
            dense = np.zeros((rows, cols))
            for r, c, v in zip(row_idx, col_idx, w):
                dense[r, c] += v
            plan = engine.RowPlan(rows, cols, row_idx, col_idx,
                                  w if weighted else None)
            x = _t(rng.standard_normal((cols, f)))
            g = rng.standard_normal((rows, f))
            out = engine.sparse_mm(plan, x)
            engine.mean(engine.mul(out, _t(g * g.size, grad=False))).backward()
            assert np.abs(out.data - dense @ x.data).max() < 1e-12
            assert np.abs(x.grad - dense.T @ g).max() < 1e-12
            assert not out.data[0].any() and not x.grad[-1].any()


def _padded_slot_sum(rows, cols, dst, src, weights, x):
    """The padded slot sum: per output row its entries in COO order, padded
    to the longest row with a zero input row, summed slot by slot."""
    order = np.argsort(dst, kind="stable")
    dst, src = dst[order], src[order]
    counts = np.bincount(dst, minlength=rows)
    slot = np.arange(dst.size) - (np.cumsum(counts) - counts)[dst]
    width = max(int(counts.max(initial=0)), 1)
    idx = np.full((rows, width), cols)
    idx[dst, slot] = src
    if weights is not None:
        w = np.zeros((rows, width))
        w[dst, slot] = weights[order]
    padded = np.concatenate((x, np.zeros((1, x.shape[1]), dtype=x.dtype)))
    out = None
    for k in range(width):
        col = padded[idx[:, k]]
        if weights is not None:
            col *= w[:, k, None].astype(x.dtype)
        out = col if out is None else out + col
    return out


def _coo_cases(rng):
    """(name, rows, cols, row_idx, col_idx, weights) plans: repeated rows,
    duplicate entries, empty output rows, unreferenced input rows, -1
    gathers, and rows already in descending entry count."""
    rows, cols = 9, 11
    r = rng.integers(1, rows, size=40)
    c = rng.integers(0, cols - 1, size=40)
    r[-3:], c[-3:] = r[0], c[0]
    w = rng.standard_normal(40)
    flat = rng.integers(-1, cols, size=30)
    flat[0] = -1
    keep = np.flatnonzero(flat >= 0)
    perm = rng.permutation(cols)
    counts = np.sort(rng.integers(0, 4, size=rows))[::-1]
    sorted_r = rng.permutation(np.repeat(np.arange(rows), counts))
    sorted_c = rng.integers(0, cols, size=sorted_r.size)
    return [("weighted", rows, cols, r, c, w),
            ("unweighted", rows, cols, r, c, None),
            ("gather with -1", flat.size, cols, keep, flat[keep], None),
            ("permutation", cols, cols, np.arange(cols), perm, None),
            ("descending counts", rows, cols, sorted_r, sorted_c,
             rng.standard_normal(sorted_r.size))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(3))
def test_slot_sums_equal_the_padded_slot_sum(seed, dtype):
    rng = np.random.default_rng(seed)
    moved = set()
    for name, rows, cols, r, c, w in _coo_cases(rng):
        plan = engine.RowPlan(rows, cols, r, c, w)
        x = Tensor(rng.standard_normal((cols, 3)).astype(dtype),
                   requires_grad=True)
        g = rng.standard_normal((rows, 3)).astype(dtype)
        out = engine.sparse_mm(plan, x)
        out._backward(g)
        assert out.dtype == x.grad.dtype == dtype
        ref_out = _padded_slot_sum(rows, cols, r, c, w, x.data)
        ref_grad = _padded_slot_sum(cols, rows, c, r, w, g)
        assert np.array_equal(out.data, ref_out), name
        assert np.array_equal(x.grad, ref_grad), name
        moved.update(table[2] is not None
                     for table in (plan.forward, plan.backward))
    assert moved == {True, False}      # both row orders were exercised


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


@pytest.mark.parametrize("reuse", ["scale", "slice_rows", "slice_cols"])
@pytest.mark.parametrize("reuse_first", [True, False])
def test_shared_first_gradient_survives_later_contributions(reuse_first,
                                                            reuse):
    # add(a, p) hands the same array to a and p; a second path into a
    # must not change p's gradient, whichever closure runs first
    rng = np.random.default_rng(6)
    a, p = _t(rng.standard_normal((2, 3))), _t(rng.standard_normal((2, 3)))
    w = rng.standard_normal((2, 3))
    second = {"scale": lambda: engine.scale(a, 3.0),
              "slice_rows": lambda: engine.slice_rows(a, 0, 2),
              "slice_cols": lambda: engine.slice_cols(a, 0, 3)}[reuse]
    if reuse_first:
        u = second()
        s = engine.add(a, p)
    else:
        s = engine.add(a, p)
        u = second()
    loss = engine.add(engine.mean(engine.mul(s, _t(w, grad=False))),
                      engine.mean(u))
    loss.backward()
    extra = 3.0 / 6 if reuse == "scale" else 1.0 / 6
    assert np.abs(p.grad - w / 6).max() < 1e-15
    assert np.abs(a.grad - (w / 6 + extra)).max() < 1e-15


def test_lstm_backward_copies_each_sliced_gradient_at_most_once(
        monkeypatch):
    # every step slices the (L*B, 4H) input projection; a shared gradient
    # may be copied once before the slices write into it, never per slice
    writes, copies = {}, {}
    to_write = engine._grad_to_write

    def counted(x):
        before = x.grad
        own = to_write(x)
        writes[id(x)] = writes.get(id(x), 0) + 1
        copies[id(x)] = copies.get(id(x), 0) + (
            before is not None and own is not before)
        return own
    monkeypatch.setattr(engine, "_grad_to_write", counted)
    rng = np.random.default_rng(9)
    params = heads.init_lstm_params(rng, 4, 3)
    tokens = Tensor(rng.standard_normal((2, 24, 4)).astype(np.float32))
    loss = engine.cross_entropy(heads.lstm_forward(params, tokens),
                                np.array([0, 2]))
    loss.backward()
    assert max(writes.values()) >= 24
    assert max(copies.values()) <= 1


def test_tensor_no_gradient_reaches_ends_with_zeros():
    p = _t([[1.0, 2.0]])
    h = engine.scale(p, 2.0)
    calls = []
    inner = h._backward
    h._backward = lambda g: (calls.append(1), inner(g))
    # a node that passes no gradient back: p and h are reachable but dead
    stop = Tensor(h.data.copy(), requires_grad=True, _parents=(h,))
    x = _t([[3.0, 4.0]])
    engine.mean(engine.add(x, stop)).backward()
    assert calls == []
    assert np.array_equal(h.grad, np.zeros((1, 2)))
    assert np.array_equal(p.grad, np.zeros((1, 2)))
    assert np.array_equal(x.grad, np.full((1, 2), 0.5))


def test_backward_twice_gives_identical_bytes():
    rng = np.random.default_rng(8)
    x = _t(rng.standard_normal((6, 5)))
    wgt = _t(rng.standard_normal((10, 4)))
    up = engine.RowPlan(8, 6, [0, 0, 1, 2, 3, 3, 3, 5, 7],
                        [0, 1, 1, 2, 3, 4, 5, 0, 5], rng.random(9))
    h = engine.sparse_mm(up, x)
    win = engine.gather_rows(h, np.array([[0, 1], [2, -1], [7, 7], [1, 3]]))
    flat = engine.reshape(win, (4, 10))
    y = engine.sigmoid(engine.matmul(flat, wgt))
    z = engine.concat_cols([engine.slice_cols(y, 0, 2),
                            engine.slice_cols(y, 1, 3)])
    loss = engine.mean(engine.mul(z, engine.slice_rows(
        engine.concat_rows([z, z]), 2, 6)))
    grads = []
    for _ in range(2):
        loss.backward()
        grads.append([x.grad.tobytes(), wgt.grad.tobytes()])
    assert grads[0] == grads[1]
    assert np.abs(x.grad).max() > 0


def test_no_grad_encode_builds_no_backward_table():
    topo, coords = icosphere(1)
    h = build_hierarchy(topo, coords, (2.0, 2.0, 2.0, 2.0), (6, 5, 5, 4, 4))
    params = spae.init_spae_params(h, 8, np.random.default_rng(0))
    frames = np.repeat(coords[None], 2, axis=0).astype(np.float32)
    spae.encode_batch(spae.frozen_params(params), h, frames)
    spirals, downs, ups = h.plans[2]
    plans = spirals + downs + ups
    assert all("backward" not in vars(plan) for plan in plans)
    assert len(spirals) == h.level_count - 1    # no conv reads the coarsest
    spae.reconstruction_loss(params, h, frames).backward()
    # a training step builds the transpose of every plan it uses, and it
    # uses every plan that was built
    assert all("backward" in vars(plan) for plan in plans)


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


def test_no_grad_op_cases_build_no_graph():
    # every op attaches its closure only when an input requires a gradient
    cases = op_gradient_cases(np.random.default_rng(0))
    for name, params, make_loss in cases:
        for p in params.values():
            p.requires_grad = False
        loss = make_loss()
        assert not loss.requires_grad, name
        assert loss._parents == () and loss._backward is None, name


def test_non_finite_results_raise():
    big = Tensor(np.full((1, 1), 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            engine.add(big, big)
        with pytest.raises(NonFiniteError):
            engine.mul(big, big)


def test_nan_frame_is_caught_at_the_first_reshape():
    topo, coords = icosphere(1)
    h = build_hierarchy(topo, coords, (2.0, 2.0, 2.0, 2.0), (6, 5, 5, 4, 4))
    params = spae.frozen_params(
        spae.init_spae_params(h, 8, np.random.default_rng(0)))
    frames = np.repeat(coords[None], 2, axis=0).astype(np.float32)
    frames[1, 5, 2] = np.nan
    with pytest.raises(NonFiniteError, match="^reshape produced 1 "):
        spae.encode_batch(params, h, frames)


def test_float32_matmul_overflow_names_matmul():
    # both inputs are checked op outputs; matmul still checks its own
    a = engine.reshape(Tensor(np.full((6,), 1e20, dtype=np.float32)), (2, 3))
    b = engine.reshape(Tensor(np.full((6,), 1e20, dtype=np.float32)), (3, 2))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="^matmul produced 4 "):
            engine.matmul(a, b)


def test_copies_of_unchecked_leaves_are_checked():
    bad = Tensor(np.array([[1.0, np.inf]]))
    for op in (lambda t: engine.reshape(t, (2, 1)), engine.transpose,
               lambda t: engine.slice_cols(t, 1, 2),
               lambda t: engine.concat_rows([t]),
               lambda t: engine.gather_rows(t, np.array([0]))):
        with pytest.raises(NonFiniteError):
            op(bad)


def test_as_tensor_defaults_to_float32():
    t = engine.as_tensor([1, 2, 3])
    assert t.dtype == np.float32
    t64 = engine.as_tensor([1, 2], dtype=np.float64)
    assert t64.dtype == np.float64
