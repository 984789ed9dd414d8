"""Minimal reverse-mode differentiation over dense numpy arrays.

Design points:

  * every op is a module-level function producing a new Tensor; the graph
    is implicit in parent links, and creation order is a valid topological
    order (an op's output is always created after its inputs);
  * an op is its output plus one backward closure, which adds the op's
    gradient into each input that requires one. `_make` attaches it only
    when a parent requires a gradient, and values that only backward reads
    are computed inside it, so a no-grad forward computes none of them;
  * backward() REPLACES gradients (no cross-call accumulation), seeds the
    scalar loss with 1, and walks nodes in reverse creation order. A
    tensor's first gradient contribution is stored as is (it may be shared
    with another tensor, so it is never written in place); the second makes
    an array the tensor owns, and later ones add into that in place, so
    nothing is zero-filled up front;
  * every forward op verifies its output is finite and raises
    NonFiniteError otherwise, so numeric blowups surface at the op that
    caused them. Pure copies (reshape, slices, concatenations, transpose,
    plain gathers) of op outputs skip the check: their inputs passed it;
  * fixed-index gathers and sparse operators are RowPlans: a slot table
    per direction, in prefix layout (rows sorted by entry count, so slot k
    covers a prefix of them and needs no padding), so a backward pass is
    takes and adds in a fixed order, with no scatter, no sort and no copy
    of the input;
  * single precision is the training default; tests build float64 tensors
    and everything stays in the input dtype (no silent upcasts);
  * no general broadcasting. The few mixed-shape patterns that the models
    need (bias rows, row means, sparse operators) are dedicated ops with
    hand-written backward rules; matmul, transpose and softmax_rows also
    take one leading batch axis, for per-sequence attention scores.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import NonFiniteError

_UID = itertools.count()


def _ensure_finite(op: str, data: np.ndarray):
    if not np.isfinite(data).all():
        bad = int(data.size - np.isfinite(data).sum())
        raise NonFiniteError(f"{op} produced {bad} non-finite value(s)")


class Tensor:
    """A dense array plus the links needed to differentiate through it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_uid", "_checked", "_owns_grad")

    def __init__(self, data, requires_grad: bool = False, _parents=(),
                 _backward=None):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._uid = next(_UID)
        self._checked = False     # data passed a finiteness check
        self._owns_grad = False   # .grad is an array no other tensor holds

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, " \
               f"requires_grad={self.requires_grad})"

    def backward(self):
        """Gradient of this scalar w.r.t. every reachable tensor.

        Overwrites .grad on all reachable tensors that require gradients;
        a reachable tensor that no contribution reaches ends with zeros.
        Gradients start as None; the first contribution is stored as is and
        may share memory with another tensor's gradient, so treat .grad as
        read-only. A node whose gradient stays None skips its closure.
        """
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward on a tensor that requires no gradient")
        visited = {}
        stack = [self]
        while stack:
            t = stack.pop()
            if t._uid in visited:
                continue
            visited[t._uid] = t
            stack.extend(t._parents)
        order = sorted(visited.values(), key=lambda t: t._uid, reverse=True)
        for t in order:
            t.grad, t._owns_grad = None, False
        self.grad = np.ones_like(self.data)
        for t in order:
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)
        for t in order:
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)


def _accumulate(t: Tensor, v: np.ndarray):
    """Add one gradient contribution. The first is kept as is: it may be
    shared, so it is never written in place. The second makes an array of
    t's own, and later ones add into it in place (`a += v` is bitwise
    `a + v`)."""
    if t.grad is None:
        t.grad = np.asarray(v, dtype=t.data.dtype)
    elif t._owns_grad:
        t.grad += v
    else:
        t.grad = np.asarray(t.grad + v, dtype=t.data.dtype)
        t._owns_grad = True


def _make(data, op: str, parents, backward, copy: bool = False):
    """Wrap an op result; keep `backward(g)` and the parent links only when
    a parent requires a gradient, so a one-input closure needs no check.
    `copy` marks outputs that copy their inputs' values: they need no
    finiteness check when every input was checked already."""
    if not (copy and all(p._checked for p in parents)):
        _ensure_finite(op, data)
    if any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True, _parents=tuple(parents),
                     _backward=backward)
    else:
        out = Tensor(data)
    out._checked = True
    return out


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype if dtype is not None else np.float32)
    return Tensor(arr)


# ---------------------------------------------------------------- linear ops

def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for matrices, or per item of a (B, n, k) @ (B, k, m) batch."""
    if a.data.ndim not in (2, 3) or a.data.ndim != b.data.ndim or \
            a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g @ _swap(b.data))
        if b.requires_grad:
            _accumulate(b, _swap(a.data) @ g)
    return _make(out_data, "matmul", (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)
    return _make(a.data + b.data, "add", (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"sub shape mismatch: {a.shape} vs {b.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)
    return _make(a.data - b.data, "sub", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)
    return _make(a.data * b.data, "mul", (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g):
        _accumulate(a, g * s)
    return _make(a.data * np.asarray(s, dtype=a.dtype), "scale", (a,), bwd)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-wise bias: x is (N, F), b is (F,)."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ValueError(f"add_bias shape mismatch: {x.shape} + {b.shape}")

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))
    return _make(x.data + b.data[None, :], "add_bias", (x, b), bwd)


def transpose(a: Tensor) -> Tensor:
    """Swaps the last two axes of a matrix or a (B, n, m) batch."""
    if a.data.ndim not in (2, 3):
        raise ValueError(f"transpose needs a matrix or a batch of them, "
                         f"got shape {a.shape}")

    def bwd(g):
        _accumulate(a, _swap(g))
    return _make(_swap(a.data).copy(), "transpose", (a,), bwd, copy=True)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def bwd(g):
        _accumulate(a, g.reshape(a.shape))
    return _make(a.data.reshape(shape), "reshape", (a,), bwd, copy=True)


# ----------------------------------------------------- structure/index ops

def concat_rows(tensors) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat_rows of nothing")
    widths = {t.shape[1:] for t in tensors}
    if len(widths) != 1:
        raise ValueError(f"concat_rows column mismatch: {sorted(widths)}")
    counts = [t.shape[0] for t in tensors]
    offsets = np.cumsum([0] + counts)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accumulate(t, g[lo:hi])
    return _make(np.concatenate([t.data for t in tensors], axis=0),
                 "concat_rows", tensors, bwd, copy=True)


def concat_cols(tensors) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat_cols of nothing")
    heights = {t.shape[0] for t in tensors}
    if len(heights) != 1 or any(t.data.ndim != 2 for t in tensors):
        raise ValueError("concat_cols needs matrices with equal row counts")
    widths = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accumulate(t, g[:, lo:hi])
    return _make(np.concatenate([t.data for t in tensors], axis=1),
                 "concat_cols", tensors, bwd, copy=True)


class RowPlan:
    """A constant sparse (rows x cols) operator on feature rows, planned once.

    Each direction is one slot table (see `_slot_table`): output rows
    sorted by descending entry count, and per slot k the input rows (and
    weights, or None for plain copies) of the k-th COO entry of each row
    that has one, which are the first n_k sorted rows. Applying a table
    takes slot k's rows straight from the input, scales them and adds them
    into the first n_k rows, for k in order, so each row's sum runs in
    entry order and is deterministic by construction; rows with no entry
    are zero, and one take restores the row order when the sort moved a
    row. A copy table with one entry per row (spiral windows, vertex
    selection) is a single take. `forward` is built here, `backward` (the
    transpose) on first use, so inference never pays for it.
    """

    def __init__(self, rows: int, cols: int, row_idx, col_idx, weights=None):
        self.rows, self.cols = rows, cols
        row_idx = np.asarray(row_idx, dtype=np.intp)
        col_idx = np.asarray(col_idx, dtype=np.intp)
        if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= cols):
            raise ValueError(f"column index out of range for {cols} rows")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if (weights == 1).all():
                weights = None
        self._entries = (row_idx, col_idx, weights)
        self.forward = _slot_table(rows, row_idx, col_idx, weights)

    @functools.cached_property
    def backward(self):
        row_idx, col_idx, weights = self._entries
        return _slot_table(self.cols, col_idx, row_idx, weights)

    @classmethod
    def gather(cls, indices, input_rows: int) -> "RowPlan":
        """Output row k copies input row indices.flat[k]; -1 gives zeros."""
        flat = np.asarray(indices).reshape(-1)
        if not np.issubdtype(flat.dtype, np.integer) or (
                flat.size and flat.min() < -1):
            raise ValueError("gather indices must be integers >= -1")
        keep = np.flatnonzero(flat >= 0)
        return cls(flat.size, input_rows, keep, flat[keep])


def _slot_table(rows: int, dst, src, weights):
    """One direction of a plan in prefix layout: (rows, slots, unperm).

    Destination rows are stably sorted by descending entry count, so slot
    k (each row's k-th entry, in COO entry order) covers the first n_k
    sorted rows. `slots` holds, per k, the n_k source rows and their
    weights (None for copies); `unperm` gives each row's sorted position,
    or is None when the sort moves no row.
    """
    order = np.argsort(dst, kind="stable")
    dst, src = dst[order], src[order]
    counts = np.bincount(dst, minlength=rows)
    slot = np.arange(dst.size) - (np.cumsum(counts) - counts)[dst]
    by_count = np.argsort(-counts, kind="stable")
    pos = np.empty(rows, dtype=np.intp)
    pos[by_count] = np.arange(rows)
    # entry i goes to place pos[dst[i]] of its slot's run
    n_k = np.bincount(slot)
    at = (np.cumsum(n_k) - n_k)[slot] + pos[dst]
    bounds = np.cumsum(n_k)[:-1]
    srcs = np.split(_placed(src, at), bounds)
    ws = [None] * len(srcs) if weights is None else \
        np.split(_placed(weights[order], at), bounds)
    unperm = None if (by_count == np.arange(rows)).all() else pos
    return rows, list(zip(srcs, ws)), unperm


def _placed(values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """values[i] moved to position at[i]; `at` is a permutation."""
    out = np.empty_like(values)
    out[at] = values
    return out


def _slot_sum(table, x: np.ndarray) -> np.ndarray:
    """out[r] = sum over r's entries, in order, of w * x[src]; rows with no
    entry are zero. Each slot is taken straight from x and added into the
    prefix of sorted rows it covers; one take restores the row order."""
    rows, slots, unperm = table
    out = np.empty((rows, x.shape[1]), dtype=x.dtype)
    out[len(slots[0][0]):] = 0
    buf = None
    for k, (src, w) in enumerate(slots):
        n = len(src)
        if k == 0:
            part = out[:n]
        elif buf is None:   # slot 1 covers the most rows after slot 0
            part = buf = np.empty((n, x.shape[1]), dtype=x.dtype)
        else:
            part = buf[:n]
        # indices are in range; mode="clip" lets take fill `part` unbuffered
        np.take(x, src, axis=0, out=part, mode="clip")
        if w is not None:
            part *= w.astype(x.dtype)[:, None]
        if k:
            out[:n] += part
    return out if unperm is None else np.take(out, unperm, axis=0)


def _apply_plan(plan: RowPlan, x: Tensor, op: str, shape) -> Tensor:
    if x.data.ndim != 2 or x.shape[0] != plan.cols:
        raise ValueError(f"{op} needs ({plan.cols}, F) features, "
                         f"got {x.shape}")
    f = x.shape[1]
    slots = plan.forward[1]

    def bwd(g):
        _accumulate(x, _slot_sum(plan.backward, g.reshape(plan.rows, f)))
    return _make(_slot_sum(plan.forward, x.data).reshape(shape), op, (x,),
                 bwd, copy=len(slots) == 1 and slots[0][1] is None)


def gather_rows(x: Tensor, indices) -> Tensor:
    """out[..., :] = x[indices[...], :]; index -1 yields a zero row.

    `indices` may have any shape; the output shape is indices.shape + (F,).
    """
    return _apply_plan(RowPlan.gather(indices, x.shape[0]), x, "gather_rows",
                       np.shape(indices) + x.shape[1:])


def _grad_to_write(x: Tensor) -> np.ndarray:
    """x's gradient as an array of its own to add a slice into: zeros for
    the first contribution, a copy of a shared one, else the array itself,
    so a tensor sliced many times copies its gradient at most once."""
    if x.grad is None:
        x.grad = np.zeros_like(x.data)
    elif not x._owns_grad:
        x.grad = x.grad.copy()
    x._owns_grad = True
    return x.grad


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not 0 <= start < stop <= x.shape[0]:
        raise ValueError(f"slice_rows[{start}:{stop}] invalid for {x.shape}")

    def bwd(g):
        _grad_to_write(x)[start:stop] += g
    return _make(x.data[start:stop].copy(), "slice_rows", (x,), bwd,
                 copy=True)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not 0 <= start < stop <= x.shape[1]:
        raise ValueError(f"slice_cols[{start}:{stop}] invalid for {x.shape}")

    def bwd(g):
        _grad_to_write(x)[:, start:stop] += g
    return _make(x.data[:, start:stop].copy(), "slice_cols", (x,), bwd,
                 copy=True)


def sparse_mm(plan: RowPlan, x: Tensor) -> Tensor:
    """plan (rows x cols) times features x (cols x F); the plan is a
    constant (mesh operators, spiral windows), so only x gets gradient."""
    return _apply_plan(plan, x, "sparse_mm", (plan.rows,) + x.shape[1:])


# ----------------------------------------------------------- nonlinearities

def elu(x: Tensor) -> Tensor:
    # Branch-free: expm1(x) >= x for x <= 0, and the max picks x above 0.
    out_data = np.expm1(np.minimum(x.data, 0))
    np.maximum(out_data, x.data, out=out_data)

    def bwd(g):
        _accumulate(x, g * (np.minimum(out_data, 0) + 1))
    return _make(out_data, "elu", (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    # exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below.
    e = np.exp(-np.abs(x.data))
    out_data = np.where(x.data >= 0, 1, e) / (1 + e)

    def bwd(g):
        _accumulate(x, g * out_data * (1 - out_data))
    return _make(out_data, "sigmoid", (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def bwd(g):
        _accumulate(x, g * (1 - out_data * out_data))
    return _make(out_data, "tanh", (x,), bwd)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a matrix or a (B, n, m) batch, max-shifted so
    large scores cannot overflow."""
    if x.data.ndim not in (2, 3):
        raise ValueError(f"softmax_rows needs a matrix or a batch of them, "
                         f"got shape {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accumulate(x, out_data * (g - dot))
    return _make(out_data, "softmax_rows", (x,), bwd)


def layernorm_rows(x: Tensor, gamma: Tensor, beta: Tensor,
                   eps: float = 1e-5) -> Tensor:
    """Per-row standardization with learned gain/shift (one fused node)."""
    if x.data.ndim != 2 or gamma.shape != (x.shape[1],) \
            or beta.shape != (x.shape[1],):
        raise ValueError(
            f"layernorm_rows shapes: x {x.shape}, gamma {gamma.shape}, "
            f"beta {beta.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = xc * inv
    out_data = xhat * gamma.data[None, :] + beta.data[None, :]

    def bwd(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=0))
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data[None, :]
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            _accumulate(x, inv * (dxhat - m1 - xhat * m2))
    return _make(out_data, "layernorm_rows", (x, gamma, beta), bwd)


# ----------------------------------------------------------- reductions

def mean(x: Tensor) -> Tensor:
    n = x.data.size

    def bwd(g):
        _accumulate(x, g * np.full_like(x.data, 1.0 / n))
    return _make(np.asarray(x.data.mean(), dtype=x.dtype), "mean", (x,), bwd)


def mean_rows(x: Tensor) -> Tensor:
    """Column means as a single-row matrix (pooling over tokens)."""
    if x.data.ndim != 2:
        raise ValueError(f"mean_rows needs a matrix, got shape {x.shape}")
    n = x.shape[0]

    def bwd(g):
        _accumulate(x, np.repeat(g, n, axis=0) / n)
    return _make(x.data.mean(axis=0, keepdims=True), "mean_rows", (x,), bwd)


# ----------------------------------------------------------------- losses

def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference over all entries; d|0|/dx defined as 0."""
    target = as_tensor(target, dtype=pred.dtype)
    if pred.shape != target.shape:
        raise ValueError(
            f"l1_loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = diff.size

    def bwd(g):
        sign = np.sign(diff)
        if pred.requires_grad:
            _accumulate(pred, g * sign / n)
        if target.requires_grad:
            _accumulate(target, -(g * sign / n))
    return _make(np.asarray(np.abs(diff).mean(), dtype=pred.dtype),
                 "l1_loss", (pred, target), bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood over the batch, via log-sum-exp."""
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy needs (batch, classes) logits, "
                         f"got {logits.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) != logits.shape[0]:
        raise ValueError("cross_entropy needs one integer label per row")
    n, k = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    loss = -log_probs[np.arange(n), labels].mean()

    def bwd(g):
        d = np.exp(log_probs)
        d[np.arange(n), labels] -= 1
        _accumulate(logits, g * d / n)
    return _make(np.asarray(loss, dtype=logits.dtype), "cross_entropy",
                 (logits,), bwd)
