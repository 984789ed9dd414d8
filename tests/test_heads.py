"""Ablation heads: shapes, parameter scaling, reference semantics."""

import numpy as np
import pytest

from meshact import batching, engine, heads
from meshact.classifier import batch_logits
from meshact.engine import RowPlan, Tensor


def _count(params):
    return sum(p.data.size for p in params.values())


def _elu(x):
    return np.where(x > 0, x, np.expm1(x))


def test_mlp_param_count_affine_in_length():
    rng = np.random.default_rng(0)
    c, n_classes = 16, 3
    counts = {L: _count(heads.init_mlp_params(rng, c, L, n_classes))
              for L in (8, 16, 32)}
    slope1 = (counts[16] - counts[8]) / 8
    slope2 = (counts[32] - counts[16]) / 16
    assert slope1 == slope2 == c * heads.MLP_HIDDEN[0]


def test_lstm_and_cnn_counts_ignore_length():
    # neither constructor takes a length; counts depend on widths only
    rng = np.random.default_rng(1)
    lstm = _count(heads.init_lstm_params(rng, 16, 3))
    cnn = _count(heads.init_cnn_params(rng, 16, 3))
    h, k = heads.LSTM_HIDDEN, heads.CNN_KERNEL
    expect_lstm = (16 * 4 * h + h * 4 * h + 4 * h)  # layer 0
    expect_lstm += 2 * (h * 4 * h + h * 4 * h + 4 * h)  # layers 1, 2
    expect_lstm += h * 3 + 3
    assert lstm == expect_lstm
    chans = (16,) + heads.CNN_CHANNELS
    expect_cnn = sum(k * a * b + b for a, b in zip(chans[:-1], chans[1:]))
    expect_cnn += heads.CNN_CHANNELS[-1] * 3 + 3
    assert cnn == expect_cnn


@pytest.mark.parametrize("length", [1, 5, 12])
def test_all_heads_emit_single_logit_row(length):
    rng = np.random.default_rng(2)
    c, n_classes = 6, 4
    tokens = Tensor(rng.standard_normal((length, c)).astype(np.float32))
    mlp = heads.init_mlp_params(rng, c, length, n_classes)
    assert heads.mlp_forward(mlp, tokens).shape == (1, n_classes)
    lstm = heads.init_lstm_params(rng, c, n_classes)
    assert heads.lstm_forward(lstm, tokens).shape == (1, n_classes)
    cnn = heads.init_cnn_params(rng, c, n_classes)
    assert heads.cnn_forward(cnn, tokens).shape == (1, n_classes)


def test_mlp_rejects_other_lengths():
    rng = np.random.default_rng(3)
    params = heads.init_mlp_params(rng, 4, 8, 2)
    with pytest.raises(ValueError):
        heads.mlp_forward(params, Tensor(np.zeros((7, 4), dtype=np.float32)))


def test_mlp_matches_numpy_reference():
    rng = np.random.default_rng(4)
    c, length = 3, 5
    params = heads.init_mlp_params(rng, c, length, 2, dtype=np.float64)
    tokens = rng.standard_normal((length, c))
    out = heads.mlp_forward(params, Tensor(tokens)).data

    x = tokens.reshape(1, -1)
    for i in range(len(heads.MLP_HIDDEN)):
        x = _elu(x @ params[f"mlp.fc{i}.weight"].data
                 + params[f"mlp.fc{i}.bias"].data)
    ref = x @ params["mlp.out.weight"].data + params["mlp.out.bias"].data
    assert np.abs(out - ref).max() < 1e-12


def test_lstm_forget_gate_bias_starts_at_one():
    rng = np.random.default_rng(5)
    params = heads.init_lstm_params(rng, 4, 2)
    h = heads.LSTM_HIDDEN
    for i in range(3):
        bias = params[f"lstm.layer{i}.bias"].data
        assert (bias[h:2 * h] == 1.0).all()
        assert not bias[:h].any() and not bias[2 * h:].any()
        assert params[f"lstm.layer{i}.bias"].requires_grad


def test_lstm_single_step_matches_gate_equations():
    rng = np.random.default_rng(6)
    c, hidden = 3, 4
    params = heads.init_lstm_params(rng, c, 2, hidden=hidden, layers=1,
                                    dtype=np.float64)
    x = rng.standard_normal((1, c))
    out = heads.lstm_forward(params, Tensor(x)).data

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = x @ params["lstm.layer0.wx"].data + params["lstm.layer0.bias"].data
    i_g, f_g = sig(z[:, :hidden]), sig(z[:, hidden:2 * hidden])
    g_g = np.tanh(z[:, 2 * hidden:3 * hidden])
    o_g = sig(z[:, 3 * hidden:])
    h = o_g * np.tanh(i_g * g_g)
    ref = h @ params["lstm.out.weight"].data + params["lstm.out.bias"].data
    assert np.abs(out - ref).max() < 1e-12


def test_cnn_window_indices_pad_with_sentinel():
    idx = batching._window_indices(6, 5)
    assert idx.shape == (6, 5)
    assert idx[0].tolist() == [-1, -1, 0, 1, 2]
    assert idx[3].tolist() == [1, 2, 3, 4, 5]
    assert idx[5].tolist() == [3, 4, 5, -1, -1]


def test_cnn_zero_padding_matches_explicit_pad():
    rng = np.random.default_rng(7)
    c = 3
    params = heads.init_cnn_params(rng, c, 2, channels=(4,), kernel=3,
                                   dtype=np.float64)
    tokens = rng.standard_normal((5, c))
    out = heads.cnn_forward(params, Tensor(tokens)).data

    padded = np.vstack([np.zeros((1, c)), tokens, np.zeros((1, c))])
    windows = np.stack([padded[i:i + 3].reshape(-1) for i in range(5)])
    x = _elu(windows @ params["cnn.conv0.weight"].data
             + params["cnn.conv0.bias"].data)
    pooled = x.mean(axis=0, keepdims=True)
    ref = pooled @ params["cnn.out.weight"].data + params["cnn.out.bias"].data
    assert np.abs(out - ref).max() < 1e-12


def test_heads_are_differentiable():
    rng = np.random.default_rng(8)
    c, length = 4, 6
    tokens = Tensor(rng.standard_normal((length, c)).astype(np.float32))
    for params, forward in [
            (heads.init_mlp_params(rng, c, length, 2), heads.mlp_forward),
            (heads.init_lstm_params(rng, c, 2), heads.lstm_forward),
            (heads.init_cnn_params(rng, c, 2), heads.cnn_forward)]:
        loss = engine.cross_entropy(forward(params, tokens), np.array([1]))
        loss.backward()
        grads = [p.grad for p in params.values()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)


def _float64_heads(rng, c, length, n_classes):
    return {
        "mlp": (heads.init_mlp_params(rng, c, length, n_classes,
                                      dtype=np.float64), heads.mlp_forward),
        "lstm": (heads.init_lstm_params(rng, c, n_classes, dtype=np.float64),
                 heads.lstm_forward),
        "cnn": (heads.init_cnn_params(rng, c, n_classes, dtype=np.float64),
                heads.cnn_forward)}


@pytest.mark.parametrize("kind", ["mlp", "lstm", "cnn"])
@pytest.mark.parametrize("batch", [1, 3])
def test_batched_forward_matches_per_sequence_forwards(kind, batch,
                                                       batch_gap):
    rng = np.random.default_rng(9)
    params, forward = _float64_heads(rng, 4, 6, 3)[kind]
    seqs = [rng.standard_normal((6, 4)) for _ in range(batch)]
    labels = rng.integers(0, 3, size=batch)
    assert batch_gap(forward, params, seqs, labels) < 1e-12


@pytest.mark.parametrize("kind", ["lstm", "cnn"])
def test_mixed_lengths_match_per_sequence_forwards(kind, batch_gap):
    rng = np.random.default_rng(10)
    params, forward = _float64_heads(rng, 4, 6, 3)[kind]
    seqs = [rng.standard_normal((n, 4)) for n in (4, 6, 4, 5, 6)]
    labels = rng.integers(0, 3, size=len(seqs))
    assert batch_gap(forward, params, seqs, labels,
                     batched=lambda p, s: batch_logits(forward, p, s)) < 1e-12


def _graph_size(loss):
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def test_lstm_step_graph_is_one_per_batch():
    # One graph per sequence, joined by concat_rows, made 10477 tensors for
    # this 8-sequence step.
    rng = np.random.default_rng(11)
    params = heads.init_lstm_params(rng, 16, 3)
    tokens = Tensor(rng.standard_normal((8, 24, 16)).astype(np.float32))
    loss = engine.cross_entropy(heads.lstm_forward(params, tokens),
                                np.arange(8) % 3)
    assert _graph_size(loss) <= 10477 // 5


def test_cnn_builds_one_window_plan_per_batch_shape(monkeypatch):
    built = []
    init = RowPlan.__init__

    def counted(self, *args, **kwargs):
        built.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(RowPlan, "__init__", counted)
    batching.window_plan.cache_clear()
    batching.mean_plan.cache_clear()
    rng = np.random.default_rng(12)
    params = heads.init_cnn_params(rng, 4, 3)
    tokens = Tensor(rng.standard_normal((8, 7, 4)).astype(np.float32))
    heads.cnn_forward(params, tokens)
    # one window plan for all three conv layers, one pooling plan
    assert sorted(built) == [(8, 56), (56 * heads.CNN_KERNEL, 56)]
    heads.cnn_forward(params, tokens)
    assert len(built) == 2
