"""Alternate temporal heads trained on the same cached embeddings.

Each head maps (L, C) or (B, L, C) tokens to (B, n_classes) logits through
the shared engine, one graph per mini-batch, so the classifier training
loop is head-agnostic. Tokens are stacked as B*L rows (batching.py):

  * mlp  - flattens each whole sequence, 3 hidden layers; its first weight
    matrix is (L*C x h), so parameter count grows linearly with L;
  * lstm - 3 stacked recurrent layers stepped over (B, hidden) states,
    final hidden state to a linear map;
  * cnn  - 3 temporal convolutions (kernel 5, zero-padded) with global
    average pooling over time.
"""

from __future__ import annotations

import numpy as np

from . import batching, engine
from .engine import Tensor
from .optim import glorot_uniform, zeros_param

MLP_HIDDEN = (128, 64, 32)
LSTM_HIDDEN = 64
CNN_CHANNELS = (64, 64, 64)
CNN_KERNEL = 5


# ------------------------------------------------------------------- MLP

def init_mlp_params(rng, in_dim: int, length: int, n_classes: int,
                    dtype=np.float32) -> dict:
    p = {}
    widths = (length * in_dim,) + MLP_HIDDEN
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        p[f"mlp.fc{i}.weight"] = glorot_uniform(rng, a, b, dtype=dtype)
        p[f"mlp.fc{i}.bias"] = zeros_param((b,), dtype=dtype)
    p["mlp.out.weight"] = glorot_uniform(rng, MLP_HIDDEN[-1], n_classes,
                                         dtype=dtype)
    p["mlp.out.bias"] = zeros_param((n_classes,), dtype=dtype)
    return p


def mlp_forward(params: dict, tokens) -> Tensor:
    rows, batch, length = batching.stack_rows(tokens)
    c = rows.shape[1]
    expected = params["mlp.fc0.weight"].shape[0]
    if length * c != expected:
        raise ValueError(f"mlp was built for {expected} flattened inputs, "
                         f"got {length}x{c}")
    x = engine.reshape(rows, (batch, length * c))
    for i in range(len(MLP_HIDDEN)):
        x = engine.elu(engine.add_bias(
            engine.matmul(x, params[f"mlp.fc{i}.weight"]),
            params[f"mlp.fc{i}.bias"]))
    return engine.add_bias(engine.matmul(x, params["mlp.out.weight"]),
                           params["mlp.out.bias"])


# ------------------------------------------------------------------ LSTM

def init_lstm_params(rng, in_dim: int, n_classes: int,
                     hidden: int = LSTM_HIDDEN, layers: int = 3,
                     dtype=np.float32) -> dict:
    p = {}
    for i in range(layers):
        d_in = in_dim if i == 0 else hidden
        p[f"lstm.layer{i}.wx"] = glorot_uniform(rng, d_in, 4 * hidden,
                                                dtype=dtype)
        p[f"lstm.layer{i}.wh"] = glorot_uniform(rng, hidden, 4 * hidden,
                                                dtype=dtype)
        # Forget-gate bias starts at 1 so early training retains state.
        bias = np.zeros(4 * hidden, dtype=dtype)
        bias[hidden:2 * hidden] = 1.0
        p[f"lstm.layer{i}.bias"] = Tensor(bias, requires_grad=True)
    p["lstm.out.weight"] = glorot_uniform(rng, hidden, n_classes, dtype=dtype)
    p["lstm.out.bias"] = zeros_param((n_classes,), dtype=dtype)
    return p


def _lstm_layer(params: dict, layer: int, xs: Tensor, batch: int) -> list:
    """Run one layer over time-major (L*B, d) rows; returns the (B, hidden)
    state of every step."""
    wh = params[f"lstm.layer{layer}.wh"]
    hidden = wh.shape[0]
    # The input term of every step at once; each step adds only h @ wh.
    zx = engine.add_bias(engine.matmul(xs, params[f"lstm.layer{layer}.wx"]),
                         params[f"lstm.layer{layer}.bias"])
    h = Tensor(np.zeros((batch, hidden), dtype=xs.data.dtype))
    c = Tensor(np.zeros((batch, hidden), dtype=xs.data.dtype))
    outs = []
    for t in range(xs.shape[0] // batch):
        z = engine.add(engine.slice_rows(zx, t * batch, (t + 1) * batch),
                       engine.matmul(h, wh))
        i_g = engine.sigmoid(engine.slice_cols(z, 0, hidden))
        f_g = engine.sigmoid(engine.slice_cols(z, hidden, 2 * hidden))
        g_g = engine.tanh(engine.slice_cols(z, 2 * hidden, 3 * hidden))
        o_g = engine.sigmoid(engine.slice_cols(z, 3 * hidden, 4 * hidden))
        c = engine.add(engine.mul(f_g, c), engine.mul(i_g, g_g))
        h = engine.mul(o_g, engine.tanh(c))
        outs.append(h)
    return outs


def lstm_forward(params: dict, tokens) -> Tensor:
    """The hidden width and layer count are those of `params`."""
    rows, batch, length = batching.stack_rows(tokens)
    x = engine.sparse_mm(batching.time_major_plan(batch, length), rows)
    layers = sum(name.endswith(".wh") for name in params)
    for i in range(layers):
        steps = _lstm_layer(params, i, x, batch)
        if i + 1 < layers:
            x = engine.concat_rows(steps)
    return engine.add_bias(engine.matmul(steps[-1], params["lstm.out.weight"]),
                           params["lstm.out.bias"])


# ------------------------------------------------------------------- CNN

def init_cnn_params(rng, in_dim: int, n_classes: int,
                    channels=CNN_CHANNELS, kernel: int = CNN_KERNEL,
                    dtype=np.float32) -> dict:
    p = {}
    widths = (in_dim,) + tuple(channels)
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        p[f"cnn.conv{i}.weight"] = glorot_uniform(rng, kernel * a, b,
                                                  dtype=dtype)
        p[f"cnn.conv{i}.bias"] = zeros_param((b,), dtype=dtype)
    p["cnn.out.weight"] = glorot_uniform(rng, widths[-1], n_classes,
                                         dtype=dtype)
    p["cnn.out.bias"] = zeros_param((n_classes,), dtype=dtype)
    return p


def cnn_forward(params: dict, tokens) -> Tensor:
    """Conv count and kernel are those of `params` (conv0: kernel*C rows)."""
    x, batch, length = batching.stack_rows(tokens)
    kernel = params["cnn.conv0.weight"].shape[0] // x.shape[1]
    windows = batching.window_plan(batch, length, kernel)
    for i in range(sum(name.startswith("cnn.conv") and name.endswith(".weight")
                       for name in params)):
        c_in = x.shape[1]
        g = engine.reshape(engine.sparse_mm(windows, x),
                           (batch * length, kernel * c_in))
        x = engine.elu(engine.add_bias(
            engine.matmul(g, params[f"cnn.conv{i}.weight"]),
            params[f"cnn.conv{i}.bias"]))
    pooled = engine.sparse_mm(batching.mean_plan(batch, length), x)
    return engine.add_bias(engine.matmul(pooled, params["cnn.out.weight"]),
                           params["cnn.out.bias"])
