"""Multi-head self-attention classifier over per-frame embedding tokens.

Tokens are rows: a mini-batch of B sequences of L tokens is one stack of
B*L rows (see batching.py), and each head scores it as a (B, L, L) batch.
Scores are Q K^T / sqrt(C_k), softmaxed per query row.
Each layer is a standard pre-layer-norm block for trainability: residual
attention, then a residual position-wise feed-forward, with a final layer
norm before pooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import batching, engine
from .engine import Tensor
from .errors import ConfigError
from .optim import glorot_uniform, ones_param, zeros_param

PE_MODES = ("none", "sinusoidal", "learned")


@dataclass(frozen=True)
class TransformerConfig:
    in_dim: int                      # embedding width C arriving from the AE
    n_classes: int
    d_model: int = 128
    heads: tuple = (2, 2, 2)
    ff_mult: int = 2
    pe_mode: str = "sinusoidal"      # one of PE_MODES
    pe_capacity: int = 192           # learned-table rows
    use_class_token: bool = False

    def __post_init__(self):
        if self.pe_mode not in PE_MODES:
            raise ConfigError(f"unknown positional encoding {self.pe_mode!r}")
        for h in self.heads:
            if self.d_model % h:
                raise ConfigError(
                    f"d_model {self.d_model} not divisible by head count {h}")


def init_transformer_params(cfg: TransformerConfig,
                            rng: np.random.Generator,
                            dtype=np.float32) -> dict:
    p = {}
    p["trf.input.weight"] = glorot_uniform(rng, cfg.in_dim, cfg.d_model,
                                           dtype=dtype)
    p["trf.input.bias"] = zeros_param((cfg.d_model,), dtype=dtype)
    if cfg.pe_mode == "learned":
        p["trf.pe.table"] = zeros_param((cfg.pe_capacity, cfg.d_model),
                                        dtype=dtype)
    if cfg.use_class_token:
        p["trf.cls.token"] = zeros_param((1, cfg.d_model), dtype=dtype)
    d = cfg.d_model
    for i, h in enumerate(cfg.heads):
        dk = d // h
        for j in range(h):
            for name in ("wq", "wk", "wv"):
                p[f"trf.layer{i}.head{j}.{name}"] = glorot_uniform(
                    rng, d, dk, dtype=dtype)
        p[f"trf.layer{i}.proj.weight"] = glorot_uniform(rng, d, d, dtype=dtype)
        p[f"trf.layer{i}.proj.bias"] = zeros_param((d,), dtype=dtype)
        p[f"trf.layer{i}.ln1.gamma"] = ones_param((d,), dtype=dtype)
        p[f"trf.layer{i}.ln1.beta"] = zeros_param((d,), dtype=dtype)
        hidden = cfg.ff_mult * d
        p[f"trf.layer{i}.ff1.weight"] = glorot_uniform(rng, d, hidden,
                                                       dtype=dtype)
        p[f"trf.layer{i}.ff1.bias"] = zeros_param((hidden,), dtype=dtype)
        p[f"trf.layer{i}.ff2.weight"] = glorot_uniform(rng, hidden, d,
                                                       dtype=dtype)
        p[f"trf.layer{i}.ff2.bias"] = zeros_param((d,), dtype=dtype)
        p[f"trf.layer{i}.ln2.gamma"] = ones_param((d,), dtype=dtype)
        p[f"trf.layer{i}.ln2.beta"] = zeros_param((d,), dtype=dtype)
    p["trf.final_ln.gamma"] = ones_param((d,), dtype=dtype)
    p["trf.final_ln.beta"] = zeros_param((d,), dtype=dtype)
    p["trf.fc3.weight"] = glorot_uniform(rng, d, cfg.n_classes, dtype=dtype)
    p["trf.fc3.bias"] = zeros_param((cfg.n_classes,), dtype=dtype)
    return p


# ------------------------------------------------------------ score meter

class ScoreMeter:
    """Counts attention score-buffer allocations inside a `with` block.

    Every score matrix a forward pass materializes stays live until its
    graph is released, so the running total is also the peak live figure
    for a single forward/backward.
    """

    def __init__(self):
        self.total_bytes = 0
        self.buffers = 0

    def add(self, nbytes: int):
        self.total_bytes += nbytes
        self.buffers += 1

    def __enter__(self):
        _METERS.append(self)
        return self

    def __exit__(self, *exc):
        _METERS.remove(self)
        return False


_METERS: list = []


# ------------------------------------------------------------ attention ops

def qkv_project(tokens: Tensor, wq: Tensor, wk: Tensor, wv: Tensor):
    """Three bias-free linear maps of the token rows."""
    return (engine.matmul(tokens, wq), engine.matmul(tokens, wk),
            engine.matmul(tokens, wv))


def attention_weights(q: Tensor, k: Tensor) -> Tensor:
    """Softmaxed scores of (L, d) or (B, L, d) queries against keys."""
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"key width mismatch: {q.shape} vs {k.shape}")
    scores = engine.scale(engine.matmul(q, engine.transpose(k)),
                          1.0 / math.sqrt(q.shape[-1]))
    for meter in _METERS:
        meter.add(scores.data.nbytes)
    return engine.softmax_rows(scores)


def self_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(f"key/value row mismatch: {k.shape} vs {v.shape}")
    return engine.matmul(attention_weights(q, k), v)


def positional_encoding(length: int, d_model: int, mode: str) -> np.ndarray:
    """Per-position signal added to tokens before the first layer.

    Sinusoidal: even columns sin(pos/10000^(col/d)), odd columns cos of the
    same frequency, so position 0 reads [0, 1, 0, 1, ...]. Learned mode is
    handled by the caller (it slices the trainable table); this function
    covers the fixed modes.
    """
    if mode == "none":
        return np.zeros((length, d_model), dtype=np.float32)
    if mode == "sinusoidal":
        pos = np.arange(length, dtype=np.float64)[:, None]
        col = np.arange(d_model, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, 2.0 * np.floor(col / 2.0) / d_model)
        pe = np.where(col % 2 == 0, np.sin(angle), np.cos(angle))
        return pe.astype(np.float32)
    raise ConfigError(f"unknown positional encoding {mode!r}")


def mhsa_layer(x: Tensor, params: dict, cfg: TransformerConfig,
               layer: int, batch: int = 1) -> Tensor:
    """One block over (B*L, d) rows: layer norm -> heads -> concat ->
    projection, added to x; then layer norm -> feed-forward, added again.
    Each head attends within its own sequence."""
    h = engine.layernorm_rows(x, params[f"trf.layer{layer}.ln1.gamma"],
                              params[f"trf.layer{layer}.ln1.beta"])
    rows = x.shape[0]
    outs = []
    for j in range(cfg.heads[layer]):
        q, k, v = (engine.reshape(t, (batch, rows // batch, t.shape[1]))
                   for t in qkv_project(
                       h, params[f"trf.layer{layer}.head{j}.wq"],
                       params[f"trf.layer{layer}.head{j}.wk"],
                       params[f"trf.layer{layer}.head{j}.wv"]))
        out = self_attention(q, k, v)
        outs.append(engine.reshape(out, (rows, out.shape[2])))
    attn = engine.add_bias(
        engine.matmul(engine.concat_cols(outs),
                      params[f"trf.layer{layer}.proj.weight"]),
        params[f"trf.layer{layer}.proj.bias"])
    x = engine.add(x, attn)
    h2 = engine.layernorm_rows(x, params[f"trf.layer{layer}.ln2.gamma"],
                               params[f"trf.layer{layer}.ln2.beta"])
    f = engine.elu(engine.add_bias(
        engine.matmul(h2, params[f"trf.layer{layer}.ff1.weight"]),
        params[f"trf.layer{layer}.ff1.bias"]))
    f = engine.add_bias(engine.matmul(f, params[f"trf.layer{layer}.ff2.weight"]),
                        params[f"trf.layer{layer}.ff2.bias"])
    return engine.add(x, f)


def forward_sequence(params: dict, cfg: TransformerConfig,
                     tokens) -> Tensor:
    """(L, C) or (B, L, C) tokens -> (B, n_classes) logits, differentiable;
    (L, C) is the B=1 case."""
    rows, batch, length = batching.stack_rows(tokens)
    if rows.shape[1] != cfg.in_dim:
        raise ValueError(f"tokens must be (L, {cfg.in_dim}) or "
                         f"(B, L, {cfg.in_dim}), got {tokens.shape}")
    x = engine.add_bias(engine.matmul(rows, params["trf.input.weight"]),
                        params["trf.input.bias"])
    if cfg.use_class_token:
        x = engine.sparse_mm(batching.prepend_plan(batch, length),
                             engine.concat_rows([params["trf.cls.token"], x]))
        length += 1
    if cfg.pe_mode == "learned":
        if length > cfg.pe_capacity:
            raise ConfigError(f"sequence length {length} exceeds the learned "
                              f"position table capacity {cfg.pe_capacity}")
        x = engine.add(x, engine.sparse_mm(
            batching.tile_plan(batch, length, cfg.pe_capacity),
            params["trf.pe.table"]))
    elif cfg.pe_mode == "sinusoidal":
        pe = positional_encoding(length, cfg.d_model, "sinusoidal")
        x = engine.add(x, Tensor(np.tile(pe.astype(x.data.dtype), (batch, 1))))
    for i in range(len(cfg.heads)):
        x = mhsa_layer(x, params, cfg, i, batch)
    x = engine.layernorm_rows(x, params["trf.final_ln.gamma"],
                              params["trf.final_ln.beta"])
    pooled = engine.sparse_mm(
        batching.first_row_plan(batch, length) if cfg.use_class_token
        else batching.mean_plan(batch, length), x)
    return engine.add_bias(engine.matmul(pooled, params["trf.fc3.weight"]),
                           params["trf.fc3.bias"])


def classify(params: dict, cfg: TransformerConfig, tokens):
    """Inference: returns (logits (n_classes,) array, predicted label).

    Ties break toward the lowest class index (argmax convention), so
    predictions are deterministic and invariant to positive rescaling.
    """
    frozen = {name: p.detach() for name, p in params.items()}
    logits = forward_sequence(frozen, cfg, tokens).data[0]
    return logits.copy(), int(np.argmax(logits))


def parameter_count(params: dict) -> int:
    return sum(p.data.size for p in params.values())
