"""Attention classifier: score math, positional signals, invariances."""

import math

import numpy as np
import pytest

from meshact import attention, engine
from meshact.attention import (ScoreMeter, TransformerConfig,
                               attention_weights, classify, forward_sequence,
                               init_transformer_params, mhsa_layer,
                               parameter_count, positional_encoding,
                               qkv_project, self_attention)
from meshact.classifier import batch_logits
from meshact.engine import Tensor
from meshact.errors import ConfigError


def _cfg(**kw):
    base = dict(in_dim=8, n_classes=3, d_model=16, heads=(2, 2),
                pe_mode="none")
    base.update(kw)
    return TransformerConfig(**base)


def test_config_rejects_bad_pe_mode():
    with pytest.raises(ConfigError):
        _cfg(pe_mode="rotary")


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        _cfg(d_model=10, heads=(3,))


def test_qkv_identity_projections():
    x = np.random.default_rng(0).standard_normal((5, 4))
    eye = Tensor(np.eye(4))
    q, k, v = qkv_project(Tensor(x), eye, eye, eye)
    for t in (q, k, v):
        assert np.abs(t.data - x).max() == 0.0


def test_single_token_attends_to_itself():
    q = Tensor(np.array([[2.0, -1.0]]))
    w = attention_weights(q, q)
    assert w.shape == (1, 1)
    assert abs(w.data[0, 0] - 1.0) < 1e-12


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(1)
    q = Tensor(rng.standard_normal((7, 4)))
    k = Tensor(rng.standard_normal((9, 4)))
    w = attention_weights(q, k)
    assert w.shape == (7, 9)
    assert np.abs(w.data.sum(axis=1) - 1.0).max() < 1e-9
    assert (w.data > 0).all()


def test_identical_tokens_give_uniform_weights():
    x = Tensor(np.tile(np.array([[1.0, 2.0, 3.0]]), (6, 1)))
    w = attention_weights(x, x)
    assert np.abs(w.data - 1.0 / 6.0).max() < 1e-12


def test_two_token_closed_form():
    # q=[1,0] against keys [1,0] and [0,1], width 2: scores are
    # [1/sqrt(2), 0], so the first weight is e^s / (e^s + 1).
    q = Tensor(np.array([[1.0, 0.0]]))
    k = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    w = attention_weights(q, k).data[0]
    s = 1.0 / math.sqrt(2.0)
    expect = math.exp(s) / (math.exp(s) + 1.0)
    assert abs(w[0] - expect) < 1e-12
    assert abs(w[0] - 0.6698) < 5e-5
    assert abs(w[0] + w[1] - 1.0) < 1e-12


def test_self_attention_matches_loop_oracle():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((5, 3))
    k = rng.standard_normal((5, 3))
    v = rng.standard_normal((5, 4))
    out = self_attention(Tensor(q), Tensor(k), Tensor(v)).data

    ref = np.zeros((5, 4))
    for i in range(5):
        scores = np.array([q[i] @ k[j] / math.sqrt(3.0) for j in range(5)])
        e = np.exp(scores - scores.max())
        a = e / e.sum()
        for j in range(5):
            ref[i] += a[j] * v[j]
    assert np.abs(out - ref).max() < 1e-12


def test_self_attention_rejects_row_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        self_attention(Tensor(rng.standard_normal((2, 3))),
                       Tensor(rng.standard_normal((4, 3))),
                       Tensor(rng.standard_normal((5, 3))))


def test_zeroed_projection_makes_layer_identity():
    # both residual branches end in a zero map, so the block adds exact zeros
    cfg = _cfg()
    params = init_transformer_params(cfg, np.random.default_rng(4))
    params["trf.layer0.proj.weight"].data[:] = 0.0
    params["trf.layer0.ff2.weight"].data[:] = 0.0
    x = Tensor(np.random.default_rng(5).standard_normal((6, cfg.d_model)))
    out = mhsa_layer(x, params, cfg, 0)
    assert np.abs(out.data - x.data).max() == 0.0


def test_positional_encoding_none_is_zero():
    assert not positional_encoding(7, 8, "none").any()


def test_sinusoidal_position_zero_alternates():
    pe = positional_encoding(5, 8, "sinusoidal")
    assert np.abs(pe[0] - np.array([0, 1, 0, 1, 0, 1, 0, 1])).max() < 1e-7
    assert np.abs(pe).max() <= 1.0 + 1e-7


def test_sinusoidal_frozen_values():
    pe = positional_encoding(3, 4, "sinusoidal").astype(np.float64)
    assert abs(pe[1, 0] - 0.8414709848078965) < 1e-7   # sin(1)
    assert abs(pe[1, 1] - 0.5403023058681398) < 1e-7   # cos(1)
    assert abs(pe[1, 2] - 0.009999833334166664) < 1e-7  # sin(1/100)
    assert abs(pe[1, 3] - 0.9999500004166653) < 1e-7   # cos(1/100)


def test_positional_encoding_unknown_mode():
    with pytest.raises(ConfigError):
        positional_encoding(4, 4, "learned")  # caller-handled, not here


def test_learned_table_capacity_enforced():
    cfg = _cfg(pe_mode="learned", pe_capacity=4)
    params = init_transformer_params(cfg, np.random.default_rng(6))
    tokens = np.zeros((6, cfg.in_dim), dtype=np.float32)
    with pytest.raises(ConfigError):
        forward_sequence(params, cfg, tokens)
    # at capacity it must pass
    forward_sequence(params, cfg, tokens[:4])


def test_forward_shapes_and_token_validation():
    cfg = _cfg()
    params = init_transformer_params(cfg, np.random.default_rng(7))
    tokens = np.random.default_rng(8).standard_normal((10, 8))
    out = forward_sequence(params, cfg, tokens)
    assert out.shape == (1, 3)
    with pytest.raises(ValueError):
        forward_sequence(params, cfg, tokens[:, :5])


def test_permutation_invariance_without_positions():
    rng = np.random.default_rng(9)
    cfg = _cfg(pe_mode="none")
    params = init_transformer_params(cfg, rng)
    tokens = rng.standard_normal((12, 8)).astype(np.float32)
    perm = rng.permutation(12)
    a, _ = classify(params, cfg, tokens)
    b, _ = classify(params, cfg, tokens[perm])
    assert np.abs(a - b).max() < 1e-5


def test_sinusoidal_breaks_reversal_symmetry():
    rng = np.random.default_rng(10)
    cfg = _cfg(pe_mode="sinusoidal")
    params = init_transformer_params(cfg, rng)
    tokens = rng.standard_normal((12, 8)).astype(np.float32)
    a, _ = classify(params, cfg, tokens)
    b, _ = classify(params, cfg, tokens[::-1].copy())
    assert np.abs(a - b).max() > 1e-4


def test_class_token_pools_first_row():
    rng = np.random.default_rng(11)
    cfg = _cfg(use_class_token=True)
    params = init_transformer_params(cfg, rng)
    assert "trf.cls.token" in params
    out = forward_sequence(params, cfg,
                           rng.standard_normal((5, 8)).astype(np.float32))
    assert out.shape == (1, 3)


def test_parameter_count_independent_of_length():
    cfg = _cfg(pe_mode="sinusoidal")
    params = init_transformer_params(cfg, np.random.default_rng(12))
    n = parameter_count(params)
    for length in (4, 16, 64):
        tokens = np.zeros((length, 8), dtype=np.float32)
        forward_sequence(params, cfg, tokens)
        assert parameter_count(params) == n


def test_score_meter_counts_quadratic_buffers():
    cfg = _cfg(heads=(2, 2))
    params = init_transformer_params(cfg, np.random.default_rng(13))

    def measure(length):
        tokens = np.zeros((length, 8), dtype=np.float32)
        with ScoreMeter() as meter:
            forward_sequence(params, cfg, tokens)
        return meter

    m16, m32 = measure(16), measure(32)
    assert m16.buffers == 4            # two layers x two heads
    assert m16.total_bytes == 4 * 16 * 16 * 4
    assert m32.total_bytes == 4 * m16.total_bytes


def test_score_meter_nests_and_detaches():
    q = Tensor(np.zeros((3, 2)))
    with ScoreMeter() as outer:
        attention_weights(q, q)
        with ScoreMeter() as inner:
            attention_weights(q, q)
    attention_weights(q, q)            # outside: counted nowhere
    assert outer.buffers == 2
    assert inner.buffers == 1


def test_classify_tie_breaks_to_lowest_index():
    cfg = _cfg()
    params = init_transformer_params(cfg, np.random.default_rng(14))
    params["trf.fc3.weight"].data[:] = 0.0
    params["trf.fc3.bias"].data[:] = 0.0
    logits, label = classify(params, cfg,
                             np.ones((6, 8), dtype=np.float32))
    assert label == 0
    assert np.abs(logits).max() == 0.0


def test_classify_does_not_touch_grads():
    cfg = _cfg()
    params = init_transformer_params(cfg, np.random.default_rng(15))
    classify(params, cfg, np.zeros((4, 8), dtype=np.float32))
    assert all(p.grad is None for p in params.values())


def _float64_transformer(rng, **kw):
    cfg = _cfg(**kw)
    params = init_transformer_params(cfg, rng, dtype=np.float64)
    for p in params.values():  # give the zero-init tables some signal
        p.data += rng.standard_normal(p.data.shape) * 0.1
    return cfg, params


@pytest.mark.parametrize("kw", [
    dict(pe_mode="none"), dict(pe_mode="sinusoidal"),
    dict(pe_mode="learned", pe_capacity=8),
    dict(pe_mode="learned", pe_capacity=8, use_class_token=True),
    dict(pe_mode="sinusoidal", use_class_token=True)])
@pytest.mark.parametrize("batch", [1, 3])
def test_batched_forward_matches_per_sequence_forwards(kw, batch, batch_gap):
    rng = np.random.default_rng(16)
    cfg, params = _float64_transformer(rng, **kw)
    seqs = [rng.standard_normal((7, cfg.in_dim)) for _ in range(batch)]
    labels = rng.integers(0, cfg.n_classes, size=batch)

    def forward(p, t):
        return forward_sequence(p, cfg, t)

    assert batch_gap(forward, params, seqs, labels) < 1e-12


def test_mixed_lengths_match_per_sequence_forwards(batch_gap):
    rng = np.random.default_rng(17)
    cfg, params = _float64_transformer(rng, pe_mode="learned",
                                       pe_capacity=8, use_class_token=True)
    seqs = [rng.standard_normal((n, cfg.in_dim)) for n in (5, 7, 5, 3)]
    labels = rng.integers(0, cfg.n_classes, size=len(seqs))

    def forward(p, t):
        return forward_sequence(p, cfg, t)

    assert batch_gap(forward, params, seqs, labels,
                     batched=lambda p, s: batch_logits(forward, p, s)) < 1e-12

