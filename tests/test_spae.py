"""Spiral autoencoder: convolution semantics, batching, training, files."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from meshact import engine, spae
from meshact.engine import Tensor
from meshact.hierarchy import build_hierarchy
from meshact.spiral import PAD_SENTINEL
from meshact.topology import icosphere


def _hierarchy(short_spirals=False):
    # the autoencoder is fixed at 4 downsampling steps, so every usable
    # hierarchy has 5 levels; short spirals keep the training tests quick
    topo, coords = icosphere(1)
    lengths = (6, 5, 5, 4, 4) if short_spirals else (9, 8, 8, 7, 6)
    return build_hierarchy(topo, coords, (2.0, 2.0, 2.0, 2.0), lengths)


def test_param_names_cover_both_halves():
    h = _hierarchy()
    params = spae.init_spae_params(h, 16, np.random.default_rng(0))
    names = set(params)
    for i in range(4):
        assert f"spae.enc.{i}.weight" in names
    for i in range(5):
        assert f"spae.dec.{i}.weight" in names
    assert {"spae.fc1.weight", "spae.fc2.weight", "spae.out.weight"} <= names
    for n, p in params.items():
        assert p.requires_grad, n


def test_batched_spiral_indices_offset_blocks():
    h = _hierarchy()
    table = h.spirals[0]
    v = table.vertex_count
    batched = spae.batched_spiral_indices(table, 3)
    assert batched.shape == (3 * v, table.length)
    single = table.indices
    for b in range(3):
        block = batched[b * v:(b + 1) * v]
        expect = np.where(single == PAD_SENTINEL, PAD_SENTINEL,
                          single + b * v)
        assert np.array_equal(block, expect)


def test_batched_sampling_is_block_diagonal():
    h = _hierarchy()
    op = h.downs[0]
    plan = spae.batched_sampling(op, 2)
    assert (plan.rows, plan.cols) == (2 * op.rows, 2 * op.cols)
    dense = engine.sparse_mm(plan, Tensor(np.eye(plan.cols))).data
    single = op.dense()
    assert np.array_equal(dense[:op.rows, :op.cols], single)
    assert np.array_equal(dense[op.rows:, op.cols:], single)
    assert not dense[:op.rows, op.cols:].any()


def test_spiral_conv_matches_naive_loop():
    rng = np.random.default_rng(1)
    h = _hierarchy(short_spirals=True)
    table = h.spirals[0]
    v, ell = table.indices.shape
    fin, fout = 3, 5
    x = rng.standard_normal((v, fin))
    w = rng.standard_normal((ell * fin, fout))
    bias = rng.standard_normal(fout)

    ref = np.zeros((v, fout))
    for i in range(v):
        window = np.zeros((ell, fin))
        for j, idx in enumerate(table.indices[i]):
            if idx != PAD_SENTINEL:
                window[j] = x[idx]
        ref[i] = window.reshape(-1) @ w + bias

    window = engine.RowPlan.gather(table.indices, v)
    out = spae.spiral_conv(Tensor(x), window, Tensor(w, requires_grad=True),
                           Tensor(bias, requires_grad=True))
    assert np.abs(out.data - ref).max() < 1e-12


def test_encode_decode_shapes_and_batch_consistency():
    rng = np.random.default_rng(2)
    h = _hierarchy()
    params = spae.init_spae_params(h, 12, rng)
    frozen = spae.frozen_params(params)
    frames = rng.standard_normal((4, 42, 3)).astype(np.float32)
    codes = spae.encode_batch(frozen, h, Tensor(frames))
    assert codes.shape == (4, 12)
    recon = spae.decode_batch(frozen, h, codes)
    assert recon.shape == (4, 42, 3)
    # batch execution equals per-frame execution
    for i in range(4):
        single = spae.encode_batch(frozen, h, Tensor(frames[i:i + 1]))
        assert np.abs(single.data[0] - codes.data[i]).max() < 1e-4


def test_wrong_vertex_count_rejected():
    rng = np.random.default_rng(4)
    h = _hierarchy()
    params = spae.init_spae_params(h, 8, rng)
    with pytest.raises(ValueError):
        spae.encode_batch(spae.frozen_params(params), h,
                          Tensor(np.zeros((2, 40, 3), dtype=np.float32)))


def test_reconstruction_loss_is_l1():
    rng = np.random.default_rng(5)
    h = _hierarchy()
    params = spae.init_spae_params(h, 8, rng)
    frames = rng.standard_normal((2, 42, 3)).astype(np.float32)
    loss = spae.reconstruction_loss(params, h, frames)
    frozen = spae.frozen_params(params)
    recon = spae.decode_batch(frozen, h,
                              spae.encode_batch(frozen, h, Tensor(frames)))
    assert abs(loss.item() - np.abs(recon.data - frames).mean()) < 1e-6


def test_training_reduces_loss_and_checkpoints(tmp_path):
    rng = np.random.default_rng(6)
    h = _hierarchy(short_spirals=True)
    base = rng.standard_normal((1, 42, 3)) * 0.3
    frames = (base + rng.standard_normal((6, 42, 3)) * 0.02).astype(np.float32)
    params, state, curve = spae.train_spae(
        frames, h, latent_dim=8, epochs=40, batch_size=3,
        learning_rate=1e-3, decay_rate=0.99, weight_decay=0.0,
        seed=1, checkpoint_dir=str(tmp_path), checkpoint_every=20)
    assert len(curve) == 40
    assert curve[-1] < 0.5 * curve[0]
    assert state.step_count == 40 * 2
    # periodic saves refresh one rolling checkpoint file
    from meshact.checkpoint import load_checkpoint
    arrays, loaded_state = load_checkpoint(tmp_path / "spae.ckpt")
    assert set(arrays) == set(params)
    assert loaded_state.step_count == state.step_count


def test_training_is_deterministic():
    rng = np.random.default_rng(7)
    h = _hierarchy(short_spirals=True)
    frames = rng.standard_normal((4, 42, 3)).astype(np.float32) * 0.3
    kw = dict(latent_dim=4, epochs=5, batch_size=2, learning_rate=1e-3,
              decay_rate=0.99, weight_decay=5e-5, seed=9, checkpoint_dir=None)
    _, _, c1 = spae.train_spae(frames, h, **kw)
    _, _, c2 = spae.train_spae(frames, h, **kw)
    assert c1 == c2


def test_training_holds_one_graph_at_a_time():
    # the peak of three steps is one step's: each graph and its gradients
    # are released before the next forward builds another
    topo, coords = icosphere(2)
    h = build_hierarchy(topo, coords, (2.0, 2.0, 2.0, 2.0), (12, 11, 10, 9, 8))
    rng = np.random.default_rng(10)
    frames = (coords + rng.standard_normal((24,) + coords.shape) * 0.02
              ).astype(np.float32)
    kw = dict(latent_dim=16, epochs=1, batch_size=8, learning_rate=1e-3,
              decay_rate=0.99, weight_decay=0.0, seed=3)
    spae.train_spae(frames[:8], h, **kw)    # builds plans and their transposes

    def peak(n):
        tracemalloc.start()
        try:
            spae.train_spae(frames[:n], h, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(24) <= 1.2 * peak(8)


def test_embeddings_file_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    embedded = [(rng.standard_normal((5, 7)).astype(np.float32), 2),
                (rng.standard_normal((3, 7)).astype(np.float32), 0)]
    path = tmp_path / "e.emb"
    spae.save_embeddings(path, embedded)
    back = spae.load_embeddings(path)
    assert len(back) == 2
    for (a, la), (b, lb) in zip(embedded, back):
        assert la == lb
        assert a.tobytes() == b.tobytes()


def test_encode_dataset_matches_encode_batch():
    rng = np.random.default_rng(9)
    h = _hierarchy()
    params = spae.init_spae_params(h, 8, rng)
    seqs = [(rng.standard_normal((6, 42, 3)).astype(np.float32), 1),
            (rng.standard_normal((4, 42, 3)).astype(np.float32), 2)]
    out = spae.encode_dataset(params, h, seqs)
    frozen = spae.frozen_params(params)
    for (frames, label), (emb, out_label) in zip(seqs, out):
        assert out_label == label
        direct = spae.encode_batch(frozen, h, Tensor(frames)).data
        assert np.abs(emb - direct).max() < 1e-5


def test_plans_are_built_once_per_batch_size(monkeypatch):
    rng = np.random.default_rng(10)
    h = _hierarchy(short_spirals=True)
    params = spae.init_spae_params(h, 4, rng)
    frames = rng.standard_normal((2, 42, 3)).astype(np.float32)
    calls = []
    tile = spae.batched_spiral_indices

    def counted(table, batch):
        calls.append(batch)
        return tile(table, batch)
    monkeypatch.setattr(spae, "batched_spiral_indices", counted)
    first = spae.reconstruction_loss(params, h, frames)
    second = spae.reconstruction_loss(params, h, frames)
    assert calls == [2] * (h.level_count - 1)   # no conv reads the coarsest
    assert first.item() == second.item()
    assert list(h.plans) == [2]
    assert not dataclasses.replace(h).plans
