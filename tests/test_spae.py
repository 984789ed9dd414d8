"""Spiral autoencoder: convolution semantics, batching, training, files."""

import dataclasses
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from meshact import engine, spae
from meshact.engine import Tensor
from meshact.errors import ConfigError, NonFiniteError
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


def test_param_shapes_are_pinned_in_creation_order():
    # creation order fixes which draws of the init RNG each weight gets
    h = _hierarchy(short_spirals=True)
    assert list(spae.spae_param_shapes(h, 8).items()) == [
        ("spae.enc.0.weight", (18, 16)), ("spae.enc.0.bias", (16,)),
        ("spae.enc.1.weight", (80, 32)), ("spae.enc.1.bias", (32,)),
        ("spae.enc.2.weight", (160, 64)), ("spae.enc.2.bias", (64,)),
        ("spae.enc.3.weight", (256, 128)), ("spae.enc.3.bias", (128,)),
        ("spae.fc1.weight", (512, 8)), ("spae.fc1.bias", (8,)),
        ("spae.fc2.weight", (8, 512)), ("spae.fc2.bias", (512,)),
        ("spae.dec.0.weight", (512, 128)), ("spae.dec.0.bias", (128,)),
        ("spae.dec.1.weight", (640, 64)), ("spae.dec.1.bias", (64,)),
        ("spae.dec.2.weight", (320, 32)), ("spae.dec.2.bias", (32,)),
        ("spae.dec.3.weight", (192, 32)), ("spae.dec.3.bias", (32,)),
        ("spae.dec.4.weight", (192, 16)), ("spae.dec.4.bias", (16,)),
        ("spae.out.weight", (96, 3)), ("spae.out.bias", (3,))]
    assert [(prefix, level) for prefix, level, _, _
            in spae.spiral_convs(h)] == [
        ("spae.enc.0", 0), ("spae.enc.1", 1), ("spae.enc.2", 2),
        ("spae.enc.3", 3), ("spae.dec.0", 3), ("spae.dec.1", 2),
        ("spae.dec.2", 1), ("spae.dec.3", 0), ("spae.dec.4", 0),
        ("spae.out", 0)]


def test_hierarchy_with_three_factors_is_a_config_error():
    topo, coords = icosphere(1)
    h = build_hierarchy(topo, coords, (2.0, 2.0, 2.0), (6, 5, 5, 4))
    with pytest.raises(ConfigError, match="factors"):
        spae.spae_param_shapes(h, 8)


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


def _serial_encode(params, h, seqs, chunk=32):
    """The oracle: on this thread, each sequence's chunks of `chunk` frames
    through `encode_batch`, in order."""
    frozen = spae.frozen_params(params)
    return [(np.concatenate([spae.encode_batch(frozen, h,
                                               Tensor(frames[s:s + chunk])).data
                             for s in range(0, len(frames), chunk)]), label)
            for frames, label in seqs]


def _assert_same_codes(out, expected):
    assert len(out) == len(expected)
    for (emb, label), (want, want_label) in zip(out, expected):
        assert label == want_label
        assert emb.dtype == np.float32 and emb.shape == want.shape
        assert emb.tobytes() == want.tobytes()


def _sequences(rng, lengths):
    return [(rng.standard_normal((n, 42, 3)).astype(np.float32), i % 3 + 1)
            for i, n in enumerate(lengths)]


def _recording_encode_batch(monkeypatch):
    """Patch spae.encode_batch to record (thread id, batch size) per call."""
    calls = []
    real = spae.encode_batch

    def recorded(params, hierarchy, frames):
        calls.append((threading.get_ident(), len(frames)))
        return real(params, hierarchy, frames)
    monkeypatch.setattr(spae, "encode_batch", recorded)
    return calls


def test_encode_dataset_matches_encode_batch(monkeypatch):
    rng = np.random.default_rng(9)
    h = _hierarchy()
    params = spae.init_spae_params(h, 8, rng)
    # 70 frames: two full chunks of 32 and a remainder of 6
    seqs = _sequences(rng, (6, 4, 70))
    expected = _serial_encode(params, h, seqs)
    calls = _recording_encode_batch(monkeypatch)
    _assert_same_codes(spae.encode_dataset(params, h, seqs), expected)
    assert sorted(size for _, size in calls) == [4, 6, 6, 32, 32]


def test_encode_dataset_keeps_order_with_more_sequences_than_cpus(
        monkeypatch):
    rng = np.random.default_rng(12)
    h = _hierarchy()
    params = spae.init_spae_params(h, 8, rng)
    seqs = _sequences(rng, (5, 1, 7, 2, 40, 3, 6, 4))
    expected = _serial_encode(params, h, seqs)
    monkeypatch.setattr(spae, "_blas_threads", lambda: 1)
    monkeypatch.setattr(spae, "_usable_cpus", lambda: 3)
    calls = _recording_encode_batch(monkeypatch)
    _assert_same_codes(spae.encode_dataset(params, h, seqs), expected)
    # a pool thread that finishes its share early may take the next one
    threads = {thread for thread, _ in calls}
    assert threading.get_ident() in threads and len(threads) >= 2
    assert spae.encode_dataset(params, h, []) == []


def test_non_finite_frame_on_a_pool_thread_raises(monkeypatch):
    rng = np.random.default_rng(13)
    h = _hierarchy()
    params = spae.init_spae_params(h, 8, rng)
    seqs = _sequences(rng, (4, 4))
    seqs[1][0][2, 5, 0] = np.nan       # the second share's only sequence
    monkeypatch.setattr(spae, "_blas_threads", lambda: 1)
    monkeypatch.setattr(spae, "_usable_cpus", lambda: 2)
    calls = _recording_encode_batch(monkeypatch)
    with pytest.raises(NonFiniteError):
        spae.encode_dataset(params, h, seqs)
    assert len({thread for thread, _ in calls}) == 2


@pytest.mark.parametrize("blas_threads", [2, 8, None])
def test_encode_stays_on_the_calling_thread_beside_a_threaded_blas(
        monkeypatch, blas_threads):
    # None: a BLAS that cannot be asked
    rng = np.random.default_rng(14)
    h = _hierarchy()
    params = spae.init_spae_params(h, 8, rng)
    seqs = _sequences(rng, (3, 5, 2, 4))
    expected = _serial_encode(params, h, seqs)
    monkeypatch.setattr(spae, "_blas_threads", lambda: blas_threads)
    monkeypatch.setattr(spae, "_usable_cpus", lambda: 4)
    calls = _recording_encode_batch(monkeypatch)
    _assert_same_codes(spae.encode_dataset(params, h, seqs), expected)
    assert {thread for thread, _ in calls} == {threading.get_ident()}


def test_encode_threads_are_capped(monkeypatch):
    rng = np.random.default_rng(15)
    h = _hierarchy()
    params = spae.init_spae_params(h, 8, rng)
    seqs = _sequences(rng, [2] * 40)
    expected = _serial_encode(params, h, seqs)
    monkeypatch.setattr(spae, "_blas_threads", lambda: 1)
    monkeypatch.setattr(spae, "_usable_cpus", lambda: 64)
    assert spae._encode_threads() == spae.ENCODE_THREADS_MAX
    calls = _recording_encode_batch(monkeypatch)
    _assert_same_codes(spae.encode_dataset(params, h, seqs), expected)
    assert len({thread for thread, _ in calls}) <= spae.ENCODE_THREADS_MAX


def test_blas_threads_reads_the_running_blas():
    if spae._blas_thread_getter() is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    code = "from meshact import spae; print(spae._blas_threads())"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(spae.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "1"


def test_concurrent_plan_requests_build_each_plan_once(monkeypatch):
    h = _hierarchy(short_spirals=True)
    built = []
    real = engine.RowPlan.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        time.sleep(0.001)        # widen any gap between lookup and store
        real(self, *args, **kwargs)
    monkeypatch.setattr(engine.RowPlan, "__init__", counted)
    workers = 6                  # more threads than the host has cores
    barrier = threading.Barrier(workers)
    got = [None] * workers

    def request(i):
        barrier.wait(timeout=10)
        got[i] = spae._level_plans(h, 5)
    threads = [threading.Thread(target=request, args=(i,))
               for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(plans is got[0] for plans in got)
    spirals, downs, ups = got[0]
    assert [id(p) for p in built] == [id(p) for p in (*spirals, *downs, *ups)]
    assert list(h.plans) == [5]


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
