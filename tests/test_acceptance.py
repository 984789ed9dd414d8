"""Acceptance gate: one test per shipped guarantee, strict tolerances.

Each test prints a single PASS/FAIL line (bypassing capture) so the gate
reads as a checklist even inside a larger run. The end-to-end tests drive
the real pipeline at the desk profile into temporary directories.
"""

import math
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from meshact import attention, cli, engine, spae, verify
from meshact import classifier as clf
from meshact.attention import ScoreMeter, TransformerConfig
from meshact.checkpoint import load_checkpoint, params_from_arrays, \
    save_checkpoint
from meshact.config import make_config, transformer_config
from meshact.engine import Tensor
from meshact.hierarchy import build_hierarchy
from meshact.sequence import (MeshSequence, apply_norm, compute_norm_stats,
                              denormalize_frames, load_sequence,
                              save_sequence)
from meshact.spiral import PAD_SENTINEL, build_spiral_table
from meshact.synth import synth_generate
from meshact.topology import icosphere, tetrahedron

DESK_CFG = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"


@pytest.fixture
def announce(capsys):
    def _announce(name, ok, detail):
        with capsys.disabled():
            print(f"[ACCEPTANCE] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return _announce


def _run_pipeline(root: Path):
    cfg = make_config(DESK_CFG, {"data_dir": str(root / "data"),
                                 "out_dir": str(root / "out"),
                                 "cache_dir": str(root / "cache")})
    t0 = time.monotonic()
    cli.run_gen_data(cfg)
    cli.run_train_spae(cfg)
    cli.run_encode(cfg)
    _, metrics = cli.run_train_classifier(cfg)
    acc, cm = cli.run_eval(cfg)
    elapsed = time.monotonic() - t0
    return SimpleNamespace(cfg=cfg, root=root, metrics=metrics, acc=acc,
                           cm=cm, elapsed=elapsed)


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("desk_a"))


# ----------------------------------------------------- 1. gradient suite

def test_criterion_1_gradient_suite(announce):
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for name, params, make_loss in verify.op_gradient_cases(rng):
            worst = max(worst, verify.fd_max_error(make_loss, params, rng))

        topo, coords = icosphere(1)
        h = build_hierarchy(topo, coords, (2, 2, 2, 2), (6, 5, 5, 4, 4))
        sp = spae.init_spae_params(h, 8, rng, dtype=np.float64)
        frames = rng.standard_normal((2, 42, 3)) * 0.5
        worst = max(worst, verify.fd_max_error(
            lambda: spae.reconstruction_loss(sp, h, frames), sp, rng,
            entries_per_tensor=2))

        cfg = TransformerConfig(in_dim=5, n_classes=3, d_model=8, heads=(2,),
                                pe_mode="sinusoidal")
        tp = attention.init_transformer_params(cfg, rng, dtype=np.float64)
        for p in tp.values():
            if p.data.ndim == 1 or not p.data.any():
                p.data += rng.standard_normal(p.data.shape) * 0.05
        tokens = rng.standard_normal((3, 5))
        labels = np.array([1])
        worst = max(worst, verify.fd_max_error(
            lambda: engine.cross_entropy(
                attention.forward_sequence(tp, cfg, Tensor(tokens)), labels),
            tp, rng, entries_per_tensor=2))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 120.0
    announce("gradient suite (10 seeds)", ok,
             f"max_rel_err={worst:.3e} (<1e-5), {elapsed:.1f}s (<120s)")
    assert worst < 1e-5
    assert elapsed < 120.0


# -------------------------------------------------- 2. oracle equivalence

def test_criterion_2_oracle_equivalence(announce):
    rng = np.random.default_rng(42)
    worst = 0.0

    a, b = rng.standard_normal((7, 16)), rng.standard_normal((16, 9))
    ref = np.zeros((7, 9))
    for i in range(7):
        for j in range(9):
            for k in range(16):
                ref[i, j] += a[i, k] * b[k, j]
    worst = max(worst, np.abs(engine.matmul(Tensor(a), Tensor(b)).data
                              - ref).max())

    x = rng.standard_normal((6, 8)) * 3
    e = np.exp(x - x.max(axis=1, keepdims=True))
    worst = max(worst, np.abs(engine.softmax_rows(Tensor(x)).data
                              - e / e.sum(axis=1, keepdims=True)).max())

    pred, target = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    worst = max(worst, abs(engine.l1_loss(Tensor(pred), Tensor(target)).item()
                           - np.abs(pred - target).mean()))
    logits = rng.standard_normal((6, 5))
    labels = rng.integers(0, 5, size=6)
    le = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = le / le.sum(axis=1, keepdims=True)
    ce = -np.log(probs[np.arange(6), labels]).mean()
    worst = max(worst, abs(engine.cross_entropy(Tensor(logits), labels).item()
                           - ce))

    topo, coords = icosphere(0)
    table = build_spiral_table(topo, 6)
    feats = rng.standard_normal((12, 3))
    w = rng.standard_normal((18, 4))
    bias = rng.standard_normal(4)
    ref = np.zeros((12, 4))
    for i in range(12):
        window = np.zeros((6, 3))
        for j, idx in enumerate(table.indices[i]):
            if idx != PAD_SENTINEL:
                window[j] = feats[idx]
        ref[i] = window.reshape(-1) @ w + bias
    got = spae.spiral_conv(Tensor(feats),
                           engine.RowPlan.gather(table.indices, 12),
                           Tensor(w), Tensor(bias)).data
    worst = max(worst, np.abs(got - ref).max())

    h = build_hierarchy(topo, coords, (2.0,), (6, 5))
    for op in (h.downs[0], h.ups[0]):
        f = rng.standard_normal((op.cols, 5))
        got = engine.sparse_mm(spae.batched_sampling(op, 1), Tensor(f)).data
        worst = max(worst, np.abs(got - op.dense() @ f).max())

    q, k, v = (rng.standard_normal((6, 4)) for _ in range(3))
    ref = np.zeros((6, 4))
    for i in range(6):
        s = np.array([q[i] @ k[j] / math.sqrt(4.0) for j in range(6)])
        se = np.exp(s - s.max())
        aw = se / se.sum()
        for j in range(6):
            ref[i] += aw[j] * v[j]
    got = attention.self_attention(Tensor(q), Tensor(k), Tensor(v)).data
    worst = max(worst, np.abs(got - ref).max())

    ok = worst < 1e-12
    announce("oracle equivalence", ok, f"max_abs_err={worst:.3e} (<1e-12)")
    assert ok


# ----------------------------------------------- 3. structural invariants

def test_criterion_3_structural_invariants(announce, tmp_path):
    rng = np.random.default_rng(7)
    failures = []

    for topo, _ in (tetrahedron(), icosphere(0), icosphere(1)):
        length = 4 if topo.vertex_count == 4 else 12
        table = build_spiral_table(topo, length)
        for v in range(topo.vertex_count):
            if table.indices[v, 0] != v:
                failures.append(f"spiral row {v} does not start at center")
            if table.indices[v].tolist() != \
                    verify.brute_force_spiral(topo, v, length):
                failures.append(f"spiral mismatch at vertex {v}")

    topo, coords = icosphere(1)
    h = build_hierarchy(topo, coords, (2, 2), (9, 8, 7))
    for down in h.downs:
        dense = down.dense()
        if not (((dense == 1).sum(axis=1) == 1).all()
                and (dense.sum(axis=1) == 1).all()):
            failures.append("down operator row is not one-hot")
    for up in h.ups:
        if np.abs(up.dense().sum(axis=1) - 1.0).max() >= 1e-6:
            failures.append("up operator row sums off by >= 1e-6")

    s = engine.softmax_rows(Tensor(rng.standard_normal((500, 9)) * 4)).data
    if np.abs(s.sum(axis=1) - 1.0).max() >= 1e-9:
        failures.append("softmax row sums off by >= 1e-9")

    frames = (rng.standard_normal((5, 42, 3)) * 2 + 0.5).astype(np.float32)
    stats = compute_norm_stats(frames)
    back = denormalize_frames(apply_norm(frames, stats), stats)
    if np.abs(back - frames).max() >= 1e-6:
        failures.append("normalize round trip off by >= 1e-6")

    seq = MeshSequence(frames=frames, label=1, topology_checksum=topo.checksum)
    p1, p2 = tmp_path / "a.seq", tmp_path / "b.seq"
    save_sequence(p1, seq)
    save_sequence(p2, load_sequence(p1))
    if p1.read_bytes() != p2.read_bytes():
        failures.append("sequence file round trip not bit-exact")
    emb = [(rng.standard_normal((4, 6)).astype(np.float32), 2)]
    e1, e2 = tmp_path / "a.emb", tmp_path / "b.emb"
    spae.save_embeddings(e1, emb)
    spae.save_embeddings(e2, spae.load_embeddings(e1))
    if e1.read_bytes() != e2.read_bytes():
        failures.append("embedding file round trip not bit-exact")

    ok = not failures
    announce("structural invariants", ok,
             "all hold" if ok else "; ".join(failures))
    assert ok, failures


# ----------------------------------------------------- 4. overfit oracle

def test_criterion_4_spae_overfit(announce):
    t0 = time.monotonic()
    template = icosphere(2)
    seq = synth_generate(template, 0, 0, 8)
    stats = compute_norm_stats(seq.frames)
    frames = apply_norm(seq.frames, stats).astype(np.float32)

    topo, coords = template
    h = build_hierarchy(topo, coords, (2, 2, 2, 2), (12, 11, 10, 9, 8))
    params, _, curve = spae.train_spae(
        frames, h, latent_dim=32, epochs=500, batch_size=8,
        learning_rate=1e-3, decay_rate=0.99, weight_decay=5e-5, seed=3,
        checkpoint_dir=None)
    elapsed = time.monotonic() - t0

    final, ratio = curve[-1], curve[-1] / curve[0]
    ok = final < 0.02 and ratio < 0.1 and elapsed < 300.0
    announce("autoencoder overfit (8 frames, C=32, 500 epochs)", ok,
             f"final_l1={final:.5f} (<0.02), loss500/loss1={ratio:.4f} "
             f"(<0.1), {elapsed:.1f}s (<300s)")
    assert final < 0.02
    assert ratio < 0.1
    assert elapsed < 300.0


# ----------------------------------------------- 5. end-to-end pipeline

def test_criterion_5_end_to_end(announce, desk_run):
    r = desk_run
    test_labels = [label for _, label in
                   spae.load_embeddings(os.path.join(r.cfg.out_dir,
                                                     cli.TEST_EMB))]
    per_class = np.bincount(test_labels, minlength=3)
    rows_match = (r.cm.sum(axis=1) == per_class).all()
    ok = r.acc >= 0.90 and rows_match and r.elapsed < 900.0
    announce("end-to-end classification (120 seqs, L=24)", ok,
             f"accuracy={r.acc:.4f} (>=0.90), confusion rows "
             f"{'match' if rows_match else 'MISMATCH'} per-class counts, "
             f"{r.elapsed:.0f}s (<900s)")
    assert r.acc >= 0.90
    assert rows_match
    assert r.elapsed < 900.0


# --------------------------------------- 6. order sensitivity properties

def test_criterion_6_order_properties(announce, desk_run):
    rng = np.random.default_rng(0)
    cfg = TransformerConfig(in_dim=16, n_classes=3, d_model=32, heads=(2, 2),
                            pe_mode="none")
    params = attention.init_transformer_params(cfg, rng)
    tokens = rng.standard_normal((24, 16)).astype(np.float32)
    base, _ = attention.classify(params, cfg, tokens)
    perm_err = 0.0
    for _ in range(5):
        perm = rng.permutation(24)
        logits, _ = attention.classify(params, cfg, tokens[perm])
        perm_err = max(perm_err, float(np.abs(logits - base).max()))

    r = desk_run
    test_set = spae.load_embeddings(os.path.join(r.cfg.out_dir, cli.TEST_EMB))
    arrays, _ = load_checkpoint(os.path.join(r.cfg.out_dir, cli.CLF_CKPT))
    trained = params_from_arrays(arrays)
    tcfg = transformer_config(r.cfg, test_set[0][0].shape[1])
    assert tcfg.pe_mode == "sinusoidal"
    _, forward = clf.make_head(r.cfg.head, tcfg, np.random.default_rng(0),
                               length=r.cfg.frames)
    fwd_acc, _ = clf.evaluate(forward, trained, test_set)
    rev_set = [(emb[::-1].copy(), label) for emb, label in test_set]
    rev_acc, _ = clf.evaluate(forward, trained, rev_set)

    ok = perm_err < 1e-5 and rev_acc < fwd_acc
    announce("order sensitivity", ok,
             f"permutation drift={perm_err:.2e} (<1e-5, pe=none); reversed "
             f"acc {rev_acc:.4f} < forward acc {fwd_acc:.4f} (sinusoidal)")
    assert perm_err < 1e-5
    assert rev_acc < fwd_acc


# -------------------------------------------------- 7. scaling properties

def test_criterion_7_scaling(announce, tmp_path):
    lengths = (16, 24, 48, 96)
    cfg = TransformerConfig(in_dim=64, n_classes=3, d_model=128,
                            heads=(2, 2, 2), pe_mode="sinusoidal")

    blobs = []
    for length in lengths:
        params = attention.init_transformer_params(
            cfg, np.random.default_rng(1))
        path = tmp_path / f"clf_L{length}.ckpt"
        save_checkpoint(path, params)
        blobs.append(path.read_bytes())
    sizes_equal = all(b == blobs[0] for b in blobs)

    def score_bytes(length):
        tokens = np.zeros((length, 64), dtype=np.float32)
        with ScoreMeter() as meter:
            attention.forward_sequence(
                attention.init_transformer_params(
                    cfg, np.random.default_rng(1)), cfg, tokens)
        return meter.total_bytes

    b24, b96 = score_bytes(24), score_bytes(96)
    ratio = b96 / (16.0 * b24)
    scores_ok = abs(ratio - 1.0) <= 0.20

    rows = clf.head_parameter_counts(cfg, lengths)
    csv_path = tmp_path / "head_params.csv"
    clf.write_parameter_csv(csv_path, rows)
    mlp = {length: count for kind, length, count in rows if kind == "mlp"}
    others_constant = all(
        len({count for kind2, _, count in rows if kind2 == kind}) == 1
        for kind in ("transformer", "lstm", "cnn"))
    slopes = {(b - a): mlp[b] - mlp[a]
              for a, b in zip(lengths[:-1], lengths[1:])}
    per_frame = {gap: diff / gap for gap, diff in slopes.items()}
    mlp_linear = len(set(per_frame.values())) == 1
    csv_ok = csv_path.read_text().startswith("head,frames,param_count\n")

    ok = sizes_equal and scores_ok and others_constant and mlp_linear and csv_ok
    announce("frame-count scaling", ok,
             f"checkpoints byte-identical across L={lengths}: {sizes_equal}; "
             f"score bytes L=96 / (16 x L=24) = {ratio:.3f} (|r-1|<=0.2); "
             f"mlp params linear in L: {mlp_linear}")
    assert sizes_equal
    assert scores_ok
    assert others_constant and mlp_linear and csv_ok


# -------------------------------------------------------- 8. determinism

def test_criterion_8_determinism(announce, desk_run, tmp_path_factory):
    second = _run_pipeline(tmp_path_factory.mktemp("desk_b"))
    a_out, b_out = Path(desk_run.cfg.out_dir), Path(second.cfg.out_dir)
    a_data, b_data = Path(desk_run.cfg.data_dir), Path(second.cfg.data_dir)

    diffs = []
    for name in ("spae_loss.csv", "metrics.csv", "confusion.csv",
                 "spae.ckpt", "classifier.ckpt",
                 cli.TRAIN_EMB, cli.TEST_EMB):
        if (a_out / name).read_bytes() != (b_out / name).read_bytes():
            diffs.append(name)
    data_names = sorted(p.name for p in a_data.iterdir())
    if data_names != sorted(p.name for p in b_data.iterdir()):
        diffs.append("dataset file listing")
    else:
        for name in data_names:
            if (a_data / name).read_bytes() != (b_data / name).read_bytes():
                diffs.append(f"data/{name}")

    ok = not diffs
    announce("determinism (two full runs)", ok,
             "all artifacts bit-identical" if ok
             else f"differing artifacts: {', '.join(diffs[:5])}")
    assert ok, diffs
