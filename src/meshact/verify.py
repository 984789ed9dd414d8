"""Self-contained verification: gradient checks against finite differences,
an independent spiral-ring enumerator, structural invariants, and file
round trips. The CLI `verify` command runs everything and reports one
PASS/FAIL line per check with the largest observed error.

The gradient checks accept an inject_fault hook that deliberately corrupts
one analytic gradient entry; it exists to prove the harness can fail.
"""

from __future__ import annotations

import filecmp
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import attention, engine, spae
from .attention import TransformerConfig
from .decimate import qem_decimate
from .engine import Tensor
from .hierarchy import build_hierarchy
from .optim import AdamState, adam_step
from .sequence import (MeshSequence, apply_norm, compute_norm_stats,
                       denormalize_frames, load_sequence, save_sequence)
from .spiral import PAD_SENTINEL, build_spiral_table
from .topology import TemplateTopology, icosphere, tetrahedron


# ------------------------------------------------------- finite differences

def rel_error(analytic: float, numeric: float) -> float:
    """Relative error, falling back to absolute near zero."""
    if abs(analytic) + abs(numeric) < 1e-8:
        return abs(analytic - numeric)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric))


def fd_max_error(make_loss, params: dict, rng: np.random.Generator,
                 entries_per_tensor: int = 4, eps: float = 1e-5,
                 corrupt: bool = False) -> float:
    """Compare backward() against central differences on sampled entries.

    `make_loss` rebuilds the graph from the live parameter data, so
    perturbing an entry in place and calling it again gives the numeric
    side. Parameters must be float64 for the advertised tolerances.
    """
    loss = make_loss()
    loss.backward()
    analytic = {}
    for name, p in params.items():
        if p.requires_grad:
            if p.grad is None:
                raise AssertionError(f"parameter {name!r} got no gradient")
            analytic[name] = p.grad.copy()
    picks = {}
    for name in sorted(analytic):
        size = params[name].data.size
        k = min(entries_per_tensor, size)
        picks[name] = rng.choice(size, size=k, replace=False)
    if corrupt and analytic:
        first = sorted(analytic)[0]
        analytic[first].reshape(-1)[picks[first][0]] += 0.01
    worst = 0.0
    for name in sorted(analytic):
        p = params[name]
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in picks[name]:
            orig = flat[i]
            flat[i] = orig + eps
            up = make_loss().item()
            flat[i] = orig - eps
            down = make_loss().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            worst = max(worst, rel_error(float(a_flat[i]), numeric))
    return worst


def _away_from_zero(rng, shape, low=0.1, high=2.0):
    """Samples with |x| in [low, high]: keeps FD clear of activation kinks."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def op_gradient_cases(rng: np.random.Generator):
    """(name, params, make_loss) for every differentiable engine op.

    Losses wrap each op in tanh + mean so every backward rule faces a
    position-dependent upstream gradient.
    """
    def P(shape, away=False):
        data = (_away_from_zero(rng, shape) if away
                else rng.standard_normal(shape))
        return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)

    def smooth(t):
        return engine.mean(engine.tanh(t))

    cases = []
    a, b = P((4, 3)), P((3, 5))
    cases.append(("matmul", {"a": a, "b": b},
                  lambda: smooth(engine.matmul(a, b))))
    ab, bb = P((2, 4, 3)), P((2, 3, 5))
    cases.append(("matmul_batched", {"a": ab, "b": bb},
                  lambda: smooth(engine.matmul(ab, bb))))
    c, d = P((4, 5)), P((4, 5))
    cases.append(("add", {"a": c, "b": d}, lambda: smooth(engine.add(c, d))))
    e, f = P((4, 5)), P((4, 5))
    cases.append(("sub", {"a": e, "b": f}, lambda: smooth(engine.sub(e, f))))
    g, h = P((4, 5)), P((4, 5))
    cases.append(("mul", {"a": g, "b": h}, lambda: smooth(engine.mul(g, h))))
    i = P((4, 5))
    cases.append(("scale", {"x": i}, lambda: smooth(engine.scale(i, -1.7))))
    j, jb = P((6, 4)), P((4,))
    cases.append(("add_bias", {"x": j, "b": jb},
                  lambda: smooth(engine.add_bias(j, jb))))
    k = P((4, 6))
    cases.append(("transpose", {"x": k}, lambda: smooth(engine.transpose(k))))
    kb = P((2, 4, 6))
    cases.append(("transpose_batched", {"x": kb},
                  lambda: smooth(engine.transpose(kb))))
    m = P((4, 6))
    cases.append(("reshape", {"x": m},
                  lambda: smooth(engine.reshape(m, (8, 3)))))
    n1, n2 = P((3, 4)), P((2, 4))
    cases.append(("concat_rows", {"a": n1, "b": n2},
                  lambda: smooth(engine.concat_rows([n1, n2]))))
    o1, o2 = P((3, 4)), P((3, 2))
    cases.append(("concat_cols", {"a": o1, "b": o2},
                  lambda: smooth(engine.concat_cols([o1, o2]))))
    q = P((5, 3))
    gidx = np.array([[0, 2, -1], [4, -1, -1], [1, 1, 3]])
    cases.append(("gather_rows", {"x": q},
                  lambda: smooth(engine.reshape(engine.gather_rows(q, gidx),
                                                (3, 9)))))
    r = P((5, 4))
    cases.append(("slice_rows", {"x": r},
                  lambda: smooth(engine.slice_rows(r, 1, 4))))
    s = P((4, 6))
    cases.append(("slice_cols", {"x": s},
                  lambda: smooth(engine.slice_cols(s, 2, 5))))
    t = P((5, 3))
    plan = engine.RowPlan(4, 5, [0, 0, 1, 2, 3, 3], [0, 4, 1, 2, 3, 0],
                          rng.uniform(0.2, 1.0, size=6))
    cases.append(("sparse_mm", {"x": t},
                  lambda: smooth(engine.sparse_mm(plan, t))))
    tp = P((6, 3))
    pool = engine.RowPlan(2, 6, [0, 0, 0, 1, 1, 1], np.arange(6),
                          np.full(6, 1.0 / 3.0))
    cases.append(("sparse_mm_pool", {"x": tp},
                  lambda: smooth(engine.sparse_mm(pool, tp))))
    u = P((4, 5), away=True)
    cases.append(("elu", {"x": u}, lambda: smooth(engine.elu(u))))
    v = P((4, 5))
    cases.append(("sigmoid", {"x": v}, lambda: smooth(engine.sigmoid(v))))
    w = P((4, 5))
    cases.append(("tanh", {"x": w}, lambda: engine.mean(engine.tanh(w))))
    x = P((4, 5))
    cases.append(("softmax_rows", {"x": x},
                  lambda: smooth(engine.softmax_rows(x))))
    xb = P((2, 4, 5))
    cases.append(("softmax_rows_batched", {"x": xb},
                  lambda: smooth(engine.softmax_rows(xb))))
    y, yg, yb = P((4, 6)), P((6,)), P((6,))
    cases.append(("layernorm_rows", {"x": y, "gamma": yg, "beta": yb},
                  lambda: smooth(engine.layernorm_rows(y, yg, yb))))
    z = P((4, 5))
    cases.append(("mean", {"x": z},
                  lambda: engine.mean(engine.tanh(engine.scale(z, 0.7)))))
    zz = P((4, 5))
    cases.append(("mean_rows", {"x": zz},
                  lambda: smooth(engine.mean_rows(zz))))
    l1p = P((4, 5))
    l1t = Tensor(l1p.data - _away_from_zero(rng, (4, 5), low=0.4, high=0.6))
    cases.append(("l1_loss", {"pred": l1p},
                  lambda: engine.l1_loss(l1p, l1t)))
    ce = P((5, 4))
    labels = rng.integers(0, 4, size=5)
    cases.append(("cross_entropy", {"logits": ce},
                  lambda: engine.cross_entropy(ce, labels)))
    return cases


# ------------------------------------------- independent spiral enumerator

def brute_force_spiral(topology: TemplateTopology, v: int,
                       length: int) -> list:
    """Ring enumeration rebuilt from the faces alone.

    Derives each vertex's oriented neighbor cycle from fresh face-built
    successor maps, computes BFS distance classes, and orders ring k+1 by
    the lexicographic key (position of first adjacent ring-k parent,
    position within that parent's cycle) instead of the incremental walk
    the production code uses. Same rule, different machinery.
    """
    n = topology.vertex_count
    succ = [dict() for _ in range(n)]
    pred = [dict() for _ in range(n)]
    for a, b, c in topology.faces:
        for p, x, y in ((a, b, c), (b, c, a), (c, a, b)):
            succ[int(p)][int(x)] = int(y)
            pred[int(p)][int(y)] = int(x)

    def cycle(u):
        starts = [x for x in succ[u] if x not in pred[u]]
        cur = starts[0] if starts else min(succ[u])
        out = [cur]
        while True:
            cur = succ[u].get(cur)
            if cur is None or cur == out[0]:
                return out
            out.append(cur)

    from collections import deque
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in cycle(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)

    spiral = [v]
    ring = cycle(v)
    k = 1
    while ring and len(spiral) < length:
        spiral.extend(ring)
        keys = {}
        for pos, parent in enumerate(ring):
            for cpos, w in enumerate(cycle(parent)):
                if dist.get(w) == k + 1:
                    key = (pos, cpos)
                    if w not in keys or key < keys[w]:
                        keys[w] = key
        ring = sorted(keys, key=lambda w: keys[w])
        k += 1
    spiral = spiral[:length]
    return spiral + [PAD_SENTINEL] * (length - len(spiral))


# ------------------------------------------------------------- check suite

@dataclass
class CheckResult:
    name: str
    passed: bool
    max_error: float
    detail: str = ""


def _check_gradient_ops(fault: bool) -> CheckResult:
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for name, params, make_loss in op_gradient_cases(rng):
            err = fd_max_error(make_loss, params, rng,
                               corrupt=fault and seed == 0 and name == "matmul")
            worst = max(worst, err)
    return CheckResult("gradient_ops", worst < 1e-5, worst,
                       "all engine ops vs central differences")


def _toy_hierarchy():
    topo, coords = icosphere(1)
    return build_hierarchy(topo, coords, (2, 2, 2, 2), (6, 5, 5, 4, 4))


def _check_gradient_spae(fault: bool) -> CheckResult:
    h = _toy_hierarchy()
    rng = np.random.default_rng(7)
    params = spae.init_spae_params(h, 8, rng, dtype=np.float64)
    frames = rng.standard_normal((2, h.levels[0].vertex_count, 3)) * 0.5

    def make_loss():
        return spae.reconstruction_loss(params, h, frames)

    err = fd_max_error(make_loss, params, rng, entries_per_tensor=2,
                       corrupt=fault)
    return CheckResult("gradient_spae", err < 1e-5, err,
                       "autoencoder end to end (icosphere-1, C=8)")


def _check_gradient_attention(fault: bool) -> CheckResult:
    cfg = TransformerConfig(in_dim=5, n_classes=3, d_model=8, heads=(2,),
                            pe_mode="sinusoidal")
    rng = np.random.default_rng(11)
    params = attention.init_transformer_params(cfg, rng, dtype=np.float64)
    for p in params.values():  # break the symmetry of zero-init tables
        if p.data.ndim == 1 or not p.data.any():
            p.data += rng.standard_normal(p.data.shape) * 0.05
    tokens = rng.standard_normal((2, 3, 5))
    labels = np.array([1, 0])

    def make_loss():
        return engine.cross_entropy(
            attention.forward_sequence(params, cfg, Tensor(tokens)), labels)

    err = fd_max_error(make_loss, params, rng, entries_per_tensor=2,
                       corrupt=fault)
    return CheckResult("gradient_attention", err < 1e-5, err,
                       "attention stack + cross-entropy (B=2, L=3, "
                       "d_model=8)")


def _check_softmax() -> CheckResult:
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1000, 7)) * 5
    s = engine.softmax_rows(Tensor(x)).data
    err = float(np.abs(s.sum(axis=1) - 1.0).max())
    shifted = engine.softmax_rows(Tensor(x + rng.standard_normal((1000, 1)))).data
    err = max(err, float(np.abs(shifted - s).max()))
    big = engine.softmax_rows(Tensor(np.full((1, 3), 1000.0))).data
    err = max(err, float(np.abs(big - 1.0 / 3.0).max()))
    return CheckResult("softmax_invariants", err < 1e-9, err,
                       "row sums, shift invariance, overflow guard")


def _check_spiral_tables() -> CheckResult:
    worst = 0
    for topo, _ in (tetrahedron(), icosphere(0), icosphere(1)):
        length = 4 if topo.vertex_count == 4 else 12
        table = build_spiral_table(topo, length)
        for v in range(topo.vertex_count):
            expect = brute_force_spiral(topo, v, length)
            got = table.indices[v].tolist()
            worst = max(worst, sum(1 for a, b in zip(expect, got) if a != b))
    return CheckResult("spiral_brute_force", worst == 0, float(worst),
                       "tables vs independent ring enumerator (<=50 verts)")


def _check_sampling() -> CheckResult:
    h = _toy_hierarchy()
    worst = 0.0
    detail = "down one-hot, up row sums, up(down(x)) geometry"
    for down in h.downs:
        dense = down.dense()
        ok = ((dense == 1).sum(axis=1) == 1).all() and \
             (dense.sum(axis=1) == 1).all()
        if not ok:
            return CheckResult("sampling_operators", False, 1.0, detail)
    for up in h.ups:
        sums = up.dense().sum(axis=1)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    # Geometric sanity needs a mesh fine enough that the coarse surface hugs
    # the sphere; at very coarse scales the chord gap alone exceeds the bound.
    topo, fine = icosphere(3)
    _, coarse, _, up = qem_decimate(topo, fine, 4)
    recon = up.dense() @ coarse
    edges = np.concatenate([topo.faces[:, [0, 1]],
                            topo.faces[:, [1, 2]],
                            topo.faces[:, [2, 0]]])
    mean_edge = float(np.linalg.norm(
        fine[edges[:, 0]] - fine[edges[:, 1]], axis=1).mean())
    geo = float(np.linalg.norm(recon - fine, axis=1).mean()) / mean_edge
    passed = worst < 1e-6 and geo < 0.10
    return CheckResult("sampling_operators", passed, max(worst, geo), detail)


def _check_norm_roundtrip() -> CheckResult:
    rng = np.random.default_rng(5)
    frames = (rng.standard_normal((6, 30, 3)) * 2 + 1).astype(np.float32)
    stats = compute_norm_stats(frames)
    back = denormalize_frames(apply_norm(frames, stats), stats)
    err = float(np.abs(back - frames).max())
    return CheckResult("normalize_roundtrip", err < 1e-6, err,
                       "normalize/denormalize round trip")


def _check_file_roundtrip() -> CheckResult:
    rng = np.random.default_rng(9)
    topo, _ = icosphere(0)
    frames = rng.standard_normal((5, topo.vertex_count, 3)).astype(np.float32)
    seq = MeshSequence(frames=frames, label=2,
                       topology_checksum=topo.checksum)
    emb = [(rng.standard_normal((4, 6)).astype(np.float32), 1),
           (rng.standard_normal((3, 6)).astype(np.float32), 0)]
    with tempfile.TemporaryDirectory() as tmp:
        same = []
        for ext, save, load, value in (
                ("seq", save_sequence, load_sequence, seq),
                ("emb", spae.save_embeddings, spae.load_embeddings, emb)):
            a, b = (os.path.join(tmp, f"{name}.{ext}") for name in "ab")
            save(a, value)
            save(b, load(a))
            same.append(filecmp.cmp(a, b, shallow=False))
    passed = all(same)
    return CheckResult("file_roundtrip", passed, 0.0 if passed else 1.0,
                       "sequence and embedding files bit-exact")


def _check_adam() -> CheckResult:
    p = {"w": Tensor(np.zeros(3), requires_grad=True)}
    p["w"].grad = np.ones(3)
    st = AdamState()
    adam_step(p, st, lr=1e-3)
    err = float(np.abs(p["w"].data - (-9.99999995e-4)).max())

    x = Tensor(np.array([1.0]), requires_grad=True)
    st2 = AdamState()
    for _ in range(100):
        loss = engine.mean(engine.mul(x, x))
        loss.backward()
        adam_step({"x": x}, st2, lr=0.1)
    conv = abs(float(x.data[0]))
    passed = err < 1e-12 and conv < 0.1
    return CheckResult("adam_reference", passed, max(err, conv),
                       "first-step value and quadratic convergence")


FAULT_TARGETS = ("gradient_ops", "gradient_spae", "gradient_attention")


def run_checks(inject_fault: str = None) -> list:
    """Run every named check; `inject_fault` corrupts one gradient check."""
    if inject_fault is not None and inject_fault not in FAULT_TARGETS:
        raise ValueError(f"unknown fault target {inject_fault!r}; "
                         f"choose from {', '.join(FAULT_TARGETS)}")
    return [
        _check_gradient_ops(inject_fault == "gradient_ops"),
        _check_gradient_spae(inject_fault == "gradient_spae"),
        _check_gradient_attention(inject_fault == "gradient_attention"),
        _check_softmax(),
        _check_spiral_tables(),
        _check_sampling(),
        _check_norm_roundtrip(),
        _check_file_roundtrip(),
        _check_adam(),
    ]
