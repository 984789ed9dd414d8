"""Spiral autoencoder: per-frame mesh -> C-dim code -> reconstructed mesh.

Encoder: 4 x (spiral conv -> ELU -> downsample) with widths [16,32,64,128],
then one fully connected layer from the flattened coarsest level to the
code. Decoder: fully connected back to the coarsest level, then 5 spiral
convs of widths [128,64,32,32,16] with an upsample before each of the
first 4 (mirroring the encoder's 4 downsamples), and a final spiral
projection to 3 coordinate channels with no activation.

Frames are processed in mini-batches by stacking them into one
(batch*V, F) feature matrix and offsetting the spiral/sampling index
tables per frame, which keeps all compute inside a few large matmuls.
"""

from __future__ import annotations

import ctypes
import functools
import os
import struct
from pathlib import Path

import numpy as np

from . import engine
from .binfmt import Reader, replacing
from .checkpoint import save_checkpoint
from .engine import Tensor
from .errors import NonFiniteError
from .hierarchy import MeshHierarchy
from .optim import AdamState, adam_step, glorot_uniform, lr_decay, zeros_param
from .sampling import SamplingOperator
from .spiral import PAD_SENTINEL, SpiralIndexTable

ENCODER_WIDTHS = (16, 32, 64, 128)
DECODER_WIDTHS = (128, 64, 32, 32, 16)

# At most this many threads encode at once. Each pool thread keeps its own
# malloc arena: with 8 shares forced on 2 CPUs, peak RSS rose 12-14 %.
ENCODE_THREADS_MAX = 4

EMB_MAGIC = b"SPTE"
EMB_VERSION = 1


def spae_param_shapes(hierarchy: MeshHierarchy, latent_dim: int) -> dict:
    """Name -> shape of every parameter, in creation order; names are stable
    and checkpoint-friendly."""
    if hierarchy.level_count != len(ENCODER_WIDTHS) + 1:
        raise ValueError(
            f"autoencoder needs {len(ENCODER_WIDTHS)} downsampling steps, "
            f"hierarchy has {hierarchy.level_count - 1}")
    shapes = {}
    widths_in = (3,) + ENCODER_WIDTHS[:-1]
    for i, (f_in, f_out) in enumerate(zip(widths_in, ENCODER_WIDTHS)):
        l = hierarchy.spirals[i].length
        shapes[f"spae.enc.{i}.weight"] = (l * f_in, f_out)
        shapes[f"spae.enc.{i}.bias"] = (f_out,)
    flat = hierarchy.levels[-1].vertex_count * ENCODER_WIDTHS[-1]
    shapes["spae.fc1.weight"] = (flat, latent_dim)
    shapes["spae.fc1.bias"] = (latent_dim,)
    shapes["spae.fc2.weight"] = (latent_dim, flat)
    shapes["spae.fc2.bias"] = (flat,)

    # Decoder conv i runs at level (levels-2-i) after upsampling for i < 4;
    # conv 4 and the output projection stay at level 0.
    dec_in = (ENCODER_WIDTHS[-1],) + DECODER_WIDTHS[:-1]
    for i, (f_in, f_out) in enumerate(zip(dec_in, DECODER_WIDTHS)):
        l = hierarchy.spirals[_decoder_level(hierarchy, i)].length
        shapes[f"spae.dec.{i}.weight"] = (l * f_in, f_out)
        shapes[f"spae.dec.{i}.bias"] = (f_out,)
    l0 = hierarchy.spirals[0].length
    shapes["spae.out.weight"] = (l0 * DECODER_WIDTHS[-1], 3)
    shapes["spae.out.bias"] = (3,)
    return shapes


def init_spae_params(hierarchy: MeshHierarchy, latent_dim: int,
                     rng: np.random.Generator, dtype=np.float32) -> dict:
    """Fresh parameters: Glorot weights in creation order, zero biases."""
    shapes = spae_param_shapes(hierarchy, latent_dim)
    return {name: glorot_uniform(rng, *shape, dtype=dtype)
            if name.endswith(".weight") else zeros_param(shape, dtype=dtype)
            for name, shape in shapes.items()}


def _decoder_level(hierarchy: MeshHierarchy, conv_index: int) -> int:
    top = hierarchy.level_count - 1
    return max(top - 1 - conv_index, 0)


def batched_spiral_indices(table: SpiralIndexTable, batch: int) -> np.ndarray:
    """Tile a (V, l) spiral table for `batch` stacked frames.

    Non-sentinel entries of copy b are offset by b*V; sentinels stay put.
    """
    idx = table.indices
    v = len(idx)
    offsets = (np.arange(batch, dtype=np.int64) * v)[:, None, None]
    tiled = idx[None].astype(np.int64) + np.where(idx[None] == PAD_SENTINEL,
                                                  0, offsets)
    return tiled.reshape(batch * v, table.length)


def batched_sampling(op: SamplingOperator, batch: int) -> engine.RowPlan:
    """Block-diagonal plan applying a per-frame operator to stacked frames."""
    b = np.arange(batch, dtype=np.int64)[:, None]
    return engine.RowPlan(op.rows * batch, op.cols * batch,
                          (op.row_idx + b * op.rows).ravel(),
                          (op.col_idx + b * op.cols).ravel(),
                          np.tile(op.weights, batch))


def _level_plans(hierarchy: MeshHierarchy, batch: int):
    """Spiral (but for the coarsest level, where no conv runs), down and up
    plans for `batch` frames, kept on the hierarchy.

    They live as long as the hierarchy, which `get_hierarchy` holds for
    the whole process, so each batch size is planned once per process.
    Nothing is evicted: the sizes seen are the training batch, the encode
    chunk and their remainders. The hierarchy's lock makes get-or-build one
    step, so threads that encode at once still plan each size once.
    """
    with hierarchy.plans_lock:
        plans = hierarchy.plans.get(batch)
        if plans is None:
            plans = hierarchy.plans[batch] = (
                [engine.RowPlan.gather(batched_spiral_indices(t, batch),
                                       batch * t.vertex_count)
                 for t in hierarchy.spirals[:-1]],
                [batched_sampling(op, batch) for op in hierarchy.downs],
                [batched_sampling(op, batch) for op in hierarchy.ups])
    return plans


def spiral_conv(features: Tensor, window: engine.RowPlan, weight: Tensor,
                bias: Tensor) -> Tensor:
    """Gather spiral neighborhoods, concatenate, apply the shared filter."""
    v, f_in = features.shape
    l = window.rows // v
    if weight.shape[0] != l * f_in:
        raise ValueError(
            f"spiral filter expects {weight.shape[0]} inputs per vertex, "
            f"got spiral length {l} x {f_in} features")
    gathered = engine.sparse_mm(window, features)
    flat = engine.reshape(gathered, (v, l * f_in))
    return engine.add_bias(engine.matmul(flat, weight), bias)


def encode_batch(params: dict, hierarchy: MeshHierarchy, frames) -> Tensor:
    """frames: (B, V, 3) array or Tensor -> (B, C) codes."""
    if not isinstance(frames, Tensor):
        frames = Tensor(np.asarray(frames))
    b, v, _ = frames.shape
    if v != hierarchy.levels[0].vertex_count:
        raise ValueError(f"frames have {v} vertices, hierarchy level 0 has "
                         f"{hierarchy.levels[0].vertex_count}")
    spirals, downs, _ = _level_plans(hierarchy, b)
    x = engine.reshape(frames, (b * v, 3))
    for i in range(len(ENCODER_WIDTHS)):
        x = engine.elu(spiral_conv(x, spirals[i],
                                   params[f"spae.enc.{i}.weight"],
                                   params[f"spae.enc.{i}.bias"]))
        x = engine.sparse_mm(downs[i], x)
    v_top = hierarchy.levels[-1].vertex_count
    x = engine.reshape(x, (b, v_top * ENCODER_WIDTHS[-1]))
    return engine.add_bias(engine.matmul(x, params["spae.fc1.weight"]),
                           params["spae.fc1.bias"])


def decode_batch(params: dict, hierarchy: MeshHierarchy,
                 codes: Tensor) -> Tensor:
    """codes: (B, C) -> reconstructed frames (B, V, 3)."""
    b = codes.shape[0]
    spirals, _, ups = _level_plans(hierarchy, b)
    v_top = hierarchy.levels[-1].vertex_count
    x = engine.add_bias(engine.matmul(codes, params["spae.fc2.weight"]),
                        params["spae.fc2.bias"])
    x = engine.reshape(x, (b * v_top, ENCODER_WIDTHS[-1]))
    n_up = hierarchy.level_count - 1
    for i in range(len(DECODER_WIDTHS)):
        if i < n_up:
            x = engine.sparse_mm(ups[n_up - 1 - i], x)
        level = _decoder_level(hierarchy, i)
        x = engine.elu(spiral_conv(x, spirals[level],
                                   params[f"spae.dec.{i}.weight"],
                                   params[f"spae.dec.{i}.bias"]))
    x = spiral_conv(x, spirals[0], params["spae.out.weight"],
                    params["spae.out.bias"])
    v0 = hierarchy.levels[0].vertex_count
    return engine.reshape(x, (b, v0, 3))


def frozen_params(params: dict) -> dict:
    """A no-gradient view for inference (skips graph construction)."""
    return {name: (p.detach() if isinstance(p, Tensor) else Tensor(p))
            for name, p in params.items()}


def reconstruction_loss(params: dict, hierarchy: MeshHierarchy,
                        frames) -> Tensor:
    codes = encode_batch(params, hierarchy, frames)
    recon = decode_batch(params, hierarchy, codes)
    target = frames if isinstance(frames, Tensor) else Tensor(np.asarray(frames))
    return engine.l1_loss(recon, target)


def train_spae(frames: np.ndarray, hierarchy: MeshHierarchy, *,
               latent_dim: int, epochs: int, batch_size: int,
               learning_rate: float, decay_rate: float, weight_decay: float,
               seed: int, checkpoint_dir=None, checkpoint_every: int = 50,
               extra_tensors=None, log=None):
    """Reconstruction training over individual (already normalized) frames.

    Returns (params, AdamState, per-epoch mean loss list). Frames are
    shuffled each epoch; the learning rate decays per epoch. Each step's
    graph is released before the next one is built, so one graph and its
    gradients are alive at a time. A non-finite loss aborts with the
    epoch/iteration in the message.
    """
    frames = np.asarray(frames, dtype=np.float32)
    if frames.ndim != 3 or len(frames) == 0:
        raise ValueError("training frames must be a nonempty (N, V, 3) array")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xAE]))
    params = init_spae_params(hierarchy, latent_dim, rng)
    state = AdamState()
    n = len(frames)
    curve = []
    for epoch in range(1, epochs + 1):
        lr = lr_decay(learning_rate, epoch - 1, decay_rate)
        order = rng.permutation(n)
        total, count = 0.0, 0
        for it, start in enumerate(range(0, n, batch_size)):
            batch = frames[order[start:start + batch_size]]
            try:
                loss = reconstruction_loss(params, hierarchy, batch)
                loss.backward()
            except NonFiniteError as e:
                raise NonFiniteError(
                    f"epoch {epoch} iteration {it}: {e}") from e
            adam_step(params, state, lr, weight_decay)
            total += loss.item() * len(batch)
            count += len(batch)
            del loss      # build the next graph with this one released
        curve.append(total / count)
        if log is not None:
            log(epoch, curve[-1])
        if checkpoint_dir is not None and (
                epoch % checkpoint_every == 0 or epoch == epochs):
            _save(checkpoint_dir, params, state, extra_tensors)
    if checkpoint_dir is not None and epochs == 0:
        _save(checkpoint_dir, params, state, extra_tensors)
    return params, state, curve


def _save(checkpoint_dir, params, state, extra_tensors):
    save_checkpoint(os.path.join(checkpoint_dir, "spae.ckpt"),
                    {**params, **(extra_tensors or {})}, state)


def encode_dataset(params: dict, hierarchy: MeshHierarchy, sequences,
                   chunk: int = 32):
    """Per-frame embeddings for whole sequences.

    `sequences` yields (frames (L, V, 3) normalized, label) pairs; returns a
    list of ((L, C) float32 array, label) in input order. Frames are
    independent, so chunking is purely a batching detail.

    Sequences are dealt into `_encode_threads()` shares. The calling thread
    encodes the first share and a pool thread each other one; numpy
    releases the GIL in BLAS and its array loops, so the shares run at
    once. Each sequence goes through the same `encode_batch` calls as on
    one thread, so every code has the same bytes. Keeping a share on the
    calling thread keeps its working set in the heap that earlier stages
    already grew, not in a fresh malloc arena of a pool thread.
    """
    frozen = frozen_params(params)
    pairs = list(sequences)
    n = max(1, min(_encode_threads(), len(pairs)))

    def encode_share(share):
        out = []
        for frames, label in share:
            frames = np.asarray(frames, dtype=np.float32)
            rows = [encode_batch(frozen, hierarchy, frames[start:start + chunk])
                    .data for start in range(0, len(frames), chunk)]
            codes = np.concatenate(rows, axis=0).astype(np.float32, copy=False)
            out.append((codes, int(label)))
        return out

    if n == 1:
        return encode_share(pairs)
    # imported here: only a threaded encode pays its ~6 ms import
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=n - 1) as pool:
        futures = [pool.submit(encode_share, pairs[k::n])
                   for k in range(1, n)]
        shares = [encode_share(pairs[::n])]
        shares += [f.result() for f in futures]
    out = [None] * len(pairs)
    for k, share in enumerate(shares):
        out[k::n] = share
    return out


def _encode_threads() -> int:
    """Threads `encode_dataset` uses: one per CPU this process may run on,
    at most ENCODE_THREADS_MAX, and one only unless numpy's BLAS runs one
    thread per call. A BLAS that runs its own thread per core already has
    the cores, and encode threads on top of it made encode slower (README).
    CPU quotas of a cgroup are not consulted; the cap bounds the threads a
    quota-limited process on a large host starts.
    """
    if _blas_threads() != 1:
        return 1
    return min(_usable_cpus(), ENCODE_THREADS_MAX)


def _usable_cpus() -> int:
    """CPUs this process may run on; all of them where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads():
    """Threads numpy's BLAS runs per call, or None where it cannot be asked
    (any BLAS but the OpenBLAS that numpy's wheels bundle)."""
    getter = _blas_thread_getter()
    return getter() if getter is not None else None


@functools.cache
def _blas_thread_getter():
    """OpenBLAS's get-num-threads function in the library that numpy's
    wheels bundle in numpy.libs, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(dll, name):
                getter = getattr(dll, name)
                getter.argtypes, getter.restype = (), ctypes.c_int
                return getter
    return None


def save_embeddings(path, embedded) -> None:
    """Embedding cache: per-sequence (L, C) f32 blocks with labels."""
    if not embedded:
        raise ValueError("refusing to write an empty embedding cache")
    c = embedded[0][0].shape[1]
    with replacing(path, EMB_MAGIC, EMB_VERSION) as fh:
        fh.write(struct.pack("<II", c, len(embedded)))
        for emb, label in embedded:
            if emb.ndim != 2 or emb.shape[1] != c:
                raise ValueError(f"embedding block {emb.shape} does not have "
                                 f"width {c}")
            fh.write(struct.pack("<II", emb.shape[0], label))
            fh.write(np.ascontiguousarray(emb, dtype="<f4").tobytes())


def load_embeddings(path):
    r = Reader(path, EMB_MAGIC, EMB_VERSION, "embedding cache")
    c, count = r.unpack("<II", "embedding cache header")
    out = []
    for i in range(count):
        length, label = r.unpack("<II", f"embedding cache at sequence {i}")
        emb = r.array("<f4", (length, c), f"embedding payload at sequence {i}")
        out.append((emb, label))
    r.end()
    return out
