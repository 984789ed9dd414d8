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
Training (Adam, per-epoch lr decay, shuffling) runs in optim.train_epochs.
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
from .errors import ConfigError
from .hierarchy import MeshHierarchy
from .optim import (AdamState, adam_step, glorot_uniform, train_epochs,
                    zeros_param)
from .sampling import SamplingOperator
from .spiral import PAD_SENTINEL, SpiralIndexTable

ENCODER_WIDTHS = (16, 32, 64, 128)
DECODER_WIDTHS = (128, 64, 32, 32, 16)

# At most this many threads encode at once. Each pool thread keeps its own
# malloc arena: with 8 shares forced on 2 CPUs, peak RSS rose 12-14 %.
ENCODE_THREADS_MAX = 4

EMB_MAGIC = b"SPTE"
EMB_VERSION = 1


def spiral_convs(hierarchy: MeshHierarchy) -> list:
    """Every spiral conv in call order: (parameter prefix, level, in width,
    out width). Encoder conv i runs at level i before downsample i, decoder
    conv i at level max(3 - i, 0) after an upsample to it where it is finer
    than the last, and the output projection at level 0."""
    n = len(ENCODER_WIDTHS)
    if hierarchy.level_count != n + 1:
        raise ConfigError(f"factors: the autoencoder needs {n} downsampling "
                          f"steps, the hierarchy has {hierarchy.level_count - 1}")
    enc = (3,) + ENCODER_WIDTHS
    dec = (ENCODER_WIDTHS[-1],) + DECODER_WIDTHS + (3,)
    return ([(f"spae.enc.{i}", i, enc[i], enc[i + 1]) for i in range(n)]
            + [(f"spae.dec.{i}", max(n - 1 - i, 0), dec[i], dec[i + 1])
               for i in range(len(DECODER_WIDTHS))]
            + [("spae.out", 0, dec[-2], dec[-1])])


def spae_param_shapes(hierarchy: MeshHierarchy, latent_dim: int) -> dict:
    """Name -> shape of every parameter, in creation order: encoder convs,
    the fully connected pair, decoder convs. Names are stable and
    checkpoint-friendly."""
    flat = hierarchy.levels[-1].vertex_count * ENCODER_WIDTHS[-1]
    shapes = {}
    for prefix, level, f_in, f_out in spiral_convs(hierarchy):
        if prefix == "spae.dec.0":
            shapes.update({"spae.fc1.weight": (flat, latent_dim),
                           "spae.fc1.bias": (latent_dim,),
                           "spae.fc2.weight": (latent_dim, flat),
                           "spae.fc2.bias": (flat,)})
        shapes[f"{prefix}.weight"] = (hierarchy.spirals[level].length * f_in,
                                      f_out)
        shapes[f"{prefix}.bias"] = (f_out,)
    return shapes


def init_spae_params(hierarchy: MeshHierarchy, latent_dim: int,
                     rng: np.random.Generator, dtype=np.float32) -> dict:
    """Fresh parameters: Glorot weights in creation order, zero biases."""
    shapes = spae_param_shapes(hierarchy, latent_dim)
    return {name: glorot_uniform(rng, *shape, dtype=dtype)
            if name.endswith(".weight") else zeros_param(shape, dtype=dtype)
            for name, shape in shapes.items()}


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
    for (prefix, level, _, _), down in zip(spiral_convs(hierarchy), downs):
        x = engine.elu(spiral_conv(x, spirals[level],
                                   params[f"{prefix}.weight"],
                                   params[f"{prefix}.bias"]))
        x = engine.sparse_mm(down, x)
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
    at = len(ups)
    for prefix, level, _, _ in spiral_convs(hierarchy)[len(ENCODER_WIDTHS):]:
        if level < at:
            x, at = engine.sparse_mm(ups[level], x), level
        x = spiral_conv(x, spirals[level], params[f"{prefix}.weight"],
                        params[f"{prefix}.bias"])
        if prefix != "spae.out":
            x = engine.elu(x)
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

    Returns (params, AdamState, per-epoch mean loss list). Runs through
    `optim.train_epochs`, adding the curve, `log` and the checkpoints.
    """
    frames = np.asarray(frames, dtype=np.float32)
    if frames.ndim != 3 or len(frames) == 0:
        raise ValueError("training frames must be a nonempty (N, V, 3) array")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xAE]))
    params = init_spae_params(hierarchy, latent_dim, rng)
    state = AdamState()
    curve = []
    for epoch, loss in train_epochs(
            params, state, len(frames),
            lambda chosen: reconstruction_loss(params, hierarchy,
                                               frames[chosen]),
            adam_step, epochs=epochs, batch_size=batch_size,
            learning_rate=learning_rate, decay_rate=decay_rate,
            weight_decay=weight_decay, rng=rng):
        curve.append(loss)
        if log is not None:
            log(epoch, loss)
        if checkpoint_dir is not None and (
                epoch % checkpoint_every == 0 or epoch == epochs):
            save_checkpoint(os.path.join(checkpoint_dir, "spae.ckpt"),
                            {**params, **(extra_tensors or {})}, state)
    return params, state, curve


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
