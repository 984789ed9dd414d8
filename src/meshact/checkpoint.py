"""Versioned binary checkpoints: named f32 tensors plus optimizer state.

Layout (all little-endian):

  magic "SPTC" | u32 version | u32 tensor count
  per tensor: u32 name length | utf-8 name | u32 ndim | u32 dims... | f32 data
  u8 has_optimizer
  if set: u64 step_count | f64 beta1 | f64 beta2 | f64 epsilon
          | tensor block (first moments, names matching)
          | tensor block (second moments)

Tensors are written in sorted name order so identical parameter sets
produce byte-identical files.
"""

from __future__ import annotations

import struct

import numpy as np

from .engine import Tensor
from .errors import FormatError
from .optim import AdamState

CKPT_MAGIC = b"SPTC"
CKPT_VERSION = 1


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise FormatError(f"truncated checkpoint: wanted {n} bytes, "
                          f"got {len(raw)}")
    return raw


def _write_block(fh, tensors: dict):
    fh.write(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = tensors[name]
        if isinstance(arr, Tensor):
            arr = arr.data
        arr = np.asarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def _read_block(fh) -> dict:
    (count,) = struct.unpack("<I", _read_exact(fh, 4))
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
        name = _read_exact(fh, name_len).decode("utf-8")
        (ndim,) = struct.unpack("<I", _read_exact(fh, 4))
        shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
        n = int(np.prod(shape)) if shape else 1
        raw = _read_exact(fh, 4 * n)
        out[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    return out


def save_checkpoint(path, tensors: dict, adam: AdamState = None) -> None:
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        _write_block(fh, tensors)
        if adam is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(struct.pack("<Qddd", adam.step_count, adam.beta1,
                                 adam.beta2, adam.epsilon))
            _write_block(fh, adam.first_moment)
            _write_block(fh, adam.second_moment)


def load_checkpoint(path):
    """Returns (name -> float32 array dict, AdamState or None)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CKPT_MAGIC:
            raise FormatError(f"bad checkpoint magic: expected {CKPT_MAGIC!r}, "
                              f"got {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        tensors = _read_block(fh)
        (has_adam,) = struct.unpack("<B", _read_exact(fh, 1))
        adam = None
        if has_adam:
            step, b1, b2, eps = struct.unpack("<Qddd", _read_exact(fh, 32))
            adam = AdamState(step_count=step, beta1=b1, beta2=b2, epsilon=eps,
                             first_moment=_read_block(fh),
                             second_moment=_read_block(fh))
        trailing = len(fh.read())
    if trailing:
        raise FormatError(f"checkpoint has {trailing} trailing bytes after "
                          f"its last block")
    return tensors, adam


def params_from_arrays(arrays: dict, requires_grad: bool = True) -> dict:
    """Lift loaded arrays back into engine tensors."""
    return {name: Tensor(arr.copy(), requires_grad=requires_grad)
            for name, arr in arrays.items()}
