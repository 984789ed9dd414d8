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

from .binfmt import Reader, replacing, write_array
from .engine import Tensor
from .optim import AdamState

CKPT_MAGIC = b"SPTC"
CKPT_VERSION = 1


def _write_block(fh, tensors: dict):
    fh.write(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = tensors[name]
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)) + encoded)
        write_array(fh, arr.data if isinstance(arr, Tensor) else arr, "<f4")


def _read_block(r: Reader) -> dict:
    (count,) = r.unpack("<I")
    out = {}
    for _ in range(count):
        name = r.text()
        out[name] = r.array("<f4")
    return out


def save_checkpoint(path, tensors: dict, adam: AdamState = None) -> None:
    with replacing(path, CKPT_MAGIC, CKPT_VERSION) as fh:
        _write_block(fh, tensors)
        fh.write(struct.pack("<B", adam is not None))
        if adam is not None:
            fh.write(struct.pack("<Qddd", adam.step_count, adam.beta1,
                                 adam.beta2, adam.epsilon))
            _write_block(fh, adam.first_moment)
            _write_block(fh, adam.second_moment)


def load_checkpoint(path):
    """Returns (name -> float32 array dict, AdamState or None)."""
    r = Reader(path, CKPT_MAGIC, CKPT_VERSION, "checkpoint")
    tensors = _read_block(r)
    (has_adam,) = r.unpack("<B")
    adam = None
    if has_adam:
        step, b1, b2, eps = r.unpack("<Qddd")
        adam = AdamState(step_count=step, beta1=b1, beta2=b2, epsilon=eps,
                         first_moment=_read_block(r),
                         second_moment=_read_block(r))
    r.end()
    return tensors, adam


def params_from_arrays(arrays: dict, requires_grad: bool = True) -> dict:
    """Lift loaded arrays back into engine tensors."""
    return {name: Tensor(arr.copy(), requires_grad=requires_grad)
            for name, arr in arrays.items()}
