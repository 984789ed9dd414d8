"""Mesh motion sequences: storage, normalization, frame sampling, file I/O.

A sequence is an (L, V, 3) coordinate array over one fixed topology plus an
optional action label. The binary sequence format is little-endian:

    magic "SPTR" | u32 version=1 | u32 vertex_count | u32 frame_count
    | u32 label (0xFFFFFFFF = unlabeled) | u64 topology checksum
    | L*V*3 f32 coordinates (frame-major, vertex-major, xyz)
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass

import numpy as np

from .binfmt import Reader, replacing
from .errors import FormatError, MeshError

SEQ_MAGIC = b"SPTR"
SEQ_VERSION = 1
UNLABELED = 0xFFFFFFFF


@dataclass
class MeshSequence:
    """Ordered per-frame coordinates over one topology."""

    frames: np.ndarray            # (L, V, 3) float32
    label: int | None = None
    topology_checksum: int = 0

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 3 or self.frames.shape[2] != 3 or len(self.frames) < 1:
            raise MeshError(f"sequence frames must be (L, V, 3), got {self.frames.shape}")
        if not np.isfinite(self.frames).all():
            raise MeshError("sequence contains non-finite coordinates")

    @property
    def length(self) -> int:
        return self.frames.shape[0]

    @property
    def vertex_count(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Affine map placing coordinates in [-1, 1]: x' = (x - center) / scale."""

    center: np.ndarray            # (3,)
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def compute_norm_stats(frames: np.ndarray) -> NormStats:
    """Center = centroid of all vertices of all frames; scale = max abs
    deviation from it, so normalized coordinates land exactly in [-1, 1].
    """
    frames = np.asarray(frames, dtype=np.float64)
    flat = frames.reshape(-1, 3)
    center = flat.mean(axis=0)
    scale = float(np.abs(flat - center).max())
    if scale == 0.0:
        raise MeshError("degenerate geometry: all vertices identical")
    return NormStats(center=center, scale=scale)


def apply_norm(frames: np.ndarray, stats: NormStats) -> np.ndarray:
    return ((np.asarray(frames, dtype=np.float64) - stats.center) / stats.scale)


def normalize_frames(frames: np.ndarray) -> tuple[np.ndarray, NormStats]:
    stats = compute_norm_stats(frames)
    return apply_norm(frames, stats), stats


def denormalize_frames(frames: np.ndarray, stats: NormStats) -> np.ndarray:
    """Exact inverse of apply_norm for the same stats."""
    return np.asarray(frames, dtype=np.float64) * stats.scale + stats.center


def uniform_sample_frames(seq: MeshSequence, n: int) -> MeshSequence:
    """Keep frames at indices floor(i*L/n), i = 0..n-1 (deterministic)."""
    length = seq.length
    if n <= 0:
        raise ValueError("sample count must be positive")
    if n > length:
        raise ValueError(f"cannot sample {n} frames from a length-{length} sequence")
    idx = (np.arange(n, dtype=np.int64) * length) // n
    return MeshSequence(seq.frames[idx], label=seq.label,
                        topology_checksum=seq.topology_checksum)


def save_sequence(path, seq: MeshSequence) -> None:
    label = UNLABELED if seq.label is None else int(seq.label)
    with replacing(path, SEQ_MAGIC, SEQ_VERSION) as fh:
        fh.write(struct.pack("<IIIQ", seq.vertex_count, seq.length, label,
                             seq.topology_checksum))
        fh.write(np.ascontiguousarray(seq.frames, dtype="<f4").tobytes())


def load_sequence(path, expected_checksum: int | None = None) -> MeshSequence:
    r = Reader(path, SEQ_MAGIC, SEQ_VERSION, "sequence")
    vcount, length, label, checksum = r.unpack("<IIIQ", "sequence header")
    frames = r.array("<f4", (length, vcount, 3))
    r.end()
    if expected_checksum is not None and checksum != expected_checksum:
        raise FormatError(
            f"{path}: topology checksum {checksum:#x} does not match "
            f"expected {expected_checksum:#x}")
    return MeshSequence(frames, label=None if label == UNLABELED else int(label),
                        topology_checksum=checksum)


def write_manifest(path, rows) -> None:
    """Manifest CSV: path,label,subject_id per sequence file."""
    text = io.StringIO()                    # csv's own \r\n line ends
    csv.writer(text).writerows([("path", "label", "subject_id")] + [
        (r["path"], r["label"], r["subject_id"]) for r in rows])
    with replacing(path) as fh:
        fh.write(text.getvalue().encode())


def read_manifest(path) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                rows.append({"path": row["path"], "label": int(row["label"]),
                             "subject_id": int(row["subject_id"])})
            except (KeyError, TypeError, ValueError) as e:
                raise FormatError(f"{path}: bad manifest row {row!r}") from e
    return rows


def subject_split(rows: list[dict], split_fraction: float, seed: int):
    """Split manifest rows so no subject appears in both train and test."""
    if not 0 < split_fraction < 1:
        raise ValueError("split_fraction must be in (0, 1)")
    subjects = sorted({r["subject_id"] for r in rows})
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(subjects)]))
    order = rng.permutation(len(subjects))
    n_train = int(round(split_fraction * len(subjects)))
    train_subj = {subjects[i] for i in order[:n_train]}
    train = [r for r in rows if r["subject_id"] in train_subj]
    test = [r for r in rows if r["subject_id"] not in train_subj]
    return train, test
