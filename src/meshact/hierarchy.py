"""Mesh hierarchy: repeated decimation plus per-level spiral tables.

The hierarchy is a pure function of (template topology, reference coords,
decimation factors, spiral lengths), so it is built once and cached on disk.
The cache file stores the inputs' fingerprint; a mismatch triggers a rebuild
rather than an error, since a stale cache is an inconvenience, not a fault.

On top of the file, the process keeps, per cache path, the hierarchy it
last loaded or built there, with the sha256 of the file's bytes. While the
file still hashes the same and the request matches, `get_hierarchy`
returns that same object, so its arrays are parsed, and the autoencoder's
gather plans kept in `MeshHierarchy.plans` are built, once per process.
The file stays the source of truth: any other bytes are loaded again. A
held hierarchy's arrays are read-only, because every caller shares them.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binfmt import Reader, replacing, write_array
from .decimate import qem_decimate
from .errors import FormatError, MeshError
from .sampling import SamplingOperator
from .spiral import SpiralIndexTable, build_spiral_table
from .topology import TemplateTopology, build_topology

CACHE_MAGIC = b"SPHC"
CACHE_VERSION = 1
CACHE_ENV_VAR = "SPATR_CACHE_DIR"
CACHE_FILENAME = "hierarchy.bin"

# absolute cache path -> (sha256 of the file's bytes, the hierarchy they hold)
_held: dict = {}


@dataclass(frozen=True)
class MeshHierarchy:
    """Per-level topologies, reference geometry, spirals, and transfer ops.

    levels[0] is the input template. downs[i] maps level i features to
    level i+1; ups[i] maps level i+1 back to level i.
    """
    levels: tuple          # TemplateTopology per level
    ref_coords: tuple      # (V_i, 3) float64 per level
    spirals: tuple         # SpiralIndexTable per level
    downs: tuple           # len(levels) - 1 SamplingOperator, kind="down"
    ups: tuple             # len(levels) - 1 SamplingOperator, kind="up"
    factors: tuple
    spiral_lengths: tuple
    source_checksum: int
    # batch size -> spae's RowPlans; a dataclasses.replace copy starts empty
    plans: dict = field(default_factory=dict, init=False, compare=False)

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def vertex_counts(self):
        return tuple(t.vertex_count for t in self.levels)


def build_hierarchy(topology: TemplateTopology, ref_coords: np.ndarray,
                    factors, spiral_lengths) -> MeshHierarchy:
    factors = tuple(float(f) for f in factors)
    spiral_lengths = tuple(int(s) for s in spiral_lengths)
    if len(spiral_lengths) != len(factors) + 1:
        raise ValueError(
            f"need one spiral length per level: {len(factors)} factors imply "
            f"{len(factors) + 1} levels, got {len(spiral_lengths)} lengths")

    levels = [topology]
    coords = [np.array(ref_coords, dtype=np.float64)]
    downs, ups = [], []
    for f in factors:
        coarse_topo, coarse_coords, down, up = qem_decimate(
            levels[-1], coords[-1], f)
        levels.append(coarse_topo)
        coords.append(coarse_coords)
        downs.append(down)
        ups.append(up)
    spirals = [build_spiral_table(t, s)
               for t, s in zip(levels, spiral_lengths)]
    return MeshHierarchy(
        levels=tuple(levels), ref_coords=tuple(coords),
        spirals=tuple(spirals), downs=tuple(downs), ups=tuple(ups),
        factors=factors, spiral_lengths=spiral_lengths,
        source_checksum=topology.checksum)


def _write_operator(fh, op: SamplingOperator):
    fh.write(struct.pack("<III", op.rows, op.cols, 1 if op.kind == "up" else 0))
    write_array(fh, op.row_idx, "<i4")
    write_array(fh, op.col_idx, "<i4")
    write_array(fh, op.weights, "<f8")


def _read_operator(r: Reader) -> SamplingOperator:
    rows, cols, kind_flag = r.unpack("<III")
    return SamplingOperator(rows=rows, cols=cols, row_idx=r.array("<i4"),
                            col_idx=r.array("<i4"), weights=r.array("<f8"),
                            kind="up" if kind_flag else "down")


def _cache_key(checksum: int, factors, spiral_lengths) -> bytes:
    n, m = len(factors), len(spiral_lengths)
    return struct.pack(f"<QI{n}dI{m}I", checksum, n, *map(float, factors),
                       m, *map(int, spiral_lengths))


def save_hierarchy(path: str, h: MeshHierarchy):
    with replacing(path, CACHE_MAGIC, CACHE_VERSION) as fh:
        key = _cache_key(h.source_checksum, h.factors, h.spiral_lengths)
        fh.write(struct.pack("<I", len(key)) + key)
        fh.write(struct.pack("<I", h.level_count))
        for topo, coords, spiral in zip(h.levels, h.ref_coords, h.spirals):
            fh.write(struct.pack("<I", topo.vertex_count))
            write_array(fh, topo.faces, "<i4")
            write_array(fh, coords, "<f8")
            fh.write(struct.pack("<I", spiral.length))
            write_array(fh, spiral.indices, "<i4")
        for down, up in zip(h.downs, h.ups):
            _write_operator(fh, down)
            _write_operator(fh, up)


def load_hierarchy(path: str, expected_checksum: int, factors,
                   spiral_lengths) -> MeshHierarchy:
    """Load a cached hierarchy; FormatError if the file does not match
    the requested (checksum, factors, spiral_lengths) triple."""
    factors = tuple(float(f) for f in factors)
    spiral_lengths = tuple(int(s) for s in spiral_lengths)
    r = Reader(path, CACHE_MAGIC, CACHE_VERSION, "hierarchy cache")
    (key_len,) = r.unpack("<I")
    if r.take(key_len) != _cache_key(expected_checksum, factors,
                                     spiral_lengths):
        raise FormatError("hierarchy cache was built for a different "
                          "(template, factors, spiral lengths) combination")
    (n_levels,) = r.unpack("<I")
    levels, coords, spirals = [], [], []
    for _ in range(n_levels):
        (vc,) = r.unpack("<I")
        levels.append(build_topology(vc, r.array("<i4")))
        coords.append(r.array("<f8"))
        (slen,) = r.unpack("<I")
        spirals.append(SpiralIndexTable(length=slen, indices=r.array("<i4")))
    downs, ups = [], []
    for _ in range(n_levels - 1):
        downs.append(_read_operator(r))
        ups.append(_read_operator(r))
    r.end()
    return MeshHierarchy(
        levels=tuple(levels), ref_coords=tuple(coords), spirals=tuple(spirals),
        downs=tuple(downs), ups=tuple(ups), factors=factors,
        spiral_lengths=spiral_lengths, source_checksum=expected_checksum)


def cache_dir(override: str = None) -> str:
    if override:
        return override
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "meshact")


def get_hierarchy(topology: TemplateTopology, ref_coords: np.ndarray,
                  factors, spiral_lengths,
                  cache_root: str = None,
                  rebuild: bool = False) -> MeshHierarchy:
    """Cached build: load if the stored fingerprint matches, else build and
    save; `rebuild` builds and saves without reading the cache.

    The cache file is the source of truth. While its bytes hash the same as
    when this process last loaded or wrote it, and the request matches
    (same key and rest pose), the hierarchy held from then is returned
    itself, not loaded again. Anything else loads or rebuilds and holds
    the result in its place.
    """
    path = os.path.abspath(os.path.join(cache_dir(cache_root), CACHE_FILENAME))
    ref_coords = np.asarray(ref_coords, dtype=np.float64)
    if os.path.exists(path) and not rebuild:
        digest = _file_digest(path)
        held_digest, h = _held.get(path, (None, None))
        if held_digest == digest and np.array_equal(h.ref_coords[0],
                                                    ref_coords) and \
                _cache_key(h.source_checksum, h.factors, h.spiral_lengths) \
                == _cache_key(topology.checksum, factors, spiral_lengths):
            return h
        try:
            h = load_hierarchy(path, topology.checksum, factors,
                               spiral_lengths)
            if not np.array_equal(h.ref_coords[0], ref_coords):
                raise FormatError("hierarchy cache holds another rest pose")
            return _hold(path, digest, h)
        except (FormatError, MeshError) as e:
            print(f"rebuilding hierarchy cache: {e}", file=sys.stderr)
    h = build_hierarchy(topology, ref_coords, factors, spiral_lengths)
    save_hierarchy(path, h)
    return _hold(path, _file_digest(path), h)


def _file_digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _hold(path: str, digest: str, h: MeshHierarchy) -> MeshHierarchy:
    """Keep `h` as the hierarchy of `path`'s bytes; make its arrays
    read-only, since every later caller shares them."""
    arrays = [*h.ref_coords, *(s.indices for s in h.spirals)]
    for topo in h.levels:
        arrays += [topo.faces, *topo.adjacency]
    for op in h.downs + h.ups:
        arrays += [op.row_idx, op.col_idx, op.weights]
    for a in arrays:
        a.setflags(write=False)
    _held[path] = (digest, h)
    return h
