"""Fixed triangle-mesh topology: parsing, validation, oriented adjacency.

Every frame of a motion sequence shares one topology. Connectivity is
validated once at load time (manifold, connected, consistently oriented)
so the rest of the pipeline can assume a clean mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binfmt import write_lines
from .errors import MeshError

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def face_checksum(faces: np.ndarray) -> int:
    """Checksum binding sequences/caches to one topology.

    FNV-1a over the flattened face index list, each index encoded as a
    little-endian u32.
    """
    return fnv1a64(np.ascontiguousarray(faces, dtype="<u4").tobytes())


@dataclass(frozen=True)
class TemplateTopology:
    """Validated triangle-mesh connectivity shared by all frames.

    ``adjacency[v]`` lists v's neighbors in counterclockwise order (per the
    face winding). For interior vertices the cyclic order is rotated so the
    lowest-index neighbor comes first; for boundary vertices the list is the
    open fan in orientation order.
    """

    vertex_count: int
    faces: np.ndarray                       # (F, 3) int32, oriented triples
    adjacency: tuple = field(repr=False)    # per-vertex int32 arrays
    checksum: int = 0

    @property
    def face_count(self) -> int:
        return len(self.faces)


def build_topology(vertex_count: int, faces) -> TemplateTopology:
    """Validate connectivity and derive the oriented adjacency.

    Raises MeshError for out-of-range indices, degenerate or non-triangle
    faces, inconsistent orientation, non-manifold edges or vertices, and
    disconnected meshes.
    """
    faces = np.asarray(faces, dtype=np.int32)
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise MeshError("faces must be index triples")
    if len(faces) == 0:
        raise MeshError("mesh has no faces")
    if faces.min() < 0 or faces.max() >= vertex_count:
        bad = int(faces.min()) if faces.min() < 0 else int(faces.max())
        raise MeshError(
            f"face index {bad} out of range for {vertex_count} vertices")
    if (np.diff(np.sort(faces, axis=1), axis=1) == 0).any():
        raise MeshError("degenerate face (repeated vertex index)")

    # Each face (v, x, y) contributes the CCW transition x -> y around v.
    succ = [dict() for _ in range(vertex_count)]
    pred = [dict() for _ in range(vertex_count)]
    for fi, (a, b, c) in enumerate(faces):
        for v, x, y in ((a, b, c), (b, c, a), (c, a, b)):
            if x in succ[v]:
                raise MeshError(
                    f"non-manifold: directed edge ({v},{x}) shared by faces "
                    f"(inconsistent orientation or edge fin near face {fi})")
            succ[v][int(x)] = int(y)
            pred[v][int(y)] = int(x)

    adjacency = []
    for v in range(vertex_count):
        if not succ[v]:
            raise MeshError(f"vertex {v} has no incident face")
        starts = [x for x in succ[v] if x not in pred[v]]
        if len(starts) > 1:
            raise MeshError(f"non-manifold vertex {v}: umbrella splits into fans")
        if starts:                       # boundary vertex: open fan
            cur = starts[0]
        else:                            # interior: rotate cycle to min index
            cur = min(succ[v])
        ring = [cur]
        while True:
            cur = succ[v].get(cur)
            if cur is None or cur == ring[0]:
                break
            ring.append(cur)
            if len(ring) > len(succ[v]) + 1:
                raise MeshError(f"non-manifold vertex {v}: umbrella is not a single fan")
        if len(ring) != len(succ[v]) and len(ring) != len(succ[v]) + 1:
            raise MeshError(f"non-manifold vertex {v}: umbrella splits into fans")
        adjacency.append(np.array(ring, dtype=np.int32))

    # Connectivity over the vertex graph.
    seen = np.zeros(vertex_count, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            if not seen[u]:
                seen[u] = True
                stack.append(int(u))
    if not seen.all():
        raise MeshError(f"mesh is disconnected ({int(seen.sum())}/{vertex_count} reachable)")

    return TemplateTopology(
        vertex_count=vertex_count,
        faces=faces,
        adjacency=tuple(adjacency),
        checksum=face_checksum(faces),
    )


def load_template(path) -> tuple[TemplateTopology, np.ndarray]:
    """Read a plain-text triangle mesh ("v x y z" / "f i j k", 1-based).

    Other line types are ignored. Returns the validated topology and the
    rest-pose coordinates as a (V, 3) float64 array.
    """
    verts, faces = [], []
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise MeshError(f"cannot read template {path}: {e}") from e
    for ln, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshError(f"{path}:{ln}: vertex line needs 3 coordinates")
            try:
                verts.append([float(p) for p in parts[1:4]])
            except ValueError as e:
                raise MeshError(f"{path}:{ln}: bad vertex coordinate") from e
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MeshError(f"{path}:{ln}: only triangle faces are supported")
            idx = []
            for p in parts[1:]:
                try:
                    i = int(p.split("/")[0])
                except ValueError as e:
                    raise MeshError(f"{path}:{ln}: bad face index {p!r}") from e
                if i < 1:
                    raise MeshError(f"{path}:{ln}: face index {i} out of range")
                idx.append(i - 1)
            faces.append(idx)
    if not verts:
        raise MeshError(f"{path}: no vertices found")
    coords = np.asarray(verts, dtype=np.float64)
    if not np.isfinite(coords).all():
        raise MeshError(f"{path}: non-finite vertex coordinate")
    faces = np.asarray(faces, dtype=np.int64)
    if len(faces) and faces.max() >= len(verts):
        raise MeshError(
            f"{path}: face index {int(faces.max()) + 1} out of range for "
            f"{len(verts)} vertices")
    topo = build_topology(len(verts), faces)
    return topo, coords


def save_template(path, topology: TemplateTopology, coords: np.ndarray) -> None:
    """Write the text-format counterpart of load_template."""
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in np.asarray(coords)]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in topology.faces]
    write_lines(path, lines)


def tetrahedron() -> tuple[TemplateTopology, np.ndarray]:
    """Regular tetrahedron with outward-CCW faces (smallest closed mesh)."""
    coords = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64)
    coords /= np.sqrt(3.0)
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    return build_topology(4, faces), coords


def icosphere(subdivisions: int = 0) -> tuple[TemplateTopology, np.ndarray]:
    """Unit icosphere: icosahedron with each face split 4-way per level.

    Vertex counts: 12 (level 0), 42 (level 1), 162 (level 2), 642 (level 3).
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.array(v, dtype=np.float64) for v in verts]

    for _ in range(subdivisions):
        midpoint = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                verts.append((verts[i] + verts[j]) / 2.0)
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces

    coords = np.array(verts)
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    return build_topology(len(coords), faces), coords
