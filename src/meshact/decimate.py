"""Quadric-error-metric decimation producing sparse transfer operators.

Greedy edge collapses onto existing vertex positions: each collapse removes
one vertex, merging it into the cheaper surviving endpoint of the edge
(cost = summed endpoint quadrics evaluated at the candidate position, ties
broken toward the lower vertex index). The coarse level therefore selects a
subset of the fine vertices:

  * down operator - one-hot row per coarse vertex (pure selection);
  * up operator   - each removed fine vertex gets the barycentric weights of
    its closest point on the coarse reference surface; surviving vertices
    map to themselves with weight 1.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import MeshError
from .sampling import SamplingOperator
from .topology import TemplateTopology, build_topology

MIN_LEVEL_SIZE = 4


def coarse_size(vertex_count: int, factor: float) -> int:
    """Target vertex count for one decimation step (floored at 4)."""
    if factor <= 1.0:
        raise ValueError(f"decimation factor must exceed 1, got {factor}")
    return max(MIN_LEVEL_SIZE, math.ceil(vertex_count / factor))


def _face_quadric(p0, p1, p2) -> np.ndarray:
    """4x4 plane quadric of a triangle; zero for degenerate faces."""
    n = np.cross(p1 - p0, p2 - p0)
    norm = np.linalg.norm(n)
    if norm < 1e-300:
        return np.zeros((4, 4))
    n = n / norm
    plane = np.array([n[0], n[1], n[2], -float(n @ p0)])
    return np.outer(plane, plane)


def _quadric_at(q: np.ndarray, p: np.ndarray) -> float:
    h = np.array([p[0], p[1], p[2], 1.0])
    return float(h @ q @ h)


def closest_point_weights(p: np.ndarray, tris: np.ndarray):
    """Barycentric weights of the closest point of `p` on each triangle.

    Vectorized region classification (Ericson). `tris` is (T, 3, 3);
    returns (weights (T, 3), squared distances (T,)).
    """
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, ac, ap = b - a, c - a, p[None] - a
    d1 = (ab * ap).sum(1)
    d2 = (ac * ap).sum(1)
    bp = p[None] - b
    d3 = (ab * bp).sum(1)
    d4 = (ac * bp).sum(1)
    cp = p[None] - c
    d5 = (ab * cp).sum(1)
    d6 = (ac * cp).sum(1)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    denom_ab = d1 - d3
    t_ab = np.divide(d1, denom_ab, out=np.zeros_like(d1), where=denom_ab != 0)
    denom_ac = d2 - d6
    t_ac = np.divide(d2, denom_ac, out=np.zeros_like(d2), where=denom_ac != 0)
    denom_bc = (d4 - d3) + (d5 - d6)
    t_bc = np.divide(d4 - d3, denom_bc, out=np.zeros_like(d4), where=denom_bc != 0)
    denom_in = va + vb + vc
    v_in = np.divide(vb, denom_in, out=np.zeros_like(vb), where=denom_in != 0)
    w_in = np.divide(vc, denom_in, out=np.zeros_like(vc), where=denom_in != 0)

    # The region tests are only valid in sequence (each assumes the earlier
    # ones failed), so assign exactly once in precedence order.
    w = np.zeros((len(tris), 3))
    unset = np.ones(len(tris), dtype=bool)

    def assign(mask, wa, wb, wc):
        m = mask & unset
        w[m, 0] = wa[m] if isinstance(wa, np.ndarray) else wa
        w[m, 1] = wb[m] if isinstance(wb, np.ndarray) else wb
        w[m, 2] = wc[m] if isinstance(wc, np.ndarray) else wc
        unset[m] = False

    zeros = np.zeros(len(tris))
    assign((d1 <= 0) & (d2 <= 0), 1.0, 0.0, 0.0)               # vertex a
    assign((d3 >= 0) & (d4 <= d3), 0.0, 1.0, 0.0)              # vertex b
    assign((vc <= 0) & (d1 >= 0) & (d3 <= 0),
           1.0 - t_ab, t_ab, zeros)                            # edge ab
    assign((d6 >= 0) & (d5 <= d6), 0.0, 0.0, 1.0)              # vertex c
    assign((vb <= 0) & (d2 >= 0) & (d6 <= 0),
           1.0 - t_ac, zeros, t_ac)                            # edge ac
    assign((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
           zeros, 1.0 - t_bc, t_bc)                            # edge bc
    assign(unset.copy(), 1.0 - v_in - w_in, v_in, w_in)        # interior

    w = np.clip(w, 0.0, 1.0)
    w /= w.sum(axis=1, keepdims=True)
    closest = (w[:, :, None] * tris).sum(axis=1)
    dist2 = ((closest - p[None]) ** 2).sum(1)
    return w, dist2


class _CollapseState:
    """Mutable connectivity bookkeeping during greedy collapses."""

    def __init__(self, topology: TemplateTopology, coords: np.ndarray):
        self.coords = coords
        self.alive = np.ones(topology.vertex_count, dtype=bool)
        self.faces = [tuple(int(i) for i in f) for f in topology.faces]
        self.face_alive = [True] * len(self.faces)
        self.vertex_faces = [set() for _ in range(topology.vertex_count)]
        for fi, f in enumerate(self.faces):
            for v in f:
                self.vertex_faces[v].add(fi)
        self.neighbors = [set(map(int, adj)) for adj in topology.adjacency]
        self.quadrics = [np.zeros((4, 4)) for _ in range(topology.vertex_count)]
        for f in self.faces:
            q = _face_quadric(*(coords[list(f)]))
            for v in f:
                self.quadrics[v] = self.quadrics[v] + q
        self.stamp = {}

    def edge_cost(self, u: int, v: int):
        q = self.quadrics[u] + self.quadrics[v]
        cost_u = _quadric_at(q, self.coords[u])
        cost_v = _quadric_at(q, self.coords[v])
        # Keep the endpoint whose position is cheaper; prefer the lower
        # index on exact ties so rebuilds are reproducible.
        if cost_u < cost_v or (cost_u == cost_v and u < v):
            return cost_u, u, v
        return cost_v, v, u

    def shared_face_opposites(self, u: int, v: int) -> set:
        opp = set()
        for fi in self.vertex_faces[u] & self.vertex_faces[v]:
            opp.update(w for w in self.faces[fi] if w != u and w != v)
        return opp

    def collapse_is_legal(self, u: int, v: int) -> bool:
        shared = self.vertex_faces[u] & self.vertex_faces[v]
        if not 1 <= len(shared) <= 2:
            return False
        common = self.neighbors[u] & self.neighbors[v]
        return common == self.shared_face_opposites(u, v)

    def collapse(self, keep: int, drop: int):
        """Merge `drop` into `keep`. Faces of both die, and every other face
        of `drop` is rewritten to name `keep`, so an alive face always names
        three distinct alive vertices."""
        dead = self.vertex_faces[keep] & self.vertex_faces[drop]
        for fi in dead:
            self.face_alive[fi] = False
            for w in self.faces[fi]:
                self.vertex_faces[w].discard(fi)
        for fi in list(self.vertex_faces[drop]):
            f = self.faces[fi]
            self.faces[fi] = tuple(keep if w == drop else w for w in f)
            self.vertex_faces[drop].discard(fi)
            self.vertex_faces[keep].add(fi)
        for w in self.neighbors[drop]:
            self.neighbors[w].discard(drop)
            if w != keep:
                self.neighbors[w].add(keep)
                self.neighbors[keep].add(w)
        self.neighbors[keep].discard(keep)
        self.neighbors[drop] = set()
        self.quadrics[keep] = self.quadrics[keep] + self.quadrics[drop]
        self.alive[drop] = False


def qem_decimate(topology: TemplateTopology, ref_coords: np.ndarray,
                 factor: float):
    """One decimation step.

    Returns (coarse topology, coarse reference coords, down op, up op).
    Raises MeshError when no legal collapse remains before the target size
    is reached, or when the step would not strictly shrink the mesh.
    """
    coords = np.asarray(ref_coords, dtype=np.float64)
    n = topology.vertex_count
    target = coarse_size(n, factor)
    if target >= n:
        raise MeshError(
            f"cannot decimate {n} vertices by factor {factor}: target {target} "
            f"is not a strict reduction (minimum level size is {MIN_LEVEL_SIZE})")

    state = _CollapseState(topology, coords)
    heap = []

    def push(u, v):
        a, b = (u, v) if u < v else (v, u)
        stamp = state.stamp.get((a, b), 0) + 1
        state.stamp[(a, b)] = stamp
        cost, keep, drop = state.edge_cost(u, v)
        heapq.heappush(heap, (cost, a, b, stamp, keep, drop))

    for u in range(n):
        for v in state.neighbors[u]:
            if u < v:
                push(u, v)

    remaining = n
    while remaining > target:
        if not heap:
            raise MeshError(
                f"decimation stuck at {remaining} vertices (target {target}): "
                "no legal edge collapse remains")
        cost, a, b, stamp, keep, drop = heapq.heappop(heap)
        if state.stamp.get((a, b)) != stamp:
            continue
        if not (state.alive[a] and state.alive[b] and b in state.neighbors[a]):
            continue
        if not state.collapse_is_legal(a, b):
            continue
        state.collapse(keep, drop)
        remaining -= 1
        for w in state.neighbors[keep]:
            push(keep, w)

    survivors = np.flatnonzero(state.alive)
    fine_to_coarse = {int(f): c for c, f in enumerate(survivors)}

    coarse_faces = []
    seen_faces = set()
    for fi, f in enumerate(state.faces):
        if not state.face_alive[fi]:
            continue
        mapped = tuple(fine_to_coarse[w] for w in f)
        k = mapped.index(min(mapped))
        canon = mapped[k:] + mapped[:k]
        if canon in seen_faces:
            continue
        seen_faces.add(canon)
        coarse_faces.append(canon)

    try:
        coarse_topo = build_topology(len(survivors), coarse_faces)
    except MeshError as e:
        raise MeshError(f"decimation produced an invalid coarse mesh: {e}") from e
    coarse_coords = coords[survivors]

    down = SamplingOperator(
        rows=len(survivors), cols=n,
        row_idx=np.arange(len(survivors), dtype=np.int32),
        col_idx=survivors.astype(np.int32),
        weights=np.ones(len(survivors)), kind="down")

    up_rows, up_cols, up_weights = [], [], []
    tri_coords = coarse_coords[np.asarray(coarse_faces, dtype=np.int64)]
    for v in range(n):
        if state.alive[v]:
            up_rows.append(v)
            up_cols.append(fine_to_coarse[v])
            up_weights.append(1.0)
            continue
        w, dist2 = closest_point_weights(coords[v], tri_coords)
        best = int(np.argmin(dist2))
        for corner, weight in zip(coarse_faces[best], w[best]):
            if weight > 1e-12:
                up_rows.append(v)
                up_cols.append(corner)
                up_weights.append(float(weight))
    up = SamplingOperator(
        rows=n, cols=len(survivors),
        row_idx=np.array(up_rows, dtype=np.int32),
        col_idx=np.array(up_cols, dtype=np.int32),
        weights=np.array(up_weights), kind="up")

    return coarse_topo, coarse_coords, down, up
