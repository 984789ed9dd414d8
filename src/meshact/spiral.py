"""Canonical spiral vertex orderings.

A spiral of length l for vertex v lists v itself, then its 1-ring, 2-ring,
... in counterclockwise orientation (per face winding), truncated or padded
with PAD_SENTINEL to exactly l entries. Ring-by-ring ordering rule:

  * ring 1 is v's oriented adjacency (already rotated so the lowest-index
    neighbor comes first for interior vertices);
  * ring k+1 is built by walking ring k in order and appending, for each
    vertex u, u's oriented neighbors that lie at graph distance k+1 from v,
    keeping only first occurrences.

The first entry of ring k+1 is therefore always adjacent to the first entry
of ring k, and the whole table is a pure function of the topology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshError
from .topology import TemplateTopology

PAD_SENTINEL = -1


@dataclass(frozen=True)
class SpiralIndexTable:
    """(V, l) spiral index rows; sentinel entries form a contiguous tail."""

    length: int
    indices: np.ndarray            # (V, l) int32

    @property
    def vertex_count(self) -> int:
        return len(self.indices)


def spiral_for_vertex(topology: TemplateTopology, v: int, length: int) -> list[int]:
    """Spiral ordering for one vertex, padded/truncated to `length`."""
    spiral = [v]
    ring = [int(u) for u in topology.adjacency[v]]
    if not ring:
        raise MeshError(f"vertex {v} is isolated; cannot enumerate rings")
    # A neighbor of ring k is in ring k-1, k or k+1: unvisited means k+1.
    visited = {v, *ring}
    while ring and len(spiral) < length:
        spiral.extend(ring)
        nxt = []
        for u in ring:
            for w in topology.adjacency[u]:
                w = int(w)
                if w not in visited:
                    visited.add(w)
                    nxt.append(w)
        ring = nxt
    spiral = spiral[:length]
    spiral += [PAD_SENTINEL] * (length - len(spiral))
    return spiral


def build_spiral_table(topology: TemplateTopology,
                       length: int) -> SpiralIndexTable:
    """Spiral table for every vertex; the ordering rule is purely
    combinatorial, so geometry never breaks a tie."""
    if length < 1:
        raise ValueError("spiral length must be >= 1")
    rows = [spiral_for_vertex(topology, v, length)
            for v in range(topology.vertex_count)]
    return SpiralIndexTable(length=length,
                            indices=np.array(rows, dtype=np.int32))
