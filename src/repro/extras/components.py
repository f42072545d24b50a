"""Data-parallel polygonization: connected components of a line map.

The paper's conclusion cites *polygonization* [Hoel93] as an operation
built from the same primitives.  Its substrate is connectivity: two
segments belong to one chain/polygon when they share an endpoint.  This
module implements that pipeline in scan-model style:

1. **vertex identification** -- the 2n endpoints are sorted and
   collapsed with the *duplicate deletion* primitive of Section 4.3
   (its advertised use-case);
2. **connected components** -- Shiloach-Vishkin-style hooking with
   pointer jumping: every round each vertex grabs its smallest
   neighbouring label and then halves its pointer chain, giving
   convergence in O(log n) rounds of O(1) primitives each;
3. **polygon detection** -- a component whose every vertex has degree 2
   is a closed chain (a polygon boundary); open chains and trees are
   classified accordingly.

Every step reports to the accounting machine, so polygonization shows
up in cost audits as the scans/permutes it really spends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..geometry.segment import validate_segments
from ..machine import Machine, get_machine
from ..machine.permute import gather
from ..primitives.dupdelete import delete_duplicates

__all__ = ["MapTopology", "connected_components", "polygonize"]


@dataclass(frozen=True)
class MapTopology:
    """Connectivity structure of a line map.

    Attributes
    ----------
    vertices:
        ``(v, 2)`` unique endpoint coordinates.
    seg_vertex:
        ``(n, 2)`` vertex ids of each segment's endpoints.
    vertex_component, segment_component:
        Component labels (smallest member vertex id, so labels are
        stable and order-independent).
    vertex_degree:
        Number of incident segments per vertex.
    rounds:
        Pointer-jumping rounds the labelling needed (O(log n)).
    """

    vertices: np.ndarray
    seg_vertex: np.ndarray
    vertex_component: np.ndarray
    segment_component: np.ndarray
    vertex_degree: np.ndarray
    rounds: int

    @property
    def num_components(self) -> int:
        return int(np.unique(self.vertex_component).size) if self.vertices.size else 0

    def component_of(self, segment_id: int) -> int:
        return int(self.segment_component[segment_id])

    def is_closed_chain(self, component: int) -> bool:
        """True when every vertex of the component has degree exactly 2.

        Such a component is a union of closed loops -- for a simple map,
        a polygon boundary.
        """
        members = self.vertex_component == component
        if not members.any():
            raise KeyError(f"no component labelled {component}")
        return bool(np.all(self.vertex_degree[members] == 2))


def _identify_vertices(segments: np.ndarray, m: Machine
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Collapse the 2n endpoints into unique vertices via Section 4.3.

    Returns ``(vertices, seg_vertex)``.
    """
    n = segments.shape[0]
    pts = np.concatenate([segments[:, 0:2], segments[:, 2:4]])  # (2n, 2)
    # sort endpoints lexicographically so duplicates become adjacent
    key_order = np.lexsort((pts[:, 1], pts[:, 0]))
    m.record("sort", 2 * n)
    sorted_pts = pts[key_order]
    same = np.zeros(2 * n, dtype=bool)
    if n:
        same[1:] = np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)
    m.record("elementwise", 2 * n)
    # duplicate deletion compacts the unique vertices (the primitive's job)
    res = delete_duplicates(same, sorted_pts[:, 0], sorted_pts[:, 1], machine=m)
    vertices = np.column_stack(res.arrays)
    # every endpoint learns its vertex id: inclusive sum of "new vertex" flags
    vid_sorted = np.cumsum(~same) - 1
    m.record("scan", 2 * n)
    vid = np.empty(2 * n, dtype=np.int64)
    vid[key_order] = vid_sorted
    m.record("permute", 2 * n)
    seg_vertex = np.column_stack([vid[:n], vid[n:]])
    return vertices, seg_vertex


def connected_components(segments: np.ndarray,
                         machine: Optional[Machine] = None) -> MapTopology:
    """Label the connected components of a segment map (scan-model style).

    Labels are the smallest vertex id in each component; segments take
    their endpoints' (equal) labels.  Runs O(log v) pointer-jumping
    rounds, each a constant number of gathers/elementwise steps.
    """
    segments = validate_segments(segments)
    m = machine or get_machine()
    n = segments.shape[0]
    if n == 0:
        z2 = np.zeros((0, 2))
        zi = np.zeros(0, dtype=np.int64)
        return MapTopology(z2, np.zeros((0, 2), np.int64), zi, zi, zi, 0)

    vertices, seg_vertex = _identify_vertices(segments, m)
    v = vertices.shape[0]
    u = seg_vertex[:, 0]
    w = seg_vertex[:, 1]

    label = np.arange(v, dtype=np.int64)
    rounds = 0
    while True:
        rounds += 1
        # hooking: each edge offers its smaller endpoint label to the other
        lu = gather(label, u, machine=m)
        lw = gather(label, w, machine=m)
        m.record("elementwise", n)
        offer = np.minimum(lu, lw)
        proposal = label.copy()
        np.minimum.at(proposal, u, offer)
        np.minimum.at(proposal, w, offer)
        m.record("permute", n)  # the concurrent-min writes, priced as routing
        # pointer jumping: label <- label[label], halving chains
        jumped = gather(proposal, proposal, machine=m)
        m.record("elementwise", v)
        changed = not np.array_equal(jumped, label)
        label = jumped
        if not changed:
            break
        if rounds > 2 * (int(np.log2(max(v, 2))) + 2) + 4:
            raise RuntimeError("component labelling failed to converge")

    seg_label = gather(label, u, machine=m)
    degree = np.bincount(np.concatenate([u, w]), minlength=v)
    return MapTopology(vertices, seg_vertex, label, seg_label,
                       degree.astype(np.int64), rounds)


@dataclass(frozen=True)
class Chain:
    """One extracted chain: ordered vertex ids, closed or open."""

    vertices: List[int]
    segments: List[int]
    closed: bool


def polygonize(segments: np.ndarray,
               machine: Optional[Machine] = None) -> List[Chain]:
    """Extract maximal chains (closed = polygons) from a line map.

    Components whose vertices all have degree 2 are traversed into
    closed loops; degree-1 vertices seed open chains.  Branching
    vertices (degree > 2) terminate chains, so a T-junction yields three
    chains meeting at the junction.  The traversal itself is the
    sequential finishing step ([Hoel93] keeps it on the front end); the
    connectivity labelling above is the data-parallel part.
    """
    topo = connected_components(segments, machine=machine)
    n = topo.seg_vertex.shape[0]
    if n == 0:
        return []

    # vertex -> incident (segment, other endpoint) lists
    incident: List[List[tuple[int, int]]] = [[] for _ in range(topo.vertices.shape[0])]
    for s, (a, b) in enumerate(topo.seg_vertex):
        incident[int(a)].append((s, int(b)))
        incident[int(b)].append((s, int(a)))

    used = np.zeros(n, dtype=bool)
    chains: List[Chain] = []

    def walk(start_vertex: int, first: tuple[int, int]) -> Chain:
        verts = [start_vertex]
        segs: List[int] = []
        seg, cur = first
        while True:
            used[seg] = True
            segs.append(seg)
            verts.append(cur)
            if cur == verts[0]:
                return Chain(verts, segs, closed=True)
            nxt = [(s, o) for s, o in incident[cur] if not used[s]]
            if topo.vertex_degree[cur] != 2 or not nxt:
                return Chain(verts, segs, closed=False)
            seg, cur = nxt[0]

    # open chains first: seed at every non-degree-2 vertex
    for vtx in np.flatnonzero(topo.vertex_degree != 2):
        for seg, other in incident[int(vtx)]:
            if not used[seg]:
                chains.append(walk(int(vtx), (seg, other)))
    # remaining segments belong to pure loops
    for seg in range(n):
        if not used[seg]:
            a = int(topo.seg_vertex[seg, 0])
            b = int(topo.seg_vertex[seg, 1])
            chains.append(walk(a, (seg, b)))
    return chains
