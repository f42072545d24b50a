"""Connected-components / polygonization tests ([Hoel93] application)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import paper_dataset, random_segments, star_map
from repro.machine import Machine
from repro.extras import connected_components, polygonize


def nx_components(topo):
    """Reference partition from networkx over the same vertex graph."""
    g = nx.Graph()
    g.add_nodes_from(range(topo.vertices.shape[0]))
    for a, b in topo.seg_vertex:
        g.add_edge(int(a), int(b))
    return {frozenset(c) for c in nx.connected_components(g)}


def label_partition(topo):
    groups = {}
    for vid, lab in enumerate(topo.vertex_component):
        groups.setdefault(int(lab), set()).add(vid)
    return {frozenset(c) for c in groups.values()}


class TestVertexIdentification:
    def test_shared_endpoints_collapse(self):
        segs = paper_dataset()
        topo = connected_components(segs)
        # 18 endpoints, but c, d, i share (1, 6): at most 16 distinct
        assert topo.vertices.shape[0] <= 16
        a, b, c = topo.seg_vertex[2, 0], topo.seg_vertex[3, 0], topo.seg_vertex[8, 0]
        assert a == b == c  # all three map to the same vertex id

    def test_degrees(self):
        square = np.array([[0, 0, 4, 0], [4, 0, 4, 4], [4, 4, 0, 4], [0, 4, 0, 0]],
                          float)
        topo = connected_components(square)
        assert topo.vertices.shape[0] == 4
        assert list(topo.vertex_degree) == [2, 2, 2, 2]


class TestComponents:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_networkx(self, seed):
        segs = random_segments(150, 256, 24, seed=seed)
        topo = connected_components(segs)
        assert label_partition(topo) == nx_components(topo)

    def test_disjoint_islands(self):
        a = np.array([[0, 0, 2, 2], [2, 2, 4, 0]], float)
        b = a + 50
        topo = connected_components(np.vstack([a, b]))
        assert topo.num_components == 2
        assert topo.segment_component[0] == topo.segment_component[1]
        assert topo.segment_component[0] != topo.segment_component[2]

    def test_long_path_converges_logarithmically(self):
        n = 1024
        xs = np.arange(n + 1, dtype=float)
        segs = np.column_stack([xs[:-1], np.zeros(n), xs[1:], np.zeros(n)])
        topo = connected_components(segs)
        assert topo.num_components == 1
        assert topo.rounds <= int(np.log2(n)) + 4

    def test_labels_are_smallest_member(self):
        segs = random_segments(60, 128, 24, seed=7)
        topo = connected_components(segs)
        for lab in np.unique(topo.vertex_component):
            members = np.flatnonzero(topo.vertex_component == lab)
            assert lab == members.min()

    def test_empty_map(self):
        topo = connected_components(np.zeros((0, 4)))
        assert topo.num_components == 0

    def test_cost_recorded(self):
        m = Machine()
        connected_components(random_segments(50, 64, 16, seed=1), machine=m)
        assert m.counts.get("sort", 0) >= 1
        assert m.counts.get("permute", 0) >= 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_property(self, seed):
        segs = random_segments(40, 64, 16, seed=seed)
        topo = connected_components(segs)
        assert label_partition(topo) == nx_components(topo)
        # both endpoints of every segment share the segment's label
        for s, (a, b) in enumerate(topo.seg_vertex):
            assert topo.vertex_component[a] == topo.vertex_component[b] \
                == topo.segment_component[s]


class TestPolygonize:
    def test_square_is_one_closed_chain(self):
        square = np.array([[0, 0, 4, 0], [4, 0, 4, 4], [4, 4, 0, 4], [0, 4, 0, 0]],
                          float)
        chains = polygonize(square)
        assert len(chains) == 1
        assert chains[0].closed
        assert len(chains[0].segments) == 4
        assert chains[0].vertices[0] == chains[0].vertices[-1]

    def test_open_polyline(self):
        path = np.array([[0, 0, 2, 0], [2, 0, 4, 1], [4, 1, 6, 1]], float)
        chains = polygonize(path)
        assert len(chains) == 1
        assert not chains[0].closed
        assert len(chains[0].segments) == 3

    def test_t_junction_breaks_chains(self):
        t = np.array([[0, 0, 4, 0], [4, 0, 8, 0], [4, 0, 4, 4]], float)
        chains = polygonize(t)
        assert len(chains) == 3
        assert all(not c.closed for c in chains)

    def test_two_shapes(self):
        square = np.array([[0, 0, 4, 0], [4, 0, 4, 4], [4, 4, 0, 4], [0, 4, 0, 0]],
                          float)
        tri = np.array([[10, 10, 14, 10], [14, 10, 12, 14], [12, 14, 10, 10]], float)
        chains = polygonize(np.vstack([square, tri]))
        closed_sizes = sorted(len(c.segments) for c in chains if c.closed)
        assert closed_sizes == [3, 4]

    def test_every_segment_in_exactly_one_chain(self):
        segs = random_segments(80, 128, 24, seed=9)
        chains = polygonize(segs)
        seen = sorted(s for c in chains for s in c.segments)
        assert seen == list(range(80))

    def test_is_closed_chain_classifier(self):
        square = np.array([[0, 0, 4, 0], [4, 0, 4, 4], [4, 4, 0, 4], [0, 4, 0, 0]],
                          float)
        open_part = np.array([[20, 20, 24, 20]], float)
        topo = connected_components(np.vstack([square, open_part]))
        sq_comp = topo.component_of(0)
        open_comp = topo.component_of(4)
        assert topo.is_closed_chain(sq_comp)
        assert not topo.is_closed_chain(open_comp)
        with pytest.raises(KeyError):
            topo.is_closed_chain(10**9)

    def test_star_map_chains_meet_at_center(self):
        segs = star_map(stars=1, rays=5, radius=16, domain=64, seed=3)
        chains = polygonize(segs)
        assert len(chains) == segs.shape[0]  # each ray is its own chain
