"""Tests for the query engine: Q(u, v, Γ) must be exact everywhere."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.construction import build_hcl
from repro.core.highway import Highway
from repro.core.labelling import HighwayCoverLabelling
from repro.core.labels import LabelStore
from repro.core.query import landmark_distance, query_distance, upper_bound
from repro.exceptions import VertexNotFoundError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import grid_graph
from repro.graph.traversal import INF

from tests.conftest import (
    all_pairs_distances,
    random_connected_graph,
)


class TestLandmarkDistance:
    def test_self_distance(self, path_graph):
        gamma = build_hcl(path_graph, [2])
        assert landmark_distance(gamma, 2, 2) == 0

    def test_landmark_to_landmark_uses_highway(self, path_graph):
        gamma = build_hcl(path_graph, [0, 4])
        assert landmark_distance(gamma, 0, 4) == 4

    def test_landmark_to_vertex(self, path_graph):
        gamma = build_hcl(path_graph, [0])
        assert landmark_distance(gamma, 0, 3) == 3

    def test_unreachable(self):
        g = DynamicGraph.from_edges([(0, 1)], num_vertices=3)
        gamma = build_hcl(g, [0])
        assert landmark_distance(gamma, 0, 2) == INF

    def test_via_other_landmark(self):
        # 0 -- 1 -- 2: entry of 0 at vertex 2 is pruned (landmark 1 on the
        # path) so the decoder must go via the highway.
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        gamma = build_hcl(g, [0, 1])
        assert landmark_distance(gamma, 0, 2) == 2


class TestUpperBound:
    def test_upper_bound_is_exact_through_landmark(self):
        g = grid_graph(3, 3)
        gamma = build_hcl(g, [4])  # centre vertex
        # every 0-8 shortest path passes the centre -> bound is exact
        assert upper_bound(gamma, 0, 8) == 4

    def test_upper_bound_overestimates_when_avoiding_landmark(self, path_graph):
        gamma = build_hcl(path_graph, [4])
        # d(0,1) = 1, but via landmark 4 the bound is 4 + 3 = 7
        assert upper_bound(gamma, 0, 1) == 7

    def test_empty_label_gives_inf(self):
        g = DynamicGraph.from_edges([(0, 1)], num_vertices=4)
        g.add_edge(2, 3)
        gamma = build_hcl(g, [0])
        assert upper_bound(gamma, 2, 3) == INF


def exhaustive_upper_bound(labelling, u, v):
    """Eq. (2) by brute force: the min of ``du + δ_H(ri, rj) + dv`` over
    every pair in ``L(u) × L(v)``, unreachable highway pairs skipped."""
    candidates = [
        du + labelling.highway.distance(ri, rj) + dv
        for ri, du in labelling.labels.label(u).items()
        for rj, dv in labelling.labels.label(v).items()
    ]
    return min(candidates, default=INF)


@st.composite
def random_labellings(draw):
    """A highway over 1–6 landmarks with some pairs unreachable, and
    labels for the non-landmarks 0 and 1 (sizes drawn independently, so
    either may be the smaller or empty; shared landmarks are common)."""
    landmarks = list(range(100, 100 + draw(st.integers(1, 6))))
    highway = Highway(landmarks)
    for i, ri in enumerate(landmarks):
        for rj in landmarks[i + 1 :]:
            if draw(st.booleans()):
                highway.set_distance(ri, rj, draw(st.integers(1, 9)))
    labels = LabelStore()
    for v in (0, 1):
        chosen = draw(st.lists(st.sampled_from(landmarks), unique=True))
        for r in chosen:
            labels.set_entry(v, r, draw(st.integers(1, 9)))
    return HighwayCoverLabelling(highway, labels)


class TestUpperBoundJoin:
    """The pruned join equals the exhaustive Eq. (2) min."""

    @given(random_labellings())
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_join(self, gamma):
        expected = exhaustive_upper_bound(gamma, 0, 1)
        assert upper_bound(gamma, 0, 1) == expected
        assert upper_bound(gamma, 1, 0) == expected

    def test_unequal_sizes_swap(self):
        highway = Highway([10, 11, 12])
        highway.set_distance(10, 11, 2)
        highway.set_distance(11, 12, 1)
        highway.set_distance(10, 12, 3)
        labels = LabelStore()
        labels.set_entry(0, 12, 1)
        for r, d in ((10, 1), (11, 5), (12, 7)):
            labels.set_entry(1, r, d)
        gamma = HighwayCoverLabelling(highway, labels)
        # best is 0 -(1)- 12 -(3)- 10 -(1)- 1; via 11 costs 7, via 12 alone 8
        assert upper_bound(gamma, 0, 1) == upper_bound(gamma, 1, 0) == 5
        assert exhaustive_upper_bound(gamma, 0, 1) == 5

    def test_shared_landmark_via_zero(self):
        highway = Highway([10, 11])
        highway.set_distance(10, 11, 1)
        labels = LabelStore()
        labels.set_entry(0, 10, 3)
        labels.set_entry(0, 11, 1)
        labels.set_entry(1, 10, 2)
        gamma = HighwayCoverLabelling(highway, labels)
        # via 11 then 10 costs 1 + 1 + 2 = 4; through the shared 10, 3 + 0 + 2
        assert upper_bound(gamma, 0, 1) == 4
        labels.set_entry(1, 11, 1)
        assert upper_bound(gamma, 0, 1) == 2

    def test_missing_highway_entries(self):
        highway = Highway([10, 11, 12])
        highway.set_distance(11, 12, 4)
        labels = LabelStore()
        labels.set_entry(0, 10, 1)
        labels.set_entry(1, 11, 1)
        gamma = HighwayCoverLabelling(highway, labels)
        assert upper_bound(gamma, 0, 1) == INF
        labels.set_entry(0, 12, 2)
        assert upper_bound(gamma, 0, 1) == 7

    def test_empty_label(self):
        highway = Highway([10])
        labels = LabelStore()
        labels.set_entry(0, 10, 1)
        gamma = HighwayCoverLabelling(highway, labels)
        assert upper_bound(gamma, 0, 1) == INF
        assert upper_bound(gamma, 1, 0) == INF
        assert upper_bound(gamma, 1, 2) == INF


class TestQueryDistance:
    def test_same_vertex(self, path_graph):
        gamma = build_hcl(path_graph, [0])
        assert query_distance(path_graph, gamma, 3, 3) == 0

    def test_unknown_vertices(self, path_graph):
        gamma = build_hcl(path_graph, [0])
        with pytest.raises(VertexNotFoundError):
            query_distance(path_graph, gamma, 0, 99)
        with pytest.raises(VertexNotFoundError):
            query_distance(path_graph, gamma, 99, 0)

    def test_landmark_endpoints(self, path_graph):
        gamma = build_hcl(path_graph, [0, 4])
        assert query_distance(path_graph, gamma, 0, 3) == 3
        assert query_distance(path_graph, gamma, 3, 4) == 1
        assert query_distance(path_graph, gamma, 0, 4) == 4

    def test_sparsified_search_beats_bound(self, path_graph):
        gamma = build_hcl(path_graph, [4])
        # bound through landmark 4 is 7, true distance 1 found by search
        assert query_distance(path_graph, gamma, 0, 1) == 1

    def test_disconnected(self):
        g = DynamicGraph.from_edges([(0, 1)], num_vertices=4)
        g.add_edge(2, 3)
        gamma = build_hcl(g, [0])
        assert query_distance(g, gamma, 0, 2) == INF
        assert query_distance(g, gamma, 2, 3) == 1

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_exhaustive_exactness_random_graphs(self, seed):
        """Q equals BFS truth on every pair of a random connected graph."""
        g = random_connected_graph(seed, n_max=18)
        k = 1 + seed % min(4, g.num_vertices)
        landmarks = sorted(g.vertices(), key=lambda v: -g.degree(v))[:k]
        gamma = build_hcl(g, landmarks)
        truth = all_pairs_distances(g)
        for u in g.vertices():
            for v in g.vertices():
                assert query_distance(g, gamma, u, v) == truth[u].get(v, INF)

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_all_landmarks_degenerate(self, seed):
        """Every vertex a landmark: labels empty, highway answers all."""
        g = random_connected_graph(seed, n_max=10)
        gamma = build_hcl(g, list(g.vertices()))
        assert gamma.labels.total_entries == 0
        truth = all_pairs_distances(g)
        for u in g.vertices():
            for v in g.vertices():
                assert query_distance(g, gamma, u, v) == truth[u].get(v, INF)
