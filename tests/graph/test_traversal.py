"""Tests for BFS/Dijkstra primitives, including the bounded/bidirectional
searches that implement the paper's sparsified query step."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import VertexNotFoundError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.digraph import DynamicDiGraph
from repro.graph.generators import grid_graph, ring_of_cliques
from repro.graph.traversal import (
    INF,
    bfs_distances,
    bfs_distances_bounded,
    bfs_distances_directed,
    bfs_with_parents,
    bidirectional_bfs,
    bidirectional_dijkstra,
    dijkstra_distances,
)
from repro.graph.weighted import WeightedGraph

from tests.conftest import (
    random_connected_graph,
    reference_bfs,
    reference_distance_avoiding,
)


class TestBfsDistances:
    def test_path_graph(self, path_graph):
        assert bfs_distances(path_graph, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_unreachable_vertices_absent(self):
        g = DynamicGraph.from_edges([(0, 1)], num_vertices=3)
        dist = bfs_distances(g, 0)
        assert 2 not in dist

    def test_unknown_source(self):
        with pytest.raises(VertexNotFoundError):
            bfs_distances(DynamicGraph(), 0)

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, seed):
        g = random_connected_graph(seed)
        for source in list(g.vertices())[:3]:
            assert bfs_distances(g, source) == reference_bfs(g, source)


class TestBoundedBfs:
    def test_bound_truncates(self, path_graph):
        dist = bfs_distances_bounded(path_graph, 0, bound=2)
        assert dist == {0: 0, 1: 1, 2: 2}

    def test_skip_excludes_interior(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)])
        dist = bfs_distances_bounded(g, 0, bound=10, skip={1})
        assert dist[2] == 3  # forced around via 3-4

    def test_skip_source_still_seeded(self, path_graph):
        dist = bfs_distances_bounded(path_graph, 2, bound=10, skip={2})
        assert dist[0] == 2

    def test_zero_bound(self, path_graph):
        assert bfs_distances_bounded(path_graph, 0, bound=0) == {0: 0}


class TestBfsWithParents:
    def test_parents_are_all_shortest_predecessors(self):
        g = DynamicGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        dist, parents = bfs_with_parents(g, 0)
        assert dist[3] == 2
        assert sorted(parents[3]) == [1, 2]
        assert parents[0] == []

    def test_single_path(self, path_graph):
        _, parents = bfs_with_parents(path_graph, 0)
        assert parents[4] == [3]

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_parent_levels_consistent(self, seed):
        g = random_connected_graph(seed)
        root = next(iter(g.vertices()))
        dist, parents = bfs_with_parents(g, root)
        for v, plist in parents.items():
            for p in plist:
                assert dist[p] == dist[v] - 1
                assert g.has_edge(p, v)


class TestBidirectionalBfs:
    def test_identical_endpoints(self, path_graph):
        assert bidirectional_bfs(path_graph, 2, 2) == 0

    def test_simple_distance(self, path_graph):
        assert bidirectional_bfs(path_graph, 0, 4) == 4

    def test_disconnected_returns_inf(self):
        g = DynamicGraph.from_edges([(0, 1)], num_vertices=4)
        assert bidirectional_bfs(g, 0, 3) == INF

    def test_bound_respected(self, path_graph):
        assert bidirectional_bfs(path_graph, 0, 4, bound=3) == INF
        assert bidirectional_bfs(path_graph, 0, 4, bound=4) == 4

    def test_skip_forces_detour(self):
        g = ring_of_cliques(4, 3)
        direct = bidirectional_bfs(g, 0, 3)
        detour = bidirectional_bfs(g, 0, 3, skip={g.num_vertices - 1})
        assert detour >= direct

    def test_skip_blocks_only_path(self, path_graph):
        assert bidirectional_bfs(path_graph, 0, 4, skip={2}) == INF

    def test_endpoints_allowed_in_skip(self, path_graph):
        assert bidirectional_bfs(path_graph, 0, 4, skip={0, 4}) == 4

    def test_unknown_vertices(self, path_graph):
        with pytest.raises(VertexNotFoundError):
            bidirectional_bfs(path_graph, 0, 99)
        with pytest.raises(VertexNotFoundError):
            bidirectional_bfs(path_graph, 99, 0)

    @given(st.integers(0, 300), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_random_graphs(self, seed, rng):
        g = random_connected_graph(seed)
        vertices = list(g.vertices())
        for _ in range(10):
            u = rng.choice(vertices)
            v = rng.choice(vertices)
            assert bidirectional_bfs(g, u, v) == reference_bfs(g, u).get(v, INF)

    @given(st.integers(0, 150), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_bound_semantics_on_random_graphs(self, seed, rng):
        """Exact iff true distance <= bound, INF otherwise."""
        g = random_connected_graph(seed)
        vertices = list(g.vertices())
        u, v = rng.choice(vertices), rng.choice(vertices)
        truth = reference_bfs(g, u).get(v, INF)
        for bound in (0, 1, 2, 3, 5, INF):
            got = bidirectional_bfs(g, u, v, bound=bound)
            assert got == (truth if truth <= bound else INF)


class TestBidirectionalBfsStopping:
    """The first meet is final, and the last level the bound allows is
    tested by adjacency instead of expanded."""

    @given(st.integers(0, 300), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_with_skip_and_bounds(self, seed, rng):
        g = random_connected_graph(seed)
        vertices = list(g.vertices())
        for _ in range(6):
            u, v = rng.choice(vertices), rng.choice(vertices)
            skip = set(rng.sample(vertices, rng.randint(0, len(vertices) // 2)))
            if rng.random() < 0.3:
                skip.add(u)
            if rng.random() < 0.3:
                skip.add(v)
            truth = reference_distance_avoiding(g, u, v, skip)
            for bound in (0, truth - 1, truth, truth + 1, INF):
                if bound < 0:
                    continue
                got = bidirectional_bfs(g, u, v, bound=bound, skip=skip)
                assert got == (truth if truth <= bound else INF), (u, v, skip, bound)

    def test_meet_in_the_middle_of_a_level(self):
        # Target side expands [7, 8]: 7 only leads to a dead end, 8 meets 3.
        g = DynamicGraph.from_edges(
            [(0, 1), (0, 2), (0, 3), (9, 7), (9, 8), (7, 6), (8, 3), (1, 4),
             (4, 5), (5, 6)]
        )
        for bound in (3, 4, INF):
            assert bidirectional_bfs(g, 0, 9, bound=bound) == 3
        assert bidirectional_bfs(g, 0, 9, bound=2) == INF

    def test_skipped_middle_vertex(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        assert bidirectional_bfs(g, 0, 2, bound=2, skip={1}) == INF
        g = DynamicGraph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)])
        assert bidirectional_bfs(g, 0, 2, bound=2, skip={1}) == INF
        assert bidirectional_bfs(g, 0, 2, bound=3, skip={1}) == 3

    def test_fractional_bound(self, path_graph):
        assert bidirectional_bfs(path_graph, 0, 3, bound=2.5) == INF
        assert bidirectional_bfs(path_graph, 0, 3, bound=3.5) == 3

    def test_both_endpoints_in_skip(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)])
        assert bidirectional_bfs(g, 0, 1, bound=1, skip={0, 1}) == 1
        assert bidirectional_bfs(g, 0, 3, bound=2, skip={0, 3}) == 2
        assert bidirectional_bfs(g, 0, 3, bound=2, skip={0, 3, 4}) == INF
        assert bidirectional_bfs(g, 0, 3, skip={0, 3, 4}) == 3


class TestDijkstra:
    def test_unit_weights_match_bfs(self):
        unweighted = grid_graph(4, 4)
        weighted = WeightedGraph.from_edges(
            [(u, v, 1.0) for u, v in unweighted.edges()]
        )
        bfs = bfs_distances(unweighted, 0)
        dij = dijkstra_distances(weighted, 0)
        assert dij == {v: float(d) for v, d in bfs.items()}

    def test_weighted_shortcut(self):
        g = WeightedGraph.from_edges([(0, 1, 10.0), (0, 2, 1.0), (2, 1, 1.0)])
        assert dijkstra_distances(g, 0)[1] == 2.0

    def test_bound(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 5.0)])
        dist = dijkstra_distances(g, 0, bound=2.0)
        assert 2 not in dist

    def test_skip(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        assert dijkstra_distances(g, 0, skip={1})[2] == 5.0

    def test_unknown_source(self):
        with pytest.raises(VertexNotFoundError):
            dijkstra_distances(WeightedGraph(), 0)


class TestBidirectionalDijkstra:
    def test_matches_single_source(self):
        g = WeightedGraph.from_edges(
            [(0, 1, 2.0), (1, 2, 2.0), (0, 3, 1.0), (3, 4, 1.0), (4, 2, 1.0)]
        )
        assert bidirectional_dijkstra(g, 0, 2) == 3.0

    def test_identical_endpoints(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        assert bidirectional_dijkstra(g, 0, 0) == 0.0

    def test_disconnected(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        g.add_vertex(5)
        assert bidirectional_dijkstra(g, 0, 5) == INF

    def test_bound(self):
        g = WeightedGraph.from_edges([(0, 1, 3.0)])
        assert bidirectional_dijkstra(g, 0, 1, bound=2.0) == INF
        assert bidirectional_dijkstra(g, 0, 1, bound=3.0) == 3.0

    @given(st.integers(0, 150), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_random_graphs_vs_full_dijkstra(self, seed, rng):
        base = random_connected_graph(seed)
        g = WeightedGraph()
        for v in base.vertices():
            g.add_vertex(v)
        for u, v in base.edges():
            g.add_edge(u, v, rng.choice([1.0, 2.0, 3.5]))
        vertices = list(g.vertices())
        u, v = rng.choice(vertices), rng.choice(vertices)
        truth = dijkstra_distances(g, u).get(v, INF)
        assert bidirectional_dijkstra(g, u, v) == truth


class TestDirectedBfs:
    def test_forward_vs_backward(self):
        g = DynamicDiGraph.from_edges([(0, 1), (1, 2)])
        assert bfs_distances_directed(g, 0, forward=True) == {0: 0, 1: 1, 2: 2}
        assert bfs_distances_directed(g, 0, forward=False) == {0: 0}
        assert bfs_distances_directed(g, 2, forward=False) == {2: 0, 1: 1, 0: 2}

    def test_unknown_source(self):
        with pytest.raises(VertexNotFoundError):
            bfs_distances_directed(DynamicDiGraph(), 0)
