"""Tests for the DynamicHCL facade extensions (batch, decremental,
landmark maintenance, paths, fast construction)."""

import pytest

from repro.core.construction import build_hcl
from repro.core.decremental import apply_edge_deletion
from repro.core.dynamic import DynamicHCL
from repro.core.validation import check_matches_rebuild
from repro.exceptions import EdgeNotFoundError, LabellingError
from repro.graph.generators import grid_graph

from tests.conftest import non_edges, random_connected_graph


def make_oracle(seed=47, num_landmarks=2):
    graph = random_connected_graph(seed, n_min=12, n_max=20)
    return DynamicHCL.build(graph, num_landmarks=num_landmarks)


class TestConstructionModes:
    def test_csr_construction_equals_python(self):
        graph = random_connected_graph(8, n_min=12, n_max=20)
        python = DynamicHCL.build(graph.copy(), num_landmarks=3)
        csr = DynamicHCL.build(graph.copy(), num_landmarks=3, construction="csr")
        assert python.labelling == csr.labelling

    def test_unknown_construction_rejected(self):
        with pytest.raises(ValueError):
            DynamicHCL.build(grid_graph(2, 2), num_landmarks=1, construction="gpu")


class TestBatchInsert:
    def test_batch_matches_rebuild(self):
        oracle = make_oracle(seed=52)
        batch = non_edges(oracle.graph)[:4]
        stats = oracle.insert_edges_batch(batch)
        assert stats.batch_size == len(batch)
        for a, b in batch:
            assert oracle.graph.has_edge(a, b)
            assert oracle.query(a, b) == 1
        check_matches_rebuild(oracle.graph, oracle.labelling)

    def test_batch_equals_sequential_facade(self):
        seed = 61
        batch_oracle = make_oracle(seed)
        seq_oracle = DynamicHCL(
            batch_oracle.graph.copy(),
            build_hcl(batch_oracle.graph, batch_oracle.landmarks),
        )
        edges = non_edges(batch_oracle.graph)[:3]
        batch_oracle.insert_edges_batch(edges)
        seq_oracle.insert_edges(edges)
        assert batch_oracle.labelling == seq_oracle.labelling


class TestRemoveEdge:
    def test_partial_strategy_default(self):
        oracle = make_oracle(seed=71)
        edge = next(iter(oracle.graph.edges()))
        stats = oracle.remove_edge(*edge)
        assert not oracle.graph.has_edge(*edge)
        assert hasattr(stats, "affected_per_landmark")
        check_matches_rebuild(oracle.graph, oracle.labelling)

    def test_rebuild_strategy(self):
        oracle = make_oracle(seed=72)
        edge = next(iter(oracle.graph.edges()))
        apply_edge_deletion(oracle.graph, oracle.labelling, *edge)
        check_matches_rebuild(oracle.graph, oracle.labelling)

    def test_strategies_agree(self):
        """DecHL through the facade and the coarse per-landmark rebuild
        end on the same labelling."""
        seed = 73
        partial = make_oracle(seed)
        graph = partial.graph.copy()
        rebuilt = build_hcl(graph, partial.landmarks)
        edge = sorted(partial.graph.edges())[0]
        partial.remove_edge(*edge)
        apply_edge_deletion(graph, rebuilt, *edge)
        assert partial.labelling == rebuilt

    @pytest.mark.parametrize("fast", [True, False])
    def test_absent_edge_raises_without_version_bump(self, fast):
        oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
        labelling = build_hcl(oracle.graph, [4])
        with pytest.raises(EdgeNotFoundError):
            oracle.remove_edge(0, 8, fast=fast)
        with pytest.raises(EdgeNotFoundError):
            oracle.remove_edge(0, 99, fast=fast)  # unknown endpoint
        assert oracle.version == 0
        assert oracle.graph.num_edges == 12
        assert oracle.labelling == labelling


class TestRemoveVertex:
    def test_remove_plain_vertex(self):
        oracle = make_oracle(seed=81)
        victim = next(
            v
            for v in sorted(oracle.graph.vertices())
            if v not in oracle.labelling.landmark_set
        )
        oracle.remove_vertex(victim)
        assert not oracle.graph.has_vertex(victim)
        check_matches_rebuild(oracle.graph, oracle.labelling)

    def test_remove_landmark_vertex_requires_demotion(self):
        oracle = make_oracle(seed=82, num_landmarks=2)
        landmark = oracle.landmarks[0]
        with pytest.raises(LabellingError):
            oracle.remove_vertex(landmark)
        oracle.remove_landmark(landmark)
        oracle.remove_vertex(landmark)
        assert not oracle.graph.has_vertex(landmark)
        check_matches_rebuild(oracle.graph, oracle.labelling)


class TestLandmarkMaintenance:
    def test_add_and_remove_roundtrip(self):
        oracle = make_oracle(seed=91)
        snapshot = oracle.labelling.copy()
        extra = next(
            v
            for v in sorted(oracle.graph.vertices())
            if v not in oracle.labelling.landmark_set
        )
        oracle.add_landmark(extra)
        assert extra in oracle.labelling.landmark_set
        check_matches_rebuild(oracle.graph, oracle.labelling)
        oracle.remove_landmark(extra)
        assert oracle.labelling == snapshot


class TestPaths:
    def test_shortest_path_matches_query(self):
        oracle = make_oracle(seed=95)
        vertices = sorted(oracle.graph.vertices())
        u, v = vertices[0], vertices[-1]
        path = oracle.shortest_path(u, v)
        assert len(path) - 1 == oracle.query(u, v)

    def test_approximate_path_matches_bound(self):
        oracle = make_oracle(seed=96)
        vertices = [
            v
            for v in sorted(oracle.graph.vertices())
            if v not in oracle.labelling.landmark_set
        ]
        u, v = vertices[0], vertices[-1]
        path = oracle.approximate_path(u, v)
        assert len(path) - 1 == oracle.distance_bound(u, v)
