"""The mixed-batch engine's one sweep over flat (landmark, vertex) ids.

The oracle is the reference route (``fast=False``): the labelling must
match it byte for byte.  Where the reference computes the same batch
repair — single events (IncHL+ / DecHL) and pure-insert batches
(``core/batch.py``) — every stat must match too.  For general mixed
batches the reference replays events one at a time, so its per-event
counters do not add up to one combined repair; there the stats are
checked against what the labellings and BFS distances before and after
the batch determine exactly.
"""

import random

from repro.core.dynamic import DynamicHCL
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import grid_graph
from repro.graph.traversal import bfs_distances

from tests.conftest import random_connected_graph
from tests.core.test_mixed_fast import assert_rows_exact


def stats_tuple(stats):
    return (
        stats.affected_per_landmark,
        stats.affected_union,
        stats.entries_added,
        stats.entries_modified,
        stats.entries_removed,
        stats.highway_updates,
    )


def pair_oracles(graph, landmarks):
    fast = DynamicHCL.build(graph.copy(), landmarks=landmarks, fast_updates=True)
    ref = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    return fast, ref


def distances(graph, landmarks):
    return {r: bfs_distances(graph, r) for r in landmarks}


def entry_keys(labels):
    return {(v, r) for v, label in labels.items() for r in label}


def check_batch_stats(stats, landmarks, labels_before, labels_after,
                      dist_before, dist_after, cells_before, cells_after):
    """Stats a combined repair must report, derived from before/after."""
    before, after = entry_keys(labels_before), entry_keys(labels_after)
    assert stats.entries_added == len(after - before)
    assert stats.entries_removed == len(before - after)
    changed_cells = {
        frozenset((r, s))
        for r in landmarks
        for s in landmarks
        if r != s and cells_before[r].get(s) != cells_after[r].get(s)
    }
    assert stats.highway_updates == len(changed_cells)
    lost = [
        (r, v)
        for r in landmarks
        for v in dist_before[r]
        if v not in dist_after[r]
    ]
    assert stats.disconnected == len(lost)
    union = set()
    for r in landmarks:
        changed = {
            v
            for v in set(dist_before[r]) | set(dist_after[r])
            if dist_before[r].get(v) != dist_after[r].get(v)
        }
        # Every pair whose distance moved is visited (re-deriving an
        # unchanged pair is allowed, so this is a lower bound).
        assert stats.affected_per_landmark[r] >= len(changed)
        union |= changed
    assert len(union) <= stats.affected_union <= sum(
        stats.affected_per_landmark.values()
    )
    assert list(stats.affected_per_landmark) == list(landmarks)


def apply_checked(fast, ref, events):
    """Apply ``events`` on both routes; return the fast route's stats."""
    landmarks = list(fast.landmarks)
    labels_before = fast.labelling.labels.copy()
    cells_before = fast.labelling.highway.as_dict()
    dist_before = distances(fast.graph, landmarks)
    stats = fast.apply_events_batch(events, fast=True)
    ref.apply_events_batch(events, fast=False)
    assert fast.labelling == ref.labelling
    assert_rows_exact(fast._fast_engine, fast.graph, landmarks)
    check_batch_stats(
        stats, landmarks, labels_before, fast.labelling.labels,
        dist_before, distances(fast.graph, landmarks),
        cells_before, fast.labelling.highway.as_dict(),
    )
    return stats


class TestFlatSweep:
    def test_new_vertices_grow_capacity_mid_batch(self):
        graph = random_connected_graph(4, n_min=16, n_max=16, density=1.8)
        landmarks = [0, 5, 9]
        fast, ref = pair_oracles(graph, landmarks)
        rng = random.Random(4)
        # A first batch builds the engine at the graph's exact width.
        u, v = next(
            (u, v) for u in range(16) for v in range(u + 1, 16)
            if not graph.has_edge(u, v)
        )
        apply_checked(fast, ref, [("insert", (u, v))])
        engine = fast._fast_engine
        width = engine._dist.shape[1]
        assert width == engine.dyn.num_vertices  # full: any new vertex grows it
        events = [("delete", e) for e in rng.sample(sorted(fast.graph.edges()), 3)]
        # A chain of new vertices hanging off the graph, and one bridging
        # back, so new (landmark, vertex) pairs settle in the same sweep
        # that repairs the deletions.
        events += [("insert", (3, 100)), ("insert", (100, 101)),
                   ("insert", (101, 102)), ("insert", (102, 12))]
        stats = apply_checked(fast, ref, events)
        assert fast._fast_engine is engine
        assert engine._dist.shape[1] > width
        assert all(stats.affected_per_landmark[r] >= 3 for r in landmarks)

    def test_vertex_cut_off_from_some_landmarks_only(self):
        # Two 4-cliques joined by the bridge (3, 4); landmark 0 on the
        # left, landmarks 5 and 7 on the right.
        graph = DynamicGraph.from_edges(
            [(a, b) for a in range(4) for b in range(a + 1, 4)]
            + [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
            + [(3, 4)]
        )
        landmarks = [0, 5, 7]
        fast, ref = pair_oracles(graph, landmarks)
        stats = apply_checked(fast, ref, [("delete", (3, 4))])
        # Left side (4 vertices) loses 5 and 7; right side loses 0.
        assert stats.disconnected == 4 * 2 + 4
        ref_stats = DynamicHCL.build(graph.copy(), landmarks=landmarks)
        single = ref_stats.apply_events_batch([("delete", (3, 4))], fast=False)
        assert stats_tuple(stats) == stats_tuple(single)
        for v in range(4):
            assert fast.query(v, 0) == min(v, 1) and fast.query(v, 6) == float("inf")
        # The cut pairs come back exactly when the bridge returns.
        stats = apply_checked(fast, ref, [("insert", (2, 6))])
        assert stats.disconnected == 0

    def test_landmark_cell_change_counted_once(self):
        graph = grid_graph(1, 6)  # path 0 - 1 - 2 - 3 - 4 - 5
        landmarks = [0, 5]
        fast, ref = pair_oracles(graph, landmarks)
        # Both landmarks' rows see the (0, 5) cell drop from 5 to 1.
        stats = apply_checked(fast, ref, [("insert", (0, 5))])
        assert stats.highway_updates == 1
        single = DynamicHCL.build(graph.copy(), landmarks=landmarks)
        expected = single.apply_events_batch([("insert", (0, 5))], fast=False)
        assert stats_tuple(stats) == stats_tuple(expected)
        # ... and rise back in a mixed batch ...
        stats = apply_checked(fast, ref, [("delete", (0, 5)), ("insert", (1, 3))])
        assert stats.highway_updates == 1
        assert fast.labelling.highway.distance(0, 5) == 4
        # ... and vanish when the path is cut.
        stats = apply_checked(fast, ref, [("delete", (3, 4))])
        assert stats.highway_updates == 1
        assert fast.labelling.highway.distance(0, 5) == float("inf")

    def test_pure_insert_batch_matches_batch_reference(self):
        for seed in (1, 6, 7):
            graph = random_connected_graph(seed, n_min=18, n_max=26)
            fast, ref = pair_oracles(graph, [0, 3, 8, 11])
            rng = random.Random(seed)
            vertices = sorted(graph.vertices())
            batch = []
            while len(batch) < 6:
                u, v = sorted(rng.sample(vertices, 2))
                if not graph.has_edge(u, v) and (u, v) not in batch:
                    batch.append((u, v))
            fast_stats = fast.insert_edges_batch(batch, fast=True)
            ref_stats = ref.insert_edges_batch(batch, fast=False)
            assert fast.labelling == ref.labelling
            assert stats_tuple(fast_stats) == stats_tuple(ref_stats)
            assert_rows_exact(fast._fast_engine, fast.graph, [0, 3, 8, 11])

    def test_workers_groups_match_serial_on_mixed_batches(self):
        for seed in (2, 9):
            graph = random_connected_graph(seed, n_min=20, n_max=28, density=2.2)
            landmarks = [0, 2, 4, 6, 8]
            serial = DynamicHCL.build(graph.copy(), landmarks=landmarks)
            grouped = DynamicHCL.build(graph.copy(), landmarks=landmarks, workers=2)
            ref = DynamicHCL.build(graph.copy(), landmarks=landmarks)
            rng = random.Random(seed)
            for _ in range(3):
                edges = sorted(serial.graph.edges())
                vertices = sorted(serial.graph.vertices())
                events = [("delete", e) for e in rng.sample(edges, 3)]
                while len(events) < 7:
                    u, v = sorted(rng.sample(vertices, 2))
                    event = ("insert", (u, v))
                    if not serial.graph.has_edge(u, v) and event not in events:
                        events.append(event)
                a = apply_checked(serial, ref, events)
                b = grouped.apply_events_batch(events, fast=True)
                assert grouped.labelling == serial.labelling
                assert stats_tuple(a) == stats_tuple(b)
                assert a.disconnected == b.disconnected
                assert (grouped._fast_engine._dist == serial._fast_engine._dist).all()
