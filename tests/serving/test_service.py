"""OracleService: single-writer batching, lifecycle, and — the acceptance
criterion — reader/writer concurrency without torn reads.

The concurrency test runs real reader threads against published snapshots
while the writer applies batches, and checks every sampled answer against
a BFS on the *snapshot's own frozen graph*: if a writer mutation ever
leaked into a published snapshot (a torn read), the BFS on that
half-mutated adjacency could not agree with the labelling-based answer
for all pairs over hundreds of samples.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicHCL
from repro.exceptions import ServingError
from repro.graph.generators import grid_graph
from repro.graph.traversal import bfs_distances
from repro.serving.service import OracleService
from repro.workloads.streams import UpdateEvent, mixed_stream
from repro.utils.rng import ensure_rng
from tests.conftest import random_connected_graph

INF = float("inf")


def _service(seed=1, **kwargs) -> OracleService:
    graph = random_connected_graph(seed, n_min=12, n_max=24)
    oracle = DynamicHCL.build(graph, num_landmarks=3)
    return OracleService(oracle, **kwargs)


def test_lifecycle_and_context_manager():
    service = _service()
    assert not service.running
    with service:
        assert service.running
    assert not service.running
    # Restartable after a stop.
    service.start()
    assert service.running
    service.stop()
    assert not service.running


def test_flush_without_running_writer_raises():
    service = _service()
    service.submit(UpdateEvent("insert", _one_non_edge(service.oracle.graph)))
    with pytest.raises(ServingError):
        service.flush()


def test_submit_after_stop_initiated_raises():
    service = _service()
    service.start()
    service.stop()
    with pytest.raises(ServingError):
        service.submit(UpdateEvent("insert", (0, 1)))


def test_final_state_equals_serial_replay():
    graph = random_connected_graph(42, n_min=15, n_max=25)
    events = mixed_stream(graph, 30, rng=7)

    serial = DynamicHCL.build(graph.copy(), num_landmarks=3)
    for event in events:
        u, v = event.edge
        if event.is_insert:
            serial.insert_edge(u, v)
        else:
            serial.remove_edge(u, v)

    landmarks = list(serial.landmarks)
    service = OracleService(
        DynamicHCL.build(graph.copy(), landmarks=landmarks), max_batch=8
    )
    with service:
        service.submit_many(events)
        service.flush()
        # Same canonical minimal labelling as the strictly-online replay.
        assert service.oracle.labelling == serial.labelling
        assert sorted(service.oracle.graph.edges()) == sorted(serial.graph.edges())


def test_invalid_events_are_rejected_not_corrupting():
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    service = OracleService(oracle, max_batch=16)
    with service:
        service.submit_many([
            UpdateEvent("insert", (0, 8)),
            UpdateEvent("insert", (0, 8)),      # duplicate within chunk
            UpdateEvent("insert", (0, 1)),      # already an edge
            UpdateEvent("insert", (3, 3)),      # self-loop
            UpdateEvent("delete", (0, 7)),      # absent edge
            UpdateEvent("insert", (2, 6)),
        ])
        service.flush()
        stats = service.stats()
    assert stats["events_applied"] == 2
    assert stats["events_rejected"] == 4
    # The survivors applied correctly and the labelling is still exact.
    snap = service.snapshot
    table = bfs_distances(service.oracle.graph, 0)
    for v in service.oracle.graph.vertices():
        assert snap.query(0, v) == table.get(v, INF)


def test_insert_runs_are_batched():
    oracle = DynamicHCL.build(grid_graph(4, 4), landmarks=[0, 15])
    service = OracleService(oracle, max_batch=32)
    events = [UpdateEvent("insert", e)
              for e in [(0, 5), (1, 6), (2, 7), (3, 8), (9, 14)]]
    # Queue everything before the writer starts: the first drain must then
    # coalesce the whole insert run into one apply_events_batch sweep.
    service.submit_many(events)
    with service:
        service.flush()
        stats = service.stats()
    assert stats["events_applied"] == len(events)
    assert stats["batches"] == 1


def test_mixed_chunk_coalesces_into_one_batch():
    """A chunk with deletes in the middle of an insert run must apply as
    ONE mixed batch (satellite of the fully-dynamic engine): previously
    the first non-insert event broke coalescing and everything after it
    slow-pathed one event at a time."""
    graph = grid_graph(4, 4)
    oracle = DynamicHCL.build(graph, landmarks=[0, 15])
    events = [
        UpdateEvent("insert", (0, 5)),
        UpdateEvent("delete", (5, 6)),     # interrupts the insert run
        UpdateEvent("insert", (1, 6)),
        UpdateEvent("delete", (9, 10)),
        UpdateEvent("insert", (2, 7)),
    ]
    reference = DynamicHCL.build(grid_graph(4, 4), landmarks=[0, 15])
    for event in events:
        u, v = event.edge
        if event.is_insert:
            reference.insert_edge(u, v, fast=False)
        else:
            reference.remove_edge(u, v, fast=False)

    service = OracleService(oracle, max_batch=32)
    service.submit_many(events)  # queued before start → one drained chunk
    with service:
        service.flush()
        stats = service.stats()
    assert stats["events_applied"] == len(events)
    assert stats["events_rejected"] == 0
    assert stats["batches"] == 1
    assert oracle.labelling == reference.labelling
    table = bfs_distances(oracle.graph, 0)
    for v in oracle.graph.vertices():
        assert service.snapshot.query(0, v) == table.get(v, INF)


def test_mixed_chunk_accepts_intra_chunk_churn():
    """Sequential chunk semantics: deleting an edge inserted earlier in
    the same chunk (and re-inserting a deleted one) is valid, and churn
    pairs cancel inside the engine without desyncing graph/labelling."""
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    service = OracleService(oracle, max_batch=32)
    events = [
        UpdateEvent("insert", (0, 8)),
        UpdateEvent("delete", (0, 8)),     # delete the chunk's own insert
        UpdateEvent("delete", (0, 1)),
        UpdateEvent("insert", (0, 1)),     # re-insert after delete
        UpdateEvent("insert", (2, 6)),
    ]
    service.submit_many(events)
    with service:
        service.flush()
        stats = service.stats()
    assert stats["events_applied"] == len(events)
    assert stats["events_rejected"] == 0
    assert not oracle.graph.has_edge(0, 8)
    assert oracle.graph.has_edge(0, 1)
    assert oracle.graph.has_edge(2, 6)
    table = bfs_distances(oracle.graph, 4)
    for v in oracle.graph.vertices():
        assert service.snapshot.query(4, v) == table.get(v, INF)


def test_mixed_chunk_rejects_without_side_effects():
    """Rejections inside a mixed chunk track the chunk's own sequential
    state: a duplicate insert, an absent-edge delete, and a delete of an
    edge the chunk already deleted are all counted, and rejected inserts
    leave no orphan vertices behind."""
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    before_vertices = oracle.graph.num_vertices
    service = OracleService(oracle, max_batch=32)
    events = [
        UpdateEvent("delete", (0, 1)),
        UpdateEvent("delete", (0, 1)),       # already deleted in-chunk
        UpdateEvent("insert", (0, 8)),
        UpdateEvent("insert", (0, 8)),       # duplicate within chunk
        UpdateEvent("delete", (0, 7)),       # never an edge
        UpdateEvent("insert", (3, 3)),       # self-loop
        UpdateEvent("insert", (50, -2)),     # bad id → no orphan vertex 50
    ]
    service.submit_many(events)
    with service:
        service.flush()
        stats = service.stats()
    assert stats["events_applied"] == 2
    assert stats["events_rejected"] == 5
    assert stats["batches"] == 1
    assert oracle.graph.num_vertices == before_vertices
    assert not oracle.graph.has_vertex(50)
    table = bfs_distances(oracle.graph, 4)
    for v in oracle.graph.vertices():
        assert service.snapshot.query(4, v) == table.get(v, INF)


def test_chunk_boundary_epochs_advance_by_accepted_events():
    """Epoch bookkeeping across chunk boundaries: every *accepted* event
    advances the published epoch by exactly one (mixed batches stamp
    ``version += len(run)``, matching a one-at-a-time replay), and
    rejected events leave the epoch untouched."""
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    base_epoch = oracle.version
    service = OracleService(oracle, max_batch=3)  # force several chunks
    with service:
        # Chunk-sized bursts with flush() between them pin the boundaries.
        service.submit_many([
            UpdateEvent("insert", (0, 8)),
            UpdateEvent("delete", (0, 1)),
            UpdateEvent("insert", (2, 6)),
        ])
        service.flush()
        assert service.snapshot.epoch == base_epoch + 3
        service.submit_many([
            UpdateEvent("delete", (0, 7)),      # rejected: absent edge
            UpdateEvent("insert", (0, 8)),      # rejected: duplicate
            UpdateEvent("delete", (2, 6)),      # accepted
        ])
        service.flush()
        assert service.snapshot.epoch == base_epoch + 4
        stats = service.stats()
    assert stats["events_applied"] == 4
    assert stats["events_rejected"] == 2


def _reference_accepts(graph, events) -> list[UpdateEvent]:
    """The events a strictly sequential replay accepts, judged on a plain
    edge-set simulation (independent of the service's validator)."""
    edges = {frozenset(e) for e in graph.edges()}
    accepted = []
    for event in events:
        u, v = event.edge
        if any(isinstance(x, bool) or x < 0 for x in (u, v)) or u == v:
            continue
        edge = frozenset((u, v))
        if event.is_insert == (edge in edges):
            continue  # duplicate insert or absent-edge delete
        (edges.add if event.is_insert else edges.discard)(edge)
        accepted.append(event)
    return accepted


def _vertex_ids(n: int):
    # Known vertices, brand-new ones (vertex insertion), negative and bool.
    return st.one_of(
        st.integers(0, n - 1), st.integers(n, n + 2),
        st.integers(-3, -1), st.booleans(),
    )


@st.composite
def _event_streams(draw, n: int):
    events: list[UpdateEvent] = []
    for _ in range(draw(st.integers(1, 24))):
        u = draw(_vertex_ids(n))
        v = draw(st.one_of(_vertex_ids(n), st.just(u)))  # self-loops too
        kind = draw(st.sampled_from(["insert", "delete", "churn"]))
        if kind == "churn":  # insert-then-delete inside one stream
            events += [UpdateEvent("insert", (u, v)), UpdateEvent("delete", (u, v))]
        else:
            events.append(UpdateEvent(kind, (u, v)))
    return events


@pytest.mark.parametrize("max_batch", [1, 3, 16])
@given(seed=st.integers(0, 200), data=st.data())
@settings(max_examples=25, deadline=None)
def test_writer_matches_reference_replay_of_accepted_events(max_batch, seed, data):
    """Property: whatever a client streams (duplicates, absent deletes,
    self-loops, bad ids, new vertices, in-chunk churn), the served
    labelling equals a ``fast=False`` replay of the accepted events, every
    event is either applied or rejected, and the epoch advances by
    exactly the applied count."""
    graph = random_connected_graph(seed, n_min=6, n_max=12)
    events = data.draw(_event_streams(graph.num_vertices))
    oracle = DynamicHCL.build(graph.copy(), num_landmarks=2)
    base = oracle.version
    reference = DynamicHCL.build(graph.copy(), landmarks=list(oracle.landmarks))
    accepted = _reference_accepts(graph, events)
    for event in accepted:
        u, v = event.edge
        if event.is_insert:
            reference.graph.add_vertex(u)
            reference.graph.add_vertex(v)
            reference.insert_edge(u, v, fast=False)
        else:
            reference.remove_edge(u, v, fast=False)

    service = OracleService(oracle, max_batch=max_batch)
    service.submit_many(events)  # queued first: chunks of exactly max_batch
    with service:
        service.flush()
        stats = service.stats()
    assert service.degraded is None
    assert stats["events_applied"] == len(accepted)
    assert stats["events_applied"] + stats["events_rejected"] == len(events)
    assert service.snapshot.epoch == base + stats["events_applied"]
    assert oracle.labelling == reference.labelling
    assert sorted(oracle.graph.edges()) == sorted(reference.graph.edges())
    assert sorted(oracle.graph.vertices()) == sorted(reference.graph.vertices())


def test_queries_served_while_stopped_writer():
    service = _service(seed=5)
    # Reads never require the writer: the initial snapshot serves them.
    u = next(iter(service.oracle.graph.vertices()))
    assert service.query(u, u) == 0
    assert service.query_many([(u, u)]) == [0]
    assert service.shortest_path(u, u) == [u]
    assert service.stats()["queries"]["count"] == 3


@pytest.mark.parametrize("readers", [2, 4])
def test_concurrent_readers_never_observe_torn_state(readers):
    """Acceptance: snapshot answers always match BFS on that snapshot's
    own graph epoch, while the writer applies batches concurrently."""
    graph = random_connected_graph(99, n_min=25, n_max=35, density=2.5)
    events = mixed_stream(graph, 80, rng=3)
    oracle = DynamicHCL.build(graph, num_landmarks=4)
    vertices = sorted(graph.vertices())
    service = OracleService(oracle, max_batch=8)

    stop = threading.Event()
    failures: list[tuple] = []
    checks = [0] * readers

    def reader(idx: int) -> None:
        rng = ensure_rng(1000 + idx)
        while not stop.is_set():
            snap = service.snapshot  # pin one epoch
            u = rng.choice(vertices)
            v = rng.choice(vertices)
            got = snap.query(u, v)
            expected = bfs_distances(snap.graph, u).get(v, INF)
            if got != expected:
                failures.append((snap.epoch, u, v, got, expected))
                return
            checks[idx] += 1

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(readers)]
    with service:
        for t in threads:
            t.start()
        # Feed the writer in bursts so batching and publishing both happen
        # while the readers hammer the snapshots.
        for base in range(0, len(events), 5):
            service.submit_many(events[base : base + 5])
        service.flush()
        stop.set()
        for t in threads:
            t.join()

    assert not failures, failures[:3]
    assert all(c > 0 for c in checks), checks
    assert service.stats()["events_applied"] > 0


def test_malformed_events_do_not_kill_the_writer():
    """A wire client must never be able to halt the update loop: events
    with invalid vertex ids are rejected and later events still apply."""
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    service = OracleService(oracle, max_batch=16)
    with service:
        service.submit_many([
            UpdateEvent("insert", (-1, 2)),        # negative id
            UpdateEvent("insert", ("zero", 3)),    # non-int id
            UpdateEvent("delete", (None, 1)),      # unhashable nonsense
            UpdateEvent("insert", (0, 8)),         # valid
        ])
        service.flush()
        assert service.running  # the writer survived everything above
        stats = service.stats()
    assert stats["events_applied"] == 1
    assert stats["events_rejected"] == 3
    assert service.oracle.query(0, 8) == 1


def test_stop_without_drain_abandons_backlog():
    import time

    from tests.conftest import non_edges

    graph = grid_graph(6, 6)
    backlog = [UpdateEvent("insert", e) for e in non_edges(graph)[:20]]
    oracle = DynamicHCL.build(graph, landmarks=[0, 35])
    real_apply = oracle.apply_events_batch

    def slow_apply(events, **kwargs):  # slow applies decide the race
        time.sleep(0.05)
        return real_apply(events, **kwargs)

    oracle.apply_events_batch = slow_apply
    service = OracleService(oracle, max_batch=1)
    service.submit_many(backlog)
    service.start()
    time.sleep(0.01)  # writer is mid-first-event
    start = time.perf_counter()
    service.stop(drain=False)
    elapsed = time.perf_counter() - start
    stats = service.stats()
    # The writer finishes the event in flight; everything else is
    # abandoned, the queue is left empty, and stop returns promptly
    # instead of blocking for the ~1s full drain.
    assert stats["events_applied"] <= 2
    assert stats["pending"] == 0
    assert elapsed < 0.5
    assert not service.running


def test_request_publish_without_writer_is_immediate():
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    service = OracleService(oracle)
    oracle.insert_edge(0, 8)  # direct mutation, writer idle
    done = service.request_publish()
    assert done.is_set()
    assert service.snapshot.query(0, 8) == 1


def test_request_publish_with_writer_covers_prior_events():
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    service = OracleService(oracle)
    with service:
        service.submit(UpdateEvent("insert", (0, 8)))
        done = service.request_publish()
        assert done.wait(timeout=10)
        assert service.snapshot.query(0, 8) == 1


def test_query_accepts_pinned_snapshot():
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    service = OracleService(oracle)
    pinned = service.snapshot
    oracle.insert_edge(0, 8)
    service.refresh()
    # The pinned snapshot answers at its own epoch even though the
    # published one moved on — this is what the server's query ops rely
    # on to keep the reported epoch and the answer in agreement.
    assert service.query(0, 8, snapshot=pinned) == 4
    assert service.query(0, 8) == 1
    assert service.query_many([(0, 8)], snapshot=pinned) == [4]
    assert service.shortest_path(0, 8, snapshot=pinned) != [0, 8]


def test_rejected_events_leave_no_side_effects():
    """A half-valid insert (one good id, one bad) must not add orphan
    vertices to the live graph or desync it from the snapshot."""
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    before_vertices = oracle.graph.num_vertices
    service = OracleService(oracle, max_batch=16)
    with service:
        service.submit_many([
            UpdateEvent("insert", (100, -5)),     # valid-looking u, bad v
            UpdateEvent("insert", (200, "x")),    # valid-looking u, bad v
        ])
        service.flush()
        stats = service.stats()
    assert stats["events_rejected"] == 2
    assert oracle.graph.num_vertices == before_vertices
    assert not oracle.graph.has_vertex(100)
    assert not oracle.graph.has_vertex(200)
    assert service.snapshot.num_vertices == before_vertices


def test_mid_apply_failure_degrades_instead_of_publishing_desync():
    """If an *accepted* update raises mid-apply (graph mutated, labelling
    repair incomplete) the service must keep serving the last good
    snapshot, refuse further updates, and report itself degraded."""
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    real_apply = oracle.apply_events_batch

    def exploding_apply(events, **kwargs):
        if ("insert", (2, 6)) in events:
            oracle.graph.add_edge(2, 6)  # mutate like the real thing...
            raise RuntimeError("repair blew up")  # ...then fail mid-repair
        return real_apply(events, **kwargs)

    oracle.apply_events_batch = exploding_apply
    service = OracleService(oracle, max_batch=1)
    with service:
        service.submit(UpdateEvent("insert", (0, 8)))
        service.flush()
        good_epoch = service.snapshot.epoch
        assert service.query(0, 8) == 1

        service.submit(UpdateEvent("insert", (2, 6)))   # will explode
        service.flush()
        assert service.degraded is not None
        assert service.running  # writer thread survived
        # The desynchronised state was never published.
        assert service.snapshot.epoch == good_epoch
        assert service.query(0, 8) == 1
        # Further updates are refused up front...
        with pytest.raises(ServingError, match="degraded"):
            service.submit(UpdateEvent("insert", (0, 7)))
        # ...refresh refuses to capture untrusted state...
        with pytest.raises(ServingError, match="degraded"):
            service.refresh()
        # ...and publish requests resolve immediately to the last good state.
        assert service.request_publish().wait(timeout=1)
        stats = service.stats()
    assert stats["degraded"] is not None
    assert stats["events_applied"] == 1
    assert stats["events_rejected"] == 1  # the exploding event, once


def _one_non_edge(graph):
    from tests.conftest import non_edges

    return non_edges(graph)[0]
