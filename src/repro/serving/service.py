"""`OracleService` — single-writer update loop + lock-free snapshot readers.

Concurrency model (docs/DESIGN.md §7):

* **One writer.**  A dedicated thread owns every mutation of the oracle.
  It drains :class:`~repro.workloads.streams.UpdateEvent` objects from an
  internal queue, up to ``max_batch`` at a time, and applies each drained
  chunk on one route: :func:`~repro.core.dynamic.validate_events` splits
  the chunk into accepted events and rejects, and the accepted events go
  to :meth:`~repro.core.dynamic.DynamicHCL.apply_events_batch` in one
  call on the vectorized CSR engine (:mod:`repro.core.inchl_fast`) — one
  BatchHL-style find/repair sweep per landmark for the whole chunk,
  inserts and deletes alike.  A fresh
  :class:`~repro.serving.snapshot.OracleSnapshot` is published after
  every chunk.
* **Many readers.**  ``query`` / ``query_many`` / ``shortest_path`` run on
  the caller's thread against the *latest published snapshot* — a single
  attribute read — so readers never take a lock, never block on the
  writer, and never observe a half-applied batch.

Events that cannot apply (duplicate insert, delete of an absent edge,
self-loop, invalid vertex id) are counted as rejected and skipped before
anything is mutated — a client stream over TCP is not pre-validated the
way generated workloads are.  Each event is judged against the edge
state the chunk's accepted events before it produce, so a chunk may
insert an edge and delete it again.  If an *accepted* batch raises
mid-apply the service degrades: it publishes nothing more, counts the
batch as rejected and keeps serving its last good snapshot.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Iterable
from time import perf_counter

from repro.core.dynamic import validate_events
from repro.exceptions import ServingError
from repro.obs.log import get_logger, slow_threshold_ms
from repro.obs.trace import obs_enabled, record_span
from repro.serving.metrics import ServiceMetrics
from repro.serving.snapshot import OracleSnapshot
from repro.workloads.streams import UpdateEvent

__all__ = ["OracleService"]

_STOP = object()  # queue sentinel: shut the writer loop down

_log = get_logger("service")


class _PublishBarrier:
    """Queued marker: set once every event queued before it is applied and
    a snapshot covering them is published (the non-blocking alternative to
    :meth:`OracleService.flush` used by the server's ``snapshot`` op)."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class OracleService:
    """Serve reads from snapshots while one writer maintains the oracle.

    >>> from repro.core.dynamic import DynamicHCL
    >>> from repro.graph.generators import grid_graph
    >>> from repro.workloads.streams import UpdateEvent
    >>> service = OracleService(DynamicHCL.build(grid_graph(3, 3), landmarks=[4]))
    >>> with service:
    ...     service.submit(UpdateEvent("insert", (0, 8)))
    ...     service.flush()
    ...     service.query(0, 8)
    1
    """

    def __init__(
        self,
        oracle,
        *,
        max_batch: int = 128,
        workers: int | None = None,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        if max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {max_batch}")
        self._oracle = oracle
        self._max_batch = max_batch
        self._workers = workers if workers is not None else oracle.workers
        self.metrics = metrics or ServiceMetrics()
        self._queue: queue.Queue = queue.Queue()
        self._snapshot: OracleSnapshot = oracle.snapshot()
        self._thread: threading.Thread | None = None
        self._stopping = False
        #: Set to the failure description if an *accepted* update ever
        #: raised mid-apply: graph and labelling may then be out of sync,
        #: so the writer stops touching the oracle and the last good
        #: snapshot keeps serving reads (see :attr:`degraded`).
        self._degraded: str | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "OracleService":
        """Start the writer thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stopping = False
        self._thread = threading.Thread(
            target=self._writer_loop, name="oracle-writer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the writer thread.

        ``drain=True`` (default) applies every queued event first;
        ``drain=False`` abandons whatever is still queued (events the
        writer already picked up still finish).
        """
        thread = self._thread
        if thread is None or not thread.is_alive():
            return
        self._stopping = True
        if drain:
            self._queue.join()
        else:
            while True:  # abandon the backlog so _STOP is seen immediately
                try:
                    abandoned = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(abandoned, _PublishBarrier):
                    abandoned.event.set()  # never leave a waiter hanging
                self._queue.task_done()
        self._queue.put(_STOP)
        thread.join()
        self._thread = None

    @property
    def oracle(self):
        """The wrapped oracle.  Mutate only through :meth:`submit` while
        the writer runs (single-writer model)."""
        return self._oracle

    @property
    def running(self) -> bool:
        """Whether the writer thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "OracleService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> str | None:
        """Failure description once an accepted update raised mid-apply
        (``None`` while healthy).  A degraded service keeps serving its
        last good snapshot but accepts no further updates."""
        return self._degraded

    def submit(self, event: UpdateEvent) -> None:
        """Enqueue one update event for the writer (non-blocking)."""
        if self._stopping:
            raise ServingError("service is stopping; no further updates accepted")
        if self._degraded is not None:
            raise ServingError(f"service degraded, updates disabled: {self._degraded}")
        self._queue.put(event)

    def submit_many(self, events: Iterable[UpdateEvent]) -> int:
        """Enqueue a burst of events; returns how many were queued."""
        count = 0
        for event in events:
            self.submit(event)
            count += 1
        return count

    def insert_edge(self, u: int, v: int) -> None:
        """Convenience: enqueue an insertion."""
        self.submit(UpdateEvent("insert", (u, v)))

    def remove_edge(self, u: int, v: int) -> None:
        """Convenience: enqueue a deletion."""
        self.submit(UpdateEvent("delete", (u, v)))

    def flush(self) -> None:
        """Block until every event queued so far has been applied and the
        resulting snapshot published."""
        if not self.running and not self._queue.empty():
            raise ServingError("service is not running; queued events cannot drain")
        self._queue.join()

    @property
    def pending(self) -> int:
        """Events queued but not yet applied (approximate, by nature)."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # Read path — runs on the caller's thread, never blocks on the writer
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> OracleSnapshot:
        """The latest published snapshot (pin it for a consistent view)."""
        return self._snapshot

    def query(self, u: int, v: int, snapshot: OracleSnapshot | None = None) -> float:
        """Exact distance on the latest (or a pinned) snapshot; records
        read latency.  Pass ``snapshot`` to attribute the answer to a
        specific epoch (the server does, so answer and reported epoch
        always agree)."""
        snap = snapshot if snapshot is not None else self._snapshot
        start = perf_counter()
        try:
            return snap.query(u, v)
        finally:
            self.metrics.queries.record(perf_counter() - start)

    def query_many(
        self,
        pairs: Iterable[tuple[int, int]],
        snapshot: OracleSnapshot | None = None,
    ) -> list[float]:
        """Batch distances on one consistent snapshot; records latency
        once per pair-batch."""
        snap = snapshot if snapshot is not None else self._snapshot
        start = perf_counter()
        try:
            return snap.query_many(pairs)
        finally:
            self.metrics.queries.record(perf_counter() - start)

    def shortest_path(
        self, u: int, v: int, snapshot: OracleSnapshot | None = None
    ) -> list[int] | None:
        """One exact shortest path on the latest (or a pinned) snapshot."""
        snap = snapshot if snapshot is not None else self._snapshot
        start = perf_counter()
        try:
            return snap.shortest_path(u, v)
        finally:
            self.metrics.queries.record(perf_counter() - start)

    def refresh(self) -> OracleSnapshot:
        """Force-publish a snapshot of the oracle's current state.

        Only needed when the oracle was mutated directly (not through
        :meth:`submit`) while the writer is idle; the writer loop
        publishes automatically, and concurrent callers should use
        :meth:`request_publish` instead.
        """
        if self._degraded is not None:
            raise ServingError(
                f"service degraded, oracle state untrusted: {self._degraded}"
            )
        snap = self._oracle.snapshot()
        self._snapshot = snap
        self.metrics.count_snapshot()
        return snap

    def request_publish(self) -> threading.Event:
        """Ask the writer to publish once everything queued so far has
        applied; returns an event set at that point.

        Non-blocking (unlike :meth:`flush`): the caller waits on the
        event — or not — on its own schedule.  With no writer running the
        publish happens inline and the event returns already set.
        """
        done = threading.Event()
        if self._degraded is not None:
            done.set()  # last good snapshot is all there will ever be
            return done
        if not self.running:
            self.refresh()
            done.set()
            return done
        barrier = _PublishBarrier()
        self._queue.put(barrier)
        return barrier.event

    def stats(self) -> dict:
        """Service statistics: epoch, backlog, counters, latency summary."""
        snap = self._snapshot
        return {
            "epoch": snap.epoch,
            "num_vertices": snap.num_vertices,
            "num_edges": snap.num_edges,
            "label_entries": snap.label_entries,
            "pending": self.pending,
            "running": self.running,
            "degraded": self._degraded,
            **self.metrics.stats(),
        }

    # ------------------------------------------------------------------
    # Writer internals
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        while True:
            items = [self._queue.get()]
            while len(items) < self._max_batch:
                try:
                    items.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            stop_after = False
            events: list[UpdateEvent] = []
            barriers: list[_PublishBarrier] = []
            for item in items:
                if item is _STOP:
                    stop_after = True
                    break  # anything queued after _STOP is abandoned
                if isinstance(item, _PublishBarrier):
                    barriers.append(item)
                else:
                    events.append(item)
            publish = True
            try:
                if events:
                    publish = self._apply_chunk(events)
            except Exception as exc:  # pragma: no cover - belt and braces
                # _apply_chunk handles apply failures itself; anything
                # escaping it means unknown oracle state — degrade.
                self._degraded = f"{type(exc).__name__}: {exc}"
                publish = False
            finally:
                if publish:
                    self._publish()
                for barrier in barriers:
                    barrier.event.set()
                for _ in items:
                    self._queue.task_done()
            if stop_after:
                return

    def _apply_chunk(self, events: list[UpdateEvent]) -> bool:
        """Apply one drained chunk: validate, then one
        :meth:`~repro.core.dynamic.DynamicHCL.apply_events_batch` call.

        Rejects (see :func:`~repro.core.dynamic.validate_events`) are
        counted and skipped before any mutation — a wire client must
        never be able to kill the writer or leave side effects behind a
        rejected event.  If the accepted batch raises mid-apply, graph
        and labelling may be out of sync: the service degrades (no
        further updates, last good snapshot keeps serving) and this
        returns ``False`` so the loop never publishes that state.
        """
        if self._degraded is not None:
            self.metrics.count_rejected(len(events))
            return False
        coalesce_start = perf_counter()
        accepted, rejects = validate_events(self._oracle.graph, events)
        if rejects:
            self.metrics.count_rejected(len(rejects))
        if not accepted:
            return True
        start = perf_counter()
        try:
            stats = self._oracle.apply_events_batch(
                accepted, workers=self._workers, fast=True
            )
        except Exception as exc:
            self._degraded = f"{type(exc).__name__}: {exc}"
            self.metrics.count_rejected(len(accepted))
            return False
        elapsed = perf_counter() - start
        # Attribute the batch's cost evenly to its events so the
        # update-latency percentiles stay per-event comparable.
        for _ in accepted:
            self.metrics.updates.record(elapsed / len(accepted))
        self.metrics.count_applied(len(accepted))
        self.metrics.count_batch()
        self._note_batch(len(accepted), elapsed, start - coalesce_start, stats)
        return True

    def _note_batch(
        self, events: int, elapsed_s: float, coalesce_s: float, stats
    ) -> None:
        """Record one writer batch into the observability layer: phase
        histograms + |AFF|, a chunk span (its own trace id — batches
        belong to no single request), and the slow-batch log."""
        phases = {**stats.phases, "coalesce": coalesce_s, "apply": elapsed_s}
        affected = stats.affected_union
        self.metrics.observe_batch(phases, affected)
        if not obs_enabled():
            return
        dur_ms = elapsed_s * 1000.0
        fields = {
            "events": events,
            "affected": affected,
            **{f"{k}_ms": round(v * 1000.0, 3) for k, v in phases.items()},
        }
        record_span("apply_chunk", "service", dur_ms, **fields)
        if dur_ms >= slow_threshold_ms():
            _log.warning("slow_batch", dur_ms=round(dur_ms, 3), **fields)

    def _publish(self) -> None:
        start = perf_counter()
        self._snapshot = self._oracle.snapshot()
        self.metrics.count_snapshot()
        self.metrics.observe_phase("publish", perf_counter() - start)
