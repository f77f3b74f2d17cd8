"""`ClusterRouter` — one front door for N replicated oracle processes.

Speaks the exact client protocol of :mod:`repro.serving.server` (a
:class:`~repro.serving.client.ServingClient` cannot tell a router from a
single node), but:

* **writes** append to the :class:`~repro.cluster.wal.UpdateLog` (durable
  per its fsync policy) and are acknowledged with the assigned log seq as
  ``epoch`` — the token a client passes back as ``min_epoch`` for
  read-your-writes.  Fan-out is asynchronous: one **pump task per
  replica** streams the log suffix ``acked_seq+1 .. head`` in batches and
  advances ``acked_seq`` on each applied-and-published acknowledgement.
  The same pump performs catch-up — a replica that reconnects (or
  restarts from an older checkpoint) is simply a replica whose
  ``acked_seq`` is further behind.
* **reads** are routed round-robin over the healthy replicas whose
  ``acked_seq`` satisfies the request's ``min_epoch`` (laggards beyond
  ``max_stale`` are skipped while fresher replicas exist).  Request and
  response lines are forwarded *verbatim* — the router never re-encodes
  the hot path.  If no replica is caught up yet the read parks (bounded
  by ``read_timeout``) until a pump acks; a ``min_epoch`` beyond the log
  head is rejected outright — it names a write that never happened.
* **stats** aggregates :class:`~repro.serving.metrics.ServiceMetrics`
  across replicas (counts and qps add, tails take the max) next to the
  router's own log/lag/routing counters; **snapshot** drains: it returns
  once every registered replica has acked the current head.
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter

from repro.cluster.wal import UpdateLog
from repro.exceptions import ClusterError
from repro.obs.exporter import CONTENT_TYPE
from repro.obs.timeseries import peak_rss_kb
from repro.obs.trace import get_recorder, span
from repro.serving.metrics import ServiceMetrics, merge_summaries
from repro.serving.server import LineServer, decode_line

__all__ = ["ClusterRouter"]

_MAX_LINE = 1 << 20
_DRAIN_TIMEOUT = 60.0  # seconds a `snapshot` op waits for replicas to catch up
_VALID_KINDS = ("insert", "delete")


def _valid_vertex_id(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _min_distance(values):
    """UNREACH-aware element-wise min: ``None`` encodes ``inf`` on the
    wire, so it loses to any finite distance and survives only when every
    shard reports unreachable."""
    finite = [v for v in values if v is not None]
    return min(finite) if finite else None


class _ReplicaLink:
    """Router-side state for one replica."""

    __slots__ = (
        "name", "host", "port", "shard", "generation", "acked_seq", "healthy",
        "unhealthy_since", "last_error", "rss_kb", "kick", "query_lock",
        "query_conn", "pump_task",
    )

    def __init__(self, name: str, host: str, port: int, shard: int = 0) -> None:
        self.name = name
        self.host = host
        self.port = port
        #: Shard-group index (always 0 on an unsharded cluster).
        self.shard = shard
        #: Last observed peak RSS of the replica process (KiB; 0 until a
        #: stats round-trip reports it).
        self.rss_kb = 0
        #: Bumped on address changes so a stale pump iteration can tell it
        #: has been superseded and must exit.
        self.generation = 0
        #: Highest log seq the replica acknowledged as applied+published;
        #: -1 until the first handshake.
        self.acked_seq = -1
        self.healthy = False
        self.unhealthy_since: float | None = None
        self.last_error: str | None = None
        self.kick = asyncio.Event()
        self.query_lock = asyncio.Lock()
        self.query_conn: tuple | None = None
        self.pump_task: asyncio.Task | None = None


class ClusterRouter(LineServer):
    """Asyncio front door: WAL writer, fan-out pumps, read routing."""

    obs_component = "router"

    def __init__(
        self,
        log: UpdateLog,
        host: str = "127.0.0.1",
        port: int = 8360,
        *,
        fanout_batch: int = 512,
        read_timeout: float = 5.0,
        apply_timeout: float = 300.0,
        retry_interval: float = 0.2,
        max_stale: int | None = 4096,
        shards: int = 1,
        metrics: ServiceMetrics | None = None,
        metrics_port: int | None = None,
        history_path: str | None = None,
        history_interval: float = 5.0,
        history_max_points: int = 2048,
        slos=None,
    ) -> None:
        super().__init__(
            host,
            port,
            metrics_port=metrics_port,
            history_path=history_path,
            history_interval=history_interval,
            history_max_points=history_max_points,
            slos=slos,
        )
        self._log = log
        self._links: dict[str, _ReplicaLink] = {}
        self._fanout_batch = fanout_batch
        self._read_timeout = read_timeout
        self._apply_timeout = apply_timeout
        self._retry_interval = retry_interval
        self._max_stale = max_stale
        #: Landmark shard groups.  With ``shards > 1`` each replica is
        #: registered under a shard index; ``query``/``query_many``
        #: scatter to one caught-up replica per group and reduce the
        #: element-wise min, while writes still append once and fan out
        #: to every replica of every group.
        self._shards = max(1, int(shards))
        self.metrics = metrics or ServiceMetrics()
        #: Fair round-robin cursors, one per shard group: each names the
        #: next position to try in the stable sorted membership, so
        #: rotation stays uniform even when eligibility fluctuates.
        self._rr: dict[int, int] = {}
        self._reads_routed = 0
        self._writes_appended = 0
        self._fanout_batches = 0
        self._ack_event: asyncio.Event | None = None
        #: Serializes log mutation (seq assignment order == append order)
        #: while the blocking file I/O itself runs in an executor, so an
        #: fsync never stalls read routing on the event loop.
        self._append_lock = asyncio.Lock()
        self._ops = {
            "query": self._op_read,
            "query_many": self._op_read,
            "path": self._op_read,
            "update": self._op_update,
            "updates": self._op_updates,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "spans": self._op_spans,
            "profile": self._op_profile,
            "history": self._op_history,
            "alerts": self._op_alerts,
            "snapshot": self._op_snapshot,
            "ping": self._op_ping,
        }
        self._register_obs()

    def _register_obs(self) -> None:
        """Wire cluster health into this router's metrics registry.

        The router's own latency histograms (append / routed-read) are
        attached; replication lag, health, WAL footprint and routing
        counters refresh lazily on collect — scrapes pay, the hot path
        never does.
        """
        reg = self._registry
        reg.histogram(
            "repro_router_read_latency_seconds",
            "Routed read latency through the router (seconds).",
        ).attach(self.metrics.queries.hist)
        reg.histogram(
            "repro_router_append_latency_seconds",
            "WAL append latency for accepted writes (seconds).",
        ).attach(self.metrics.updates.hist)
        lag_family = reg.gauge(
            "repro_replica_lag",
            "Log entries behind the WAL head, per replica.",
            labelnames=("replica",),
        )
        healthy_family = reg.gauge(
            "repro_replica_healthy",
            "1 while the replica is routable, 0 otherwise.",
            labelnames=("replica",),
        )
        log_head = reg.gauge("repro_wal_head_seq", "Highest appended log seq.")
        log_base = reg.gauge(
            "repro_wal_base_seq", "Oldest retained log seq (compaction floor)."
        )
        segments = reg.gauge("repro_wal_segments", "Live WAL segment files.")
        wal_bytes = reg.gauge("repro_wal_bytes", "Bytes across live WAL segments.")
        wal_growth = reg.gauge(
            "repro_wal_growth_bytes_per_s",
            "WAL growth rate between the last two stats reads (bytes/s; "
            "negative after compaction).",
        )
        reads = reg.counter("repro_reads_routed_total", "Reads routed to replicas.")
        writes = reg.counter("repro_writes_appended_total", "Events appended to the WAL.")
        batches = reg.counter("repro_fanout_batches_total", "Apply batches pumped to replicas.")
        shard_lag_family = reg.gauge(
            "repro_shard_lag",
            "Log entries the freshest replica of the shard group is behind.",
            labelnames=("shard",),
        )
        shard_rss_family = reg.gauge(
            "repro_shard_rss_kb",
            "Peak replica RSS observed in the shard group (KiB).",
            labelnames=("shard",),
        )

        def _collect() -> None:
            head = self._log.head
            shard_lags: dict[int, int] = {}
            shard_rss: dict[int, int] = {}
            for link in list(self._links.values()):
                lag = max(0, head - link.acked_seq) if link.acked_seq >= 0 else head - self._log.base
                lag_family.labels(replica=link.name).set(lag)
                healthy_family.labels(replica=link.name).set(1 if link.healthy else 0)
                best = shard_lags.get(link.shard)
                shard_lags[link.shard] = lag if best is None else min(best, lag)
                shard_rss[link.shard] = max(
                    shard_rss.get(link.shard, 0), link.rss_kb
                )
            for shard, lag in shard_lags.items():
                shard_lag_family.labels(shard=str(shard)).set(lag)
                shard_rss_family.labels(shard=str(shard)).set(shard_rss[shard])
            wal = self._log.stats()
            log_head.set(wal["head"])
            log_base.set(wal["base"])
            segments.set(wal["segments"])
            wal_bytes.set(wal["bytes"])
            if wal["wal_growth_bytes_per_s"] is not None:
                wal_growth.set(wal["wal_growth_bytes_per_s"])
            reads.set(self._reads_routed)
            writes.set(self._writes_appended)
            batches.set(self._fanout_batches)

        reg.on_collect(_collect)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def log(self) -> UpdateLog:
        return self._log

    @property
    def replica_names(self) -> list[str]:
        return sorted(self._links)

    @property
    def num_shards(self) -> int:
        return self._shards

    def replica_states(self) -> dict[str, dict]:
        """Per-replica routing state (the supervisor's health input)."""
        head = self._log.head
        states = {}
        for link in self._links.values():
            states[link.name] = {
                "host": link.host,
                "port": link.port,
                "shard": link.shard,
                "healthy": link.healthy,
                "acked_seq": link.acked_seq,
                "lag": max(0, head - link.acked_seq) if link.acked_seq >= 0 else None,
                "unhealthy_since": link.unhealthy_since,
                "last_error": link.last_error,
            }
        return states

    # ------------------------------------------------------------------
    # Replica membership (run on the router's loop; *_from_thread wrappers
    # serve callers on other threads — tests, threaded supervisors)
    # ------------------------------------------------------------------
    async def add_replica(
        self, name: str, host: str, port: int, shard: int = 0
    ) -> None:
        """Register (or re-address) a replica and start pumping to it.

        ``shard`` places the replica in a shard group (ignored stays 0 on
        an unsharded cluster); a re-address keeps the original group.
        """
        if not 0 <= shard < self._shards:
            raise ClusterError(
                f"shard {shard} out of range [0, {self._shards}) for "
                f"replica {name!r}"
            )
        link = self._links.get(name)
        if link is not None:
            await self._readdress(link, host, port)
            return
        link = _ReplicaLink(name, host, port, shard=shard)
        self._links[name] = link
        link.pump_task = asyncio.get_running_loop().create_task(
            self._pump(link, link.generation), name=f"pump-{name}"
        )

    async def set_replica_address(
        self, name: str, host: str, port: int, shard: int = 0
    ) -> None:
        """Point an existing replica name at a new process (post-restart).

        ``shard`` only matters for a name not seen before; a re-address
        keeps the link's original shard group.
        """
        link = self._links.get(name)
        if link is None:
            await self.add_replica(name, host, port, shard=shard)
            return
        await self._readdress(link, host, port)

    async def remove_replica(self, name: str) -> None:
        link = self._links.pop(name, None)
        if link is None:
            return
        await self._retire_link(link)

    async def _readdress(self, link: _ReplicaLink, host: str, port: int) -> None:
        await self._retire_link(link)
        link.host, link.port = host, port
        link.acked_seq = -1
        self._mark_unhealthy(link, "reconnecting after re-address")
        link.pump_task = asyncio.get_running_loop().create_task(
            self._pump(link, link.generation), name=f"pump-{link.name}"
        )

    async def _retire_link(self, link: _ReplicaLink) -> None:
        task, link.pump_task = link.pump_task, None
        # Invalidate the pump's loop condition *before* cancelling: on
        # Python <= 3.11, asyncio.wait_for can swallow a cancellation that
        # races its own completion (bpo-42130), and a pump that absorbed
        # the cancel would otherwise run — and be awaited — forever.  With
        # the generation bumped it exits at its next condition check even
        # if the CancelledError is lost; the kick wakes an idle wait now.
        link.generation += 1
        link.kick.set()
        if task is not None:
            task.cancel()
            try:
                # wait_for re-cancels on timeout — a second chance for a
                # swallowed cancel; never hang a stop/remove on one task.
                await asyncio.wait_for(task, 5.0)
            except (asyncio.CancelledError, TimeoutError, asyncio.TimeoutError):
                pass
        await self._close_query_conn(link)
        link.healthy = False

    def add_replica_from_thread(
        self, name: str, host: str, port: int, shard: int = 0
    ) -> None:
        asyncio.run_coroutine_threadsafe(
            self.add_replica(name, host, port, shard=shard), self._loop
        ).result()

    def set_replica_address_from_thread(self, name: str, host: str, port: int) -> None:
        asyncio.run_coroutine_threadsafe(
            self.set_replica_address(name, host, port), self._loop
        ).result()

    def remove_replica_from_thread(self, name: str) -> None:
        asyncio.run_coroutine_threadsafe(
            self.remove_replica(name), self._loop
        ).result()

    def request_checkpoint_from_thread(
        self, path, shard: int | None = None
    ) -> int:
        return asyncio.run_coroutine_threadsafe(
            self.request_checkpoint(path, shard=shard), self._loop
        ).result()

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    async def _on_start(self) -> None:
        self._ack_event = asyncio.Event()

    async def _on_stop(self) -> None:
        for link in list(self._links.values()):
            await self._retire_link(link)
        self._log.close()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _respond(self, line: bytes) -> dict | bytes:
        request, error = decode_line(line)
        if error is not None:
            return error
        op = request.get("op")
        handler = self._ops.get(op)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        trace = request.get("trace")
        start = perf_counter()
        try:
            # Traced requests get a router span; the raw line (trace field
            # included) is forwarded verbatim on reads, so the replica
            # records its own span under the same trace id.
            with span(str(op), self.obs_component, trace=trace, op=op):
                return await handler(request, line)
        except (ClusterError, KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        finally:
            self._observe_request(op, (perf_counter() - start) * 1000.0, trace)

    async def _op_ping(self, request: dict, line: bytes) -> dict:
        return {"ok": True, "pong": True, "role": "router"}

    async def _op_metrics(self, request: dict, line: bytes) -> dict:
        return {
            "ok": True,
            "content_type": CONTENT_TYPE,
            "metrics": self._registry.render(),
        }

    async def _op_spans(self, request: dict, line: bytes) -> dict:
        limit = request.get("limit")
        return {
            "ok": True,
            "spans": get_recorder().spans(
                trace=request.get("of"),
                limit=int(limit) if limit is not None else 256,
            ),
        }

    async def _op_profile(self, request: dict, line: bytes) -> dict:
        return self._profile_response(request)

    async def _op_history(self, request: dict, line: bytes) -> dict:
        return self._history_response(request)

    async def _op_alerts(self, request: dict, line: bytes) -> dict:
        return self._alerts_response(request)

    def _sample_metrics(self) -> dict:
        """One router metrics-history point: routed-read latency/qps,
        replica freshness, and WAL footprint/growth — the inputs to the
        router's default SLOs and the ``repro dash`` cluster view."""
        queries = self.metrics.queries.summary()
        wal = self._log.stats()
        head = self._log.head
        lags = [
            max(0, head - link.acked_seq)
            for link in self._links.values()
            if link.acked_seq >= 0
        ]
        return {
            "qps": queries["qps"],
            "query_p99_ms": queries["p99_ms"],
            "max_lag": max(lags, default=0),
            "healthy_replicas": sum(
                1 for link in self._links.values() if link.healthy
            ),
            "replicas": len(self._links),
            "log_head": head,
            "wal_bytes": wal["bytes"],
            "wal_growth_bytes_per_s": wal["wal_growth_bytes_per_s"],
            "reads_routed": self._reads_routed,
            "writes_appended": self._writes_appended,
            "rss_kb": peak_rss_kb(),
        }

    # -- writes ---------------------------------------------------------
    async def _op_update(self, request: dict, line: bytes) -> dict:
        return await self._append(
            [(request["kind"], request["u"], request["v"])]
        )

    async def _op_updates(self, request: dict, line: bytes) -> dict:
        return await self._append([(k, u, v) for k, u, v in request["events"]])

    async def _append(self, events: list[tuple]) -> dict:
        for kind, u, v in events:
            if kind not in _VALID_KINDS:
                return {"ok": False, "error": f"unknown event kind {kind!r}"}
            if not (_valid_vertex_id(u) and _valid_vertex_id(v)) or u == v:
                return {
                    "ok": False,
                    "error": f"invalid edge ({u!r}, {v!r}); nothing was logged",
                }
        normalized = [(kind, int(u), int(v)) for kind, u, v in events]
        start = perf_counter()
        loop = asyncio.get_running_loop()
        async with self._append_lock:
            # The write (and its fsync, under "always") blocks a worker
            # thread, not the loop — reads keep routing meanwhile.
            head = await loop.run_in_executor(
                None, self._log.append_events, normalized
            )
        self.metrics.updates.record(perf_counter() - start)
        self._writes_appended += len(events)
        for link in self._links.values():
            link.kick.set()
        return {
            "ok": True,
            "queued": len(events),
            "epoch": head,
            "pending": self._max_lag(),
        }

    async def compact_log(self, through_seq: int) -> int:
        """Compact the log under the append lock (the supervisor's entry
        point — segment deletion must not race an in-flight append)."""
        loop = asyncio.get_running_loop()
        async with self._append_lock:
            return await loop.run_in_executor(
                None, self._log.compact, through_seq
            )

    def _max_lag(self) -> int:
        head = self._log.head
        lags = [
            head - link.acked_seq
            for link in self._links.values()
            if link.acked_seq >= 0
        ]
        return max(lags, default=head - self._log.base)

    # -- reads ----------------------------------------------------------
    async def _op_read(self, request: dict, line: bytes) -> dict | bytes:
        min_epoch = int(request.get("min_epoch") or 0)
        if min_epoch > self._log.head:
            return {
                "ok": False,
                "error": (
                    f"min_epoch {min_epoch} is beyond the log head "
                    f"{self._log.head}: no such write was accepted"
                ),
                "epoch": self._log.head,
            }
        start = perf_counter()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._read_timeout
        if self._shards > 1 and request.get("op") in ("query", "query_many"):
            return await self._scatter_read(request, line, min_epoch, deadline, start)
        # Single-shard clusters (and `path`, which any shard answers
        # exactly by BFS on its full graph copy) route to one replica
        # and pass the response line through verbatim.
        response = await self._routed_read(line, min_epoch, deadline)
        if isinstance(response, bytes):
            self.metrics.queries.record(perf_counter() - start)
        return response

    async def _scatter_read(
        self,
        request: dict,
        line: bytes,
        min_epoch: int,
        deadline: float,
        start: float,
    ) -> dict:
        """Landmark-sharded read: one caught-up replica per shard group,
        element-wise min reduction over the shard-local answers.

        Every shard's answer is exact through its owned landmarks and an
        overestimate otherwise, so the min is the exact global distance
        (:mod:`repro.core.sharding`); ``None`` encodes unreachable and
        survives only if every shard reports it.  The reduced ``epoch``
        is the min over the per-shard epochs — the read-your-writes
        guarantee holds per shard group, and the client may only assume
        the weakest of them.
        """
        results = await asyncio.gather(
            *(
                self._routed_read(line, min_epoch, deadline, shard=shard)
                for shard in range(self._shards)
            )
        )
        responses: list[dict] = []
        for shard, result in enumerate(results):
            if isinstance(result, bytes):
                result = json.loads(result)
            if not result.get("ok"):
                result.setdefault("shard", shard)
                return result
            responses.append(result)
        epoch = min(int(r.get("epoch", 0)) for r in responses)
        if request["op"] == "query":
            merged: dict = {
                "ok": True,
                "distance": _min_distance([r.get("distance") for r in responses]),
                "epoch": epoch,
            }
        else:
            columns = zip(*(r.get("distances") or [] for r in responses))
            merged = {
                "ok": True,
                "distances": [_min_distance(column) for column in columns],
                "epoch": epoch,
            }
        self.metrics.queries.record(perf_counter() - start)
        return merged

    async def _routed_read(
        self,
        line: bytes,
        min_epoch: int,
        deadline: float,
        shard: int | None = None,
    ) -> dict | bytes:
        """Forward ``line`` verbatim to one caught-up replica (of one
        shard group when ``shard`` is given); returns the raw response
        line, or an error dict if no replica could answer in time."""
        loop = asyncio.get_running_loop()
        excluded: set[str] = set()
        while True:
            link = await self._pick(min_epoch, deadline, excluded, shard=shard)
            if link is None:
                message = (
                    f"no replica caught up to epoch {min_epoch}"
                    if min_epoch
                    else "no healthy replica available"
                )
                if shard is not None:
                    message = f"shard {shard}: {message}"
                return {"ok": False, "error": message, "retryable": True}
            try:
                async with link.query_lock:
                    reader, writer = await self._query_conn(link)
                    writer.write(line)
                    await writer.drain()
                    response = await asyncio.wait_for(
                        reader.readline(), max(0.05, deadline - loop.time())
                    )
                if not response:
                    raise ClusterError("replica closed the connection")
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self._mark_unhealthy(link, f"read failed: {exc}")
                await self._close_query_conn(link)
                excluded.add(link.name)
                continue
            self._reads_routed += 1
            return bytes(response)  # verbatim passthrough

    async def _pick(
        self,
        min_epoch: int,
        deadline: float,
        excluded: set[str],
        shard: int | None = None,
    ) -> _ReplicaLink | None:
        loop = asyncio.get_running_loop()
        while True:
            members = sorted(
                (
                    link
                    for link in self._links.values()
                    if shard is None or link.shard == shard
                ),
                key=lambda link: link.name,
            )
            # Fair rotation: the cursor names a position in the *stable*
            # sorted membership, not an offset into the per-call eligible
            # subset — so replicas that flicker in and out of eligibility
            # no longer skew selection toward their neighbours.
            cursor_key = -1 if shard is None else shard
            cursor = self._rr.get(cursor_key, 0)
            head = self._log.head
            picked = None
            fallback = None
            for offset in range(len(members)):
                link = members[(cursor + offset) % len(members)]
                if (
                    not link.healthy
                    or link.name in excluded
                    or link.acked_seq < min_epoch
                ):
                    continue
                if (
                    self._max_stale is not None
                    and head - link.acked_seq > self._max_stale
                ):
                    if fallback is None:
                        fallback = (offset, link)
                    continue  # prefer a fresher replica if one exists
                picked = (offset, link)
                break
            chosen = picked or fallback
            if chosen is not None:
                offset, link = chosen
                self._rr[cursor_key] = (cursor + offset + 1) % len(members)
                return link
            remaining = deadline - loop.time()
            if remaining <= 0:
                return None
            event = self._ack_event  # grab before re-checking: no lost wakeup
            try:
                await asyncio.wait_for(event.wait(), min(remaining, 0.25))
            except (TimeoutError, asyncio.TimeoutError):
                pass
            # Re-admit replicas excluded by earlier failures in this
            # request: a replica that died mid-read but recovered (its
            # pump re-acked) must become routable again instead of the
            # read spinning here until its deadline.
            excluded.clear()

    async def _query_conn(self, link: _ReplicaLink):
        if link.query_conn is None:
            link.query_conn = await asyncio.open_connection(
                link.host, link.port, limit=_MAX_LINE
            )
        return link.query_conn

    async def _close_query_conn(self, link: _ReplicaLink) -> None:
        conn, link.query_conn = link.query_conn, None
        if conn is not None:
            _, writer = conn
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- stats / drain --------------------------------------------------
    async def _op_stats(self, request: dict, line: bytes) -> dict:
        head = self._log.head
        replicas: dict[str, dict] = {}
        service_stats: list[dict] = []
        for link in list(self._links.values()):
            entry = {
                "shard": link.shard,
                "healthy": link.healthy,
                "acked_seq": link.acked_seq,
                "lag": max(0, head - link.acked_seq) if link.acked_seq >= 0 else None,
            }
            if link.last_error:
                entry["last_error"] = link.last_error
            if link.healthy:
                try:
                    response = await self._query_roundtrip(link, {"op": "stats"})
                    entry["service"] = response["stats"]
                    service_stats.append(response["stats"])
                    link.rss_kb = int(
                        response["stats"].get("replica", {}).get("rss_kb")
                        or link.rss_kb
                    )
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    self._mark_unhealthy(link, f"stats failed: {exc}")
                    await self._close_query_conn(link)
                    entry["healthy"] = False
            replicas[link.name] = entry
        # Exact cluster-wide percentiles: the per-replica summaries carry
        # mergeable histograms, and merging histograms is lossless (vector
        # addition), so the aggregate tails are those of the pooled sample
        # population — not the old conservative max.
        aggregate = {
            "queries": merge_summaries(
                [s["queries"] for s in service_stats if "queries" in s]
            ),
            "updates": merge_summaries(
                [s["updates"] for s in service_stats if "updates" in s]
            ),
            "events_applied": sum(s.get("events_applied", 0) for s in service_stats),
            "events_rejected": sum(s.get("events_rejected", 0) for s in service_stats),
            "batches": sum(s.get("batches", 0) for s in service_stats),
            "snapshots_published": sum(
                s.get("snapshots_published", 0) for s in service_stats
            ),
        }
        stats = {
            "role": "router",
            "log_head": head,
            "log_base": self._log.base,
            "wal": self._log.stats(),
            "fsync": self._log.fsync_policy,
            "num_shards": self._shards,
            "reads_routed": self._reads_routed,
            "writes_appended": self._writes_appended,
            "fanout_batches": self._fanout_batches,
            "router": self.metrics.stats(),
            "replicas": replicas,
            "aggregate": aggregate,
        }
        if self._shards > 1:
            shards: dict[str, dict] = {}
            for index in range(self._shards):
                group = [
                    link for link in self._links.values() if link.shard == index
                ]
                lags = [
                    max(0, head - link.acked_seq)
                    for link in group
                    if link.acked_seq >= 0
                ]
                shards[str(index)] = {
                    "replicas": len(group),
                    "healthy": sum(1 for link in group if link.healthy),
                    "acked_seq": max(
                        (link.acked_seq for link in group), default=-1
                    ),
                    # The group's effective read lag: scatter-gather needs
                    # one caught-up replica per group, so the freshest
                    # member defines it.
                    "lag": min(lags) if lags else None,
                    "rss_kb_max": max((link.rss_kb for link in group), default=0),
                }
            stats["shards"] = shards
        return {"ok": True, "stats": stats}

    async def _op_snapshot(self, request: dict, line: bytes) -> dict:
        """Drain: resolve once every registered replica acked the current
        head (the cluster analogue of the single node's force-publish)."""
        target = self._log.head
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _DRAIN_TIMEOUT
        while True:
            links = list(self._links.values())
            if all(link.acked_seq >= target for link in links):
                return {
                    "ok": True,
                    "epoch": target,
                    "replicas": {link.name: link.acked_seq for link in links},
                }
            if loop.time() >= deadline:
                laggards = {
                    link.name: link.acked_seq
                    for link in links
                    if link.acked_seq < target
                }
                return {
                    "ok": False,
                    "error": f"drain to epoch {target} timed out: {laggards}",
                }
            event = self._ack_event
            try:
                await asyncio.wait_for(event.wait(), 0.25)
            except (TimeoutError, asyncio.TimeoutError):
                pass

    # ------------------------------------------------------------------
    # Checkpointing (compaction support)
    # ------------------------------------------------------------------
    async def request_checkpoint(self, path, shard: int | None = None) -> int:
        """Ask the most caught-up healthy replica (of one shard group when
        ``shard`` is given) to write a checkpoint; returns the log seq the
        checkpoint covers."""
        candidates = sorted(
            (
                link
                for link in self._links.values()
                if link.healthy and (shard is None or link.shard == shard)
            ),
            key=lambda link: link.acked_seq,
            reverse=True,
        )
        if not candidates:
            scope = "" if shard is None else f" in shard {shard}"
            raise ClusterError(f"no healthy replica to checkpoint from{scope}")
        link = candidates[0]
        try:
            response = await self._query_roundtrip(
                link, {"op": "checkpoint", "path": str(path)}, timeout=300.0
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._mark_unhealthy(link, f"checkpoint failed: {exc}")
            await self._close_query_conn(link)
            raise ClusterError(f"checkpoint via {link.name} failed: {exc}") from exc
        return int(response["log_seq"])

    async def _query_roundtrip(
        self, link: _ReplicaLink, payload: dict, timeout: float = 5.0
    ) -> dict:
        async with link.query_lock:
            reader, writer = await self._query_conn(link)
            writer.write(
                (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
            )
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout)
        if not line:
            raise ClusterError("replica closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ClusterError(response.get("error", "replica request failed"))
        return response

    # ------------------------------------------------------------------
    # Fan-out pump
    # ------------------------------------------------------------------
    def _mark_healthy(self, link: _ReplicaLink) -> None:
        if not link.healthy:
            self._logger.info(
                "replica_healthy", replica=link.name, acked_seq=link.acked_seq
            )
        link.healthy = True
        link.unhealthy_since = None
        link.last_error = None

    def _revive(self, link: _ReplicaLink) -> None:
        """Re-mark a link healthy after a successful pump round-trip.

        The read path marks a link unhealthy on a single slow/failed
        query; a pump that is still acking proves the replica alive, so
        one transient read timeout must not exclude it from routing until
        the supervisor pointlessly restarts it."""
        if not link.healthy:
            self._mark_healthy(link)
            self._notify_ack()

    def _mark_unhealthy(self, link: _ReplicaLink, error: str) -> None:
        if link.healthy or link.unhealthy_since is None:
            link.unhealthy_since = (
                self._loop.time() if self._loop is not None else 0.0
            )
            self._logger.warning(
                "replica_unhealthy", replica=link.name, error=error
            )
        link.healthy = False
        link.last_error = error

    def _notify_ack(self) -> None:
        event, self._ack_event = self._ack_event, asyncio.Event()
        event.set()

    async def _pump(self, link: _ReplicaLink, generation: int) -> None:
        """Stream the log to one replica forever: connect, handshake (learn
        its applied seq), then push ``acked+1 .. head`` in batches, acking
        forward as the replica confirms apply+publish."""
        while not self._stopping and link.generation == generation:
            writer = None
            try:
                reader, writer = await asyncio.open_connection(
                    link.host, link.port, limit=_MAX_LINE
                )
                response = await self._pump_roundtrip(
                    reader, writer, {"op": "stats"}, self._read_timeout
                )
                replica_info = response["stats"]["replica"]
                link.acked_seq = int(replica_info["applied_seq"])
                link.rss_kb = int(replica_info.get("rss_kb") or link.rss_kb)
                self._mark_healthy(link)
                self._notify_ack()
                while not self._stopping and link.generation == generation:
                    link.kick.clear()
                    if link.acked_seq >= self._log.head:
                        try:
                            await asyncio.wait_for(link.kick.wait(), 1.0)
                        except (TimeoutError, asyncio.TimeoutError):
                            # Idle: verify liveness so a silently dead
                            # replica is noticed within ~a second.
                            await self._pump_roundtrip(
                                reader, writer, {"op": "ping"}, self._read_timeout
                            )
                            self._revive(link)
                        continue
                    records = self._log.read(
                        link.acked_seq + 1, limit=self._fanout_batch
                    )
                    payload = {
                        "op": "apply",
                        "events": [list(record) for record in records],
                    }
                    response = await self._pump_roundtrip(
                        reader, writer, payload, self._apply_timeout
                    )
                    link.acked_seq = int(response["applied_seq"])
                    self._fanout_batches += 1
                    self._revive(link)
                    self._notify_ack()
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self._mark_unhealthy(link, str(exc))
                self._notify_ack()
                await asyncio.sleep(self._retry_interval)
            finally:
                if writer is not None:
                    writer.close()

    @staticmethod
    async def _pump_roundtrip(reader, writer, payload: dict, timeout: float) -> dict:
        writer.write(
            (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
        )
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        if not line:
            raise ClusterError("replica closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ClusterError(response.get("error", "replica apply failed"))
        return response
