"""Replica workers: one full copy of the oracle per process.

A replica is an :class:`~repro.serving.server.OracleServer` plus cluster
semantics (:class:`ReplicaServer`):

* **`apply`** — the router's fan-out op: a batch of ``(seq, kind, u, v)``
  log records, applied through the single-writer
  :class:`~repro.serving.service.OracleService` (each drained chunk of
  inserts and deletes applies as one vectorized batch sweep) and
  acknowledged only once applied *and* published — the router's
  ``acked_seq`` for a replica is therefore always a state the replica can
  serve.  Records at or below the replica's ``applied_seq`` are skipped
  (idempotent redelivery); a sequence gap is refused (the replica must
  restart from checkpoint + WAL instead of silently forking).
* **`query` / `query_many` / `path` with `min_epoch`** — read-your-writes
  gating: the replica refuses to answer below the requested log position;
  read responses report the replica's ``applied_seq`` as their ``epoch``.
* **`checkpoint`** — persist a pinned snapshot as a
  ``save_oracle`` + ``{"log_seq": N}`` file (atomic rename), feeding WAL
  compaction.  The snapshot is immutable, so the save runs in an executor
  while the writer keeps applying.

:func:`build_replica` is the warm-start path (checkpoint → WAL suffix
replay → serving), shared byte-for-byte between the spawned process entry
:func:`run_replica` and the in-process servers the tests and benches use.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.cluster.wal import scan_wal, write_checkpoint
from repro.exceptions import ClusterError
from repro.obs.log import get_logger
from repro.serving.server import OracleServer
from repro.serving.service import OracleService
from repro.workloads.streams import UpdateEvent

__all__ = [
    "ReplicaSpec",
    "ReplicaServer",
    "build_replica",
    "replica_process_entry",
    "run_replica",
]

_APPLY_TIMEOUT = 300.0  # seconds an `apply` waits for the writer to publish


def _peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 where the
    ``resource`` module is unavailable).  Reported per replica so the
    sharded cluster can show per-shard memory in ``repro top``."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything a replica process needs to boot (picklable: crosses the
    ``multiprocessing`` spawn boundary)."""

    name: str
    checkpoint_path: str
    wal_dir: str | None = None
    host: str = "127.0.0.1"
    port: int = 0
    workers: int | None = None
    max_batch: int = 128
    #: Landmark sharding: with ``num_shards > 1`` the replica restricts
    #: the restored oracle to shard ``shard_index``'s owned landmarks
    #: (:mod:`repro.cluster.shards`) before serving.  The checkpoint may
    #: be the full seed oracle or a previously written shard checkpoint
    #: — restriction is idempotent, so both warm-start identically.
    shard_index: int | None = None
    num_shards: int = 1


class ReplicaServer(OracleServer):
    """An :class:`OracleServer` that participates in a cluster."""

    obs_component = "replica"

    def __init__(
        self,
        service: OracleService,
        *,
        name: str = "replica",
        host: str = "127.0.0.1",
        port: int = 0,
        applied_seq: int = 0,
        checkpoint_path: str | None = None,
        metrics_port: int | None = None,
        shard_index: int | None = None,
        shard_meta: dict | None = None,
    ) -> None:
        super().__init__(service, host=host, port=port, metrics_port=metrics_port)
        self.name = name
        self._applied_seq = applied_seq
        self._checkpoint_path = checkpoint_path
        self.shard_index = shard_index
        self._shard_meta = shard_meta
        self._async_ops.update(
            {"apply": self._op_apply, "checkpoint": self._op_checkpoint}
        )
        seq_gauge = self._registry.gauge(
            "repro_replica_applied_seq",
            "Highest log seq this replica has applied and published.",
        )
        self._registry.on_collect(lambda: seq_gauge.set(self._applied_seq))

    @property
    def applied_seq(self) -> int:
        """Highest log seq applied *and* published (the replica's epoch)."""
        return self._applied_seq

    # ------------------------------------------------------------------
    # Cluster ops
    # ------------------------------------------------------------------
    async def _op_apply(self, request: dict) -> dict:
        events: list[UpdateEvent] = []
        last_accepted = self._applied_seq
        for raw in request["events"]:
            seq, kind, u, v = raw
            seq = int(seq)
            if seq <= self._applied_seq:
                continue  # redelivered (router reconnect); already applied
            if seq != last_accepted + 1:
                return {
                    "ok": False,
                    "error": (
                        f"log gap: expected seq {last_accepted + 1}, got {seq}; "
                        f"replica must restart from checkpoint"
                    ),
                    "applied_seq": self._applied_seq,
                }
            events.append(UpdateEvent(kind, (int(u), int(v))))
            last_accepted = seq
        if events:
            service = self._service
            service.submit_many(events)
            barrier = service.request_publish()
            loop = asyncio.get_running_loop()
            done = await loop.run_in_executor(None, barrier.wait, _APPLY_TIMEOUT)
            if not done:
                return {
                    "ok": False,
                    "error": "apply timed out waiting for the writer",
                    "applied_seq": self._applied_seq,
                }
            if service.degraded is not None:
                return {
                    "ok": False,
                    "error": f"replica degraded: {service.degraded}",
                    "applied_seq": self._applied_seq,
                }
            self._applied_seq = last_accepted
        return {
            "ok": True,
            "applied_seq": self._applied_seq,
            "epoch": self._applied_seq,
        }

    async def _op_checkpoint(self, request: dict) -> dict:
        path = request.get("path") or self._checkpoint_path
        if not path:
            return {"ok": False, "error": "no checkpoint path configured"}
        # Read the seq *before* pinning the snapshot: applied_seq only ever
        # advances after a publish, so the snapshot contains at least
        # everything up to seq_now and the meta may only understate —
        # replaying an already-applied suffix is harmless (see wal.py).
        seq_now = self._applied_seq
        snapshot = self._service.snapshot
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, write_checkpoint, snapshot, path, seq_now, self._shard_meta
        )
        return {"ok": True, "log_seq": seq_now, "path": str(path)}

    # ------------------------------------------------------------------
    # Read gating
    # ------------------------------------------------------------------
    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op in ("update", "updates"):
            # A write that bypasses the log would silently fork this
            # replica from the cluster (no seq, no fan-out) — the
            # byte-identical invariant only holds for logged events.
            return {
                "ok": False,
                "error": (
                    f"replica {self.name} accepts updates only from the "
                    f"cluster log (op 'apply'); send writes to the router"
                ),
            }
        if op in ("query", "query_many", "path"):
            # Capture before the base dispatch pins its snapshot: applies
            # bump applied_seq only after publishing, so the pinned
            # snapshot contains at least everything up to seq_now.
            seq_now = self._applied_seq
            min_epoch = request.get("min_epoch")
            if min_epoch is not None and seq_now < int(min_epoch):
                return {
                    "ok": False,
                    "error": (
                        f"replica {self.name} is at epoch {seq_now}, "
                        f"below the requested min_epoch {int(min_epoch)}"
                    ),
                    "epoch": seq_now,
                    "retryable": True,
                }
            response = super()._dispatch(request)
            if response.get("ok"):
                response["epoch"] = seq_now  # cluster epoch = log seq
            return response
        response = super()._dispatch(request)
        if op == "stats" and response.get("ok"):
            entry = {
                "name": self.name,
                "applied_seq": self._applied_seq,
                "rss_kb": _peak_rss_kb(),
            }
            if self.shard_index is not None:
                entry["shard"] = self.shard_index
            response["stats"]["replica"] = entry
        return response


def build_replica(spec: ReplicaSpec) -> ReplicaServer:
    """Warm-start a replica: checkpoint, then WAL suffix, then serve.

    The exact boot path a restarted worker takes — the convergence tests
    call it in-process to prove a crash + restart lands byte-identical to
    a sequential replay.  The returned server is not yet started.

    With ``spec.num_shards > 1`` the restored oracle is restricted to
    shard ``spec.shard_index``'s owned landmarks before the WAL replay:
    the shard engine repairs only the owned rows, so replaying the same
    suffix on every shard reconstructs the exact landmark partition of
    the sequential full-oracle replay.
    """
    from repro.utils.serialization import load_oracle_with_meta

    oracle, meta = load_oracle_with_meta(spec.checkpoint_path)
    applied = int(meta.get("log_seq", 0))
    shard_meta = None
    if spec.num_shards > 1:
        from repro.cluster.shards import ShardPlan, make_shard_oracle

        if spec.shard_index is None or not (
            0 <= spec.shard_index < spec.num_shards
        ):
            raise ClusterError(
                f"replica {spec.name}: shard_index {spec.shard_index!r} "
                f"invalid for num_shards={spec.num_shards}"
            )
        plan = ShardPlan.for_landmarks(oracle.landmarks, spec.num_shards)
        if "shard_plan" in meta and ShardPlan.from_meta(meta) != plan:
            raise ClusterError(
                f"replica {spec.name}: checkpoint shard plan does not match "
                f"the {spec.num_shards}-shard striping of its landmarks"
            )
        recorded_index = meta.get("shard_index")
        if recorded_index is not None and int(recorded_index) != spec.shard_index:
            raise ClusterError(
                f"replica {spec.name}: checkpoint belongs to shard "
                f"{recorded_index}, not {spec.shard_index}"
            )
        # The source oracle is discarded right here, so the shard may
        # take its graph by reference instead of copying it.
        oracle = make_shard_oracle(
            oracle, plan, spec.shard_index, copy_graph=False
        )
        shard_meta = {**plan.to_meta(), "shard_index": spec.shard_index}
    oracle.workers = spec.workers
    service = OracleService(
        oracle, workers=spec.workers, max_batch=spec.max_batch
    )
    if spec.wal_dir:
        records = scan_wal(spec.wal_dir, start_seq=applied + 1)
        if records:
            if records[0].seq > applied + 1:
                raise ClusterError(
                    f"replica {spec.name}: WAL starts at seq {records[0].seq} "
                    f"but the checkpoint covers only up to {applied}"
                )
            service.start()
            service.submit_many(record.event for record in records)
            service.flush()
            applied = records[-1].seq
    return ReplicaServer(
        service,
        name=spec.name,
        host=spec.host,
        port=spec.port,
        applied_seq=applied,
        checkpoint_path=spec.checkpoint_path,
        shard_index=spec.shard_index if spec.num_shards > 1 else None,
        shard_meta=shard_meta,
    )


def run_replica(spec: ReplicaSpec, conn=None) -> int:
    """Process entry point: boot from checkpoint + WAL, serve until
    SIGTERM/SIGINT, exit 0 on a clean drain.

    ``conn`` (a ``multiprocessing`` pipe end) receives the bound
    ``(host, port)`` once the socket is up — the supervisor assigns
    ephemeral ports, so the replica must report where it landed.
    """
    log = get_logger("replica")
    try:
        server = build_replica(spec)
    except Exception as exc:
        log.error("boot_failed", replica=spec.name, err=str(exc))
        if conn is not None:
            conn.close()
        return 1
    log.info("booted", replica=spec.name, applied_seq=server.applied_seq)

    def _report(started_server) -> None:
        if conn is not None:
            conn.send(started_server.address)
            conn.close()

    try:
        asyncio.run(server.run(on_started=_report))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    return 0


def replica_process_entry(spec: ReplicaSpec, conn=None) -> None:
    """``multiprocessing.Process`` target wrapping :func:`run_replica`.

    A Process *discards* its target's return value; raising SystemExit
    is what actually sets the child's exit code, so a failed boot shows
    up as exit code 1 (the supervisor and smoke checks assert on it)
    instead of masquerading as a clean shutdown.
    """
    raise SystemExit(run_replica(spec, conn))


if __name__ == "__main__":  # pragma: no cover - manual debugging aid
    from repro import knobs

    raise SystemExit(run_replica(ReplicaSpec(**knobs.get("REPRO_REPLICA_SPEC"))))
