"""`ClusterSupervisor` — lifecycle for a router + N replica processes.

The deployment unit behind ``python -m repro serve-cluster``: given a
``save_oracle`` file, the supervisor

1. lays out the **cluster directory** (``checkpoint.json.gz`` +
   ``wal/``), opens the :class:`~repro.cluster.wal.UpdateLog` at the
   checkpoint's log position and starts the
   :class:`~repro.cluster.router.ClusterRouter`;
2. **spawns** one replica process per requested worker
   (:func:`~repro.cluster.replica.run_replica` via the ``spawn``
   multiprocessing context — no inherited locks or loops), each booting
   from checkpoint + WAL suffix and reporting its ephemeral port back
   over a pipe;
3. **health-checks**: a dead process — or one whose router link has been
   unhealthy longer than ``restart_after`` — is terminated and respawned;
   the fresh process warm-starts from the newest checkpoint, replays the
   WAL, and the router's pump closes whatever gap remains (crash
   recovery and catch-up are the same code path);
4. **compacts**: every ``compact_every`` appended events it asks the most
   caught-up replica to write a checkpoint, then drops fully-covered WAL
   segments once every replica has acked past them.

With ``shards=N`` (landmark sharding, docs/DESIGN.md §12) the supervisor
runs N shard groups of ``replicas`` processes each, named ``s{i}r{j}``.
Every group boots from its own checkpoint (``checkpoint-s{i}.json.gz``,
falling back to a restriction of the seed oracle), shares the single
WAL, and the router scatter-gathers reads across groups.  Compaction
checkpoints every group and only drops WAL records covered by *all* of
them.

``run()`` serves until SIGTERM/SIGINT and shuts down cleanly: router
drains in-flight requests and closes the WAL, replicas get SIGTERM and
exit 0 after their own graceful drain.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from pathlib import Path

from time import perf_counter

from repro.cluster.replica import ReplicaSpec, replica_process_entry
from repro.cluster.router import ClusterRouter
from repro.cluster.wal import UpdateLog
from repro.exceptions import ClusterError
from repro.obs.log import get_logger
from repro.serving.server import ThreadedLoopRunner
from repro.utils.serialization import read_oracle_meta

__all__ = ["ReplicaWorker", "ClusterSupervisor"]

_CHECKPOINT_NAME = "checkpoint.json.gz"
_WAL_DIRNAME = "wal"


class ReplicaWorker:
    """One spawned replica process plus the spec to respawn it."""

    def __init__(self, spec: ReplicaSpec, context) -> None:
        self.spec = spec
        self._ctx = context
        self.process = None
        self.address: tuple[str, int] | None = None
        self.restarts = 0
        self.last_exitcode = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def exitcode(self):
        """Exit code of the current (or last terminated) process.  A clean
        SIGTERM drain exits 0 — the smoke checks assert on it."""
        if self.process is not None:
            return self.process.exitcode
        return self.last_exitcode

    def spawn(self, spawn_timeout: float) -> tuple[str, int]:
        """Start the process; blocks until it reports its bound address.

        Called in an executor by the supervisor (pipe recv blocks).
        """
        parent_conn, child_conn = self._ctx.Pipe()
        # NOT daemonic: a daemonic process cannot have children, and the
        # parallel engine inside a replica (`workers=`) forks a process
        # pool.  Replicas exit on SIGTERM (supervisor.stop / terminate).
        self.process = self._ctx.Process(
            target=replica_process_entry,
            args=(self.spec, child_conn),
            name=f"repro-replica-{self.spec.name}",
        )
        self.process.start()
        child_conn.close()
        waited = 0.0
        try:
            while not parent_conn.poll(0.1):
                waited += 0.1
                if not self.process.is_alive():
                    raise ClusterError(
                        f"replica {self.spec.name} died during boot "
                        f"(exit code {self.process.exitcode})"
                    )
                if waited >= spawn_timeout:
                    self.terminate()
                    raise ClusterError(
                        f"replica {self.spec.name} did not report its address "
                        f"within {spawn_timeout:.0f}s"
                    )
            try:
                self.address = tuple(parent_conn.recv())
            except EOFError:
                self.process.join(5.0)
                raise ClusterError(
                    f"replica {self.spec.name} died before reporting its "
                    f"address (exit code {self.process.exitcode})"
                ) from None
        finally:
            parent_conn.close()
        return self.address

    def terminate(self, grace: float = 10.0) -> None:
        """SIGTERM (graceful drain in the replica), escalate to SIGKILL."""
        proc = self.process
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
            proc.join(grace)
            if proc.is_alive():  # pragma: no cover - stuck replica
                proc.kill()
                proc.join(grace)
        self.last_exitcode = proc.exitcode
        self.process = None
        self.address = None


class ClusterSupervisor:
    """Spawn, monitor, restart and compact a replicated oracle cluster."""

    def __init__(
        self,
        oracle_path: str | os.PathLike,
        *,
        cluster_dir: str | os.PathLike,
        replicas: int = 2,
        shards: int = 1,
        host: str = "127.0.0.1",
        port: int = 8360,
        workers: int | None = None,
        max_batch: int = 128,
        fsync: str = "batch",
        health_interval: float = 0.5,
        restart: bool = True,
        restart_after: float = 5.0,
        compact_every: int | None = 50_000,
        spawn_timeout: float = 120.0,
        router_kwargs: dict | None = None,
    ) -> None:
        if replicas < 1:
            raise ClusterError(f"replicas must be >= 1, got {replicas}")
        if shards < 1:
            raise ClusterError(f"shards must be >= 1, got {shards}")
        self._oracle_path = Path(oracle_path)
        self._dir = Path(cluster_dir)
        self._wal_dir = self._dir / _WAL_DIRNAME
        self._checkpoint = self._dir / _CHECKPOINT_NAME
        self._num_replicas = replicas
        self._shards = shards
        self._shard_of_worker: dict[str, int | None] = {}
        self._host = host
        self._port = port
        self._workers = workers
        self._max_batch = max_batch
        self._fsync = fsync
        self._health_interval = health_interval
        self._restart = restart
        self._restart_after = restart_after
        self._compact_every = compact_every
        self._spawn_timeout = spawn_timeout
        self._router_kwargs = dict(router_kwargs or {})
        self._ctx = multiprocessing.get_context("spawn")
        self._workers_by_name: dict[str, ReplicaWorker] = {}
        self._health_task: asyncio.Task | None = None
        self._compact_task: asyncio.Task | None = None
        self.router: ClusterRouter | None = None
        self.log: UpdateLog | None = None
        self._runner = ThreadedLoopRunner(name="cluster-supervisor")
        self._logger = get_logger("supervisor")
        self._checkpoint_hist = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def checkpoint_path(self) -> Path:
        """The live checkpoint file if one was written, else the seed
        oracle file replicas boot from (unsharded clusters)."""
        return self._checkpoint if self._checkpoint.exists() else self._oracle_path

    @property
    def num_shards(self) -> int:
        return self._shards

    def shard_checkpoint_path(self, index: int) -> Path:
        """Shard group ``index``'s checkpoint file (may not exist yet)."""
        return self._dir / f"checkpoint-s{index}.json.gz"

    def _boot_path(self, shard: int | None) -> Path:
        """The file a replica warm-starts from: its shard group's
        checkpoint when one exists, else the seed oracle (which
        ``build_replica`` restricts to the shard's owned landmarks)."""
        if shard is None:
            return self.checkpoint_path
        ckpt = self.shard_checkpoint_path(shard)
        return ckpt if ckpt.exists() else self._oracle_path

    @property
    def address(self) -> tuple[str, int]:
        if self.router is None:
            raise ClusterError("cluster is not started")
        return self.router.address

    def worker(self, name: str) -> ReplicaWorker:
        return self._workers_by_name[name]

    @property
    def workers_by_name(self) -> dict[str, ReplicaWorker]:
        return dict(self._workers_by_name)

    # ------------------------------------------------------------------
    # Async lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ClusterSupervisor":
        if not self._oracle_path.exists() and not self._checkpoint.exists():
            raise ClusterError(f"oracle file not found: {self._oracle_path}")
        self._dir.mkdir(parents=True, exist_ok=True)
        base_seq = self._base_seq()
        self.log = UpdateLog(self._wal_dir, fsync=self._fsync, base_seq=base_seq)
        self.router = ClusterRouter(
            self.log,
            self._host,
            self._port,
            shards=self._shards,
            **self._router_kwargs,
        )
        self._register_obs()
        await self.router.start()
        try:
            for name, shard in self._worker_layout():
                self._shard_of_worker[name] = shard
                await self._spawn(name)
        except Exception:
            await self.stop()
            raise
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop(), name="cluster-health"
        )
        return self

    async def stop(self) -> None:
        for attr in ("_health_task", "_compact_task"):
            task = getattr(self, attr)
            setattr(self, attr, None)
            if task is not None:
                task.cancel()
                try:
                    # Bounded + re-cancelling: a cancellation swallowed by
                    # a nested wait_for (bpo-42130) must not hang stop().
                    await asyncio.wait_for(task, 10.0)
                except (
                    asyncio.CancelledError,
                    TimeoutError,
                    asyncio.TimeoutError,
                ):
                    pass
        if self.router is not None:
            await self.router.stop()  # drains clients, stops pumps, closes WAL
        loop = asyncio.get_running_loop()
        for worker in self._workers_by_name.values():
            await loop.run_in_executor(None, worker.terminate)
        # Workers stay inspectable after stop (exit codes, restart counts);
        # the smoke checks assert every replica drained and exited 0.

    async def run(self, *, install_signals: bool = True, on_started=None) -> None:
        """Start, serve until SIGTERM/SIGINT, stop cleanly (the
        ``serve-cluster`` main loop)."""
        await self.start()
        if on_started is not None:
            on_started(self)
        shutdown = asyncio.Event()
        if install_signals:
            import signal

            loop = asyncio.get_running_loop()
            try:
                for sig in (signal.SIGINT, signal.SIGTERM):
                    loop.add_signal_handler(sig, shutdown.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        try:
            await shutdown.wait()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Threaded lifecycle (tests, smoke checks, benches)
    # ------------------------------------------------------------------
    def start_in_thread(self) -> tuple[str, int]:
        """Run the whole cluster from a dedicated event-loop thread;
        returns the router's bound address."""
        self._runner.launch(self.start, self.stop)
        return self.router.address

    def stop_thread(self) -> None:
        self._runner.shutdown()

    # ------------------------------------------------------------------
    # Spawning and health
    # ------------------------------------------------------------------
    def _worker_layout(self) -> list[tuple[str, int | None]]:
        """(name, shard) for every replica process.  Unsharded clusters
        keep the historical ``r{i}`` names; sharded ones use
        ``s{shard}r{j}``."""
        if self._shards == 1:
            return [(f"r{i}", None) for i in range(self._num_replicas)]
        return [
            (f"s{i}r{j}", i)
            for i in range(self._shards)
            for j in range(self._num_replicas)
        ]

    def _base_seq(self) -> int:
        """WAL position the slowest boot file covers.  Records after it
        must stay; anything at or before is already in every replica's
        checkpoint.  A group still booting from the seed oracle pins 0."""
        if self._shards == 1:
            checkpoint = self.checkpoint_path
            if checkpoint == self._checkpoint:
                return int(read_oracle_meta(checkpoint).get("log_seq", 0))
            return 0
        seqs = []
        for i in range(self._shards):
            ckpt = self.shard_checkpoint_path(i)
            if not ckpt.exists():
                return 0
            seqs.append(int(read_oracle_meta(ckpt).get("log_seq", 0)))
        return min(seqs)

    def _spec(self, name: str) -> ReplicaSpec:
        shard = self._shard_of_worker.get(name)
        return ReplicaSpec(
            name=name,
            checkpoint_path=str(self._boot_path(shard)),
            wal_dir=str(self._wal_dir),
            port=0,
            workers=self._workers,
            max_batch=self._max_batch,
            shard_index=shard,
            num_shards=self._shards,
        )

    def _register_obs(self) -> None:
        """Supervisor telemetry lives on the *router's* registry — the
        router is the cluster's scrape target (``--metrics-port``), and the
        supervisor runs in the same process."""
        registry = self.router.registry
        restarts = registry.gauge(
            "repro_replica_restarts",
            "Times each replica process has been respawned.",
            labelnames=("replica",),
        )
        self._checkpoint_hist = registry.histogram(
            "repro_checkpoint_duration_seconds",
            "End-to-end checkpoint request latency (router-side).",
        )

        def _collect() -> None:
            for name, worker in self._workers_by_name.items():
                restarts.labels(replica=name).set(worker.restarts)

        registry.on_collect(_collect)

    async def _spawn(self, name: str) -> None:
        previous = self._workers_by_name.get(name)
        worker = ReplicaWorker(self._spec(name), self._ctx)
        if previous is not None:
            worker.restarts = previous.restarts + 1
        loop = asyncio.get_running_loop()
        host, port = await loop.run_in_executor(
            None, worker.spawn, self._spawn_timeout
        )
        self._workers_by_name[name] = worker
        shard = self._shard_of_worker.get(name)
        self._logger.info(
            "replica_spawned",
            replica=name,
            shard=shard,
            port=port,
            restarts=worker.restarts,
        )
        await self.router.set_replica_address(
            name, host, port, shard=shard if shard is not None else 0
        )

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._health_interval)
            try:
                await self._health_pass()
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - keep supervising
                pass

    async def _health_pass(self) -> None:
        states = self.router.replica_states()
        now = asyncio.get_running_loop().time()
        for name, worker in list(self._workers_by_name.items()):
            state = states.get(name, {})
            dead = not worker.alive
            stuck = (
                worker.alive
                and not state.get("healthy", False)
                and state.get("unhealthy_since") is not None
                and now - state["unhealthy_since"] > self._restart_after
            )
            if not (dead or stuck):
                continue
            self._logger.warning(
                "replica_down",
                replica=name,
                reason="process_dead" if dead else "link_stuck",
                exitcode=worker.exitcode,
                restart=self._restart,
            )
            if not self._restart:
                await self.router.remove_replica(name)
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, worker.terminate)
                del self._workers_by_name[name]
                continue
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, worker.terminate)
            await self._spawn(name)
        await self._maybe_compact()

    async def _maybe_compact(self) -> None:
        if self._compact_every is None:
            return
        if self._compact_task is not None and not self._compact_task.done():
            return
        log = self.log
        if log.head - log.base < self._compact_every:
            return
        # Run off the health loop: a checkpoint of a large oracle takes
        # seconds-to-minutes and must not delay crash detection/restarts.
        self._compact_task = asyncio.get_running_loop().create_task(
            self._compact(), name="cluster-compact"
        )

    async def _compact(self) -> None:
        log = self.log
        start = perf_counter()
        try:
            if self._shards == 1:
                covered = await self.router.request_checkpoint(self._checkpoint)
            else:
                # Every shard group must checkpoint before any WAL record
                # can go: a record is only covered once *all* shards have
                # persisted their slice of its effects.
                covered = min(
                    [
                        await self.router.request_checkpoint(
                            self.shard_checkpoint_path(i), shard=i
                        )
                        for i in range(self._shards)
                    ]
                )
            if self._checkpoint_hist is not None:
                self._checkpoint_hist.observe(perf_counter() - start)
            # Never compact past what every live replica has acked — a
            # laggard still needs the records; the checkpoint bounds it.
            acked = [
                state["acked_seq"]
                for state in self.router.replica_states().values()
            ]
            if acked:
                covered = min(covered, min(acked))
            if covered > log.base:
                await self.router.compact_log(covered)
                self._logger.info(
                    "wal_compacted",
                    covered_seq=covered,
                    head=log.head,
                    checkpoint_s=round(perf_counter() - start, 3),
                )
        except ClusterError as exc:
            # No healthy replica right now; retry next pass.
            self._logger.warning("compact_skipped", err=str(exc))
