"""DynamicHCL — the user-facing dynamic distance oracle.

Couples a :class:`~repro.graph.dynamic_graph.DynamicGraph` with a
:class:`~repro.core.labelling.HighwayCoverLabelling` and keeps the two in
sync through the paper's update operations plus this repository's
extensions:

* :meth:`DynamicHCL.insert_edge` — IncHL+ edge insertion (Section 4);
* :meth:`DynamicHCL.insert_vertex` — vertex insertion, decomposed into edge
  insertions (Section 3);
* :meth:`DynamicHCL.insert_edges_batch` — one find/repair sweep per
  landmark for a whole burst of insertions (:mod:`repro.core.batch`);
* :meth:`DynamicHCL.remove_edge` / :meth:`DynamicHCL.remove_vertex` — the
  decremental extension (paper's future work), fine-grained DecHL
  (:mod:`repro.core.dechl`);
* :meth:`DynamicHCL.remove_edges_batch` / :meth:`DynamicHCL.apply_events_batch`
  — fully-dynamic mixed insert/delete batches, one BatchHL-style combined
  sweep per landmark on the fast route (``docs/DESIGN.md`` §10), judged
  by :func:`validate_events` — the one event validator, which the
  serving writer shares;
* :meth:`DynamicHCL.add_landmark` / :meth:`DynamicHCL.remove_landmark` —
  online landmark-set resizing (:mod:`repro.landmarks.maintenance`);
* :meth:`DynamicHCL.shortest_path` — path extraction on top of the
  distance oracle (:mod:`repro.core.paths`).

Queries are answered exactly at any point between updates.

The ``workers`` knob routes every bulk operation — construction, batch
insertion, mixed batches — through the parallel per-landmark
engine (:mod:`repro.parallel`); results are identical for any worker
count.

The ``fast`` knob (per call, or ``fast_updates=`` as the oracle default —
mirroring the ``construction`` knob) routes :meth:`insert_edge` /
:meth:`insert_edges_batch` / :meth:`remove_edge` /
:meth:`remove_edges_batch` / :meth:`apply_events_batch` through the
vectorized CSR update engine of :mod:`repro.core.inchl_fast`; the
labelling it produces is byte-identical to the sequential
implementation's for every event kind.  The engine is cached across fast
updates — including deletions — and transparently rebuilt after any
other mutation (landmark maintenance, vertex removal, reference-route
updates).
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

from repro.core.construction import build_hcl
from repro.core.inchl import UpdateStats, apply_edge_insertion
from repro.core.labelling import HighwayCoverLabelling
from repro.core.query import (
    landmark_distance,
    query_distance,
    query_distances_many,
    upper_bound,
)
from repro.exceptions import EdgeNotFoundError, GraphError
from repro.graph.dynamic_graph import DynamicGraph
from repro.landmarks.selection import select_landmarks

__all__ = ["DynamicHCL", "validate_events"]


def validate_events(graph: DynamicGraph, events) -> tuple[list, list]:
    """Judge an insert/delete batch with sequential semantics.

    ``events`` holds :class:`~repro.workloads.streams.UpdateEvent` objects
    or plain ``(kind, (u, v))`` pairs.  Each event is judged against the
    edge state its *accepted* predecessors produce, so deleting an edge
    inserted earlier in the batch is valid and a duplicate insert or an
    absent-edge delete is not.  Vertex ids must be non-negative, non-bool
    integers; self-loops are rejected; an insert may name a vertex the
    graph does not have yet (the paper's vertex insertion).  Nothing is
    mutated.

    Returns ``(accepted, rejects)``: the accepted events as
    ``(kind, (u, v))`` pairs in order, and ``(event, reason)`` for every
    reject.
    """
    accepted: list[tuple[str, tuple[int, int]]] = []
    rejects: list[tuple[object, str]] = []
    state: dict[tuple[int, int], bool] = {}
    for event in events:
        kind, (u, v) = (
            (event.kind, event.edge) if hasattr(event, "kind") else event
        )
        if kind not in ("insert", "delete"):
            rejects.append((event, f"unknown event kind {kind!r}"))
            continue
        if not all(
            isinstance(x, int) and not isinstance(x, bool) and x >= 0
            for x in (u, v)
        ):
            rejects.append((event, f"invalid vertex id in ({u!r}, {v!r})"))
            continue
        if u == v:
            rejects.append((event, f"self-loop ({u}, {v})"))
            continue
        key = (u, v) if u < v else (v, u)
        present = state.get(key)
        if present is None:
            present = graph.has_edge(u, v)
        if kind == "insert" and present:
            rejects.append((event, f"insert of already-present edge ({u}, {v})"))
        elif kind == "delete" and not present:
            rejects.append((event, f"delete of absent edge ({u}, {v})"))
        else:
            state[key] = kind == "insert"
            accepted.append((kind, (u, v)))
    return accepted, rejects


class DynamicHCL:
    """A dynamic graph with an incrementally maintained distance labelling.

    >>> from repro.graph.generators import grid_graph
    >>> oracle = DynamicHCL.build(grid_graph(3, 3), num_landmarks=2)
    >>> oracle.query(0, 8)
    4
    >>> _ = oracle.insert_edge(0, 8)
    >>> oracle.query(0, 8)
    1

    ``workers=N`` (``0`` = all CPUs) parallelizes bulk operations without
    changing any result:

    >>> fast = DynamicHCL.build(grid_graph(3, 3), landmarks=[0, 8], workers=2)
    >>> ref = DynamicHCL.build(grid_graph(3, 3), landmarks=[0, 8])
    >>> fast.labelling == ref.labelling
    True
    """

    def __init__(
        self,
        graph: DynamicGraph,
        labelling: HighwayCoverLabelling,
        workers: int | None = None,
        fast_updates: bool = False,
        owned_landmarks: Sequence[int] | None = None,
    ) -> None:
        self._graph = graph
        self._labelling = labelling
        #: Default worker count for bulk operations (``None``/``1`` serial,
        #: ``0`` all CPUs); per-call ``workers=`` arguments override it.
        self.workers = workers
        #: Default route for :meth:`insert_edge`/:meth:`insert_edges_batch`
        #: (the vectorized CSR engine vs the reference dict kernels);
        #: per-call ``fast=`` arguments override it.
        self.fast_updates = fast_updates
        #: Landmark-sharded mode (``repro.core.sharding``): this oracle
        #: owns only these landmarks' label rows; ``labelling`` must be
        #: the matching restricted labelling.  Queries become
        #: shard-local (exact through owned landmarks, scatter-gather
        #: min over all shards is globally exact) and every update runs
        #: on the vectorized engine restricted to the owned rows.
        self._owned = list(owned_landmarks) if owned_landmarks is not None else None
        if self._owned is not None:
            self.fast_updates = True
        self._version = 0
        self._snapshot_cache = None
        self._shard_rows_cache = None
        self._fast_engine = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: DynamicGraph,
        num_landmarks: int = 20,
        strategy: str = "degree",
        landmarks: Sequence[int] | None = None,
        rng: int | random.Random | None = None,
        construction: str = "python",
        workers: int | None = None,
        fast_updates: bool = False,
    ) -> "DynamicHCL":
        """Build the labelling for ``graph`` and wrap both in an oracle.

        Either pass explicit ``landmarks`` or let the named selection
        ``strategy`` pick ``num_landmarks`` of them (paper default: the 20
        highest-degree vertices).  The graph is used *by reference*: updates
        through the oracle mutate it.

        ``construction`` selects the builder: ``"python"`` (reference) or
        ``"csr"`` (the numpy fast path of
        :func:`repro.core.construction_fast.build_hcl_fast`; same labelling,
        much faster on large graphs).

        ``workers`` fans the per-landmark construction sweeps out across a
        process pool and becomes the oracle's default for later bulk
        operations (``None``/``1`` serial, ``0`` all CPUs); the labelling
        is identical for any worker count.

        ``fast_updates`` becomes the oracle's default update route: when
        true, :meth:`insert_edge` / :meth:`insert_edges_batch` run on the
        vectorized CSR engine (:mod:`repro.core.inchl_fast`) — identical
        labelling, much faster on large update streams.
        """
        if landmarks is None:
            landmarks = select_landmarks(graph, num_landmarks, strategy, rng=rng)
        if construction == "python":
            labelling = build_hcl(graph, landmarks, workers=workers)
        elif construction == "csr":
            from repro.core.construction_fast import build_hcl_fast

            labelling = build_hcl_fast(graph, landmarks, workers=workers)
        else:
            raise ValueError(
                f"unknown construction {construction!r}; use 'python' or 'csr'"
            )
        return cls(graph, labelling, workers=workers, fast_updates=fast_updates)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        """The underlying graph (mutate only through the oracle)."""
        return self._graph

    @property
    def labelling(self) -> HighwayCoverLabelling:
        """The maintained labelling ``Γ = (H, L)``."""
        return self._labelling

    @property
    def landmarks(self) -> list[int]:
        """Landmarks ``R`` in selection order."""
        return self._labelling.landmarks

    @property
    def owned_landmarks(self) -> list[int] | None:
        """The landmark subset this oracle maintains, or ``None`` when it
        is an ordinary unsharded oracle owning all of them."""
        return list(self._owned) if self._owned is not None else None

    @property
    def label_entries(self) -> int:
        """``size(L)`` — the paper's labelling-size metric."""
        return self._labelling.label_entries

    def size_bytes(self) -> int:
        """Logical labelling footprint in bytes (Table 1 accounting)."""
        return self._labelling.size_bytes()

    @property
    def version(self) -> int:
        """Monotonic update epoch: bumped once per mutating operation.

        A snapshot taken at epoch ``e`` answers queries against the graph
        exactly as it stood at ``e``; ``oracle.version > snap.epoch`` means
        the snapshot is stale (but still perfectly consistent).
        """
        return self._version

    def snapshot(self):
        """An immutable point-in-time read view of this oracle.

        Returns an :class:`repro.serving.snapshot.OracleSnapshot` pinned to
        the current :attr:`version`.  Snapshots are cheap (pointer-level
        copy-on-write, see :meth:`HighwayCoverLabelling.freeze`) and never
        block or observe later updates — the serving layer's readers query
        snapshots while the single writer mutates the oracle.  Repeated
        calls between updates return the same cached snapshot object.
        """
        from repro.serving.snapshot import OracleSnapshot

        cached = self._snapshot_cache
        if cached is not None and cached.epoch == self._version:
            return cached
        snap = OracleSnapshot.capture(self)
        self._snapshot_cache = snap
        return snap

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, path, meta: dict | None = None) -> None:
        """Persist graph + labelling to ``path`` (a ``save_oracle`` file).

        ``meta`` rides along in the file — the cluster layer stamps the
        update-log position the checkpoint covers (``{"log_seq": N}``) so
        a replica can warm-start from the checkpoint and replay only the
        log suffix (:mod:`repro.cluster`).
        """
        from repro.utils.serialization import save_oracle

        save_oracle(self, path, meta=meta)

    @classmethod
    def restore(cls, path) -> tuple["DynamicHCL", dict]:
        """Load a :meth:`checkpoint` file; returns ``(oracle, meta)``.

        ``meta`` is ``{}`` for files saved without one (plain
        ``save_oracle`` output warm-starts the same way).
        """
        from repro.utils.serialization import load_oracle_with_meta

        return load_oracle_with_meta(path)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, u: int, v: int) -> float:
        """Exact distance ``d_G(u, v)``; ``inf`` when disconnected.

        On a landmark shard the answer is *shard-local*: exact whenever
        some shortest path meets an owned landmark or no landmark at
        all, an overestimate otherwise — the element-wise min across all
        shards of a partition is the exact global distance
        (:mod:`repro.core.sharding`).
        """
        if self._owned is not None:
            from repro.core.sharding import shard_query_distance

            dist, index_of = self.shard_rows()
            return shard_query_distance(
                self._graph, self._labelling.landmark_set, dist, index_of, u, v
            )
        return query_distance(self._graph, self._labelling, u, v)

    def query_many(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        """Exact distances for a batch of ``(u, v)`` pairs.

        Same answers as calling :meth:`query` per pair but with the
        per-call attribute lookups hoisted once — the serving hot path
        (:mod:`repro.serving`) answers its bulk requests through this.
        """
        if self._owned is not None:
            from repro.core.sharding import shard_query_distances_many

            dist, index_of = self.shard_rows()
            return shard_query_distances_many(
                self._graph, self._labelling.landmark_set, dist, index_of, pairs
            )
        return query_distances_many(self._graph, self._labelling, pairs)

    def shard_rows(self):
        """Frozen ``(dist, index_of)`` shard-query state at this version.

        ``dist`` is the owned landmarks' dense distance matrix (one int32
        row per owned landmark, :data:`~repro.graph.dyncsr.UNREACH` for
        unreachable) and ``index_of`` maps vertex ids to its columns.
        The copy is cached per :attr:`version`, so snapshots and repeated
        queries between updates share one frozen state.  Only available
        in landmark-sharded mode.
        """
        if self._owned is None:
            raise GraphError("shard_rows() requires a landmark-sharded oracle")
        cached = self._shard_rows_cache
        if cached is not None and cached[0] == self._version:
            return cached[1], cached[2]
        engine = self._resolve_fast_engine()
        dist, index_of = engine.freeze_shard_rows()
        self._shard_rows_cache = (self._version, dist, index_of)
        return dist, index_of

    def distance_bound(self, u: int, v: int) -> float:
        """The label-only upper bound ``d⊤`` (Eq. 2) — useful on its own as
        a fast approximate distance."""
        landmark_set = self._labelling.landmark_set
        if u == v:
            return 0
        if u in landmark_set:
            return landmark_distance(self._labelling, u, v)
        if v in landmark_set:
            return landmark_distance(self._labelling, v, u)
        return upper_bound(self._labelling, u, v)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _resolve_fast_engine(self):
        """The cached vectorized update engine, (re)built when stale.

        Must be called *before* the graph mutation: the engine snapshots
        the pre-insertion graph to seed its dense old-distance rows.
        """
        from repro.core.inchl_fast import FastUpdateEngine

        engine = self._fast_engine
        if engine is None or not engine.matches(self._graph, self._labelling):
            engine = FastUpdateEngine(
                self._graph,
                self._labelling,
                workers=self.workers,
                owned=self._owned,
            )
            self._fast_engine = engine
        return engine

    def _invalidate_fast(self) -> None:
        """Drop the cached fast engine (its overlay/rows are now stale)."""
        self._fast_engine = None

    def _route_fast(self, fast: bool | None) -> bool:
        """Resolve a per-call ``fast`` argument against the oracle default.

        Landmark shards have no reference route — the dict kernels
        iterate the full landmark list — so sharded oracles always take
        the restricted vectorized engine.
        """
        if self._owned is not None:
            return True
        return self.fast_updates if fast is None else fast

    def _require_unsharded(self, operation: str) -> None:
        if self._owned is not None:
            raise GraphError(
                f"{operation} is not supported on a landmark shard; apply it "
                f"to the unsharded oracle and re-shard"
            )

    def insert_edge(self, u: int, v: int, fast: bool | None = None) -> UpdateStats:
        """Insert edge ``(u, v)`` and repair the labelling (IncHL+).

        ``fast`` selects the update route (default: the oracle's
        ``fast_updates``): the reference dict kernels of
        :mod:`repro.core.inchl`, or the vectorized CSR engine of
        :mod:`repro.core.inchl_fast` — byte-identical labellings either
        way.  Returns the update statistics (affected counts per
        landmark).
        """
        fast = self._route_fast(fast)
        if fast:
            engine = self._resolve_fast_engine()
            self._graph.add_edge(u, v)
            self._version += 1
            return engine.insert_edge(u, v)
        self._invalidate_fast()
        self._graph.add_edge(u, v)
        self._version += 1
        return apply_edge_insertion(self._graph, self._labelling, u, v)

    def insert_vertex(self, v: int, neighbors: Iterable[int]) -> list[UpdateStats]:
        """The paper's vertex insertion: new vertex ``v`` plus edges to
        existing vertices, processed as a sequence of edge insertions."""
        self._require_unsharded("insert_vertex")
        neighbor_list = list(neighbors)
        self._invalidate_fast()
        self._graph.insert_vertex(v, [])
        self._version += 1
        stats = []
        for w in neighbor_list:
            self._graph.add_edge(v, w)
            self._version += 1
            stats.append(apply_edge_insertion(self._graph, self._labelling, v, w))
        return stats

    def insert_edges(
        self, edges: Iterable[tuple[int, int]], fast: bool | None = None
    ) -> list[UpdateStats]:
        """Batch convenience: apply a stream of edge insertions in order.

        The paper's model is strictly online (one repair per change), so
        this simply loops :meth:`insert_edge`; it exists so workloads can be
        replayed in one call.  For one *combined* sweep per landmark use
        :meth:`insert_edges_batch` instead.
        """
        return [self.insert_edge(u, v, fast=fast) for u, v in edges]

    def insert_edges_batch(
        self,
        edges: Iterable[tuple[int, int]],
        workers: int | None = None,
        fast: bool | None = None,
    ) -> UpdateStats:
        """Insert a burst of edges with one find/repair sweep per landmark.

        Semantically identical to :meth:`insert_edges` (both end on the
        canonical minimal labelling of the final graph) but the affected
        regions of the whole batch are discovered and repaired together —
        see :mod:`repro.core.batch` for the algorithm and the ablation
        benchmark for the crossover.  ``workers`` overrides the oracle's
        default worker count for the per-landmark find phase; ``fast``
        selects the dict kernels or the vectorized CSR engine (default:
        the oracle's ``fast_updates``).
        """
        fast = self._route_fast(fast)
        edge_list = list(edges)
        if fast:
            engine = self._resolve_fast_engine()
            for u, v in edge_list:
                self._graph.add_edge(u, v)
            self._version += len(edge_list)
            return engine.insert_edges_batch(
                edge_list, workers=self.workers if workers is None else workers
            )
        from repro.core.batch import apply_edge_insertions_batch

        self._invalidate_fast()
        for u, v in edge_list:
            self._graph.add_edge(u, v)
        self._version += len(edge_list)
        return apply_edge_insertions_batch(
            self._graph,
            self._labelling,
            edge_list,
            workers=self.workers if workers is None else workers,
        )

    def remove_edge(self, u: int, v: int, fast: bool | None = None):
        """Decremental update (the paper's stated future work).

        ``fast`` selects the update route (default: the oracle's
        ``fast_updates``): the vectorized mixed-batch engine
        (:meth:`repro.core.inchl_fast.FastUpdateEngine.remove_edge`) —
        byte-identical labelling, dense rows kept valid, no engine
        invalidation — or the fine-grained DecHL of
        :mod:`repro.core.dechl`, which confines work to the affected
        region.  An absent edge raises :class:`EdgeNotFoundError` on
        either route, before anything changes.
        """
        if not self._graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        if self._route_fast(fast):
            engine = self._resolve_fast_engine()
            self._graph.remove_edge(u, v)
            self._version += 1
            return engine.remove_edge(u, v)
        from repro.core.dechl import apply_edge_deletion_partial

        self._invalidate_fast()
        self._version += 1
        return apply_edge_deletion_partial(self._graph, self._labelling, u, v)

    def remove_edges_batch(
        self,
        edges: Iterable[tuple[int, int]],
        workers: int | None = None,
        fast: bool | None = None,
    ):
        """Delete a burst of edges with one combined sweep per landmark.

        The decremental counterpart of :meth:`insert_edges_batch`: on the
        fast route the whole burst is absorbed by one BatchHL-style
        find/repair pass per landmark
        (:meth:`~repro.core.inchl_fast.FastUpdateEngine.remove_edges_batch`);
        on the reference route the edges are deleted one at a time through
        DecHL.  Both end on the canonical minimal labelling of the final
        graph.  Returns a :class:`~repro.core.batch.MixedUpdateStats`.
        """
        return self.apply_events_batch(
            [("delete", (u, v)) for u, v in edges], workers=workers, fast=fast
        )

    def apply_events_batch(
        self,
        events,
        workers: int | None = None,
        fast: bool | None = None,
    ):
        """Apply a mixed insert/delete event batch in one combined repair.

        ``events`` is a sequence of
        :class:`~repro.workloads.streams.UpdateEvent` (or plain
        ``(kind, (u, v))`` pairs) applied *as if sequentially*:
        :func:`validate_events` judges every event against the graph
        state its predecessors produce, the first invalid one raises
        :class:`GraphError` before anything is mutated, and
        :attr:`version` advances by ``len(events)`` — the same epochs a
        one-at-a-time replay would stamp.  Endpoints of inserts that the
        graph does not have yet are registered as new vertices.

        On the fast route the batch is first collapsed to its *net* edge
        sets — an insert-then-delete (or delete-then-reinsert) pair
        cancels outright — and handed to the mixed-batch engine as one
        BatchHL-style sweep per landmark.  The reference route replays
        the events one at a time (IncHL+ / DecHL).  Both end on the
        canonical minimal labelling of the final graph, byte for byte.
        Returns a :class:`~repro.core.batch.MixedUpdateStats`.
        """
        from repro.core.batch import MixedUpdateStats

        fast = self._route_fast(fast)
        graph = self._graph
        accepted, rejects = validate_events(graph, events)
        if rejects:
            event, reason = rejects[0]
            raise GraphError(f"invalid event {event!r}: {reason}")
        state: dict[tuple[int, int], bool] = {}
        for kind, (u, v) in accepted:
            if kind == "insert":
                graph.add_vertex(u)
                graph.add_vertex(v)
            state[(u, v) if u < v else (v, u)] = kind == "insert"
        if fast:
            net_inserts: list[tuple[int, int]] = []
            net_deletes: list[tuple[int, int]] = []
            for key, final in state.items():
                if final != graph.has_edge(*key):
                    (net_inserts if final else net_deletes).append(key)
            self._version += len(accepted)
            if not net_inserts and not net_deletes:
                return MixedUpdateStats([], [])
            engine = self._resolve_fast_engine()
            for u, v in net_inserts:
                graph.add_edge(u, v)
            for u, v in net_deletes:
                graph.remove_edge(u, v)
            return engine.apply_mixed(
                net_inserts,
                net_deletes,
                workers=self.workers if workers is None else workers,
            )
        from repro.core.dechl import apply_edge_deletion_partial

        self._invalidate_fast()
        inserts = [edge for kind, edge in accepted if kind == "insert"]
        deletes = [edge for kind, edge in accepted if kind == "delete"]
        stats = MixedUpdateStats(inserts, deletes)
        union_total = 0
        for kind, (u, v) in accepted:
            if kind == "insert":
                graph.add_edge(u, v)
                step = apply_edge_insertion(graph, self._labelling, u, v)
            else:
                step = apply_edge_deletion_partial(graph, self._labelling, u, v)
            for r, count in step.affected_per_landmark.items():
                stats.affected_per_landmark[r] = (
                    stats.affected_per_landmark.get(r, 0) + count
                )
            union_total += step.affected_union
            stats.entries_added += step.entries_added
            stats.entries_modified += step.entries_modified
            stats.entries_removed += step.entries_removed
            stats.highway_updates += step.highway_updates
        stats.affected_union = union_total
        self._version += len(accepted)
        return stats

    def remove_vertex(self, v: int) -> None:
        """Remove a vertex and all incident edges (decremental extension).

        Landmarks must be demoted first (:meth:`remove_landmark`).
        """
        self._require_unsharded("remove_vertex")
        from repro.core.dechl import apply_vertex_deletion

        self._invalidate_fast()
        self._version += 1
        apply_vertex_deletion(self._graph, self._labelling, v)

    # ------------------------------------------------------------------
    # Landmark maintenance
    # ------------------------------------------------------------------
    def add_landmark(self, v: int) -> int:
        """Promote ``v`` to a landmark online (extension).

        Returns the number of now-covered entries removed; see
        :mod:`repro.landmarks.maintenance`.
        """
        self._require_unsharded("add_landmark")
        from repro.landmarks.maintenance import add_landmark

        self._invalidate_fast()
        self._version += 1
        return add_landmark(self._graph, self._labelling, v)

    def remove_landmark(self, v: int) -> list[int]:
        """Demote landmark ``v`` online (extension).

        Returns the landmarks whose labellings were rebuilt.
        """
        self._require_unsharded("remove_landmark")
        from repro.landmarks.maintenance import remove_landmark

        self._invalidate_fast()
        self._version += 1
        return remove_landmark(self._graph, self._labelling, v)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def shortest_path(self, u: int, v: int) -> list[int] | None:
        """One exact shortest path (``None`` when disconnected).

        A landmark shard keeps the full graph but only a slice of the
        labels, so the greedy label walk is unavailable there; shards
        answer by plain BFS instead.
        """
        if self._owned is not None:
            from repro.core.sharding import bfs_shortest_path

            return bfs_shortest_path(self._graph, u, v)
        from repro.core.paths import shortest_path

        return shortest_path(self._graph, self._labelling, u, v)

    def approximate_path(self, u: int, v: int) -> list[int] | None:
        """A landmark-routed path of length ``d⊤`` (Eq. 2) — cheap, exact
        whenever some shortest path meets a landmark."""
        from repro.core.paths import approximate_path_via_landmarks

        return approximate_path_via_landmarks(self._graph, self._labelling, u, v)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicHCL(|V|={self._graph.num_vertices}, "
            f"|E|={self._graph.num_edges}, |R|={len(self.landmarks)}, "
            f"size(L)={self.label_entries})"
        )
