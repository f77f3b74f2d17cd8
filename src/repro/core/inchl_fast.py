"""IncHL+ fast path: vectorized find/repair over a dynamic CSR overlay.

The pure-Python implementation of Section 4 (:mod:`repro.core.inchl`,
:mod:`repro.core.batch`) recomputes every "old distance" it needs through
label queries — ``O(l)`` dict work per scanned vertex — and walks
adjacency one Python iteration per edge.  This module is the update-path
counterpart of :mod:`repro.core.construction_fast`: the same three-phase
algorithm, but

* the graph is read through a :class:`~repro.graph.dyncsr.DynCSR` overlay
  that stays valid across updates (no per-update re-snapshot);
* old distances come from **dense per-landmark distance rows** maintained
  incrementally — by Eq. (1) a landmark query against a valid minimal
  labelling *is* the exact distance ``d_G(r, v)``, so seeding the rows
  with one CSR BFS per landmark and overwriting exactly the affected
  entries after each repair keeps them equal to what the dict kernels
  would derive from labels, at ``O(1)`` per lookup;
* a single insertion runs the per-landmark hybrid kernels
  :func:`~repro.parallel.sweeps.csr_find_affected` /
  :func:`~repro.parallel.sweeps.csr_repair_affected`;
* a batch — insertions, deletions or both — runs as **one** sweep over
  flat ``(landmark, vertex)`` ids into the ``|R| x cap`` rows
  (:func:`~repro.parallel.sweeps.csr_find_affected_mixed`, BatchHL-style,
  ``docs/DESIGN.md`` §10), then one repair pass per depth
  (:func:`~repro.parallel.sweeps.csr_batch_repair_mixed`); ``workers``
  maps the find over contiguous landmark groups through the
  :class:`~repro.parallel.engine.LandmarkEngine`.

The produced labelling is byte-identical to the sequential Phase A/B/C
implementation — same affected sets, same new distances, same covered
verdicts, same entry/highway mutations (``docs/DESIGN.md`` §8; asserted
exhaustively by ``tests/proptest``); since the minimal labelling is a
canonical function of the graph and landmark set, mixed batches equal
the sequential insert-then-:mod:`~repro.core.dechl` reference byte for
byte.  Only landmark maintenance and vertex removal invalidate the
engine; the owning :class:`~repro.core.dynamic.DynamicHCL` drops it and
rebuilds on the next fast update.

The kernels are called through this module's globals (and
:mod:`repro.parallel.sweeps`'s for the find), so the traced benchmark can
time them by name (``tests/core/test_kernel_hooks.py``).
"""

from __future__ import annotations

from collections.abc import Iterable
from time import perf_counter

import numpy as np

from repro.core.batch import BatchUpdateStats, MixedUpdateStats
from repro.core.inchl import UpdateStats
from repro.exceptions import InvariantViolationError
from repro.graph.dyncsr import UNREACH, DynCSR
from repro.parallel.engine import LandmarkEngine
from repro.parallel.sweeps import (
    _unique,
    csr_batch_repair_mixed,
    csr_find_affected,
    csr_find_group_task,
    csr_repair_affected,
)

__all__ = ["FastUpdateEngine"]


class FastUpdateEngine:
    """Per-oracle state of the vectorized update path.

    Owns the :class:`DynCSR` overlay, the dense ``|R| x cap`` distance
    matrix and the reusable scratch buffers.  Create it from a graph and
    labelling that are *in sync* (the labelling is valid and minimal for
    the graph); apply every subsequent update through
    :meth:`insert_edge` / :meth:`apply_mixed` (or their wrappers) — the
    caller mutates the owning
    :class:`~repro.graph.dynamic_graph.DynamicGraph` first, the engine
    mirrors the edges into its overlay and repairs the labelling.  Any
    other mutation desynchronizes the engine: drop it and build a fresh
    one (see :meth:`matches`).

    >>> from repro.core.construction import build_hcl
    >>> from repro.core.inchl import apply_edge_insertion
    >>> from repro.graph.generators import grid_graph
    >>> g_fast, g_ref = grid_graph(3, 3), grid_graph(3, 3)
    >>> hcl_fast = build_hcl(g_fast, [0, 8])
    >>> hcl_ref = build_hcl(g_ref, [0, 8])
    >>> engine = FastUpdateEngine(g_fast, hcl_fast)
    >>> g_fast.add_edge(0, 8); g_ref.add_edge(0, 8)
    >>> _ = engine.insert_edge(0, 8)
    >>> _ = apply_edge_insertion(g_ref, hcl_ref, 0, 8)
    >>> hcl_fast == hcl_ref
    True
    """

    __slots__ = (
        "_labelling",
        "_landmarks",
        "_full",
        "_dyn",
        "_dist",
        "_is_landmark",
        "_has_entry",
        "_new_depth",
        "_covered",
        "_row_views",
        "_landmark_view",
        "workers",
    )

    def __init__(
        self,
        graph,
        labelling,
        workers: int | None = None,
        owned: Iterable[int] | None = None,
    ) -> None:
        self._labelling = labelling
        self._full = list(labelling.landmarks)
        if owned is None:
            self._landmarks = self._full
        else:
            # Landmark-sharded mode: maintain only the owned landmarks'
            # label rows and highway cells.  ``labelling`` must be the
            # matching restricted labelling
            # (:func:`repro.core.sharding.restrict_labelling`) — the
            # kernels read/write exactly the owned rows, while the
            # sparsifying ``is_landmark`` mask below still covers the
            # FULL landmark set so repairs see the same pruned searches
            # as the unsharded engine.
            self._landmarks = list(owned)
            full_set = set(self._full)
            for r in self._landmarks:
                if r not in full_set:
                    raise InvariantViolationError(
                        f"owned landmark {r} not in the labelling's landmarks"
                    )
        self._dyn = DynCSR.from_graph(graph)
        #: Default worker count: the batch find runs over this many
        #: contiguous landmark groups.
        self.workers = workers
        dyn = self._dyn
        capacity = dyn.capacity
        self._dist = np.full(
            (len(self._landmarks), capacity), UNREACH, dtype=np.int32
        )
        for k, r in enumerate(self._landmarks):
            self._dist[k, : dyn.num_vertices] = dyn.bfs_compact(dyn.index(r))
        self._is_landmark = np.zeros(capacity, dtype=bool)
        for r in self._full:
            self._is_landmark[dyn.index(r)] = True
        # Dense label-membership rows (has_entry[k][i] == 1 iff the k-th
        # landmark has an entry on vertex ids[i]); seeded from the label
        # store once, then kept true by the repair kernel.
        self._has_entry = np.zeros((len(self._landmarks), capacity), dtype=np.uint8)
        position = {r: k for k, r in enumerate(self._landmarks)}
        columns: list[list[int]] = [[] for _ in self._landmarks]
        index_of = dyn.index
        for v, label in labelling.labels.items():
            vi = index_of(v)
            for r in label:
                columns[position[r]].append(vi)
        for k, column in enumerate(columns):
            if column:
                self._has_entry[k, column] = 1
        self._alloc_scratch()

    def _alloc_scratch(self) -> None:
        """(Re)allocate the per-(landmark, vertex) repair scratch.

        ``_new_depth`` (int32, ``-1`` = not affected) and ``_covered``
        (uint8) have the shape of the distance matrix; every kernel call
        leaves them reset, so growth starts them afresh.  Also caches the
        memoryviews the scalar single-edge kernels read:
        ``_row_views[k]`` is ``(dist, has_entry, new_depth, covered)``
        over row ``k``.
        """
        self._new_depth = np.full(self._dist.shape, -1, dtype=np.int32)
        self._covered = np.zeros(self._dist.shape, dtype=np.uint8)
        blocks = (self._dist, self._has_entry, self._new_depth, self._covered)
        self._row_views = [
            tuple(memoryview(block[k]) for block in blocks)
            for k in range(len(self._landmarks))
        ]
        self._landmark_view = memoryview(self._is_landmark)

    # ------------------------------------------------------------------
    # Sync
    # ------------------------------------------------------------------
    def matches(self, graph, labelling) -> bool:
        """Whether this engine still mirrors ``graph``/``labelling``.

        Cheap counters-only check: every mutation routed around the fast
        path (deletions, landmark maintenance, direct graph edits) changes
        the edge count, shrinks the vertex count, or changes the landmark
        list, so the owning oracle consults this before reusing a cached
        engine.  The graph may have *more* vertices than the overlay:
        vertices registered directly (the serving writer pre-registers
        endpoints with ``add_vertex``) are necessarily isolated — every
        edge mutation flows through the oracle — and the overlay picks
        them up on their first incident insertion.
        """
        return (
            labelling is self._labelling
            and self._dyn.num_edges == graph.num_edges
            and self._dyn.num_vertices <= graph.num_vertices
            and self._full == labelling.landmarks
        )

    @property
    def owned_landmarks(self) -> list[int]:
        """The landmarks whose rows this engine maintains (all of them
        outside sharded mode)."""
        return list(self._landmarks)

    def freeze_shard_rows(self) -> tuple[np.ndarray, dict[int, int]]:
        """Pinned copy of the dense rows for shard-local queries.

        Returns ``(dist, index_of)``: an ``(num_owned, num_vertices)``
        int32 copy of the per-landmark distance rows and a copy of the
        id -> column map.  Kernels mutate the live rows in place, so a
        published snapshot must carry its own copy
        (:meth:`repro.serving.snapshot.OracleSnapshot.capture`).
        """
        n = self._dyn.num_vertices
        return self._dist[:, :n].copy(), self._dyn.index_map()

    @property
    def dyn(self) -> DynCSR:
        """The CSR overlay (read-only use)."""
        return self._dyn

    def old_distance(self, r: int, v: int) -> float:
        """``d_G(r, v)`` from the dense rows (``inf`` when unreachable).

        Exposed for tests/validation; the kernels read the rows directly.
        """
        d = self._dist[self._landmarks.index(r), self._dyn.index(v)]
        return float("inf") if d == UNREACH else int(d)

    def _ensure_capacity(self) -> None:
        """Grow the distance matrix and scratch to the overlay's capacity."""
        capacity = self._dyn.capacity
        if self._dist.shape[1] >= capacity:
            return
        dist = np.full((len(self._landmarks), capacity), UNREACH, dtype=np.int32)
        dist[:, : self._dist.shape[1]] = self._dist
        self._dist = dist
        has_entry = np.zeros((len(self._landmarks), capacity), dtype=np.uint8)
        has_entry[:, : self._has_entry.shape[1]] = self._has_entry
        self._has_entry = has_entry
        is_landmark = np.zeros(capacity, dtype=bool)
        is_landmark[: len(self._is_landmark)] = self._is_landmark
        self._is_landmark = is_landmark
        self._alloc_scratch()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _repair_and_fold(self, k: int, r: int, levels, stats, union) -> int:
        """Single-edge Phase C for one landmark: repair, refresh the dense
        row, reset scratch.  Returns ``|Λ_r|``."""
        row_mv, has_mv, new_mv, covered_mv = self._row_views[k]
        csr_repair_affected(
            self._dyn,
            self._labelling,
            r,
            levels,
            self._dist[k],
            self._new_depth[k],
            self._is_landmark,
            self._covered[k],
            self._has_entry[k],
            stats,
            views=(row_mv, new_mv, self._landmark_view, covered_mv, has_mv),
        )
        affected = 0
        for depth, verts in levels:
            if isinstance(verts, list):
                affected += len(verts)
                union.update(verts)
                for v in verts:
                    row_mv[v] = depth
                    new_mv[v] = -1
                    covered_mv[v] = 0
            else:
                affected += verts.size
                union.update(verts.tolist())
                self._dist[k, verts] = depth
                self._new_depth[k, verts] = -1
                self._covered[k, verts] = 0
        return affected

    def insert_edge(self, u: int, v: int) -> UpdateStats:
        """IncHL+ for one insertion ``(u, v)`` — the kernel Phase A/B/C.

        The owning graph must already contain the edge; the engine's
        overlay must not (the caller inserts through the oracle, which
        keeps the two in lockstep).
        """
        dyn = self._dyn
        self._dyn.insert_edge(u, v)
        self._ensure_capacity()
        ui, vi = dyn.index(u), dyn.index(v)

        stats = UpdateStats(edge=(u, v), affected_per_landmark={})
        union: set[int] = set()
        # Phase A on the dense rows (identical values to the pristine
        # labelling queries), then find+repair per landmark in landmark
        # order.  Interleaving is safe here — unlike the dict kernels, the
        # find reads no labels, and repairs touch only r-entries — and the
        # repair order equals the sequential Phase C order.
        row_views = self._row_views
        find_s = 0.0
        repair_s = 0.0
        for k, r in enumerate(self._landmarks):
            row_mv, _, new_mv, _ = row_views[k]
            da = row_mv[ui]
            db = row_mv[vi]
            if da == db:
                stats.affected_per_landmark[r] = 0
                continue
            seeds = [(vi, da + 1)] if da < db else [(ui, db + 1)]
            t0 = perf_counter()
            levels = csr_find_affected(
                dyn,
                self._dist[k],
                seeds,
                self._new_depth[k],
                views=(row_mv, new_mv),
            )
            t1 = perf_counter()
            stats.affected_per_landmark[r] = self._repair_and_fold(
                k, r, levels, stats, union
            )
            find_s += t1 - t0
            repair_s += perf_counter() - t1
        stats.affected_union = len(union)
        stats.phases = {"find": find_s, "repair": repair_s}
        return stats

    # ------------------------------------------------------------------
    # Mixed updates (deletions, insert/delete batches)
    # ------------------------------------------------------------------
    def remove_edge(self, u: int, v: int) -> MixedUpdateStats:
        """Fast-path deletion of ``(u, v)`` — a mixed batch of one event.

        The owning graph must already have the edge removed; the engine's
        overlay must still contain it.
        """
        return self.apply_mixed([], [(u, v)])

    def remove_edges_batch(
        self, edges: Iterable[tuple[int, int]], workers: int | None = None
    ) -> MixedUpdateStats:
        """Fast-path deletion of a burst of edges in one combined sweep."""
        return self.apply_mixed([], edges, workers=workers)

    def insert_edges_batch(
        self, edges: Iterable[tuple[int, int]], workers: int | None = None
    ) -> MixedUpdateStats:
        """Batch IncHL+ — a mixed batch without deletions.

        The owning graph must already contain every edge of the batch.
        """
        return self.apply_mixed(edges, [], workers=workers)

    def apply_mixed(
        self,
        inserts: Iterable[tuple[int, int]],
        deletes: Iterable[tuple[int, int]],
        workers: int | None = None,
    ) -> MixedUpdateStats:
        """BatchHL-style repair for a combined insert/delete batch.

        The owning graph must already reflect the whole batch (inserts
        present, deletes gone); the two edge sets must be disjoint and
        *net* — the caller (:meth:`repro.core.dynamic.DynamicHCL.
        apply_events_batch`) collapses insert-then-delete churn before
        calling in.  Phase B is one flat-id sweep over every landmark
        (:func:`~repro.parallel.sweeps.csr_find_affected_mixed`), mapped
        over ``workers`` contiguous landmark groups by the
        :class:`LandmarkEngine` (serial is one group); it leaves the new
        distances — :data:`UNREACH` for disconnected pairs — in the dense
        rows.  Phase C (:func:`~repro.parallel.sweeps.csr_batch_repair_mixed`)
        evaluates every covered verdict depth by depth, then mutates the
        labelling landmark by landmark.
        """
        ins_list = [(int(a), int(b)) for a, b in inserts]
        del_list = [(int(a), int(b)) for a, b in deletes]
        if not ins_list and not del_list:
            raise InvariantViolationError("mixed batch needs at least one event")
        find_start = perf_counter()
        dyn = self._dyn
        if ins_list:
            dyn.insert_edges_batch(ins_list)
        if del_list:
            dyn.remove_edges_batch(del_list)
        self._ensure_capacity()
        index = dyn.index
        ins_idx = np.array(
            [(index(a), index(b)) for a, b in ins_list], dtype=np.int64
        ).reshape(-1, 2)
        del_idx = np.array(
            [(index(a), index(b)) for a, b in del_list], dtype=np.int64
        ).reshape(-1, 2)

        rows, cap = self._dist.shape
        engine = LandmarkEngine(self.workers if workers is None else workers)
        groups = min(engine.workers, rows) or 1
        bounds = [rows * g // groups for g in range(groups + 1)]
        results = engine.map(
            csr_find_group_task,
            (dyn, self._dist, self._new_depth),
            [(lo, hi, ins_idx, del_idx) for lo, hi in zip(bounds, bounds[1:])],
        )
        if engine.is_parallel and groups > 1:
            # Pooled groups ran on a worker's copy of the rows and scratch.
            dist = self._dist.reshape(-1)
            new_depth = self._new_depth.reshape(-1)
            for levels, removed in results:
                for level in levels:
                    dist[level.flat] = level.depth
                    new_depth[level.flat] = level.depth
                dist[removed] = UNREACH
        repair_start = perf_counter()

        # Groups hold ascending landmark ranges, so repairing them in
        # order mutates landmark by landmark exactly as one group would.
        stats = MixedUpdateStats(ins_list, del_list)
        affected = []
        for levels, removed in results:
            csr_batch_repair_mixed(
                dyn,
                self._labelling,
                self._landmarks,
                levels,
                removed,
                self._dist,
                self._new_depth,
                self._covered,
                self._is_landmark,
                self._has_entry,
                stats,
            )
            affected += [level.flat for level in levels]
            affected.append(removed)
            stats.disconnected += int(removed.size)
        affected = np.concatenate(affected)
        self._new_depth.reshape(-1)[affected] = -1
        self._covered.reshape(-1)[affected] = 0
        per_row = np.bincount(affected // cap, minlength=rows).tolist()
        stats.affected_per_landmark = dict(zip(self._landmarks, per_row))
        stats.affected_union = int(_unique(affected % cap).size)
        stats.phases = {
            "find": repair_start - find_start,
            "repair": perf_counter() - repair_start,
        }
        return stats
