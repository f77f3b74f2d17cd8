"""DynCSR — an incrementally maintainable CSR overlay for the update path.

:class:`~repro.graph.csr.CSRGraph` is deliberately immutable: construction
and ground-truth sweeps snapshot once and read forever.  The update hot
path (IncHL+ find/repair, :mod:`repro.core.inchl_fast`) cannot afford a
full re-snapshot per insertion — ``CSRGraph.from_graph`` is ``O(m)`` while
an update touches ``O(|Λ|)`` vertices — so this module keeps the CSR shape
*valid across insertions*:

* a **base** CSR (``indptr``/``indices``) holding the bulk of the edges,
  with a per-vertex live length (``base_len``) so deletions shrink a row
  in place instead of forcing a re-snapshot;
* a per-vertex **delta** adjacency (small Python lists, plus a numpy
  ``delta_count`` array so the no-delta common case costs one vectorized
  mask) absorbing insertions;
* periodic **compaction** folding the delta back into a fresh base once it
  grows past a fraction of the base, so gather stays ``O(frontier degree)``
  amortized and the delta never dominates.

Edge deletion (:meth:`remove_edge`) is *swap-removal*: the victim entry in
a vertex's live base slice is overwritten by the slice's last live entry
and the live length drops by one (delta entries are removed from their
list directly).  Neighbour order within a row is therefore not stable
across deletions — no kernel depends on it: affected sets and levels are
sorted before use, and the repair predicate is order-independent.

Vertex ids map to compact indices exactly as in :class:`CSRGraph`, except
the mapping is *append-only*: new vertices (ids unseen at snapshot time)
get the next free index, and the capacity of every per-vertex array grows
geometrically.  Kernels therefore hold plain array views and survive any
number of ``insert_edge`` / ``insert_edges_batch`` calls in between.

>>> from repro.graph.generators import grid_graph
>>> dyn = DynCSR.from_graph(grid_graph(3, 3))
>>> int(dyn.bfs_compact(dyn.index(0))[dyn.index(8)])
4
>>> dyn.insert_edge(0, 8)
>>> int(dyn.bfs_compact(dyn.index(0))[dyn.index(8)])
1
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

import numpy as np

from repro.exceptions import GraphError, VertexNotFoundError

__all__ = ["DynCSR", "UNREACH"]

#: Distance sentinel for "unreachable" in the int32 kernels.  Large enough
#: that ``UNREACH >= depth`` always holds for any real BFS depth, small
#: enough that ``UNREACH + 1`` cannot overflow int32.
UNREACH = np.int32(2**30)


class DynCSR:
    """A CSR snapshot that stays valid across edge insertions.

    The read surface (:meth:`gather`, :meth:`neighbors_compact`,
    :meth:`bfs_compact`) always reflects every insertion applied so far;
    :meth:`compact` (called automatically once the delta outgrows a
    quarter of the base) folds the delta adjacency into a fresh base CSR.
    """

    __slots__ = (
        "_ids",
        "_n",
        "_index_of",
        "_indptr",
        "_base_indices",
        "_base_len",
        "_base_n",
        "_delta",
        "_delta_count",
        "_delta_total",
        "_num_edges",
        "_views",
    )

    def __init__(self) -> None:
        self._ids = np.empty(0, dtype=np.int64)  # original id by index
        self._n = 0  # live vertex count (<= capacity)
        self._index_of: dict[int, int] = {}
        # Base CSR.  ``_indptr`` is padded to capacity + 1: indices past
        # ``_base_n`` repeat the total, so vertices added after the last
        # compaction read an empty base slice through the same arrays.
        # ``_base_len[i]`` is the *live* length of row ``i`` — the slice
        # ``indices[indptr[i] : indptr[i] + base_len[i]]`` — which drops
        # below the allocated row width after swap-removals.
        self._indptr = np.zeros(1, dtype=np.int64)
        self._base_indices = np.empty(0, dtype=np.int64)
        self._base_len = np.zeros(0, dtype=np.int64)
        self._base_n = 0  # vertices covered by the base CSR
        # Delta adjacency: compact index -> list of compact neighbour
        # indices, mirrored by a per-vertex count array for cheap masks.
        self._delta: dict[int, list[int]] = {}
        self._delta_count = np.zeros(0, dtype=np.int64)
        self._delta_total = 0  # directed delta entries
        self._num_edges = 0  # undirected edges overall
        self._views = None  # cached scalar_views tuple

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph) -> "DynCSR":
        """Snapshot a :class:`~repro.graph.dynamic_graph.DynamicGraph`.

        Same layout contract as :meth:`CSRGraph.from_graph` (ids sorted,
        compact indices in sorted-id order) so ground-truth comparisons
        line up index for index.
        """
        adj = graph.adjacency()
        if not adj:
            raise GraphError("cannot snapshot an empty graph")
        dyn = cls()
        ids = np.array(sorted(adj), dtype=np.int64)
        n = len(ids)
        degrees = np.fromiter(
            (len(adj[int(v)]) for v in ids), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        flat = np.fromiter(
            chain.from_iterable(adj[int(v)] for v in ids),
            dtype=np.int64,
            count=total,
        )
        dyn._ids = ids
        dyn._n = n
        dyn._index_of = {int(v): i for i, v in enumerate(ids)}
        dyn._indptr = indptr
        dyn._base_indices = np.searchsorted(ids, flat)
        dyn._base_len = degrees.copy()
        dyn._base_n = n
        dyn._delta_count = np.zeros(n, dtype=np.int64)
        dyn._num_edges = total // 2
        return dyn

    # ------------------------------------------------------------------
    # Size, membership, id mapping
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices currently registered."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Undirected edge count (base + delta)."""
        return self._num_edges

    @property
    def num_delta_edges(self) -> int:
        """Undirected edges still living in the delta overlay."""
        return self._delta_total // 2

    @property
    def capacity(self) -> int:
        """Allocated per-vertex slots (>= :attr:`num_vertices`).

        Consumers that keep per-vertex side arrays (the update engine's
        distance rows and scratch buffers) size them to this so vertex
        growth re-allocates everything in the same geometric steps.
        """
        return len(self._ids)

    @property
    def ids(self) -> np.ndarray:
        """Original vertex ids by compact index.  Must not be mutated."""
        return self._ids[: self._n]

    def index(self, v: int) -> int:
        """Compact index of original vertex id ``v``."""
        try:
            return self._index_of[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def index_map(self) -> dict[int, int]:
        """Copy of the id -> compact-index mapping.

        Snapshot consumers (shard-scoped query paths) pair this with a
        copy of per-vertex side arrays so later ``ensure_vertex`` calls
        on the live structure cannot skew a pinned view.
        """
        return dict(self._index_of)

    def vertex(self, i: int) -> int:
        """Original id of compact index ``i``."""
        return int(self._ids[i])

    def __contains__(self, v: int) -> bool:
        return v in self._index_of

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _grow_to(self, capacity: int) -> None:
        """Geometrically grow every per-vertex array to >= ``capacity``."""
        current = len(self._ids)
        if capacity <= current:
            return
        self._views = None
        new_cap = max(capacity, current * 2, 16)
        ids = np.empty(new_cap, dtype=np.int64)
        ids[:current] = self._ids
        self._ids = ids
        # Pad the base row pointer: new vertices have empty base slices.
        indptr = np.empty(new_cap + 1, dtype=np.int64)
        indptr[: len(self._indptr)] = self._indptr
        indptr[len(self._indptr) :] = self._indptr[-1]
        self._indptr = indptr
        counts = np.zeros(new_cap, dtype=np.int64)
        counts[: len(self._delta_count)] = self._delta_count
        self._delta_count = counts
        base_len = np.zeros(new_cap, dtype=np.int64)
        base_len[: len(self._base_len)] = self._base_len
        self._base_len = base_len

    def ensure_vertex(self, v: int) -> int:
        """Register id ``v`` if unseen; returns its compact index.

        New vertices start isolated; they join the base CSR at the next
        compaction.
        """
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise GraphError(f"vertex ids must be non-negative ints, got {v!r}")
        idx = self._index_of.get(v)
        if idx is not None:
            return idx
        idx = self._n
        self._grow_to(idx + 1)
        self._ids[idx] = v
        self._index_of[v] = idx
        self._n = idx + 1
        return idx

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``(u, v)`` (by original id).

        Endpoints are registered on demand; duplicate edges and self-loops
        are the caller's responsibility (the owning
        :class:`~repro.graph.dynamic_graph.DynamicGraph` already rejects
        them).  Triggers compaction when the delta outgrows the base.
        """
        self._views = None
        ui = self.ensure_vertex(u)
        vi = self.ensure_vertex(v)
        self._delta.setdefault(ui, []).append(vi)
        self._delta.setdefault(vi, []).append(ui)
        self._delta_count[ui] += 1
        self._delta_count[vi] += 1
        self._delta_total += 2
        self._num_edges += 1
        if self._delta_total > max(256, len(self._base_indices) >> 2):
            self.compact()

    def insert_edges_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        """Insert a burst of edges (compaction checked once at the end)."""
        self._views = None
        for u, v in edges:
            ui = self.ensure_vertex(u)
            vi = self.ensure_vertex(v)
            self._delta.setdefault(ui, []).append(vi)
            self._delta.setdefault(vi, []).append(ui)
            self._delta_count[ui] += 1
            self._delta_count[vi] += 1
            self._delta_total += 2
            self._num_edges += 1
        if self._delta_total > max(256, len(self._base_indices) >> 2):
            self.compact()

    def _remove_directed(self, ui: int, vi: int) -> None:
        """Drop the directed entry ``ui -> vi`` from delta or base.

        Delta first (a deleted edge that was recently inserted still lives
        there), then the live base slice by swap-removal: the victim slot
        takes the slice's last live entry and ``base_len`` shrinks by one.
        """
        extra = self._delta.get(ui)
        if extra is not None and vi in extra:
            extra.remove(vi)
            if not extra:
                del self._delta[ui]
            self._delta_count[ui] -= 1
            self._delta_total -= 1
            return
        start = int(self._indptr[ui])
        length = int(self._base_len[ui])
        base = self._base_indices
        for pos in range(start, start + length):
            if base[pos] == vi:
                base[pos] = base[start + length - 1]
                self._base_len[ui] = length - 1
                return
        raise GraphError(
            f"edge ({self.vertex(ui)}, {self.vertex(vi)}) not present"
        )

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the undirected edge ``(u, v)`` (by original id).

        Both endpoints must be registered and the edge present — the
        owning :class:`~repro.graph.dynamic_graph.DynamicGraph` validates
        first, but the overlay re-raises :class:`GraphError` on a missing
        entry so a desynchronized caller fails loudly.  Vertices are never
        unregistered: an isolated index simply reads empty slices.
        """
        self._views = None
        ui = self.index(u)
        vi = self.index(v)
        self._remove_directed(ui, vi)
        self._remove_directed(vi, ui)
        self._num_edges -= 1

    def remove_edges_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        """Remove a burst of edges (no compaction: deletions only shrink)."""
        self._views = None
        for u, v in edges:
            ui = self.index(u)
            vi = self.index(v)
            self._remove_directed(ui, vi)
            self._remove_directed(vi, ui)
            self._num_edges -= 1

    def compact(self) -> None:
        """Fold the delta adjacency into a fresh base CSR.

        ``O(m)``: base entries move with one vectorized scatter (the same
        repeat/cumsum flattening :func:`_gather_neighbors` uses), delta
        entries append per dirty vertex.  After compaction every vertex —
        including ones added since the last snapshot — reads from the base.
        """
        self._views = None
        n = self._n
        base_counts = self._base_len[:n].copy()
        counts = base_counts + self._delta_count[:n]
        new_indptr = np.zeros(len(self._ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=new_indptr[1 : n + 1])
        new_indptr[n + 1 :] = new_indptr[n]
        total = int(new_indptr[n])
        new_indices = np.empty(total, dtype=np.int64)
        base_total = int(base_counts.sum())
        if base_total:
            # Source/target slot of each *live* base entry, row-major: row
            # start in the old/new layout plus the entry's offset within
            # its live slice (dead tail slots left by deletions stay
            # behind).
            live = base_counts > 0
            old_starts = self._indptr[:n][live]
            new_starts = new_indptr[:n][live]
            live_counts = base_counts[live]
            cumulative = np.cumsum(live_counts)
            offsets = np.arange(base_total, dtype=np.int64) - np.repeat(
                cumulative - live_counts, live_counts
            )
            sources = np.repeat(old_starts, live_counts) + offsets
            positions = np.repeat(new_starts, live_counts) + offsets
            new_indices[positions] = self._base_indices[sources]
        for vi, extra in self._delta.items():
            start = int(new_indptr[vi]) + int(base_counts[vi])
            new_indices[start : start + len(extra)] = extra
        self._indptr = new_indptr
        self._base_indices = new_indices
        base_len = np.zeros(len(self._ids), dtype=np.int64)
        base_len[:n] = counts
        self._base_len = base_len
        self._base_n = n
        self._delta = {}
        self._delta_count[:] = 0
        self._delta_total = 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def neighbors_compact(self, i: int) -> np.ndarray:
        """Neighbour indices of compact index ``i`` (base + delta)."""
        start = self._indptr[i]
        base = self._base_indices[start : start + self._base_len[i]]
        extra = self._delta.get(i)
        if extra is None:
            return base
        return np.concatenate([base, np.array(extra, dtype=np.int64)])

    def neighbors_list(self, i: int) -> list[int]:
        """Neighbour indices of ``i`` as a plain list (scalar hot path)."""
        start = self._indptr[i]
        base = self._base_indices[start : start + self._base_len[i]].tolist()
        extra = self._delta.get(i)
        if extra is not None:
            base.extend(extra)
        return base

    def scalar_views(self):
        """Zero-copy buffers for the scalar kernel paths.

        Returns ``(indptr, base_len, indices, delta, delta_count)`` where
        the array members are memoryviews — scalar reads yield plain
        Python ints at a fraction of a numpy getitem — and ``delta`` is
        the live per-vertex overflow dict.  A vertex's live base slice is
        ``indices[indptr[v] : indptr[v] + base_len[v]]`` (deletions leave
        dead tail slots behind, so ``indptr[v + 1]`` is only an upper
        bound).  The views alias the current arrays: refetch after any
        mutation (compaction swaps the buffers) — or rely on the built-in
        cache, which every mutation drops.
        """
        views = self._views
        if views is None:
            views = self._views = (
                memoryview(self._indptr),
                memoryview(self._base_len),
                memoryview(self._base_indices),
                self._delta,
                memoryview(self._delta_count),
            )
        return views

    def gather(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All ``(source, neighbour)`` pairs leaving ``frontier``.

        The base contribution is one vectorized gather; delta lists are
        appended only for frontier vertices that actually have them
        (detected with one mask over ``delta_count``, so an empty delta —
        the common state right after compaction — costs nothing).
        """
        positions, neighbours = self._base_positions(frontier)
        sources = frontier[positions]
        if self._delta_total:
            mask = self._delta_count[frontier] > 0
            if mask.any():
                delta = self._delta
                extra_src: list[int] = []
                extra_nbr: list[int] = []
                for vi in frontier[mask].tolist():
                    nbrs = delta[vi]
                    extra_src.extend([vi] * len(nbrs))
                    extra_nbr.extend(nbrs)
                sources = np.concatenate(
                    [sources, np.array(extra_src, dtype=np.int64)]
                )
                neighbours = np.concatenate(
                    [neighbours, np.array(extra_nbr, dtype=np.int64)]
                )
        return sources, neighbours

    def _base_positions(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Base-CSR flattening: ``(flat_positions, neighbours)``."""
        counts = self._base_len[frontier]
        positions = np.repeat(np.arange(len(frontier)), counts)
        # Row start of each source minus where its entries begin in the
        # flattened output: adding an entry's output index gives its slot.
        shift = self._indptr[frontier] - np.cumsum(counts) + counts
        slots = shift[positions] + np.arange(positions.size)
        return positions, self._base_indices[slots]

    def gather_neighbours(self, frontier: np.ndarray) -> np.ndarray:
        """Flattened neighbours of ``frontier`` (duplicates included).

        The find kernel's expansion needs only the target side of each
        edge, so this skips materializing the source column.
        """
        _, neighbours = self._base_positions(frontier)
        if self._delta_total:
            mask = self._delta_count[frontier] > 0
            if mask.any():
                delta = self._delta
                extra: list[int] = []
                for vi in frontier[mask].tolist():
                    extra.extend(delta[vi])
                neighbours = np.concatenate(
                    [neighbours, np.array(extra, dtype=np.int64)]
                )
        return neighbours

    def gather_with_positions(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, neighbours)`` pairs leaving ``frontier``.

        ``positions[k]`` indexes into ``frontier`` (not vertex space) —
        exactly the scatter target the repair kernel needs, saving it a
        searchsorted back-mapping.
        """
        positions, neighbours = self._base_positions(frontier)
        if self._delta_total:
            counts = self._delta_count[frontier]
            dirty = np.flatnonzero(counts)
            if dirty.size:
                counts = counts[dirty]
                delta = self._delta
                extra = np.fromiter(
                    chain.from_iterable(
                        [delta[v] for v in frontier[dirty].tolist()]
                    ),
                    dtype=np.int64,
                    count=int(counts.sum()),
                )
                positions = np.concatenate([positions, np.repeat(dirty, counts)])
                neighbours = np.concatenate([neighbours, extra])
        return positions, neighbours

    def bfs_compact(self, source_index: int) -> np.ndarray:
        """Distances from ``source_index`` over base + delta edges.

        Returns an int32 array with :data:`UNREACH` for unreachable
        vertices — the layout the update kernels keep per landmark.
        """
        dist = np.full(self._n, UNREACH, dtype=np.int32)
        dist[source_index] = 0
        frontier = np.array([source_index], dtype=np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            _, neighbours = self.gather(frontier)
            if neighbours.size == 0:
                break
            neighbours = neighbours[dist[neighbours] == UNREACH]
            if neighbours.size == 0:
                break
            frontier = np.unique(neighbours)
            dist[frontier] = depth
        return dist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynCSR(|V|={self._n}, |E|={self._num_edges}, "
            f"delta={self.num_delta_edges})"
        )
