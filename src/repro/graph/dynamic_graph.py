"""A dynamic, undirected, unweighted simple graph.

This is the substrate the paper evaluates on: undirected, unweighted graphs
subject to *edge insertions* and *vertex insertions* (Section 3).  Edge
removal is also provided because the reproduction implements the paper's
stated future work (decremental updates) as an extension.

Design notes
------------
Vertices are non-negative integers.  Adjacency is a ``dict[int, list[int]]``
— lists iterate faster than sets in CPython, which matters because every
algorithm in this library is BFS-bound.  Hot loops may obtain the raw
adjacency mapping via :meth:`DynamicGraph.adjacency`; it must be treated as
read-only.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)

__all__ = ["DynamicGraph"]


class DynamicGraph:
    """An undirected, unweighted simple graph supporting online updates.

    >>> g = DynamicGraph.from_edges([(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.add_edge(0, 2)
    >>> sorted(g.neighbors(0))
    [1, 2]
    """

    __slots__ = ("_adj", "_num_edges", "_owned")

    def __init__(self, vertices: Iterable[int] = ()) -> None:
        self._adj: dict[int, list[int]] = {}
        self._num_edges = 0
        # Vertices whose neighbour lists were copied since the last
        # snapshot (see :meth:`snapshot_adjacency`); any other list may be
        # shared with a live snapshot.  ``None`` until the first snapshot.
        self._owned: set[int] | None = None
        for v in vertices:
            self.add_vertex(v)

    def _cow(self, v: int) -> None:
        """Detach ``v``'s neighbour list from any live snapshot."""
        owned = self._owned
        if owned is not None and v not in owned:
            owned.add(v)
            self._adj[v] = list(self._adj[v])

    def snapshot_adjacency(self) -> dict[int, list[int]]:
        """Freeze hook for :mod:`repro.serving.snapshot`.

        Returns a *shallow* copy of the adjacency mapping whose neighbour
        lists are shared copy-on-write: later updates through this graph
        copy an affected list before mutating it, so the returned mapping
        is a stable point-in-time view at pointer-copy cost.
        """
        self._owned = set()
        return dict(self._adj)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], num_vertices: int | None = None
    ) -> "DynamicGraph":
        """Build a graph from an iterable of edges.

        ``num_vertices`` pre-registers vertices ``0..num_vertices-1`` so that
        isolated vertices survive; otherwise vertices are created on demand.
        Duplicate edges and self-loops raise, as in :meth:`add_edge`.
        """
        graph = cls(range(num_vertices) if num_vertices is not None else ())
        for u, v in edges:
            graph.add_vertex(u)
            graph.add_vertex(v)
            graph.add_edge(u, v)
        return graph

    def copy(self) -> "DynamicGraph":
        """Return an independent deep copy of this graph."""
        clone = DynamicGraph()
        clone._adj = {v: list(nbrs) for v, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # Size and membership
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices currently in the graph."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges currently in the graph."""
        return self._num_edges

    def has_vertex(self, v: int) -> bool:
        """Whether ``v`` is a vertex of this graph."""
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` is present."""
        nbrs = self._adj.get(u)
        if nbrs is None:
            return False
        return v in nbrs

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def vertices(self) -> Iterator[int]:
        """Iterate over all vertices (insertion order)."""
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over each undirected edge exactly once, as ``(u, v)`` with
        the endpoint that sorts first reported first."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def neighbors(self, v: int) -> list[int]:
        """Neighbours of ``v``.  The returned list must not be mutated."""
        try:
            return self._adj[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        try:
            return len(self._adj[v])
        except KeyError:
            raise VertexNotFoundError(v) from None

    def adjacency(self) -> dict[int, list[int]]:
        """Raw adjacency mapping for read-only use in hot loops."""
        return self._adj

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_vertex(self, v: int) -> bool:
        """Add an isolated vertex.  Returns ``True`` if it was new.

        Adding an existing vertex is a harmless no-op (so that bulk loaders
        can register endpoints blindly), but non-integral or negative ids
        are rejected to keep array-backed consumers sound.
        """
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"vertex ids must be ints, got {v!r}")
        if v < 0:
            raise ValueError(f"vertex ids must be non-negative, got {v}")
        if v in self._adj:
            return False
        self._adj[v] = []
        return True

    def add_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``(u, v)``.

        Mirrors the paper's edge-insertion precondition: both endpoints must
        already exist and the edge must be absent.  Use :meth:`insert_vertex`
        for the paper's vertex-insertion operation.
        """
        if u == v:
            raise SelfLoopError(u)
        if u not in self._adj:
            raise VertexNotFoundError(u)
        if v not in self._adj:
            raise VertexNotFoundError(v)
        if v in self._adj[u]:
            raise EdgeExistsError(u, v)
        self._cow(u)
        self._cow(v)
        self._adj[u].append(v)
        self._adj[v].append(u)
        self._num_edges += 1

    def insert_vertex(self, v: int, neighbors: Iterable[int]) -> list[tuple[int, int]]:
        """The paper's *vertex insertion*: a new vertex plus edges to existing
        vertices, returned as the list of edge insertions it decomposes into.

        Section 3: "a node insertion is to add a new node into G together
        with a set of edge insertions that connect v to existing vertices".
        """
        neighbor_list = list(neighbors)
        if v in self._adj:
            raise ValueError(
                f"vertex {v!r} already exists; vertex insertion requires a new vertex"
            )
        if v in neighbor_list:
            raise SelfLoopError(v)
        for w in neighbor_list:
            if w not in self._adj:
                raise VertexNotFoundError(w)
        if len(set(neighbor_list)) != len(neighbor_list):
            raise ValueError("duplicate neighbours in vertex insertion")
        self.add_vertex(v)
        inserted = []
        for w in neighbor_list:
            self.add_edge(v, w)
            inserted.append((v, w))
        return inserted

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the undirected edge ``(u, v)`` (decremental extension)."""
        if u not in self._adj:
            raise VertexNotFoundError(u)
        if v not in self._adj:
            raise VertexNotFoundError(v)
        if v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._cow(u)
        self._cow(v)
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self._num_edges -= 1

    def remove_vertex(self, v: int) -> list[tuple[int, int]]:
        """Remove ``v`` and all incident edges (decremental extension).

        Returns the removed edges as ``(v, neighbour)`` pairs — the
        decomposition mirror of :meth:`insert_vertex`.
        """
        if v not in self._adj:
            raise VertexNotFoundError(v)
        removed = [(v, w) for w in self._adj[v]]
        for w in self._adj[v]:
            self._cow(w)
            self._adj[w].remove(v)
        self._num_edges -= len(removed)
        del self._adj[v]
        if self._owned is not None:
            self._owned.discard(v)
        return removed

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def average_degree(self) -> float:
        """Average vertex degree (``2|E| / |V|``); 0.0 for the empty graph."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def max_vertex_id(self) -> int:
        """Largest vertex id present; -1 for the empty graph."""
        return max(self._adj, default=-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(|V|={self.num_vertices}, |E|={self.num_edges})"
        )
