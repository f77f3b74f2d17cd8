"""Graph traversal primitives: BFS, bounded/bidirectional searches, Dijkstra.

Everything in this library is traversal-bound, so these functions operate on
the raw adjacency mapping (``graph.adjacency()``) and use flat ``dict``-based
distance maps.  ``float("inf")`` (exported as :data:`INF`) denotes
unreachable, matching the paper's ``d_G(u, v) = ∞`` convention.

The bounded bidirectional searches implement the paper's query step: an exact
distance search over the *sparsified* graph ``G[V \\ R]`` (landmarks excluded
from path interiors) under the labelling-derived upper bound ``d⊤`` (Eq. 2).
"""

from __future__ import annotations

import heapq
from collections.abc import Collection

from repro.exceptions import VertexNotFoundError

INF = float("inf")

__all__ = [
    "INF",
    "bfs_distances",
    "bfs_distances_bounded",
    "bfs_with_parents",
    "bidirectional_bfs",
    "dijkstra_distances",
    "bidirectional_dijkstra",
    "bfs_distances_directed",
]

_EMPTY: frozenset[int] = frozenset()


def bfs_distances(graph, source: int) -> dict[int, int]:
    """Exact BFS distances from ``source`` to every reachable vertex.

    Works on :class:`~repro.graph.dynamic_graph.DynamicGraph`; unreachable
    vertices are absent from the result.
    """
    adj = graph.adjacency()
    if source not in adj:
        raise VertexNotFoundError(source)
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = depth
                    next_frontier.append(w)
        frontier = next_frontier
    return dist


def bfs_distances_bounded(
    graph, source: int, bound: float, skip: Collection[int] = _EMPTY
) -> dict[int, int]:
    """BFS distances from ``source`` up to (and including) depth ``bound``.

    Vertices in ``skip`` are treated as deleted (never discovered nor
    expanded), except ``source`` itself, which is always seeded.
    """
    adj = graph.adjacency()
    if source not in adj:
        raise VertexNotFoundError(source)
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and depth < bound:
        depth += 1
        next_frontier = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist and w not in skip:
                    dist[w] = depth
                    next_frontier.append(w)
        frontier = next_frontier
    return dist


def bfs_with_parents(
    graph, source: int
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """BFS distances plus the full shortest-path DAG.

    Returns ``(dist, parents)`` where ``parents[v]`` lists *every* neighbour
    ``u`` with ``dist[u] + 1 == dist[v]`` — i.e. the predecessors of ``v``
    across all shortest paths from ``source``.  Used by the validation module
    to reason about the set ``P_G(source, v)`` of all shortest paths.
    """
    adj = graph.adjacency()
    if source not in adj:
        raise VertexNotFoundError(source)
    dist = {source: 0}
    parents: dict[int, list[int]] = {source: []}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = depth
                    parents[w] = [v]
                    next_frontier.append(w)
                elif dist[w] == depth:
                    parents[w].append(v)
        frontier = next_frontier
    return dist, parents


def bidirectional_bfs(
    graph,
    source: int,
    target: int,
    bound: float = INF,
    skip: Collection[int] = _EMPTY,
) -> float:
    """Exact ``source``–``target`` distance if it is ``<= bound``, else INF.

    Path *interiors* avoid every vertex in ``skip``; the endpoints themselves
    are always allowed (this realises the paper's search over ``G[V \\ R]``
    when ``skip`` is the landmark set — queries with landmark endpoints are
    answered from the labelling instead and never reach this function, but
    permitting endpoints in ``skip`` keeps the primitive total).

    Levels are expanded smaller-frontier-first and one ``side`` map marks
    each reached vertex ``+1`` (source side) or ``-1`` (target side).  The
    two balls stay disjoint, so no path of length ``radius_s + radius_t``
    or less exists; the first neighbour carrying the other side's mark
    therefore closes a shortest path of length ``radius_s + radius_t + 1``.
    The last level the bound allows is not expanded: it can only matter
    through a meet, which is tested by adjacency to the other frontier.
    """
    adj = graph.adjacency()
    if source not in adj:
        raise VertexNotFoundError(source)
    if target not in adj:
        raise VertexNotFoundError(target)
    if source == target:
        return 0
    if bound < 1:
        return INF

    side: dict[int, int] = {source: 1, target: -1}
    frontier_s = [source]
    frontier_t = [target]
    reach = 0

    while frontier_s and frontier_t:
        if len(frontier_s) <= len(frontier_t):
            frontier, other_frontier, mark = frontier_s, frontier_t, 1
        else:
            frontier, other_frontier, mark = frontier_t, frontier_s, -1
        # The length of every path this level can close.
        reach += 1
        if reach >= bound:
            if reach == bound:
                other = set(other_frontier)
                for v in frontier:
                    if not other.isdisjoint(adj[v]):
                        return reach
            return INF
        next_frontier = []
        for v in frontier:
            for w in adj[v]:
                seen = side.get(w)
                if seen is None:
                    if w not in skip:
                        side[w] = mark
                        next_frontier.append(w)
                elif seen != mark:
                    return reach
        if mark == 1:
            frontier_s = next_frontier
        else:
            frontier_t = next_frontier

    return INF


def dijkstra_distances(
    graph, source: int, bound: float = INF, skip: Collection[int] = _EMPTY
) -> dict[int, float]:
    """Dijkstra distances from ``source`` on a :class:`WeightedGraph`.

    Supports the paper's weighted extension.  Vertices in ``skip`` are never
    expanded nor discovered (except the seeded ``source``); distances beyond
    ``bound`` are not reported.
    """
    adj = graph.adjacency()
    if source not in adj:
        raise VertexNotFoundError(source)
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        if d > bound:
            break
        dist[v] = d
        for w, weight in adj[v]:
            if w not in dist and w not in skip:
                nd = d + weight
                if nd <= bound:
                    heapq.heappush(heap, (nd, w))
    return dist


def bidirectional_dijkstra(
    graph,
    source: int,
    target: int,
    bound: float = INF,
    skip: Collection[int] = _EMPTY,
) -> float:
    """Exact weighted ``source``–``target`` distance if ``<= bound``, else INF.

    Weighted counterpart of :func:`bidirectional_bfs`, with the same
    ``skip``-as-interior-exclusion semantics.  Uses the classic two-heap
    scheme with the ``top_s + top_t >= best`` stopping rule.
    """
    adj = graph.adjacency()
    if source not in adj:
        raise VertexNotFoundError(source)
    if target not in adj:
        raise VertexNotFoundError(target)
    if source == target:
        return 0.0

    dist_s: dict[int, float] = {}
    dist_t: dict[int, float] = {}
    heap_s: list[tuple[float, int]] = [(0.0, source)]
    heap_t: list[tuple[float, int]] = [(0.0, target)]
    seen_s: dict[int, float] = {source: 0.0}
    seen_t: dict[int, float] = {target: 0.0}
    best = INF

    while heap_s and heap_t:
        if heap_s[0][0] + heap_t[0][0] >= min(best, bound):
            break
        if heap_s[0][0] <= heap_t[0][0]:
            heap, dist_own, seen_own = heap_s, dist_s, seen_s
            seen_other = seen_t
        else:
            heap, dist_own, seen_own = heap_t, dist_t, seen_t
            seen_other = seen_s
        d, v = heapq.heappop(heap)
        if v in dist_own:
            continue
        dist_own[v] = d
        for w, weight in adj[v]:
            nd = d + weight
            other = seen_other.get(w)
            if other is not None:
                total = nd + other
                if total < best:
                    best = total
            if w in skip or w in dist_own:
                continue
            known = seen_own.get(w)
            if known is None or nd < known:
                seen_own[w] = nd
                heapq.heappush(heap, (nd, w))

    return best if best <= bound else INF


def bfs_distances_directed(
    digraph, source: int, forward: bool = True
) -> dict[int, int]:
    """BFS distances on a digraph, following out-edges (``forward=True``) or
    in-edges (``forward=False``).  Supports the directed extension."""
    adj = digraph.out_adjacency() if forward else digraph.in_adjacency()
    if source not in adj:
        raise VertexNotFoundError(source)
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = depth
                    next_frontier.append(w)
        frontier = next_frontier
    return dist
