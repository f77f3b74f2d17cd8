"""BFS check of recorded answers against a replay of the generated events.

A read is recorded as ``(u, v, epoch, answer)``.  Epoch ``e`` names the
graph after the first ``e`` generated events (single node: the count of
applied events; cluster: the log seq).  Reads run only once every write
before them is visible and none is in flight, so the answer must equal
the BFS distance on exactly that graph.
"""

from __future__ import annotations

INF = float("inf")


def bfs_distance(adj: dict[int, set[int]], s: int, t: int) -> float:
    """Exact ``s``-``t`` hop distance by level-synchronous bidirectional BFS.

    Each step expands the smaller frontier by one whole level; the first
    level that meets the other side holds the minimum, so it returns the
    smallest meeting sum of that level.
    """
    if s == t:
        return 0
    seen = ({s: 0}, {t: 0})
    frontiers = ([s], [t])
    depth = [0, 0]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = seen[side], seen[1 - side]
        depth[side] += 1
        level = depth[side]
        best = INF
        nxt = []
        for x in frontiers[side]:
            for y in adj[x]:
                if y in mine:
                    continue
                mine[y] = level
                nxt.append(y)
                meet = other.get(y)
                if meet is not None and level + meet < best:
                    best = level + meet
        if best < INF:
            return best
        frontiers = (nxt, frontiers[1]) if side == 0 else (frontiers[0], nxt)
    return INF


class ReplayChecker:
    """Replays ``events`` over ``edges`` and checks answers epoch by epoch."""

    def __init__(self, edges, events) -> None:
        self._edges = edges
        self._events = events

    def _apply(self, adj, i: int) -> None:
        kind, u, v = self._events[i]
        if kind == "insert":
            adj[u].add(v)
            adj[v].add(u)
        else:
            adj[u].discard(v)
            adj[v].discard(u)

    def mismatches(self, samples) -> list[dict]:
        """Samples whose answer is not the distance at their epoch."""
        adj: dict[int, set[int]] = {}
        for u, v in self._edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        bad: list[dict] = []
        epoch = 0
        for u, v, at, answer in sorted(samples, key=lambda s: s[2]):
            if not 0 <= at <= len(self._events):
                bad.append({"u": u, "v": v, "epoch": at, "answer": answer,
                            "error": "epoch outside the generated stream"})
                continue
            while epoch < at:
                self._apply(adj, epoch)
                epoch += 1
            truth = bfs_distance(adj, u, v)
            if truth != (INF if answer is None else answer):
                bad.append({"u": u, "v": v, "epoch": at, "answer": answer,
                            "bfs": None if truth == INF else truth})
        return bad


def reference_label_entries(edges, events, num_landmarks: int) -> int:
    """``size(L)`` of the labelling built from scratch on the graph after
    ``events``, with the landmarks ``repro build`` picked on ``edges``
    (its default: the highest-degree vertices).

    The highway cover labelling is unique for a graph and a landmark set,
    so the labelling a server maintained through ``events`` must have
    exactly this size.  This checks the incremental path against the
    library's static construction, which shares no code with it; a stale
    label seldom changes an answer (the bounded search finds a path around
    it), but it always changes the size.
    """
    from repro.core.dynamic import DynamicHCL
    from repro.graph.dynamic_graph import DynamicGraph
    from repro.landmarks.selection import select_landmarks

    graph = DynamicGraph.from_edges(edges)
    landmarks = select_landmarks(graph, min(num_landmarks, graph.num_vertices))
    for kind, u, v in events:
        if kind == "insert":
            graph.add_edge(u, v)
        else:
            graph.remove_edge(u, v)
    return DynamicHCL.build(graph, landmarks=landmarks, construction="csr").label_entries
