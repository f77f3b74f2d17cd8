"""Exact distance queries over a highway cover labelling (Section 3).

``Q(u, v, Γ)`` combines two ingredients:

1. the upper bound ``d⊤`` of Eq. (2): join ``L(u)`` and ``L(v)`` through the
   highway;
2. a distance-bounded bidirectional BFS over the sparsified graph
   ``G[V \\ R]`` — every shortest path either meets a landmark (case covered
   exactly by ``d⊤``, via the cover property) or avoids all landmarks (found
   by the sparsified search).

Queries where an endpoint *is* a landmark are answered from the labelling
alone: Definition 3.2 makes ``min{δ_L(r_i, v) + δ_H(r, r_i)}`` exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.labelling import HighwayCoverLabelling
from repro.exceptions import VertexNotFoundError
from repro.graph.traversal import INF, bidirectional_bfs

__all__ = [
    "landmark_distance",
    "upper_bound",
    "query_distance",
    "query_distances_many",
    "QueryProbe",
    "query_distance_probed",
]


def landmark_distance(labelling: HighwayCoverLabelling, r: int, v: int) -> float:
    """Exact ``d_G(r, v)`` for landmark ``r`` — Eq. (1), no graph search.

    This is the ``Q(r, ·, Γ)`` used throughout Algorithms 2–3.
    """
    if v == r:
        return 0
    highway = labelling.highway
    if v in highway.landmark_set:
        return highway.distance(r, v)
    row = highway.row(r)
    best = INF
    for ri, delta in labelling.labels.label(v).items():
        via = row.get(ri)
        if via is not None:
            candidate = via + delta
            if candidate < best:
                best = candidate
    return best


def upper_bound(labelling: HighwayCoverLabelling, u: int, v: int) -> float:
    """``d⊤_uv`` of Eq. (2): best landmark-passing path length.

    Exact for every vertex pair whose shortest path meets a landmark;
    an upper bound otherwise.  ``u`` and ``v`` must be non-landmarks
    (landmark endpoints short-circuit in :func:`query_distance`).

    The smaller label is the outer loop (highway rows are symmetric), and
    an outer entry is skipped once ``du + min(L(v))`` cannot beat the best
    candidate so far, which is safe because every ``δ_H`` term is ``>= 0``.
    """
    labels = labelling.labels
    label_u = labels.label(u)
    label_v = labels.label(v)
    if len(label_u) > len(label_v):
        label_u, label_v = label_v, label_u
    if not label_u:
        return INF
    row_of = labelling.highway.row
    min_dv = min(label_v.values())
    best = INF
    for ri, du in label_u.items():
        if du + min_dv >= best:
            continue
        row = row_of(ri)
        for rj, dv in label_v.items():
            via = row.get(rj)
            if via is not None:
                candidate = du + via + dv
                if candidate < best:
                    best = candidate
    return best


def query_distance(graph, labelling: HighwayCoverLabelling, u: int, v: int) -> float:
    """``Q(u, v, Γ)`` — the exact distance ``d_G(u, v)`` (inf if disconnected).

    >>> from repro.graph.generators import grid_graph
    >>> from repro.core.construction import build_hcl
    >>> g = grid_graph(3, 3)
    >>> gamma = build_hcl(g, [4])
    >>> query_distance(g, gamma, 0, 8)
    4
    """
    if not graph.has_vertex(u):
        raise VertexNotFoundError(u)
    if not graph.has_vertex(v):
        raise VertexNotFoundError(v)
    if u == v:
        return 0
    landmark_set = labelling.landmark_set
    if u in landmark_set:
        return landmark_distance(labelling, u, v)
    if v in landmark_set:
        return landmark_distance(labelling, v, u)
    bound = upper_bound(labelling, u, v)
    sparsified = bidirectional_bfs(graph, u, v, bound=bound, skip=landmark_set)
    return sparsified if sparsified <= bound else bound


def query_distances_many(
    graph, labelling: HighwayCoverLabelling, pairs
) -> list[float]:
    """``Q(u, v, Γ)`` for a whole batch of pairs, answers in input order.

    Identical results to mapping :func:`query_distance` over ``pairs``, but
    the per-call lookups (landmark set, adjacency check) are
    hoisted out of the loop — this is the amortized entry point behind
    :meth:`repro.core.dynamic.DynamicHCL.query_many` and the serving hot
    path.

    >>> from repro.graph.generators import grid_graph
    >>> from repro.core.construction import build_hcl
    >>> g = grid_graph(3, 3)
    >>> gamma = build_hcl(g, [4])
    >>> query_distances_many(g, gamma, [(0, 8), (0, 0), (3, 5)])
    [4, 0, 2]
    """
    landmark_set = labelling.landmark_set
    has_vertex = graph.has_vertex
    out: list[float] = []
    append = out.append
    for u, v in pairs:
        if not has_vertex(u):
            raise VertexNotFoundError(u)
        if not has_vertex(v):
            raise VertexNotFoundError(v)
        if u == v:
            append(0)
            continue
        if u in landmark_set:
            append(landmark_distance(labelling, u, v))
            continue
        if v in landmark_set:
            append(landmark_distance(labelling, v, u))
            continue
        bound = upper_bound(labelling, u, v)
        sparsified = bidirectional_bfs(graph, u, v, bound=bound, skip=landmark_set)
        append(sparsified if sparsified <= bound else bound)
    return out


@dataclass(frozen=True)
class QueryProbe:
    """Cost decomposition of one ``Q(u, v, Γ)`` evaluation.

    The paper attributes query time to labelling size (Section 6.1.3);
    this probe splits one query into its two ingredients so that claim
    can be measured: the label-join work behind ``d⊤`` and whether the
    bounded sparsified search improved on the bound.

    ``label_join_ops`` is the cost model of Section 6.1.3,
    ``|L(u)|·|L(v)|`` (``|L|`` for a landmark endpoint), not the number
    of operations :func:`upper_bound` performs: its pruned join usually
    visits fewer pairs.
    """

    distance: float
    bound: float
    label_join_ops: int
    landmark_endpoint: bool
    search_won: bool

    @property
    def bound_was_exact(self) -> bool:
        """Whether ``d⊤`` alone already equalled the answer — i.e. some
        shortest path met a landmark (the highway-cover case)."""
        return self.distance == self.bound


def query_distance_probed(
    graph, labelling: HighwayCoverLabelling, u: int, v: int
) -> QueryProbe:
    """``Q(u, v, Γ)`` with a cost decomposition (same answer as
    :func:`query_distance`; used by the query-cost analysis)."""
    if not graph.has_vertex(u):
        raise VertexNotFoundError(u)
    if not graph.has_vertex(v):
        raise VertexNotFoundError(v)
    landmark_set = labelling.landmark_set
    if u == v:
        return QueryProbe(0, 0, 0, False, False)
    if u in landmark_set or v in landmark_set:
        if u in landmark_set:
            distance = landmark_distance(labelling, u, v)
            join_ops = labelling.labels.label_size(v) or 1
        else:
            distance = landmark_distance(labelling, v, u)
            join_ops = labelling.labels.label_size(u) or 1
        return QueryProbe(distance, distance, join_ops, True, False)
    join_ops = (
        labelling.labels.label_size(u) * labelling.labels.label_size(v)
    )
    bound = upper_bound(labelling, u, v)
    sparsified = bidirectional_bfs(graph, u, v, bound=bound, skip=landmark_set)
    distance = sparsified if sparsified <= bound else bound
    return QueryProbe(
        distance=distance,
        bound=bound,
        label_join_ops=join_ops,
        landmark_endpoint=False,
        search_won=sparsified < bound,
    )
