"""Per-landmark sweep kernels and their process-pool task adapters.

A *sweep* is the unit of work the :class:`~repro.parallel.engine.LandmarkEngine`
fans out: everything one landmark contributes to a highway cover labelling,
computed from read-only inputs and returned as a compact
:class:`LandmarkSweep` value.  Keeping sweeps **pure** (no mutation of the
shared :class:`~repro.core.highway.Highway` / label store) is what makes
them safe to run on worker processes; the caller folds the partial results
back in with :func:`merge_sweep`, in landmark order, so serial and parallel
executions produce byte-identical labellings (``docs/DESIGN.md`` §6).

Two interchangeable kernels produce identical sweeps:

* :func:`landmark_sweep` — the reference pure-Python level-synchronous BFS
  with cover flags (Theorem 5.2's minimality characterization);
* :func:`csr_landmark_sweep` — the numpy formulation over a
  :class:`~repro.graph.csr.CSRGraph` snapshot.

>>> adj = {0: [1], 1: [0, 2], 2: [1]}          # path 0 - 1 - 2
>>> sweep = landmark_sweep(adj, 0, frozenset({0, 2}))
>>> sweep.highway_cells                        # other landmarks reached
[(2, 2)]
>>> sweep.levels                               # uncovered vertices by depth
[(1, [1])]
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "LandmarkSweep",
    "SettledLevel",
    "landmark_sweep",
    "csr_landmark_sweep",
    "merge_sweep",
    "construction_task",
    "csr_construction_task",
    "batch_find_task",
    "csr_find_affected",
    "csr_find_affected_mixed",
    "csr_repair_affected",
    "csr_batch_repair_mixed",
    "csr_find_group_task",
]

#: Frontier size below which the update kernels drop to scalar loops: a
#: handful of numpy calls costs more than a few dict-free Python
#: iterations, and single-edge insertions mostly touch tiny regions.
_SCALAR_CUTOFF = 32


class LandmarkSweep(NamedTuple):
    """Everything landmark ``root`` contributes to the labelling.

    ``highway_cells`` are ``(other_landmark, distance)`` pairs for the
    highway row of ``root``; ``levels`` are ``(depth, vertices)`` groups of
    the label entries ``(root, depth) ∈ L(v)``, in BFS level order.  Both
    are plain ints/lists so a sweep pickles cheaply on its way back from a
    worker process.
    """

    root: int
    highway_cells: list[tuple[int, int]]
    levels: list[tuple[int, list[int]]]

    @property
    def num_entries(self) -> int:
        """Label entries this sweep emits (``Σ_level |vertices|``)."""
        return sum(len(vertices) for _, vertices in self.levels)


def landmark_sweep(
    adj: dict[int, list[int]], root: int, landmark_set: frozenset[int]
) -> LandmarkSweep:
    """Full BFS from ``root`` with landmark-on-a-shortest-path flags.

    ``has_lm[v]`` = "some shortest path from ``root`` to ``v`` contains a
    landmark in ``R \\ {root}`` (possibly ``v`` itself)".  The flag of a
    level-``d`` vertex is final once all level-``d-1`` parents have been
    expanded, which the level-synchronous sweep guarantees; a vertex is
    labelled iff its flag stays false (the minimality characterization of
    Theorem 5.2).  Pure: reads ``adj`` only, returns the partial result.
    """
    dist: dict[int, int] = {root: 0}
    has_lm: dict[int, bool] = {root: False}
    cells: list[tuple[int, int]] = []
    levels: list[tuple[int, list[int]]] = []
    frontier = [root]
    depth = 0
    while frontier:
        depth += 1
        next_frontier: list[int] = []
        for v in frontier:
            flag = has_lm[v]
            for w in adj[v]:
                seen = dist.get(w)
                if seen is None:
                    dist[w] = depth
                    has_lm[w] = flag
                    next_frontier.append(w)
                elif seen == depth and flag and not has_lm[w]:
                    # Another shortest-path parent contributes a landmark.
                    has_lm[w] = True
        # Levels are complete here: record highway cells, force flags of
        # landmark vertices (paths *through* them are covered), collect
        # label entries of flag-free non-landmarks.
        labelled: list[int] = []
        for w in next_frontier:
            if w in landmark_set:
                cells.append((w, depth))
                has_lm[w] = True
            elif not has_lm[w]:
                labelled.append(w)
        if labelled:
            levels.append((depth, labelled))
        frontier = next_frontier
    return LandmarkSweep(root, cells, levels)


def csr_landmark_sweep(
    indptr, indices, ids, is_landmark, root_index: int, root_id: int
) -> LandmarkSweep:
    """The numpy formulation of :func:`landmark_sweep` over CSR arrays.

    Identical output (cell for cell, level for level) to the reference
    kernel; per BFS level the cover flag propagates as one scatter over the
    frontier adjacency instead of a Python loop per edge.  Arguments are
    the raw arrays of a :class:`~repro.graph.csr.CSRGraph` so the function
    ships to worker processes without dragging the snapshot object along.
    """
    import numpy as np

    from repro.graph.csr import _gather_neighbors

    num_vertices = len(ids)
    dist = np.full(num_vertices, -1, dtype=np.int32)
    flag = np.zeros(num_vertices, dtype=np.uint8)
    member = np.zeros(num_vertices, dtype=bool)
    dist[root_index] = 0
    frontier = np.array([root_index], dtype=np.int64)
    cells: list[tuple[int, int]] = []
    levels: list[tuple[int, list[int]]] = []
    depth = 0
    while frontier.size:
        depth += 1
        sources, neighbours = _gather_neighbors(indptr, indices, frontier)
        if neighbours.size == 0:
            break
        unseen = dist[neighbours] < 0
        sources = sources[unseen]
        neighbours = neighbours[unseen]
        if neighbours.size == 0:
            break
        # Mask-scatter dedup (cheaper than np.unique on heavy levels);
        # nonzero returns the level sorted, matching the reference order.
        member[neighbours] = True
        new_level = np.nonzero(member)[0]
        member[new_level] = False
        dist[new_level] = depth
        # OR of parent flags over every shortest-path (frontier -> new
        # level) edge: scatter 1 to every neighbour reached from a flagged
        # parent.
        flag[neighbours[flag[sources] != 0]] = 1

        level_landmarks = new_level[is_landmark[new_level]]
        cells.extend((v, depth) for v in ids[level_landmarks].tolist())
        flag[level_landmarks] = 1

        uncovered = new_level[(flag[new_level] == 0) & ~is_landmark[new_level]]
        if uncovered.size:
            levels.append((depth, ids[uncovered].tolist()))
        frontier = new_level
    return LandmarkSweep(root_id, cells, levels)


def merge_sweep(highway, labels, sweep: LandmarkSweep) -> None:
    """Fold one sweep into the shared highway / label stores.

    The bulk label write relies on the sweep invariant that a BFS emits
    each vertex at most once and the caller's guarantee that ``sweep.root``
    currently has no entries (fresh landmark, or row cleared before the
    rebuild) — the same precondition as
    :meth:`repro.core.labels.LabelStore.bulk_set_new`.
    """
    root = sweep.root
    for other, distance in sweep.highway_cells:
        highway.set_distance(root, other, distance)
    for depth, vertices in sweep.levels:
        labels.bulk_set_new(root, vertices, depth)


# ---------------------------------------------------------------------------
# Incremental-update kernels (IncHL+ find/repair over DynCSR arrays)
# ---------------------------------------------------------------------------
def csr_find_affected(dyn, old_dist, seeds, new_dist=None, views=None):
    """Multi-seed jumped BFS (Lemma 4.4, batch form) over a DynCSR.

    The array formulation of :func:`repro.core.batch.find_affected_batch`
    for one landmark: ``old_dist`` is the landmark's dense pre-insertion
    distance row (int32, :data:`~repro.graph.dyncsr.UNREACH` for
    unreachable — exactly the values the dict implementation derives from
    label queries, by Eq. (1)); ``seeds`` are ``(root_index,
    candidate_depth)`` pairs, one per surviving orientation of an inserted
    edge.  A bucket queue keyed on candidate depth settles vertices in
    monotonically increasing depth, so a seed whose anchor distance
    dropped because of *another* edge in the batch is discovered before
    the stale seed pops (same monotone argument as the dict kernel).

    ``new_dist`` is an optional int32 scratch array (every entry ``-1``)
    reused across calls; on return it holds the new depth at every
    affected index — the caller repairs from it and then resets exactly
    those entries.  Returns ``levels``: ``(depth, vertices)`` pairs in
    increasing depth — ``Λ_r`` with exact post-insertion distances —
    where ``vertices`` is a sorted Python list for small levels and a
    sorted int64 array for large ones.

    The two representations are the hybrid execution strategy: buckets at
    or below :data:`_SCALAR_CUTOFF` candidates run as plain loops over
    memoryviews of the same buffers (single-edge insertions mostly touch
    a handful of vertices, where one numpy call costs more than the whole
    level), larger buckets run as numpy level sweeps.  Both paths apply
    the same settle test to the same shared scratch, so the affected set
    does not depend on which one ran.

    ``views`` is an optional pre-built ``(old_mv, new_mv)`` memoryview
    pair over the same two arrays — the owning engine caches these across
    calls; without it the views are built here.
    """
    import numpy as np

    if new_dist is None:
        new_dist = np.full(dyn.num_vertices, -1, dtype=np.int32)
    if views is None:
        old_mv = memoryview(old_dist)
        new_mv = memoryview(new_dist)
    else:
        old_mv, new_mv = views
    indptr, base_len, indices, delta, delta_count = dyn.scalar_views()
    # Bucket value = (scalar candidates, array candidates): the scalar
    # path extends the first, the vectorized path appends whole frontier
    # arrays to the second, and a pop never has to type-inspect elements.
    buckets: dict[int, tuple[list[int], list]] = {}
    for root, depth in seeds:
        buckets.setdefault(int(depth), ([], []))[0].append(int(root))
    levels: list[tuple[int, object]] = []
    while buckets:
        depth = min(buckets)
        ints, arrays = buckets.pop(depth)
        size = len(ints)
        for a in arrays:
            size += len(a)
        if size <= _SCALAR_CUTOFF:
            # Scalar pop: settle (writing the shared scratch immediately,
            # which also dedups within the bucket), then expand through
            # the raw CSR views.
            for a in arrays:
                ints.extend(a.tolist())
            settled: list[int] = []
            for v in ints:
                if new_mv[v] < 0 and old_mv[v] >= depth:
                    new_mv[v] = depth
                    settled.append(v)
            if not settled:
                continue
            settled.sort()
            levels.append((depth, settled))
            next_depth = depth + 1
            pushed: list[int] = []
            for v in settled:
                # Test the old distance first: most scanned neighbours are
                # unaffected border vertices, which fail it on one read.
                start = indptr[v]
                for w in indices[start : start + base_len[v]]:
                    if old_mv[w] >= next_depth and new_mv[w] < 0:
                        pushed.append(w)
                if delta_count[v]:
                    for w in delta[v]:
                        if old_mv[w] >= next_depth and new_mv[w] < 0:
                            pushed.append(w)
            if pushed:
                bucket = buckets.get(next_depth)
                if bucket is None:
                    buckets[next_depth] = (pushed, [])
                else:
                    bucket[0].extend(pushed)
            continue
        if ints:
            arrays.append(np.array(ints, dtype=np.int64))
        cand = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        cand = cand[(new_dist[cand] < 0) & (old_dist[cand] >= depth)]
        if cand.size == 0:
            continue
        level = _unique(cand)
        new_dist[level] = depth
        levels.append((depth, level))
        neighbours = dyn.gather_neighbours(level)
        if neighbours.size:
            neighbours = neighbours[
                (new_dist[neighbours] < 0) & (old_dist[neighbours] >= depth + 1)
            ]
            if neighbours.size:
                bucket = buckets.get(depth + 1)
                if bucket is None:
                    buckets[depth + 1] = ([], [neighbours])
                else:
                    bucket[1].append(neighbours)
    return levels


def _unique(values):
    """Sorted distinct values of an int array.

    Sort-and-compare: for the few-thousand-element arrays of the update
    kernels it is several times faster than ``np.unique``'s hash path.
    """
    import numpy as np

    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class SettledLevel(NamedTuple):
    """The (landmark, vertex) pairs a mixed-batch find settled at one depth.

    ``flat`` holds sorted flat ids ``k * cap + v``; ``positions`` /
    ``verts`` / ``nbrs`` are their adjacency as gathered by the find
    (:func:`_gather_flat`), which the repair reuses for the parent
    predicate instead of gathering the level again.
    """

    depth: int
    flat: object
    positions: object
    verts: object
    nbrs: object


def _gather_flat(dyn, flat, cap):
    """``(positions, vertices, neighbours)`` leaving flat ids ``flat``.

    A flat id ``k * cap + v`` names vertex ``v`` in the ``k``-th row of
    a ``rows x cap`` matrix.  ``positions`` index into ``flat``,
    ``vertices`` are the neighbours' compact indices and ``neighbours``
    the same neighbours as flat ids in the source's row.
    """
    verts = flat % cap
    positions, nbrs = dyn.gather_with_positions(verts)
    return positions, nbrs, (flat - verts)[positions] + nbrs


def csr_find_affected_mixed(dyn, dist, ins_edges, del_edges, new_depth):
    """Unified affected-region search for a mixed batch, every landmark at once.

    The BatchHL-style generalization of :func:`csr_find_affected`
    (``docs/DESIGN.md`` §10).  ``dist`` is a ``rows x cap`` block of the
    engine's dense distance rows, still holding the pre-batch distances
    (exact by Eq. (1)), while ``dyn`` already reflects the whole batch
    (inserted edges present, deleted edges gone).  ``ins_edges`` and
    ``del_edges`` are ``(m, 2)`` int64 arrays of compact endpoint
    indices.  Every landmark's search is independent, so all of them run
    as one sweep over *flat* ids ``k * cap + v`` — one numpy pass per
    depth instead of one interpreter loop per landmark.

    Three stages:

    1. **Closure** — a deleted edge ``(a, b)`` with ``old(a) + 1 ==
       old(b)`` (the only orientation the old shortest-path DAG admits;
       both-unreachable fails it because ``UNREACH + 1 != UNREACH``)
       roots ``b``; the closure adds the descendants of the roots in the
       old DAG (``old(w) == old(v) + 1`` over the post-batch adjacency).
       These are the vertices whose distance may *increase or become
       infinite*.  Their row slot is overwritten with :data:`UNREACH`,
       which is all the later stages need: a closure vertex never anchors
       an insertion or a re-entry, and it passes every settle test.
       Over-inclusion through inserted edges is harmless: repair
       re-derives an unchanged vertex identically.
    2. **Seeding** — insertion anchors (``old(anchor) + 1 <= old(root)``,
       per orientation) plus, per closure vertex, the cheapest re-entry
       candidate ``old(u) + 1`` over its neighbours outside the closure
       (their distances can only have *decreased*, so the candidate never
       underestimates and monotonicity repairs any overestimate).
    3. **Bucket-queue BFS** — pops candidate depths in increasing order
       and settles a vertex at the first popped depth ``d`` with
       ``old >= d`` (the jumped test of the insertion kernel; closure
       vertices pass it through their ``UNREACH`` slot).  Landmarks do
       not interact, so each landmark sees its pops in increasing depth
       exactly as a search of its own would.

    Each settled vertex's new depth is written to both ``dist`` (so the
    block holds the post-batch distances on return) and the int32
    scratch block ``new_depth`` (``-1`` everywhere on entry), which marks
    the pairs the repair must visit; the caller resets it after repair.
    Returns ``(levels, removed)``: one :class:`SettledLevel` per depth,
    in increasing depth, and the sorted flat ids of the closure vertices
    that never settled — exactly the pairs the batch disconnected.
    """
    import numpy as np

    from repro.graph.dyncsr import UNREACH

    unreachable = int(UNREACH)
    rows, cap = dist.shape
    old = dist.reshape(-1)
    new = new_depth.reshape(-1)
    bases = np.arange(rows, dtype=np.int64)[:, None] * cap
    empty = np.empty(0, dtype=np.int64)

    # Stage 1: closure of the deletion roots over the old SP DAG.  Each
    # frontier's adjacency is kept for the re-entry seeding below.
    closure = [empty]
    adjacency = [(empty, empty)]
    if len(del_edges):
        fa = (bases + del_edges[:, 0]).ravel()
        fb = (bases + del_edges[:, 1]).ravel()
        da = old[fa]
        db = old[fb]
        frontier = _unique(np.concatenate((fb[da + 1 == db], fa[db + 1 == da])))
        done = 0
        while frontier.size:
            positions, _, nbrs = _gather_flat(dyn, frontier, cap)
            closure.append(frontier)
            adjacency.append((positions + done, nbrs))
            done += frontier.size
            children = nbrs[old[nbrs] == old[frontier][positions] + 1]
            old[frontier] = unreachable
            frontier = _unique(children)
            # A vertex already in the closure reads UNREACH now.
            frontier = frontier[old[frontier] != unreachable]
    closure = np.concatenate(closure)

    # Stage 2: seeds, as (flat id, candidate depth) arrays.
    seeds = [empty]
    depths = [empty]
    if len(ins_edges):
        fa = (bases + ins_edges[:, 0]).ravel()
        fb = (bases + ins_edges[:, 1]).ravel()
        da = old[fa]
        db = old[fb]
        for root, d_anchor, d_root in ((fb, da, db), (fa, db, da)):
            ok = (d_anchor != unreachable) & (d_anchor < d_root)
            seeds.append(root[ok])
            depths.append(d_anchor[ok] + 1)
    if closure.size:
        # Cheapest re-entry per closure vertex; closure neighbours read
        # UNREACH and never win.
        best = np.full(closure.size, unreachable, dtype=old.dtype)
        np.minimum.at(
            best,
            np.concatenate([p for p, _ in adjacency]),
            old[np.concatenate([n for _, n in adjacency])],
        )
        found = best != unreachable
        seeds.append(closure[found])
        depths.append(best[found] + 1)
    seeds = np.concatenate(seeds)
    depths = np.concatenate(depths)
    buckets: dict[int, list] = {
        depth: [seeds[depths == depth]] for depth in _unique(depths).tolist()
    }

    # Stage 3: unified monotone bucket-queue BFS over flat ids.
    levels: list[SettledLevel] = []
    while buckets:
        depth = min(buckets)
        parts = buckets.pop(depth)
        cand = parts[0] if len(parts) == 1 else np.concatenate(parts)
        cand = cand[old[cand] >= depth]
        if cand.size == 0:
            continue
        level = _unique(cand)
        old[level] = depth
        new[level] = depth
        positions, verts, nbrs = _gather_flat(dyn, level, cap)
        levels.append(SettledLevel(depth, level, positions, verts, nbrs))
        nbrs = nbrs[old[nbrs] > depth]
        if nbrs.size:
            buckets.setdefault(depth + 1, []).append(nbrs)

    return levels, np.sort(closure[new[closure] < 0])


def csr_repair_affected(
    dyn,
    labelling,
    r,
    levels,
    old_dist,
    new_dist,
    is_landmark,
    covered,
    has_entry,
    stats=None,
    views=None,
):
    """Level-order repair (Lemma 4.6) from kernel find results.

    The array formulation of :func:`repro.core.inchl.repair_affected`:
    sweeps ``levels`` in increasing depth and evaluates the *covered*
    predicate of each affected vertex over its shortest-path parents —
    affected parents at ``depth - 1`` read their just-computed cover flag,
    unaffected parents at old distance ``depth - 1`` cover iff they are a
    landmark (other than ``r``) or lack an ``r``-entry.  The dict kernel
    consults ``border_old``, which records exactly the unaffected
    neighbours of the affected region with their unchanged distances;
    ``old_dist`` holds those same values for every vertex, so the parent
    sets coincide and the two kernels issue the same entry
    additions/modifications/removals and highway updates.

    ``new_dist`` must hold the find results (affected index -> new depth,
    ``-1`` elsewhere); ``covered`` is a zeroed uint8 scratch.  Both are
    left populated at affected indices for the caller to reset.
    ``has_entry`` is the landmark's dense label-membership row (uint8:
    ``has_entry[i] == 1`` iff ``(r, ·) ∈ L(ids[i])``) — the vectorized
    stand-in for ``LabelStore.has_entry`` in the covered predicate; the
    kernel keeps it true as it mutates labels, so the owning engine can
    reuse it across updates.  Mutates ``labelling`` in place and updates
    ``stats`` like the dict kernel.

    Levels arrive in the hybrid representation of
    :func:`csr_find_affected` (lists for small levels, arrays for large
    ones) and are repaired scalar or vectorized accordingly; the two
    paths evaluate the same predicate over the same shared buffers.

    ``views`` is an optional pre-built ``(old_mv, new_mv, landmark_mv,
    covered_mv, has_mv)`` memoryview bundle over the same five arrays,
    cached by the owning engine; without it the views are built here.
    """
    import numpy as np

    from repro.exceptions import InvariantViolationError

    labels = labelling.labels
    highway = labelling.highway
    ids = dyn.ids
    r_index = dyn.index(r)
    if views is None:
        old_mv = memoryview(old_dist)
        new_mv = memoryview(new_dist)
        landmark_mv = memoryview(is_landmark)
        covered_mv = memoryview(covered)
        has_mv = memoryview(has_entry)
    else:
        old_mv, new_mv, landmark_mv, covered_mv, has_mv = views
    indptr, base_len, indices, delta, delta_count = dyn.scalar_views()

    # "A border parent at the right depth covers its child" depends only
    # on landmark membership and r-entry presence — and repair never
    # touches a border vertex's r-entry — so for the vectorized levels
    # the whole predicate collapses into one per-vertex vector, computed
    # lazily (small updates never pay the O(n) ops).  ``r`` itself never
    # covers: a shortest path whose only landmark is r is exactly what an
    # r-entry witnesses.
    border_covers = None

    for depth, verts in levels:
        parent_depth = depth - 1
        if isinstance(verts, list):
            for v in verts:
                if landmark_mv[v]:
                    covered_mv[v] = 1
                    vid = int(ids[v])
                    if highway.distance(r, vid) != depth:
                        highway.set_distance(r, vid, depth)
                        if stats is not None:
                            stats.highway_updates += 1
                    continue
                is_covered = False
                has_parent = False
                start = indptr[v]
                neighbours = indices[start : start + base_len[v]]
                if delta_count[v]:
                    neighbours = list(neighbours) + delta[v]
                for u in neighbours:
                    du = new_mv[u]
                    if du >= 0:
                        if du != parent_depth:
                            continue
                        has_parent = True
                        if covered_mv[u]:
                            is_covered = True
                            break
                        continue
                    if u == r_index:
                        if parent_depth == 0:
                            has_parent = True
                        continue
                    if old_mv[u] != parent_depth:
                        continue
                    has_parent = True
                    if landmark_mv[u] or not has_mv[u]:
                        is_covered = True
                        break
                if not has_parent:
                    raise InvariantViolationError(
                        f"affected vertex {int(ids[v])} at new depth {depth} "
                        f"(landmark {r}) has no shortest-path parent — "
                        f"labelling out of sync with graph"
                    )
                vid = int(ids[v])
                if is_covered:
                    covered_mv[v] = 1
                    if has_mv[v]:
                        labels.remove_entry(vid, r)
                        has_mv[v] = 0
                        if stats is not None:
                            stats.entries_removed += 1
                else:
                    if stats is not None:
                        if has_mv[v]:
                            stats.entries_modified += 1
                        else:
                            stats.entries_added += 1
                    labels.set_entry(vid, r, depth)
                    has_mv[v] = 1
            continue

        lm_mask = is_landmark[verts]
        level_landmarks = verts[lm_mask]
        if level_landmarks.size:
            covered[level_landmarks] = 1
            for v in level_landmarks.tolist():
                vid = int(ids[v])
                if highway.distance(r, vid) != depth:
                    highway.set_distance(r, vid, depth)
                    if stats is not None:
                        stats.highway_updates += 1
        others = verts[~lm_mask]
        if others.size == 0:
            continue
        if border_covers is None:
            border_covers = is_landmark | (has_entry == 0)
            border_covers[r_index] = False
        position, nbrs = dyn.gather_with_positions(others)
        nd = new_dist[nbrs]
        affected_parent = nd == parent_depth
        # r itself classifies uniformly: it is unaffected with old
        # distance 0, so it parents exactly the depth-1 vertices — the
        # dict kernel's explicit r-branch — and never covers (above).
        unaffected_parent = (nd < 0) & (old_dist[nbrs] == parent_depth)
        parent = affected_parent | unaffected_parent
        contrib = (affected_parent & (covered[nbrs] != 0)) | (
            unaffected_parent & border_covers[nbrs]
        )
        has_parent_v = np.zeros(len(others), dtype=bool)
        has_parent_v[position[parent]] = True
        if not has_parent_v.all():
            v = int(others[~has_parent_v][0])
            raise InvariantViolationError(
                f"affected vertex {int(ids[v])} at new depth {depth} "
                f"(landmark {r}) has no shortest-path parent — labelling "
                f"out of sync with graph"
            )
        covered_v = np.zeros(len(others), dtype=bool)
        covered_v[position[contrib]] = True
        covered_verts = others[covered_v]
        if covered_verts.size:
            covered[covered_verts] = 1
            removed = labels.bulk_remove(r, ids[covered_verts].tolist())
            has_entry[covered_verts] = 0
            if stats is not None:
                stats.entries_removed += removed
        uncovered_verts = others[~covered_v]
        if uncovered_verts.size:
            added, modified = labels.bulk_set(
                r, ids[uncovered_verts].tolist(), depth
            )
            has_entry[uncovered_verts] = 1
            if stats is not None:
                stats.entries_added += added
                stats.entries_modified += modified


def csr_batch_repair_mixed(
    dyn,
    labelling,
    landmarks,
    levels,
    removed,
    dist,
    new_depth,
    covered,
    is_landmark,
    has_entry,
    stats,
):
    """Phase C of a mixed batch for every landmark: disconnect, then repair.

    ``levels``/``removed`` are the flat-id results of
    :func:`csr_find_affected_mixed` over the ``rows x cap`` blocks
    ``dist`` (post-batch distances), ``new_depth`` (new depth at every
    settled pair, ``-1`` elsewhere) and ``has_entry`` (the dense
    label-membership rows); ``landmarks[k]`` owns row ``k``.
    ``covered`` is a zeroed uint8 block of the same shape; the covered
    flags of settled pairs are left in it (and ``new_depth`` populated)
    for the caller to reset.

    The *covered* predicate of Lemma 4.6 is evaluated for all pairs of a
    depth in one pass: an affected parent at ``depth - 1`` contributes
    its just-computed flag; an unaffected parent at old distance
    ``depth - 1`` covers iff it is a landmark or lacks an entry of the
    row's landmark.  The root (old distance 0, the only unaffected
    depth-0 parent) never covers: a shortest path whose only landmark is
    ``r`` is exactly what an ``r``-entry witnesses.  A settled
    non-landmark without a parent raises
    :class:`~repro.exceptions.InvariantViolationError`.

    Mutations follow once every verdict is known, landmark by landmark
    in ascending row order, so label rows, highway cells and every
    counter come out as a per-landmark loop would leave them:
    disconnected pairs lose their entry (or, for landmarks, their highway
    pair — mirroring :func:`repro.core.dechl.repair_affected_deletion`),
    covered pairs lose their entry, uncovered ones gain or update it, and
    a landmark settled at ``depth`` fixes its highway cell.  A cell two
    landmarks both reach is set (and counted) by the first only.
    """
    import numpy as np

    from repro.exceptions import InvariantViolationError

    rows, cap = dist.shape
    dist_flat = dist.reshape(-1)
    new = new_depth.reshape(-1)
    cov = covered.reshape(-1)
    has = has_entry.reshape(-1)
    ids = dyn.ids
    labels = labelling.labels
    highway = labelling.highway

    # Label writes (flat ids, depth, set or remove) and highway cells
    # (flat ids, depth; 0 = disconnected) in evaluation order; sorted per
    # landmark below.
    empty = np.empty(0, dtype=np.int64)
    entry_flat = [empty]
    entry_depth = [empty]
    entry_set = [np.empty(0, dtype=bool)]
    cell_flat = []
    cell_depth = []
    if removed.size:
        lm = is_landmark[removed % cap]
        cell_flat.append(removed[lm])
        cell_depth.append(np.zeros(int(lm.sum()), dtype=np.int64))
        lost = removed[~lm]
        lost = lost[has[lost] != 0]
        entry_flat.append(lost)
        entry_depth.append(np.zeros(lost.size, dtype=np.int64))
        entry_set.append(np.zeros(lost.size, dtype=bool))
    for depth, level, positions, nbr_verts, nbrs in levels:
        lm = is_landmark[level % cap]
        if lm.any():
            landmark_level = level[lm]
            cell_flat.append(landmark_level)
            cell_depth.append(np.full(landmark_level.size, depth, dtype=np.int64))
        # The predicate runs over the whole level; landmarks' verdicts are
        # dropped (a landmark always covers its descendants).  The rows
        # already hold every settled pair's new depth, so one test finds
        # the shortest-path parents, affected or not.
        parent_depth = depth - 1
        parent = dist_flat[nbrs] == parent_depth
        parent_pos = positions[parent]
        has_parent = lm.copy()
        has_parent[parent_pos] = True
        if not has_parent.all():
            k, v = divmod(int(level[~has_parent][0]), cap)
            raise InvariantViolationError(
                f"affected vertex {int(ids[v])} at new depth {depth} "
                f"(landmark {landmarks[k]}) has no shortest-path parent — "
                f"labelling out of sync with graph"
            )
        is_covered = lm.copy()
        if parent_depth:
            parent_nbrs = nbrs[parent]
            contrib = np.where(
                new[parent_nbrs] >= 0,
                cov[parent_nbrs] != 0,
                is_landmark[nbr_verts[parent]] | (has[parent_nbrs] == 0),
            )
            is_covered[parent_pos[contrib]] = True
        cov[level[is_covered]] = 1
        # Uncovered pairs gain or update their entry; covered ones lose it
        # if they have one.
        touched = ~lm & (~is_covered | (has[level] != 0))
        entry_flat.append(level[touched])
        entry_depth.append(np.full(int(touched.sum()), depth, dtype=np.int64))
        entry_set.append(~is_covered[touched])

    if cell_flat:
        flat = np.concatenate(cell_flat)
        depth = np.concatenate(cell_depth)
        order = np.argsort(flat // cap, kind="stable")
        for f, d in zip(flat[order].tolist(), depth[order].tolist()):
            k, v = divmod(f, cap)
            r = landmarks[k]
            vid = int(ids[v])
            if d == 0:
                if highway.remove_distance(r, vid):
                    stats.highway_updates += 1
            elif highway.distance(r, vid) != d:
                highway.set_distance(r, vid, d)
                stats.highway_updates += 1

    flat = np.concatenate(entry_flat)
    if flat.size:
        depth = np.concatenate(entry_depth)
        to_set = np.concatenate(entry_set)
        # One run per (landmark, depth, verdict), covered before uncovered
        # within a depth, as the per-landmark repair issued them.
        span = 2 * (int(depth.max()) + 1)
        key = (flat // cap) * span + depth * 2 + to_set
        order = np.argsort(key, kind="stable")
        flat, key, depth, to_set = flat[order], key[order], depth[order], to_set[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        ends = np.append(starts[1:], key.size)
        vertex_ids = ids[flat % cap].tolist()
        for start, end, k, d, put in zip(
            starts.tolist(),
            ends.tolist(),
            (key[starts] // span).tolist(),
            depth[starts].tolist(),
            to_set[starts].tolist(),
        ):
            run = vertex_ids[start:end]
            if put:
                added, modified = labels.bulk_set(landmarks[k], run, d)
                stats.entries_added += added
                stats.entries_modified += modified
            else:
                stats.entries_removed += labels.bulk_remove(landmarks[k], run)
        has[flat] = to_set


# ---------------------------------------------------------------------------
# Engine task adapters (module-level, hence picklable by reference)
# ---------------------------------------------------------------------------
def construction_task(state, root: int) -> LandmarkSweep:
    """Engine task for construction / rebuild: one reference sweep.

    ``state`` is ``(adj, landmark_set)``, shared with workers via fork
    inheritance; the work item is the landmark id.
    """
    adj, landmark_set = state
    return landmark_sweep(adj, root, landmark_set)


def csr_construction_task(state, item: tuple[int, int]) -> LandmarkSweep:
    """Engine task for the CSR fast path: one numpy sweep.

    ``state`` is ``(indptr, indices, ids, is_landmark)``; the work item is
    ``(root_index, root_id)`` in compact/original id space respectively.
    """
    indptr, indices, ids, is_landmark = state
    root_index, root_id = item
    return csr_landmark_sweep(indptr, indices, ids, is_landmark, root_index, root_id)


def batch_find_task(state, item):
    """Engine task for batch insertion Phase B: one multi-seed find.

    ``state`` is ``(graph, labelling)`` — the post-insertion graph and the
    pristine labelling; the work item is ``(r, seeds)`` as produced by the
    batch Phase A.  Returns the :class:`~repro.core.inchl.AffectedSearch`
    (small dicts, cheap to pickle back).
    """
    # Imported lazily to avoid a cycle (core.batch drives the engine).
    from repro.core.batch import find_affected_batch

    graph, labelling = state
    r, seeds = item
    return find_affected_batch(graph, labelling, r, seeds)


def csr_find_group_task(state, item):
    """Engine task for the mixed-batch find: one sweep over a landmark group.

    ``state`` is ``(dyn, dist, new_depth)`` — the post-batch
    :class:`DynCSR`, the dense ``rows x cap`` distance matrix and the
    new-depth scratch of the same shape, shared with workers via fork
    inheritance; the work item is ``(lo, hi, ins_edges, del_edges)``:
    the contiguous row range ``[lo, hi)`` and the batch as taken by
    :func:`csr_find_affected_mixed`.  Returns ``(levels, removed)`` with
    flat ids of the whole matrix.  In-process the sweep updates the
    shared rows and scratch directly; a worker's writes stay in its own
    copy, so the caller scatters pooled results back before repairing.
    """
    dyn, dist, new_depth = state
    lo, hi, ins_edges, del_edges = item
    levels, removed = csr_find_affected_mixed(
        dyn, dist[lo:hi], ins_edges, del_edges, new_depth[lo:hi]
    )
    offset = lo * dist.shape[1]
    if offset:
        levels = [
            level._replace(flat=level.flat + offset, nbrs=level.nbrs + offset)
            for level in levels
        ]
        removed = removed + offset
    return levels, removed
