"""Shared test fixtures and reference implementations.

The helpers here are deliberately *independent* of the library's fast
paths: brute-force BFS over plain dicts, exhaustive pair enumeration, and
seeded random graph builders.  Property tests compare the library against
these references.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import ensure_connected, erdos_renyi

INF = float("inf")


# ---------------------------------------------------------------------------
# Reference implementations (kept separate from library code on purpose)
# ---------------------------------------------------------------------------
def reference_bfs(graph: DynamicGraph, source: int) -> dict[int, int]:
    """Deque-based BFS, structurally different from the library's BFS."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def reference_distance(graph: DynamicGraph, u: int, v: int) -> float:
    """Exact distance via reference BFS."""
    return reference_bfs(graph, u).get(v, INF)


def reference_distance_avoiding(
    graph: DynamicGraph, u: int, v: int, skip
) -> float:
    """Exact ``u``–``v`` distance over paths whose *interiors* avoid
    ``skip``; the endpoints themselves may be in ``skip``.

    Deque BFS from ``u`` that records every vertex it reaches but never
    expands a ``skip`` vertex other than ``u``.
    """
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x != u and x in skip:
            continue
        for w in graph.neighbors(x):
            if w not in dist:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist.get(v, INF)


def all_pairs_distances(graph: DynamicGraph) -> dict[int, dict[int, int]]:
    """Full APSP table (small graphs only)."""
    return {v: reference_bfs(graph, v) for v in graph.vertices()}


def non_edges(graph: DynamicGraph) -> list[tuple[int, int]]:
    """All vertex pairs that are not edges (small graphs only)."""
    vertices = sorted(graph.vertices())
    return [
        (u, v)
        for i, u in enumerate(vertices)
        for v in vertices[i + 1 :]
        if not graph.has_edge(u, v)
    ]


def random_connected_graph(
    seed: int, n_min: int = 5, n_max: int = 30, density: float = 2.0
) -> DynamicGraph:
    """Seeded connected random graph for deterministic test cases."""
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    max_edges = n * (n - 1) // 2
    m = min(max_edges, max(n - 1, int(n * density)))
    graph = erdos_renyi(n, m, rng=rng)
    return ensure_connected(graph, rng=rng)


# ---------------------------------------------------------------------------
# Perf summary (bench-smoke rows surfaced at the end of the run)
# ---------------------------------------------------------------------------
#: Rows recorded via the ``perf_record`` fixture; the terminal-summary
#: hook prints them so a plain ``pytest -q`` run still surfaces the
#: serving qps/p99 numbers CI watches.
_PERF_ROWS: list[dict] = []

#: Bench-vs-baseline findings recorded via ``bench_delta_record`` (the
#: ``perf``-marked gate tests); printed as a delta table at the end.
_BENCH_DELTAS: list[dict] = []


@pytest.fixture
def perf_record():
    """A callable tests use to report perf rows (qps, p99, ...)."""
    return _PERF_ROWS.append


@pytest.fixture
def bench_delta_record():
    """A callable the perf-gate tests use to report bench-vs-baseline
    findings (:mod:`repro.bench.compare` dicts)."""
    return _BENCH_DELTAS.extend


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _PERF_ROWS:
        terminalreporter.section("perf summary (recorded by tests)")
        for row in _PERF_ROWS:
            parts = [f"{k}={v}" for k, v in row.items()]
            terminalreporter.write_line("  " + "  ".join(parts))
    if _BENCH_DELTAS:
        from repro.bench.compare import render_report

        terminalreporter.section("bench vs committed baselines")
        terminalreporter.write_line(render_report(_BENCH_DELTAS))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def path_graph() -> DynamicGraph:
    """0 - 1 - 2 - 3 - 4."""
    return DynamicGraph.from_edges([(i, i + 1) for i in range(4)])


#: Landmarks of the paper's Figure 2 example.
FIGURE2_LANDMARKS = [0, 4, 10]

#: Edge inserted in Examples 4.2/4.5/4.7.
FIGURE2_INSERTION = (2, 5)


@pytest.fixture
def paper_figure2_graph() -> DynamicGraph:
    """A 16-vertex graph reproducing the paper's Figure 2 example exactly.

    The paper's figure layout is not machine-readable, so this graph is
    *reconstructed from the worked examples*: with landmarks 0, 4, 10 and
    the insertion (2, 5), it yields the paper's affected sets
    ``Λ_0 = {5, 8, 9, 10, 13, 14}``, ``Λ_10 = {0, 1, 2}``, ``Λ_4 = ∅``
    (Example 4.2), repairs exactly {5, 9} plus the highway entry for 10
    with {8, 13, 14} covered (Example 4.7, landmark 0), and repairs
    {2} plus the highway entry for 0 with 1 covered (landmark 10).
    """
    edges = [
        (0, 1), (0, 2), (0, 3), (2, 4), (3, 12), (4, 5), (4, 6), (4, 7),
        (4, 12), (5, 9), (5, 10), (7, 11), (8, 9), (8, 10), (10, 13),
        (10, 14), (10, 15), (11, 15), (12, 15), (13, 14),
    ]
    return DynamicGraph.from_edges(edges, num_vertices=16)
