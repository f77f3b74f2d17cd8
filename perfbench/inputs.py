"""Inputs: the dataset graph, and the read pairs and update stream drawn
from ``--seed``.

Everything the servers receive is made here, so one seed always gives the
same edge list, the same pairs and the same events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Inputs:
    """One workload's generated inputs."""

    dataset: str
    num_landmarks: int
    edges: list[tuple[int, int]]
    vertices: list[int]
    pairs: list[tuple[int, int]]
    #: The update stream; every sub-run applies it from ``edges``.
    events: list[tuple[str, int, int]]

    def write_edge_list(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{u} {v}\n" for u, v in self.edges)


def make_graph(dataset: str, scale: float = 1.0):
    """The dataset stand-in at the default profile (``scale`` < 1 shrinks
    it for self-tests).

    The graph is the same for every seed, as a real dataset would be: the
    seed varies the traffic, not the data.  The registry's own
    ``DatasetSpec.build`` seeds its generator from a string hash, which
    changes with every interpreter start, so the spec's builder is called
    with a fixed ``Random`` instead.
    """
    from repro.graph.generators import ensure_connected
    from repro.workloads.datasets import DATASETS

    spec = DATASETS[dataset]
    rng = random.Random(f"graph:{dataset}")
    n = max(64, int(spec.base_vertices * scale))
    graph = ensure_connected(spec.builder(n, rng), rng=rng)
    return spec, graph


def mixed_events(
    edges: list[tuple[int, int]],
    vertices: list[int],
    count: int,
    rng: random.Random,
    insert_ratio: float = 0.8,
) -> list[tuple[str, int, int]]:
    """An 80/20 insert/delete stream in which every event applies.

    Same distribution as ``repro.workloads.streams.mixed_stream`` (inserts
    join a uniform non-adjacent pair, deletes remove a uniform live
    edge), but deletions pick from a swap-remove list in O(1) instead of
    sorting the whole edge set per event, which takes minutes at
    ~200k edges.
    """
    live = [(u, v) if u < v else (v, u) for u, v in edges]
    where = {edge: i for i, edge in enumerate(live)}
    events: list[tuple[str, int, int]] = []
    while len(events) < count:
        if rng.random() < insert_ratio:
            u, v = rng.choice(vertices), rng.choice(vertices)
            edge = (u, v) if u < v else (v, u)
            if u == v or edge in where:
                continue
            where[edge] = len(live)
            live.append(edge)
            events.append(("insert", u, v))
        else:
            i = rng.randrange(len(live))
            edge = live[i]
            last = live.pop()
            if i < len(live):
                live[i] = last
                where[last] = i
            del where[edge]
            events.append(("delete", edge[0], edge[1]))
    return events


def make_inputs(
    dataset: str,
    seed: int,
    num_pairs: int,
    num_events: int,
    scale: float = 1.0,
) -> Inputs:
    spec, graph = make_graph(dataset, scale)
    vertices = sorted(graph.vertices())
    edges = sorted(graph.edges())
    pair_rng = random.Random(f"{seed}:pairs")
    pairs = [
        (pair_rng.choice(vertices), pair_rng.choice(vertices))
        for _ in range(num_pairs)
    ]
    return Inputs(
        dataset=dataset,
        num_landmarks=spec.num_landmarks,
        edges=edges,
        vertices=vertices,
        pairs=pairs,
        events=mixed_events(edges, vertices, num_events, random.Random(f"{seed}:events")),
    )
