#!/usr/bin/env python3
"""Stateful fuzz harness for the dynamic oracle and the serving layer.

Generates random op sequences (single insert, batch insert, delete,
delete-of-absent-edge, re-insert-after-delete, mixed insert/delete
batch, landmark promotion) from a seeded RNG, applies them to a
``DynamicHCL`` on the **fast** path while mirroring them on the
sequential reference, and cross-checks after every op:

* fast labelling == sequential labelling (byte-identity);
* sampled distance queries == BFS ground truth;
* the labelling equals a from-scratch minimal rebuild at the end.

Every round also replays the same insert/delete ops through an
``OracleService`` (writer thread, coalesced batches, snapshot
publication) and verifies the served answers against BFS, the served
labelling against the reference labelling of the same ops, and that
every submitted event was either applied or rejected.

On failure the harness **shrinks** the op sequence: it repeatedly tries
dropping ops (largest chunks first, ddmin-style) while the failure
reproduces, then prints the minimal failing sequence as a ready-to-paste
repro.  Exit status is non-zero if any round failed.

Usage::

    PYTHONPATH=src python tools/fuzz_updates.py --rounds 20 --seed 7
    PYTHONPATH=src python tools/fuzz_updates.py --replay '<json op list>' --seed 7

CI runs this nightly (see .github/workflows/nightly-fuzz.yml).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.core.dynamic import DynamicHCL
from repro.core.construction import build_hcl
from repro.exceptions import EdgeNotFoundError
from repro.graph.traversal import bfs_distances
from repro.landmarks.selection import top_degree_landmarks
from repro.serving.service import OracleService
from repro.workloads.streams import UpdateEvent

sys.path.insert(0, ".")  # make tests.proptest importable from the repo root
from tests.proptest.strategies import (  # noqa: E402
    insertion_stream,
    mixed_event_stream,
    random_graph,
)

# An op is a JSON-friendly list: ["insert", u, v] | ["batch", [[u, v], ...]]
# | ["delete", u, v] | ["mixed", [["insert"|"delete", u, v], ...]]
# | ["landmark", v].  A "delete" whose edge is absent when the op runs is
# *intentional*: both engines must reject it cleanly (no state change),
# mirroring what a wire client can send the serving layer.


class FuzzFailure(AssertionError):
    """Raised (with context) when an invariant breaks mid-sequence."""


def generate_ops(graph, rng: random.Random, count: int) -> list:
    """A random applicable op sequence against a simulation of ``graph``."""
    sim = graph.copy()
    ops: list = []
    landmark_budget = 2
    while len(ops) < count:
        roll = rng.random()
        if roll < 0.35:
            stream = insertion_stream(sim, 1, rng)
            if not stream:
                break
            (u, v) = stream[0]
            sim.add_edge(u, v)
            ops.append(["insert", u, v])
        elif roll < 0.55:
            stream = insertion_stream(sim, rng.randint(2, 6), rng)
            if not stream:
                break
            for u, v in stream:
                sim.add_edge(u, v)
            ops.append(["batch", [list(e) for e in stream]])
        elif roll < 0.72:
            if sim.num_edges <= sim.num_vertices:
                continue
            edges = list(sim.edges())
            u, v = edges[rng.randrange(len(edges))]
            sim.remove_edge(u, v)
            ops.append(["delete", u, v])
            if rng.random() < 0.3:
                # Re-insert-after-delete: the engine must rebuild exactly
                # the entries the deletion dropped.
                sim.add_edge(u, v)
                ops.append(["insert", u, v])
        elif roll < 0.78:
            # Delete of a *non-existent* edge: both engines must reject it
            # with no side effects.  The sim is not mutated, so the edge is
            # guaranteed absent at replay time too.
            stream = insertion_stream(sim, 1, rng)
            if not stream:
                break
            ops.append(["delete", stream[0][0], stream[0][1]])
        elif roll < 0.92:
            events = mixed_event_stream(sim, rng.randint(2, 6), rng)
            if not events:
                continue
            for kind, (u, v) in events:
                if kind == "insert":
                    sim.add_edge(u, v)
                else:
                    sim.remove_edge(u, v)
            ops.append(["mixed", [[kind, u, v] for kind, (u, v) in events]])
        else:
            if landmark_budget == 0:
                continue
            landmark_budget -= 1
            vertices = sorted(sim.vertices())
            ops.append(["landmark", vertices[rng.randrange(len(vertices))]])
    return ops


def _applicable(graph, landmarks: set, op) -> bool:
    kind = op[0]
    if kind == "insert":
        _, u, v = op
        return graph.has_vertex(u) and graph.has_vertex(v) and not graph.has_edge(u, v)
    if kind == "batch":
        seen = set()
        for u, v in op[1]:
            key = (u, v) if u < v else (v, u)
            if (
                not graph.has_vertex(u)
                or not graph.has_vertex(v)
                or graph.has_edge(u, v)
                or key in seen
            ):
                return False
            seen.add(key)
        return True
    if kind == "delete":
        # Applicable whenever the endpoints exist: a present edge is
        # deleted, an absent one exercises the clean-rejection path.
        _, u, v = op
        return graph.has_vertex(u) and graph.has_vertex(v)
    if kind == "mixed":
        # Sequentially valid w.r.t. the state its own prefix produces.
        state: dict = {}
        for evkind, u, v in op[1]:
            if not graph.has_vertex(u) or not graph.has_vertex(v) or u == v:
                return False
            key = (u, v) if u < v else (v, u)
            present = state[key] if key in state else graph.has_edge(u, v)
            if evkind == "insert":
                if present:
                    return False
                state[key] = True
            elif evkind == "delete":
                if not present:
                    return False
                state[key] = False
            else:
                return False
        return bool(op[1])
    if kind == "landmark":
        return graph.has_vertex(op[1]) and op[1] not in landmarks
    raise ValueError(f"unknown op {op!r}")


def run_sequence(base_graph, landmarks, ops, rng_seed: int, query_samples: int = 8):
    """Apply ``ops`` on fast + reference oracles; raise FuzzFailure on any
    divergence.  Inapplicable ops (possible after shrinking) are skipped.
    Returns the reference oracle."""
    rng = random.Random(rng_seed)
    fast = DynamicHCL.build(base_graph.copy(), landmarks=list(landmarks),
                            fast_updates=True)
    ref = DynamicHCL.build(base_graph.copy(), landmarks=list(landmarks))
    for step, op in enumerate(ops):
        if not _applicable(fast.graph, set(fast.landmarks), op):
            continue
        kind = op[0]
        if kind == "insert":
            fast.insert_edge(op[1], op[2])
            ref.insert_edge(op[1], op[2])
        elif kind == "batch":
            edges = [tuple(e) for e in op[1]]
            fast.insert_edges_batch(edges)
            ref.insert_edges_batch(edges)
        elif kind == "delete":
            if fast.graph.has_edge(op[1], op[2]):
                fast.remove_edge(op[1], op[2])
                ref.remove_edge(op[1], op[2])
            else:
                # Delete of a non-existent edge: both routes must raise
                # EdgeNotFoundError before touching anything, leaving
                # graph, labelling and version as they were.
                for oracle in (fast, ref):
                    edges_before = oracle.graph.num_edges
                    version_before = oracle.version
                    try:
                        oracle.remove_edge(op[1], op[2])
                    except EdgeNotFoundError:
                        pass
                    else:
                        raise FuzzFailure(
                            f"absent-edge delete did not raise at step "
                            f"{step}: {op}"
                        )
                    if oracle.graph.num_edges != edges_before:
                        raise FuzzFailure(
                            f"absent-edge delete mutated the graph at step "
                            f"{step}: {op}"
                        )
                    if oracle.version != version_before:
                        raise FuzzFailure(
                            f"absent-edge delete moved the version at step "
                            f"{step}: {op}"
                        )
        elif kind == "mixed":
            events = [(evkind, (u, v)) for evkind, u, v in op[1]]
            fast.apply_events_batch(events, fast=True)
            ref.apply_events_batch(events, fast=False)
        elif kind == "landmark":
            fast.add_landmark(op[1])
            ref.add_landmark(op[1])
        if fast.labelling != ref.labelling:
            raise FuzzFailure(f"fast != sequential after step {step}: {op}")
        vertices = sorted(fast.graph.vertices())
        for _ in range(query_samples):
            u, v = rng.sample(vertices, 2)
            expected = bfs_distances(fast.graph, u).get(v, float("inf"))
            got = fast.query(u, v)
            if got != expected:
                raise FuzzFailure(
                    f"query({u}, {v}) = {got} != BFS {expected} after step "
                    f"{step}: {op}"
                )
    rebuilt = build_hcl(fast.graph, fast.landmarks)
    if fast.labelling != rebuilt:
        raise FuzzFailure("final labelling differs from from-scratch rebuild")
    return ref


def run_service_sequence(base_graph, landmarks, ops, query_samples: int = 12):
    """Replay insert/delete ops through OracleService; verify served
    answers, the final labelling against :func:`run_sequence`'s reference
    for the same ops, and the applied + rejected event count."""
    edge_ops = [op for op in ops if op[0] != "landmark"]
    reference = run_sequence(
        base_graph, landmarks, edge_ops, rng_seed=0, query_samples=0
    )
    oracle = DynamicHCL.build(base_graph.copy(), landmarks=list(landmarks))
    events = []
    for op in edge_ops:
        if op[0] == "insert":
            events.append(UpdateEvent("insert", (op[1], op[2])))
        elif op[0] == "batch":
            events.extend(UpdateEvent("insert", tuple(e)) for e in op[1])
        elif op[0] == "delete":
            # Absent-edge deletes ride along: the service must *reject*
            # them (count only) rather than degrade or desync.
            events.append(UpdateEvent("delete", (op[1], op[2])))
        elif op[0] == "mixed":
            events.extend(
                UpdateEvent(evkind, (u, v)) for evkind, u, v in op[1]
            )
    rng = random.Random(0xC0FFEE)
    with OracleService(oracle) as service:
        for event in events:
            service.submit(event)
        service.flush()
        if service.degraded is not None:
            raise FuzzFailure(f"service degraded: {service.degraded}")
        stats = service.stats()
        if stats["events_applied"] + stats["events_rejected"] != len(events):
            raise FuzzFailure(
                f"service applied {stats['events_applied']} + rejected "
                f"{stats['events_rejected']} of {len(events)} events"
            )
        if oracle.labelling != reference.labelling:
            raise FuzzFailure("served labelling != reference labelling")
        snap = service.snapshot
        vertices = sorted(oracle.graph.vertices())
        for _ in range(query_samples):
            u, v = rng.sample(vertices, 2)
            expected = bfs_distances(oracle.graph, u).get(v, float("inf"))
            got = service.query(u, v, snapshot=snap)
            if got != expected:
                raise FuzzFailure(
                    f"served query({u}, {v}) = {got} != BFS {expected}"
                )


def shrink(base_graph, landmarks, ops, rng_seed: int) -> list:
    """ddmin-style: drop chunks (halves, then smaller) while it still fails."""

    def fails(candidate) -> bool:
        try:
            run_sequence(base_graph, landmarks, candidate, rng_seed)
        except FuzzFailure:
            return True
        return False

    current = list(ops)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        i = 0
        progressed = False
        while i < len(current):
            candidate = current[:i] + current[i + chunk :]
            if candidate and fails(candidate):
                current = candidate
                progressed = True
            else:
                i += chunk
        if not progressed:
            chunk //= 2
    return current


def fuzz_round(seed: int, ops_per_round: int, check_service: bool) -> bool:
    """One fuzz round; returns True on success, prints a repro on failure."""
    graph, rng = random_graph(seed, n_min=10, n_max=45)
    landmarks = top_degree_landmarks(graph, rng.randint(1, 6))
    ops = generate_ops(graph, rng, ops_per_round)
    try:
        run_sequence(graph, landmarks, ops, rng_seed=seed)
        if check_service:
            run_service_sequence(graph, landmarks, ops)
    except FuzzFailure as failure:
        minimal = shrink(graph, landmarks, ops, rng_seed=seed)
        print(f"FAIL seed={seed}: {failure}", file=sys.stderr)
        print(
            f"  minimal repro ({len(minimal)} of {len(ops)} ops):\n"
            f"  PYTHONPATH=src python tools/fuzz_updates.py "
            f"--seed {seed} --replay '{json.dumps(minimal)}'",
            file=sys.stderr,
        )
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=10,
                        help="number of independent fuzz rounds")
    parser.add_argument("--ops", type=int, default=25,
                        help="ops per round before shrinking")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed (default: time-derived)")
    parser.add_argument("--no-service", action="store_true",
                        help="skip the OracleService replay check")
    parser.add_argument("--replay", default=None, metavar="JSON",
                        help="replay a shrunk op sequence (with --seed)")
    args = parser.parse_args(argv)

    if args.replay is not None:
        if args.seed is None:
            parser.error("--replay requires --seed")
        graph, rng = random_graph(args.seed, n_min=10, n_max=45)
        landmarks = top_degree_landmarks(graph, rng.randint(1, 6))
        try:
            run_sequence(graph, landmarks, json.loads(args.replay), args.seed)
        except FuzzFailure as failure:
            print(f"reproduced: {failure}", file=sys.stderr)
            return 1
        print("replay passed (failure no longer reproduces)")
        return 0

    base_seed = args.seed if args.seed is not None else int(time.time())
    print(f"fuzzing {args.rounds} rounds x {args.ops} ops, base seed {base_seed}")
    failures = 0
    for i in range(args.rounds):
        seed = base_seed + i * 1009
        if not fuzz_round(seed, args.ops, check_service=not args.no_service):
            failures += 1
        else:
            print(f"  round {i} (seed {seed}): ok")
    if failures:
        print(f"{failures}/{args.rounds} rounds FAILED", file=sys.stderr)
        return 1
    print("all rounds passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
