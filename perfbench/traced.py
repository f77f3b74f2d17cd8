"""The traced run: the same traffic against a server started in-process,
with spans around calls into each layer's public functions.

Spans are recorded only by wrappers installed here (the program itself
is unchanged): each wrapper replaces a function at the name its caller
looks it up by, and records ``(id, parent, name, start, end, request)``
in memory.  The spans are written out when the run ends, and each
layer's self time (its spans' duration minus the part its child spans
cover) is reported in the run record.

The traced read pass runs between two untraced passes over the same
pairs on the same graph, and the throughput lost to tracing is reported
as ``tracing.overhead_frac``.  Cluster replicas are separate processes
spawned by the supervisor, so no wrapper runs inside them: on a cluster
workload the replica-side layer numbers come from the replica's public
``stats`` op, and the record says so.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import threading
from bisect import bisect_right
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

from workloads import (
    CHECK_PAIRS,
    CHECK_SAMPLES,
    DATASET,
    FSYNC,
    OVERRUN,
    WARMUP_EVENTS,
    WRITE_BATCH,
    Workload,
    check_labels,
    check_sample,
    make_run_inputs,
    plan,
    server_counts,
)

PER_LAYER_UNITS = {
    "serving.server.wire_us_per_req": "us",
    "serving.service.read_us_per_pair": "us",
    "core.query.join_us_per_pair": "us",
    "core.query.bound_exact_frac": "ratio",
    "graph.traversal.search_us_per_pair": "us",
    "graph.traversal.searches": "count",
    "serving.service.events_per_batch": "events",
    "serving.service.queue_wait_ms": "ms",
    "serving.service.writer_busy_frac": "ratio",
    "core.dynamic.apply_ms_per_batch": "ms",
    "core.dynamic.publish_ms": "ms",
    "parallel.sweeps.find_ms_per_batch": "ms",
    "parallel.sweeps.repair_ms_per_batch": "ms",
    "core.inchl_fast.affected_per_batch": "count",
    "core.inchl_fast.engine_warm_s": "s",
    "graph.dyncsr.compactions": "count",
    "graph.dyncsr.compact_ms_total": "ms",
    "cluster.wal.append_ms_per_batch": "ms",
    "cluster.wal.syncs": "count",
    "cluster.wal.bytes_per_event": "bytes",
    "cluster.router.read_overhead_us": "us",
    "core.construction_fast.build_s": "s",
    "utils.serialization.save_s": "s",
    "utils.serialization.load_s": "s",
    "tracing.overhead_frac": "ratio",
}


class Tracer:
    """In-memory spans from wrapped functions, plus per-call observers."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end, request]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: name -> [(span, args, kwargs, result)] for observed calls
        self.calls: dict[str, list] = defaultdict(list)

    def wrap(self, owner, attr: str, name: str, observe: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        spans, ids, local, calls = self.spans, self._ids, self._local, self.calls

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = [span_id, parent, name, start, end, None]
                spans.append(span)
            if observe:
                calls[name].append((span, args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def client_span(self, name: str, start: float, end: float, request: str) -> list:
        span = [next(self._ids), None, name, start, end, request]
        self.spans.append(span)
        return span

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()


def write_spans(path: Path, spans) -> None:
    """One JSON object per span, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for span_id, parent, name, start, end, request in spans:
            handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "request": request}))
            handle.write("\n")


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def self_times(spans) -> dict[str, float]:
    """Per layer: total span time minus the time its child spans cover, s."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[layer_of(name)] += (end - start) - covered
    return dict(out)


def link_reads(tracer: Tracer, requests: list[list]) -> None:
    """Hang each top-level server-side read span under the client request
    whose window contains its start: the reader is a closed loop on one
    connection, so at most one request is ever outstanding."""
    starts = [r[3] for r in requests]
    for span in tracer.spans:
        if span[1] is None and span[2] == "serving.service.query":
            i = bisect_right(starts, span[3]) - 1
            if i >= 0 and span[3] <= requests[i][4]:
                span[1], span[5] = requests[i][0], requests[i][5]


def applied_batches(tracer: Tracer) -> list[tuple[list, list[int]]]:
    """Each apply span with the submitted bursts it drew events from, in
    order: the writer takes events from its queue first in, first out."""
    sizes = [len(args[1]) for _, args, _, _ in tracer.calls["serving.service.submit_many"]]
    applies = sorted(((span, _events_in(span[2], args)) for name in APPLY_NAMES
                      for span, args, _, _ in tracer.calls[name]), key=lambda a: a[0][3])
    out = []
    i = taken = 0
    for span, count in applies:
        drawn = []
        while count > 0 and i < len(sizes):
            drawn.append(i)
            step = min(count, sizes[i] - taken)
            count -= step
            taken += step
            if taken == sizes[i]:
                i, taken = i + 1, 0
        out.append((span, drawn))
    return out


def link_writes(tracer: Tracer, batches: list[list]) -> None:
    """Hang the server-side spans of each write under its client batch: the
    bursts (``submit_many`` on a node, the WAL append behind a router) in
    send order, each apply under the first burst it drew from, and each
    publish under the apply before it."""
    bursts = (tracer.calls["serving.service.submit_many"]
              or tracer.calls["cluster.wal.append_events"])
    for (span, _, _, _), batch in zip(bursts, batches):
        span[1], span[5] = batch[0], batch[5]
    owner = {span[0]: batches[drawn[0]] for span, drawn in applied_batches(tracer)
             if drawn and drawn[0] < len(batches)}
    last = None
    for span in sorted(tracer.spans, key=lambda s: s[3]):
        if span[1] is not None:
            continue
        if span[0] in owner:
            last = owner[span[0]]
        elif span[2] != "core.dynamic.snapshot" or last is None:
            continue
        span[1], span[5] = last[0], last[5]


def install_setup_patches(tracer: Tracer) -> None:
    import repro.core.construction_fast as construction_fast
    import repro.utils.serialization as serialization
    from repro.core.dynamic import DynamicHCL

    tracer.wrap(construction_fast, "build_hcl_fast", "core.construction_fast.build_hcl_fast")
    tracer.wrap(serialization, "save_oracle", "utils.serialization.save_oracle")
    tracer.wrap(serialization, "load_oracle", "utils.serialization.load_oracle")
    for method in ("apply_events_batch", "insert_edges_batch", "insert_edge"):
        tracer.wrap(DynamicHCL, method, f"core.dynamic.{method}", observe=True)


def install_runtime_patches(tracer: Tracer) -> None:
    import repro.core.inchl_fast as inchl_fast
    import repro.core.query as query
    import repro.parallel.sweeps as sweeps
    from repro.cluster.wal import UpdateLog
    from repro.core.dynamic import DynamicHCL
    from repro.graph.dyncsr import DynCSR
    from repro.serving.service import OracleService

    tracer.wrap(OracleService, "query", "serving.service.query")
    tracer.wrap(OracleService, "submit_many", "serving.service.submit_many", observe=True)
    # core.query looks these up in its own namespace.
    tracer.wrap(query, "upper_bound", "core.query.upper_bound")
    tracer.wrap(query, "landmark_distance", "core.query.landmark_distance")
    tracer.wrap(query, "bidirectional_bfs", "graph.traversal.bidirectional_bfs",
                observe=True)
    for method in ("apply_events_batch", "insert_edges_batch", "insert_edge"):
        tracer.wrap(DynamicHCL, method, f"core.dynamic.{method}", observe=True)
    tracer.wrap(DynamicHCL, "snapshot", "core.dynamic.snapshot")
    # The find kernels run inside the sweep tasks of parallel.sweeps; the
    # repair kernels are called from core.inchl_fast.
    tracer.wrap(sweeps, "csr_find_affected_mixed", "parallel.sweeps.csr_find_affected_mixed")
    tracer.wrap(sweeps, "csr_find_affected", "parallel.sweeps.csr_find_affected")
    tracer.wrap(inchl_fast, "csr_find_affected", "parallel.sweeps.csr_find_affected")
    tracer.wrap(inchl_fast, "csr_batch_repair_mixed", "parallel.sweeps.csr_batch_repair_mixed")
    tracer.wrap(inchl_fast, "csr_repair_affected", "parallel.sweeps.csr_repair_affected")
    tracer.wrap(DynCSR, "compact", "graph.dyncsr.compact")
    tracer.wrap(UpdateLog, "append_events", "cluster.wal.append_events", observe=True)
    tracer.wrap(UpdateLog, "sync", "cluster.wal.sync")


def _total(tracer: Tracer, *names: str) -> float:
    return sum(s[4] - s[3] for s in tracer.spans if s[2] in names)


def _count(tracer: Tracer, *names: str) -> int:
    return sum(1 for s in tracer.spans if s[2] in names)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


APPLY_NAMES = ("core.dynamic.apply_events_batch", "core.dynamic.insert_edges_batch",
               "core.dynamic.insert_edge")


def read_metrics(tracer: Tracer, reads) -> dict:
    pairs = len(reads.answers)
    service = _total(tracer, "serving.service.query")
    client = sum(reads.latencies_s)
    searches = tracer.calls["graph.traversal.bidirectional_bfs"]
    not_beaten = sum(1 for _, _, kwargs, result in searches
                     if result >= kwargs.get("bound", float("inf")))
    return {
        "serving.server.wire_us_per_req": _ratio(client - service, reads.requests) * 1e6,
        "serving.service.read_us_per_pair": _ratio(service, pairs) * 1e6,
        "core.query.join_us_per_pair": _ratio(
            _total(tracer, "core.query.upper_bound", "core.query.landmark_distance"), pairs) * 1e6,
        "core.query.bound_exact_frac": _ratio(not_beaten, len(searches)),
        "graph.traversal.search_us_per_pair": _ratio(
            _total(tracer, "graph.traversal.bidirectional_bfs"), pairs) * 1e6,
        "graph.traversal.searches": len(searches),
    }


def queue_waits(tracer: Tracer) -> list[float]:
    """Per submitted burst: its submit to the start of the apply that
    takes its first event."""
    submits = tracer.calls["serving.service.submit_many"]
    waits = []
    seen = set()
    for span, drawn in applied_batches(tracer):
        for i in drawn:
            if i not in seen:
                seen.add(i)
                waits.append(span[3] - submits[i][0][4])
    return waits


def _events_in(name: str, args) -> int:
    if name.endswith("insert_edge"):
        return 1
    return len(args[1])


def write_metrics(tracer: Tracer, wall_s: float, warm_first_s: float | None) -> dict:
    applies = [(span, args, result) for name in APPLY_NAMES
               for span, args, _, result in tracer.calls[name]]
    n = len(applies)
    apply_s = sum(span[4] - span[3] for span, _, _ in applies)
    publish_s = _total(tracer, "core.dynamic.snapshot")
    steady = median(span[4] - span[3] for span, _, _ in applies) if applies else 0.0
    waits = queue_waits(tracer)
    events = sum(_events_in(span[2], args) for span, args, _ in applies)
    return {
        "serving.service.events_per_batch": _ratio(events, n),
        "serving.service.queue_wait_ms": _ratio(sum(waits), len(waits)) * 1e3,
        "serving.service.writer_busy_frac": _ratio(apply_s + publish_s, wall_s),
        "core.dynamic.apply_ms_per_batch": _ratio(apply_s, n) * 1e3,
        "core.dynamic.publish_ms": _ratio(publish_s, n) * 1e3,
        "parallel.sweeps.find_ms_per_batch": _ratio(_total(
            tracer, "parallel.sweeps.csr_find_affected_mixed",
            "parallel.sweeps.csr_find_affected"), n) * 1e3,
        "parallel.sweeps.repair_ms_per_batch": _ratio(_total(
            tracer, "parallel.sweeps.csr_batch_repair_mixed",
            "parallel.sweeps.csr_repair_affected"), n) * 1e3,
        "core.inchl_fast.affected_per_batch": _ratio(
            sum(getattr(r, "affected_union", 0) for _, _, r in applies), n),
        "core.inchl_fast.engine_warm_s": (warm_first_s - steady) if warm_first_s else 0.0,
        "graph.dyncsr.compactions": _count(tracer, "graph.dyncsr.compact"),
        "graph.dyncsr.compact_ms_total": _total(tracer, "graph.dyncsr.compact") * 1e3,
    }


def wal_metrics(tracer: Tracer, log) -> dict:
    appends = tracer.calls["cluster.wal.append_events"]
    stats = log.stats()
    return {
        "cluster.wal.append_ms_per_batch": _ratio(
            sum(span[4] - span[3] for span, _, _, _ in appends), len(appends)) * 1e3,
        "cluster.wal.syncs": _count(tracer, "cluster.wal.sync"),
        "cluster.wal.bytes_per_event": _ratio(stats.get("bytes", 0), stats.get("head", 0)),
    }


def replica_metrics(stats: dict) -> dict:
    """Replica-side layer numbers from the router's ``stats`` op."""
    (replica,) = [r["service"] for r in stats["replicas"].values() if "service" in r]
    phases = replica.get("phases", {})

    def per_batch(phase: str) -> float:
        entry = phases.get(phase) or {}
        return _ratio(entry.get("total", 0.0), entry.get("count", 0))

    batches = (phases.get("apply") or {}).get("count", 0)
    aff = replica.get("aff") or {}
    return {
        "serving.service.read_us_per_pair": (replica["queries"].get("mean_ms") or 0.0) * 1e3,
        "serving.service.events_per_batch": _ratio(replica.get("events_applied", 0), batches),
        "core.dynamic.apply_ms_per_batch": per_batch("apply"),
        "core.dynamic.publish_ms": per_batch("publish"),
        "parallel.sweeps.find_ms_per_batch": per_batch("find"),
        "parallel.sweeps.repair_ms_per_batch": per_batch("repair"),
        "core.inchl_fast.affected_per_batch": _ratio(aff.get("total", 0), aff.get("count", 0)),
    }


def _setup_metrics(tracer: Tracer) -> dict:
    return {
        "core.construction_fast.build_s": _total(tracer, "core.construction_fast.build_hcl_fast"),
        "utils.serialization.save_s": _total(tracer, "utils.serialization.save_oracle"),
        "utils.serialization.load_s": _total(tracer, "utils.serialization.load_oracle"),
    }


def _warm_up(address, warmup, probe_pair, cluster: bool) -> None:
    from load import Conn, visibility_probe

    conn = Conn(*address)
    try:
        for payload in ({"op": "updates", "events": warmup},
                        visibility_probe(cluster, len(warmup), warmup[0][1]),
                        {"op": "query", "u": probe_pair[0], "v": probe_pair[1]}):
            response = conn.request(payload)
            if not response.get("ok"):
                raise RuntimeError(f"warm-up failed: {response}")
    finally:
        conn.close()


def _build(oracle: Path, edge_list: Path, landmarks: int) -> None:
    """``repro build --csr``, in-process, through the CLI entry point."""
    from repro.cli import main as repro_main

    with contextlib.redirect_stdout(io.StringIO()):
        code = repro_main(["build", str(edge_list), "-o", str(oracle),
                           "--landmarks", str(landmarks), "--csr"])
    if code != 0:
        raise RuntimeError(f"repro build exited {code}")


def _start(oracle: Path, workdir: Path, cluster: bool):
    """Start ``repro serve`` or ``repro serve-cluster --replicas 1`` on a
    thread of this process, with the command-line defaults; returns the
    running object (``stop_thread`` stops it) and the front door's address."""
    if cluster:
        from repro.cluster.supervisor import ClusterSupervisor

        supervisor = ClusterSupervisor(oracle, cluster_dir=workdir / "cluster", replicas=1,
                                       port=0, fsync=FSYNC)
        return supervisor, supervisor.start_in_thread()
    from repro.serving.server import OracleServer

    server = OracleServer.from_file(oracle, port=0)
    return server, server.start_in_thread()


def _p50_ms(reads) -> float:
    from load import percentile

    return percentile(reads.latencies_s, 50) * 1e3


def _pairs_per_s(reads) -> float:
    return reads.pairs_per_s


def _stats(address) -> dict:
    from load import Conn

    conn = Conn(*address)
    try:
        return conn.request({"op": "stats"})["stats"]
    finally:
        conn.close()


def run_traced(name: str, workload: Workload, seed: int, seconds: float, workdir: Path,
               scale: float = 1.0) -> tuple[dict, dict]:
    """Set up in-process, then measure on one server: an untraced, a traced
    and an untraced read pass over the same pairs, all on the graph as set
    up, then a traced write phase, then the check reads.

    Reads leave the graph as it is, so the three passes do the same work,
    and the tracing overhead is the traced pass against the mean of the
    untraced passes either side of it.  On a cluster workload a single
    in-process node first serves the same read pass, untraced, as the
    reference for the router's read overhead.
    """
    from load import Conn, run_reader, run_writer

    requests, count, read_s, write_s = plan(workload, seconds / 2)
    inputs = make_run_inputs(workload, seed, count, scale=scale)
    edge_list = workdir / "edges.txt"
    inputs.write_edge_list(edge_list)
    pairs, events = inputs.pairs, inputs.events
    warmup = events[:WARMUP_EVENTS]
    probe = pairs[-1]
    oracle = workdir / "oracle.json"
    min_epoch = WARMUP_EVENTS if workload.cluster else None
    metrics: dict[str, float] = {}
    record: dict = {}
    reads: list = []
    tracer = Tracer()

    def read_pass(conn, on_request=None, first=0, n=requests, at=min_epoch):
        reads.append(run_reader(conn, pairs, first, n,
                                OVERRUN * read_s, min_epoch=at, on_request=on_request))
        return reads[-1]

    install_setup_patches(tracer)
    try:
        _build(oracle, edge_list, inputs.num_landmarks)
        if workload.cluster:
            node, address = _start(oracle, workdir, cluster=False)
            try:
                _warm_up(address, warmup, probe, cluster=False)
                conn = Conn(*address)
                try:
                    single = read_pass(conn, at=None)
                finally:
                    conn.close()
            finally:
                node.stop_thread()
        front, address = _start(oracle, workdir, workload.cluster)
        try:
            _warm_up(address, warmup, probe, workload.cluster)
            metrics.update(_setup_metrics(tracer))
            firsts = sorted((span[3], span[4]) for n in APPLY_NAMES
                            for span, _, _, _ in tracer.calls[n])
            warm_first = firsts[0][1] - firsts[0][0] if firsts else None
            tracer.restore()
            setup_spans = list(tracer.spans)
            tracer.reset()

            client_reads: list[list] = []

            def on_request(start: float, end: float) -> None:
                client_reads.append(tracer.client_span("client.read.request", start, end,
                                                       f"r{len(client_reads)}"))

            conn_r, conn_w = Conn(*address), Conn(*address)
            try:
                before = read_pass(conn_r)
                install_runtime_patches(tracer)
                traced = read_pass(conn_r, on_request)
                tracer.restore()
                after = read_pass(conn_r)
                install_runtime_patches(tracer)
                started = perf_counter()
                writes = run_writer(conn_w, events[WARMUP_EVENTS:WARMUP_EVENTS + count],
                                    WARMUP_EVENTS, WRITE_BATCH, OVERRUN * write_s,
                                    workload.cluster)
                wall = perf_counter() - started
                tracer.restore()
                checks = read_pass(conn_r, first=requests, n=CHECK_PAIRS,
                                   at=writes.last_epoch if workload.cluster else None)
                label_entries, rejected = server_counts(conn_w, workload.cluster)
            finally:
                conn_r.close()
                conn_w.close()
            stats = _stats(address) if workload.cluster else None
        finally:
            front.stop_thread()
    finally:
        tracer.restore()
    link_reads(tracer, client_reads)
    batches = [tracer.client_span("client.write.batch", sent, seen or sent, f"w{i}")
               for i, (sent, seen) in enumerate(zip(writes.submitted, writes.seen))]
    link_writes(tracer, batches)
    if workload.cluster:
        replica = replica_metrics(stats)
        metrics.update(replica)
        metrics.update(wal_metrics(tracer, front.log))
        metrics["cluster.router.read_overhead_us"] = (_p50_ms(before) - _p50_ms(single)) * 1e3
        record["sources"] = {"replica stats op": sorted(replica)}
    else:
        metrics.update(read_metrics(tracer, traced))
        metrics.update(write_metrics(tracer, wall, warm_first))
    untraced = (_pairs_per_s(before) + _pairs_per_s(after)) / 2
    metrics["tracing.overhead_frac"] = 1.0 - _ratio(_pairs_per_s(traced), untraced)
    # The result line names every per-layer metric; one this workload
    # cannot observe prints as 0 and is listed here.
    record["not_measured"] = sorted(set(PER_LAYER_UNITS) - set(metrics))
    for key in record["not_measured"]:
        metrics[key] = 0.0
    write_spans(workdir / "spans.ndjson", setup_spans + tracer.spans)
    answers = [a for r in reads if r is not checks for a in r.answers]
    bad = check_sample(inputs, answers, checks.answers, seed)
    bad += check_labels(inputs, [label_entries], [writes.last_epoch])
    attempted = sum(r.requests for r in reads) + writes.events_offered
    failed = sum(r.errors for r in reads) + writes.errors + rejected + len(bad)
    record.update({
        "workload": name,
        "dataset": DATASET,
        "num_vertices": len(inputs.vertices),
        "num_edges": len(inputs.edges),
        "num_landmarks": inputs.num_landmarks,
        "seed": seed,
        "seconds": seconds,
        "read_pass_requests": requests,
        "write_events": count,
        "fsync": FSYNC if workload.cluster else None,
        "self_ms_total": {layer: total * 1e3
                          for layer, total in sorted(self_times(tracer.spans).items())},
        "traced_read_requests": traced.requests,
        "traced_write_batches": len(writes.visible_s),
        "untraced_pairs_per_s": untraced,
        "traced_pairs_per_s": _pairs_per_s(traced),
        "checked_answers": min(len(answers), CHECK_SAMPLES) + len(checks.answers),
        "checked_after_writes": len(checks.answers),
        "mismatches": bad[:5],
        "events_rejected": rejected,
    })
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, record
