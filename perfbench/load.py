"""The client side: one closed-loop reader of point queries and one
closed-loop writer.

Both speak the server's newline-delimited JSON protocol over their own
TCP connection.  The benchmark carries its own small client so that a
change to ``repro.serving.client`` cannot change what the benchmark
measures.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from time import perf_counter, sleep

import numpy as np


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct)) if values else 0.0


class Conn:
    """One blocking NDJSON connection."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self.sock.makefile("rb")

    def send(self, payload: dict) -> None:
        self.sock.sendall(json.dumps(payload).encode() + b"\n")

    def receive(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, payload: dict) -> dict:
        self.send(payload)
        return self.receive()

    def close(self) -> None:
        self._file.close()
        self.sock.close()


@dataclass
class ReadResult:
    #: Per answered request, seconds.
    latencies_s: list[float] = field(default_factory=list)
    #: ``(u, v, epoch, answer)`` per answered request.
    answers: list[tuple] = field(default_factory=list)
    requests: int = 0
    errors: int = 0
    elapsed_s: float = 0.0

    @property
    def pairs_per_s(self) -> float:
        return len(self.answers) / self.elapsed_s if self.elapsed_s else 0.0


def run_reader(
    conn: Conn,
    pairs: list[tuple[int, int]],
    first: int,
    requests: int,
    time_limit: float,
    min_epoch: int | None = None,
    on_request=None,
) -> ReadResult:
    """Closed loop of point queries: send the next only when the last one
    answered.

    The work is fixed: ``requests`` queries, from pair ``first`` on, so
    every run of a seed reads the same pairs.  The loop stops early only
    after ``time_limit`` seconds, on a host far slower than the workload
    was sized for.  With ``min_epoch`` each read demands that epoch
    (read-your-writes through a cluster router), and an answer from an
    older epoch counts as an error.  ``on_request``, if given, is called
    with ``(start, end)`` of every request (the traced run hangs its
    client spans on it).
    """
    out = ReadResult()
    n = len(pairs)
    start = perf_counter()
    deadline = start + time_limit
    for i in range(requests):
        if perf_counter() > deadline:
            break
        u, v = pairs[(first + i) % n]
        payload = {"op": "query", "u": u, "v": v}
        if min_epoch is not None:
            payload["min_epoch"] = min_epoch
        line = json.dumps(payload).encode() + b"\n"
        t0 = perf_counter()
        conn.sock.sendall(line)
        raw = conn._file.readline()
        t1 = perf_counter()
        if on_request is not None:
            on_request(t0, t1)
        out.requests += 1
        response = json.loads(raw) if raw else {}
        # A read below its min_epoch would miss an acknowledged write.
        if not response.get("ok") or response["epoch"] < (min_epoch or 0):
            out.errors += 1
            continue
        out.latencies_s.append(t1 - t0)
        out.answers.append((u, v, response["epoch"], response["distance"]))
    out.elapsed_s = perf_counter() - start
    return out


@dataclass
class WriteResult:
    #: Per visible batch: sent -> visible, seconds.
    visible_s: list[float] = field(default_factory=list)
    batches_offered: int = 0
    events_offered: int = 0
    events_visible: int = 0
    #: Events in batches that never became visible.
    errors: int = 0
    #: The last epoch the log acknowledged (cluster) or made visible.
    last_epoch: int = 0
    #: Per batch: when it was sent and when it was seen visible (``None``
    #: if never), as ``perf_counter`` stamps.
    submitted: list[float] = field(default_factory=list)
    seen: list = field(default_factory=list)
    #: First batch sent to last batch visible, seconds.
    span_s: float = 0.0


def visibility_probe(cluster: bool, epoch: int, vertex: int) -> dict:
    """The request that returns once a write up to ``epoch`` is readable:
    the ``snapshot`` op on a single node, a ``min_epoch`` read through a
    cluster router."""
    if cluster:
        return {"op": "query", "u": vertex, "v": vertex, "min_epoch": epoch}
    return {"op": "snapshot"}


def run_writer(
    conn: Conn,
    events: list[tuple[str, int, int]],
    base_epoch: int,
    batch: int,
    time_limit: float,
    cluster: bool,
) -> WriteResult:
    """Closed loop: send ``events`` in batches, each once the one before it
    is visible.

    Each batch is one ``updates`` request followed, on the same
    connection, by its visibility probe; its visibility runs from the
    send.  All of ``events`` are sent unless ``time_limit`` seconds pass
    first, on a host far slower than the workload was sized for.
    """
    out = WriteResult(last_epoch=base_epoch)
    deadline = perf_counter() + time_limit
    for i in range(len(events) // batch):
        if perf_counter() > deadline:
            break
        chunk = events[i * batch : (i + 1) * batch]
        epoch = base_epoch + (i + 1) * batch
        probe = visibility_probe(cluster, epoch, chunk[0][1])
        sent = perf_counter()
        out.submitted.append(sent)
        out.seen.append(None)
        conn.send({"op": "updates", "events": chunk})
        conn.send(probe)
        ack, seen = conn.receive(), conn.receive()
        if ack.get("ok"):
            # The router numbers events in log order; a different epoch
            # means another writer interleaved or events were lost, and
            # the replay check would be meaningless.
            if cluster and ack.get("epoch") != epoch:
                raise RuntimeError(f"update acked at epoch {ack.get('epoch')}, expected {epoch}")
            out.last_epoch = epoch
        if seen.get("ok") and (seen.get("epoch") or 0) >= epoch:
            out.seen[i] = perf_counter()
            out.visible_s.append(out.seen[i] - sent)
            out.events_visible += batch
    out.batches_offered = len(out.submitted)
    out.events_offered = out.batches_offered * batch
    # A batch never made visible (refused, or rejected) is a failed
    # operation for each of its events.
    out.errors = (out.batches_offered - len(out.visible_s)) * batch
    stamps = [t for t in out.seen if t is not None]
    if stamps:
        out.span_s = stamps[-1] - out.submitted[0]
    return out


def wait_for_line(path, marker: str, proc, timeout: float) -> str:
    """Poll a child's stdout file until a line containing ``marker``."""
    deadline = perf_counter() + timeout
    while perf_counter() < deadline:
        with open(path, encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if marker in line:
                    return line
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode} before ready")
        sleep(0.002)
    raise TimeoutError(f"no {marker!r} line within {timeout}s")
