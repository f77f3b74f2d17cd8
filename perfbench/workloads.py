"""The workloads and the pieces both runs share: inputs, the measured
rounds, the answer checks and the end-to-end summary."""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import mean

#: The first batch of the event stream; it is applied during set-up.
WARMUP_EVENTS = 16
#: Set-ups per run; ``setup_s`` is their median, and each serves one
#: sub-run.
SETUP_REPS = 3
CHECK_SAMPLES = 200
FSYNC = "batch"
#: Share of ``--seconds`` a sub-run spends writing; it reads for the rest.
WRITE_SHARE = 0.5
#: A sub-run measures this many rounds, each a read pass over the same
#: pairs and then the next stretch of the event stream, so that its
#: repetitions are spread over the whole sub-run.
ROUNDS = 6
#: Pairs a sub-run reads, untimed, once its writes are visible; all of
#: them are BFS-checked.
CHECK_PAIRS = 32
#: Latency tails are reported at p90: every round puts ten samples
#: beyond it, and on a 2-vCPU host shared by three processes a p99 moves
#: with the host's scheduling more than with the program.
TAIL = 90
#: How many times its nominal share of the run a phase may take before it
#: stops early, on a host far slower than the workload was sized for.
OVERRUN = 2


#: Both workloads serve the twitter-s stand-in (14k vertices, 196k edges,
#: |R| = 20), where the wire and the bounded search share a point read.
DATASET = "twitter-s"
WRITE_BATCH = 16


@dataclass(frozen=True)
class Workload:
    cluster: bool
    #: Each round does fixed work, sized from a nominal rate on a 2-vCPU
    #: host: rate × the round's share of the run.  So every run of a seed
    #: reads the same pairs and applies the same events.
    read_rate: float
    write_rate: float


WORKLOADS = {
    "read-point-social": Workload(cluster=False, read_rate=2000.0, write_rate=2000.0),
    "cluster-social": Workload(cluster=True, read_rate=1400.0, write_rate=1800.0),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "read_pairs_per_s": "pairs/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "write_visible_p50_ms": "ms",
    "write_visible_p90_ms": "ms",
    "write_events_per_s": "events/s",
    "ops_ok_frac": "ratio",
    "server_rss_mb": "MB",
    "label_entries": "count",
}


def plan(workload: Workload, seconds: float) -> tuple[int, int, float, float]:
    """``(read_requests, write_events, read_seconds, write_seconds)`` of a
    round (or the traced run's phase) of nominally ``seconds``."""
    write_s = seconds * WRITE_SHARE
    read_s = seconds - write_s
    events = WRITE_BATCH * int(write_s * workload.write_rate / WRITE_BATCH)
    return int(read_s * workload.read_rate), events, read_s, write_s


def make_run_inputs(workload: Workload, seed: int, events: int, scale: float = 1.0):
    """Inputs whose event stream holds the warm-up batch and ``events``."""
    from inputs import make_inputs

    return make_inputs(DATASET, seed, num_pairs=30000,
                       num_events=WARMUP_EVENTS + events, scale=scale)


def check_sample(inputs, answers: list, checked: list, seed: int) -> list:
    """BFS-check every answer in ``checked`` and a seeded sample of
    ``CHECK_SAMPLES`` of the timed ``answers``."""
    from check import ReplayChecker

    chosen = random.Random(f"{seed}:check").sample(answers, min(CHECK_SAMPLES, len(answers)))
    return ReplayChecker(inputs.edges, inputs.events).mismatches(chosen + checked)


def check_labels(inputs, labels: list[int], epochs: list[int]) -> list[dict]:
    """Each server's final ``label_entries`` against a labelling built from
    scratch at its final epoch; returns the mismatches."""
    from check import reference_label_entries

    want: dict[int, int] = {}
    bad = []
    for got, epoch in zip(labels, epochs):
        if epoch not in want:
            want[epoch] = reference_label_entries(inputs.edges, inputs.events[:epoch],
                                                  inputs.num_landmarks)
        if got != want[epoch]:
            bad.append({"error": "label_entries differ from a labelling built from scratch",
                        "epoch": epoch, "label_entries": got, "from_scratch": want[epoch]})
    return bad


def drive(workload: Workload, conn_r, conn_w, pairs, events, seconds: float):
    """One sub-run on a freshly set-up server: ``ROUNDS`` rounds of the
    reader alone and then the writer alone, then an untimed read of
    ``CHECK_PAIRS`` pairs.  Returns ``(rounds, checks)``, ``rounds`` a list
    of ``(reads, writes)``.

    Every round reads the same pairs, and the writer continues the event
    stream where the round before it stopped.  The check reads come after
    every write is visible, so their answers are those of the labelling
    as maintained through the updates; through a router every read asks
    for the last acknowledged write.
    """
    from load import run_reader, run_writer

    requests, count, read_s, write_s = plan(workload, seconds / ROUNDS)
    rounds = []
    epoch = WARMUP_EVENTS
    for _ in range(ROUNDS):
        reads = run_reader(conn_r, pairs, 0, requests, OVERRUN * read_s,
                           min_epoch=epoch if workload.cluster else None)
        writes = run_writer(conn_w, events[epoch:epoch + count], epoch, WRITE_BATCH,
                            OVERRUN * write_s, workload.cluster)
        rounds.append((reads, writes))
        epoch = writes.last_epoch
    checks = run_reader(conn_r, pairs, requests, CHECK_PAIRS, OVERRUN * read_s,
                        min_epoch=epoch if workload.cluster else None)
    return rounds, checks


def server_counts(conn, cluster: bool) -> tuple[int, int]:
    """``(label_entries, events_rejected)`` from the ``stats`` op."""
    stats = conn.request({"op": "stats"})["stats"]
    if cluster:
        replicas = [r["service"] for r in stats["replicas"].values() if "service" in r]
        if len(replicas) != 1:
            raise RuntimeError(f"expected one replica in stats, got {len(replicas)}")
        return replicas[0]["label_entries"], stats["aggregate"]["events_rejected"]
    return stats["label_entries"], stats["events_rejected"]


def better_half_mean(values: list[float], higher_is_better: bool) -> float:
    """Mean of the better half of ``values`` (of one value, that value)."""
    ranked = sorted(values, reverse=higher_is_better)
    return mean(ranked[:max(1, len(ranked) // 2)])


def summarize(rounds: list, checks: list, mismatches: int, rejected: int) -> dict:
    """End-to-end metrics over the ``(reads, writes)`` rounds and the check
    reads of every sub-run, and the failures the server and the answer
    check found.

    The rounds repeat the same reads and like writes, so each timing is
    the mean of the better half of the rounds: on a shared host other
    tenants only ever slow a round down, so the slower half is dropped,
    and averaging the rest damps the sampling noise of one round, which
    the best round alone would pick up (a round's write tail rests on
    about ten batches).  Percentiles are each round's own.
    """
    from load import percentile

    per_round = []
    for r, w in rounds:
        read_ms = [x * 1e3 for x in r.latencies_s]
        write_ms = [x * 1e3 for x in w.visible_s]
        per_round.append({
            "read_pairs_per_s": r.pairs_per_s,
            "read_p50_ms": percentile(read_ms, 50),
            "read_p90_ms": percentile(read_ms, TAIL),
            "write_visible_p50_ms": percentile(write_ms, 50),
            "write_visible_p90_ms": percentile(write_ms, TAIL),
            "write_events_per_s": w.events_visible / w.span_s if w.span_s else 0.0,
        })
    attempted = sum(r.requests + w.events_offered for r, w in rounds)
    attempted += sum(c.requests for c in checks)
    failed = sum(r.errors + w.errors for r, w in rounds)
    failed += sum(c.errors for c in checks) + rejected + mismatches
    metrics = {name: better_half_mean([x[name] for x in per_round], name.endswith("_per_s"))
               for name in per_round[0]}
    metrics["ops_ok_frac"] = 1.0 - failed / attempted if attempted else 0.0
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": per_round,
        "samples": {
            "tail_pct": TAIL,
            "read_requests_per_round": [len(r.latencies_s) for r, _ in rounds],
            "write_batches_per_round": [len(w.visible_s) for _, w in rounds],
        },
    }
