"""End-to-end serving benchmark for the distance oracle.

Run from the root of a checkout::

    python3 perfbench/run.py --workload read-point-social --seed 1 --seconds 24 --trace 0

It makes the workload's inputs from ``--seed`` (edge list, read pairs,
update events), builds and starts the real binaries (``repro build``,
then ``repro serve`` or ``repro serve-cluster --replicas 1``), drives
them from this one process for about ``--seconds`` seconds, checks a
seeded sample of answers against BFS on a replay of the events and the
final labelling's size against one built from scratch, and prints one
JSON object as its last line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` starts the server in-process instead and reports
per-layer metrics from spans (see ``traced.py`` and ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path
from statistics import median

from deploy import adopt_orphans, stop_descendants
from workloads import (
    CHECK_SAMPLES,
    DATASET,
    END_TO_END_UNITS,
    FSYNC,
    ROUNDS,
    SETUP_REPS,
    WORKLOADS,
    WARMUP_EVENTS,
    WRITE_BATCH,
    Workload,
    check_labels,
    check_sample,
    drive,
    make_run_inputs,
    plan,
    server_counts,
    summarize,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_commit() -> str | None:
    """The checkout's commit, read from its own ``.git`` (``None`` when the
    checkout is not a git work tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        return None
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def run_untraced(name: str, workload: Workload, seed: int, seconds: float, workdir: Path,
                 scale: float = 1.0) -> tuple[dict, dict]:
    """Set up ``SETUP_REPS`` times; each server serves one sub-run of an
    equal share of ``seconds``.  The sub-runs repeat the same reads and
    events."""
    from deploy import set_up
    from load import Conn

    share = seconds / SETUP_REPS
    requests, count, _, _ = plan(workload, share / ROUNDS)
    inputs = make_run_inputs(workload, seed, ROUNDS * count, scale)
    edge_list = workdir / "edges.txt"
    inputs.write_edge_list(edge_list)
    pairs, events = inputs.pairs, inputs.events
    setups, rounds, checks, rss, labels, epochs = [], [], [], [], [], []
    rejected = 0
    for rep in range(SETUP_REPS):
        server, took = set_up(SRC, edge_list, workdir, str(rep), inputs.num_landmarks,
                              workload.cluster, FSYNC, events[:WARMUP_EVENTS], pairs[-1])
        try:
            setups.append(took)
            conn_r, conn_w = Conn(*server.address), Conn(*server.address)
            try:
                sub, check = drive(workload, conn_r, conn_w, pairs, events, share)
                label_entries, rej = server_counts(conn_w, workload.cluster)
            finally:
                conn_r.close()
                conn_w.close()
            rss.append(server.rss_mb())
        finally:
            server.stop()
        rounds += sub
        checks.append(check)
        labels.append(label_entries)
        epochs.append(sub[-1][1].last_epoch)
        rejected += rej
    answers = [a for reads, _ in rounds for a in reads.answers]
    checked = [a for check in checks for a in check.answers]
    bad = check_sample(inputs, answers, checked, seed)
    bad += check_labels(inputs, labels, epochs)
    result = summarize(rounds, checks, len(bad), rejected)
    result["metrics"]["setup_s"] = median(setups)
    result["metrics"]["server_rss_mb"] = median(rss)
    result["metrics"]["label_entries"] = median(labels)
    record = {
        "workload": name,
        "dataset": DATASET,
        "num_vertices": len(inputs.vertices),
        "num_edges": len(inputs.edges),
        "num_landmarks": inputs.num_landmarks,
        "seed": seed,
        "seconds": seconds,
        "phases": f"per sub-run, {ROUNDS} rounds of the reader alone then the writer "
                  "alone, then the check reads",
        "read_loop": f"closed, 1 connection, {requests} point queries a round",
        "write_loop": f"closed, 1 connection, {count} events a round "
                      f"in batches of {WRITE_BATCH}",
        "fsync": FSYNC if workload.cluster else None,
        "setup_runs_s": setups,
        "label_entries_per_sub_run": labels,
        "final_epoch_per_sub_run": epochs,
        "checked_answers": min(CHECK_SAMPLES, len(answers)) + len(checked),
        "checked_after_writes": len(checked),
        "mismatches": bad[:5],
        "events_rejected": rejected,
        **result.pop("samples"),
        "rounds": result.pop("rounds"),
    }
    return result, record


def _exit_on_signal(signum, frame) -> None:
    """SIGTERM or SIGHUP unwinds like an exception, so every server is
    stopped on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset size factor (self-tests shrink it)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    adopt_orphans()
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    try:
        if args.trace:
            from traced import PER_LAYER_UNITS, run_traced

            result, record = run_traced(args.workload, workload, args.seed, args.seconds,
                                        workdir, args.scale)
            units = PER_LAYER_UNITS
        else:
            result, record = run_untraced(args.workload, workload, args.seed, args.seconds,
                                          workdir, args.scale)
            units = END_TO_END_UNITS
    finally:
        stop_descendants()
        spans = workdir / "spans.ndjson"
        results = work_root / "results"
        results.mkdir(exist_ok=True)
        if spans.exists():
            shutil.move(str(spans), results / f"{workdir.name}.spans.ndjson")
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = environment()
    (results / f"{workdir.name}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({
        "correct": not record["mismatches"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
