"""Self-tests of the benchmark.  Run from the checkout root::

    python3 -m pytest perfbench -q

They prove the answer check can fire, check the input generator and the
BFS against the library's reference, and run every workload at a tiny
size in both modes to see it print every metric ``BENCHMARK.json`` names,
with its unit, and leave no process behind.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import INF, ReplayChecker, bfs_distance  # noqa: E402
from inputs import make_graph, make_inputs, mixed_events  # noqa: E402
from workloads import WORKLOADS, check_labels  # noqa: E402

PATH = [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_checker_counts_a_wrong_answer():
    checker = ReplayChecker(PATH, [])
    good = (0, 4, 0, 4)
    wrong = (0, 4, 0, 3)
    assert checker.mismatches([good]) == []
    bad = checker.mismatches([good, wrong])
    assert len(bad) == 1 and bad[0]["answer"] == 3 and bad[0]["bfs"] == 4


def test_checker_replays_events_to_each_epoch():
    events = [("insert", 0, 4), ("delete", 2, 3)]
    checker = ReplayChecker(PATH, events)
    samples = [(0, 4, 0, 4), (0, 4, 1, 1), (2, 3, 2, 4), (0, 3, 2, 2)]
    assert checker.mismatches(samples) == []
    # ``None`` is the wire's unreachable.
    cut = ReplayChecker(PATH, [("delete", 2, 3)])
    assert cut.mismatches([(0, 4, 1, None), (0, 2, 1, 2)]) == []
    assert len(cut.mismatches([(0, 4, 0, None)])) == 1
    # The distance at epoch 1 is wrong at epoch 0.
    assert len(checker.mismatches([(0, 4, 0, 1)])) == 1
    # An epoch beyond the generated stream is a failure, not a crash.
    assert len(checker.mismatches([(0, 4, 5, 4)])) == 1


def test_label_check_matches_maintained_labelling_and_fires():
    from repro.core.dynamic import DynamicHCL
    from repro.graph.dynamic_graph import DynamicGraph

    inputs = make_inputs("twitter-s", 3, num_pairs=1, num_events=64, scale=0.02)
    oracle = DynamicHCL.build(DynamicGraph.from_edges(inputs.edges),
                              num_landmarks=inputs.num_landmarks, construction="csr",
                              fast_updates=True)
    for i in range(0, 64, 16):
        oracle.apply_events_batch([(k, (u, v)) for k, u, v in inputs.events[i:i + 16]])
    got = oracle.label_entries
    assert check_labels(inputs, [got], [64]) == []
    bad = check_labels(inputs, [got, got + 1], [64, 64])
    assert len(bad) == 1 and bad[0]["from_scratch"] == got


def test_bfs_matches_library_reference():
    from repro.graph.traversal import bfs_distances

    _, graph = make_graph("indochina-s", scale=0.05)
    adj = graph.adjacency()
    rng = random.Random(5)
    vertices = sorted(adj)
    for _ in range(60):
        u, v = rng.choice(vertices), rng.choice(vertices)
        assert bfs_distance(adj, u, v) == bfs_distances(graph, u).get(v, INF)


def test_mixed_events_all_apply_and_repeat():
    edges = [(i, i + 1) for i in range(30)]
    vertices = list(range(31))
    events = mixed_events(edges, vertices, 400, random.Random(3))
    assert events == mixed_events(edges, vertices, 400, random.Random(3))
    live = {tuple(sorted(e)) for e in edges}
    for kind, u, v in events:
        key = (min(u, v), max(u, v))
        assert u != v
        if kind == "insert":
            assert key not in live
            live.add(key)
        else:
            assert key in live
            live.remove(key)
    inserts = sum(1 for kind, _, _ in events if kind == "insert")
    assert 0.7 < inserts / len(events) < 0.9


#: Marks the environment of a benchmark started by these tests; every
#: process it starts, directly or not, inherits it.
TOKEN = "PERFBENCH_SELFTEST_TOKEN"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    token = uuid.uuid4().hex
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, TOKEN: token})
    assert _live_with(token) == [], "the benchmark left processes running"
    return done


def _live_with(token: str) -> list[str]:
    """Command lines of the live processes whose environment holds ``token``."""
    marker = f"{TOKEN}={token}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if marker not in handle.read().split(b"\0"):
                    continue
            with open(f"/proc/{entry}/stat", "rb") as handle:
                if handle.read().rpartition(b")")[2].split()[0] in (b"Z", b"X"):
                    continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                found.append(handle.read().replace(b"\0", b" ").decode(errors="replace"))
        except OSError:
            continue
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", str(trace), "--scale", "0.05")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        # Every workload writes, so its traced phase must have applied batches.
        assert result["metrics"]["core.dynamic.apply_ms_per_batch"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "read-point-social", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_sigterm_mid_run_stops_every_process():
    """Stopped while a cluster is serving, the benchmark still ends the
    router, the replica and whatever they started, and prints no result."""
    token = uuid.uuid4().hex
    bench = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "cluster-social", "--seed", "3",
         "--seconds", "60", "--trace", "0", "--scale", "0.05"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env={**os.environ, TOKEN: token})
    try:
        deadline = time.monotonic() + 120
        while not any("serve-cluster" in cmd for cmd in _live_with(token)):
            assert bench.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(1.0)
        bench.send_signal(signal.SIGTERM)
        out, _ = bench.communicate(timeout=120)
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
    assert bench.returncode != 0
    assert '"metrics"' not in out
    assert _live_with(token) == []
