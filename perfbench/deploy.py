"""The deployed binaries: ``repro build``, then ``repro serve`` or
``repro serve-cluster --replicas 1``, each in its own process.

Every child runs from the checkout's ``src/`` in its own session, with
stdout and stderr in files under the run's work directory; ``stop``
sends SIGTERM (the servers drain and exit), then SIGKILLs what is left.

The benchmark process is made the reaper of its orphans
(``adopt_orphans``): a process that a server starts and that outlives
it, such as the ``multiprocessing`` resource tracker of
``serve-cluster``, becomes the benchmark's child, so
``stop_descendants`` can end and reap it.  Only one server runs at a
time, so every descendant of the benchmark belongs to it.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

from load import Conn, wait_for_line

READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
#: ``prctl`` options: the signal a child gets when its parent dies, and
#: making orphaned descendants this process's children.
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def build_oracle(src: Path, edge_list: Path, out: Path, landmarks: int, log: Path) -> None:
    with open(log, "w") as handle:
        subprocess.run(
            [sys.executable, "-m", "repro", "build", str(edge_list), "-o", str(out),
             "--landmarks", str(landmarks), "--csr"],
            env=child_env(src), stdout=handle, stderr=subprocess.STDOUT,
            check=True, timeout=600,
        )


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _prctl(option: int, value: int) -> None:
    """``prctl(option, value)`` on Linux; a no-op where it is missing."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(option, value, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def adopt_orphans() -> None:
    """Become the reaper of every orphaned descendant."""
    _prctl(PR_SET_CHILD_SUBREAPER, 1)


def _drain_when_orphaned() -> None:
    """In a server child before ``exec``: SIGTERM it (it drains and
    stops its replicas) should the benchmark be killed outright."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def _processes() -> dict[int, tuple[str, int, int]]:
    """``pid -> (state, ppid, pgid)`` of every process in ``/proc``."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        table[int(entry)] = (fields[0], int(fields[1]), int(fields[2]))
    return table


def _reap() -> None:
    """Collect every child of this process that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _descendants(table: dict, root: int) -> list[int]:
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, (_, ppid, _) in table.items() if ppid == parent]
        found += children
        frontier += children
    return found


def stop_descendants() -> None:
    """SIGKILL every process this one started, directly or not, and wait
    until each has ended and been reaped.  Anything still running when the
    benchmark ends is a leftover: the servers were stopped gracefully
    before."""
    me = os.getpid()
    deadline = perf_counter() + STOP_TIMEOUT_S
    while perf_counter() < deadline:
        _reap()
        table = _processes()
        left = _descendants(table, me)
        if not left:
            return
        for pid in left:
            if table[pid][0] not in ("Z", "X"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        sleep(0.01)


class Server:
    """One running ``repro serve`` or ``repro serve-cluster`` process tree."""

    def __init__(self, src: Path, oracle: Path, workdir: Path, tag: str,
                 cluster: bool, fsync: str) -> None:
        self.cluster = cluster
        self._out = workdir / f"server-{tag}.out"
        self._err = workdir / f"server-{tag}.err"
        if cluster:
            argv = ["serve-cluster", str(oracle), "--replicas", "1", "--port", "0",
                    "--fsync", fsync, "--cluster-dir", str(workdir / f"cluster-{tag}")]
            marker = "  replica "
        else:
            argv = ["serve", str(oracle), "--port", "0"]
            marker = "serving on "
        with open(self._out, "w") as out, open(self._err, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *argv],
                env=child_env(src), stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, start_new_session=True,
                preexec_fn=_drain_when_orphaned,
            )
        self.pids = [self.proc.pid]
        try:
            wait_for_line(self._out, marker, self.proc, READY_TIMEOUT_S)
            text = self._out.read_text()
            if cluster:
                host, port = re.search(r"cluster router on ([\d.]+):(\d+)", text).groups()
                self.pids += [int(p) for p in re.findall(r"pid=(\d+)", text)]
            else:
                host, port = re.search(r"serving on ([\d.]+):(\d+)", text).groups()
            self.address = (host, int(port))
        except BaseException:
            self.stop()
            raise

    def rss_mb(self) -> float:
        """Peak RSS summed over the server-side processes, MB."""
        return sum(vm_hwm_kb(pid) for pid in self.pids) / 1024.0

    def stop(self) -> None:
        """SIGTERM (the server drains and stops its replicas), then SIGKILL
        whatever is left of its process tree and reap it all."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        stop_descendants()
        self.proc.wait()


def set_up(src: Path, edge_list: Path, workdir: Path, tag: str, landmarks: int,
           cluster: bool, fsync: str, warmup: list, probe_pair) -> tuple[Server, float]:
    """Build, start and warm one server; returns it with the set-up time.

    Set-up ends once the warm-up batch is visible and one query has been
    answered, so the lazy build of the update engine counts here rather
    than in the first timed batch.
    """
    from load import visibility_probe

    start = perf_counter()
    oracle = workdir / f"oracle-{tag}.json"
    build_oracle(src, edge_list, oracle, landmarks, workdir / f"build-{tag}.log")
    server = Server(src, oracle, workdir, tag, cluster, fsync)
    try:
        conn = Conn(*server.address)
        try:
            ack = conn.request({"op": "updates", "events": warmup})
            seen = conn.request(visibility_probe(cluster, len(warmup), warmup[0][1]))
            answer = conn.request({"op": "query", "u": probe_pair[0], "v": probe_pair[1]})
        finally:
            conn.close()
        if not (ack.get("ok") and seen.get("ok") and answer.get("ok")):
            raise RuntimeError(f"warm-up failed: {ack} {seen} {answer}")
        if seen.get("epoch") != len(warmup):
            raise RuntimeError(f"warm-up visible at epoch {seen.get('epoch')}, "
                               f"expected {len(warmup)}")
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - start
