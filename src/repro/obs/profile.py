"""Opt-in sampling wall-clock profiler (``REPRO_PROFILE=1``).

A daemon thread wakes every ``REPRO_PROFILE_INTERVAL_MS`` milliseconds
(default 10), grabs every thread's current stack via
``sys._current_frames()`` and aggregates the stacks into a counter.
Two views come out of that counter:

* :meth:`SamplingProfiler.folded` — flamegraph-compatible **folded
  stacks** (``root;child;leaf <count>``, one line per distinct stack),
  the format ``flamegraph.pl`` / speedscope / inferno all consume; CI
  uploads these as artifacts and ``repro profile --folded out.folded``
  pulls them off a live server;
* :meth:`SamplingProfiler.phase_table` — a deterministic attribution of
  samples to the engine phases the serving layer already times
  (coalesce / find / repair / apply / publish,
  :data:`repro.serving.metrics.PHASE_NAMES`): each sampled stack is
  scanned innermost-frame-first against :data:`PHASE_MARKERS`, and the
  first marker hit names the phase.  Attribution depends only on the
  aggregated samples, never on sampling order, so the table is
  reproducible from a folded file alone (:func:`attribute_folded`).

The profiler is wall-clock (it samples *all* threads, whatever they are
doing — holding the GIL, blocked in numpy, parked in a lock), which is
the honest view for a mixed asyncio + writer-thread process.  Overhead
is one ``sys._current_frames()`` walk per tick; the ``incremental_fast``
bench records it (``fast+profiler`` rows) and CI keeps it under the 5 %
acceptance bound.

Nothing starts unless ``REPRO_PROFILE`` is truthy: servers call
:func:`start_if_enabled` on startup and :func:`dump_if_enabled` (writes
``REPRO_PROFILE_OUT``) on shutdown, so a production process pays nothing
until the knob is set.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from time import perf_counter, sleep

from repro import knobs

__all__ = [
    "PHASE_MARKERS",
    "SamplingProfiler",
    "attribute_folded",
    "profile_enabled",
    "get_profiler",
    "reset_profiler",
    "start_if_enabled",
    "dump_if_enabled",
]

#: Default sampling period.  10 ms keeps the measured drag on the fast
#: update replay under the 5 % acceptance bound even on a 1-CPU host
#: (every ``sys._current_frames()`` walk holds the GIL); drop
#: ``REPRO_PROFILE_INTERVAL_MS`` for finer resolution when overhead is
#: not a concern.
_DEFAULT_INTERVAL_MS = 10.0
#: Cap on distinct aggregated stacks — beyond it new stacks fold into a
#: synthetic ``(truncated)`` bucket so a pathological workload cannot
#: grow the counter without bound.
_MAX_DISTINCT_STACKS = 20_000
#: Frames kept per sampled stack (innermost last).
_MAX_DEPTH = 64

#: Function name -> engine phase.  A sampled stack is attributed to the
#: phase of its **innermost** matching frame: a sample caught inside
#: ``csr_repair_affected`` counts as ``repair`` even though
#: ``_apply_chunk`` (coalesce) is further up the stack.  Names mirror
#: the call graph of :mod:`repro.serving.service` /
#: :mod:`repro.core.inchl_fast`.
PHASE_MARKERS: dict[str, str] = {
    # find sweeps (single-edge, mixed batch, and its landmark-group task)
    "csr_find_affected": "find",
    "csr_find_affected_mixed": "find",
    "csr_find_group_task": "find",
    # repair sweeps
    "csr_repair_affected": "repair",
    "csr_batch_repair_mixed": "repair",
    # engine/batch apply entry points
    "apply_events_batch": "apply",
    "insert_edges_batch": "apply",
    "apply_mixed": "apply",
    # writer-side coalescing (validation/dedup around the engine call)
    "_apply_chunk": "coalesce",
    # snapshot publication
    "_publish": "publish",
    "freeze": "publish",
}

#: The bucket for samples no marker claims (protocol I/O, idle waits...).
OTHER_PHASE = "other"


def profile_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` asks for sampling (default off)."""
    return bool(knobs.get("REPRO_PROFILE"))


def _env_interval_ms() -> float:
    value = knobs.get("REPRO_PROFILE_INTERVAL_MS")
    return _DEFAULT_INTERVAL_MS if value is None else float(value)


def _frame_label(frame) -> str:
    """``module.function`` for one frame (concise, flamegraph-friendly)."""
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{frame.f_code.co_name}"


def _walk_stack(frame) -> tuple[str, ...]:
    """Root-first frame labels, innermost last, depth-capped."""
    labels: list[str] = []
    while frame is not None and len(labels) < _MAX_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


def attribute_stack(stack: tuple[str, ...] | list[str]) -> str:
    """The engine phase of one root-first stack (innermost match wins).

    Labels may be bare function names or ``module.function``; only the
    function-name suffix is matched against :data:`PHASE_MARKERS`.
    """
    for label in reversed(tuple(stack)):
        name = label.rsplit(".", 1)[-1]
        phase = PHASE_MARKERS.get(name)
        if phase is not None:
            return phase
    return OTHER_PHASE


def attribute_folded(folded: str) -> dict[str, int]:
    """Phase -> sample count from folded-stack text (deterministic:
    depends only on the folded lines, not on sampling order)."""
    table: Counter[str] = Counter()
    for line in folded.splitlines():
        line = line.strip()
        if not line:
            continue
        stack_part, _, count_part = line.rpartition(" ")
        try:
            count = int(count_part)
        except ValueError:
            continue
        table[attribute_stack(stack_part.split(";"))] += count
    return dict(table)


class SamplingProfiler:
    """Aggregating wall-clock stack sampler.

    >>> prof = SamplingProfiler(interval_ms=1.0)
    >>> prof.add_sample(("repro.serving.service._apply_chunk",
    ...                  "repro.core.inchl_fast.csr_repair_affected"), 3)
    >>> prof.phase_table()["repair"]["samples"]
    3
    """

    def __init__(
        self,
        interval_ms: float | None = None,
        *,
        max_stacks: int = _MAX_DISTINCT_STACKS,
    ) -> None:
        self.interval_ms = (
            float(interval_ms) if interval_ms is not None else _env_interval_ms()
        )
        self._max_stacks = max_stacks
        self._stacks: Counter[tuple[str, ...]] = Counter()
        self._samples = 0
        self._truncated = 0
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._started_at: float | None = None
        self._elapsed = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def samples(self) -> int:
        """Total stack samples aggregated so far (all threads)."""
        return self._samples

    def start(self) -> "SamplingProfiler":
        """Start the sampler thread (idempotent)."""
        with self._lock:
            if self.running:
                return self
            self._stop_event.clear()
            self._started_at = perf_counter()
            self._thread = threading.Thread(
                target=self._sample_loop, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling; aggregated samples are kept (idempotent)."""
        thread = self._thread
        self._stop_event.set()
        if thread is not None:
            thread.join(timeout=2.0)
        with self._lock:
            if self._started_at is not None:
                self._elapsed += perf_counter() - self._started_at
                self._started_at = None
            self._thread = None
        return self

    def reset(self) -> None:
        """Drop aggregated samples (keeps the sampler running if it is)."""
        with self._lock:
            self._stacks.clear()
            self._samples = 0
            self._truncated = 0
            self._elapsed = 0.0
            if self._started_at is not None:
                self._started_at = perf_counter()

    def _sample_loop(self) -> None:
        own = threading.get_ident()
        interval_s = self.interval_ms / 1000.0
        while not self._stop_event.wait(interval_s):
            try:
                frames = sys._current_frames()
            except Exception:  # pragma: no cover - interpreter teardown
                return
            for thread_id, frame in frames.items():
                if thread_id == own:
                    continue
                self.add_sample(_walk_stack(frame))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def add_sample(self, stack: tuple[str, ...], count: int = 1) -> None:
        """Fold one root-first stack into the aggregate.

        Public so tests (and offline replays of folded files) can drive
        the attribution machinery deterministically without live
        sampling.
        """
        stack = tuple(stack)
        if not stack:
            return
        with self._lock:
            if stack not in self._stacks and len(self._stacks) >= self._max_stacks:
                stack = ("(truncated)",)
                self._truncated += count
            self._stacks[stack] += count
            self._samples += count

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def folded(self) -> str:
        """Folded-stack text: ``frame;frame;frame count`` per line, sorted
        by descending count (flamegraph.pl / speedscope / inferno input)."""
        with self._lock:
            items = sorted(
                self._stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return "\n".join(f"{';'.join(stack)} {count}" for stack, count in items)

    def phase_table(self) -> dict[str, dict]:
        """Phase -> ``{"samples": n, "pct": p}`` over the aggregate.

        Every sample lands in exactly one phase (:func:`attribute_stack`;
        unmatched stacks under ``"other"``), so the percentages sum to
        ~100.  Deterministic given the aggregated stacks.
        """
        with self._lock:
            items = list(self._stacks.items())
            total = self._samples
        counts: Counter[str] = Counter()
        for stack, count in items:
            counts[attribute_stack(stack)] += count
        return {
            phase: {
                "samples": count,
                "pct": round(100.0 * count / total, 2) if total else 0.0,
            }
            for phase, count in sorted(
                counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
        }

    def stats(self) -> dict:
        """Summary dict (the ``profile`` protocol op's payload)."""
        with self._lock:
            elapsed = self._elapsed
            if self._started_at is not None:
                elapsed += perf_counter() - self._started_at
            distinct = len(self._stacks)
            samples = self._samples
            truncated = self._truncated
        return {
            "running": self.running,
            "enabled": profile_enabled(),
            "interval_ms": self.interval_ms,
            "samples": samples,
            "distinct_stacks": distinct,
            "truncated_samples": truncated,
            "elapsed_s": round(elapsed, 3),
            "phases": self.phase_table(),
        }

    def dump(self, path: str | os.PathLike) -> str:
        """Write :meth:`folded` to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            folded = self.folded()
            handle.write(folded + ("\n" if folded else ""))
        return str(path)


_profiler: SamplingProfiler | None = None
_profiler_lock = threading.Lock()


def get_profiler() -> SamplingProfiler:
    """The process-wide profiler (created on first use, not started)."""
    global _profiler
    with _profiler_lock:
        if _profiler is None:
            _profiler = SamplingProfiler()
        return _profiler


def reset_profiler() -> None:
    """Drop the process profiler (tests re-read the env knobs)."""
    global _profiler
    with _profiler_lock:
        if _profiler is not None:
            _profiler.stop()
        _profiler = None


def start_if_enabled() -> SamplingProfiler | None:
    """Start the process profiler iff ``REPRO_PROFILE`` asks for it.

    Servers and the bench harness call this on startup; returns the
    (running) profiler or ``None`` when profiling is off.
    """
    if not profile_enabled():
        return None
    return get_profiler().start()


def dump_if_enabled(path: str | None = None) -> str | None:
    """Write the folded stacks to ``path`` or ``REPRO_PROFILE_OUT``.

    No-op (returns ``None``) when profiling is disabled or no output
    path is known; the companion of :func:`start_if_enabled` for process
    shutdown paths.
    """
    target = path or knobs.get("REPRO_PROFILE_OUT")
    if not target or not profile_enabled():
        return None
    return get_profiler().dump(target)


def _busy_wait_for_samples(  # pragma: no cover - manual diagnostics aid
    profiler: SamplingProfiler, min_samples: int, timeout_s: float = 1.0
) -> bool:
    """Spin until the profiler aggregated ``min_samples`` (diagnostics)."""
    deadline = perf_counter() + timeout_s
    while perf_counter() < deadline:
        if profiler.samples >= min_samples:
            return True
        sleep(profiler.interval_ms / 1000.0)
    return profiler.samples >= min_samples
