"""Serving metrics: throughput counters and tail-latency tracking.

The serving layer is judged on two numbers the paper never had to report
— sustained queries per second and tail latency under a concurrent
writer — so the service keeps them continuously and surfaces them through
the ``stats`` protocol op and the ``serving`` bench experiment.

Latencies are kept twice, deliberately:

* a bounded ring buffer (recent-window percentiles, O(1) memory) — the
  human-friendly ``p50/p95/p99`` columns of ``stats``;
* a **mergeable fixed-bucket histogram**
  (:class:`repro.obs.registry.Histogram`) covering *all* samples — the
  ``hist`` block of each summary.  Histograms over the same bucket
  scheme merge by exact vector addition, which is how the cluster
  router turns per-replica tails into cluster-wide percentiles without
  the information loss of a ``max`` (:func:`merge_summaries`).

All methods are safe to call from many reader threads: mutation happens
under a lock, and the lock is held only for appends and for copying the
window out.

Per-batch *phase* timings (coalesce / find / repair / publish — the
quantities IncHL+'s analysis attributes cost to) and affected-set sizes
(|AFF|) land in :meth:`ServiceMetrics.observe_batch`; the ``stats`` op
reports their distributions under ``"phases"`` / ``"aff"``.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter

from repro.obs.registry import COUNT_BOUNDS, Histogram, merge_histograms

__all__ = [
    "percentile",
    "aggregate_summaries",
    "merge_summaries",
    "LatencyRecorder",
    "ServiceMetrics",
    "PHASE_NAMES",
]

#: The per-batch phases the writer attributes time to.  ``find`` and
#: ``repair`` come out of the update engine (the paper's two sweeps);
#: ``coalesce`` is the writer's validation/dedup pass; ``publish`` the
#: snapshot swap.
PHASE_NAMES = ("coalesce", "find", "repair", "apply", "publish")


def percentile(sorted_samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    ``sorted_samples`` must be non-empty and ascending.

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    >>> percentile([5.0], 99)
    5.0
    """
    if not sorted_samples:
        raise ValueError("percentile of an empty sample set")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    rank = (len(sorted_samples) - 1) * q / 100.0
    lo = int(rank)
    frac = rank - lo
    if frac == 0:
        return sorted_samples[lo]
    return sorted_samples[lo] * (1 - frac) + sorted_samples[lo + 1] * frac


def aggregate_summaries(summaries) -> dict:
    """Combine :meth:`LatencyRecorder.summary` dicts — **legacy** merge.

    Counts and throughput **add**; the percentile columns take the
    **max** (a conservative cluster-wide tail); ``mean_ms`` is the
    count-weighted mean of the per-replica means — exactly the pooled
    mean, since each replica's mean is its sum over its count.  A
    summary without a count contributes to the max-bound fallback
    instead.  Superseded by :func:`merge_summaries`, which merges the
    summaries' histograms for *exact* percentiles; this remains the
    fallback when a summary has no ``hist`` block (e.g. a replica
    running an older build).

    >>> agg = aggregate_summaries([
    ...     {"count": 2, "qps": 10.0, "mean_ms": 1.0, "p99_ms": 1.0},
    ...     {"count": 8, "qps": 5.0, "mean_ms": 6.0, "p99_ms": 4.0},
    ... ])
    >>> agg["qps"], agg["p99_ms"]
    (15.0, 4.0)
    >>> agg["mean_ms"]  # (2*1.0 + 8*6.0) / 10, not max(1.0, 6.0)
    5.0
    """
    out = {"count": 0, "qps": 0.0, "mean_ms": None,
           "p50_ms": None, "p95_ms": None, "p99_ms": None}
    weighted_sum = 0.0
    weighted_count = 0
    mean_bound = None
    for summary in summaries:
        out["count"] += summary.get("count", 0)
        # Accumulate at full precision; rounding inside the loop would
        # compound error across many replicas.
        out["qps"] += summary.get("qps") or 0.0
        mean = summary.get("mean_ms")
        if mean is not None:
            count = summary.get("count") or 0
            if count > 0:
                weighted_sum += mean * count
                weighted_count += count
            mean_bound = mean if mean_bound is None else max(mean_bound, mean)
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            value = summary.get(key)
            if value is not None:
                out[key] = value if out[key] is None else max(out[key], value)
    if weighted_count > 0:
        out["mean_ms"] = weighted_sum / weighted_count
    else:
        out["mean_ms"] = mean_bound
    out["qps"] = round(out["qps"], 3)
    return out


def merge_summaries(summaries) -> dict:
    """Exact cluster-wide merge of :meth:`LatencyRecorder.summary` dicts.

    When every summary carries a ``hist`` block the histograms are merged
    by vector addition — lossless, so the percentiles below are those of
    the *pooled* sample population (at bucket resolution), not a bound.
    Counts/qps add; the mean comes from the merged sum/count.  If any
    summary lacks a histogram the legacy :func:`aggregate_summaries`
    answers instead (its max-merge is at least never wrong), flagged with
    ``"merge": "max"`` vs ``"merge": "exact"``.
    """
    summaries = list(summaries)
    hists = [s.get("hist") for s in summaries]
    if not summaries or any(h is None for h in hists):
        out = aggregate_summaries(summaries)
        out["merge"] = "max"
        return out
    merged = merge_histograms(hists)
    qps = sum(s.get("qps") or 0.0 for s in summaries)
    count = merged.count
    out = {
        "count": count,
        "qps": round(qps, 3),
        "mean_ms": round(merged.sum / count * 1000.0, 6) if count else None,
        "p50_ms": None,
        "p95_ms": None,
        "p99_ms": None,
        "merge": "exact",
        "hist": merged.to_dict(),
    }
    if count:
        for key, q in (("p50_ms", 50), ("p95_ms", 95), ("p99_ms", 99)):
            out[key] = round(merged.quantile(q) * 1000.0, 6)
    return out


class LatencyRecorder:
    """Latency samples + throughput for one operation class.

    ``record(seconds)`` is the hot-path call; ``summary()`` returns a
    plain dict with count, qps (count over the first..last record span),
    p50/p95/p99 in milliseconds over the retained window, and the
    all-samples mergeable histogram under ``hist``.
    """

    def __init__(self, window: int = 8192) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._samples: deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()
        self._count = 0
        self._total_seconds = 0.0
        self._first: float | None = None
        self._last: float | None = None
        #: All-samples mergeable histogram (seconds); exposed on the
        #: Prometheus endpoint via ``HistogramFamily.attach`` and merged
        #: exactly across replicas by the cluster router.
        self.hist = Histogram()

    def record(self, seconds: float) -> None:
        """Record one operation that took ``seconds``."""
        now = perf_counter()
        self.hist.observe(seconds)
        with self._lock:
            self._samples.append(seconds)
            self._count += 1
            self._total_seconds += seconds
            if self._first is None:
                self._first = now
            self._last = now

    def time(self, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)``, recording its wall-clock latency."""
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.record(perf_counter() - start)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def summary(self) -> dict:
        """Point-in-time stats dict (all latencies in milliseconds)."""
        with self._lock:
            window = sorted(self._samples)
            count = self._count
            total = self._total_seconds
            first, last = self._first, self._last
        hist = self.hist.to_dict()
        if not window:
            return {"count": 0, "qps": 0.0, "mean_ms": None,
                    "p50_ms": None, "p95_ms": None, "p99_ms": None,
                    "hist": hist}
        span = (last - first) if (first is not None and last > first) else 0.0
        # Throughput needs a denominator even for a single sample; fall
        # back to summed operation time when the span is degenerate.
        qps = count / span if span > 0 else (count / total if total > 0 else 0.0)
        return {
            "count": count,
            "qps": round(qps, 3),
            "mean_ms": round(sum(window) / len(window) * 1000.0, 6),
            "p50_ms": round(percentile(window, 50) * 1000.0, 6),
            "p95_ms": round(percentile(window, 95) * 1000.0, 6),
            "p99_ms": round(percentile(window, 99) * 1000.0, 6),
            "hist": hist,
        }


class ServiceMetrics:
    """All metrics of one :class:`~repro.serving.service.OracleService`.

    Two latency recorders (reads and applied update events) plus event
    counters, per-phase batch timing histograms and the |AFF| (affected
    vertices per batch) distribution; :meth:`stats` flattens everything
    into the dict the STATS protocol op returns.
    """

    def __init__(self, window: int = 8192) -> None:
        self.queries = LatencyRecorder(window)
        self.updates = LatencyRecorder(window)
        self._lock = threading.Lock()
        self.events_applied = 0
        self.events_rejected = 0
        self.batches = 0
        self.snapshots_published = 0
        #: Per-phase batch timings in seconds (mergeable histograms).
        self.phase_hists: dict[str, Histogram] = {
            name: Histogram() for name in PHASE_NAMES
        }
        #: Affected vertices (|AFF| union over landmarks) per batch.
        self.aff_hist = Histogram(bounds=COUNT_BOUNDS)

    def count_applied(self, n: int = 1) -> None:
        with self._lock:
            self.events_applied += n

    def count_rejected(self, n: int = 1) -> None:
        with self._lock:
            self.events_rejected += n

    def count_batch(self) -> None:
        with self._lock:
            self.batches += 1

    def count_snapshot(self) -> None:
        with self._lock:
            self.snapshots_published += 1

    def observe_phase(self, name: str, seconds: float) -> None:
        """Record one phase duration (unknown names create a histogram)."""
        hist = self.phase_hists.get(name)
        if hist is None:
            with self._lock:
                hist = self.phase_hists.setdefault(name, Histogram())
        hist.observe(seconds)

    def observe_batch(self, phases: dict | None, affected: int | None) -> None:
        """Record one writer batch: its phase timings (``{"find": s, ...}``
        seconds) and its affected-set size."""
        if phases:
            for name, seconds in phases.items():
                if seconds is not None:
                    self.observe_phase(name, seconds)
        if affected is not None:
            self.aff_hist.observe(affected)

    def counters(self) -> dict:
        """All event counters snapshotted atomically under the lock."""
        with self._lock:
            return {
                "events_applied": self.events_applied,
                "events_rejected": self.events_rejected,
                "batches": self.batches,
                "snapshots_published": self.snapshots_published,
            }

    @staticmethod
    def _hist_brief(hist: Histogram, scale: float = 1.0, digits: int = 6) -> dict:
        """Compact wire form of a distribution: count, total, p50/p99."""
        count = hist.count
        out = {
            "count": count,
            "total": round(hist.sum * scale, digits),
            "p50": None,
            "p99": None,
        }
        if count:
            out["p50"] = round(hist.quantile(50) * scale, digits)
            out["p99"] = round(hist.quantile(99) * scale, digits)
        return out

    def stats(self) -> dict:
        """Flat stats dict: ``queries.*`` and ``updates.*`` sub-dicts plus
        the event counters (snapshotted under the lock — readers must
        never see a torn multi-counter view) and the phase/|AFF|
        distributions."""
        phases = {
            name: self._hist_brief(hist, scale=1000.0)  # ms
            for name, hist in self.phase_hists.items()
            if hist.count
        }
        return {
            "queries": self.queries.summary(),
            "updates": self.updates.summary(),
            **self.counters(),
            "phases": phases,
            "aff": self._hist_brief(self.aff_hist, digits=1),
        }
