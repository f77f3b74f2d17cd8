"""Sampling profiler: attribution, folded output, lifecycle, env knobs."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.profile import (
    OTHER_PHASE,
    PHASE_MARKERS,
    SamplingProfiler,
    attribute_folded,
    attribute_stack,
    dump_if_enabled,
    get_profiler,
    profile_enabled,
    reset_profiler,
    start_if_enabled,
)


@pytest.fixture(autouse=True)
def _fresh_process_profiler():
    reset_profiler()
    yield
    reset_profiler()


class TestAttribution:
    def test_innermost_marker_wins(self):
        stack = (
            "repro.serving.service._apply_chunk",  # coalesce
            "repro.core.inchl_fast.csr_repair_affected",  # repair (inner)
        )
        assert attribute_stack(stack) == "repair"

    def test_bare_function_names_match(self):
        assert attribute_stack(["csr_find_affected"]) == "find"

    def test_unmatched_stack_is_other(self):
        assert attribute_stack(["a.read", "b.loop"]) == OTHER_PHASE

    def test_every_marker_phase_is_an_engine_phase(self):
        from repro.serving.metrics import PHASE_NAMES

        assert set(PHASE_MARKERS.values()) <= set(PHASE_NAMES)

    def test_every_marker_names_a_function_in_repro(self):
        # A renamed kernel must not fall silently into "other".
        import ast
        from pathlib import Path

        import repro

        defined = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.add(node.name)
        assert set(PHASE_MARKERS) - defined == set()

    def test_attribute_folded_round_trips_phase_table(self):
        prof = SamplingProfiler(interval_ms=1.0)
        prof.add_sample(("m._apply_chunk", "m.csr_repair_affected"), 3)
        prof.add_sample(("m.readline",), 1)
        assert attribute_folded(prof.folded()) == {"repair": 3, "other": 1}
        table = prof.phase_table()
        assert table["repair"] == {"samples": 3, "pct": 75.0}
        assert table["other"] == {"samples": 1, "pct": 25.0}

    def test_attribute_folded_ignores_malformed_lines(self):
        assert attribute_folded("not-a-count-line\n\n a;b 2\n") == {"other": 2}


class TestAggregation:
    def test_folded_is_sorted_by_descending_count(self):
        prof = SamplingProfiler(interval_ms=1.0)
        prof.add_sample(("a", "b"), 1)
        prof.add_sample(("c",), 5)
        assert prof.folded().splitlines() == ["c 5", "a;b 1"]

    def test_empty_stack_is_ignored(self):
        prof = SamplingProfiler(interval_ms=1.0)
        prof.add_sample(())
        assert prof.samples == 0

    def test_distinct_stack_cap_folds_into_truncated(self):
        prof = SamplingProfiler(interval_ms=1.0, max_stacks=2)
        prof.add_sample(("a",))
        prof.add_sample(("b",))
        prof.add_sample(("c",))  # over the cap
        prof.add_sample(("a",))  # existing stack still counts normally
        stats = prof.stats()
        assert stats["samples"] == 4
        assert stats["truncated_samples"] == 1
        assert "(truncated) 1" in prof.folded()

    def test_reset_drops_samples(self):
        prof = SamplingProfiler(interval_ms=1.0)
        prof.add_sample(("a",), 7)
        prof.reset()
        assert prof.samples == 0
        assert prof.folded() == ""

    def test_dump_writes_folded_text(self, tmp_path):
        prof = SamplingProfiler(interval_ms=1.0)
        prof.add_sample(("a", "b"), 2)
        out = tmp_path / "out.folded"
        prof.dump(out)
        assert out.read_text() == "a;b 2\n"


class TestLiveSampling:
    def test_sampler_captures_a_busy_thread(self):
        prof = SamplingProfiler(interval_ms=2.0)
        stop = threading.Event()

        def busy():
            while not stop.is_set():
                sum(range(500))

        worker = threading.Thread(target=busy, daemon=True)
        worker.start()
        prof.start()
        try:
            deadline = time.monotonic() + 2.0
            while prof.samples < 5 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            prof.stop()
            stop.set()
            worker.join(timeout=2.0)
        assert prof.samples >= 5
        assert "busy" in prof.folded()
        assert prof.stats()["elapsed_s"] > 0

    def test_start_stop_are_idempotent(self):
        prof = SamplingProfiler(interval_ms=2.0)
        assert prof.start() is prof.start()
        assert prof.running
        prof.stop()
        prof.stop()
        assert not prof.running


class TestEnvKnobs:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not profile_enabled()
        assert start_if_enabled() is None
        assert dump_if_enabled() is None

    def test_enabled_starts_and_dumps(self, tmp_path, monkeypatch):
        out = tmp_path / "server.folded"
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_OUT", str(out))
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL_MS", "2")
        reset_profiler()
        prof = start_if_enabled()
        assert prof is not None and prof.running
        assert prof.interval_ms == 2.0
        prof.add_sample(("m.f",), 1)
        assert dump_if_enabled() == str(out)
        assert "m.f 1" in out.read_text()

    def test_bad_interval_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL_MS", "banana")
        assert SamplingProfiler().interval_ms == 10.0
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL_MS", "-3")
        assert SamplingProfiler().interval_ms == 10.0

    def test_process_profiler_is_a_singleton_until_reset(self):
        first = get_profiler()
        assert get_profiler() is first
        reset_profiler()
        assert get_profiler() is not first
