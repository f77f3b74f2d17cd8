"""The update kernels are called through their module globals.

The traced benchmark run (``perfbench/traced.py``) measures the find and
repair phases by replacing these four names with timing wrappers, so the
engine must look them up at call time: a renamed kernel, or one bound
under another name, would leave a phase unmeasured.
"""

from collections import Counter

import pytest

import repro.core.inchl_fast as inchl_fast
import repro.parallel.sweeps as sweeps
from repro.core.dynamic import DynamicHCL
from repro.graph.generators import grid_graph

HOOKS = [
    (sweeps, "csr_find_affected_mixed"),
    (inchl_fast, "csr_batch_repair_mixed"),
    (inchl_fast, "csr_find_affected"),
    (inchl_fast, "csr_repair_affected"),
]


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    for module, name in HOOKS:
        key = f"{module.__name__}.{name}"
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    return counts


def test_mixed_batch_and_single_insert_run_every_hook(calls):
    oracle = DynamicHCL.build(grid_graph(4, 4), landmarks=[0, 15], fast_updates=True)
    oracle.apply_events_batch([("insert", (0, 5)), ("delete", (1, 2))], fast=True)
    oracle.insert_edge(0, 10, fast=True)
    assert set(calls) == {f"{module.__name__}.{name}" for module, name in HOOKS}
    assert calls["repro.parallel.sweeps.csr_find_affected_mixed"] == 1
    assert calls["repro.core.inchl_fast.csr_batch_repair_mixed"] == 1
