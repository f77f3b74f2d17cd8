"""The distance labelling ``L``: per-vertex landmark distance entries.

Section 3: the label of a vertex ``v`` is a set of distance entries
``L(v) = {(r_1, δ_L(r_1, v)), ...}`` with ``δ_L(r_i, v) = d_G(r_i, v)``.
``size(L) = Σ_v |L(v)|`` is the quantity the paper's Table 1 reports (as
bytes, at 8 bytes per entry in the authors' C++ layout: 32-bit landmark id +
32-bit distance).
"""

from __future__ import annotations

from collections.abc import Iterator

__all__ = ["LabelStore"]

_EMPTY: dict[int, int] = {}


class LabelStore:
    """Mutable mapping ``vertex -> {landmark: distance}``.

    Vertices without entries take no storage; reads of unknown vertices
    return an empty label, which is the correct semantics for freshly
    inserted (isolated) vertices.

    >>> store = LabelStore()
    >>> store.set_entry(5, 0, 3)
    >>> store.label(5)
    {0: 3}
    >>> store.total_entries
    1
    """

    __slots__ = ("_labels", "_total", "_owned")

    def __init__(self) -> None:
        self._labels: dict[int, dict[int, int]] = {}
        self._total = 0
        # Vertices whose label dicts were copied (or created through
        # :meth:`_cow`) since the last snapshot (see :meth:`snapshot_rows`);
        # any other row may be shared with a live snapshot and is copied
        # before its first write.  ``None`` until the first snapshot, so
        # the non-serving hot paths pay a single attribute test.
        self._owned: set[int] | None = None

    def _cow(self, v: int) -> None:
        """Detach ``L(v)`` from any live snapshot before mutating it."""
        owned = self._owned
        if owned is not None and v not in owned:
            owned.add(v)
            label = self._labels.get(v)
            if label is not None:
                self._labels[v] = dict(label)

    def snapshot_rows(self) -> tuple[dict[int, dict[int, int]], int]:
        """Freeze hook for :mod:`repro.serving.snapshot`.

        Returns ``(rows, total_entries)`` where ``rows`` is a *shallow* copy
        of the vertex map: the per-vertex label dicts are shared with this
        store, and every subsequent in-place mutation copies the affected
        row first (copy-on-write at label-row granularity).  The returned
        mapping is therefore a stable point-in-time view that later writes
        can never tear, at pointer-copy cost instead of a deep copy.  The
        store then owns no row, so the bookkeeping costs O(rows written
        since the last snapshot), not O(|V|).
        """
        self._owned = set()
        return dict(self._labels), self._total

    def label(self, v: int) -> dict[int, int]:
        """The label of ``v`` as ``{landmark: distance}``.

        The returned mapping is the live internal dict when ``v`` has
        entries (treat as read-only) and a shared empty dict otherwise.
        """
        return self._labels.get(v, _EMPTY)

    def entry(self, v: int, r: int) -> int | None:
        """``δ_L(r, v)`` or ``None`` when ``(r, ·) ∉ L(v)``."""
        return self._labels.get(v, _EMPTY).get(r)

    def has_entry(self, v: int, r: int) -> bool:
        """Whether ``(r, ·) ∈ L(v)``."""
        return r in self._labels.get(v, _EMPTY)

    def set_entry(self, v: int, r: int, distance: int) -> None:
        """Add or modify the entry of landmark ``r`` in ``L(v)``."""
        if distance < 0:
            raise ValueError(f"distances must be non-negative, got {distance!r}")
        self._cow(v)
        label = self._labels.get(v)
        if label is None:
            self._labels[v] = {r: distance}
            self._total += 1
        elif r not in label:
            label[r] = distance
            self._total += 1
        else:
            label[r] = distance

    def bulk_set_new(self, r: int, vertices: list[int], distance: int) -> None:
        """Add the entry ``(r, distance)`` to every vertex in ``vertices``.

        Construction fast path: the caller guarantees no listed vertex
        already has an ``r``-entry (a BFS emits each vertex at most once),
        which lets the entry count advance by ``len(vertices)`` without
        per-vertex branching.  Violating the precondition corrupts
        :attr:`total_entries`; use :meth:`set_entry` when unsure.
        """
        if distance < 0:
            raise ValueError(f"distances must be non-negative, got {distance!r}")
        labels = self._labels
        owned = self._owned
        for v in vertices:
            label = labels.get(v)
            if label is None:
                labels[v] = {r: distance}
            elif owned is not None and v not in owned:
                label = dict(label)
                label[r] = distance
                labels[v] = label
                owned.add(v)
            else:
                label[r] = distance
        self._total += len(vertices)

    def bulk_set(self, r: int, vertices: list[int], distance: int) -> tuple[int, int]:
        """Add or modify the entry ``(r, distance)`` on every vertex.

        The update-path counterpart of :meth:`bulk_set_new`: vertices may
        or may not already carry an ``r``-entry (RepairAffected both adds
        and modifies), so the loop counts ``(added, modified)`` — one dict
        probe per vertex instead of the ``has_entry`` + ``set_entry``
        double lookup.  Copy-on-write safe.
        """
        if distance < 0:
            raise ValueError(f"distances must be non-negative, got {distance!r}")
        labels = self._labels
        owned = self._owned
        added = 0
        for v in vertices:
            label = labels.get(v)
            if label is None:
                labels[v] = {r: distance}
                added += 1
                continue
            if owned is not None and v not in owned:
                label = dict(label)
                labels[v] = label
                owned.add(v)
            if r not in label:
                added += 1
            label[r] = distance
        self._total += added
        return added, len(vertices) - added

    def bulk_remove(self, r: int, vertices: list[int]) -> int:
        """Remove the ``r``-entry from every listed vertex that has one.

        Returns the number of entries actually removed (RepairAffected
        feeds it every *covered* vertex; some never carried an entry).
        Copy-on-write safe.
        """
        labels = self._labels
        owned = self._owned
        removed = 0
        for v in vertices:
            label = labels.get(v)
            if label is None or r not in label:
                continue
            if owned is not None and v not in owned:
                label = dict(label)
                labels[v] = label
                owned.add(v)
            del label[r]
            removed += 1
            if not label:
                del labels[v]
        self._total -= removed
        return removed

    def remove_entry(self, v: int, r: int) -> bool:
        """Remove the entry of landmark ``r`` from ``L(v)`` if present.

        Returns whether an entry was removed.  This is the operation that
        distinguishes IncHL+ from IncPLL: stale entries are deleted, keeping
        the labelling minimal (Theorem 5.2).
        """
        label = self._labels.get(v)
        if label is None or r not in label:
            return False
        self._cow(v)
        label = self._labels[v]
        del label[r]
        self._total -= 1
        if not label:
            del self._labels[v]
        return True

    def clear_landmark(self, r: int) -> int:
        """Remove the entry of landmark ``r`` from every label.

        Returns the number of entries removed.  Used by the decremental
        extension, which rebuilds one landmark's labelling from scratch.
        """
        removed = 0
        empty: list[int] = []
        owned = self._owned
        for v, label in self._labels.items():
            if r in label:
                if owned is not None and v not in owned:
                    label = dict(label)
                    self._labels[v] = label
                    owned.add(v)
                del label[r]
                removed += 1
                if not label:
                    empty.append(v)
        for v in empty:
            del self._labels[v]
        self._total -= removed
        return removed

    def label_size(self, v: int) -> int:
        """``|L(v)|``."""
        return len(self._labels.get(v, _EMPTY))

    @property
    def total_entries(self) -> int:
        """``size(L) = Σ_v |L(v)|``."""
        return self._total

    def size_bytes(self, bytes_per_entry: int = 8) -> int:
        """Logical storage footprint (Table 1 accounting)."""
        return self._total * bytes_per_entry

    def vertices_with_labels(self) -> Iterator[int]:
        """Vertices that currently have at least one entry."""
        return iter(self._labels)

    def items(self) -> Iterator[tuple[int, dict[int, int]]]:
        """Iterate ``(vertex, label)`` pairs for vertices with entries."""
        return iter(self._labels.items())

    def copy(self) -> "LabelStore":
        """Independent deep copy of the store."""
        clone = LabelStore()
        clone._labels = {v: dict(lbl) for v, lbl in self._labels.items()}
        clone._total = self._total
        return clone

    def as_dict(self) -> dict[int, dict[int, int]]:
        """Deep-copied plain-dict snapshot (for validation/serialization)."""
        return {v: dict(lbl) for v, lbl in self._labels.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelStore):
            return NotImplemented
        return self._labels == other._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabelStore(vertices={len(self._labels)}, entries={self._total})"
