"""The highway ``H = (R, δ_H)``: landmarks plus exact pairwise distances.

Section 3 of the paper: a highway consists of a set ``R`` of landmarks and a
distance decoding function ``δ_H : R × R → N+`` with
``δ_H(r1, r2) = d_G(r1, r2)`` for *all* landmark pairs.  Distances are kept
symmetric; unreachable pairs decode to infinity.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import NotALandmarkError
from repro.graph.traversal import INF

__all__ = ["Highway"]


class Highway:
    """Symmetric landmark-to-landmark distance table.

    >>> h = Highway([3, 7])
    >>> h.set_distance(3, 7, 2)
    >>> h.distance(7, 3)
    2
    >>> h.distance(3, 3)
    0
    """

    __slots__ = ("_landmarks", "_landmark_set", "_dist", "_owned")

    def __init__(self, landmarks: Iterable[int]) -> None:
        self._landmarks = list(landmarks)
        self._landmark_set = frozenset(self._landmarks)
        if len(self._landmark_set) != len(self._landmarks):
            raise ValueError("duplicate landmarks")
        # dict-of-dicts keyed by landmark id; missing entry = unreachable.
        self._dist: dict[int, dict[int, float]] = {
            r: {r: 0} for r in self._landmarks
        }
        # Rows copied since the last snapshot (see :meth:`snapshot_state`);
        # any other row may be shared with a live snapshot.  ``None`` until
        # the first snapshot is taken.
        self._owned: set[int] | None = None

    def _cow(self, r: int) -> None:
        """Detach the row of ``r`` from any live snapshot before mutating."""
        owned = self._owned
        if owned is not None and r not in owned:
            owned.add(r)
            self._dist[r] = dict(self._dist[r])

    def snapshot_state(
        self,
    ) -> tuple[list[int], frozenset[int], dict[int, dict[int, float]]]:
        """Freeze hook for :mod:`repro.serving.snapshot`.

        Returns ``(landmarks, landmark_set, rows)``: a copy of the landmark
        order, the (immutable) landmark set, and a *shallow* copy of the
        distance table whose rows are shared copy-on-write — any later
        in-place mutation copies the affected row first, so the returned
        state is a stable point-in-time view.
        """
        self._owned = set()
        return list(self._landmarks), self._landmark_set, dict(self._dist)

    @property
    def landmarks(self) -> list[int]:
        """Landmarks in selection order.  Must not be mutated."""
        return self._landmarks

    @property
    def landmark_set(self) -> frozenset[int]:
        """Frozen set of landmarks for O(1) membership tests."""
        return self._landmark_set

    def __contains__(self, r: int) -> bool:
        return r in self._landmark_set

    def __len__(self) -> int:
        return len(self._landmarks)

    def distance(self, r1: int, r2: int) -> float:
        """``δ_H(r1, r2)``; infinity when unreachable."""
        try:
            row = self._dist[r1]
        except KeyError:
            raise NotALandmarkError(r1) from None
        if r2 not in self._landmark_set:
            raise NotALandmarkError(r2)
        return row.get(r2, INF)

    def set_distance(self, r1: int, r2: int, distance: float) -> None:
        """Set ``δ_H(r1, r2)`` (and symmetrically ``δ_H(r2, r1)``)."""
        if r1 not in self._landmark_set:
            raise NotALandmarkError(r1)
        if r2 not in self._landmark_set:
            raise NotALandmarkError(r2)
        if r1 == r2:
            if distance != 0:
                raise ValueError(f"diagonal must stay 0, got {distance!r}")
            return
        if not distance > 0:
            # >= 1 on unweighted graphs; weighted highways may go below 1.
            raise ValueError(f"landmark distances must be positive, got {distance!r}")
        self._cow(r1)
        self._cow(r2)
        self._dist[r1][r2] = distance
        self._dist[r2][r1] = distance

    def clear_row(self, r: int) -> None:
        """Drop every distance involving ``r`` (except the 0 diagonal).

        Used by the decremental extension before recomputing the row; a
        dropped pair decodes as unreachable until re-set.
        """
        if r not in self._landmark_set:
            raise NotALandmarkError(r)
        self._cow(r)
        for other in list(self._dist[r]):
            if other != r:
                self._cow(other)
                del self._dist[r][other]
                del self._dist[other][r]

    def remove_distance(self, r1: int, r2: int) -> bool:
        """Mark the pair ``(r1, r2)`` unreachable (drop its distance).

        Used by the fine-grained decremental algorithm when a deletion
        disconnects two landmarks.  Returns whether a distance was stored.
        """
        if r1 not in self._landmark_set:
            raise NotALandmarkError(r1)
        if r2 not in self._landmark_set:
            raise NotALandmarkError(r2)
        if r1 == r2:
            raise ValueError("the 0 diagonal cannot be removed")
        if r2 not in self._dist[r1]:
            return False
        self._cow(r1)
        self._cow(r2)
        del self._dist[r1][r2]
        del self._dist[r2][r1]
        return True

    def add_landmark(self, r: int) -> None:
        """Extend ``R`` with a new landmark (no distances yet).

        Used by :mod:`repro.landmarks.maintenance`; the caller is
        responsible for filling the new row and repairing the labels.
        """
        if r in self._landmark_set:
            raise ValueError(f"{r} is already a landmark")
        self._landmarks.append(r)
        self._landmark_set = frozenset(self._landmarks)
        self._dist[r] = {r: 0}

    def remove_landmark(self, r: int) -> None:
        """Drop ``r`` from ``R`` together with all its distances."""
        if r not in self._landmark_set:
            raise NotALandmarkError(r)
        if len(self._landmarks) == 1:
            raise ValueError("cannot remove the last landmark")
        self.clear_row(r)
        del self._dist[r]
        self._landmarks.remove(r)
        self._landmark_set = frozenset(self._landmarks)

    def row(self, r: int) -> dict[int, float]:
        """The distance row of ``r`` (read-only; missing keys = unreachable).

        Exposed for the query hot path, which joins label entries against
        one highway row at a time.
        """
        try:
            return self._dist[r]
        except KeyError:
            raise NotALandmarkError(r) from None

    def copy(self) -> "Highway":
        """Independent deep copy of the highway."""
        clone = Highway(self._landmarks)
        clone._dist = {r: dict(row) for r, row in self._dist.items()}
        return clone

    def as_dict(self) -> dict[int, dict[int, float]]:
        """Deep-copied plain-dict snapshot (for validation/serialization)."""
        return {r: dict(row) for r, row in self._dist.items()}

    def size_bytes(self, bytes_per_distance: int = 4) -> int:
        """Logical storage footprint: a dense |R| x |R| half-matrix.

        Mirrors how the paper's C++ implementation accounts the highway
        (32-bit distances); used by the Table 1 "Labelling Size" column.
        """
        n = len(self._landmarks)
        return n * (n - 1) // 2 * bytes_per_distance

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Highway):
            return NotImplemented
        return (
            self._landmark_set == other._landmark_set
            and self.as_dict() == other.as_dict()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Highway(|R|={len(self._landmarks)})"
