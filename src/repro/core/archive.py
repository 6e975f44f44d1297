"""All-time external Pareto archive.

NSGA-II's elitism keeps good solutions *probabilistically*; an external
archive keeps the union of every nondominated point ever seen, which is
what the convergence analyses report against ("has the population
reached the best front any run has found?").  The archive stores
objective points and an opaque payload (e.g. ``(assignment, order)``
tuples) per point.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.dominance import nondominated_mask
from repro.core.objectives import BiObjectiveSpace, ENERGY_UTILITY
from repro.errors import OptimizationError
from repro.types import FloatArray

__all__ = ["ParetoArchive", "EpsilonParetoArchive"]


class ParetoArchive:
    """Maintains the nondominated set over every update.

    Duplicate objective points are collapsed to the first payload seen
    (they carry no additional front information).
    """

    def __init__(self, space: BiObjectiveSpace = ENERGY_UTILITY) -> None:
        self.space = space
        self._points = np.empty((0, 2), dtype=np.float64)
        self._payloads: list[Any] = []

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> FloatArray:
        """``(K, 2)`` archived objective points (copy)."""
        return self._points.copy()

    @property
    def payloads(self) -> list[Any]:
        """Payloads aligned with :attr:`points`."""
        return list(self._payloads)

    def update(
        self,
        points: FloatArray,
        payloads: Optional[Sequence[Any]] = None,
    ) -> int:
        """Merge *points* into the archive; returns the new archive size.

        Payloads default to ``None`` per point.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise OptimizationError(f"points must have shape (N, 2); got {pts.shape}")
        if payloads is None:
            payloads = [None] * pts.shape[0]
        if len(payloads) != pts.shape[0]:
            raise OptimizationError(
                f"{len(payloads)} payloads for {pts.shape[0]} points"
            )
        merged = np.vstack([self._points, pts])
        merged_payloads = self._payloads + list(payloads)
        mask = nondominated_mask(merged, self.space)
        keep = np.flatnonzero(mask)
        # Collapse duplicate surviving points, first occurrence wins.
        seen: dict[tuple[float, float], int] = {}
        unique_rows: list[int] = []
        for idx in keep:
            key = (float(merged[idx, 0]), float(merged[idx, 1]))
            if key not in seen:
                seen[key] = idx
                unique_rows.append(idx)
        self._points = merged[unique_rows]
        self._payloads = [merged_payloads[i] for i in unique_rows]
        return len(self)

    def front(self) -> FloatArray:
        """Archive points sorted by the first axis (ascending)."""
        order = np.lexsort((self._points[:, 1], self._points[:, 0]))
        return self._points[order]

    def dominates_point(self, point: Sequence[float]) -> bool:
        """Whether any archived point dominates *point*."""
        if len(self) == 0:
            return False
        p = np.asarray(point, dtype=np.float64)
        at_least = self.space.better_or_equal(self._points, p[None, :])
        strictly = self.space.strictly_better(self._points, p[None, :])
        return bool(np.any(at_least.all(axis=1) & strictly.any(axis=1)))


class EpsilonParetoArchive:
    """Bounded ε-dominance archive (Laumanns et al. 2002).

    Objective space is partitioned into axis-aligned ε-boxes (in
    minimization coordinates, box index ``floor(f / ε)`` per axis); the
    archive keeps at most one representative per box, and only boxes
    that are not dominated by another occupied box.  Within a box the
    point closer to the box's utopia corner wins (Pareto-dominance
    first, corner distance as the tiebreak).  This yields the two
    ε-approximation guarantees the analyses rely on: every point ever
    offered is ε-dominated by some archived point, and archived points
    are mutually non-ε-dominated — so the archive size is bounded by
    the objective ranges divided by ε, independent of run length.

    Occupied boxes are mutually non-dominated, so sorted by their
    axis-0 index their axis-1 indices strictly decrease (a staircase).
    Two sorted index lists beside the box store let a new box find its
    dominator, or the contiguous run of boxes it evicts, by bisection:
    an offer costs O(log K + evicted) index work for K occupied boxes.
    """

    def __init__(
        self,
        epsilons: Sequence[float],
        space: BiObjectiveSpace = ENERGY_UTILITY,
    ) -> None:
        eps = tuple(float(e) for e in epsilons)
        if len(eps) != 2 or any(e <= 0 for e in eps):
            raise OptimizationError(
                f"epsilons must be two positive box sizes; got {epsilons!r}"
            )
        self.epsilons = eps
        self.space = space
        # box index -> (minimization point, raw point, payload); dict
        # order is insertion order, which fixes the order of points.
        # Minimization points are Python floats: the per-offer compares
        # are scalar, and NumPy scalar overhead would dominate them.
        self._boxes: dict[
            tuple[int, int], tuple[list[float], np.ndarray, Any]
        ] = {}
        # The staircase: occupied boxes' axis-0 indices (ascending) and
        # their negated axis-1 indices (ascending as well).
        self._xs: list[int] = []
        self._neg_ys: list[int] = []

    def __len__(self) -> int:
        return len(self._boxes)

    @property
    def points(self) -> FloatArray:
        """``(K, 2)`` archived raw objective points."""
        if not self._boxes:
            return np.empty((0, 2), dtype=np.float64)
        return np.stack([raw for _, raw, _ in self._boxes.values()])

    @property
    def payloads(self) -> list[Any]:
        """Payloads aligned with :attr:`points`."""
        return [payload for _, _, payload in self._boxes.values()]

    def update(
        self,
        points: FloatArray,
        payloads: Optional[Sequence[Any]] = None,
    ) -> int:
        """Offer *points* to the archive; returns the new archive size."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise OptimizationError(f"points must have shape (N, 2); got {pts.shape}")
        if payloads is None:
            payloads = [None] * pts.shape[0]
        if len(payloads) != pts.shape[0]:
            raise OptimizationError(
                f"{len(payloads)} payloads for {pts.shape[0]} points"
            )
        fmins = self.space.to_minimization(pts).tolist()
        for fmin, raw, payload in zip(fmins, pts, payloads):
            self._offer(fmin, raw.copy(), payload)
        return len(self)

    def _offer(self, fmin: list[float], raw: np.ndarray, payload: Any) -> None:
        f0, f1 = fmin
        bx = math.floor(f0 / self.epsilons[0])
        by = math.floor(f1 / self.epsilons[1])
        box = (bx, by)
        incumbent = self._boxes.get(box)
        if incumbent is not None:
            i0, i1 = incumbent[0]
            if i0 <= f0 and i1 <= f1:
                return  # incumbent Pareto-dominates (or equals) the candidate
            if not (f0 <= i0 and f1 <= i1):
                # Incomparable within the box: closer to the box corner wins.
                eps = np.asarray(self.epsilons)
                cand = np.asarray(fmin)
                corner = np.floor(cand / eps) * eps
                if np.linalg.norm(cand - corner) >= np.linalg.norm(
                    np.asarray(incumbent[0]) - corner
                ):
                    return
            self._boxes[box] = (fmin, raw, payload)
            return
        # New box.  The occupied box with the largest axis-0 index at
        # most box[0] has the smallest axis-1 index among those; if it
        # is at most box[1] it dominates the new box.
        xs, neg_ys = self._xs, self._neg_ys
        i = bisect_right(xs, bx)
        if i and -neg_ys[i - 1] <= by:
            return
        # Otherwise evict the boxes with both indices at least the new
        # box's: from the first axis-0 index >= bx, a contiguous run
        # while the axis-1 index stays >= by.
        lo = bisect_left(xs, bx)
        hi = bisect_right(neg_ys, -by, lo)
        for other in zip(xs[lo:hi], (-y for y in neg_ys[lo:hi])):
            del self._boxes[other]
        xs[lo:hi] = [bx]
        neg_ys[lo:hi] = [-by]
        self._boxes[box] = (fmin, raw, payload)

    def front(self) -> FloatArray:
        """Archive points sorted by the first axis (ascending)."""
        pts = self.points
        if pts.shape[0] == 0:
            return pts
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        return pts[order]
