"""Euclidean primitives: balls, axis-aligned boxes, and BBD cells.

All values are immutable after construction and safe to share between
threads.  Real comparisons use an absolute tolerance of 1e-12 unless an
operation states otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ABS_TOL = 1e-12


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("vector must be one-dimensional and nonempty")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    return v


@dataclass(frozen=True, slots=True)
class EuclideanBall:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, x) -> bool:
        return float(np.linalg.norm(as_vector(x) - self.center)) <= self.radius + ABS_TOL

    def distance_to_point(self, x) -> float:
        """Euclidean distance from x to the closed ball (0 if inside)."""
        return max(0.0, float(np.linalg.norm(as_vector(x) - self.center)) - self.radius)


@dataclass(frozen=True, slots=True)
class AlignedBox:
    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "low", as_vector(self.low))
        object.__setattr__(self, "high", as_vector(self.high))
        if self.low.size != self.high.size:
            raise ValueError("box corner dimensions differ")
        if np.any(self.low > self.high):
            raise ValueError("box has low > high")

    @property
    def dim(self) -> int:
        return self.low.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.low + self.high)

    @property
    def sides(self) -> np.ndarray:
        return self.high - self.low

    def contains(self, x, tol: float = ABS_TOL) -> bool:
        v = as_vector(x)
        return bool(np.all(v >= self.low - tol) and np.all(v <= self.high + tol))

    def distance_to_point(self, x) -> float:
        v = as_vector(x)
        gap = np.maximum(np.maximum(self.low - v, v - self.high), 0.0)
        return float(np.linalg.norm(gap))

    def circumball(self) -> EuclideanBall:
        return EuclideanBall(self.center, float(np.linalg.norm(self.sides) / 2.0))


def box_distances(low: np.ndarray, high: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances from each row of `points` to the box [low, high]."""
    gap = np.maximum(np.maximum(low[None, :] - points, points - high[None, :]), 0.0)
    return np.linalg.norm(gap, axis=1)


def unchecked_ball(center: np.ndarray, radius: float) -> "EuclideanBall":
    """Internal constructor bypassing validation (center already a float array)."""
    b = object.__new__(EuclideanBall)
    object.__setattr__(b, "center", center)
    object.__setattr__(b, "radius", radius)
    return b


def unchecked_box(low: np.ndarray, high: np.ndarray) -> "AlignedBox":
    box = object.__new__(AlignedBox)
    object.__setattr__(box, "low", low)
    object.__setattr__(box, "high", high)
    return box


def unchecked_cell(outer: "AlignedBox", inner: "AlignedBox | None") -> "BbdCell":
    cell = object.__new__(BbdCell)
    object.__setattr__(cell, "outer", outer)
    object.__setattr__(cell, "inner", inner)
    return cell


@dataclass(frozen=True, slots=True)
class BbdCell:
    """A box with an optional box-shaped hole: the region outer \\ interior(inner)."""

    outer: AlignedBox
    inner: AlignedBox | None = field(default=None)

    def __post_init__(self):
        if self.inner is not None:
            inside = np.all(self.inner.low >= self.outer.low - ABS_TOL) and np.all(
                self.inner.high <= self.outer.high + ABS_TOL
            )
            if not inside:
                raise ValueError("inner box must be contained in outer box")

    @property
    def dim(self) -> int:
        return self.outer.dim

    def is_empty(self) -> bool:
        """True iff the hole is the whole box, compared exactly: cells of
        any size, down to the smallest floats, keep their own region."""
        if self.inner is None:
            return False
        return bool(np.array_equal(self.inner.low, self.outer.low)
                    and np.array_equal(self.inner.high, self.outer.high))

    def contains(self, x, tol: float = ABS_TOL) -> bool:
        v = as_vector(x)
        if not self.outer.contains(v, tol):
            return False
        if self.inner is None:
            return True
        strictly_inside = bool(
            np.all(v > self.inner.low + tol) and np.all(v < self.inner.high - tol)
        )
        return not strictly_inside


def separation_ratio(p, ball: EuclideanBall) -> float:
    """dist(p, B) / diam(B) for a ball of positive radius."""
    if ball.radius <= 0.0:
        raise ValueError("degenerate ball")
    return ball.distance_to_point(p) / ball.diameter


def is_separated(p, ball: EuclideanBall, beta: float) -> bool:
    """True iff p is beta-separated from the ball: dist(p,B)/diam(B) >= beta."""
    return separation_ratio(p, ball) >= beta


def unchecked_dist_point_cell(p: np.ndarray, cell: BbdCell) -> float:
    """``dist_point_cell`` for a float vector p and a nonempty cell."""
    olo, ohi = cell.outer.low, cell.outer.high
    if (p < olo).any() or (p > ohi).any():
        # Nearest point of the outer box lies on its boundary, which is never
        # interior to the hole, so the plain box distance is correct.
        gap = np.maximum(np.maximum(olo - p, p - ohi), 0.0)
        return float(np.sqrt(np.dot(gap, gap)))
    inner = cell.inner
    if inner is None or not ((p > inner.low).all() and (p < inner.high).all()):
        return 0.0
    # p sits inside the hole: the nearest cell point is on the hole boundary.
    return float(min(np.min(p - inner.low), np.min(inner.high - p)))


def dist_point_cell(p, cell: BbdCell) -> float:
    """Minimum Euclidean distance from p to the closed cell region."""
    if cell.is_empty():
        raise ValueError("empty cell")
    return unchecked_dist_point_cell(as_vector(p), cell)


def dist_ball_cell(ball: EuclideanBall, cell: BbdCell) -> float:
    """Minimum distance between a ball and a cell (0 if they meet)."""
    return max(0.0, dist_point_cell(ball.center, cell) - ball.radius)


def enclosing_ball(cell: BbdCell) -> EuclideanBall:
    """Ball enclosing the cell, taken as the circumscribed ball of its outer box."""
    if cell.is_empty():
        raise ValueError("empty cell")
    return cell.outer.circumball()
