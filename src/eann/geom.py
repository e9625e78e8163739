"""Euclidean primitives: balls, axis-aligned boxes, BBD cells, and a
uniform grid of a fixed point set.

All values are immutable after construction and safe to share between
threads.  Real comparisons use an absolute tolerance of 1e-12 unless an
operation states otherwise.
"""

from __future__ import annotations

import math
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


def concat_ranges(order: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """``order[begin[i]:end[i]]`` for every i, concatenated: the rows of a
    CSR whose row offsets are ``begin`` and ``end``."""
    counts = end - begin
    if counts.size == 1:
        return order[begin[0]:end[0]]
    skip = np.repeat(begin - np.cumsum(counts) + counts, counts)
    return order.take(skip + np.arange(skip.size))


class PointGrid:
    """The ids of a fixed point set bucketed by the cells of a uniform grid
    over its bounding box, about two points per cell, as a CSR: the ids of
    cell c are ``order[start[c]:start[c + 1]]``, cells in C order."""

    __slots__ = ("low", "side", "shape", "strides", "order", "start")

    def __init__(self, points: np.ndarray):
        n, d = points.shape
        low = points.min(axis=0)
        extent = points.max(axis=0) - low
        per_axis = max(1, math.ceil((n / 2.0) ** (1.0 / d)))
        widest = float(extent.max())
        self.side = widest / per_axis if widest > 0.0 else 1.0
        shape = np.minimum(np.floor(extent / self.side).astype(np.intp) + 1, per_axis)
        strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
        axis_cells = np.clip(np.floor((points - low) / self.side), 0, shape - 1)
        cells = axis_cells.astype(np.intp) @ strides
        self.order = np.argsort(cells, kind="stable").astype(np.int32)
        self.start = np.append(0, np.cumsum(np.bincount(cells, minlength=shape.prod())))
        # Lookups do their cell arithmetic in Python floats and ints, which
        # round as numpy's elementwise arithmetic does.
        self.low, self.shape, self.strides = low.tolist(), shape.tolist(), strides.tolist()

    def within(self, low, high, reach: float) -> np.ndarray:
        """Sorted ids of the points in the cells that meet the box [low,
        high], given as float sequences, widened on every side by a little
        more than ``reach``: every point within ``reach`` of the box, and
        some others. The relative and absolute margins absorb the rounding
        of the widening and of a distance test against ``reach`` at the
        scale of the coordinates, and the smallest one keeps squared gaps
        clear of underflow. A coordinate's cell is ``floor((x - grid low) /
        side)``, clipped into the grid, so cells are monotone in the
        coordinate."""
        first, last = [], []
        for x, y, g, top in zip(low, high, self.low, self.shape):
            w = reach * (1.0 + 1e-12) + 1e-12 * max(abs(x), abs(y)) + 1e-150
            top -= 1
            for bound, out in ((x - w, first), (y + w, last)):
                t = (bound - g) / self.side
                out.append(0 if t < 1.0 else top if t >= top else int(t))
        # One slice of ``order`` per grid row along the last axis.
        rows = [0]
        for i, j, stride in zip(first[:-1], last[:-1], self.strides):
            rows = [r + stride * k for r in rows for k in range(i, j + 1)]
        start, order, i, j = self.start, self.order, first[-1], last[-1] + 1
        return np.sort(np.concatenate([order[start[r + i]:start[r + j]] for r in rows]))


def unchecked_ball(center: np.ndarray, radius: float) -> "EuclideanBall":
    """Internal constructor bypassing validation (center already a float array)."""
    b = object.__new__(EuclideanBall)
    object.__setattr__(b, "center", center)
    object.__setattr__(b, "radius", radius)
    return b


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


def unchecked_dist_point_cell(p: np.ndarray, low, high, hole) -> float:
    """``dist_point_cell`` for a float vector p and a nonempty cell: the box
    [low, high] less the interior of ``hole``, a (low, high) pair or None.
    Corners are float arrays or float sequences, which numpy converts
    exactly."""
    if (p < low).any() or (p > high).any():
        # Nearest point of the outer box lies on its boundary, which is never
        # interior to the hole, so the plain box distance is correct.
        gap = np.maximum(np.maximum(low - p, p - high), 0.0)
        return float(np.sqrt(np.dot(gap, gap)))
    if hole is None or not ((p > hole[0]).all() and (p < hole[1]).all()):
        return 0.0
    # p sits inside the hole: the nearest cell point is on the hole boundary.
    return float(min(np.min(p - hole[0]), np.min(hole[1] - p)))


def dist_point_cell(p, cell: BbdCell) -> float:
    """Minimum Euclidean distance from p to the closed cell region."""
    if cell.is_empty():
        raise ValueError("empty cell")
    inner = cell.inner
    return unchecked_dist_point_cell(as_vector(p), cell.outer.low, cell.outer.high,
                                     None if inner is None else (inner.low, inner.high))


def dist_ball_cell(ball: EuclideanBall, cell: BbdCell) -> float:
    """Minimum distance between a ball and a cell (0 if they meet)."""
    return max(0.0, dist_point_cell(ball.center, cell) - ball.radius)


def enclosing_ball(cell: BbdCell) -> EuclideanBall:
    """Ball enclosing the cell, taken as the circumscribed ball of its outer box."""
    if cell.is_empty():
        raise ValueError("empty cell")
    return cell.outer.circumball()
