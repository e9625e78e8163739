"""Box-decomposition tree whose leaves separate sites into an in-cell
singleton, a far cluster, and a tightly-clustered ball.

For every leaf the site set splits three ways: at most one site inside the
leaf cell; "outer" sites whose distance to the cell's enclosing ball is at
least alpha times that ball's diameter; and remaining "inner" sites packed
in a ball B_w whose distance to the cell is at least beta times the ball's
own diameter. The tree alternates midpoint splits with shrinks toward
dense site clusters, and cells are boxes with at most one box-shaped hole.

Nodes expand on demand (locating a point only materializes the root-to-leaf
path); the structure is a pure function of the sites and configuration, so
results never depend on query order. ``materialize()`` forces the full tree
for statistics and invariant checks. For the same reason a tree is
serialized as its configuration record alone (``to_bytes``): a loader
rebuilds the lazy tree from the sites and checks the record against it.

Nodes are rows of a flat table: columns of kind, split axis and midpoint,
outer and hole bounds, child ids and depth, with no object per node. Only a
built leaf has an object, ``AvdLeaf``, which ``locate`` returns. Site ids
live in one int32 pool: a pending node's ``assigned`` sites, the positions
routed into its cell, are a span of it, and its near parts a chain of spans.

A node's near set, the sites that may still be inner somewhere below it,
is built only where the leaf test reads it: at a node with at most one
assigned site. Until then a pending node keeps its near parts, the near set
of its nearest ancestor that built one followed by the sites routed away
from it at each split or shrink since, unfiltered and in order. One filter
against the node's own box gives exactly the set, in exactly the order,
that filtering at every level would: a site the filter keeps at a node
passes at every ancestor too, whose box contains the node's and whose
reach is no smaller. A slab along the axis of widest site spread drops
most far candidates before the exact box distances.

Below a node with at most one assigned site every node has at most one, so
its subtree only ever splits at midpoints. ``locate`` descends such a chain
in batches: it computes the query's path cells for several levels, filters
the chain's one candidate array (the top's near set and its site) against
all of their boxes at once and leaf-tests every level at once, then keeps
the levels down to the first that passes. The pending siblings it leaves
share one candidate array as their near parts: the top's near parts and
its site. ``materialize`` expands such a node's whole subtree, one level of
cells per leaf test, through the same test and split rule, so lazy and
materialized trees are the same.
"""

from __future__ import annotations

import math
import struct
import threading
from array import array
from dataclasses import dataclass

import numpy as np

from .geom import (
    AlignedBox,
    BbdCell,
    EuclideanBall,
    box_distances,
    dist_ball_cell,
    enclosing_ball,
    unchecked_ball,
    unchecked_box,
    unchecked_cell,
    unchecked_dist_point_cell,
)

_PENDING, _SPLIT, _SHRINK, _LEAF = 0, 1, 2, 3
# Site and position ids; the pool of a cold index holds many.
_ID = np.int32
# The id array of every leaf without in-cell or inner sites.
_NO_IDS = np.zeros(0, dtype=_ID)
_NO_IDS.flags.writeable = False
# Halvings the depth budget allows beyond its estimate.
_DEPTH_SLACK = 8
# The most cells a descent's first batch takes; later batches double it.
_CHAIN_LEVELS = 32
# Serialized tree configuration: dimension (u32), alpha, beta (f64), max_depth (u32).
CONFIG_RECORD = struct.Struct("<IddI")


@dataclass(frozen=True)
class AvdConfig:
    """Separation factors of the leaves, and the least depth at which
    expansion gives up; a tree allows more where its sites need it."""

    alpha: float
    beta: float
    max_depth: int = 96

    def __post_init__(self):
        if self.alpha < 2.0 or self.beta < 2.0:
            raise ValueError("alpha and beta must be at least 2")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")


class AvdLeaf:
    """A built leaf: its node in the tree's table, its in-cell and inner
    positions and the inner ball. The cell is read from the table."""

    __slots__ = ("tree", "node", "in_cell", "inner", "inner_ball", "attachment")

    def __init__(self, tree: AvdTree, node: int, in_cell: np.ndarray, inner: np.ndarray,
                 inner_ball: EuclideanBall | None):
        self.tree = tree
        self.node = node
        self.in_cell = in_cell
        self.inner = inner
        self.inner_ball = inner_ball
        self.attachment = None  # filled lazily by the query layer

    @property
    def cell(self) -> BbdCell:
        return _bbd_cell(self.tree._cell(self.node))

    @property
    def depth(self) -> int:
        return self.tree._depth[self.node]

    @property
    def n_positions(self) -> int:
        return self.tree.n_positions

    def outer_positions(self) -> np.ndarray:
        used = np.concatenate([self.in_cell, self.inner])
        return np.setdiff1d(np.arange(self.n_positions), used)


# A cell is (low, high, hole) with float lists for the corners and hole
# None or a (low, high) pair; floats keep Python arithmetic bit-identical to
# numpy's elementwise arithmetic.

def _bbd_cell(cell) -> BbdCell:
    lo, hi, hole = cell
    inner = None if hole is None else unchecked_box(np.array(hole[0]), np.array(hole[1]))
    return unchecked_cell(unchecked_box(np.array(lo), np.array(hi)), inner)


def _make_cell(lo: list, hi: list, hole):
    """Build a cell, absorbing a hole that fills an exact half of the box."""
    if hole is None:
        return lo, hi, None
    ilo, ihi = hole
    d = len(lo)
    for a in range(d):
        if any(ilo[b] != lo[b] or ihi[b] != hi[b] for b in range(d) if b != a):
            continue
        mid = 0.5 * (lo[a] + hi[a])
        if ilo[a] == lo[a] and ihi[a] == mid:
            lo = lo.copy()
            lo[a] = mid
            return lo, hi, None
        if ilo[a] == mid and ihi[a] == hi[a]:
            hi = hi.copy()
            hi[a] = mid
            return lo, hi, None
    return lo, hi, hole


def _nonempty(cell):
    """The cell, or None where its hole is the whole box, compared
    exactly: cells of any size, down to the smallest floats, keep their
    own region."""
    hole = cell[2]
    return None if hole is not None and hole[0] == cell[0] and hole[1] == cell[1] else cell


def _split(cell) -> tuple[int, float, tuple]:
    """The midpoint split of a cell: its axis, the midpoint, and the lower
    and upper child cells, None for a side the hole swallows whole."""
    lo, hi, hole = cell
    # Split the longest axis whose midpoint falls strictly inside (the
    # first of the longest): an axis one float wide has its midpoint
    # rounded onto an end.
    axis, width = 0, -1.0
    for a, (l, h) in enumerate(zip(lo, hi)):
        if l < 0.5 * (l + h) < h and h - l > width:
            axis, width = a, h - l
    mid = 0.5 * (lo[axis] + hi[axis])
    lo_hi = hi.copy()
    lo_hi[axis] = mid
    hi_lo = lo.copy()
    hi_lo[axis] = mid
    inner_lo = inner_hi = None
    if hole is not None:
        ilo, ihi = hole
        if 0.5 * (ilo[axis] + ihi[axis]) < mid:
            ihi = ihi.copy()
            ihi[axis] = min(ihi[axis], mid)
            inner_lo = (ilo, ihi)
        else:
            ilo = ilo.copy()
            ilo[axis] = max(ilo[axis], mid)
            inner_hi = (ilo, ihi)
    return axis, mid, (_nonempty(_make_cell(lo, lo_hi, inner_lo)),
                       _nonempty(_make_cell(hi_lo, hi, inner_hi)))


def _side(kids: tuple, x: float, mid: float) -> int:
    """The child a coordinate routes to: low edge closed, and the sibling
    where the hole swallowed its side."""
    i = 1 if x >= mid else 0
    return i if kids[i] is not None else 1 - i


def _slab(low, high, reach: float):
    """Bounds of the slab that holds every point within ``reach`` of the
    interval [low, high] along one axis, or along each axis for arrays. A
    point outside it is at least ``reach`` from any box with that extent on
    the axis, also as computed in floating point: the relative and absolute
    margins absorb the rounding of both tests, and the smallest one keeps
    squared gaps clear of underflow."""
    w = reach * (1.0 + 1e-12) + 1e-12 * np.maximum(np.abs(low), np.abs(high)) + 1e-150
    return low - w, high + w


def _points_in_box(P: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Half-open membership mask (low edge closed), matching routing."""
    return np.all(P >= low[None, :], axis=1) & np.all(P < high[None, :], axis=1)


def _half_diagonal(low: np.ndarray, high: np.ndarray) -> float:
    side = high - low
    return 0.5 * math.sqrt(float(np.dot(side, side)))


def _depth_budget(positions: np.ndarray, side: float, cfg: AvdConfig) -> int:
    """Depth at which expansion gives up: ``cfg.max_depth``, or more where
    the sites need it. A cell's sides halve once every d levels or faster.
    A leaf holding one of the two sites whose coordinates are closest on
    some axis, ``gap`` apart, has sides below about gap / (4 alpha + 2):
    about log2(side / gap) + log2(4 alpha + 2) halvings of the root."""
    gaps = np.diff(np.sort(positions, axis=0), axis=0)
    gaps = gaps[gaps > 0]
    if gaps.size == 0:
        return cfg.max_depth
    halvings = (math.log2(side) - math.log2(float(gaps.min()))
                + math.log2(4.0 * cfg.alpha + 2.0))
    return max(cfg.max_depth, positions.shape[1] * (math.ceil(halvings) + _DEPTH_SLACK))


class AvdTree:
    def __init__(self, sites: np.ndarray, cfg: AvdConfig):
        sites = np.asarray(sites, dtype=float)
        if sites.ndim != 2 or len(sites) < 1:
            raise ValueError("no sites")
        if not np.all(np.isfinite(sites)):
            raise ValueError("sites must be finite")
        self.cfg = cfg
        self.positions, inverse = np.unique(sites, axis=0, return_inverse=True)
        self.position_of_site = inverse.astype(_ID)
        self.n_positions = len(self.positions)

        center = 0.5 * (sites.min(axis=0) + sites.max(axis=0))
        extent = float(np.max(sites.max(axis=0) - sites.min(axis=0)))
        side = 1.2 * extent + 1e-9 + 1e-9 * abs(extent)
        half = np.full(sites.shape[1], side / 2.0)
        self.root_box = AlignedBox(center - half, center + half)
        # Slab prefilter of the near filter: the positions sorted by their
        # coordinate along the axis of widest spread, and those coordinates.
        P = self.positions
        self._slab_axis = int(np.argmax(P.max(axis=0) - P.min(axis=0)))
        self._slab_order = np.argsort(P[:, self._slab_axis], kind="stable").astype(_ID)
        self._slab_sorted = P[:, self._slab_axis].take(self._slab_order)
        self._depth_budget = _depth_budget(P, side, cfg)
        # The largest coordinate magnitude of any site or cell.
        self._scale = float(max(np.abs(P).max(), np.abs(self.root_box.low).max(),
                                np.abs(self.root_box.high).max()))
        self._lock = threading.RLock()
        self._expansions = 0

        # The node table, one row per node. The columns a warm locate reads
        # on every visit are lists, whose items it reads without allocating.
        self._kind: list[int] = []
        self._axis: list[int] = []  # split axis, or -1
        self._mid: list[float] = []  # split midpoint
        self._kids: list[int] = []  # two per node, -1 where a side has no child
        self._depth = array("i")
        self._box = array("d")    # 4d per node: outer low, outer high, hole low, hole high
        self._holed = array("b")
        self._span = array("i")   # two per node: offset and count of its assigned ids
        self._near = array("i")   # a pending node's last near-part segment, or -1
        self._leaf = array("i")   # a leaf's index in _leaves, or -1
        # Near-part segments, three per segment: the previous segment (-1
        # ends the chain), offset and count; a chain lists its parts last
        # to first.
        self._seg = array("i")
        self._ids = np.empty(max(64, 2 * self.n_positions), dtype=_ID)
        self._n_ids = 0
        self._no_hole = [0.0] * (2 * self.dim)
        self._leaves: list[AvdLeaf] = []
        root = self.root_box
        self._root_lo, self._root_hi = root.low.tolist(), root.high.tolist()
        self._add_nodes([(0, (self._root_lo, self._root_hi, None),
                          self._push(np.arange(self.n_positions, dtype=_ID)), -1)])

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    # -- the table -----------------------------------------------------------

    def _push(self, ids: np.ndarray) -> tuple[int, int]:
        """Append ids to the pool; returns their span."""
        n = len(ids)
        off = self._n_ids
        if off + n > len(self._ids):
            grown = np.empty(max(2 * len(self._ids), off + n), dtype=_ID)
            grown[:off] = self._ids[:off]
            self._ids = grown
        self._ids[off:off + n] = ids
        self._n_ids = off + n
        return off, n

    def _segment(self, prev: int, span: tuple[int, int]) -> int:
        """The near-part chain ``prev`` followed by a span; ``prev`` itself
        for an empty span."""
        if span[1] == 0:
            return prev
        self._seg.extend((prev, *span))
        return len(self._seg) // 3 - 1

    def _add_nodes(self, rows: list) -> int:
        """Append pending nodes, one per (depth, cell, span, near) row;
        returns the id of the first."""
        first, n = len(self._kind), len(rows)
        box, holed, spans = [], [], []
        for _, (lo, hi, hole), span, _ in rows:
            box += lo
            box += hi
            box += self._no_hole if hole is None else hole[0] + hole[1]
            holed.append(hole is not None)
            spans += span
        self._kind.extend([_PENDING] * n)
        self._axis.extend([-1] * n)
        self._mid.extend([0.0] * n)
        self._kids.extend([-1] * (2 * n))
        self._depth.extend([row[0] for row in rows])
        self._box.extend(box)
        self._holed.extend(holed)
        self._span.extend(spans)
        self._near.extend([row[3] for row in rows])
        self._leaf.extend([-1] * n)
        return first

    def _cell(self, node: int):
        d = self.dim
        b = self._box[4 * d * node:4 * d * (node + 1)].tolist()
        hole = (b[2 * d:3 * d], b[3 * d:]) if self._holed[node] else None
        return b[:d], b[d:2 * d], hole

    def _assigned(self, node: int) -> np.ndarray:
        off, n = self._span[2 * node:2 * node + 2]
        return self._ids[off:off + n]

    def _retire(self, node: int, kind: int) -> None:
        """Mark a pending node expanded: it keeps no ids any more."""
        self._kind[node] = kind
        self._span[2 * node:2 * node + 2] = array("i", (0, 0))
        self._near[node] = -1

    def tree_nodes(self) -> int:
        return len(self._kind)

    def tree_bytes(self) -> int:
        """Bytes held by the node columns, the segments and the id pool. A
        list column holds an 8-byte slot per item, and the float of each
        split's midpoint and the int of each child id above the ints Python
        shares are objects of 24 and 28 bytes."""
        lists = (self._kind, self._axis, self._mid, self._kids)
        arrays = (self._depth, self._box, self._holed, self._span, self._near, self._leaf,
                  self._seg)
        return (sum(8 * len(c) for c in lists) + sum(c.itemsize * len(c) for c in arrays)
                + 24 * self._kind.count(_SPLIT) + 28 * sum(k > 256 for k in self._kids)
                + self._ids.nbytes)

    # -- expansion ---------------------------------------------------------

    def _near_parts(self, node: int) -> np.ndarray:
        """The node's near parts, concatenated in order."""
        spans = []
        s = self._near[node]
        while s >= 0:
            s, off, n = self._seg[3 * s:3 * s + 3]
            spans.append(self._ids[off:off + n])
        if not spans:
            return _NO_IDS
        return spans[0] if len(spans) == 1 else np.concatenate(spans[::-1])

    def _near_filter(self, cand: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """The candidates, in order, that lie nearer to the box [low, high]
        than (2 alpha + 1) times its circumradius. Slabs about the box along
        the axis of widest site spread, then along every axis, drop most
        far candidates before the exact box distances."""
        if len(cand) == 0:
            return cand
        reach = (2.0 * self.cfg.alpha + 1.0) * _half_diagonal(low, high)
        a = self._slab_axis
        lo, hi = _slab(float(low[a]), float(high[a]), reach)
        xs = self._slab_sorted
        i, j = np.searchsorted(xs, lo, "left"), np.searchsorted(xs, hi, "right")
        if len(cand) > j - i:
            inside = np.zeros(self.n_positions, dtype=bool)
            inside[self._slab_order[i:j]] = True
            cand = cand.compress(inside.take(cand))
        pts = self.positions.take(cand, axis=0)
        # A few candidates go straight to the exact distances.
        if len(cand) > 64:
            lo, hi = _slab(low, high, reach)
            keep = np.ones(len(cand), dtype=bool)
            for a, col in enumerate(pts.T):
                keep &= (col >= lo[a]) & (col <= hi[a])
            keep = np.flatnonzero(keep)
            cand, pts = cand.take(keep), pts.take(keep, axis=0)
        return cand.compress(box_distances(low, high, pts) < reach)

    def _leaf_tests(self, cand: np.ndarray, X: np.ndarray, d2: np.ndarray, site_off,
                    cells: list, first: bool = True) -> list:
        """Leaf-test cells below one node holding at most one site at once;
        returns (index, inner positions, ball) for each cell that passes, in
        order, or for the first only where ``first``.

        ``cand`` is the near set of that node, followed by its site where it
        has one, and ``X`` their points; ``site_off[j]`` is True where that
        site is not assigned to cell j, so that it is a candidate there.
        ``d2`` holds the squared distances of ``cand`` to one point of every
        cell, or one row per cell to a point of that cell. By the nesting of
        the boxes, cell j's near set is ``cand`` filtered against its box,
        and its rest set (the near candidates that are not outer) lies
        within (2 alpha + 2) r of any point of the cell, r the cell's
        half-diagonal; candidates within (2 alpha) r of it are surely in the
        rest set.

        A rest set too wide for a beta-separated ball fails its cell: a ball
        about any center has radius at least half the set's extent along any
        axis, while the set's center lies within (2 alpha + 2) r of the cell.
        So a cell fails where the near candidate nearest to its point and
        another within (2 alpha) r of that point lie too far apart along some
        axis. The other cells take the candidates within (2 alpha + 2) r of
        their point; one pass over those rows gives their near and outer
        masks as the one-cell test computes them, and each rest set that is
        neither empty nor too wide gets the exact ball test. The margins ``err`` and 1e-9 cover the rounding of both
        computations at the scale of the coordinates, and underflow."""
        K, M, d = len(cells), len(cand), self.dim
        if M == 0:
            return [(j, _NO_IDS, None) for j in range(1 if first else K)]
        box = np.array([c[0] + c[1] for c in cells])
        L, H = box[:, :d], box[:, d:]
        alpha, beta = self.cfg.alpha, self.cfg.beta
        err = 16.0 * (M + d) * np.finfo(float).eps * self._scale + 1e-150
        side = H - L
        tested = np.arange(K)
        near_count = M - 1 if len(site_off) else M
        # One row of squared distances, or one per cell.
        d2 = d2.reshape(-1, M)
        # A few cells go straight to the exact masks.
        if K > 3 and near_count:
            # The near candidate nearest to a cell's point, and how far each
            # other one lies from it along some axis: both in a rest set
            # make its extent at least that far.
            r = 0.5 * np.sqrt(np.einsum("kd,kd->k", side, side))
            sure = np.maximum(2.0 * alpha * r * (1.0 - 1e-9) - err, 0.0)
            pts = X[:near_count]
            near_d2 = d2[:, :near_count]
            nearest = pts.take(np.argmin(near_d2, axis=1), axis=0)
            ext = np.abs(pts[None, :, 0] - nearest[:, 0, None])
            for a in range(1, d):
                ext = np.maximum(ext, np.abs(pts[None, :, a] - nearest[:, a, None]))
            wide = 2.0 * (((2.0 * alpha + 2.0) * r * (1.0 + 1e-9) + err) / (2.0 * beta + 1.0)
                          + err) / (1.0 - 1e-9)
            wide = ((near_d2 < (sure * sure)[:, None]) & (ext > wide[:, None])).any(axis=1)
            tested = tested.compress(~wide)
            if not len(tested):
                return []
        # The exact masks of the remaining cells.
        L, H = L.take(tested, axis=0), H.take(tested, axis=0)
        r = 0.5 * np.sqrt(np.array([float(np.dot(s, s)) for s in side.take(tested, axis=0)]))
        bound = (2.0 * alpha + 2.0) * r * (1.0 + 1e-9) + err
        if len(d2) > 1:
            d2 = d2.take(tested, axis=0)
        # Row-major: ``level`` does not decrease.
        level, rows = np.nonzero(d2 <= (bound * bound)[:, None])
        Y = X.take(rows, axis=0)
        rr = r.take(level)
        gap = np.maximum(np.maximum(L.take(level, axis=0) - Y, Y - H.take(level, axis=0)), 0.0)
        near = np.linalg.norm(gap, axis=1) < (2.0 * alpha + 1.0) * rr
        diff = Y - (0.5 * (L + H)).take(level, axis=0)
        dists = np.sqrt(np.einsum("md,md->m", diff, diff)) - rr
        rest = near & ~(dists >= alpha * 2.0 * rr)
        if len(site_off):
            site = np.flatnonzero(rows == M - 1)
            rest[site] &= site_off.take(tested.take(level.take(site)))
        rest = np.flatnonzero(rest)
        ends = np.cumsum(np.bincount(level.take(rest), minlength=len(tested))).tolist()
        passed, start = [], 0
        for j, end in zip(tested.tolist(), ends):
            if start == end:
                passed.append((j, _NO_IDS, None))
            else:
                inner = cand.take(rows.take(rest[start:end]))
                ball = self._inner_ball(inner, cells[j])
                if ball is not None:
                    passed.append((j, inner, ball))
            if first and passed:
                break
            start = end
        return passed

    def _inner_ball(self, inner: np.ndarray, cell) -> EuclideanBall | None:
        """The ball around the inner positions, or None where it is not
        beta-separated from the cell."""
        pts = self.positions.take(inner, axis=0)
        # ``pts.mean(axis=0)``, without its Python overhead.
        bc = np.add.reduce(pts, axis=0) / len(pts)
        rel = pts - bc
        br = math.sqrt(float(np.einsum("md,md->m", rel, rel).max())) * (1.0 + 1e-9)
        gap = unchecked_dist_point_cell(bc, _bbd_cell(cell)) - br
        if gap < self.cfg.beta * 2.0 * br:
            return None
        return unchecked_ball(bc, br)

    def _descend(self, node: int, qa: list) -> int:
        """Expand the pending node ``node``, which holds at most one site,
        and every node below it on the path of the point ``qa``, down to the
        leaf that ``qa`` reaches; returns that leaf.

        Every node on the path holds at most one site and splits at its
        midpoint. Each batch takes the path's next cells, leaf-tests them at
        once, and keeps the cells down to the first that passes: the failing
        ones become split nodes, each with a pending sibling, and the passing
        one a leaf. A failing cell at the depth budget raises."""
        q = np.array(qa)
        levels = _CHAIN_LEVELS
        parts = self._near_parts(node)
        while True:
            depth = self._depth[node]
            site = self._assigned(node).copy()
            cell = self._cell(node)
            near = self._near_filter(parts, np.array(cell[0]), np.array(cell[1]))
            cand = np.concatenate([near, site]) if len(site) else near
            X = self.positions.take(cand, axis=0)
            rel = X - q
            count = min(levels, self._depth_budget - depth + 1)
            cells, splits, held = self._path(cell, site, qa, np.einsum("md,md->m", rel, rel),
                                             len(near), count)
            # Distances to the last cell's center, which lies in every cell.
            rel = X - 0.5 * (np.array(cells[-1][0]) + np.array(cells[-1][1]))
            site_off = np.logical_not(held) if len(site) else _NO_IDS
            tested = self._leaf_tests(cand, X, np.einsum("md,md->m", rel, rel), site_off, cells)
            if not tested:
                self._expansions += len(cells)
                if depth + len(cells) > self._depth_budget:
                    self._commit(node, splits[:-1], held)
                    lo, hi, _ = cells[-1]
                    raise RuntimeError(
                        f"max depth exceeded at cell [{np.array(lo)}, {np.array(hi)}]")
                node = self._commit(node, splits, held)
                # The next batch filters its near set from this one's.
                parts = near if self._span[2 * node + 1] else cand
                levels *= 2
                continue
            (stop, inner, ball), = tested
            self._expansions += stop + 1
            leaf = self._commit(node, splits[:stop], held)
            self._make_leaf(leaf, site if held[stop] else _NO_IDS, inner, ball)
            return leaf

    def _path(self, cell, site: np.ndarray, qa: list, d2: np.ndarray, m: int,
              count: int) -> tuple[list, list, list]:
        """The cells of the path of ``qa`` from ``cell`` down, at most
        ``count`` of them, with each one's split and whether it holds the
        site. The path ends early at a cell that should pass the leaf test:
        one whose near candidates, the first ``m`` of those whose squared
        distances to ``qa`` are ``d2`` and the site once it has left the
        path, all lie beyond (2 alpha + 2) half-diagonals of ``qa``, so that
        none is inner where the cell holds ``qa``."""
        x = self.positions[site[0]].tolist() if len(site) else None
        far = math.sqrt(float(d2[:m].min())) if m else math.inf
        site_far = math.sqrt(float(d2[m])) if len(site) else math.inf
        scale = 2.0 * self.cfg.alpha + 2.0
        cells, splits, held = [cell], [], [x is not None]
        for j in range(count):
            lo, hi, _ = cell = cells[j]
            axis, mid, kids = _split(cell)
            s = _side(kids, x[axis], mid) if held[j] else -1
            w = _side(kids, qa[axis], mid)
            splits.append((axis, mid, kids, s, w))
            reach = scale * math.dist(lo, hi) / 2.0
            if j + 1 == count or reach * (1.0 + 1e-9) < (far if held[j] else min(far, site_far)):
                break
            cells.append(kids[w])
            held.append(s == w)
        return cells, splits, held

    def _commit(self, node: int, splits: list, held: list) -> int:
        """Make ``node`` and the path nodes below it split nodes, one per
        entry of ``splits``, with pending children; returns the path node
        below the last. The children share one candidate array as near
        parts: the near parts of ``node`` followed by its site, which a
        child holding the site leaves out. Filtered against a child's box
        it gives the child's near set, as the near set of its parent would."""
        if not splits:
            return node
        depth = self._depth[node]
        span = tuple(self._span[2 * node:2 * node + 2])
        without = self._near[node]
        with_site = self._segment(without, span)
        rows, path, kids_of = [], [node], []
        next_id = len(self._kind)
        for j, (_, _, kids, s, w) in enumerate(splits):
            ids = [-1, -1]
            for i in (0, 1):
                if kids[i] is not None:
                    got = held[j] and s == i
                    rows.append((depth + j + 1, kids[i], span if got else (0, 0),
                                 without if got else with_site))
                    ids[i] = next_id
                    next_id += 1
            kids_of.append(ids)
            path.append(ids[w])
        self._add_nodes(rows)
        for j, (axis, mid, _, _, _) in enumerate(splits):
            parent = path[j]
            self._retire(parent, _SPLIT)
            self._axis[parent] = axis
            self._mid[parent] = mid
            self._kids[2 * parent:2 * parent + 2] = kids_of[j]
        return path[-1]

    def _make_leaf(self, node: int, in_cell: np.ndarray, inner: np.ndarray,
                   ball: EuclideanBall | None) -> None:
        self._leaf[node] = len(self._leaves)
        self._leaves.append(AvdLeaf(self, node, in_cell, inner, ball))
        self._retire(node, _LEAF)

    @staticmethod
    def _shrink_target(low: np.ndarray, high: np.ndarray, pts: np.ndarray):
        """The quadtree box a shrink descends to around the sites ``pts`` of
        a cell without a hole, as (low, high) lists, or None where the cell
        splits instead."""
        n_total = len(pts)
        lo = low.copy()
        hi = high.copy()
        d = lo.size
        descended = False
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            keys = (pts >= mid[None, :]) @ (1 << np.arange(d))
            counts = np.bincount(keys, minlength=1 << d)
            best = int(np.argmax(counts))
            if counts[best] <= (2.0 / 3.0) * n_total:
                break
            pts = pts.compress(keys == best, axis=0)
            for a in range(d):
                if best >> a & 1:
                    lo[a] = mid[a]
                else:
                    hi[a] = mid[a]
            descended = True
        return (lo.tolist(), hi.tolist()) if descended else None

    def _expand_sites(self, node: int) -> None:
        """Expand a pending node holding two or more sites: shrink toward
        their cluster, or split at the midpoint. Its children filter their
        near sets from its near parts plus the sites routed to the sibling."""
        self._expansions += 1
        depth = self._depth[node]
        if depth >= self._depth_budget:
            lo, hi, _ = self._cell(node)
            raise RuntimeError(f"max depth exceeded at cell [{np.array(lo)}, {np.array(hi)}]")
        cell = lo, hi, hole = self._cell(node)
        assigned = self._assigned(node).copy()
        pts = self.positions.take(assigned, axis=0)
        qbox = None if hole is not None else self._shrink_target(np.array(lo), np.array(hi), pts)
        if qbox is not None:
            in_q = _points_in_box(pts, np.array(qbox[0]), np.array(qbox[1]))
            parts = [assigned.compress(in_q), assigned.compress(~in_q)]
            kids = ((*qbox, None), _make_cell(lo, hi, qbox))
            kind, axis, mid = _SHRINK, -1, 0.0
        else:
            axis, mid, kids = _split(cell)
            side = pts[:, axis] >= mid
            parts = [assigned.compress(~side), assigned.compress(side)]
            # A side swallowed whole by the hole gets no child; sites routed
            # there sit on the hole boundary and belong to the sibling, which
            # is also where locate falls back to.
            for i in (0, 1):
                if kids[i] is None and len(parts[i]) > 0:
                    parts[1 - i] = np.sort(np.concatenate([parts[1 - i], parts[i]]))
                    parts[i] = _NO_IDS
            kind = _SPLIT
        spans = [self._push(p) for p in parts]
        base = self._near[node]
        rows = [(depth + 1, kids[i], spans[i], self._segment(base, spans[1 - i]))
                for i in (0, 1) if kids[i] is not None]
        first = self._add_nodes(rows)
        ids = [first, first + 1] if len(rows) == 2 else \
            [first if kids[0] is not None else -1, first if kids[1] is not None else -1]
        self._retire(node, kind)
        self._axis[node] = axis
        self._mid[node] = mid
        self._kids[2 * node:2 * node + 2] = ids

    def _expand_subtree(self, node: int) -> None:
        """Expand the pending node ``node``, which holds at most one site,
        and its whole subtree. Each level of the subtree's cells is
        leaf-tested at once against the node's near set and site, with the
        distances to each cell's center; the cells that fail split as on a
        descent, and a failing cell at the depth budget raises."""
        d = self.dim
        site = self._assigned(node).copy()
        lo, hi, _ = cell = self._cell(node)
        near = self._near_filter(self._near_parts(node), np.array(lo), np.array(hi))
        cand = np.concatenate([near, site]) if len(site) else near
        X = self.positions.take(cand, axis=0)
        x = self.positions[site[0]].tolist() if len(site) else None
        # Cells per test, so that the distances take a few MB at most.
        width = max(1, (1 << 18) // (d * max(1, len(cand))))
        level = [(node, cell, x is not None)]
        while level:
            below = []
            for b in range(0, len(level), width):
                batch = level[b:b + width]
                cells = [c for _, c, _ in batch]
                box = np.array([c[0] + c[1] for c in cells])
                rel = X[None, :, :] - (0.5 * (box[:, :d] + box[:, d:]))[:, None, :]
                site_off = (np.array([not held for _, _, held in batch]) if x is not None
                            else _NO_IDS)
                passed = {j: (inner, ball) for j, inner, ball in self._leaf_tests(
                    cand, X, np.einsum("kmd,kmd->km", rel, rel), site_off, cells, first=False)}
                for j, (n, (lo, hi, _), _) in enumerate(batch):
                    if j not in passed and self._depth[n] >= self._depth_budget:
                        raise RuntimeError(
                            f"max depth exceeded at cell [{np.array(lo)}, {np.array(hi)}]")
                self._expansions += len(batch)
                for j, (n, c, held) in enumerate(batch):
                    if j in passed:
                        self._make_leaf(n, site if held else _NO_IDS, *passed[j])
                        continue
                    axis, mid, kids = _split(c)
                    s = _side(kids, x[axis], mid) if held else -1
                    # One split, so its path side is of no account.
                    self._commit(n, [(axis, mid, kids, s, 0)], [held])
                    below += [(k, kids[i], held and s == i)
                              for i, k in enumerate(self._kids[2 * n:2 * n + 2]) if k >= 0]
            level = below

    # -- queries -----------------------------------------------------------

    def locate(self, q) -> tuple[AvdLeaf | None, int]:
        """Leaf containing q, with the number of nodes visited.

        Returns (None, visits) for points outside the root box: the caller
        owns the unbounded outside region.
        """
        qa = np.asarray(q, dtype=float).tolist()
        d = len(qa)
        if not all(lo <= x < hi for lo, x, hi in zip(self._root_lo, qa, self._root_hi)):
            return None, 1
        kind, axis, mid, kids, box = self._kind, self._axis, self._mid, self._kids, self._box
        split, shrink, leaf = _SPLIT, _SHRINK, _LEAF
        with self._lock:
            node = 0
            while True:
                # Every visit goes one level deeper: a leaf at depth k is
                # the (k + 1)-th node visited.
                k = kind[node]
                if k == split:
                    i = 2 * node + (qa[axis[node]] >= mid[node])
                elif k == leaf:
                    return self._leaves[self._leaf[node]], self._depth[node] + 1
                elif k == shrink:
                    # A shrink's first child is its quadtree box.
                    b = 4 * d * kids[2 * node]
                    i = 2 * node + (not all(box[b + a] <= qa[a] < box[b + d + a]
                                            for a in range(d)))
                else:
                    if self._span[2 * node + 1] <= 1:
                        node = self._descend(node, qa)
                    else:
                        self._expand_sites(node)
                    continue
                child = kids[i]
                node = child if child >= 0 else kids[i ^ 1]

    # -- whole-tree access --------------------------------------------------

    def materialize(self) -> None:
        with self._lock:
            stack = [0]
            while stack:
                node = stack.pop()
                if self._kind[node] == _PENDING:
                    if self._span[2 * node + 1] > 1:
                        self._expand_sites(node)
                    else:
                        self._expand_subtree(node)
                if self._kind[node] != _LEAF:
                    stack.extend(c for c in self._kids[2 * node:2 * node + 2] if c >= 0)

    def built_leaves(self) -> list[AvdLeaf]:
        """The leaves expanded so far, left to right; expands no node."""
        with self._lock:
            stack = [0]
            out = []
            while stack:
                node = stack.pop()
                if self._kind[node] == _LEAF:
                    out.append(self._leaves[self._leaf[node]])
                else:
                    stack.extend(c for c in reversed(self._kids[2 * node:2 * node + 2]) if c >= 0)
        return out

    def leaves(self) -> list[AvdLeaf]:
        self.materialize()
        return self.built_leaves()

    def leaf_count(self) -> int:
        return len(self.leaves())

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The configuration record: dimension, alpha, beta and max_depth.
        With the sites it determines the whole tree."""
        cfg = self.cfg
        return CONFIG_RECORD.pack(self.dim, cfg.alpha, cfg.beta, cfg.max_depth)

    @classmethod
    def from_bytes(cls, blob: bytes) -> tuple[int, AvdConfig]:
        """Decode a ``to_bytes`` record into (dimension, configuration). A
        record of the wrong size or with an invalid configuration raises
        ``ValueError``."""
        if len(blob) != CONFIG_RECORD.size:
            raise ValueError(f"tree configuration record has {len(blob)} bytes, "
                             f"expected {CONFIG_RECORD.size}")
        d, alpha, beta, max_depth = CONFIG_RECORD.unpack(blob)
        return d, AvdConfig(alpha, beta, max_depth)


def build_avd(sites, cfg: AvdConfig) -> AvdTree:
    """Decomposition tree for the given sites. Coincident sites are merged;
    ``position_of_site`` maps each original id to its merged position."""
    return AvdTree(np.asarray(sites, dtype=float), cfg)


def check_leaf(tree: AvdTree, leaf: AvdLeaf) -> list[str]:
    """Recompute every separation property of a leaf from scratch. In-cell
    sites may lie outside the cell by a billionth of its longest side."""
    problems = []
    cfg = tree.cfg
    P = tree.positions
    ball = enclosing_ball(leaf.cell)
    if len(leaf.in_cell) > 1:
        problems.append("more than one in-cell site")
    tol = 1e-9 * float(np.max(leaf.cell.outer.sides))
    for pos in leaf.in_cell:
        if not leaf.cell.contains(P[pos], tol=tol):
            problems.append(f"in-cell site {pos} outside cell")
    outer = leaf.outer_positions()
    if len(outer) > 0:
        dists = np.maximum(
            0.0, np.linalg.norm(P[outer] - ball.center[None, :], axis=1) - ball.radius
        )
        bad = outer[dists < cfg.alpha * ball.diameter * (1.0 - 1e-12)]
        for pos in bad:
            problems.append(f"outer site {pos} not alpha-separated")
    if len(leaf.inner) > 0:
        if leaf.inner_ball is None:
            problems.append("inner sites without ball")
        else:
            inside = np.linalg.norm(P[leaf.inner] - leaf.inner_ball.center[None, :], axis=1)
            if np.any(inside > leaf.inner_ball.radius * (1.0 + 1e-9) + 1e-12):
                problems.append("inner site escapes B_w")
            gap = dist_ball_cell(leaf.inner_ball, leaf.cell)
            if gap < cfg.beta * leaf.inner_ball.diameter * (1.0 - 1e-12):
                problems.append("inner ball not beta-separated from cell")
    counts = len(leaf.in_cell) + len(leaf.inner) + len(outer)
    if counts != tree.n_positions:
        problems.append("site groups do not partition the site set")
    return problems
