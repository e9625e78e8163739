"""Box-decomposition tree whose leaves separate sites into an in-cell
singleton, a far cluster, and a tightly-clustered ball.

For every leaf the site set splits three ways: at most one site inside the
leaf cell; "outer" sites whose distance to the cell's enclosing ball is at
least alpha times that ball's diameter; and remaining "inner" sites packed
in a ball B_w whose distance to the cell is at least beta times the ball's
own diameter. The tree alternates midpoint splits with shrinks toward
dense site clusters, and cells are boxes with at most one box-shaped hole.

The tree is built at construction down to the nodes that hold at most one
site, a level at a time in numpy passes (``AvdTree._build_top``); only the
chains below those nodes, which split at midpoints alone, expand on demand
(locating a point builds its path there). The structure is a pure function
of the sites and configuration, so results never depend on query order.
``materialize()`` forces the full tree for statistics and invariant checks.
For the same reason a tree is serialized as its configuration record alone
(``to_bytes``): a loader rebuilds the tree from the sites and checks the
record against it.

Nodes are rows of a flat table of typed arrays, with no object per node:
kind, split midpoint, one pair of ids, depth and outer bounds. The kind is
the split axis for a split node, or a negative tag for a pending node, a
shrink or a leaf, and the pair holds what that kind needs: a split's or a
shrink's two children, a leaf's index among the built leaves and -1, or a
pending node's one site and -1, -1 for none. The few holed cells keep
their hole bounds in a side table. Only a built leaf has an object,
``AvdLeaf``, which ``locate`` returns. A pending node is its depth, its
cell and its site.

A node's near set, the positions that may still be inner somewhere below
it, is built only where the leaf test reads it: at a pending node. It is
every position but the node's own site that lies nearer to the node's box
than (2 alpha + 1) times its circumradius, in id order. A uniform grid of
the positions (``geom.PointGrid``), built once, gives the candidates: the
positions in the grid cells that meet the box widened by that reach, a
window no position the exact test keeps lies outside. Filtering at every
level would give the same set: a position the test keeps at a node passes
at every ancestor too, whose box contains the node's and whose reach is no
smaller, and every position is either assigned to a node or routed away
from it above.

Below a pending node every node has at most one site, so its subtree only
ever splits at midpoints. ``locate`` descends such a chain in one batch:
it computes the query's path cells down to the first that should pass the
leaf test, filters the chain's one candidate array (the top's near set and
its site) against all of their boxes at once and leaf-tests every level at
once, then keeps the levels down to the first that passes. Where none
passes, the next batch starts below them from a fresh near set.
``materialize`` expands such a node's whole subtree, one level of cells per
leaf test, through the same test and split rule. A leaf's inner positions
are in id order, so lazy and materialized trees are the same.
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
    PointGrid,
    box_distances,
    dist_ball_cell,
    enclosing_ball,
    unchecked_ball,
    unchecked_dist_point_cell,
)

# Node kinds other than a split, whose kind is its axis.
_PENDING, _SHRINK, _LEAF = -1, -2, -3
# Site and position ids, as the leaves keep them.
_ID = np.int32
# The id array of every leaf without in-cell or inner sites.
_NO_IDS = np.zeros(0, dtype=_ID)
_NO_IDS.flags.writeable = False
# Halvings the depth budget allows beyond its estimate.
_DEPTH_SLACK = 8
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
        lo, hi, hole = self.tree._cell(self.node)
        return BbdCell(AlignedBox(lo, hi), None if hole is None else AlignedBox(*hole))

    @property
    def depth(self) -> int:
        return self.tree._depth[self.node]

    @property
    def n_positions(self) -> int:
        return self.tree.n_positions

    def ball(self) -> EuclideanBall:
        """The cell's enclosing ball, as ``geom.enclosing_ball`` computes it,
        from the node's box in the table."""
        d = self.tree.dim
        box = np.frombuffer(self.tree._box[2 * d * self.node:2 * d * (self.node + 1)])
        low, high = box[:d], box[d:]
        return unchecked_ball(0.5 * (low + high), float(np.linalg.norm(high - low) / 2.0))

    def outer_positions(self) -> np.ndarray:
        used = np.concatenate([self.in_cell, self.inner])
        return np.setdiff1d(np.arange(self.n_positions), used)


# A cell is (low, high, hole) with float lists for the corners and hole
# None or a (low, high) pair; floats keep Python arithmetic bit-identical to
# numpy's elementwise arithmetic.

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
        # Each side keeps its part of the hole, so that no cell overlaps
        # it. The midpoint cuts a hole where rounded widths pick a longest
        # axis other than the one the shrink's quadtree box was halved along.
        ilo, ihi = hole
        if ilo[axis] < mid:
            top = ihi.copy()
            top[axis] = min(ihi[axis], mid)
            inner_lo = (ilo, top)
        if ihi[axis] > mid:
            bottom = ilo.copy()
            bottom[axis] = max(ilo[axis], mid)
            inner_hi = (bottom, ihi)
    return axis, mid, (_nonempty(_make_cell(lo, lo_hi, inner_lo)),
                       _nonempty(_make_cell(hi_lo, hi, inner_hi)))


def _side(kids: tuple, x: float, mid: float) -> int:
    """The child a coordinate routes to: low edge closed, and the sibling
    where the hole swallowed its side."""
    i = 1 if x >= mid else 0
    return i if kids[i] is not None else 1 - i


def _window(low: list, high: list, reach: float) -> tuple[list, list]:
    """Bounds of the window about the box [low, high], the box widened on
    every side by a little more than ``reach``. A point outside it is at
    least ``reach`` from the box, also as computed in floating point: the
    relative and absolute margins absorb the rounding of both tests, and
    the smallest one keeps squared gaps clear of underflow."""
    lo, hi = [], []
    for l, h in zip(low, high):
        w = reach * (1.0 + 1e-12) + 1e-12 * max(abs(l), abs(h)) + 1e-150
        lo.append(l - w)
        hi.append(h + w)
    return lo, hi


def _points_in_box(P: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Half-open membership mask (low edge closed), matching routing; the
    bounds are one box, or one row per point."""
    return np.all(P >= low, axis=1) & np.all(P < high, axis=1)


def _shrink_targets(low: np.ndarray, high: np.ndarray, X: np.ndarray, seg: np.ndarray,
                    total: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quadtree boxes that shrinks descend to, for many cells without a
    hole at once: cell j is [low[j], high[j]] and holds ``total[j]`` sites,
    the rows i of X with ``seg[i] == j``. While the most populated quadrant
    of a cell's box (the first of the most) holds more than 2/3 of the
    cell's sites, the box becomes that quadrant, at most 64 times. Returns
    which cells descended, where they shrink instead of splitting, and the
    boxes."""
    k, d = low.shape
    quadrants, weights = 1 << d, 1 << np.arange(d)
    # Cells whose quadrant counts one bincount takes, at most 2^20 counts.
    step = max(1, (1 << 20) >> d)
    low, high = low.copy(), high.copy()
    shrunk = np.zeros(k, dtype=bool)
    live = np.arange(k)
    for _ in range(64):
        if not live.size:
            break
        mid = 0.5 * (low.take(live, axis=0) + high.take(live, axis=0))
        keys = (X >= mid.take(seg, axis=0)) @ weights
        best, top = np.empty(live.size, dtype=np.int64), np.empty(live.size, dtype=np.int64)
        # The rows of X are in cell order.
        starts = np.arange(0, live.size, step)
        ends = np.searchsorted(seg, np.append(starts, live.size))
        for a, i, j in zip(starts.tolist(), ends[:-1].tolist(), ends[1:].tolist()):
            counts = np.bincount((seg[i:j] - a) * quadrants + keys[i:j],
                                 minlength=min(step, live.size - a) * quadrants)
            counts = counts.reshape(-1, quadrants)
            best[a:a + step] = counts.argmax(axis=1)
            top[a:a + step] = counts.max(axis=1)
        go = top > (2.0 / 3.0) * total.take(live)
        into = live.compress(go)
        upper = ((best.compress(go)[:, None] >> np.arange(d)) & 1).astype(bool)
        mid = mid.compress(go, axis=0)
        low[into] = np.where(upper, mid, low.take(into, axis=0))
        high[into] = np.where(upper, high.take(into, axis=0), mid)
        shrunk[into] = True
        kept = go.take(seg) & (keys == best.take(seg))
        seg = (np.cumsum(go) - 1).take(seg.compress(kept))
        X = X.compress(kept, axis=0)
        live = into
    return shrunk, low, high


def _append(column: array, values: np.ndarray) -> None:
    """Append ``values`` to a typed table column."""
    column.frombytes(np.asarray(values, dtype=column.typecode).tobytes())


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
        P = self.positions
        # The positions by grid cell, where near sets find their candidates.
        self.grid = PointGrid(P)
        self._depth_budget = _depth_budget(P, side, cfg)
        # The largest coordinate magnitude of any site or cell.
        self._scale = float(max(np.abs(P).max(), np.abs(self.root_box.low).max(),
                                np.abs(self.root_box.high).max()))
        self._lock = threading.RLock()
        self._leaves: list[AvdLeaf] = []
        root = self.root_box
        self._root_lo, self._root_hi = root.low.tolist(), root.high.tolist()
        self._build_top()
        # The rows built here; queries add the rest.
        self.top_nodes = len(self._kind)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def expansions(self) -> int:
        """Nodes expanded so far: the rows no longer pending."""
        return len(self._kind) - self._kind.count(_PENDING)

    # -- the table -----------------------------------------------------------

    def _build_top(self) -> None:
        """Build the node table down to the nodes that hold at most one
        site: every node with two or more shrinks toward their cluster or
        splits at its midpoint, one level of the tree at a time
        (``_expand_level``). A level at the depth budget that still has a
        node with two or more sites raises, naming the first one's cell.

        The table has these columns, one row per node:
        - kind: the split axis, or _PENDING, _SHRINK or _LEAF;
        - midpoint: a split's;
        - an id pair: a split's or shrink's children, -1 where a side has
          no child; a leaf's index in ``_leaves`` and -1; or a pending
          node's site and -1, or -1, -1 where it has none;
        - depth, box (2d per node: outer low, outer high) and hole (a holed
          cell's row in the hole table, 2d per row: hole low, hole high).
        While the top is built, a level's pairs are spans (offset, count) of
        a pool of the position ids, one permutation of them of which every
        node's sites are a slice in id order; a row left pending takes its
        site from its span as its level joins the table."""
        n, d = self.n_positions, self.dim
        pool = np.arange(n, dtype=_ID)
        self._kind, self._mid, self._kids = array("i"), array("d"), array("i")
        self._depth, self._box, self._hole, self._holes = (array(t) for t in "idid")
        columns = self._kind, self._mid, self._kids, self._box, self._hole
        # One level's rows, kept in numpy until the level below is made:
        # kinds, midpoints, id pairs, boxes and hole rows.
        level = (np.full(1, _PENDING), np.zeros(1), np.array([[0, n]]),
                 np.array([self._root_lo + self._root_hi]), np.full(1, -1))
        depth = 0
        while True:
            spans = level[2]
            at = np.flatnonzero(spans[:, 1] >= 2)
            if at.size and depth >= self._depth_budget:
                box = level[3][at[0]]
                raise RuntimeError(f"max depth exceeded at cell [{box[:d]}, {box[d:]}]")
            # The rows left pending name their one site, or none. The masks
            # go before the level below is made, the build's peak.
            one, left = spans[:, 1] == 1, spans[:, 1] < 2
            spans[one, 0] = pool.take(spans[one, 0])
            spans[left & ~one, 0], spans[left, 1] = -1, -1
            del one, left
            below = self._expand_level(level, at, pool) if at.size else None
            for column, values in zip(columns, level):
                _append(column, values)
            _append(self._depth, np.full(len(level[0]), depth))
            if below is None:
                return
            level, depth = below, depth + 1

    def _expand_level(self, level: tuple, at: np.ndarray, perm: np.ndarray) -> tuple:
        """Make the rows ``at`` of one level, each of a node with two or
        more sites, shrinks and splits in place; returns the level below,
        their children, as pending rows. Their holes join the hole table.

        Cells without a hole take their shrinks (``_shrink_targets``) and
        their splits, on the first of the longest axes whose midpoint lies
        strictly inside (as ``_split``), from numpy passes over all of them;
        the few holed cells split through ``_split``, where a side the hole
        swallows whole gets no child and its sites go to the sibling. One
        stable partition of the nodes' slices of the pool ``perm``, in
        place, gives each child its slice."""
        d = self.dim
        kind, mid, kids, box, hole = level
        k = at.size
        off, cnt = kids[at, 0], kids[at, 1]
        lo, hi = box[at, :d], box[at, d:]
        seg = np.repeat(np.arange(k), cnt)
        pos = np.arange(seg.size) + np.repeat(off - (np.cumsum(cnt) - cnt), cnt)
        ids = perm.take(pos)
        X = self.positions.take(ids, axis=0)
        holed = hole.take(at) >= 0
        # Kid 0 is a split's lower side or a shrink's box.
        clo, chi = np.repeat(lo[:, None], 2, axis=1), np.repeat(hi[:, None], 2, axis=1)
        exists = np.ones((k, 2), dtype=bool)
        kid_holed, kid_holes = np.zeros((k, 2), dtype=bool), np.empty((k, 2, 2 * d))

        # Shrinks and splits of the cells without a hole.
        free = np.flatnonzero(~holed)
        fp = ~holed.take(seg)
        shrunk = np.zeros(k, dtype=bool)
        qlo, qhi = lo.copy(), hi.copy()
        shrunk[free], qlo[free], qhi[free] = _shrink_targets(
            lo.take(free, axis=0), hi.take(free, axis=0), X.compress(fp, axis=0),
            (np.cumsum(~holed) - 1).take(seg.compress(fp)), cnt.take(free))
        cut = 0.5 * (lo + hi)
        axis = np.where((lo < cut) & (cut < hi), hi - lo, -1.0).argmax(axis=1)
        cut = np.take_along_axis(cut, axis[:, None], axis=1)[:, 0]
        split = np.flatnonzero(~holed & ~shrunk)
        chi[split, 0, axis.take(split)] = cut.take(split)
        clo[split, 1, axis.take(split)] = cut.take(split)
        shrinks = np.flatnonzero(shrunk)
        clo[shrinks, 0], chi[shrinks, 0] = qlo.take(shrinks, axis=0), qhi.take(shrinks, axis=0)
        kid_holed[shrinks, 1] = True
        kid_holes[shrinks, 1] = np.concatenate([clo[shrinks, 0], chi[shrinks, 0]], axis=1)
        # A shrink box that fills an exact half of the cell is absorbed,
        # which takes the box equal to the cell along all axes but one.
        same = (qlo == lo) & (qhi == hi)
        for j in shrinks.compress(same.take(shrinks, axis=0).sum(axis=1) >= d - 1).tolist():
            clo[j, 1], chi[j, 1], qbox = _make_cell(
                lo[j].tolist(), hi[j].tolist(), (qlo[j].tolist(), qhi[j].tolist()))
            kid_holed[j, 1] = qbox is not None

        # Splits of holed cells.
        swallowed = np.full(k, -1)
        for j in np.flatnonzero(holed).tolist():
            r = hole[at[j]]
            b, h = box[at[j]].tolist(), self._holes[2 * d * r:2 * d * (r + 1)].tolist()
            axis[j], cut[j], sides = _split((b[:d], b[d:], (h[:d], h[d:])))
            for i, side in enumerate(sides):
                if side is None:
                    exists[j, i] = False
                    swallowed[j] = i
                    continue
                clo[j, i], chi[j, i] = side[0], side[1]
                if side[2] is not None:
                    kid_holed[j, i] = True
                    kid_holes[j, i] = side[2][0] + side[2][1]

        # Route the sites, True to kid 1, and partition each slice.
        upper = X[np.arange(len(X)), axis.take(seg)] >= cut.take(seg)
        inner = shrunk.take(seg)
        upper[inner] = ~_points_in_box(X.compress(inner, axis=0),
                                       qlo.take(seg.compress(inner), axis=0),
                                       qhi.take(seg.compress(inner), axis=0))
        lost = swallowed.take(seg)
        upper = np.where(lost >= 0, lost == 0, upper)
        child = 2 * seg + upper
        perm[pos] = ids.take(np.argsort(child, kind="stable"))
        sizes = np.bincount(child, minlength=2 * k).reshape(k, 2)

        # The rows become shrinks and splits, and their children the level
        # below, whose rows follow this level's in the table.
        made = exists.ravel()
        first = len(self._kind) + len(kind)
        kind[at] = np.where(shrunk, _SHRINK, axis)
        mid[at] = np.where(shrunk, 0.0, cut)
        kids[at] = np.where(made, first + np.cumsum(made) - 1, -1).reshape(k, 2)
        spans = np.stack([np.stack([off, off + sizes[:, 0]], axis=1), sizes], axis=2)
        # Only children that exist have holes.
        holed_kids = kid_holed.ravel()
        below_hole = np.full(np.count_nonzero(made), -1)
        below_hole[holed_kids.compress(made)] = (len(self._holes) // (2 * d)
                                                 + np.arange(np.count_nonzero(holed_kids)))
        _append(self._holes, kid_holes.reshape(2 * k, 2 * d).compress(holed_kids, axis=0))
        m = len(below_hole)
        return (np.full(m, _PENDING), np.zeros(m), spans.reshape(2 * k, 2).compress(made, axis=0),
                np.concatenate([clo, chi], axis=2).reshape(2 * k, 2 * d).compress(made, axis=0),
                below_hole)

    def _add_nodes(self, rows: list) -> int:
        """Append pending nodes, one per (depth, cell, site) row; returns
        the id of the first."""
        first, n = len(self._kind), len(rows)
        box, holes, pairs = [], [], []
        for _, (lo, hi, hole), site in rows:
            box += lo
            box += hi
            if hole is None:
                holes.append(-1)
            else:
                holes.append(len(self._holes) // (2 * self.dim))
                self._holes.extend(hole[0] + hole[1])
            pairs += (site, -1)
        self._kind.extend([_PENDING] * n)
        self._mid.extend([0.0] * n)
        self._kids.extend(pairs)
        self._depth.extend([row[0] for row in rows])
        self._box.extend(box)
        self._hole.extend(holes)
        return first

    def _cell(self, node: int):
        d = self.dim
        b = self._box[2 * d * node:2 * d * (node + 1)].tolist()
        h = self._hole[node]
        hole = None
        if h >= 0:
            hb = self._holes[2 * d * h:2 * d * (h + 1)].tolist()
            hole = hb[:d], hb[d:]
        return b[:d], b[d:], hole

    def tree_nodes(self) -> int:
        return len(self._kind)

    def tree_bytes(self) -> int:
        """Bytes held by the node columns (kind, midpoint, id pair, depth,
        box and hole row) and the hole table."""
        columns = (self._kind, self._mid, self._kids, self._depth, self._box, self._hole,
                   self._holes)
        return sum(c.itemsize * len(c) for c in columns)

    # -- expansion ---------------------------------------------------------

    def _near(self, low: list, high: list, site: int) -> np.ndarray:
        """The near set of the box [low, high] of a node whose site is
        ``site``, -1 for none: every other position nearer to the box than
        (2 alpha + 1) times its circumradius, in id order, from the grid's
        positions in the box's window."""
        lo, hi = np.array(low), np.array(high)
        reach = (2.0 * self.cfg.alpha + 1.0) * _half_diagonal(lo, hi)
        ids = self.grid.within(*_window(low, high, reach))
        if site >= 0:
            ids = ids.compress(ids != site)
        return ids.compress(box_distances(lo, hi, self.positions.take(ids, axis=0)) < reach)

    def _candidates(self, node: int) -> tuple[int, tuple, np.ndarray]:
        """The site, cell and leaf-test candidates of the pending node
        ``node``: its near set, followed by its site where it has one."""
        site = self._kids[2 * node]
        cell = self._cell(node)
        near = self._near(cell[0], cell[1], site)
        return site, cell, near if site < 0 else np.append(near, _ID(site))

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
                # In id order, wherever the site falls among them.
                inner = np.sort(cand.take(rows.take(rest[start:end])))
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
        gap = unchecked_dist_point_cell(bc, *cell) - br
        if gap < self.cfg.beta * 2.0 * br:
            return None
        return unchecked_ball(bc, br)

    def _descend(self, node: int, qa: list) -> int:
        """Expand the pending node ``node``, which holds at most one site,
        and every node below it on the path of the point ``qa``, down to the
        leaf that ``qa`` reaches; returns that leaf.

        Every node on the path holds at most one site and splits at its
        midpoint. A batch takes the path's cells down to the first that
        should pass the leaf test (``_path``), or to the depth budget,
        leaf-tests them at once, and keeps the cells down to the first that
        passes: the failing ones become split nodes, each with a pending
        sibling, and the passing one a leaf. Where none passes, as rounding
        can make happen, the next batch starts below the last, from a fresh
        near set; a failing cell at the depth budget raises."""
        q = np.array(qa)
        while True:
            depth = self._depth[node]
            site, cell, cand = self._candidates(node)
            X = self.positions.take(cand, axis=0)
            rel = X - q
            cells, splits, held = self._path(cell, site, qa, np.einsum("md,md->m", rel, rel),
                                             self._depth_budget - depth + 1)
            # Distances to the last cell's center, which lies in every cell.
            rel = X - 0.5 * (np.array(cells[-1][0]) + np.array(cells[-1][1]))
            site_off = np.logical_not(held) if site >= 0 else _NO_IDS
            tested = self._leaf_tests(cand, X, np.einsum("md,md->m", rel, rel), site_off, cells)
            if tested:
                (stop, inner, ball), = tested
                leaf = self._commit(node, splits[:stop], held)
                self._make_leaf(leaf, site if held[stop] else -1, inner, ball)
                return leaf
            if depth + len(cells) > self._depth_budget:
                self._commit(node, splits[:-1], held)
                lo, hi, _ = cells[-1]
                raise RuntimeError(f"max depth exceeded at cell [{np.array(lo)}, {np.array(hi)}]")
            node = self._commit(node, splits, held)

    def _path(self, cell, site: int, qa: list, d2: np.ndarray,
              count: int) -> tuple[list, list, list]:
        """The cells of the path of ``qa`` from ``cell`` down, at most
        ``count`` of them, with each one's split and whether it holds the
        site, -1 for none; ``d2`` holds the squared distances to ``qa`` of
        the node's near set, followed by its site's where it has one. The
        path ends early at a cell that should pass the leaf test: one whose
        near candidates, and the site once it has left the path, all lie
        beyond (2 alpha + 2) half-diagonals of ``qa``, so that none is inner
        where the cell holds ``qa``."""
        x = self.positions[site].tolist() if site >= 0 else None
        m = len(d2) - (site >= 0)
        far = math.sqrt(float(d2[:m].min())) if m else math.inf
        site_far = math.sqrt(float(d2[m])) if site >= 0 else math.inf
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
        below the last. A child that holds the site of ``node`` gets the
        pair (site, -1), and the others (-1, -1)."""
        if not splits:
            return node
        depth, site = self._depth[node], self._kids[2 * node]
        rows, path, kids_of = [], [node], []
        next_id = len(self._kind)
        for j, (_, _, kids, s, w) in enumerate(splits):
            ids = [-1, -1]
            for i in (0, 1):
                if kids[i] is not None:
                    got = held[j] and s == i
                    rows.append((depth + j + 1, kids[i], site if got else -1))
                    ids[i] = next_id
                    next_id += 1
            kids_of.append(ids)
            path.append(ids[w])
        self._add_nodes(rows)
        for j, (axis, mid, _, _, _) in enumerate(splits):
            parent = path[j]
            self._kind[parent] = axis
            self._mid[parent] = mid
            self._kids[2 * parent:2 * parent + 2] = array("i", kids_of[j])
        return path[-1]

    def _make_leaf(self, node: int, site: int, inner: np.ndarray,
                   ball: EuclideanBall | None) -> None:
        """Make ``node`` a leaf whose in-cell site is ``site``, -1 for none."""
        self._kind[node] = _LEAF
        self._kids[2 * node:2 * node + 2] = array("i", (len(self._leaves), -1))
        in_cell = np.array([site], dtype=_ID) if site >= 0 else _NO_IDS
        self._leaves.append(AvdLeaf(self, node, in_cell, inner, ball))

    def _expand_subtree(self, node: int) -> None:
        """Expand the pending node ``node``, which holds at most one site,
        and its whole subtree. Each level of the subtree's cells is
        leaf-tested at once against the node's near set, from the grid, and
        its site, with the distances to each cell's center; the cells that
        fail split as on a descent, and a failing cell at the depth budget
        raises."""
        d = self.dim
        site, cell, cand = self._candidates(node)
        X = self.positions.take(cand, axis=0)
        x = self.positions[site].tolist() if site >= 0 else None
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
                for j, (n, c, held) in enumerate(batch):
                    if j in passed:
                        self._make_leaf(n, site if held else -1, *passed[j])
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
        kind, mid, kids, box = self._kind, self._mid, self._kids, self._box
        shrink, leaf = _SHRINK, _LEAF
        with self._lock:
            node = 0
            while True:
                # Every visit goes one level deeper: a leaf at depth k is
                # the (k + 1)-th node visited.
                k = kind[node]
                if k >= 0:
                    i = 2 * node + (qa[k] >= mid[node])
                elif k == leaf:
                    return self._leaves[kids[2 * node]], self._depth[node] + 1
                elif k == shrink:
                    # A shrink's first child is its quadtree box.
                    b = 2 * d * kids[2 * node]
                    i = 2 * node + (not all(box[b + a] <= qa[a] < box[b + d + a]
                                            for a in range(d)))
                else:
                    node = self._descend(node, qa)
                    continue
                child = kids[i]
                node = child if child >= 0 else kids[i ^ 1]

    # -- whole-tree access --------------------------------------------------

    def materialize(self) -> None:
        """Expand every pending row; the rows that expanding one adds are
        none of them pending."""
        with self._lock:
            for node in range(len(self._kind)):
                if self._kind[node] == _PENDING:
                    self._expand_subtree(node)

    def built_leaves(self) -> list[AvdLeaf]:
        """The leaves expanded so far, left to right; expands no node."""
        with self._lock:
            stack = [0]
            out = []
            while stack:
                node = stack.pop()
                kind = self._kind[node]
                if kind == _LEAF:
                    out.append(self._leaves[self._kids[2 * node]])
                elif kind != _PENDING:
                    # A pending node's pair is its site.
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
    cell = leaf.cell
    ball = enclosing_ball(cell)
    if len(leaf.in_cell) > 1:
        problems.append("more than one in-cell site")
    tol = 1e-9 * float(np.max(cell.outer.sides))
    for pos in leaf.in_cell:
        if not cell.contains(P[pos], tol=tol):
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
            gap = dist_ball_cell(leaf.inner_ball, cell)
            if gap < cfg.beta * leaf.inner_ball.diameter * (1.0 - 1e-12):
                problems.append("inner ball not beta-separated from cell")
    counts = len(leaf.in_cell) + len(leaf.inner) + len(outer)
    if counts != tree.n_positions:
        problems.append("site groups do not partition the site set")
    return problems
