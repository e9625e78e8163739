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

A node's near set, the sites that may still be inner somewhere below it,
is built only where the leaf test reads it: at a node with at most one
assigned site. Until then a pending node keeps ``near_parts``, the near set
of its nearest ancestor that built one followed by the sites routed away
from it at each split or shrink since, unfiltered and in order. One filter
against the node's own box gives exactly the set, in exactly the order,
that filtering at every level would: a site the filter keeps at a node
passes at every ancestor too, whose box contains the node's and whose
reach is no smaller. A slab along the axis of widest site spread drops
most far candidates before the exact box distances.
"""

from __future__ import annotations

import math
import struct
import threading
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
# Site and position ids. Pending frontier nodes keep their id arrays, so a
# cold index holds many of them; int32 halves that memory.
_ID = np.int32
# The id arrays of every expanded node, which no longer need their own.
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
    __slots__ = ("cell", "depth", "in_cell", "inner", "inner_ball", "n_positions", "attachment")

    def __init__(self, cell: BbdCell, depth: int, in_cell: np.ndarray,
                 inner: np.ndarray, inner_ball: EuclideanBall | None, n_positions: int):
        self.cell = cell
        self.depth = depth
        self.in_cell = in_cell
        self.inner = inner
        self.inner_ball = inner_ball
        self.n_positions = n_positions
        self.attachment = None  # filled lazily by the query layer

    def outer_positions(self) -> np.ndarray:
        used = np.concatenate([self.in_cell, self.inner])
        return np.setdiff1d(np.arange(self.n_positions), used)


class _Node:
    """A tree node. A pending node holds the positions routed into its cell
    (``assigned``) and the parts its near set is filtered from
    (``near_parts``); ``near`` stays None until the leaf test builds it. An
    expanded node or a leaf keeps neither."""

    __slots__ = ("cell", "depth", "assigned", "near_parts", "near", "kind", "axis", "mid",
                 "qbox", "children", "leaf")

    def __init__(self, cell: BbdCell, depth: int, assigned: np.ndarray,
                 near_parts: tuple[np.ndarray, ...]):
        self.cell = cell
        self.depth = depth
        self.assigned = assigned
        self.near_parts = near_parts
        self.near: np.ndarray | None = None
        self.kind = _PENDING
        self.axis = -1
        self.mid = 0.0
        self.qbox: AlignedBox | None = None
        self.children: list[_Node | None] = []
        self.leaf: AvdLeaf | None = None


def _child(cell: BbdCell, depth: int, assigned: np.ndarray,
           base: tuple[np.ndarray, ...], moved: np.ndarray) -> _Node:
    """A pending child that filters its near set from ``base`` plus the
    sites routed to its sibling. Empty id arrays give way to the shared one."""
    return _Node(cell, depth, assigned if len(assigned) else _NO_IDS,
                 base + (moved,) if len(moved) else base)


def _make_cell(outer: AlignedBox, inner: AlignedBox | None) -> BbdCell:
    """Build a cell, absorbing a hole that fills an exact half of the box."""
    while inner is not None:
        mids = 0.5 * (outer.low + outer.high)
        absorbed = False
        for a in range(outer.dim):
            full = np.ones(outer.dim, dtype=bool)
            full[a] = False
            spans = np.array_equal(inner.low[full], outer.low[full]) and \
                np.array_equal(inner.high[full], outer.high[full])
            if not spans:
                continue
            if inner.low[a] == outer.low[a] and inner.high[a] == mids[a]:
                lo = outer.low.copy()
                lo[a] = mids[a]
                outer, inner, absorbed = unchecked_box(lo, outer.high), None, True
                break
            if inner.low[a] == mids[a] and inner.high[a] == outer.high[a]:
                hi = outer.high.copy()
                hi[a] = mids[a]
                outer, inner, absorbed = unchecked_box(outer.low, hi), None, True
                break
        if not absorbed:
            break
    return unchecked_cell(outer, inner)


def _slab(low: float, high: float, reach: float) -> tuple[float, float]:
    """Bounds of the slab that holds every point within ``reach`` of the
    interval [low, high] along one axis. A point outside it is at least
    ``reach`` from any box with that extent on the axis, also as computed
    in floating point: the relative and absolute margins absorb the
    rounding of both tests, and the smallest one keeps squared gaps clear
    of underflow."""
    w = reach * (1.0 + 1e-12) + 1e-12 * max(abs(low), abs(high)) + 1e-150
    return low - w, high + w


def _points_in_box(P: np.ndarray, box: AlignedBox) -> np.ndarray:
    """Half-open membership mask (low edge closed), matching routing."""
    return np.all(P >= box.low[None, :], axis=1) & np.all(P < box.high[None, :], axis=1)


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
        self._root = _Node(BbdCell(self.root_box, None), 0,
                           np.arange(self.n_positions, dtype=_ID), (_NO_IDS,))
        # Slab prefilter of the near filter: coordinates along the axis of
        # widest spread, and the same coordinates sorted.
        P = self.positions
        self._slab_axis = int(np.argmax(P.max(axis=0) - P.min(axis=0)))
        self._slab_x = np.ascontiguousarray(P[:, self._slab_axis])
        self._slab_sorted = np.sort(self._slab_x)
        self._depth_budget = _depth_budget(P, side, cfg)
        self._lock = threading.RLock()
        self._expansions = 0

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    # -- expansion ---------------------------------------------------------

    def _try_leaf(self, node: _Node) -> bool:
        if len(node.assigned) > 1:
            return False
        others = node.near = self._near(node)
        node.near_parts = ()
        cell = node.cell
        olo, ohi = cell.outer.low, cell.outer.high
        c = 0.5 * (olo + ohi)
        side = ohi - olo
        r = 0.5 * float(np.sqrt(np.dot(side, side)))
        alpha, beta = self.cfg.alpha, self.cfg.beta
        if len(others) > 0:
            diff = self.positions.take(others, axis=0) - c[None, :]
            dists = np.sqrt(np.einsum("md,md->m", diff, diff)) - r
            outer_ok = dists >= alpha * 2.0 * r
            rest = others[~outer_ok]
        else:
            rest = others
        inner_ball = None
        if len(rest) > 0:
            pts = self.positions.take(rest, axis=0)
            bc = pts.mean(axis=0)
            rel = pts - bc[None, :]
            br = float(np.sqrt(np.max(np.einsum("md,md->m", rel, rel)))) * (1.0 + 1e-9)
            gap = unchecked_dist_point_cell(bc, cell) - br
            if gap < beta * 2.0 * br:
                return False
            inner_ball = unchecked_ball(bc, br)
        node.kind = _LEAF
        node.leaf = AvdLeaf(cell, node.depth, node.assigned.copy(),
                            rest.copy(), inner_ball, self.n_positions)
        node.assigned = node.near = _NO_IDS
        return True

    def _near(self, node: _Node) -> np.ndarray:
        """The node's near set: its candidates, minus the sites separated
        strongly enough to stay outer for the whole subtree below it."""
        parts = node.near_parts
        cand = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return self._near_filter(cand, node.cell.outer)

    def _near_filter(self, cand: np.ndarray, box: AlignedBox) -> np.ndarray:
        """The candidates, in order, that lie nearer to the box than
        (2 alpha + 1) times its circumradius."""
        if len(cand) == 0:
            return cand
        reach = (2.0 * self.cfg.alpha + 1.0) * float(np.linalg.norm(box.sides) / 2.0)
        a = self._slab_axis
        lo, hi = _slab(float(box.low[a]), float(box.high[a]), reach)
        xs = self._slab_sorted
        if len(cand) > np.searchsorted(xs, hi, "right") - np.searchsorted(xs, lo, "left"):
            x = self._slab_x.take(cand)
            cand = cand[(x >= lo) & (x <= hi)]
        dists = box_distances(box.low, box.high, self.positions.take(cand, axis=0))
        return cand[dists < reach]

    @staticmethod
    def _shrink_target(cell: BbdCell, pts: np.ndarray) -> AlignedBox | None:
        """The quadtree box a shrink descends to around the cell's sites
        ``pts``, or None where the cell splits instead."""
        if cell.inner is not None or len(pts) < 2:
            return None
        n_total = len(pts)
        lo = cell.outer.low.copy()
        hi = cell.outer.high.copy()
        d = lo.size
        descended = False
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            bits = pts >= mid[None, :]
            keys = bits @ (1 << np.arange(d))
            counts = np.bincount(keys, minlength=1 << d)
            best = int(np.argmax(counts))
            if counts[best] <= (2.0 / 3.0) * n_total:
                break
            sel = keys == best
            pts = pts[sel]
            for a in range(d):
                if best >> a & 1:
                    lo[a] = mid[a]
                else:
                    hi[a] = mid[a]
            descended = True
        if not descended:
            return None
        return unchecked_box(lo, hi)

    def _expand(self, node: _Node) -> None:
        if node.kind != _PENDING:
            return
        self._expansions += 1
        if self._try_leaf(node):
            return
        if node.depth >= self._depth_budget:
            raise RuntimeError(
                "max depth exceeded at cell "
                f"[{node.cell.outer.low}, {node.cell.outer.high}]"
            )
        pts = self.positions.take(node.assigned, axis=0)
        qbox = self._shrink_target(node.cell, pts)
        # Children filter their near sets from the nearest built one on.
        base = node.near_parts if node.near is None else (node.near,)
        if qbox is not None:
            in_q = _points_in_box(pts, qbox)
            a_in, a_out = node.assigned[in_q], node.assigned[~in_q]
            cell_in = unchecked_cell(qbox, None)
            cell_out = _make_cell(node.cell.outer, qbox)
            node.kind = _SHRINK
            node.qbox = qbox
            node.children = [_child(cell_in, node.depth + 1, a_in, base, a_out),
                             _child(cell_out, node.depth + 1, a_out, base, a_in)]
        else:
            outer = node.cell.outer
            lo, hi = outer.low.tolist(), outer.high.tolist()
            # Split the longest axis whose midpoint falls strictly inside:
            # an axis one float wide has its midpoint rounded onto an end.
            axis = max((a for a in range(len(lo)) if lo[a] < 0.5 * (lo[a] + hi[a]) < hi[a]),
                       key=lambda a: hi[a] - lo[a], default=0)
            mid = 0.5 * (lo[axis] + hi[axis])
            lo_hi = outer.high.copy()
            lo_hi[axis] = mid
            hi_lo = outer.low.copy()
            hi_lo[axis] = mid
            box_lo = unchecked_box(outer.low, lo_hi)
            box_hi = unchecked_box(hi_lo, outer.high)
            inner = node.cell.inner
            inner_lo = inner_hi = None
            if inner is not None:
                if 0.5 * (inner.low[axis] + inner.high[axis]) < mid:
                    ihigh = inner.high.copy()
                    ihigh[axis] = min(ihigh[axis], mid)
                    inner_lo = unchecked_box(inner.low, ihigh)
                else:
                    ilow = inner.low.copy()
                    ilow[axis] = max(ilow[axis], mid)
                    inner_hi = unchecked_box(ilow, inner.high)
            cells = [_make_cell(box_lo, inner_lo), _make_cell(box_hi, inner_hi)]
            side = pts[:, axis] >= mid
            parts = [node.assigned[~side], node.assigned[side]]
            # A side swallowed whole by the hole gets no child; sites routed
            # there sit on the hole boundary and belong to the sibling, which
            # is also where locate falls back to.
            for i in (0, 1):
                if cells[i].is_empty() and len(parts[i]) > 0:
                    parts[1 - i] = np.sort(np.concatenate([parts[1 - i], parts[i]]))
                    parts[i] = _NO_IDS
            node.kind = _SPLIT
            node.axis = axis
            node.mid = mid
            node.children = []
            for i in (0, 1):
                if cells[i].is_empty():
                    node.children.append(None)
                    continue
                node.children.append(_child(cells[i], node.depth + 1, parts[i], base, parts[1 - i]))
        node.assigned = node.near = _NO_IDS
        node.near_parts = ()

    # -- queries -----------------------------------------------------------

    def locate(self, q) -> tuple[AvdLeaf | None, int]:
        """Leaf containing q, with the number of nodes visited.

        Returns (None, visits) for points outside the root box: the caller
        owns the unbounded outside region.
        """
        q = np.asarray(q, dtype=float)
        if not ((q >= self.root_box.low).all() and (q < self.root_box.high).all()):
            return None, 1
        qa = q.tolist()
        visits = 0
        with self._lock:
            node = self._root
            while True:
                visits += 1
                if node.kind == _PENDING:
                    self._expand(node)
                if node.kind == _LEAF:
                    return node.leaf, visits
                if node.kind == _SPLIT:
                    want = 1 if qa[node.axis] >= node.mid else 0
                else:
                    inq = bool((q >= node.qbox.low).all() and (q < node.qbox.high).all())
                    want = 0 if inq else 1
                child = node.children[want]
                if child is None:
                    child = node.children[1 - want]
                node = child

    # -- whole-tree access --------------------------------------------------

    def materialize(self) -> None:
        with self._lock:
            stack = [self._root]
            while stack:
                node = stack.pop()
                if node.kind == _PENDING:
                    self._expand(node)
                if node.kind != _LEAF:
                    stack.extend(c for c in node.children if c is not None)

    def built_leaves(self) -> list[AvdLeaf]:
        """The leaves expanded so far, left to right; expands no node."""
        with self._lock:
            stack = [self._root]
            out = []
            while stack:
                node = stack.pop()
                if node.kind == _LEAF:
                    out.append(node.leaf)
                else:
                    stack.extend(c for c in reversed(node.children) if c is not None)
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
    """Recompute every separation property of a leaf from scratch."""
    problems = []
    cfg = tree.cfg
    P = tree.positions
    ball = enclosing_ball(leaf.cell)
    if len(leaf.in_cell) > 1:
        problems.append("more than one in-cell site")
    for pos in leaf.in_cell:
        if not leaf.cell.contains(P[pos], tol=1e-9):
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
