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
"""

from __future__ import annotations

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
)

_PENDING, _SPLIT, _SHRINK, _LEAF = 0, 1, 2, 3
# Site and position ids. Pending frontier nodes keep their id arrays, so a
# cold index holds many of them; int32 halves that memory.
_ID = np.int32
# Serialized tree configuration: dimension (u32), alpha, beta (f64), max_depth (u32).
CONFIG_RECORD = struct.Struct("<IddI")


@dataclass(frozen=True)
class AvdConfig:
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
    __slots__ = ("cell", "depth", "assigned", "near", "kind", "axis", "mid",
                 "qbox", "children", "leaf")

    def __init__(self, cell: BbdCell, depth: int, assigned: np.ndarray, near: np.ndarray):
        self.cell = cell
        self.depth = depth
        self.assigned = assigned
        self.near = near
        self.kind = _PENDING
        self.axis = -1
        self.mid = 0.0
        self.qbox: AlignedBox | None = None
        self.children: list[_Node | None] = []
        self.leaf: AvdLeaf | None = None


def _make_cell(outer: AlignedBox, inner: AlignedBox | None) -> BbdCell:
    """Build a cell, absorbing a hole that fills an exact half of the box."""
    while inner is not None:
        mids = 0.5 * (outer.low + outer.high)
        absorbed = False
        for a in range(outer.dim):
            full = np.ones(outer.dim, dtype=bool)
            full[a] = False
            spans = np.allclose(inner.low[full], outer.low[full], rtol=0, atol=0) and \
                np.allclose(inner.high[full], outer.high[full], rtol=0, atol=0)
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


def _points_in_box(P: np.ndarray, box: AlignedBox) -> np.ndarray:
    """Half-open membership mask (low edge closed), matching routing."""
    return np.all(P >= box.low[None, :], axis=1) & np.all(P < box.high[None, :], axis=1)


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
        groups: list[list[int]] = [[] for _ in range(len(self.positions))]
        for site_id, pos in enumerate(self.position_of_site):
            groups[pos].append(site_id)
        self.site_groups = [np.array(g, dtype=_ID) for g in groups]
        self.n_positions = len(self.positions)

        center = 0.5 * (sites.min(axis=0) + sites.max(axis=0))
        extent = float(np.max(sites.max(axis=0) - sites.min(axis=0)))
        side = 1.2 * extent + 1e-9 + 1e-9 * abs(extent)
        half = np.full(sites.shape[1], side / 2.0)
        self.root_box = AlignedBox(center - half, center + half)
        self._root = _Node(BbdCell(self.root_box, None), 0,
                           np.arange(self.n_positions, dtype=_ID), np.zeros(0, dtype=_ID))
        self._lock = threading.RLock()
        self._expansions = 0

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    # -- expansion ---------------------------------------------------------

    @staticmethod
    def _dist_point_cell_raw(p: np.ndarray, cell: BbdCell) -> float:
        olo, ohi = cell.outer.low, cell.outer.high
        if np.any(p < olo) or np.any(p > ohi):
            gap = np.maximum(np.maximum(olo - p, p - ohi), 0.0)
            return float(np.sqrt(np.dot(gap, gap)))
        inner = cell.inner
        if inner is None:
            return 0.0
        if np.all(p > inner.low) and np.all(p < inner.high):
            return float(min(np.min(p - inner.low), np.min(inner.high - p)))
        return 0.0

    def _try_leaf(self, node: _Node) -> bool:
        if len(node.assigned) > 1:
            return False
        cell = node.cell
        olo, ohi = cell.outer.low, cell.outer.high
        c = 0.5 * (olo + ohi)
        side = ohi - olo
        r = 0.5 * float(np.sqrt(np.dot(side, side)))
        alpha, beta = self.cfg.alpha, self.cfg.beta
        others = node.near
        if len(others) > 0:
            diff = self.positions[others] - c[None, :]
            dists = np.sqrt(np.einsum("md,md->m", diff, diff)) - r
            outer_ok = dists >= alpha * 2.0 * r
            rest = others[~outer_ok]
        else:
            rest = others
        inner_ball = None
        if len(rest) > 0:
            pts = self.positions[rest]
            bc = pts.mean(axis=0)
            rel = pts - bc[None, :]
            br = float(np.sqrt(np.max(np.einsum("md,md->m", rel, rel)))) * (1.0 + 1e-9)
            gap = self._dist_point_cell_raw(bc, cell) - br
            if gap < beta * 2.0 * br:
                return False
            inner_ball = unchecked_ball(bc, br)
        node.kind = _LEAF
        node.leaf = AvdLeaf(cell, node.depth, node.assigned.copy(),
                            rest.copy(), inner_ball, self.n_positions)
        return True

    def _shrink_target(self, node: _Node) -> AlignedBox | None:
        if node.cell.inner is not None or len(node.assigned) < 2:
            return None
        pts = self.positions[node.assigned]
        n_total = len(pts)
        lo = node.cell.outer.low.copy()
        hi = node.cell.outer.high.copy()
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

    def _split_near(self, node: _Node, child_cell: BbdCell, moved: np.ndarray) -> np.ndarray:
        """Near set for a child: parent's near plus sites routed elsewhere,
        minus sites separated strongly enough to stay outer for the whole
        subtree below the child."""
        cand = np.concatenate([node.near, moved])
        if len(cand) == 0:
            return cand
        box = child_cell.outer
        ball_r = float(np.linalg.norm(box.sides) / 2.0)
        dists = box_distances(box.low, box.high, self.positions[cand])
        keep = dists < (2.0 * self.cfg.alpha + 1.0) * ball_r
        return cand[keep]

    def _expand(self, node: _Node) -> None:
        if node.kind != _PENDING:
            return
        self._expansions += 1
        if self._try_leaf(node):
            return
        if node.depth >= self.cfg.max_depth:
            raise RuntimeError(
                "max depth exceeded at cell "
                f"[{node.cell.outer.low}, {node.cell.outer.high}]"
            )
        qbox = self._shrink_target(node)
        P = self.positions
        if qbox is not None:
            in_q = np.zeros(self.n_positions, dtype=bool)
            in_q[node.assigned] = _points_in_box(P[node.assigned], qbox)
            a_in = node.assigned[in_q[node.assigned]]
            a_out = node.assigned[~in_q[node.assigned]]
            cell_in = unchecked_cell(qbox, None)
            cell_out = _make_cell(node.cell.outer, qbox)
            node.kind = _SHRINK
            node.qbox = qbox
            node.children = [
                _Node(cell_in, node.depth + 1, a_in, self._split_near(node, cell_in, a_out)),
                _Node(cell_out, node.depth + 1, a_out, self._split_near(node, cell_out, a_in)),
            ]
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
            side = P[node.assigned, axis] >= mid
            parts = [node.assigned[~side], node.assigned[side]]
            # A side swallowed whole by the hole gets no child; sites routed
            # there sit on the hole boundary and belong to the sibling, which
            # is also where locate falls back to.
            for i in (0, 1):
                if cells[i].is_empty() and len(parts[i]) > 0:
                    parts[1 - i] = np.sort(np.concatenate([parts[1 - i], parts[i]]))
                    parts[i] = np.zeros(0, dtype=_ID)
            node.kind = _SPLIT
            node.axis = axis
            node.mid = mid
            node.children = []
            for i in (0, 1):
                if cells[i].is_empty():
                    node.children.append(None)
                    continue
                moved = parts[1 - i]
                node.children.append(
                    _Node(cells[i], node.depth + 1, parts[i],
                          self._split_near(node, cells[i], moved))
                )
        node.assigned = np.zeros(0, dtype=_ID)
        node.near = np.zeros(0, dtype=_ID)

    # -- queries -----------------------------------------------------------

    def locate(self, q) -> tuple[AvdLeaf | None, int]:
        """Leaf containing q, with the number of nodes visited.

        Returns (None, visits) for points outside the root box: the caller
        owns the unbounded outside region.
        """
        q = np.asarray(q, dtype=float)
        if not (np.all(q >= self.root_box.low) and np.all(q < self.root_box.high)):
            return None, 1
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
                    want = 1 if q[node.axis] >= node.mid else 0
                else:
                    inq = bool(np.all(q >= node.qbox.low) and np.all(q < node.qbox.high))
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

    def leaves(self) -> list[AvdLeaf]:
        self.materialize()
        out = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.kind == _LEAF:
                out.append(node.leaf)
            else:
                stack.extend(c for c in reversed(node.children) if c is not None)
        return out

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
    ``site_groups`` maps each merged position back to the original ids."""
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
