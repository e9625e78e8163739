"""The leaf envelope: lattice witnesses of the concave lower envelope of a
normalized family over the unit ball.

``ConcaveEnvelope(nf, eps_abs)`` takes a ``NormalizedFamily``: the
paper's, from ``normalize``, or an index leaf's screen survivors at scale 1.
The concavifying offset phi of ``convexify`` is common to every member and
the scale positive, so neither moves an argmin. An anchor's witness is the
argmin of the members' values there without phi, as adding phi to values
far below it would round their differences away. Anchors live on an
axis-aligned lattice clipped to the ball (lattice points just outside are
projected radially onto the sphere, which preserves the covering radius
because projection onto a convex set is non-expansive). Each anchor stores
only its integer lattice code and its argmin member, the witness, as a kept
position; its point is derived from the code. A query re-evaluates the
witnesses of the anchors around it exactly. A concave witness lies below its
tangent at the anchor, and the covering radius keeps that tangent within
the error budget of the envelope, so returned values never fall below the
true envelope nor exceed it by more than the budget.

The anchors around a query form a fixed window about its lattice cell, so a
query's candidate witnesses depend only on that cell. ``cell_witnesses``
memoizes each cell's sorted witness positions under an integer cell code;
the first query in a cell gathers the window and builds its missing anchors
in one vectorized pass. ``query_absolute`` then picks the witness of least
convexified value at the query. An index leaf with more than
``EXACT_MAX`` survivors stops at ``cell_witnesses``: it nominates every
witness of the query's cell and evaluates them exactly at the query, with a
family it memoizes per distinct witness set, so its answer is never worse
there than the envelope's pick.

``build_relative`` builds the envelope of a separated family over a world
ball at the budget eps/5, whose witnesses are within (1+eps) of the family
minimum; the index builds its leaf envelopes at that budget too. Anchors
and cells are pure functions of the family and the lattice index, so
results do not depend on query order.
"""

from __future__ import annotations

import functools
import itertools
import threading

import numpy as np

from .convexify import NormalizedFamily, convexify, normalize
from .geom import EuclideanBall

SPACING_SAFETY = 0.8
@functools.lru_cache(maxsize=None)
def _radix(base: int, dim: int) -> np.ndarray:
    """Place values ``base ** j`` of lattice codes; read-only, as every
    envelope of one lattice shares them."""
    radix = base ** np.arange(dim, dtype=np.int64)
    radix.flags.writeable = False
    return radix


@functools.lru_cache(maxsize=None)
def _window_offsets(dim: int, window: int) -> np.ndarray:
    """Lattice offsets of a gather window from its base cell, in
    ``itertools.product`` order; read-only, as every envelope shares it."""
    offsets = np.array(list(itertools.product(range(-window, window + 2), repeat=dim)),
                       dtype=np.int64).reshape(-1, dim)
    offsets.flags.writeable = False
    return offsets


class ConcaveEnvelope:
    """Lattice-indexed witnesses of min_i g_i + phi over the unit ball, for
    the members g_i of a normalized family ``nf``."""

    __slots__ = ("nf", "dim", "cover_radius", "spacing", "window", "_kmax",
                 "_base", "_radix", "kept_ids", "_codes", "_wit", "_cells", "_lock")

    def __init__(self, nf: NormalizedFamily, eps_abs: float):
        if not (0.0 < eps_abs <= 1.0):
            raise ValueError("eps out of range")
        self.nf = nf
        self.dim = d = nf.ball.dim
        # Covering radius from the quadratic tangent-error budget: curvature
        # at least -5/16 keeps the overestimate below (5/32) r^2 <= eps/2.
        self.cover_radius = SPACING_SAFETY * float(np.sqrt(16.0 * eps_abs / 5.0))
        self.spacing = 2.0 * self.cover_radius / np.sqrt(d)
        self.window = max(1, int(np.ceil(np.sqrt(d) / 2.0)))
        self._kmax = int(np.ceil((1.0 + self.cover_radius) / self.spacing))
        # Balanced base-``radix`` codes of lattice keys in [-kmax, kmax]^d:
        # the base cell of every point of the ball lies there, and window
        # keys outside it are never anchors and are dropped before encoding.
        radix = 2 * self._kmax + 1
        if radix**d >= 2**62:
            raise ValueError("eps too small for the envelope lattice")
        self._base = radix
        self._radix = _radix(radix, d)
        # Original ids by kept position: the family's own int32 array.
        self.kept_ids = np.asarray(nf.kept_indices)
        # Anchors sorted by code, with the kept position of each witness.
        self._codes = np.empty(0, dtype=np.int64)
        self._wit = np.empty(0, dtype=np.int32)
        self._cells: dict[int, np.ndarray] = {}
        self._lock = threading.RLock()

    # -- lattice materialization ------------------------------------------

    def _points(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lattice points of integer keys (A, d), with their norms before
        points beyond the unit sphere are projected onto it."""
        X = keys * self.spacing
        # A batched BLAS dot per row: the norms np.linalg.norm gives one
        # point, so whether a key is an anchor does not depend on the batch.
        norms = np.sqrt(np.matmul(X[:, None, :], X[:, :, None]).reshape(-1))
        out = norms > 1.0
        X[out] /= norms[out, None]
        return X, norms

    def _keys(self, codes: np.ndarray) -> np.ndarray:
        """Lattice keys of codes: the inverse of ``keys @ self._radix``."""
        half = self._base // 2
        shifted = codes[:, None] + half * int(self._radix.sum())
        return (shifted // self._radix[None, :]) % self._base - half

    def _build(self, keys: np.ndarray) -> np.ndarray:
        """Anchor ids of the anchors among lattice ``keys``, building the
        missing ones in one values pass."""
        X, norms = self._points(keys)
        inside = (np.abs(keys) <= self._kmax).all(axis=1) & (norms <= 1.0 + self.cover_radius)
        codes, X = keys[inside] @ self._radix, X[inside]
        with self._lock:
            at = np.searchsorted(self._codes, codes)
            new = at == len(self._codes)
            new[~new] = self._codes[at[~new]] != codes[~new]
            if new.any():
                Xn = X[new]
                pos = np.argmin(self.nf.values_matrix(Xn), axis=1)
                codes_all = np.concatenate([self._codes, codes[new]])
                order = np.argsort(codes_all, kind="stable")
                self._codes = codes_all[order]
                self._wit = np.concatenate([self._wit, pos.astype(np.int32)])[order]
                at = np.searchsorted(self._codes, codes)
            return at

    def gather(self, q: np.ndarray) -> list[int]:
        """Ids of the anchors in the window around q's lattice cell, valid
        as indices of ``anchors`` until more anchors are built."""
        base = np.floor(q / self.spacing + 1e-9).astype(np.int64)
        ids = self._build(base + _window_offsets(self.dim, self.window)).tolist()
        # For |q| <= 1 the lattice point nearest to q is in the window and
        # within cover_radius of q, so inside the ball widened by it.
        assert ids, "no anchor in the gather window"
        return ids

    def materialize_all(self) -> None:
        k = self._kmax
        keys = np.array(list(itertools.product(range(-k, k + 1), repeat=self.dim)),
                        dtype=np.int64).reshape(-1, self.dim)
        self._build(keys)

    @property
    def anchors(self) -> np.ndarray:
        """Anchor points, one row per anchor id."""
        return self._points(self._keys(self._codes))[0]

    @property
    def witnesses(self) -> np.ndarray:
        """Original id of each anchor's witness, by anchor id: a snapshot,
        so read it after the ``gather`` whose ids index it."""
        return self.kept_ids[self._wit]

    @property
    def sample_count(self) -> int:
        return len(self._codes)

    # -- queries ----------------------------------------------------------

    @staticmethod
    def _onto_ball(u: np.ndarray) -> np.ndarray:
        """u, pulled onto the unit ball from at most 1e-9 outside it."""
        norm = float(np.linalg.norm(u))
        if not norm <= 1.0 + 1e-9:  # NaN included
            raise ValueError("query outside envelope domain")
        return u / norm if norm > 1.0 else u

    def unit_point(self, x) -> np.ndarray:
        """A world point of the family's ball in unit-ball coordinates."""
        ball = self.nf.ball
        return self._onto_ball((np.asarray(x, dtype=float) - ball.center) / ball.radius)

    def cell_witnesses(self, u: np.ndarray) -> np.ndarray:
        """Kept positions of the witnesses gathered around u (|u| <= 1), in
        ascending order of original id. They depend only on u's lattice
        cell, so they are memoized per cell."""
        base = np.floor(u / self.spacing + 1e-9).astype(np.int64)
        code = int(base @ self._radix)
        pos = self._cells.get(code)
        if pos is None:
            with self._lock:
                ids = self.gather(u)
                wit = np.flatnonzero(np.bincount(self._wit[ids]))
                pos = wit[np.argsort(self.kept_ids[wit], kind="stable")]
                pos = self._cells.setdefault(code, pos)
        return pos

    def query_absolute(self, q) -> tuple[float, int]:
        """Envelope value and witness at q, within eps_abs above the truth:
        the smallest convexified value at q among ``cell_witnesses(q)``,
        ties going to the lowest original id.

        The returned value is the true convexified value of the returned
        witness at q, so it never undershoots the envelope.
        """
        q = self._onto_ball(np.asarray(q, dtype=float))
        pos = self.cell_witnesses(q)
        vals = convexify(self.nf.values_matrix(q)[:, pos], q)[0]
        best = int(np.argmin(vals))
        return float(vals[best]), int(self.kept_ids[pos[best]])

    def query(self, x) -> int:
        """Witness at a point x of the family's world ball: its distance
        value at x is at most (1+eps) times the family minimum there when the
        envelope came from ``build_relative`` at that eps."""
        ball = self.nf.ball
        return self.query_absolute((np.asarray(x, dtype=float) - ball.center) / ball.radius)[1]


def build_relative(family, ball: EuclideanBall, eps: float, indices=None) -> ConcaveEnvelope:
    """Envelope of a separated family (a ``SiteFamily`` or a list of site
    functions, with original ids ``indices``) over a world ball, at the
    absolute budget eps/5 that bounds its answers' relative error by eps."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps out of range")
    return ConcaveEnvelope(normalize(family, ball, indices=indices), eps / 5.0)
