"""The leaf envelope: lattice witnesses of the concave lower envelope of a
normalized family over the unit ball.

``ConcaveEnvelope(nf, eps_abs)`` takes a ``NormalizedFamily`` and adds the
concavifying offset of ``convexify`` to its members' values. Anchors live
on an axis-aligned lattice clipped to the ball (lattice points just outside
are projected radially onto the sphere, which preserves the covering radius
because projection onto a convex set is non-expansive). Each anchor stores
only its argmin member, the witness. A query gathers the anchors around it
and re-evaluates their witnesses exactly. A concave witness lies below its
tangent at the anchor, and the covering radius keeps that tangent within
the error budget of the envelope, so returned values never fall below the
true envelope nor exceed it by more than the budget.

``build_relative`` builds the envelope of a separated family over a world
ball at the budget eps/5, whose witnesses are within (1+eps) of the family
minimum. Anchors are materialized on first access and memoized; they are a
pure function of the family and the lattice index, so results do not depend
on query order.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from .convexify import NormalizedFamily, convexify, normalize
from .geom import EuclideanBall

SPACING_SAFETY = 0.8


class ConcaveEnvelope:
    """Lattice-indexed witnesses of min_i g_i + phi over the unit ball, for
    the members g_i of a normalized family ``nf``."""

    def __init__(self, nf: NormalizedFamily, eps_abs: float):
        if not (0.0 < eps_abs <= 1.0):
            raise ValueError("eps out of range")
        self.nf = nf
        self.eps_abs = float(eps_abs)
        self.dim = d = nf.ball.dim
        # Covering radius from the quadratic tangent-error budget: curvature
        # at least -5/16 keeps the overestimate below (5/32) r^2 <= eps/2.
        self.cover_radius = SPACING_SAFETY * float(np.sqrt(16.0 * eps_abs / 5.0))
        self.spacing = 2.0 * self.cover_radius / np.sqrt(d)
        self.window = max(1, int(np.ceil(np.sqrt(d) / 2.0)))
        self.anchors: list[np.ndarray] = []
        self.witnesses: list[int] = []
        # Lattice key -> anchor id, or None for a key outside the ball.
        self._lattice: dict[tuple, int | None] = {}
        self._kmax = int(np.ceil((1.0 + self.cover_radius) / self.spacing))
        self._pos_of_index = {orig: pos for pos, orig in enumerate(nf.kept_indices)}
        self._lock = threading.Lock()

    # -- lattice materialization ------------------------------------------

    def _materialize_batch(self, keys: list[tuple]) -> None:
        with self._lock:
            pts = []
            valid = []
            for key in keys:
                if key in self._lattice:
                    continue
                if any(abs(k) > self._kmax for k in key):
                    self._lattice[key] = None
                    continue
                x = np.array(key, dtype=float) * self.spacing
                norm = float(np.linalg.norm(x))
                if norm > 1.0 + self.cover_radius:
                    self._lattice[key] = None
                    continue
                if norm > 1.0:
                    x = x / norm
                pts.append(x)
                valid.append(key)
            if not pts:
                return
            X = np.stack(pts)
            pos = np.argmin(convexify(self.nf.values_matrix(X), X), axis=1)
            for key, x, p in zip(valid, X, pos):
                self._lattice[key] = len(self.anchors)
                self.anchors.append(x)
                self.witnesses.append(int(self.nf.kept_indices[p]))

    def _window_keys(self, q: np.ndarray):
        base = np.floor(q / self.spacing + 1e-9).astype(int)
        w = self.window
        ranges = [range(int(b) - w, int(b) + w + 2) for b in base]
        return itertools.product(*ranges)

    def gather(self, q: np.ndarray) -> list[int]:
        keys = list(self._window_keys(q))
        self._materialize_batch(keys)
        ids = [i for i in map(self._lattice.get, keys) if i is not None]
        # For |q| <= 1 the lattice point nearest to q is in the window and
        # within cover_radius of q, so inside the ball widened by it.
        assert ids, "no anchor in the gather window"
        return ids

    def materialize_all(self) -> None:
        keys = list(itertools.product(range(-self._kmax, self._kmax + 1), repeat=self.dim))
        self._materialize_batch(keys)

    @property
    def sample_count(self) -> int:
        return len(self.anchors)

    # -- queries ----------------------------------------------------------

    def query_absolute(self, q) -> tuple[float, int]:
        """Envelope value and witness at q, within eps_abs above the truth.

        The returned value is the true convexified value of the returned
        witness at q, so it never undershoots the envelope.
        """
        q = np.asarray(q, dtype=float)
        norm = float(np.linalg.norm(q))
        if norm > 1.0 + 1e-9:
            raise ValueError("query outside envelope domain")
        if norm > 1.0:
            q = q / norm
        # Sorted witnesses break ties deterministically by original index.
        order = sorted({self.witnesses[i] for i in self.gather(q)})
        positions = [self._pos_of_index[w] for w in order]
        vals = convexify(self.nf.values_matrix(q)[:, positions], q)[0]
        best = int(np.argmin(vals))
        return float(vals[best]), order[best]

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
