"""Witness lattices for the lower envelopes of concave families over the
unit ball.

Anchors live on an axis-aligned lattice clipped to the ball (lattice points
just outside are projected radially onto the sphere, which preserves the
covering radius because projection onto a convex set is non-expansive).
Each anchor stores only its argmin member, the witness. A query gathers the
anchors around it and re-evaluates their witnesses exactly. A concave
witness lies below its tangent at the anchor, and the covering radius keeps
that tangent within the error budget of the envelope, so returned values
never fall below the true envelope nor exceed it by more than the budget.

Anchors are materialized on first access and memoized; they are a pure
function of the family and the lattice index, so results do not depend on
query order.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from ._batch import SiteFamily
from .convexify import ConvexifiedFamily, convexify, normalize
from .geom import EuclideanBall

SPACING_SAFETY = 0.8


class ConcaveEnvelope:
    """Lattice-indexed witnesses of min_i g_i over the unit ball."""

    def __init__(self, members, eps_abs: float):
        if not (0.0 < eps_abs <= 1.0):
            raise ValueError("eps out of range")
        self.members = members
        self.eps_abs = float(eps_abs)
        self.dim = members.normalized.ball.dim if hasattr(members, "normalized") else members.dim
        d = self.dim
        # Covering radius from the quadratic tangent-error budget: curvature
        # at least -5/16 keeps the overestimate below (5/32) r^2 <= eps/2.
        self.cover_radius_spec = float(np.sqrt(16.0 * eps_abs / 5.0))
        self.cover_radius = SPACING_SAFETY * self.cover_radius_spec
        self.spacing = 2.0 * self.cover_radius / np.sqrt(d)
        self.window = max(1, int(np.ceil(np.sqrt(d) / 2.0)))
        self.anchors: list[np.ndarray] = []
        self.witnesses: list[int] = []
        # Lattice key -> anchor id, or None for a key outside the ball.
        self._lattice: dict[tuple, int | None] = {}
        self._kmax = int(np.ceil((1.0 + self.cover_radius) / self.spacing))
        self._pos_of_index = {orig: pos for pos, orig in enumerate(members.kept_indices)}
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
            pos = np.argmin(self.members.values_matrix(X), axis=1)
            for key, x, p in zip(valid, X, pos):
                self._lattice[key] = len(self.anchors)
                self.anchors.append(x)
                self.witnesses.append(int(self.members.kept_indices[p]))

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

    def full_sample_count(self) -> int:
        self.materialize_all()
        return len(self.anchors)

    def nearest_anchor_distance(self, q: np.ndarray) -> float:
        ids = self.gather(np.asarray(q, dtype=float))
        pts = np.stack([self.anchors[i] for i in ids])
        return float(np.min(np.linalg.norm(pts - q[None, :], axis=1)))

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
        vals = self.members.values_at_point(q, positions)
        best = int(np.argmin(vals))
        return float(vals[best]), order[best]


def build_envelope(cf: ConvexifiedFamily, eps_abs: float) -> ConcaveEnvelope:
    return ConcaveEnvelope(cf, eps_abs)


class RelativeAvr:
    """Relative (1+eps) envelope queries over a world-coordinate ball.

    Wraps normalize -> convexify -> build_envelope(eps/5) and maps query
    points into the unit ball and witness values back out.
    """

    def __init__(self, family, ball: EuclideanBall, eps: float,
                 indices=None, check_separation: bool = True, accuracy: str = "high"):
        if not (0.0 < eps <= 1.0):
            raise ValueError("eps out of range")
        family = SiteFamily.of(family)
        self.ball = ball
        self.eps = float(eps)
        if indices is None:
            indices = list(range(len(family)))
        self.indices = list(indices)
        if len(family) == 1:
            self.trivial = True
            self.family = family
            self.normalized = None
            self.convexified = None
            self.env = None
            return
        self.trivial = False
        self.family = None  # the kept members live in self.normalized.family
        self.normalized = normalize(family, ball, indices=indices,
                                    check_separation=check_separation, accuracy=accuracy)
        self.convexified = convexify(self.normalized)
        self.env = build_envelope(self.convexified, eps / 5.0)

    def query(self, x) -> tuple[float, int]:
        """(value, witness): the witness's exact distance value at x, at most
        (1+eps) times the family minimum for x inside the ball."""
        x = np.asarray(x, dtype=float)
        if self.trivial:
            return float(self.family.values(x)[0, 0]), self.indices[0]
        u = (x - self.ball.center) / self.ball.radius
        norm = float(np.linalg.norm(u))
        if norm > 1.0 + 1e-9:
            raise ValueError("query outside envelope domain")
        if norm > 1.0:
            u = u / norm
        val_hat, witness = self.env.query_absolute(u)
        offset = float(ConvexifiedFamily.offset(u[None, :])[0])
        f_val = (val_hat - offset) * self.normalized.scale_h
        return f_val, witness

    @property
    def sample_count(self) -> int:
        return 0 if self.trivial else self.env.sample_count


def build_relative(family, ball: EuclideanBall, eps: float,
                   indices=None, check_separation: bool = True,
                   accuracy: str = "high") -> RelativeAvr:
    return RelativeAvr(family, ball, eps, indices=indices,
                       check_separation=check_separation, accuracy=accuracy)
