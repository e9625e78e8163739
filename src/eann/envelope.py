"""Tangent-sampled lower envelopes of concave families over the unit ball.

Anchors live on an axis-aligned lattice clipped to the ball (lattice points
just outside are projected radially onto the sphere, which preserves the
covering radius because projection onto a convex set is non-expansive).
Each anchor stores the envelope value, the argmin member, and its gradient;
a query gathers the anchors around it and re-evaluates the gathered
witnesses exactly, so returned values never fall below the true envelope.

Anchor samples are materialized on first access and memoized; they are a
pure function of the family and the lattice index, so results do not depend
on query order.
"""

from __future__ import annotations

import itertools
import struct
import threading
from dataclasses import dataclass

import numpy as np

from ._batch import SiteFamily
from .convexify import ConvexifiedFamily, convexify, normalize
from .geom import EuclideanBall

SPACING_SAFETY = 0.8


@dataclass(frozen=True)
class TangentSample:
    anchor: np.ndarray
    value: float
    grad: np.ndarray
    witness: int


class ConcaveEnvelope:
    """Grid-indexed tangent samples of min_i g_i over the unit ball."""

    def __init__(self, members, eps_abs: float, curvature_bounded: bool = True):
        if not (0.0 < eps_abs <= 1.0):
            raise ValueError("eps out of range")
        self.members = members
        self.eps_abs = float(eps_abs)
        self.dim = members.normalized.ball.dim if hasattr(members, "normalized") else members.dim
        d = self.dim
        # Covering radius from the quadratic tangent-error budget: curvature
        # at least -5/16 keeps the overestimate below (5/32) r^2 <= eps/2.
        self.cover_radius_spec = float(np.sqrt(16.0 * eps_abs / 5.0))
        if curvature_bounded:
            self.cover_radius = SPACING_SAFETY * self.cover_radius_spec
            self.spacing = 2.0 * self.cover_radius / np.sqrt(d)
        else:
            # Gradient-bound-only fallback; storage then scales like (1/eps)^d.
            self.spacing = 0.5 * eps_abs * min(1.0, 2.0 / np.sqrt(d))
            self.cover_radius = self.spacing * np.sqrt(d) / 2.0
        self.window = max(1, int(np.ceil(np.sqrt(d) / 2.0)))
        self.anchors: list[np.ndarray] = []
        self.values: list[float] = []
        self.grads: list[np.ndarray] = []
        self.witnesses: list[int] = []
        self._lattice: dict[tuple, list[int] | None] = {}
        self._kmax = int(np.ceil((1.0 + self.cover_radius) / self.spacing))
        self._pos_of_index = {orig: pos for pos, orig in enumerate(members.kept_indices)}
        self._lock = threading.Lock()

    # -- lattice materialization ------------------------------------------

    def _materialize_batch(self, keys: list[tuple]) -> None:
        if self.members is None:
            return
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
            vals = self.members.values_matrix(X)
            pos = np.argmin(vals, axis=1)
            grads = np.empty_like(X)
            for p in np.unique(pos):
                mask = pos == p
                grads[mask] = self.members.member_gradients(int(p), X[mask])
            for i, key in enumerate(valid):
                idx = len(self.anchors)
                self.anchors.append(X[i])
                self.values.append(float(vals[i, pos[i]]))
                self.grads.append(grads[i])
                self.witnesses.append(int(self.members.kept_indices[pos[i]]))
                self._lattice[key] = [idx]

    def _materialize(self, key: tuple) -> list[int] | None:
        if key not in self._lattice:
            self._materialize_batch([key])
        return self._lattice.get(key)

    def _window_keys(self, q: np.ndarray):
        base = np.floor(q / self.spacing + 1e-9).astype(int)
        w = self.window
        ranges = [range(int(b) - w, int(b) + w + 2) for b in base]
        return itertools.product(*ranges)

    def gather(self, q: np.ndarray) -> list[int]:
        keys = list(self._window_keys(q))
        self._materialize_batch(keys)
        ids = []
        for key in keys:
            found = self._lattice.get(key)
            if found:
                ids.extend(found)
        if not ids:
            # Coarse lattices at large eps: widen until something is in range.
            w = self.window + 1
            while not ids and w <= self._kmax + 1:
                base = np.floor(q / self.spacing + 1e-9).astype(int)
                for key in itertools.product(*[range(int(b) - w, int(b) + w + 2) for b in base]):
                    found = self._materialize(key)
                    if found:
                        ids.extend(found)
                w += 1
        return ids

    def materialize_all(self) -> None:
        if self.members is None:
            return
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
        ids = self.gather(q)
        if self.members is None:
            return self._query_tangent(q, ids)
        seen: dict[int, int] = {}
        for i in ids:
            w = self.witnesses[i]
            if w not in seen:
                seen[w] = i
        order = sorted(seen)  # deterministic tie-breaking by original index
        positions = [self._pos_of_index[w] for w in order]
        vals = self.members.values_at_point(q, positions)
        best = int(np.argmin(vals))
        return float(vals[best]), order[best]

    def _query_tangent(self, q: np.ndarray, ids: list[int]) -> tuple[float, int]:
        best_val = np.inf
        best_w = -1
        for i in ids:
            t = self.values[i] + float(np.dot(self.grads[i], q - self.anchors[i]))
            if t < best_val or (t == best_val and self.witnesses[i] < best_w):
                best_val = t
                best_w = self.witnesses[i]
        return best_val, best_w

    # -- serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        self.materialize_all()
        d = self.dim
        n = self.sample_count
        out = [struct.pack("<IddI", d, self.spacing, self.eps_abs, n)]
        for i in range(n):
            out.append(np.asarray(self.anchors[i], dtype="<f8").tobytes())
            out.append(struct.pack("<d", self.values[i]))
            out.append(np.asarray(self.grads[i], dtype="<f8").tobytes())
            out.append(struct.pack("<i", self.witnesses[i]))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ConcaveEnvelope":
        d, spacing, eps_abs, n = struct.unpack_from("<IddI", blob, 0)
        off = struct.calcsize("<IddI")
        env = cls.__new__(cls)
        env.members = None
        env.dim = int(d)
        env.eps_abs = float(eps_abs)
        env.spacing = float(spacing)
        env.cover_radius_spec = float(np.sqrt(16.0 * eps_abs / 5.0))
        env.cover_radius = SPACING_SAFETY * env.cover_radius_spec
        env.window = max(1, int(np.ceil(np.sqrt(d) / 2.0)))
        env.anchors, env.values, env.grads, env.witnesses = [], [], [], []
        env._lattice = {}
        env._kmax = int(np.ceil((1.0 + env.cover_radius) / env.spacing))
        env._lock = threading.Lock()
        rec = d * 8 + 8 + d * 8 + 4
        for _ in range(n):
            anchor = np.frombuffer(blob, dtype="<f8", count=d, offset=off)
            value = struct.unpack_from("<d", blob, off + d * 8)[0]
            grad = np.frombuffer(blob, dtype="<f8", count=d, offset=off + d * 8 + 8)
            witness = struct.unpack_from("<i", blob, off + rec - 4)[0]
            env.anchors.append(anchor.copy())
            env.values.append(float(value))
            env.grads.append(grad.copy())
            env.witnesses.append(int(witness))
            off += rec
        # Deserialized envelopes answer from stored tangents; bucket anchors
        # by lattice cell so gathering works on positions alone.
        for i, a in enumerate(env.anchors):
            key = tuple(np.floor(a / env.spacing + 1e-9).astype(int))
            env._lattice.setdefault(key, []).append(i)
        env._pos_of_index = {}
        return env

    def samples(self) -> list[TangentSample]:
        self.materialize_all()
        return [TangentSample(self.anchors[i], self.values[i], self.grads[i], self.witnesses[i])
                for i in range(self.sample_count)]


def build_envelope(cf: ConvexifiedFamily, eps_abs: float,
                   curvature_bounded: bool = True) -> ConcaveEnvelope:
    return ConcaveEnvelope(cf, eps_abs, curvature_bounded=curvature_bounded)


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
