"""The evaluation kernel: families of site functions as struct-of-arrays.

``SiteFamily`` holds a family as positions and one kernel object per kind
with its parameter arrays, which evaluates the array formulas of
``distances`` for all its members at once and also bounds each member's
minimum at a given Euclidean distance from its site. It is built once per
index and evaluates every member at every point (cross values) or each
member at its own row (row-paired values and gradients, for points the
caller keeps inside the domain). Custom gauges keep their own callables and
are evaluated one member at a time. Building a family samples the deferred
Bregman ``tau`` of its members in one pass per generator.
"""

from __future__ import annotations

import copy

import numpy as np

from .distances import (
    DomainError,
    bregman_gradients,
    bregman_values,
    mahalanobis_gradients,
    mahalanobis_values,
    minkowski_gradients,
    minkowski_values,
    resolve_tau,
)


# ---------------------------------------------------------------------------
# Per-kind parameter arrays
# ---------------------------------------------------------------------------


class _Kernel:
    """Members of one kind: positions ``P`` (m, d) and the other per-member
    arrays named in ``arrays``. ``bounds(t)`` gives (lo, hi) bounds on each
    member's minimum over a region at Euclidean distance t from its site."""

    __slots__ = ("P",)
    arrays: tuple[str, ...] = ("P",)

    def take(self, sel):
        new = copy.copy(self)
        for name in self.arrays:
            setattr(new, name, getattr(self, name)[sel])
        return new


class MinkowskiKernel(_Kernel):
    kind = "minkowski"
    __slots__ = ("k", "W", "ratio")
    arrays = ("P", "W")

    def __init__(self, fns, P):
        self.P = P
        self.k = fns[0].k
        self.W = np.array([f.weight for f in fns])
        self.ratio = fns[0].dim ** abs(0.5 - 1.0 / self.k)  # max of ||v||_k/||v||_2 or its inverse

    def values(self, X, V):
        return minkowski_values(V, self.k, self.W)

    def gradients(self, X, V):
        return minkowski_gradients(V, self.k, self.W)

    def bounds(self, t):
        if self.k >= 2.0:
            return self.W / self.ratio * t, self.W * t
        return self.W * t, self.W * self.ratio * t


class MahalanobisKernel(_Kernel):
    kind = "mahalanobis"
    __slots__ = ("M", "lo", "hi")
    arrays = ("P", "M", "lo", "hi")

    def __init__(self, fns, P):
        self.P = P
        self.M = np.stack([f.matrix for f in fns])
        self.lo = np.array([f.sqrt_eig_min for f in fns])
        self.hi = np.array([f.sqrt_eig_max for f in fns])

    def values(self, X, V):
        if V.shape[1] == 1:
            # einsum loops differently over a lone member's size-1 axis, which
            # can round differently at d = 2; evaluated beside a copy of
            # itself, a member's value does not depend on its family.
            V, M = np.concatenate([V, V], axis=1), np.concatenate([self.M, self.M])
            return mahalanobis_values(V, M)[:, :1]
        return mahalanobis_values(V, self.M)

    def gradients(self, X, V):
        return mahalanobis_gradients(V, self.M)

    def bounds(self, t):
        return self.lo * t, self.hi * t


class BregmanKernel(_Kernel):
    kind = "bregman"
    __slots__ = ("spec", "fP", "gP")
    arrays = ("P", "fP", "gP")

    def __init__(self, fns, P):
        self.P = P
        self.spec = fns[0].spec
        self.fP = np.array([f._site_value for f in fns])
        self.gP = np.stack([f._site_grad for f in fns])

    def values(self, X, V):
        return bregman_values(self.spec, X, V, self.fP, self.gP)

    def gradients(self, X, V):
        return bregman_gradients(self.spec, X, self.gP)

    def bounds(self, t):
        lo, hi = self.spec.eig_low, self.spec.eig_high
        if lo is None or hi is None:
            raise ValueError("generator lacks Hessian eigenvalue bounds")
        return 0.5 * lo * t * t, 0.5 * hi * t * t


class GaugeKernel(_Kernel):
    """Custom gauges: a list of members, each evaluated by its own callables."""

    kind = "gauge"
    __slots__ = ("fns", "lo", "hi")
    arrays = ("P", "lo", "hi")

    def __init__(self, fns, P):
        self.P = P
        self.fns = list(fns)
        self.lo = np.array([f._bounds[0] for f in fns])
        self.hi = np.array([f._bounds[1] for f in fns])

    def take(self, sel):
        new = super().take(sel)
        new.fns = [self.fns[i] for i in sel]
        return new

    def _each(self, method, X):
        cols = X.shape[1]
        return np.stack([getattr(f, method)(X[:, j if cols > 1 else 0])
                         for j, f in enumerate(self.fns)], axis=1)

    def values(self, X, V):
        return self._each("_values", X)

    def gradients(self, X, V):
        return self._each("_gradients", X)

    def bounds(self, t):
        return self.lo * t, self.hi * t


def _kernel_key(f):
    if f.kind == "minkowski":
        return MinkowskiKernel, f.k
    if f.kind == "mahalanobis":
        return MahalanobisKernel, None
    if f.kind == "bregman":
        return BregmanKernel, id(f.spec)
    return GaugeKernel, None


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


class SiteFamily:
    """A family of site functions as struct-of-arrays.

    ``fns`` keeps the per-site objects, ``P`` the sites (n, d), ``tau`` the
    growth constants, and ``groups`` a list of (member ids, kernel) pairs,
    one per kind (and per Minkowski exponent or Bregman generator). The ids
    of a single group are ``slice(None)``.
    """

    __slots__ = ("fns", "P", "tau", "groups")

    def __init__(self, fns):
        self.fns = list(fns)
        if not self.fns:
            raise ValueError("empty family")
        self.P = np.stack([f.site for f in self.fns])
        resolve_tau(self.fns)
        self.tau = np.array([f._tau for f in self.fns])
        by_key: dict[tuple, list[int]] = {}
        for i, f in enumerate(self.fns):
            by_key.setdefault(_kernel_key(f), []).append(i)
        if len(by_key) == 1:
            ((cls, _),) = by_key
            self.groups = [(slice(None), cls(self.fns, self.P))]
            return
        self.groups = []
        for (cls, _), ids in by_key.items():
            idx = np.array(ids)
            self.groups.append((idx, cls([self.fns[i] for i in ids], self.P[idx])))

    @classmethod
    def of(cls, family) -> "SiteFamily":
        """The family itself, or one built from a list of site functions."""
        return family if isinstance(family, cls) else cls(family)

    def __len__(self) -> int:
        return len(self.fns)

    @property
    def specs(self) -> list:
        """Bregman generators of the family."""
        return [k.spec for _, k in self.groups if isinstance(k, BregmanKernel)]

    def _apply(self, method: str, X: np.ndarray) -> np.ndarray:
        """Kernel ``method`` on a (T, m, d) stack, or on (T, 1, d) for every member."""
        if len(self.groups) == 1:
            _, kern = self.groups[0]
            return getattr(kern, method)(X, X - kern.P)
        shape = X.shape[:1] + (len(self),) + (X.shape[2:] if method == "gradients" else ())
        out = np.empty(shape)
        for idx, kern in self.groups:
            Xg = X if X.shape[1] == 1 else X[:, idx]
            out[:, idx] = getattr(kern, method)(Xg, Xg - kern.P)
        return out

    def check_domain(self, X: np.ndarray) -> None:
        for spec in self.specs:
            if not np.all(spec.in_domain(X)):
                raise DomainError("query outside domain")

    def values(self, X) -> np.ndarray:
        """Every member at every point: shape (A, n) for X of shape (A, d) or (d,)."""
        X = np.asarray(X, dtype=float)
        X = X.reshape(-1, X.shape[-1])
        self.check_domain(X)
        return self._apply("values", X[:, None, :])

    def paired(self, X) -> np.ndarray:
        """Member i at X[i] (X of shape (n, d)), or at X[t, i] of a (T, n, d) grid."""
        X = np.asarray(X, dtype=float)
        return self._apply("values", X) if X.ndim == 3 else self._apply("values", X[None])[0]

    def gradients(self, X) -> np.ndarray:
        """Gradient of member i at X[i], for X of shape (n, d)."""
        return self._apply("gradients", np.asarray(X, dtype=float)[None])[0]

    def value_bounds(self, dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-member (lo, hi) bounds on the minimum over a region at
        Euclidean distance ``dists[i]`` from site i."""
        if len(self.groups) == 1:
            return self.groups[0][1].bounds(dists)
        lo, hi = np.empty(len(self)), np.empty(len(self))
        for idx, kern in self.groups:
            lo[idx], hi[idx] = kern.bounds(dists[idx])
        return lo, hi

    def take(self, idx) -> "SiteFamily":
        """The members at positions ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        sub = object.__new__(SiteFamily)
        sub.fns = [self.fns[i] for i in idx]
        sub.tau = self.tau[idx]
        if len(self.groups) == 1:
            kern = self.groups[0][1].take(idx)
            sub.P = kern.P
            sub.groups = [(slice(None), kern)]
            return sub
        sub.P = self.P[idx]
        group_of = np.empty(len(self), dtype=np.intp)
        slot = np.empty(len(self), dtype=np.intp)
        for j, (gidx, _) in enumerate(self.groups):
            group_of[gidx] = j
            slot[gidx] = np.arange(len(gidx))
        sub.groups = []
        for j, (_, kern) in enumerate(self.groups):
            sel = np.flatnonzero(group_of[idx] == j)
            if sel.size:
                sub.groups.append((sel, kern.take(slot[idx[sel]])))
        return sub

    def resite(self, p) -> "SiteFamily":
        """Every member translated to the site ``p``."""
        return SiteFamily([f.resite(p) for f in self.fns])


def batch_values(family, X) -> np.ndarray:
    """Evaluate every member at every point: result shape (A, len(family))."""
    return SiteFamily.of(family).values(X)


def batch_value_bounds(family, dists) -> tuple[np.ndarray, np.ndarray]:
    """Per-member (lo, hi) bounds on the minimum over a region at the given
    Euclidean distances from each site."""
    return SiteFamily.of(family).value_bounds(np.asarray(dists, dtype=float))
