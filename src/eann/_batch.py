"""Families of site functions as struct-of-arrays.

``SiteFamily`` holds a family as positions, growth constants and one kernel
of ``distances`` per kind (and per Minkowski exponent, Bregman generator or
custom-gauge triple), with its parameter arrays. Built once per index from
site functions, it keeps none of them: it evaluates every member at every
point (cross values), or each member at its own row (row-paired values,
gradients and Hessians, for points the caller keeps inside the domain), and
bounds each member's minimum at a given Euclidean distance from its site.
Building a family samples the deferred Bregman ``tau`` of its members in
one pass per generator.
"""

from __future__ import annotations

import numpy as np

from .distances import BregmanKernel, DomainError, resolve_tau

# Trailing axes a kernel method adds per member: none, (d,) or (d, d).
_RANK = {"values": 0, "gradients": 1, "hessians": 2}


class SiteFamily:
    """A family of site functions as struct-of-arrays.

    ``P`` holds the sites (n, d), ``tau`` the growth constants, and
    ``groups`` a list of (member ids, kernel) pairs, one per kernel. The ids
    of a single group are ``slice(None)``.
    """

    __slots__ = ("P", "tau", "groups")

    def __init__(self, fns):
        fns = list(fns)
        if not fns:
            raise ValueError("empty family")
        self.P = np.stack([f.site for f in fns])
        resolve_tau(fns)
        self.tau = np.array([f._tau for f in fns])
        by_key: dict[tuple, list[int]] = {}
        for i, f in enumerate(fns):
            cls = f._kernel_type
            by_key.setdefault((cls, cls.group(f)), []).append(i)
        if len(by_key) == 1:
            ((cls, _),) = by_key
            self.groups = [(slice(None), cls(fns, self.P))]
            return
        self.groups = []
        for (cls, _), ids in by_key.items():
            idx = np.array(ids)
            self.groups.append((idx, cls([fns[i] for i in ids], self.P[idx])))

    @classmethod
    def of(cls, family) -> "SiteFamily":
        """The family itself, or one built from a list of site functions."""
        return family if isinstance(family, cls) else cls(family)

    def __len__(self) -> int:
        return len(self.P)

    @property
    def specs(self) -> list:
        """Bregman generators of the family."""
        return [k.spec for _, k in self.groups if isinstance(k, BregmanKernel)]

    def _apply(self, method: str, X: np.ndarray) -> np.ndarray:
        """Kernel ``method`` on a (T, m, d) stack, or on (T, 1, d) for every member."""
        if len(self.groups) == 1:
            _, kern = self.groups[0]
            return getattr(kern, method)(X, X - kern.P)
        out = np.empty(X.shape[:1] + (len(self),) + X.shape[2:] * _RANK[method])
        for idx, kern in self.groups:
            Xg = X if X.shape[1] == 1 else X[:, idx]
            out[:, idx] = getattr(kern, method)(Xg, Xg - kern.P)
        return out

    def _paired(self, method: str, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self._apply(method, X) if X.ndim == 3 else self._apply(method, X[None])[0]

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
        return self._paired("values", X)

    def gradients(self, X) -> np.ndarray:
        """Gradient of member i at X[i], or at X[t, i], as in ``paired``."""
        return self._paired("gradients", X)

    def hessians(self, X) -> np.ndarray:
        """Hessian of member i at X[i], or at X[t, i], as in ``paired``."""
        return self._paired("hessians", X)

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
        sub.tau = self.tau.take(idx)
        if len(self.groups) == 1:
            kern = self.groups[0][1].take(idx)
            sub.P = kern.P
            sub.groups = [(slice(None), kern)]
            return sub
        sub.P = self.P.take(idx, axis=0)
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
        """Every member of a scaling family translated to the site ``p``."""
        p = np.asarray(p, dtype=float)
        sub = object.__new__(SiteFamily)
        sub.P, sub.tau = np.tile(p, (len(self), 1)), self.tau
        sub.groups = [(idx, kern.resite(p)) for idx, kern in self.groups]
        return sub


def batch_values(family, X) -> np.ndarray:
    """Evaluate every member at every point: result shape (A, len(family))."""
    return SiteFamily.of(family).values(X)


def batch_value_bounds(family, dists) -> tuple[np.ndarray, np.ndarray]:
    """Per-member (lo, hi) bounds on the minimum over a region at the given
    Euclidean distances from each site."""
    return SiteFamily.of(family).value_bounds(np.asarray(dists, dtype=float))
