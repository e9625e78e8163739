"""Families of distance functions as struct-of-arrays.

``SiteFamily`` holds a family as positions, growth constants and one kernel
of ``distances`` per kind (and per Minkowski exponent, Bregman generator or
custom-gauge triple), with its parameter arrays. Built from the kernels and
``tau`` that the per-kind constructors return (``from_groups``, as the
config reader and ``load_index`` do), or by concatenating the one-member
kernels of site functions, it samples every deferred ``tau`` in one pass
per kernel group and keeps no site object; ``member`` views one as a site
function. At points the caller keeps inside the domain, it evaluates every
member at every point (cross values), or each member at its own row
(row-paired values, gradients and Hessians), and bounds each member's
minimum at a given Euclidean distance from its site.
"""

from __future__ import annotations

import numpy as np

from .distances import BregmanKernel, SiteFunction, sampled_tau

# Trailing axes a kernel method adds per member: none, (d,) or (d, d).
_RANK = {"values": 0, "gradients": 1, "hessians": 2}


def _one_dimension(kernels) -> None:
    """Raise ``ValueError`` naming the dimensions unless the sites of every
    kernel share one."""
    dims = sorted({kern.P.shape[1] for kern in kernels})
    if len(dims) > 1:
        raise ValueError(f"sites must share one dimension, got {dims}")


class SiteFamily:
    """A family of distance functions as struct-of-arrays.

    ``P`` holds the sites (n, d), ``tau`` the growth constants, and
    ``groups`` a list of (member ids, kernel) pairs, one per kernel. The ids
    of a single group are ``slice(None)``. With two or more groups,
    ``_group`` and ``_slot`` give each member's group and its row in that
    group's kernel.
    """

    __slots__ = ("P", "tau", "groups", "_group", "_slot")

    def __init__(self, fns):
        """The family of the site functions ``fns``, whose ``tau`` it
        samples where they have none and writes back into them."""
        fns = list(fns)
        if not fns:
            raise ValueError("empty family")
        _one_dimension(f.kernel for f in fns)
        by_key: dict[tuple, list[int]] = {}
        for i, f in enumerate(fns):
            by_key.setdefault((type(f.kernel), f.kernel.key), []).append(i)
        tau = np.array([f._tau for f in fns])
        fam = SiteFamily.from_groups([(np.array(ids), cls.concat([fns[i].kernel for i in ids]),
                                       tau[ids]) for (cls, _), ids in by_key.items()])
        for i in np.flatnonzero(np.isnan(tau)).tolist():
            fns[i]._tau = float(fam.tau[i])
        self.P, self.tau, self.groups = fam.P, fam.tau, fam.groups
        self._group, self._slot = fam._group, fam._slot

    @classmethod
    def from_groups(cls, groups: list) -> "SiteFamily":
        """The family of the (member ids, kernel, tau) triples ``groups``,
        whose ids partition the members, with ``tau`` one number for the
        group or one per member. A NaN ``tau`` is sampled, in one
        ``sampled_tau`` pass per group."""
        if not groups:
            raise ValueError("empty family")
        _one_dimension(kern for _, kern, _ in groups)
        fam = object.__new__(cls)
        if len(groups) == 1:
            _, kern, tau = groups[0]
            fam.P, fam.tau, fam.groups = kern.P, np.full(len(kern.P), tau), [(slice(None), kern)]
            fam._group = fam._slot = None
        else:
            n = sum(len(kern.P) for _, kern, _ in groups)
            fam.P, fam.tau = np.empty((n, groups[0][1].P.shape[1])), np.empty(n)
            fam.groups = [(idx, kern) for idx, kern, _ in groups]
            fam._group, fam._slot = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
            for j, (idx, kern, tau) in enumerate(groups):
                fam.P[idx], fam.tau[idx] = kern.P, tau
                fam._group[idx], fam._slot[idx] = j, np.arange(len(kern.P))
        for idx, kern in fam.groups:
            sel = np.flatnonzero(np.isnan(fam.tau[idx]))
            if sel.size:
                ids = np.arange(len(fam.tau))[idx][sel]
                fam.tau[ids] = sampled_tau(kern.take(sel), ids)
        return fam

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

    def values(self, X) -> np.ndarray:
        """Every member at every point: shape (A, n) for X of shape (A, d) or
        (d,), which the caller keeps inside the domain, as for ``paired``."""
        X = np.asarray(X, dtype=float)
        return self._apply("values", X.reshape(-1, X.shape[-1])[:, None, :])

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
            sub._group = sub._slot = None
            return sub
        sub.P = self.P.take(idx, axis=0)
        group, slot = self._group.take(idx), self._slot.take(idx)
        sub.groups = []
        sub._group, sub._slot = np.empty_like(group), np.empty_like(slot)
        for j, (_, kern) in enumerate(self.groups):
            sel = np.flatnonzero(group == j)
            if sel.size:
                sub._group[sel], sub._slot[sel] = len(sub.groups), np.arange(sel.size)
                sub.groups.append((sel, kern.take(slot.take(sel))))
        return sub

    def member(self, j: int) -> SiteFunction:
        """Member ``j`` as a site function over its kernel row and ``tau``."""
        sub = self.take([j])
        return SiteFunction(sub.groups[0][1], float(sub.tau[0]))

    def resite(self, p) -> "SiteFamily":
        """Every member of a scaling family translated to the site ``p``."""
        p = np.asarray(p, dtype=float)
        sub = object.__new__(SiteFamily)
        sub.P, sub.tau = np.tile(p, (len(self), 1)), self.tau
        sub._group, sub._slot = self._group, self._slot
        sub.groups = [(idx, kern.resite(p)) for idx, kern in self.groups]
        return sub


def batch_values(family, X) -> np.ndarray:
    """Evaluate every member at every point: result shape (A, len(family))."""
    return SiteFamily.of(family).values(X)


def batch_value_bounds(family, dists) -> tuple[np.ndarray, np.ndarray]:
    """Per-member (lo, hi) bounds on the minimum over a region at the given
    Euclidean distances from each site."""
    return SiteFamily.of(family).value_bounds(np.asarray(dists, dtype=float))
