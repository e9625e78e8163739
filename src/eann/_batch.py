"""Grouped evaluation of site-function families.

Hot paths (envelope anchors, pruning screens, brute-force scans) evaluate
many functions of the same kind at many points; this module vectorizes
across sites wherever the kind allows and falls back to per-function loops
otherwise. Results always follow the input function order.
"""

from __future__ import annotations

import numpy as np

from .distances import (
    BregmanDistance,
    DomainError,
    MahalanobisDistance,
    MinkowskiDistance,
    SiteFunction,
)


def _mink_group_values(fns: list[MinkowskiDistance], X: np.ndarray) -> np.ndarray:
    k = fns[0].k
    P = np.stack([f.site for f in fns])
    W = np.array([f.weight for f in fns])
    V = np.abs(X[:, None, :] - P[None, :, :])  # (A, m, d)
    m = np.max(V, axis=2)
    safe = np.where(m > 0.0, m, 1.0)
    s = np.sum((V / safe[:, :, None]) ** k, axis=2)
    return W[None, :] * m * s ** (1.0 / k)


def _mahal_group_values(fns: list[MahalanobisDistance], X: np.ndarray) -> np.ndarray:
    P = np.stack([f.site for f in fns])
    M = np.stack([f.matrix for f in fns])
    V = X[:, None, :] - P[None, :, :]
    q = np.einsum("amd,mde,ame->am", V, M, V)
    return np.sqrt(np.maximum(q, 0.0))


def _bregman_group_values(fns: list[BregmanDistance], X: np.ndarray) -> np.ndarray:
    spec = fns[0].spec
    if not np.all(spec.in_domain(X)):
        raise DomainError("query outside domain")
    P = np.stack([f.site for f in fns])
    fX = spec.values(X)
    fP = spec.values(P)
    gP = spec.gradients(P)
    cross = X @ gP.T  # (A, m)
    lin = np.einsum("md,md->m", gP, P)
    return fX[:, None] - fP[None, :] - cross + lin[None, :]


def _group_key(f: SiteFunction):
    if isinstance(f, MinkowskiDistance):
        return ("minkowski", round(f.k, 12))
    if isinstance(f, MahalanobisDistance):
        return ("mahalanobis", f.dim)
    if isinstance(f, BregmanDistance):
        return ("bregman", id(f.spec))
    return ("generic", id(f))


def batch_values(fns: list[SiteFunction], X) -> np.ndarray:
    """Evaluate every function at every point: result shape (A, len(fns))."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    out = np.empty((X.shape[0], len(fns)))
    groups: dict[object, list[int]] = {}
    for i, f in enumerate(fns):
        groups.setdefault(_group_key(f), []).append(i)
    for key, idxs in groups.items():
        sub = [fns[i] for i in idxs]
        if key[0] == "minkowski":
            vals = _mink_group_values(sub, X)
        elif key[0] == "mahalanobis":
            vals = _mahal_group_values(sub, X)
        elif key[0] == "bregman":
            vals = _bregman_group_values(sub, X)
        else:
            vals = np.column_stack([f._values(X) for f in sub])
        out[:, idxs] = vals
    return out


def batch_value_bounds(fns: list[SiteFunction], dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-function (lo, hi) bounds on the minimum over a region at the
    given Euclidean distances from each site."""
    lo = np.empty(len(fns))
    hi = np.empty(len(fns))
    groups: dict[object, list[int]] = {}
    for i, f in enumerate(fns):
        groups.setdefault(_group_key(f), []).append(i)
    for key, idxs in groups.items():
        sub = [fns[i] for i in idxs]
        idx = np.array(idxs, dtype=int)
        dd = dists[idx]
        if key[0] == "minkowski":
            f0 = sub[0]
            ratio = f0.dim ** abs(0.5 - 1.0 / f0.k)
            W = np.array([f.weight for f in sub])
            if f0.k >= 2.0:
                lo[idx], hi[idx] = W / ratio * dd, W * dd
            else:
                lo[idx], hi[idx] = W * dd, W * ratio * dd
        elif key[0] == "mahalanobis":
            lo_c = np.array([f.sqrt_eig_min for f in sub])
            hi_c = np.array([f.sqrt_eig_max for f in sub])
            lo[idx], hi[idx] = lo_c * dd, hi_c * dd
        elif key[0] == "bregman":
            spec = sub[0].spec
            if spec.eig_low is None or spec.eig_high is None:
                raise ValueError("generator lacks Hessian eigenvalue bounds")
            lo[idx] = 0.5 * spec.eig_low * dd * dd
            hi[idx] = 0.5 * spec.eig_high * dd * dd
        else:
            for j, f in enumerate(sub):
                lo[idx[j]], hi[idx[j]] = f.euclid_value_bounds(float(dd[j]))
    return lo, hi


class PairedFamily:
    """Per-kind parameter stacks for repeated row-paired evaluation.

    Resolves the grouping and stacks sites/weights/matrices once, so hot
    loops (line searches, descent steps) avoid per-call bookkeeping.
    """

    def __init__(self, fns: list[SiteFunction]):
        self.fns = fns
        self.m = len(fns)
        self.trust_domain = False  # set when the caller guarantees in-domain points
        self.groups = []
        by_key: dict[object, list[int]] = {}
        for i, f in enumerate(fns):
            by_key.setdefault(_group_key(f), []).append(i)
        for key, idxs in by_key.items():
            sub = [fns[i] for i in idxs]
            idx = np.array(idxs, dtype=int)
            if key[0] == "minkowski":
                data = {
                    "P": np.stack([f.site for f in sub]),
                    "k": sub[0].k,
                    "W": np.array([f.weight for f in sub]),
                }
            elif key[0] == "mahalanobis":
                data = {
                    "P": np.stack([f.site for f in sub]),
                    "M": np.stack([f.matrix for f in sub]),
                }
            elif key[0] == "bregman":
                spec = sub[0].spec
                P = np.stack([f.site for f in sub])
                data = {
                    "P": P,
                    "spec": spec,
                    "fP": spec.values(P),
                    "gP": spec.gradients(P),
                }
            else:
                data = {"sub": sub}
            self.groups.append((key[0], idx, data))

    def values(self, X: np.ndarray) -> np.ndarray:
        return self.grid_values(X[None, :, :])[0]

    def grid_values(self, XT: np.ndarray) -> np.ndarray:
        """Values on a (T, m, d) grid, row-paired in the middle axis."""
        T = XT.shape[0]
        out = np.empty((T, self.m))
        for kind, idx, data in self.groups:
            pts = XT[:, idx, :]
            if kind == "minkowski":
                V = np.abs(pts - data["P"][None, :, :])
                mx = np.max(V, axis=2)
                safe = np.where(mx > 0.0, mx, 1.0)
                s = np.sum((V / safe[:, :, None]) ** data["k"], axis=2)
                out[:, idx] = data["W"][None, :] * mx * s ** (1.0 / data["k"])
            elif kind == "mahalanobis":
                V = pts - data["P"][None, :, :]
                out[:, idx] = np.sqrt(np.maximum(
                    np.einsum("tmd,mde,tme->tm", V, data["M"], V), 0.0))
            elif kind == "bregman":
                spec = data["spec"]
                flat = pts.reshape(-1, pts.shape[2])
                if not self.trust_domain and not np.all(spec.in_domain(flat)):
                    raise DomainError("query outside domain")
                fX = spec.values(flat).reshape(T, len(idx))
                rel = pts - data["P"][None, :, :]
                out[:, idx] = fX - data["fP"][None, :] - np.einsum(
                    "md,tmd->tm", data["gP"], rel)
            else:
                for j, f in enumerate(data["sub"]):
                    out[:, idx[j]] = f._values(pts[:, j, :])
        return out

    def gradients(self, X: np.ndarray) -> np.ndarray:
        out = np.empty_like(X)
        for kind, idx, data in self.groups:
            pts = X[idx]
            if kind == "minkowski":
                k = data["k"]
                V = pts - data["P"]
                mx = np.max(np.abs(V), axis=1)
                t = V / mx[:, None]
                a = np.abs(t)
                s = np.sum(a**k, axis=1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    out[idx] = (data["W"][:, None] * s[:, None] ** (1.0 / k - 1.0)
                                * a ** (k - 1.0) * np.sign(t))
            elif kind == "mahalanobis":
                V = pts - data["P"]
                mv = np.einsum("mde,me->md", data["M"], V)
                fv = np.sqrt(np.maximum(np.einsum("md,md->m", V, mv), 0.0))
                out[idx] = mv / fv[:, None]
            elif kind == "bregman":
                out[idx] = data["spec"].gradients(pts) - data["gP"]
            else:
                for j, f in enumerate(data["sub"]):
                    out[idx[j]] = f._gradients(pts[j][None, :])[0]
        return out

