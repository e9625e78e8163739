"""Distance functions attached to sites: weighted Minkowski and Mahalanobis
gauges, user-supplied convex gauges, and Bregman divergences.

One kernel per kind is the only code that evaluates a site. It holds the
parameters of ``m`` members as arrays and computes their values, gradients
and Hessians analytically on ``(T, m, d)`` stacks of points ``X`` and
offsets ``V = X - P`` against their sites ``P``. Its constructor is the only
code that validates those parameters and derives the per-member arrays.
One function per kind (``*_sites``) builds that kernel from parameter
arrays with each member's certified growth constant ``tau``, which the
search structures use to size separation parameters: for ``make_*`` (one
site, a ``SiteFunction``), the config reader and ``load_index`` alike.

A Minkowski gauge with k < 2, whose closed-form ``tau`` degenerates,
samples it once per (k, d), about the origin. A Bregman site without a
declared one samples ``tau`` later, when
``SiteFamily.from_groups`` builds a family (one batched pass per kernel
group), or on a lone site's first ``.tau`` read. A failing sample raises
``ValueError`` there, naming the site; the checks that need no sample
(site in domain, a declared ``tau`` for a non-quadratic generator on an
unbounded domain) still raise in the constructor.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geom import as_vector

_DIRECTION_SEED = 20240601
TAU_INFLATION = 1.10
VALUE_FLOOR = 1e-12
_TAU_DIRECTIONS = 1024  # unit directions about each site
_TAU_POINTS = 2048  # or uniform points of a Bregman domain box
MIN_TAU_SAMPLES = 10
# Float64 elements of one (samples, sites, d) array of the batched tau pass:
# 16 sites a chunk at 2,048 samples in d = 2. Building a 4,000-site KL index
# then raises peak RSS by 6 MB; chunks of 128 sites raise it by 42 MB.
_TAU_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class GaugeParams:
    """Fatness/smoothness constants of a gauge's unit ball.

    gamma: radius ratio of origin-centered inscribed/circumscribed balls.
    sigma: diameter ratio of the worst interior tangent ball to the body.
    """

    gamma: float
    sigma: float

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if not (0.0 < self.sigma <= 1.0):
            raise ValueError("sigma must lie in (0, 1]")


def tau_for_gauge(params: GaugeParams) -> float:
    """Growth constant sqrt(2 / (sigma * gamma^3)), clamped below at 1; inf
    when sigma * gamma^3 underflows, which the admissibility gate rejects."""
    denom = params.sigma * params.gamma**3
    return max(1.0, math.sqrt(2.0 / denom)) if denom > 0.0 else math.inf


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Normalize x to an (A, dim) batch; report whether input was a single point."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.size != dim:
            raise ValueError(f"point has dimension {arr.size}, expected {dim}")
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr, False
    raise ValueError(f"expected shape (d,) or (A, d) with d={dim}")


class DomainError(ValueError):
    """Raised when a point falls outside a divergence's open domain."""


# ---------------------------------------------------------------------------
# Kernels: one per kind, the only code that evaluates a site
# ---------------------------------------------------------------------------


def _columns(a):
    """Views of the last-axis entries. Folding them in order reduces over a
    short coordinate axis far faster than ``np.max``/``np.sum(axis=-1)``,
    with the same left-to-right sums for d < 8."""
    return [a[..., j] for j in range(a.shape[-1])]


def _rows(fn, X):
    """A batched ``(A, d)`` callable applied to every row of a (T, m, d) stack."""
    out = np.asarray(fn(X.reshape(-1, X.shape[-1])), dtype=float)
    return out.reshape(X.shape[:-1] + out.shape[1:])


def bregman_values(spec, X, V, fP, gP):
    """D_F(x, p) = F(x) - F(p) - <grad F(p), x - p>, with V = X - P."""
    return _rows(spec.values, X) - fP - np.einsum("tmd,md->tm", V, gP)


def bregman_gradients(spec, X, gP):
    return _rows(spec.gradients, X) - gP


def _check_members(ok: np.ndarray, message: str) -> None:
    """Raise ``ValueError(message)`` naming the first row of ``ok`` (the
    members) with a False entry."""
    if np.count_nonzero(ok) != ok.size:
        j = int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))
        raise ValueError(f"{message} (member {j})")


class _Kernel:
    """Members of one kind: positions ``P`` (m, d) and the per-member arrays
    named in ``arrays``, which the constructor validates, naming a bad
    member, and derives. ``values``, ``gradients`` and ``hessians`` evaluate
    the members on a (T, m, d) stack of points ``X`` with offsets ``V = X -
    P``, or every member at each point of a (T, 1, d) stack; ``bounds(t)``
    bounds each member's minimum over a region at Euclidean distance t from
    its site. Kernels of one class and ``key`` concatenate into one."""

    __slots__ = ("P",)
    arrays: tuple[str, ...] = ("P",)
    key = None
    # Every slot of the class, which ``__copy__`` copies.
    fields: tuple[str, ...] = ("P",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.fields = tuple(dict.fromkeys(
            name for c in cls.__mro__ for name in c.__dict__.get("__slots__", ())))

    def __copy__(self):
        # Slot by slot: ``copy.copy`` of a slotted object otherwise goes
        # through ``__reduce_ex__``, at about twice the cost of a kernel
        # call's row gathers.
        new = object.__new__(type(self))
        for name in self.fields:
            setattr(new, name, getattr(self, name))
        return new

    def __init__(self, P):
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] < 1:
            raise ValueError("sites must form an (m, d) array")
        _check_members(np.isfinite(P), "site has non-finite coordinates")
        self.P = P

    def take(self, sel):
        """The members at ``sel``, a slice (as views) or an index array."""
        new = copy.copy(self)
        for name in self.arrays:
            arr = getattr(self, name)
            setattr(new, name, arr[sel] if isinstance(sel, slice) else arr.take(sel, axis=0))
        return new

    @classmethod
    def concat(cls, kernels: list) -> "_Kernel":
        new = copy.copy(kernels[0])
        for name in cls.arrays:
            setattr(new, name, np.concatenate([getattr(k, name) for k in kernels]))
        return new

    def resite(self, p):
        """Every member translated to the site ``p``: the scaling kinds keep
        no array that depends on the site."""
        new = copy.copy(self)
        new.P = np.tile(p, (len(self.P), 1))
        return new

    # -- sampled growth constants (``_tau_pass``) -------------------------

    def gradient_norms(self, X, V):
        return _norms(self.gradients(X, V))

    def hessian_norms(self, X, V):
        return np.max(np.abs(np.linalg.eigvalsh(self.hessians(X, V))), axis=-1)

    def growth_ratios(self, X, V):
        """Whether each sample counts, and its growth ratio: the larger of
        the ratios of ``admissibility_ratios``, formed as there."""
        vals = self.values(X, V)
        dist = _norms(V)
        gnorm = self.gradient_norms(X, V)
        hnorm = np.maximum(self.hessian_norms(X, V), 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Both ratios are >= 0 where used, so a NaN or inf among them
            # carries through the maxima.
            ratio = np.maximum(gnorm * dist / vals, np.sqrt(hnorm * dist * dist / vals))
        return (vals >= VALUE_FLOOR) & (dist > 0.0), ratio


class MinkowskiKernel(_Kernel):
    """W * ||v||_k for one exponent k > 1."""

    kind = "minkowski"
    __slots__ = ("k", "key", "W", "ratio")
    arrays = ("P", "W")

    def __init__(self, P, k: float, W):
        k = float(k)
        if not math.isfinite(k):
            raise ValueError("Minkowski exponent must be finite")
        if k <= 1.0:
            raise ValueError("not smooth: Minkowski exponent must exceed 1")
        super().__init__(P)
        self.k = self.key = k
        self.W = W = np.asarray(W, dtype=float)
        _check_members(np.isfinite(W) & (W > 0.0), "weight must be finite and positive")
        self.ratio = self.P.shape[1] ** abs(0.5 - 1.0 / k)  # max of ||v||_k/||v||_2 or its inverse

    def values(self, X, V):
        # Scaled by max |v_i| against overflow.
        cols = _columns(np.abs(V))
        mx = functools.reduce(np.maximum, cols)
        safe = np.where(mx > 0.0, mx, 1.0)
        s = sum((c / safe) ** self.k for c in cols)
        return self.W * mx * s ** (1.0 / self.k)

    def gradients(self, X, V):
        k = self.k
        mx = functools.reduce(np.maximum, _columns(np.abs(V)))
        t = V / mx[..., None]
        a = np.abs(t)
        s = sum(c**k for c in _columns(a))
        with np.errstate(divide="ignore", invalid="ignore"):
            g = s[..., None] ** (1.0 / k - 1.0) * a ** (k - 1.0) * np.sign(t)
        return np.reshape(self.W, (-1, 1)) * g

    def hessians(self, X, V):
        k = self.k
        m = np.max(np.abs(V), axis=-1)
        t = V / m[..., None]
        a = np.abs(t)
        s = np.sum(a**k, axis=-1)
        b = a ** (k - 1.0) * np.sign(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            diag = s[..., None] ** (1.0 / k - 1.0) * a ** (k - 2.0)
            outer = s[..., None, None] ** (1.0 / k - 2.0) * b[..., :, None] * b[..., None, :]
        hs = -outer
        idx = np.arange(V.shape[-1])
        hs[..., idx, idx] += diag
        return (self.W * (k - 1.0) / m)[..., None, None] * hs

    def bounds(self, t):
        if self.k >= 2.0:
            return self.W / self.ratio * t, self.W * t
        return self.W * t, self.W * self.ratio * t


class MahalanobisKernel(_Kernel):
    """sqrt(v^T M v) for an (m, d, d) stack of symmetric matrices M, with the
    square roots of their extreme eigenvalues ``lo``/``hi``."""

    kind = "mahalanobis"
    __slots__ = ("M", "lo", "hi")
    arrays = ("P", "M", "lo", "hi")

    def __init__(self, P, M):
        super().__init__(P)
        M = np.asarray(M, dtype=float)
        if M.shape != self.P.shape + self.P.shape[1:]:
            raise ValueError("matrix shape does not match site dimension")
        Mt = M.swapaxes(1, 2)
        with np.errstate(invalid="ignore"):
            # ``np.allclose(M, M.T, atol=1e-10)`` for each member.
            close = ((np.abs(M - Mt) <= 1e-10 + 1e-5 * np.abs(Mt)) & np.isfinite(Mt)) | (M == Mt)
        _check_members(close, "matrix must be symmetric")
        self.M = 0.5 * (M + Mt)
        w = np.linalg.eigvalsh(self.M)
        _check_members(w[:, 0] > 0.0, "matrix must be positive-definite")
        self.lo, self.hi = np.sqrt(w[:, 0]), np.sqrt(w[:, -1])

    def values(self, X, V):
        M, m = self.M, V.shape[1]
        if m == 1:
            # einsum loops differently over a lone member's size-1 axis, which
            # can round differently at d = 2; evaluated beside a copy of
            # itself, a member's value does not depend on its family.
            V, M = np.concatenate([V, V], axis=1), np.concatenate([M, M])
        return np.sqrt(np.maximum(np.einsum("tmd,mde,tme->tm", V, M, V), 0.0))[:, :m]

    def gradients(self, X, V):
        return np.einsum("tmd,mde->tme", V, self.M) / self.values(X, V)[..., None]

    def hessians(self, X, V):
        # (M - g g^T) / f with g = M v / f the gradient.
        f, g = self.values(X, V), self.gradients(X, V)
        return (self.M - g[..., :, None] * g[..., None, :]) / f[..., None, None]

    def bounds(self, t):
        return self.lo * t, self.hi * t


class BregmanKernel(_Kernel):
    """D_F(x, p) for one generator F, with F and grad F at the sites."""

    kind = "bregman"
    __slots__ = ("spec", "key", "fP", "gP")
    arrays = ("P", "fP", "gP")

    def __init__(self, P, spec):
        super().__init__(P)
        if self.P.shape[1] != spec.dim:
            raise ValueError("site dimension does not match generator")
        _check_members(spec.in_domain(self.P), "site outside Bregman domain")
        with np.errstate(over="ignore", invalid="ignore"):
            fP, gP = spec.values(self.P), spec.gradients(self.P)
        for arr in (fP, gP):
            _check_members(np.isfinite(arr),
                           "generator value or gradient is not finite at the site")
        self.spec, self.key, self.fP, self.gP = spec, generator_key(spec), fP, gP

    def values(self, X, V):
        return bregman_values(self.spec, X, V, self.fP, self.gP)

    def gradients(self, X, V):
        return bregman_gradients(self.spec, X, self.gP)

    def hessians(self, X, V):
        """The generator's Hessian at each point, the same for every member."""
        spec, shape = self.spec, V.shape + V.shape[-1:]
        if spec.hess_kind == "diag":
            hs = np.zeros(shape)
            idx = np.arange(V.shape[-1])
            hs[..., idx, idx] = _rows(spec.hess, X)
            return hs
        H = np.asarray(spec.hess, dtype=float) if spec.hess_kind == "const" else _rows(spec.hess, X)
        return np.broadcast_to(H, shape).copy()

    def gradient_norms(self, X, V):
        # ``_norms`` of the gradients by columns, whose loops then run over
        # the members rather than over d at shared points.
        if X.shape[-1] >= 8:
            return super().gradient_norms(X, V)
        G = _rows(self.spec.gradients, X)
        return np.sqrt(sum(c * c for c in (G[..., j] - g for j, g in enumerate(self.gP.T))))

    def hessian_norms(self, X, V):
        return _rows(self.spec.hessian_norms, X)

    def resite(self, p):
        raise ValueError("a Bregman family cannot be re-sited")

    def bounds(self, t):
        lo, hi = self.spec.eig_low, self.spec.eig_high
        if lo is None or hi is None:
            raise ValueError("generator lacks Hessian eigenvalue bounds")
        return 0.5 * lo * t * t, 0.5 * hi * t * t


class GaugeKernel(_Kernel):
    """Custom gauges sharing one triple of batched callables about the
    origin (value, gradient, Hessian), each evaluated at every offset in
    one call, with (lo, hi) bounds on the unit sphere: the range over
    seeded unit directions, widened by 5%."""

    kind = "gauge"
    __slots__ = ("gv", "gg", "gh", "key", "lo", "hi")
    arrays = ("P", "lo", "hi")

    def __init__(self, P, gv, gg, gh):
        super().__init__(P)
        vals = np.asarray(gv(unit_directions(self.P.shape[1], 512, _DIRECTION_SEED)), float)
        self.gv, self.gg, self.gh = self.key = gv, gg, gh
        self.lo = np.full(len(self.P), 0.95 * float(vals.min()))
        self.hi = np.full(len(self.P), 1.05 * float(vals.max()))

    def values(self, X, V):
        return _rows(self.gv, V)

    def gradients(self, X, V):
        return _rows(self.gg, V)

    def hessians(self, X, V):
        return _rows(self.gh, V)

    def bounds(self, t):
        return self.lo * t, self.hi * t


# ---------------------------------------------------------------------------
# Bregman divergences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BregmanSpec:
    """A strictly convex generator F with its derivatives and working domain.

    ``hess`` depends on ``hess_kind``: "diag" maps (A, d) points to (A, d)
    diagonal entries, "const" is a fixed (d, d) matrix, "full" maps (A, d)
    to (A, d, d). ``eig_low``/``eig_high`` bound the Hessian eigenvalues over
    the domain box when known analytically.
    """

    name: str
    dim: int
    f: object
    grad: object
    hess_kind: str
    hess: object
    domain_low: np.ndarray
    domain_high: np.ndarray
    eig_low: float | None = None
    eig_high: float | None = None
    matrix: np.ndarray | None = None

    def in_domain(self, x) -> np.ndarray | bool:
        pts, single = _as_points(x, self.dim)
        ok = np.all(pts > self.domain_low[None, :], axis=1) & np.all(
            pts < self.domain_high[None, :], axis=1
        )
        return bool(ok[0]) if single else ok

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.domain_low)) and np.all(np.isfinite(self.domain_high)))

    def values(self, pts):
        return np.asarray(self.f(pts), dtype=float)

    def gradients(self, pts):
        return np.asarray(self.grad(pts), dtype=float)

    def hessian_norms(self, pts) -> np.ndarray:
        """Spectral norms of the Hessian at each point."""
        lo, hi = self.hessian_eig_range(pts)
        return np.maximum(np.abs(lo), np.abs(hi))

    def hessian_eig_range(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) Hessian eigenvalue at each point."""
        if self.hess_kind == "const":
            w = np.linalg.eigvalsh(np.asarray(self.hess, dtype=float))
            return np.full(len(pts), float(w[0])), np.full(len(pts), float(w[-1]))
        if self.hess_kind == "diag":
            cols = _columns(np.asarray(self.hess(pts), dtype=float))
            return functools.reduce(np.minimum, cols), functools.reduce(np.maximum, cols)
        w = np.linalg.eigvalsh(np.asarray(self.hess(pts), dtype=float))
        return w[:, 0], w[:, -1]

    def divergence(self, q, p) -> np.ndarray:
        """D(q, p) batched over rows of q (p a single point)."""
        qp, _ = _as_points(q, self.dim)
        p = as_vector(p)[None, :]
        X = qp[:, None, :]
        return bregman_values(self, X, X - p, self.values(p), self.gradients(p))[:, 0]


def _expand_bound(label: str, val, dim, default):
    """A domain bound as d values: ``default`` for None, a scalar repeated,
    or exactly d values, of which an infinite one leaves its side open;
    ``label`` names the bound in errors."""
    if val is None:
        return np.full(dim, default)
    arr = np.asarray(val, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ValueError(f"{label} has shape {arr.shape}, expected {dim} values")
    if np.any(np.isnan(arr)):
        raise ValueError(f"{label} is not a number")
    return arr


def squared_euclidean_spec(dim: int) -> BregmanSpec:
    return BregmanSpec(
        name="squared-euclidean",
        dim=dim,
        f=lambda x: np.sum(x * x, axis=1),
        grad=lambda x: 2.0 * x,
        hess_kind="const",
        hess=2.0 * np.eye(dim),
        domain_low=np.full(dim, -np.inf),
        domain_high=np.full(dim, np.inf),
        eig_low=2.0,
        eig_high=2.0,
    )


def squared_mahalanobis_spec(matrix, domain_low=None, domain_high=None) -> BregmanSpec:
    M = np.asarray(matrix, dtype=float)
    dim = M.shape[0]
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    w = np.linalg.eigvalsh(M)
    if w[0] <= 0:
        raise ValueError("matrix must be positive-definite")
    M = 0.5 * (M + M.T)

    def half_grad(x):
        # ``x @ M`` as a fold over the rows of M, which, unlike a matmul or an
        # einsum, rounds each row the same however many rows come at once.
        return sum(x[:, i, None] * M[i] for i in range(dim))

    return BregmanSpec(
        name="squared-mahalanobis",
        dim=dim,
        f=lambda x: np.sum(half_grad(x) * x, axis=1),
        grad=lambda x: 2.0 * half_grad(x),
        hess_kind="const",
        hess=2.0 * M,
        domain_low=_expand_bound("domain_low", domain_low, dim, -np.inf),
        domain_high=_expand_bound("domain_high", domain_high, dim, np.inf),
        eig_low=2.0 * float(w[0]),
        eig_high=2.0 * float(w[-1]),
        matrix=M,
    )


def _positive_box(label: str, dim: int, domain_low, domain_high, power: int):
    """Working box of a generator with Hessian diag(1/x^power), and the
    eigenvalue bounds 1/hi^power and 1/lo^power over it:
    (lo, hi, eig_low, eig_high)."""
    lo = _expand_bound("domain_low", domain_low, dim, 0.1)
    hi = _expand_bound("domain_high", domain_high, dim, 1.0)
    if np.any(lo <= 0.0):
        raise ValueError(f"{label} domain must be strictly positive")
    with np.errstate(over="ignore", divide="ignore"):
        eig_low, eig_high = 1.0 / np.max(hi) ** power, 1.0 / np.min(lo) ** power
    if not np.isfinite(eig_high):
        raise ValueError(f"{label} domain_low {float(np.min(lo))!r} is too close to 0: "
                         "the Hessian bound overflows")
    return lo, hi, float(eig_low), float(eig_high)


def generalized_kl_spec(dim: int, domain_low=0.1, domain_high=1.0) -> BregmanSpec:
    lo, hi, eig_low, eig_high = _positive_box("KL", dim, domain_low, domain_high, 1)
    return BregmanSpec(
        name="generalized-kl",
        dim=dim,
        f=lambda x: np.sum(x * np.log(x), axis=1),
        grad=lambda x: np.log(x) + 1.0,
        hess_kind="diag",
        hess=lambda x: 1.0 / x,
        domain_low=lo,
        domain_high=hi,
        eig_low=eig_low,
        eig_high=eig_high,
    )


def itakura_saito_spec(dim: int, domain_low=0.1, domain_high=1.0) -> BregmanSpec:
    lo, hi, eig_low, eig_high = _positive_box("Itakura-Saito", dim, domain_low, domain_high, 2)
    return BregmanSpec(
        name="itakura-saito",
        dim=dim,
        f=lambda x: -np.sum(np.log(x), axis=1),
        grad=lambda x: -1.0 / x,
        hess_kind="diag",
        hess=lambda x: 1.0 / (x * x),
        domain_low=lo,
        domain_high=hi,
        eig_low=eig_low,
        eig_high=eig_high,
    )


BUILTIN_BREGMAN = {
    "squared-euclidean": squared_euclidean_spec,
    "squared-mahalanobis": squared_mahalanobis_spec,
    "generalized-kl": generalized_kl_spec,
    "itakura-saito": itakura_saito_spec,
}


def builtin_bregman_spec(name: str, dim: int, domain_low=None, domain_high=None,
                         matrix=None) -> BregmanSpec:
    """The built-in generator ``name`` at dimension ``dim``. Bounds left None
    take the generator's default box; ``squared-euclidean`` has no box and
    ignores them, and ``squared-mahalanobis`` needs d*d matrix entries."""
    if name not in BUILTIN_BREGMAN:
        raise ValueError(f"unknown Bregman generator '{name}'")
    if name == "squared-euclidean":
        return squared_euclidean_spec(dim)
    if name == "squared-mahalanobis":
        if matrix is None:
            raise ValueError("squared-mahalanobis generator needs 'matrix'")
        entries = np.asarray(matrix, dtype=float)
        if entries.size != dim * dim:
            raise ValueError(f"matrix needs {dim * dim} entries, got {entries.size}")
        return squared_mahalanobis_spec(entries.reshape(dim, dim), domain_low, domain_high)
    return BUILTIN_BREGMAN[name](dim, domain_low, domain_high)


def generator_key(spec: BregmanSpec):
    """Key under which Bregman sites share one generator: built-in
    generators with the same name and dimension and bit-identical domain box
    and matrix share it, whichever objects hold them; any other generator is
    its own object."""
    if spec.name not in BUILTIN_BREGMAN:
        return id(spec)
    matrix = None if spec.matrix is None else np.asarray(spec.matrix, dtype=float).tobytes()
    return (spec.name, spec.dim, spec.domain_low.tobytes(), spec.domain_high.tobytes(), matrix)


# ---------------------------------------------------------------------------
# Sites. One constructor per kind turns (m, d) sites and parameter arrays
# into (kernel, tau), tau the declared one or the kind's own (a number for
# every member, or m values), NaN for a Bregman site whose ``tau``
# ``SiteFamily.from_groups`` samples; ``make_*`` call it for one site.
# ---------------------------------------------------------------------------


class SiteFunction:
    """A distance function about a fixed site: a one-member kernel, which
    validated its parameters, and its growth constant. ``make_*`` build one,
    and ``SiteFamily.member`` views one member of a family as one.

    Every evaluation runs the kernel on (A, d) batches of points. Scaling
    kinds are positively 1-homogeneous about the site; the Bregman kind is a
    divergence D(x, site) in its first argument.
    """

    def __init__(self, kernel: _Kernel, tau: float):
        """``tau`` is NaN until sampled (Bregman sites only)."""
        self.kernel = kernel
        self.site = kernel.P[0]
        self._tau = tau

    @property
    def tau(self) -> float:
        """Growth constant. A Bregman site built without one samples it on
        this first read, unless a ``SiteFamily`` of it did."""
        if math.isnan(self._tau):
            self._tau = float(sampled_tau(self.kernel, [0])[0])
        return self._tau

    @property
    def dim(self) -> int:
        return self.site.size

    # -- evaluation ------------------------------------------------------

    def _at(self, method: str, x, off_site: bool = True):
        """Kernel ``method`` at a point ``(d,)`` or an (A, d) batch."""
        pts, single = _as_points(x, self.dim)
        if not np.all(self.in_domain(pts)):
            raise DomainError("query outside domain")
        if off_site and self.kernel.kind != "bregman" and np.any(np.all(pts == self.site, axis=1)):
            raise ValueError("gradient undefined at site")
        out = self._run(method, pts)
        return out[0] if single else out

    def value(self, x):
        vals = self._at("values", x, off_site=False)
        return vals if isinstance(vals, np.ndarray) else float(vals)

    def gradient(self, x):
        return self._at("gradients", x)

    def hessian(self, x):
        return self._at("hessians", x)

    def __call__(self, x):
        return self.value(x)

    def _run(self, method: str, pts: np.ndarray) -> np.ndarray:
        """Kernel ``method`` over this site alone, at (A, d) points."""
        X = pts[:, None, :]
        return getattr(self.kernel, method)(X, X - self.kernel.P)[:, 0]

    _values = functools.partialmethod(_run, "values")
    _gradients = functools.partialmethod(_run, "gradients")
    _hessians = functools.partialmethod(_run, "hessians")

    def in_domain(self, x):
        return self.kernel.spec.in_domain(x) if self.kernel.kind == "bregman" else True

    def resite(self, p) -> "SiteFunction":
        """The same shape and ``tau`` about the site ``p``; not for Bregman sites."""
        return SiteFunction(self.kernel.resite(as_vector(p)), self.tau)


def _admissible_tau(tau):
    """Growth constants ``tau``, a number or an array, clamped below at 1;
    each must be finite and positive."""
    if isinstance(tau, (int, float)):  # one number: no array arithmetic
        ok, tau = 0.0 < tau < math.inf, max(1.0, float(tau))
    else:
        tau = np.asarray(tau, dtype=float)
        ok = 0.0 < tau.min(initial=math.inf) and tau.max(initial=0.0) < math.inf
        tau = np.maximum(1.0, tau)
    if not ok:
        raise ValueError("admissibility gate: unbounded ratio")
    return tau


def minkowski_sites(P, k: float, W, tau=None) -> tuple[MinkowskiKernel, float | np.ndarray]:
    """``W * ||x - p||_k`` for k > 1. The growth constant depends on the
    unit ball alone, so every member gets ``_minkowski_tau(k, d)``."""
    kern = MinkowskiKernel(P, k, W)
    return kern, _admissible_tau(_minkowski_tau(kern.k, kern.P.shape[1]) if tau is None else tau)


def mahalanobis_sites(P, M, tau=None) -> tuple[MahalanobisKernel, float | np.ndarray]:
    """``sqrt((x - p)^T M (x - p))`` for an (m, d, d) stack of symmetric
    positive-definite M. The kernel keeps M symmetrized; ``tau`` comes from
    M as given: the unit ball is an ellipsoid with semi-axes
    1/sqrt(lambda_i), so both its fatness and smoothness ratios are
    sqrt(eig_min / eig_max)."""
    M = np.asarray(M, dtype=float)
    kern = MahalanobisKernel(P, M)
    if tau is None:
        # In Python floats, once per distinct ratio: numpy's vectorized
        # ``r**3`` rounds differently from ``float.__pow__``. A lower
        # triangle that is not positive-definite gives 0, which fails.
        ratios = [math.sqrt(max(w[0], 0.0) / w[-1]) for w in np.linalg.eigvalsh(M).tolist()]
        taus = {r: tau_for_gauge(GaugeParams(r, r)) for r in set(ratios)}
        tau = taus[ratios[0]] if len(taus) == 1 else [taus[r] for r in ratios]
    return kern, _admissible_tau(tau)


def gauge_sites(P, gauge_value, gauge_gradient, gauge_hessian, params: GaugeParams,
                tau=None) -> tuple[GaugeKernel, float | np.ndarray]:
    """``gauge(x - p)`` for a user-supplied smooth convex gauge: batched
    callables about the origin. The declared ``params`` certify ``tau``."""
    kern = GaugeKernel(P, gauge_value, gauge_gradient, gauge_hessian)
    return kern, _admissible_tau(tau_for_gauge(params) if tau is None else tau)


def bregman_sites(spec: BregmanSpec, P, tau=None) -> tuple[BregmanKernel, float | np.ndarray]:
    """``D_F(x, p)`` as a distance function of the first argument. An
    undeclared ``tau`` is sampled, which needs a bounded domain or a
    quadratic generator."""
    kern = BregmanKernel(P, spec)
    if tau is not None:
        return kern, _admissible_tau(tau)
    if not (spec.bounded or spec.hess_kind == "const"):
        raise ValueError("admissibility gate: unbounded domain needs declared tau")
    return kern, math.nan


def _row(p) -> np.ndarray:
    return np.asarray(p, dtype=float)[None]


def make_minkowski(p, k: float, weight: float = 1.0, tau: float | None = None) -> SiteFunction:
    return SiteFunction(*minkowski_sites(_row(p), k, [weight], tau))


def make_mahalanobis(p, matrix, tau: float | None = None) -> SiteFunction:
    return SiteFunction(*mahalanobis_sites(_row(p), _row(matrix), tau))


def make_bregman(spec: BregmanSpec, p, tau: float | None = None) -> SiteFunction:
    return SiteFunction(*bregman_sites(spec, _row(p), tau))


def make_custom_gauge(p, gauge_value, gauge_gradient, gauge_hessian,
                      params: GaugeParams, tau: float | None = None) -> SiteFunction:
    return SiteFunction(*gauge_sites(_row(p), gauge_value, gauge_gradient, gauge_hessian,
                                     params, tau))


# ---------------------------------------------------------------------------
# Sampled growth constants and gauge-ball geometry
# ---------------------------------------------------------------------------


def unit_directions(dim: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((count, dim))
    norms = np.linalg.norm(u, axis=1)
    norms[norms == 0] = 1.0
    return u / norms[:, None]


def admissibility_ratios(fn: SiteFunction, pts: np.ndarray):
    """Per-sample growth ratios of a site function.

    Returns (grad_ratio, hess_ratio, dir_ratio, used_mask) where
    grad_ratio = ||grad f|| * ||x - p|| / f,
    hess_ratio = sqrt(||hess f|| * ||x - p||^2 / f),
    dir_ratio  = <grad f, x - p> / f.
    Samples with f below ``VALUE_FLOOR`` or at the site are skipped.
    """
    rel = pts - fn.site[None, :]
    dist = np.linalg.norm(rel, axis=1)
    vals = fn._values(pts)
    used = (vals >= VALUE_FLOOR) & (dist > 0.0)
    rel, dist, vals, X = rel[used], dist[used], vals[used], pts[used][:, None, :]
    grads = fn._gradients(X[:, 0])
    hnorm = fn.kernel.hessian_norms(X, X - fn.kernel.P)[:, 0]
    return (np.linalg.norm(grads, axis=1) * dist / vals,
            np.sqrt(np.maximum(hnorm, 0.0) * dist * dist / vals),
            np.einsum("ad,ad->a", grads, rel) / vals, used)


def sampled_tau(kern: _Kernel, members: np.ndarray) -> np.ndarray:
    """Certified growth constants of every member of ``kern``, sampled in
    one ``_tau_pass`` and inflated by ``TAU_INFLATION``. A member whose
    sample fails the admissibility checks raises ``ValueError`` naming its
    entry of ``members``."""
    raw, used = _tau_pass(kern)
    bad = (used < MIN_TAU_SAMPLES) | ~np.isfinite(raw)
    if np.any(bad):
        j = int(np.argmax(bad))
        reason = ("degenerate sample" if used[j] < MIN_TAU_SAMPLES
                  else "admissibility gate: unbounded ratio")
        raise ValueError(f"{reason} at site {members[j]}")
    return _admissible_tau(TAU_INFLATION * raw)


def _tau_pass(kern: _Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Raw sampled growth constants of the members of ``kern``, with the
    number of samples each one used: the members of a Bregman group, or the
    one l_k site at the origin that ``_minkowski_tau`` samples for k < 2.

    Per member the constant is ``max(1, max g, max h)`` over the ratios of
    ``admissibility_ratios`` (not finite when one of them is not) at unit
    directions about the site where they depend on the direction alone,
    else at uniform points of the domain box. Members go through the kernel
    in chunks of ``_TAU_CHUNK_ELEMENTS``.
    """
    m, d = kern.P.shape
    spec = getattr(kern, "spec", None)
    about_site = spec is None or (spec.hess_kind == "const" and not spec.bounded)
    pts = (unit_directions(d, _TAU_DIRECTIONS, _DIRECTION_SEED) if about_site else
           np.random.default_rng(_DIRECTION_SEED).uniform(spec.domain_low, spec.domain_high,
                                                          size=(_TAU_POINTS, d)))
    step = max(1, min(m, _TAU_CHUNK_ELEMENTS // pts.size))
    # The points repeated for a chunk of members, so that differences
    # against the sites run over long contiguous rows.
    wide = np.repeat(pts[:, None], step, axis=1)
    raw, used_count = np.empty(m), np.empty(m, dtype=np.intp)
    for start in range(0, m, step):
        part = kern.take(slice(start, start + step))
        k = len(part.P)
        # Shared points go through the kernel as a (T, 1, d) stack, so that
        # what depends on the point alone is computed once per point.
        X = part.P + wide[:, :k] if about_site else pts[:, None]
        V = (X if about_site else wide[:, :k]) - part.P
        used, ratio = part.growth_ratios(X, V)
        raw[start:start + k] = np.max(np.where(used, ratio, -np.inf), axis=0)
        used_count[start:start + k] = np.count_nonzero(used, axis=0)
    return np.maximum(1.0, raw), used_count


def _norms(A: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(A, axis=-1)``, bit for bit. Below 8 terms numpy sums
    left to right, as this fold of the columns does about 10x faster."""
    if A.shape[-1] >= 8:
        return np.linalg.norm(A, axis=-1)
    return np.sqrt(sum(A[..., j] * A[..., j] for j in range(A.shape[-1])))


@functools.lru_cache(maxsize=None)
def minkowski_gauge_params(k: float, dim: int) -> tuple[float, float]:
    """(gamma, sigma) for the l_k unit ball in the given dimension.

    gamma is exact: d^(-|1/2 - 1/k|). sigma comes from sampling the boundary
    curvature; for k < 2 the curvature blows up at the axes and sigma is
    reported as 0 (no positive smoothness constant exists).
    """
    gamma = float(dim) ** (-abs(0.5 - 1.0 / k))
    if k < 2.0:
        return gamma, 0.0
    probe = make_minkowski(np.zeros(dim), k, tau=1.0)
    return gamma, _gauge_sigma_from_curvature(probe, _minkowski_probe_directions(dim))


@functools.lru_cache(maxsize=None)
def _minkowski_tau(k: float, dim: int) -> float:
    """Growth constant of every weighted l_k site in dimension ``dim``:
    ``tau_for_gauge`` of the unit ball for k >= 2, else, where that closed
    form degenerates, sampled about a weight-1 site at the origin."""
    if k >= 2.0:
        return tau_for_gauge(GaugeParams(*minkowski_gauge_params(k, dim)))
    return float(sampled_tau(MinkowskiKernel(np.zeros((1, dim)), k, [1.0]), [0])[0])


def _minkowski_probe_directions(dim: int) -> np.ndarray:
    """Structured boundary probes: coordinate-plane and diagonal-plane fans
    plus a seeded spread. The l_k ball is umbilic at the full diagonal, so
    plane sections through it capture the extreme curvature."""
    fans = []
    angles = (np.arange(181) + 0.5) * (np.pi / 2.0) / 181.0
    e1 = np.zeros(dim)
    e1[0] = 1.0
    if dim >= 2:
        e2 = np.zeros(dim)
        e2[1] = 1.0
        fans.append(np.outer(np.cos(angles), e1) + np.outer(np.sin(angles), e2))
        diag = np.ones(dim) / np.sqrt(dim)
        fans.append(np.outer(np.cos(angles), e1) + np.outer(np.sin(angles), diag))
    fans.append(unit_directions(dim, 512, _DIRECTION_SEED))
    dirs = np.vstack(fans)
    norms = np.linalg.norm(dirs, axis=1)
    return dirs / norms[:, None]


def _gauge_sigma_from_curvature(fn: SiteFunction, dirs: np.ndarray) -> float:
    """Smoothness constant from the sampled boundary shape operator."""
    vals = fn._values(dirs)
    boundary = dirs / vals[:, None]
    radii = np.linalg.norm(boundary, axis=1)
    grads = fn._gradients(boundary)
    hessians = fn._hessians(boundary)
    gnorm = np.linalg.norm(grads, axis=1)
    normals = grads / gnorm[:, None]
    eye = np.eye(fn.dim)[None, :, :]
    proj = eye - normals[:, :, None] * normals[:, None, :]
    shape_op = np.einsum("aij,ajk,akl->ail", proj, hessians, proj) / gnorm[:, None, None]
    curvatures = np.linalg.eigvalsh(shape_op)[:, -1]
    kappa_max = float(np.max(curvatures))
    if kappa_max <= 0.0:
        return 1.0
    r_min = 1.0 / kappa_max
    diam = 2.0 * float(np.max(radii))
    return min(1.0, 2.0 * r_min / diam)
