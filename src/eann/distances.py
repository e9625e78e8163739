"""Distance functions attached to sites: weighted Minkowski and Mahalanobis
gauges, user-supplied convex gauges, and Bregman divergences.

One kernel per kind is the only code that evaluates a site. It holds the
parameters of ``m`` members as arrays and computes their values, gradients
and Hessians analytically on ``(T, m, d)`` stacks of points ``X`` and
offsets ``V = X - P`` against their sites ``P``. ``SiteFamily`` (``_batch``)
stacks many members per kernel. A site function validates the parameters
of one member and carries its certified growth constant ``tau``, which the
search structures use to size separation parameters; it evaluates single
points ``(d,)`` or batches ``(A, d)`` by running its kernel over itself
alone, built for the call.

Gauge constructors compute ``tau`` at once. A Bregman site built without a
declared ``tau`` samples it later, at seeded points of the domain box (or
unit directions about the site, for a quadratic generator on an unbounded
domain): building a ``SiteFamily`` (as ``build_index``, ``brute_force`` and
``normalize`` do) resolves every such member in one batched pass per
generator (``resolve_tau``), and a lone site does so on its first ``.tau``
read. A sample that fails the admissibility checks raises
``ValueError`` there, naming the site; the checks that need no sample (site
in domain, a declared ``tau`` for a non-quadratic generator on an unbounded
domain) still raise in the constructor.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geom import as_vector

_DIRECTION_SEED = 20240601
_TAU_INFLATION = 1.10
_VALUE_FLOOR = 1e-12
_BREGMAN_TAU_SAMPLES = 2048
_MIN_TAU_SAMPLES = 10
# Float64 elements of one (samples, sites, d) array of the batched Bregman tau
# pass: 16 sites a chunk at 2,048 samples in d = 2. Building a 4,000-site KL
# index then raises peak RSS by 6 MB; chunks of 128 sites raise it by 42 MB.
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
    return max(1.0, float(np.sqrt(2.0 / denom))) if denom > 0.0 else math.inf


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


class _Kernel:
    """Members of one kind: positions ``P`` (m, d) and the other per-member
    arrays named in ``arrays``, read from the site functions it is built
    from. ``values``, ``gradients`` and ``hessians`` evaluate the members on
    a (T, m, d) stack of points ``X`` with offsets ``V = X - P``, or every
    member at each point of a (T, 1, d) stack. ``bounds(t)`` gives (lo, hi)
    bounds on each member's minimum over a region at Euclidean distance t
    from its site."""

    __slots__ = ("P",)
    arrays: tuple[str, ...] = ("P",)

    @staticmethod
    def group(f):
        """Site functions of one kind share a kernel when their groups are equal."""
        return None

    def take(self, sel):
        new = copy.copy(self)
        for name in self.arrays:
            setattr(new, name, getattr(self, name).take(sel, axis=0))
        return new

    def resite(self, p):
        """Every member translated to the site ``p``: the scaling kinds keep
        no array that depends on the site."""
        new = copy.copy(self)
        new.P = np.tile(p, (len(self.P), 1))
        return new


class MinkowskiKernel(_Kernel):
    """W * ||v||_k for one exponent k > 1."""

    kind = "minkowski"
    __slots__ = ("k", "W", "ratio")
    arrays = ("P", "W")

    def __init__(self, fns, P):
        self.P = P
        self.k = fns[0].k
        self.W = np.array([f.weight for f in fns])
        self.ratio = fns[0].dim ** abs(0.5 - 1.0 / self.k)  # max of ||v||_k/||v||_2 or its inverse

    @staticmethod
    def group(f):
        return f.k

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
    """sqrt(v^T M v) for an (m, d, d) stack of matrices M."""

    kind = "mahalanobis"
    __slots__ = ("M", "lo", "hi")
    arrays = ("P", "M", "lo", "hi")

    def __init__(self, fns, P):
        self.P = P
        self.M = np.stack([f.matrix for f in fns])
        self.lo = np.array([f.sqrt_eig_min for f in fns])
        self.hi = np.array([f.sqrt_eig_max for f in fns])

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
    __slots__ = ("spec", "fP", "gP")
    arrays = ("P", "fP", "gP")

    def __init__(self, fns, P):
        self.P = P
        self.spec = fns[0].spec
        self.fP = np.array([f._site_value for f in fns])
        self.gP = np.stack([f._site_grad for f in fns])

    @staticmethod
    def group(f):
        return generator_key(f.spec)

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
    one call."""

    kind = "gauge"
    __slots__ = ("gv", "gg", "gh", "lo", "hi")
    arrays = ("P", "lo", "hi")

    def __init__(self, fns, P):
        self.P = P
        self.gv, self.gg, self.gh = self.group(fns[0])
        self.lo = np.array([f._bounds[0] for f in fns])
        self.hi = np.array([f._bounds[1] for f in fns])

    @staticmethod
    def group(f):
        return f._gv, f._gg, f._gh

    def values(self, X, V):
        return _rows(self.gv, V)

    def gradients(self, X, V):
        return _rows(self.gg, V)

    def hessians(self, X, V):
        return _rows(self.gh, V)

    def bounds(self, t):
        return self.lo * t, self.hi * t


# ---------------------------------------------------------------------------
# Site functions
# ---------------------------------------------------------------------------


class SiteFunction:
    """A distance function about a fixed site: the validated parameters of
    one member of its kind's kernel.

    Subclasses check and keep the parameters and name their kernel type in
    ``_kernel_type``. Every evaluation runs that kernel over the site as a
    one-member stack, built for the call, on (A, d) batches of points.
    Scaling kinds are positively 1-homogeneous about the site; the Bregman
    kind is a divergence D(x, site) in its first argument.
    """

    kind: str = "abstract"
    is_scaling: bool = True
    _kernel_type: type[_Kernel]

    def __init__(self, site: np.ndarray, tau: float | None):
        # ``site`` comes from ``as_vector``, which each subclass calls once.
        self.site = site
        self._tau = None if tau is None else _admissible_tau(tau)

    @property
    def tau(self) -> float:
        """Growth constant. A Bregman site built without one samples it on
        this first read; ``resolve_tau`` does so for a whole family."""
        if self._tau is None:
            resolve_tau([self])
        return self._tau

    @property
    def dim(self) -> int:
        return self.site.size

    # -- evaluation ------------------------------------------------------

    def value(self, x):
        pts, single = _as_points(x, self.dim)
        self._check_domain(pts)
        vals = self._values(pts)
        return float(vals[0]) if single else vals

    def gradient(self, x):
        pts, single = _as_points(x, self.dim)
        self._check_domain(pts)
        self._check_off_site(pts)
        grads = self._gradients(pts)
        return grads[0] if single else grads

    def hessian(self, x):
        pts, single = _as_points(x, self.dim)
        self._check_domain(pts)
        self._check_off_site(pts)
        hs = self._hessians(pts)
        return hs[0] if single else hs

    def __call__(self, x):
        return self.value(x)

    def _run(self, method: str, pts: np.ndarray) -> np.ndarray:
        """Kernel ``method`` over this site alone, at (A, d) points."""
        kern = self._kernel_type([self], self.site[None, :])
        X = pts[:, None, :]
        return getattr(kern, method)(X, X - kern.P)[:, 0]

    def _values(self, pts: np.ndarray) -> np.ndarray:
        return self._run("values", pts)

    def _gradients(self, pts: np.ndarray) -> np.ndarray:
        return self._run("gradients", pts)

    def _hessians(self, pts: np.ndarray) -> np.ndarray:
        return self._run("hessians", pts)

    # -- structure -------------------------------------------------------

    def resite(self, new_site) -> "SiteFunction":
        """Same distance shape translated to a new site."""
        raise NotImplementedError

    def in_domain(self, x) -> bool:
        return True

    # -- hooks -----------------------------------------------------------

    def _check_domain(self, pts: np.ndarray) -> None:
        pass

    def _check_off_site(self, pts: np.ndarray) -> None:
        if self.is_scaling:
            v = pts - self.site[None, :]
            if np.any(np.all(v == 0.0, axis=1)):
                raise ValueError("gradient undefined at site")


def _admissible_tau(tau) -> float:
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError("admissibility gate: unbounded ratio")
    return max(1.0, float(tau))


# ---------------------------------------------------------------------------
# Minkowski gauges
# ---------------------------------------------------------------------------


class MinkowskiDistance(SiteFunction):
    """f(x) = weight * ||x - site||_k for k > 1."""

    kind = "minkowski"
    is_scaling = True
    _kernel_type = MinkowskiKernel

    def __init__(self, site, k: float, weight: float = 1.0, tau: float | None = None):
        if not math.isfinite(k):
            raise ValueError("Minkowski exponent must be finite")
        if k <= 1.0:
            raise ValueError("not smooth: Minkowski exponent must exceed 1")
        if not (math.isfinite(weight) and weight > 0.0):
            raise ValueError("weight must be finite and positive")
        site = as_vector(site)
        self.site = site  # needed by the sampled-tau fallback below
        self.k = float(k)
        self.weight = float(weight)
        gamma, sigma = minkowski_gauge_params(self.k, site.size)
        self.params = GaugeParams(gamma, sigma) if sigma > 0 else None
        if tau is None:
            if self.k >= 2.0:
                tau = tau_for_gauge(self.params)
            else:
                # The unit ball loses its interior rolling ball at the axes for
                # k < 2, so the closed-form constant degenerates; fall back to a
                # sampled growth bound over directions (scale-free).
                tau = _TAU_INFLATION * _sampled_scaling_tau_raw(self)
        super().__init__(site, tau)

    def resite(self, new_site):
        return MinkowskiDistance(new_site, self.k, self.weight, tau=self.tau)


# ---------------------------------------------------------------------------
# Mahalanobis gauges
# ---------------------------------------------------------------------------


class MahalanobisDistance(SiteFunction):
    """f(x) = sqrt((x - site)^T M (x - site)) with M symmetric positive-definite."""

    kind = "mahalanobis"
    is_scaling = True
    _kernel_type = MahalanobisKernel

    def __init__(self, site, matrix, tau: float | None = None):
        M = np.asarray(matrix, dtype=float)
        site = as_vector(site)
        if M.shape != (site.size, site.size):
            raise ValueError("matrix shape does not match site dimension")
        if not np.allclose(M, M.T, atol=1e-10):
            raise ValueError("matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(M)
        if eigvals[0] <= 0.0:
            raise ValueError("matrix must be positive-definite")
        self.matrix = 0.5 * (M + M.T)
        self.eig_min = float(eigvals[0])
        self.eig_max = float(eigvals[-1])
        self.sqrt_eig_min = float(np.sqrt(self.eig_min))
        self.sqrt_eig_max = float(np.sqrt(self.eig_max))
        # Unit ball is an ellipsoid with semi-axes 1/sqrt(lambda_i): both the
        # fatness and smoothness ratios reduce to sqrt(eig_min / eig_max).
        axis_ratio = float(np.sqrt(self.eig_min / self.eig_max))
        self.params = GaugeParams(axis_ratio, axis_ratio)
        if tau is None:
            tau = tau_for_gauge(self.params)
        super().__init__(site, tau)

    def resite(self, new_site):
        return MahalanobisDistance(new_site, self.matrix, tau=self.tau)


# ---------------------------------------------------------------------------
# User-supplied gauges
# ---------------------------------------------------------------------------


class CustomGaugeDistance(SiteFunction):
    """f(x) = gauge(x - site) for a user-supplied smooth convex gauge.

    ``gauge_value``/``gauge_gradient``/``gauge_hessian`` are batched callables
    about the origin. The declared GaugeParams certify the growth constant.
    """

    kind = "gauge"
    is_scaling = True
    _kernel_type = GaugeKernel

    def __init__(self, site, gauge_value, gauge_gradient, gauge_hessian,
                 params: GaugeParams, tau: float | None = None,
                 value_bounds: tuple[float, float] | None = None):
        self._gv = gauge_value
        self._gg = gauge_gradient
        self._gh = gauge_hessian
        self.params = params
        if tau is None:
            tau = tau_for_gauge(params)
        super().__init__(as_vector(site), tau)
        if value_bounds is None:
            dirs = unit_directions(self.dim, 512, _DIRECTION_SEED)
            vals = np.asarray(gauge_value(dirs), dtype=float)
            value_bounds = (0.95 * float(vals.min()), 1.05 * float(vals.max()))
        self._bounds = value_bounds

    def resite(self, new_site):
        return CustomGaugeDistance(new_site, self._gv, self._gg, self._gh,
                                   self.params, tau=self.tau, value_bounds=self._bounds)


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
            lo = np.full(len(pts), float(w[0]))
            hi = np.full(len(pts), float(w[-1]))
            return lo, hi
        if self.hess_kind == "diag":
            dg = np.asarray(self.hess(pts), dtype=float)
            return np.min(dg, axis=1), np.max(dg, axis=1)
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
    return BregmanSpec(
        name="squared-mahalanobis",
        dim=dim,
        f=lambda x: np.einsum("ad,de,ae->a", x, M, x),
        grad=lambda x: 2.0 * (x @ M),
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


class BregmanDistance(SiteFunction):
    """D_F(x, site) as a distance function of the first argument."""

    kind = "bregman"
    is_scaling = False
    _kernel_type = BregmanKernel

    def __init__(self, spec: BregmanSpec, site, tau: float | None = None):
        site = as_vector(site)
        if site.size != spec.dim:
            raise ValueError("site dimension does not match generator")
        if not bool(spec.in_domain(site)):
            raise ValueError("site outside Bregman domain")
        if tau is None and not (spec.bounded or spec.hess_kind == "const"):
            raise ValueError("admissibility gate: unbounded domain needs declared tau")
        self.spec = spec
        with np.errstate(over="ignore", invalid="ignore"):
            self._site_value = float(spec.values(site[None, :])[0])
            self._site_grad = spec.gradients(site[None, :])[0]
        if not (np.isfinite(self._site_value) and np.all(np.isfinite(self._site_grad))):
            raise ValueError("generator value or gradient is not finite at the site")
        super().__init__(site, tau)

    def resite(self, new_site):
        return BregmanDistance(self.spec, new_site, tau=self.tau)

    def in_domain(self, x):
        return self.spec.in_domain(x)

    def _check_domain(self, pts):
        if not np.all(self.spec.in_domain(pts)):
            raise DomainError("query outside domain")


# ---------------------------------------------------------------------------
# Constructors matching the public operation surface
# ---------------------------------------------------------------------------


def make_minkowski(p, k: float, weight: float = 1.0, tau: float | None = None) -> MinkowskiDistance:
    return MinkowskiDistance(p, k, weight, tau=tau)


def make_mahalanobis(p, matrix, tau: float | None = None) -> MahalanobisDistance:
    return MahalanobisDistance(p, matrix, tau=tau)


def make_bregman(spec: BregmanSpec, p, tau: float | None = None) -> BregmanDistance:
    return BregmanDistance(spec, p, tau=tau)


def make_custom_gauge(p, gauge_value, gauge_gradient, gauge_hessian,
                      params: GaugeParams, tau: float | None = None) -> CustomGaugeDistance:
    return CustomGaugeDistance(p, gauge_value, gauge_gradient, gauge_hessian, params, tau=tau)


# ---------------------------------------------------------------------------
# Sampled growth constants and gauge-ball geometry
# ---------------------------------------------------------------------------


def unit_directions(dim: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((count, dim))
    norms = np.linalg.norm(u, axis=1)
    norms[norms == 0] = 1.0
    return u / norms[:, None]


def admissibility_ratios(fn: SiteFunction, pts: np.ndarray,
                         value_floor: float = _VALUE_FLOOR):
    """Per-sample growth ratios of a site function.

    Returns (grad_ratio, hess_ratio, dir_ratio, used_mask) where
    grad_ratio = ||grad f|| * ||x - p|| / f,
    hess_ratio = sqrt(||hess f|| * ||x - p||^2 / f),
    dir_ratio  = <grad f, x - p> / f.
    Samples with f below ``value_floor`` or at the site are skipped.
    """
    p = fn.site
    rel = pts - p[None, :]
    dist = np.linalg.norm(rel, axis=1)
    vals = fn._values(pts)
    used = (vals >= value_floor) & (dist > 0.0)
    if not np.any(used):
        empty = np.zeros(0)
        return empty, empty, empty, used
    sel = pts[used]
    rel = rel[used]
    dist = dist[used]
    vals = vals[used]
    grads = fn._gradients(sel)
    gnorm = np.linalg.norm(grads, axis=1)
    if isinstance(fn, BregmanDistance) and fn.spec.hess_kind in ("const", "diag"):
        hnorm = fn.spec.hessian_norms(sel)
    else:
        hs = fn._hessians(sel)
        hnorm = np.max(np.abs(np.linalg.eigvalsh(hs)), axis=1)
    grad_ratio = gnorm * dist / vals
    hess_ratio = np.sqrt(np.maximum(hnorm, 0.0) * dist * dist / vals)
    dir_ratio = np.einsum("ad,ad->a", grads, rel) / vals
    return grad_ratio, hess_ratio, dir_ratio, used


def _sampled_scaling_tau_raw(fn: SiteFunction, count: int = 1024,
                             seed: int = _DIRECTION_SEED) -> float:
    """Raw sampled growth constant for a scaling function.

    1-homogeneity makes the ratios constant along rays, so sampling unit
    directions about the site covers all of space.
    """
    dirs = unit_directions(fn.dim, count, seed)
    g, h, _, _ = admissibility_ratios(fn, fn.site[None, :] + dirs)
    if g.size == 0 or not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        raise ValueError("admissibility gate: unbounded ratio")
    return max(1.0, float(np.max(g)), float(np.max(h)))


def resolve_tau(fns) -> None:
    """Sample ``tau`` for every Bregman site in ``fns`` built without one, in
    one ``_bregman_tau_pass`` per generator. A site whose sample fails the
    admissibility checks raises ``ValueError`` naming its index in ``fns``."""
    pending: dict[object, list[int]] = {}
    for i, f in enumerate(fns):
        if f._tau is None:
            pending.setdefault(generator_key(f.spec), []).append(i)
    for ids in pending.values():
        members = [fns[i] for i in ids]
        raw, used = _bregman_tau_pass(
            members[0].spec, np.stack([f.site for f in members]),
            np.array([f._site_value for f in members]),
            np.stack([f._site_grad for f in members]))
        bad = (used < _MIN_TAU_SAMPLES) | ~np.isfinite(raw)
        if np.any(bad):
            j = int(np.argmax(bad))
            reason = ("degenerate sample" if used[j] < _MIN_TAU_SAMPLES
                      else "admissibility gate: unbounded ratio")
            raise ValueError(f"{reason} at site {ids[j]}")
        for f, tau in zip(members, _TAU_INFLATION * raw):
            f._tau = _admissible_tau(tau)


def _bregman_tau_pass(spec: BregmanSpec, P, fP, gP) -> tuple[np.ndarray, np.ndarray]:
    """Raw sampled growth constants of the Bregman sites ``P`` (m, d), whose
    generator values and gradients are ``fP`` and ``gP``, with the number of
    samples each one used.

    Per site the constant is ``max(1, max g, max h)`` over the gradient and
    Hessian ratios of ``admissibility_ratios`` at seeded sample points; it is
    not finite when one of those ratios is not. The sample points and their
    Hessian norms are shared by all sites, which go through the kernel in
    chunks of ``_TAU_CHUNK_ELEMENTS``.
    """
    m, d = P.shape
    if spec.hess_kind == "const" and not spec.bounded:
        # Quadratic generator: the ratios depend only on the direction from
        # the site, so each site samples unit directions about itself.
        pts = unit_directions(d, _BREGMAN_TAU_SAMPLES // 2, _DIRECTION_SEED)
        about_site = True
    else:
        rng = np.random.default_rng(_DIRECTION_SEED)
        pts = rng.uniform(spec.domain_low, spec.domain_high, size=(_BREGMAN_TAU_SAMPLES, d))
        about_site = False
    step = max(1, min(m, _TAU_CHUNK_ELEMENTS // pts.size))
    # A "const" Hessian has the same norm at the directions as at the points.
    hnorm = np.maximum(spec.hessian_norms(pts), 0.0)[:, None]
    # The points (and shared gradients) repeated for a chunk of sites, so
    # that differences against the sites run over long contiguous rows.
    wide_pts = np.repeat(pts[:, None], step, axis=1)
    if not about_site:
        wide_grads = np.repeat(spec.gradients(pts)[:, None], step, axis=1)
    raw = np.empty(m)
    used_count = np.empty(m, dtype=np.intp)
    for start in range(0, m, step):
        c = slice(start, start + step)
        k = len(P[c])
        if about_site:
            X = P[c] + wide_pts[:, :k]
            at, grads = X, bregman_gradients(spec, X, gP[c])
        else:
            X = wide_pts[:, :k]
            # The kernel evaluates F at a (T, 1, d) stack: once per point.
            at, grads = pts[:, None], wide_grads[:, :k] - gP[c]
        V = X - P[c]
        vals = bregman_values(spec, at, V, fP[c], gP[c])
        dist = _norms(V)
        gnorm = _norms(grads)
        used = (vals >= _VALUE_FLOOR) & (dist > 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Both ratios are >= 0 where used, so a NaN or inf among them
            # carries through the maxima.
            ratio = np.maximum(gnorm * dist / vals, np.sqrt(hnorm * dist * dist / vals))
        used_count[c] = np.count_nonzero(used, axis=0)
        raw[c] = np.max(np.where(used, ratio, -np.inf), axis=0)
    return np.maximum(1.0, raw), used_count


def _norms(A: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(A, axis=-1)``, bit for bit. Below 8 terms numpy sums
    left to right, as this fold of the columns does about 10x faster."""
    if A.shape[-1] >= 8:
        return np.linalg.norm(A, axis=-1)
    return np.sqrt(sum(A[..., j] * A[..., j] for j in range(A.shape[-1])))


_MINK_GEOMETRY_CACHE: dict[tuple[float, int], tuple[float, float]] = {}


def minkowski_gauge_params(k: float, dim: int) -> tuple[float, float]:
    """(gamma, sigma) for the l_k unit ball in the given dimension.

    gamma is exact: d^(-|1/2 - 1/k|). sigma comes from sampling the boundary
    curvature; for k < 2 the curvature blows up at the axes and sigma is
    reported as 0 (no positive smoothness constant exists).
    """
    key = (round(float(k), 12), int(dim))
    if key in _MINK_GEOMETRY_CACHE:
        return _MINK_GEOMETRY_CACHE[key]
    gamma = float(dim) ** (-abs(0.5 - 1.0 / k))
    if k < 2.0:
        sigma = 0.0
    else:
        # Placeholder entry so the probe construction below does not recurse.
        _MINK_GEOMETRY_CACHE[key] = (gamma, 0.0)
        probe = MinkowskiDistance(np.zeros(dim), k, 1.0, tau=1.0)
        dirs = _minkowski_probe_directions(dim)
        sigma = _gauge_sigma_from_curvature(probe, dirs)
    _MINK_GEOMETRY_CACHE[key] = (gamma, sigma)
    return gamma, sigma


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


def gauge_params_from_samples(fn: SiteFunction, count: int = 1024,
                              seed: int = _DIRECTION_SEED) -> GaugeParams:
    """Estimate (gamma, sigma) of a gauge by boundary sampling."""
    dirs = unit_directions(fn.dim, count, seed)
    vals = fn._values(fn.site[None, :] + dirs)
    radii = 1.0 / vals
    gamma = float(np.min(radii) / np.max(radii))
    sigma = _gauge_sigma_from_curvature(fn.resite(np.zeros(fn.dim)), dirs)
    return GaugeParams(min(1.0, gamma), max(min(1.0, sigma), 1e-12))
