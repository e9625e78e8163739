"""Prune, rescale, and concavify a family of separated distance functions.

Over a ball whose sites are all (2*tau)-separated, ``normalize`` divides
the family by five times its smallest ball minimum and maps it to the unit
ball; the result, a ``NormalizedFamily``, records the kept members and the
scale. ``convexify`` adds the common offset phi(u) = (1 - ||u||^2)/8 to
their values. The rescaled members have values in [1/5, 4/5], gradient
norms at most 1/4, and Hessian norms at most 1/16, so the offset makes
every member concave while leaving argmins and vertical gaps untouched;
``check_invariants`` samples these bounds.

``screen`` is the one prune screen, shared by ``normalize`` and the index's
leaf build: it checks the separation and drops every member whose distance
bounds place its ball minimum beyond the prune threshold. Screening its own
survivors keeps all of them, so a caller may screen a family before handing
the survivors to ``normalize``. The index does not: it screens only the
sites near a leaf ball, which keeps the survivors of the screen over every
site, and an exact leaf evaluates the survivors at each query, while an
envelope leaf reads them as a ``NormalizedFamily`` with h = 1, since its
witnesses are argmins. ``normalize`` serves ``check_invariants``,
``build_relative`` and the acceptance criteria.

One batched estimator, ``fast_min_estimates``, supplies the ball minima of
the survivors. Weighted Euclidean members are solved in closed form. Every
other member, Mahalanobis included, starts at the boundary point facing
its site and takes a few lockstep Frank-Wolfe steps with batched line
searches. Each estimate is a member value at a point of the ball, so it
never falls below the true minimum; a Frank-Wolfe estimate may sit a small
fraction above it, which shifts the value bounds by that fraction.
"""

from __future__ import annotations

import numpy as np

from ._batch import SiteFamily, batch_value_bounds, batch_values
from .distances import DomainError
from .geom import EuclideanBall

PRUNE_DELTA = 0.01
LAMBDA_PLUS = 0.25  # curvature of the concavifying offset
# Frank-Wolfe steps per estimate, and bracket-narrowing rounds per line search.
FW_STEPS = 4
FW_ROUNDS = 3


def _check_ball_in_domain(fam: SiteFamily, ball: EuclideanBall) -> None:
    for spec in fam.specs:
        if (np.any(ball.center - ball.radius <= spec.domain_low)
                or np.any(ball.center + ball.radius >= spec.domain_high)):
            raise DomainError("ball outside domain")


def _face_seeds(P: np.ndarray, ball: EuclideanBall) -> np.ndarray:
    """Ball-boundary points facing each site (exact minimizers for
    Euclidean-like gauges, good starts otherwise)."""
    c, r = ball.center, ball.radius
    V = P - c[None, :]
    nv = np.linalg.norm(V, axis=1)
    nv = np.where(nv > 0, nv, 1.0)
    return c[None, :] + r * V / nv[:, None]


def _fast_fw_refine(fam: SiteFamily, ball: EuclideanBall, X: np.ndarray) -> np.ndarray:
    """Lockstep Frank-Wolfe from the given starts; batched line searches.
    Returned values upper-bound the true minima (each is a feasible value)."""
    c, r = ball.center, ball.radius
    grid = np.linspace(0.0, 1.0, 9)
    m = len(fam)
    for _ in range(FW_STEPS):
        G = fam.gradients(X)
        gn = np.linalg.norm(G, axis=1)
        gn = np.where(gn > 0, gn, 1.0)
        vertex = c[None, :] - r * G / gn[:, None]
        span = vertex - X
        lo = np.zeros(m)
        hi = np.ones(m)
        for _ in range(FW_ROUNDS):
            ts = lo[None, :] + (hi - lo)[None, :] * grid[:, None]  # (9, m)
            pts = X[None, :, :] + ts[:, :, None] * span[None, :, :]
            vals = fam.paired(pts)
            j = np.argmin(vals, axis=0)
            lo_new = lo + (hi - lo) * grid[np.maximum(j - 1, 0)]
            hi_new = lo + (hi - lo) * grid[np.minimum(j + 1, 8)]
            lo, hi = lo_new, hi_new
        X = X + (0.5 * (lo + hi))[:, None] * span
    return fam.paired(X)


def fast_min_estimates(family, ball: EuclideanBall) -> np.ndarray:
    """Vectorized per-member ball minima: the estimator ``normalize`` runs
    on every member its screen keeps. Weighted Euclidean members are exact;
    every other member gets ``_fast_fw_refine`` from the boundary point
    facing its site, slightly above its true minimum."""
    if len(family) == 0:
        return np.zeros(0)
    fam = SiteFamily.of(family)
    _check_ball_in_domain(fam, ball)
    vals = np.empty(len(fam))
    euclidean = np.zeros(len(fam), dtype=bool)
    for idx, kern in fam.groups:
        if kern.kind == "minkowski" and kern.k == 2.0:
            vals[idx] = kern.W * (np.linalg.norm(kern.P - ball.center[None, :], axis=1)
                                  - ball.radius)
            euclidean[idx] = True
    fw = np.flatnonzero(~euclidean)
    if fw.size:
        sub = fam.take(fw)
        vals[fw] = _fast_fw_refine(sub, ball, _face_seeds(sub.P, ball))
    return vals


class NormalizedFamily:
    """Members of a family rescaled to the unit ball: g_i(u) = f_i(c + r*u) / h
    for the members at positions ``members`` of ``source``, whose original
    ids are ``kept_indices``.

    It holds a reference to the source family, not a copy, and the
    positions and ids as int32; ``family`` takes the members only while they
    are evaluated. ``normalize`` gives h = 5 * f1_min; the index's leaves
    give h = 1 and their screen survivors, since they read only argmins."""

    __slots__ = ("ball", "scale_h", "source", "members", "kept_indices")

    def __init__(self, ball: EuclideanBall, scale_h: float, source: SiteFamily, members,
                 kept_indices=None):
        self.ball = ball
        self.scale_h = float(scale_h)
        self.source = source
        self.members = np.asarray(members, dtype=np.int32)
        self.kept_indices = (self.members if kept_indices is None
                             else np.asarray(kept_indices, dtype=np.int32))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def family(self) -> SiteFamily:
        """The members as a family of their own."""
        return self.source.take(self.members)

    def world_points(self, U: np.ndarray) -> np.ndarray:
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return self.ball.center[None, :] + self.ball.radius * U

    def values_matrix(self, U: np.ndarray) -> np.ndarray:
        return batch_values(self.family, self.world_points(U)) / self.scale_h


def prune_threshold(hi: np.ndarray) -> float:
    """The bound above which ``prune_screen`` drops a member's lower bound:
    twice the smallest upper bound ``hi`` on a ball minimum, with slack."""
    return 2.0 * (1.0 + PRUNE_DELTA) * 1.001 * float(np.min(hi))


def prune_screen(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the members ``normalize`` estimates, from per-member bounds
    (lo, hi) on the ball minima: the rest provably exceed the prune threshold."""
    return lo <= prune_threshold(hi)


def ball_gaps(P: np.ndarray, ball: EuclideanBall) -> np.ndarray:
    """Euclidean distance from each row of ``P`` to the ball; each depends
    on its own row alone, bit for bit."""
    diff = P - ball.center[None, :]
    return np.maximum(0.0, np.sqrt(np.einsum("md,md->m", diff, diff)) - ball.radius)


def screen(family: SiteFamily, ball: EuclideanBall, members: np.ndarray, ids) -> np.ndarray:
    """Positions of the ``members`` (a mask over ``family``) that
    ``prune_screen`` keeps over the ball, from the Euclidean distance of
    each site to the ball.

    A member closer than 2*tau ball diameters raises ``ValueError`` naming
    its entry of ``ids``, the original ids of the family. Each distance and
    bound depends on its own member alone, so screening members of a family
    equals screening the sub-family that holds just them; the member with
    the smallest upper bound always survives, so screening the survivors
    again keeps every one of them. The index's leaves rely on the first
    fact: they screen the sub-family of the sites near the ball, which
    holds every member that could fail the separation test or survive
    (``AnnIndex._screen``), and so keep the survivors, and raise the
    error, of the screen over every site.
    """
    dists = ball_gaps(family.P, ball)
    bad = members & (dists / ball.diameter < 2.0 * family.tau)
    if np.any(bad):
        raise ValueError(f"insufficient separation: site {ids[int(np.argmax(bad))]}")
    lo, hi = batch_value_bounds(family, dists)
    return np.flatnonzero(members & prune_screen(lo, np.where(members, hi, np.inf)))


def normalize(family, ball: EuclideanBall, indices=None) -> NormalizedFamily:
    """Rescale a separated family (a ``SiteFamily`` or a list of site
    functions, with original ids ``indices``) over a ball, pruning members
    that cannot touch the lower envelope there.

    ``screen`` drops the members whose distance bounds already place them
    beyond the prune threshold. ``fast_min_estimates`` estimates the ball
    minimum of every other member in one batched pass; f1_min is the
    smallest estimate. A member is kept when its estimate is at most twice
    f1_min (with 1% slack); the others exceed the smallest member
    throughout the ball. The scale is h = 5 * f1_min.
    """
    family = SiteFamily.of(family)
    indices = list(range(len(family))) if indices is None else list(indices)
    screened = screen(family, ball, np.ones(len(family), dtype=bool), indices)
    estimates = fast_min_estimates(family.take(screened), ball)
    f1_min = float(np.min(estimates))
    kept = screened[estimates <= 2.0 * (1.0 + PRUNE_DELTA) * f1_min]
    return NormalizedFamily(ball, 5.0 * f1_min, family, kept, [indices[i] for i in kept])


def convexify(g: np.ndarray, U) -> np.ndarray:
    """Normalized values ``g`` (one row per point of ``U`` in the unit ball)
    plus the common concavifying offset phi(u) = (1 - ||u||^2)/8."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    return g + ((1.0 - np.einsum("ad,ad->a", U, U)) / 8.0)[:, None]


def check_invariants(nf: NormalizedFamily, n_samples: int = 10000, seed: int = 0) -> dict:
    """Sampled extremes of the normalized members and of their convexified
    values over the unit ball: every member at every sample, with one
    gradient and one Hessian evaluation of the kept family."""
    rng = np.random.default_rng(seed)
    d = nf.ball.dim
    u = rng.standard_normal((n_samples, d))
    u /= np.linalg.norm(u, axis=1)[:, None]
    radii = rng.random(n_samples) ** (1.0 / d)
    U = u * radii[:, None]
    g_vals = nf.values_matrix(U)
    ghat = convexify(g_vals, U)
    X = np.broadcast_to(nf.world_points(U)[:, None, :], (n_samples, nf.size, d))
    r, h, family = nf.ball.radius, nf.scale_h, nf.family
    grads = family.gradients(X) * (r / h)
    eigs = np.linalg.eigvalsh(family.hessians(X) * (r**2 / h))
    return {
        "g_min": float(np.min(g_vals)),
        "g_max": float(np.max(g_vals)),
        "grad_max": float(np.max(np.linalg.norm(grads, axis=-1))),
        "hess_max": float(np.max(np.abs(eigs))),
        "conc_eig_max": float(np.max(eigs[..., -1] - LAMBDA_PLUS)),
        "conc_eig_min": float(np.min(eigs[..., 0] - LAMBDA_PLUS)),
        "ghat_min": float(np.min(ghat)),
        "ghat_max": float(np.max(ghat)),
    }
