"""Measured growth constants and numeric validation of the divergence bounds.

Suprema are sample maxima over seeded uniform draws; constants intended for
use by the search structures are the sampled maxima inflated by 10%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .distances import (
    MIN_TAU_SAMPLES,
    TAU_INFLATION,
    VALUE_FLOOR,
    BregmanSpec,
    SiteFunction,
    admissibility_ratios,
    bregman_gradients,
    bregman_values,
)
from .geom import EuclideanBall, as_vector, is_separated, separation_ratio


@dataclass(frozen=True)
class SampleSpec:
    """Uniform sampling plan over a box or a ball, deterministic per seed."""

    region: object  # EuclideanBall or (low, high) box pair
    count: int
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be positive")

    def draw(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if isinstance(self.region, EuclideanBall):
            c = self.region.center
            d = c.size
            u = rng.standard_normal((self.count, d))
            u /= np.linalg.norm(u, axis=1)[:, None]
            radii = self.region.radius * rng.random(self.count) ** (1.0 / d)
            return c[None, :] + radii[:, None] * u
        low, high = self.region
        low = as_vector(low)
        high = as_vector(high)
        return rng.uniform(low, high, size=(self.count, low.size))


@dataclass
class ComplexityReport:
    """Measured growth and asymmetry constants over a sampled region."""

    tau_grad: float = math.nan
    tau_hess: float = math.nan
    tau: float = math.nan
    tau_certified: float = math.nan
    mu_asym: float = math.nan
    mu_sim: float = math.nan
    mu_dir: float = math.nan
    sim_rescaled: bool = False
    samples_used: int = 0
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def measure_admissibility(f: SiteFunction, s: SampleSpec) -> ComplexityReport:
    """Sampled growth ratios of f about its site.

    tau is a sampled lower bound on the true constant; ``tau_certified``
    applies the 10% inflation used wherever a certified constant is needed.
    """
    pts = s.draw()
    grad_r, hess_r, dir_r, used = admissibility_ratios(f, pts)
    n_used = int(np.count_nonzero(used))
    if n_used < MIN_TAU_SAMPLES:
        raise ValueError("degenerate sample")
    tau_grad = float(np.max(grad_r))
    tau_hess = float(np.max(hess_r))
    tau = max(tau_grad, tau_hess, 1.0)
    report = ComplexityReport(
        tau_grad=tau_grad,
        tau_hess=tau_hess,
        tau=tau,
        tau_certified=TAU_INFLATION * tau,
        mu_dir=float(np.max(dir_r)),
        samples_used=n_used,
    )
    if not np.isfinite(tau):
        report.notes.append("unbounded ratio encountered")
    return report


def measure_bregman_complexity(spec: BregmanSpec, s: SampleSpec) -> ComplexityReport:
    """Asymmetry, similarity, and directional growth of a divergence.

    Draws ``count`` ordered sample pairs (q, p); both orientations of each
    pair enter the asymmetry and directional statistics. Pairs with
    divergence below 1e-12 are skipped.
    """
    pts = s.draw()
    half = len(pts) // 2
    if half < 1:
        raise ValueError("degenerate sample")
    q = np.vstack([pts[:half], pts[half : 2 * half]])
    p = np.vstack([pts[half : 2 * half], pts[:half]])

    fq = spec.values(q)
    fp = spec.values(p)
    gp = spec.gradients(p)
    gq = spec.gradients(q)
    diff = q - p
    d_qp = bregman_values(spec, q[None], diff[None], fp, gp)[0]
    d_pq = bregman_values(spec, p[None], -diff[None], fq, gq)[0]
    sq_dist = np.einsum("ad,ad->a", diff, diff)

    ok = (d_qp >= VALUE_FLOOR) & (d_pq >= VALUE_FLOOR) & (sq_dist > 0.0)
    if not np.any(ok):
        raise ValueError("degenerate sample")
    d_qp, d_pq, sq_dist = d_qp[ok], d_pq[ok], sq_dist[ok]
    q, gp, diff = q[ok], gp[ok], diff[ok]

    mu_asym = float(np.max(d_qp / d_pq))
    ratios = d_qp / sq_dist
    r_lo, r_hi = float(np.min(ratios)), float(np.max(ratios))
    report = ComplexityReport(samples_used=int(np.count_nonzero(ok)))
    if r_lo >= 1.0 - 1e-9:
        report.mu_sim = r_hi
    elif r_lo <= VALUE_FLOOR:
        report.mu_sim = math.inf
        report.sim_rescaled = True
        report.notes.append("similarity unbounded over samples")
    else:
        # Not 1-similar as given; report the ratio after the optimal rescaling.
        report.mu_sim = r_hi / r_lo
        report.sim_rescaled = True
    grad_d = bregman_gradients(spec, q[None], gp)[0]
    report.mu_dir = float(np.max(np.einsum("ad,ad->a", grad_d, diff) / d_qp))
    report.mu_asym = mu_asym
    return report


def check_bound_lemma(f: SiteFunction, ball: EuclideanBall, kappa: float,
                      s: SampleSpec, slack: float = 1e-9) -> tuple[bool, dict]:
    """Sampled check of the separated-ball bounds.

    With the site (tau*kappa)-separated from the ball, the max/min function
    value, gradient norm, and Hessian norm over the ball must satisfy
      f+ <= f- * kappa/(kappa-1),
      ||grad f+|| <= f+ / (kappa * diam),
      ||hess f+|| <= f+ / (kappa * diam)^2.
    """
    if kappa <= 1.0:
        raise ValueError("kappa must exceed 1")
    if not is_separated(f.site, ball, f.tau * kappa):
        raise ValueError("insufficient separation")
    spec_ball = SampleSpec(ball, s.count, s.seed)
    pts = spec_ball.draw()
    vals = f._values(pts)
    grads = f._gradients(pts)
    hess = f._hessians(pts)
    f_max = float(np.max(vals))
    f_min = float(np.min(vals))
    g_max = float(np.max(np.linalg.norm(grads, axis=1)))
    h_max = float(np.max(np.abs(np.linalg.eigvalsh(hess))))
    diam = ball.diameter
    tol = 1.0 + slack
    checks = {
        "value_ratio": f_max <= f_min * kappa / (kappa - 1.0) * tol,
        "gradient": g_max <= f_max / (kappa * diam) * tol,
        "hessian": h_max <= f_max / (kappa * diam) ** 2 * tol,
    }
    report = {
        "f_max": f_max,
        "f_min": f_min,
        "grad_max": g_max,
        "hess_max": h_max,
        "kappa": kappa,
        "separation": separation_ratio(f.site, ball),
        "checks": checks,
    }
    return all(checks.values()), report


def check_three_point(spec: BregmanSpec, q, p1, p2) -> float:
    """Residual of the divergence chain identity
    D(q,p2) + D(p2,p1) = D(q,p1) + <q - p2, grad F(p1) - grad F(p2)>."""
    q = as_vector(q)
    p1 = as_vector(p1)
    p2 = as_vector(p2)
    for x in (q, p1, p2):
        if not bool(spec.in_domain(x)):
            raise ValueError("point outside domain")
    d_q_p2 = float(spec.divergence(q, p2)[0])
    d_p2_p1 = float(spec.divergence(p2, p1)[0])
    d_q_p1 = float(spec.divergence(q, p1)[0])
    g12 = bregman_gradients(spec, p1[None, None, :], spec.gradients(p2[None, :]))[0, 0]
    lhs = d_q_p2 + d_p2_p1
    rhs = d_q_p1 + float(np.dot(q - p2, g12))
    return abs(lhs - rhs)


def check_eigen_sandwich(spec: BregmanSpec, q, p, segment_samples: int = 64,
                         slack: float = 1e-6) -> bool:
    """Value and gradient of D(q,p) sandwiched by segment Hessian eigenvalues.

    Uses ``segment_samples`` interior points plus both endpoints to bracket
    the eigenvalue extremes of the generator Hessian along [p, q].
    """
    q = as_vector(q)
    p = as_vector(p)
    for x in (q, p):
        if not bool(spec.in_domain(x)):
            raise ValueError("point outside domain")
    dist = float(np.linalg.norm(q - p))
    if dist == 0.0:
        return True
    ts = np.linspace(0.0, 1.0, segment_samples + 2)
    seg = p[None, :] + ts[:, None] * (q - p)[None, :]
    lam_lo, lam_hi = spec.hessian_eig_range(seg)
    lo = float(np.min(lam_lo))
    hi = float(np.max(lam_hi))
    d_val = float(spec.divergence(q, p)[0])
    grad = bregman_gradients(spec, q[None, None, :], spec.gradients(p[None, :]))
    g_norm = float(np.linalg.norm(grad))
    tol = 1.0 + slack
    value_ok = (0.5 * lo * dist**2 <= d_val * tol) and (d_val <= 0.5 * hi * dist**2 * tol)
    grad_ok = (lo * dist <= g_norm * tol) and (g_norm <= hi * dist * tol)
    return value_ok and grad_ok
