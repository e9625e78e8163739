import numpy as np
import pytest

from eann._batch import SiteFamily, batch_value_bounds
from eann.convexify import (
    LAMBDA_PLUS,
    PRUNE_DELTA,
    check_invariants,
    convexify,
    fast_min_estimates,
    normalize,
    prune_screen,
)
from eann.distances import (
    generalized_kl_spec,
    make_bregman,
    make_mahalanobis,
    make_minkowski,
)
from eann.geom import EuclideanBall

from conftest import separated_family

BALL = EuclideanBall(np.zeros(2), 1.0)


def _boundary_minimum(f, ball, samples=4096, width=1e-14):
    """Reference min of f over a disk whose minimizer lies on the circle: a
    dense scan of the angle, then a ternary bracketing search around the
    best sample down to the given angular width. Returns the smallest value
    evaluated, a feasible value within rounding of the true minimum."""
    c, r = ball.center, ball.radius

    def value(theta):
        return float(f.value(c + r * np.array([np.cos(theta), np.sin(theta)])))

    step = 2.0 * np.pi / samples
    theta = np.arange(samples) * step
    vals = f.value(c[None, :] + r * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    best = float(vals.min())
    lo = theta[int(np.argmin(vals))] - step
    hi = lo + 2.0 * step
    while hi - lo > width:
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        fa, fb = value(a), value(b)
        best = min(best, fa, fb)
        if fa < fb:
            hi = b
        else:
            lo = a
    return best


def test_estimate_min_l2():
    # Geometry from the worked example; the closed form is exact.
    f = make_minkowski([4.0, 0.0], 2.0, tau=1.0)
    f6 = make_minkowski([7.0, 0.0], 2.0, tau=1.0)
    est = fast_min_estimates([f, f6], BALL)
    assert est[0] == pytest.approx(3.0, abs=1e-12)
    assert est[1] == pytest.approx(6.0, abs=1e-12)


def test_estimate_min_mahalanobis():
    f = make_mahalanobis([4.0, 0.0], np.diag([4.0, 1.0]))
    est = fast_min_estimates([f], BALL)[0]
    assert est == pytest.approx(6.0, abs=1e-9)


def _mahalanobis_minima(kern, ball):
    """Reference ball minima of Mahalanobis members: the trust-region
    subproblem minimize (y-b)^T M (y-b) over ||y|| <= r, solved by bisection
    on the multiplier in M's eigenbasis (More and Sorensen, 1983)."""
    r = ball.radius
    w, Q = np.linalg.eigh(kern.M)
    b = kern.P - ball.center[None, :]
    bt = np.einsum("mij,mi->mj", Q, b)
    target = r * r

    def radius_sq(lam):
        y = w * bt / (w + lam[:, None])
        return np.einsum("md,md->m", y, y)

    lo = np.zeros(len(b))
    hi = np.maximum(1.0, w[:, -1] * np.linalg.norm(b, axis=1) / r)
    for _ in range(60):
        grow = radius_sq(hi) > target
        if not np.any(grow):
            break
        hi = np.where(grow, hi * 2.0, hi)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        over = radius_sq(mid) > target
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    lam = 0.5 * (lo + hi)
    y = w * bt / (w + lam[:, None])
    diff = y - bt
    return np.sqrt(np.maximum(np.einsum("md,md,md->m", diff, w, diff), 0.0))


def _mahalanobis_family(rng, d, ratio, m=20):
    """m Mahalanobis members with random axes and eigenvalues spanning
    [1, ratio], (2*tau)-separated from a random ball."""
    ball = EuclideanBall(rng.standard_normal(d), float(np.exp(rng.uniform(-2.0, 1.0))))
    fns = []
    for _ in range(m):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eig = np.exp(rng.uniform(0.0, np.log(ratio), d))
        eig[0], eig[-1] = 1.0, ratio
        f0 = make_mahalanobis(np.zeros(d), q @ np.diag(eig) @ q.T)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        dist = 2.0 * f0.tau * rng.uniform(1.0, 2.0) * ball.diameter
        fns.append(f0.resite(ball.center + (ball.radius + dist) * u))
    return SiteFamily(fns), ball


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("ratio", [4.0, 100.0, 1e4])
def test_mahalanobis_estimates_match_trust_region_reference(rng, d, ratio):
    """Frank-Wolfe from the face seeds lands within 1e-9 relative of the
    trust-region minimum, for eigenvalue ratios up to 1e4."""
    for _ in range(10):
        fam, ball = _mahalanobis_family(rng, d, ratio)
        ref = _mahalanobis_minima(fam.groups[0][1], ball)
        est = fast_min_estimates(fam, ball)
        np.testing.assert_allclose(est, ref, rtol=1e-9, atol=0)


def test_estimate_min_generic_kinds():
    """The Frank-Wolfe refinement for non-closed-form gauges lands within
    1e-6 relative of the boundary reference, and never below it."""
    for k in (1.5, 2.5, 3.0):
        f = make_minkowski([4.0, 1.0], k)
        est = fast_min_estimates([f], BALL)[0]
        ref = _boundary_minimum(f, BALL)
        assert est >= ref - 1e-12
        assert est <= ref * (1.0 + 1e-6)


def test_estimate_min_bregman():
    f = make_bregman(generalized_kl_spec(2, 0.01, 10.0), [8.0, 8.0])
    ball = EuclideanBall(np.array([1.0, 1.0]), 0.05)
    est = fast_min_estimates([f], ball)[0]
    assert est == pytest.approx(_boundary_minimum(f, ball), rel=1e-6)


def test_fast_estimates_match_exact(rng):
    """Every estimate is a feasible value at most 0.2% above a dense-scan
    reference."""
    fns, ball = separated_family(rng, 2, 8)
    for f in fns:
        fast = fast_min_estimates([f], ball)[0]
        ref = _boundary_minimum(f, ball)
        assert fast >= ref - 1e-12
        assert fast <= ref * (1.0 + 2e-3)
    # A batch estimates each member as if it were alone.
    batch = fast_min_estimates(fns, ball)
    alone = [fast_min_estimates([f], ball)[0] for f in fns]
    np.testing.assert_allclose(batch, alone, rtol=1e-12, atol=0)


def test_normalize_single_family_example():
    f = make_minkowski([6.0, 0.0], 2.0, tau=1.0)
    nf = normalize([f], BALL)
    assert nf.scale_h == pytest.approx(25.0)
    assert nf.values_matrix(np.zeros((1, 2)))[0, 0] == pytest.approx(6.0 / 25.0)
    assert nf.kept_indices == [0]


def test_normalize_prunes_far_member():
    f_near = make_minkowski([6.0, 0.0], 2.0, tau=1.0)
    f_far = make_minkowski([40.0, 0.0], 2.0, tau=1.0)
    nf = normalize([f_near, f_far], BALL)
    assert nf.kept_indices == [0]
    # The pruned member's estimated minimum exceeds twice the family minimum.
    assert fast_min_estimates([f_far], BALL)[0] > 2.0 * nf.f1_min


def test_normalize_keeps_exactly_the_members_within_the_threshold():
    """Every member the screen keeps is estimated, and only those within
    2(1+PRUNE_DELTA) of the smallest estimate stay. The l3 member facing the
    ball along an axis passes the screen, but its minimum is about 2.5 times
    that of the diagonal one; the third member fails the screen."""
    fns = [make_minkowski(11.0 / np.sqrt(2.0) * np.ones(2), 3.0),
           make_minkowski([23.0, 0.0], 3.0),
           make_minkowski([0.0, -60.0], 3.0)]
    dists = np.array([np.linalg.norm(f.site) - 1.0 for f in fns])
    assert prune_screen(*batch_value_bounds(fns, dists)).tolist() == [True, True, False]
    est = fast_min_estimates(fns[:2], BALL)
    nf = normalize(fns, BALL)
    assert nf.f1_min == est.min()
    assert est[1] > 2.0 * (1.0 + PRUNE_DELTA) * est.min()
    assert nf.kept_indices == [0]


def test_normalize_reports_offender():
    f_ok = make_minkowski([7.0, 0.0], 2.0, tau=1.0)
    f_close = make_minkowski([2.0, 0.0], 2.0, tau=1.0)
    with pytest.raises(ValueError, match="site 1"):
        normalize([f_ok, f_close], BALL)
    with pytest.raises(ValueError, match="empty family"):
        normalize([], BALL)


def test_normalized_bounds_sampled(rng):
    for trial in range(12):
        d = int(rng.integers(2, 4))
        fns, ball = separated_family(rng, d, int(rng.integers(2, 7)))
        nf = normalize(fns, ball)
        u = rng.standard_normal((4000, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        U = u * (rng.random(4000) ** (1.0 / d))[:, None]
        vals = nf.values_matrix(U)
        assert vals.min() >= 0.2 - 1e-9
        assert vals.max() <= 0.8 + 1e-9


def test_convexify_offset_values():
    f = make_minkowski([7.0, 0.0], 2.0, tau=1.0)
    nf = normalize([f], BALL)
    U = np.array([[1.0, 0.0], [0.0, 0.0]])
    g = nf.values_matrix(U)
    offset = convexify(g, U) - g
    assert offset[0, 0] == pytest.approx(0.0)
    assert offset[1, 0] == pytest.approx(1.0 / 8.0)
    # The same offset for every member at a point, and a single point may be 1-D.
    np.testing.assert_allclose(convexify(np.array([[0.3, 0.5]]), np.zeros(2)), [[0.425, 0.625]])


def test_convexify_preserves_argmin(rng):
    fns, ball = separated_family(rng, 2, 6)
    nf = normalize(fns, ball)
    U = rng.standard_normal((100, 2))
    U /= np.maximum(1.0, np.linalg.norm(U, axis=1))[:, None]
    g = nf.values_matrix(U)
    ghat = convexify(g, U)
    assert np.array_equal(np.argmin(g, axis=1), np.argmin(ghat, axis=1))
    # The offset is common: pairwise gaps match exactly.
    gaps = g[:, :, None] - g[:, None, :]
    gaps_hat = ghat[:, :, None] - ghat[:, None, :]
    assert np.allclose(gaps, gaps_hat, atol=1e-12)


def test_convexified_invariants(rng):
    for trial in range(8):
        d = int(rng.integers(2, 4))
        fns, ball = separated_family(rng, d, int(rng.integers(2, 6)))
        rep = check_invariants(normalize(fns, ball), 4000, seed=trial)
        assert rep["g_min"] >= 0.2 - 1e-9
        assert rep["g_max"] <= 0.8 + 1e-9
        assert rep["grad_max"] <= 0.25 + 1e-9
        assert rep["hess_max"] <= 1.0 / 16.0 + 1e-9
        assert rep["conc_eig_max"] <= 1e-8
        assert rep["conc_eig_min"] >= -5.0 / 16.0 - 1e-6
        assert rep["ghat_min"] >= 0.2 - 1e-9
        assert rep["ghat_max"] <= 1.0 + 1e-9


def _invariants_per_member(nf, n_samples, seed):
    """``check_invariants`` computed one member at a time, each through a
    family holding it alone."""
    rng = np.random.default_rng(seed)
    d = nf.ball.dim
    u = rng.standard_normal((n_samples, d))
    u /= np.linalg.norm(u, axis=1)[:, None]
    U = u * (rng.random(n_samples) ** (1.0 / d))[:, None]
    X = nf.world_points(U)[:, None]
    r, h = nf.ball.radius, nf.scale_h
    rep = {"grad_max": 0.0, "hess_max": 0.0, "conc_eig_max": -np.inf, "conc_eig_min": np.inf}
    for pos in range(nf.size):
        member = nf.family.take([pos])
        grads = member.gradients(X)[:, 0] * (r / h)
        eigs = np.linalg.eigvalsh(member.hessians(X)[:, 0] * (r**2 / h))
        rep["grad_max"] = max(rep["grad_max"], float(np.max(np.linalg.norm(grads, axis=1))))
        rep["hess_max"] = max(rep["hess_max"], float(np.max(np.abs(eigs))))
        rep["conc_eig_max"] = max(rep["conc_eig_max"], float(np.max(eigs[:, -1] - LAMBDA_PLUS)))
        rep["conc_eig_min"] = min(rep["conc_eig_min"], float(np.min(eigs[:, 0] - LAMBDA_PLUS)))
    return rep


def _separated(make, d, m, rng, ball):
    """m members ``make(site)`` in random directions, at separation ratios
    in 2*tau*[1, 1.1] from the ball, so that most of them are kept."""
    fns = []
    for _ in range(m):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        f = make(ball.center + ball.radius * u)
        dist = 2.0 * f.tau * rng.uniform(1.0, 1.1) * ball.diameter
        fns.append(make(ball.center + (ball.radius + dist) * u))
    return fns


@pytest.mark.parametrize("kind", ["mahalanobis", "l3", "kl"])
def test_check_invariants_matches_per_member_loop(rng, kind):
    """One gradient and one Hessian evaluation over every member agrees
    with evaluating each member alone."""
    d = 3
    ball = EuclideanBall(np.zeros(d), 1.0)
    if kind == "mahalanobis":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        M = q @ np.diag([1.0, 2.0, 4.0]) @ q.T
        fam = _separated(lambda p: make_mahalanobis(p, M), d, 6, rng, ball)
    elif kind == "l3":
        fam = _separated(lambda p: make_minkowski(p, 3.0), d, 6, rng, ball)
    else:
        spec = generalized_kl_spec(d, 0.5, 4.0)
        ball = EuclideanBall(np.full(d, 2.0), 0.01)
        fam = _separated(lambda p: make_bregman(spec, p), d, 6, rng, ball)
    nf = normalize(fam, ball)
    assert nf.size >= 3
    rep = check_invariants(nf, 2000, seed=5)
    loop = _invariants_per_member(nf, 2000, seed=5)
    for key, want in loop.items():
        assert rep[key] == pytest.approx(want, rel=1e-12, abs=0), key


def test_error_transfer_budget(rng):
    """An absolute gap on the offset family maps to at most five times the
    relative gap on the original values."""
    fns, ball = separated_family(rng, 2, 5)
    nf = normalize(fns, ball)
    U = rng.standard_normal((2000, 2))
    U /= np.maximum(1.0, np.linalg.norm(U, axis=1))[:, None]
    g_min = nf.values_matrix(U).min(axis=1)
    eps_abs = 0.02
    # Relative error when the returned offset value overshoots by eps_abs.
    rel = eps_abs / g_min
    assert np.all(rel <= 5.0 * eps_abs / 0.2 + 1e-12)
    assert np.all(g_min >= 0.2 - 1e-9)
