import warnings

import numpy as np
import pytest

from eann.config import build_site_functions, parse_distance_config, parse_points
from eann.distances import (
    _DIRECTION_SEED,
    DomainError,
    GaugeParams,
    _gauge_sigma_from_curvature,
    generalized_kl_spec,
    itakura_saito_spec,
    make_bregman,
    make_custom_gauge,
    make_mahalanobis,
    make_minkowski,
    minkowski_gauge_params,
    squared_euclidean_spec,
    tau_for_gauge,
    unit_directions,
)

from conftest import ellipse_gauge
from numdiff import fd_gradient, fd_hessian


def test_minkowski_values():
    f = make_minkowski([0.0, 0.0], 2.0, 1.0)
    assert f.value([3.0, 4.0]) == pytest.approx(5.0)
    f2 = make_minkowski([0.0, 0.0], 2.0, 2.0)
    assert f2.value([3.0, 4.0]) == pytest.approx(10.0)
    f3 = make_minkowski([0.0, 0.0], 3.0)
    assert f3.value([1.0, 1.0]) == pytest.approx(2.0 ** (1.0 / 3.0))


def test_minkowski_rejects_nonsmooth():
    with pytest.raises(ValueError, match="not smooth"):
        make_minkowski([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="not smooth"):
        make_minkowski([0.0, 0.0], 0.5)


def test_mahalanobis_values():
    f = make_mahalanobis([0.0, 0.0], np.eye(2))
    g = make_minkowski([0.0, 0.0], 2.0)
    for x in ([1.0, 2.0], [-0.3, 0.7], [5.0, 5.0]):
        assert f.value(x) == pytest.approx(g.value(x))
    fd = make_mahalanobis([0.0, 0.0], np.diag([4.0, 1.0]))
    assert fd.value([1.0, 1.0]) == pytest.approx(np.sqrt(5.0))
    # Ellipse semi-axes 1/2 and 1 give gamma = sigma = 1/2.
    assert fd.tau == tau_for_gauge(GaugeParams(0.5, 0.5))


def test_mahalanobis_rejects_bad_matrix():
    with pytest.raises(ValueError):
        make_mahalanobis([0.0, 0.0], np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        make_mahalanobis([0.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_bregman_values():
    sq = make_bregman(squared_euclidean_spec(2), [1.0, 2.0])
    assert sq.value([1.0, 2.0]) == 0.0
    assert sq.value([2.0, 2.0]) == pytest.approx(1.0)
    kl = make_bregman(generalized_kl_spec(1, 0.01, 10.0), [1.0])
    assert kl.value([2.0]) == pytest.approx(2.0 * np.log(2.0) - 1.0)
    isd = make_bregman(itakura_saito_spec(1, 0.01, 10.0), [1.0])
    assert isd.value([2.0]) == pytest.approx(2.0 - np.log(2.0) - 1.0)
    kl2 = make_bregman(generalized_kl_spec(2, 0.01, 10.0), [1.0, 1.0])
    assert kl2.value([1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)


def test_bregman_site_domain_check():
    spec = generalized_kl_spec(2, 0.1, 1.0)
    with pytest.raises(ValueError, match="site outside Bregman domain"):
        make_bregman(spec, [0.05, 0.5])


def test_bregman_site_with_overflowing_generator():
    """F(site) = |site|^2 overflows at 1e300. The site is refused for that,
    quietly, and not later as a degenerate tau sample."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite at the site"):
            make_bregman(squared_euclidean_spec(2), [1e300, 0.5])
        cfg = parse_distance_config("kind = bregman\ngenerator = squared-euclidean\n")
        with pytest.raises(ValueError, match="not finite at the site"):
            build_site_functions(cfg, parse_points("0.2 0.3\n1e300 0.5\n"))


def test_bregman_query_domain_error():
    f = make_bregman(generalized_kl_spec(2, 0.1, 1.0), [0.5, 0.5])
    with pytest.raises(DomainError, match="query outside domain"):
        f.value([2.0, 0.5])


def test_gradient_examples():
    f = make_minkowski([0.0, 0.0], 2.0)
    assert np.allclose(f.gradient([3.0, 4.0]), [0.6, 0.8])
    sq = make_bregman(squared_euclidean_spec(2), [0.0, 0.0])
    assert np.allclose(sq.gradient([1.0, 0.0]), [2.0, 0.0])
    isd = make_bregman(itakura_saito_spec(1, 0.01, 10.0), [1.0])
    assert isd.gradient([2.0])[0] == pytest.approx(0.5)


def test_gradient_undefined_at_site():
    f = make_minkowski([1.0, 1.0], 2.0)
    with pytest.raises(ValueError, match="gradient undefined at site"):
        f.gradient([1.0, 1.0])


def test_hessian_examples():
    sq = make_bregman(squared_euclidean_spec(2), [0.5, 0.5])
    assert np.allclose(sq.hessian([1.0, 3.0]), 2.0 * np.eye(2))
    f = make_minkowski([0.0, 0.0], 2.0)
    assert np.allclose(f.hessian([1.0, 0.0]), np.diag([0.0, 1.0]), atol=1e-12)
    kl = make_bregman(generalized_kl_spec(1, 0.01, 10.0), [1.0])
    assert kl.hessian([2.0])[0, 0] == pytest.approx(0.5)


@pytest.mark.parametrize("maker", [
    lambda: make_minkowski([0.2, -0.4], 2.0, 1.3),
    lambda: make_minkowski([1.0, 0.5], 3.0),
    lambda: make_minkowski([0.0, 0.0, 0.5], 2.5, 0.7),
    lambda: make_mahalanobis([0.5, -0.5], [[4.0, 1.0], [1.0, 2.0]]),
    lambda: make_bregman(squared_euclidean_spec(3), [0.1, 0.2, 0.3]),
    lambda: make_bregman(generalized_kl_spec(2, 0.05, 10.0), [0.5, 0.7]),
    lambda: make_bregman(itakura_saito_spec(2, 0.05, 10.0), [0.5, 0.7]),
    lambda: make_minkowski([0.3, -0.2], 1.5, 1.2),
    lambda: ellipse_gauge([0.4, 0.1]),
])
def test_analytic_derivatives_match_finite_differences(maker, rng):
    f = maker()
    d = f.dim
    for _ in range(6):
        x = f.site + rng.uniform(0.2, 0.8, size=d) * rng.choice([-1.0, 1.0], size=d)
        if not f.in_domain(x):
            x = np.abs(x)
        g = f.gradient(x)
        g_fd = fd_gradient(f.value, x)
        assert np.allclose(g, g_fd, rtol=1e-4, atol=1e-7)
        h = f.hessian(x)
        h_fd = fd_hessian(f.value, x)
        assert np.allclose(h, h_fd, rtol=1e-3, atol=1e-5)


def test_homogeneity(rng):
    fns = [
        make_minkowski([0.3, 0.7], 2.0, 1.4),
        make_minkowski([0.0, 0.0], 1.5),
        make_minkowski([1.0, -1.0], 3.0),
        make_mahalanobis([0.2, 0.1], np.diag([3.0, 1.0])),
    ]
    for f in fns:
        for _ in range(20):
            v = rng.standard_normal(2)
            base = f.value(f.site + v)
            for t in (0.5, 2.0, 10.0):
                scaled = f.value(f.site + t * v)
                assert scaled == pytest.approx(t * base, rel=1e-10)


def test_radial_gradient_identity(rng):
    """Along the ray from the site, the gauge grows at rate f(x)/||x - p||."""
    fns = [
        make_minkowski([0.0, 0.0], 2.0, 2.0),
        make_minkowski([0.5, 0.5], 2.5),
        make_mahalanobis([0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]]),
    ]
    for f in fns:
        for _ in range(30):
            v = rng.standard_normal(2)
            x = f.site + v
            r = v / np.linalg.norm(v)
            lhs = float(np.dot(f.gradient(x), r))
            rhs = f.value(x) / np.linalg.norm(v)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def test_bregman_nonnegativity(rng):
    for spec in (generalized_kl_spec(2, 0.1, 1.0), itakura_saito_spec(2, 0.1, 1.0),
                 squared_euclidean_spec(2)):
        for _ in range(40):
            p = rng.uniform(0.1, 1.0, size=2)
            q = rng.uniform(0.1, 1.0, size=2)
            f = make_bregman(spec, p, tau=3.0)
            val = f.value(q)
            assert val >= 0.0
            if np.all(q == p):
                assert val == 0.0
            else:
                assert val > 0.0


def test_tau_for_gauge_formula():
    assert tau_for_gauge(GaugeParams(1.0, 1.0)) == pytest.approx(np.sqrt(2.0))
    assert tau_for_gauge(GaugeParams(0.5, 1.0)) == pytest.approx(4.0)
    assert tau_for_gauge(GaugeParams(0.5, 0.5)) == pytest.approx(np.sqrt(32.0))
    # Clamped below at 1 for parameter combinations that would fall under it.
    assert tau_for_gauge(GaugeParams(1.0, 1.0)) >= 1.0


def test_minkowski_gauge_geometry():
    gamma, sigma = minkowski_gauge_params(2.0, 2)
    assert gamma == pytest.approx(1.0)
    assert sigma == pytest.approx(1.0, abs=1e-9)
    gamma3, _ = minkowski_gauge_params(3.0, 2)
    assert gamma3 == pytest.approx(2.0 ** (-1.0 / 6.0))
    # Weight leaves the ball geometry and the growth constant unchanged.
    f1 = make_minkowski([0.0, 0.0], 3.0, 1.0)
    f2 = make_minkowski([0.0, 0.0], 3.0, 1.7)
    assert f1.tau == pytest.approx(f2.tau)


def gauge_params_from_samples(fn, count: int = 1024) -> GaugeParams:
    """Estimate (gamma, sigma) of a gauge by boundary sampling."""
    dirs = unit_directions(fn.dim, count, _DIRECTION_SEED)
    vals = fn._values(fn.site[None, :] + dirs)
    radii = 1.0 / vals
    gamma = float(np.min(radii) / np.max(radii))
    sigma = _gauge_sigma_from_curvature(fn.resite(np.zeros(fn.dim)), dirs)
    return GaugeParams(min(1.0, gamma), max(min(1.0, sigma), 1e-12))


def test_custom_gauge_geometry_estimate():

    def gv(v):
        return np.linalg.norm(v, axis=1)

    def gg(v):
        return v / np.linalg.norm(v, axis=1)[:, None]

    def gh(v):
        n = np.linalg.norm(v, axis=1)
        eye = np.eye(v.shape[1])[None]
        outer = v[:, :, None] * v[:, None, :]
        return eye / n[:, None, None] - outer / (n**3)[:, None, None]

    f = make_custom_gauge([0.0, 0.0], gv, gg, gh, GaugeParams(1.0, 1.0))
    assert f.value([3.0, 4.0]) == pytest.approx(5.0)
    params = gauge_params_from_samples(f)
    assert params.gamma == pytest.approx(1.0, abs=1e-9)
    assert params.sigma == pytest.approx(1.0, abs=1e-6)


def test_resite_preserves_shape():
    f = make_mahalanobis([0.0, 0.0], np.diag([4.0, 1.0]))
    g = f.resite([5.0, 5.0])
    assert np.allclose(g.site, [5.0, 5.0])
    assert g.value([6.0, 6.0]) == pytest.approx(f.value([1.0, 1.0]))
    assert g.tau == f.tau


# -- configuration text ------------------------------------------------------


def test_parse_points_errors():
    with pytest.raises(ValueError, match="no sites"):
        parse_points("# only a comment\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_points("1 2\n3 4\n5\n")
    pts = parse_points("# header\n1 2\n\n3 4\n")
    assert pts.shape == (2, 2)


def test_parse_distance_config():
    cfg = parse_distance_config("kind = minkowski\nk = 3\nweight = 1.5\n")
    (_, kern), = build_site_functions(cfg, np.array([[0.0, 0.0]])).groups
    assert kern.k == 3.0 and kern.W.tolist() == [1.5]

    cfg = parse_distance_config("kind = mahalanobis\nmatrix = 4 0 0 1\n")
    fam = build_site_functions(cfg, np.array([[0.0, 0.0]]))
    assert fam.values([1.0, 1.0])[0, 0] == pytest.approx(np.sqrt(5.0))

    cfg = parse_distance_config(
        "kind = bregman\ngenerator = generalized-kl\n"
        "domain_low = 0.1 0.1\ndomain_high = 1 1\n")
    (_, kern), = build_site_functions(cfg, np.array([[0.5, 0.5]])).groups
    assert kern.kind == "bregman"

    with pytest.raises(ValueError, match="unknown kind"):
        parse_distance_config("kind = nosuch\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_distance_config("kind minkowski\n")


@pytest.mark.parametrize("text, message", [
    ("kind = minkowski\nwieght = 2\n", r"line 2: key 'wieght' is unknown"),
    ("kind = bregman\n# k is Minkowski's\nk = 3\n",
     "line 3: key 'k' does not apply to kind bregman"),
    ("kind = minkowski\nk = 2\nk = 3\n", r"line 3: repeated key 'k' \(first on line 2\)"),
    ("kind = minkowski\nweights = 1 2\n\nweight = 2\n",
     "line 4: keys 'weight' and 'weights' exclude each other"),
])
def test_config_rejects_misspelled_foreign_and_repeated_keys(text, message):
    """Each of these used to build: weight 1.0, k ignored, the last k, and
    the per-site weights."""
    with pytest.raises(ValueError, match=message):
        parse_distance_config(text)


@pytest.mark.parametrize("text, message", [
    ("generator = generalized-kl\ndomain_low = 0.1\n", "domain_low"),
    ("generator = itakura-saito\ndomain_high = 1 1 1\n", "domain_high"),
    ("generator = squared-mahalanobis\nmatrix = 2 0 1\n", "matrix needs 4 entries, got 3"),
])
def test_bregman_config_parameters_of_the_wrong_length(text, message):
    cfg = parse_distance_config("kind = bregman\n" + text)
    with pytest.raises(ValueError, match=message):
        build_site_functions(cfg, np.full((3, 2), 0.5))


def test_domain_bounds_need_one_value_per_axis():
    with pytest.raises(ValueError, match="domain_low"):
        generalized_kl_spec(2, [0.1], 1.0)
    with pytest.raises(ValueError, match="domain_high"):
        itakura_saito_spec(2, 0.1, [1.0, 1.0, 1.0])
    assert np.array_equal(generalized_kl_spec(2, 0.2, [1.0, 2.0]).domain_low, [0.2, 0.2])


def test_per_site_weights_config():
    cfg = parse_distance_config("kind = minkowski\nk = 2\nweights = 1.0 2.0\n")
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    (_, kern), = build_site_functions(cfg, pts).groups
    assert kern.W.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError, match="weights"):
        build_site_functions(cfg, np.zeros((3, 2)))
