import numpy as np
import pytest

from eann.admissibility import (
    SampleSpec,
    check_bound_lemma,
    check_eigen_sandwich,
    check_three_point,
    measure_admissibility,
    measure_bregman_complexity,
)
from eann.distances import (
    GaugeParams,
    generalized_kl_spec,
    itakura_saito_spec,
    make_bregman,
    make_custom_gauge,
    make_mahalanobis,
    make_minkowski,
    squared_euclidean_spec,
)
from eann.geom import EuclideanBall

BOX2 = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


def test_sample_spec_deterministic():
    a = SampleSpec(BOX2, 100, seed=5).draw()
    b = SampleSpec(BOX2, 100, seed=5).draw()
    assert np.array_equal(a, b)
    c = SampleSpec(EuclideanBall(np.zeros(3), 2.0), 500, seed=1).draw()
    assert np.all(np.linalg.norm(c, axis=1) <= 2.0 + 1e-12)


def test_measure_l2_is_one():
    f = make_minkowski([0.0, 0.0], 2.0)
    rep = measure_admissibility(f, SampleSpec(BOX2, 2000, seed=1))
    assert rep.tau_grad == pytest.approx(1.0, abs=1e-10)
    assert rep.tau == pytest.approx(1.0, abs=0.01)
    assert rep.tau_certified == pytest.approx(1.1 * rep.tau)


def test_measure_squared_euclidean():
    f = make_bregman(squared_euclidean_spec(2), [0.0, 0.0])
    rep = measure_admissibility(f, SampleSpec(BOX2, 2000, seed=2))
    assert rep.tau_grad == pytest.approx(2.0, abs=1e-9)
    assert rep.tau_hess == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert rep.tau == pytest.approx(2.0, abs=0.01)
    assert rep.mu_dir == pytest.approx(2.0, abs=1e-9)


def test_measure_gauge_within_formula_bound():
    # Euclidean ball gauge: the closed-form constant sqrt(2) upper-bounds
    # the measured growth.
    f = make_minkowski([0.0, 0.0], 2.0)
    rep = measure_admissibility(f, SampleSpec(BOX2, 3000, seed=3))
    assert rep.tau <= np.sqrt(2.0) + 1e-9


def test_measure_power_distance_growth(rng):
    """f = ||x - p||^c has gradient ratio exactly c."""
    for c in (1.5, 2.0, 3.0):
        def gv(v, c=c):
            return np.linalg.norm(v, axis=1) ** c

        def gg(v, c=c):
            n = np.linalg.norm(v, axis=1)
            return c * n[:, None] ** (c - 2.0) * v

        def gh(v, c=c):
            n = np.linalg.norm(v, axis=1)
            eye = np.eye(v.shape[1])[None]
            outer = v[:, :, None] * v[:, None, :]
            return c * (n**(c - 2.0))[:, None, None] * eye + \
                c * (c - 2.0) * (n**(c - 4.0))[:, None, None] * outer

        f = make_custom_gauge([0.0, 0.0], gv, gg, gh, GaugeParams(1.0, 1.0), tau=4.0)
        rep = measure_admissibility(f, SampleSpec(BOX2, 1500, seed=7))
        assert rep.tau_grad == pytest.approx(c, abs=1e-9)


def test_degenerate_sample_errors():
    f = make_minkowski([0.0, 0.0], 2.0)
    tiny = (np.array([-1e-15, -1e-15]), np.array([1e-15, 1e-15]))
    with pytest.raises(ValueError, match="degenerate sample"):
        measure_admissibility(f, SampleSpec(tiny, 50, seed=1))


def test_bregman_complexity_squared_euclidean():
    rep = measure_bregman_complexity(squared_euclidean_spec(2),
                                     SampleSpec((np.zeros(2), np.ones(2)), 2000, seed=4))
    assert rep.mu_asym == pytest.approx(1.0, abs=1e-9)
    assert rep.mu_dir == pytest.approx(2.0, abs=1e-9)
    assert rep.mu_sim == pytest.approx(1.0, abs=1e-9)
    assert not rep.sim_rescaled
    # Directional growth equals one plus asymmetry on a shared pair set.
    assert rep.mu_dir == pytest.approx(1.0 + rep.mu_asym, abs=1e-6)


def test_bregman_complexity_itakura_saito_pair():
    spec = itakura_saito_spec(1, 0.01, 10.0)
    d_fwd = float(spec.divergence(np.array([2.0]), np.array([0.5]))[0])
    d_rev = float(spec.divergence(np.array([0.5]), np.array([2.0]))[0])
    assert d_fwd == pytest.approx(3.0 - np.log(4.0))
    assert d_rev == pytest.approx(np.log(4.0) - 0.75)
    assert d_fwd / d_rev == pytest.approx(2.536, abs=1e-3)
    rep = measure_bregman_complexity(spec, SampleSpec((np.array([0.5]), np.array([2.0])),
                                                      4000, seed=5))
    # The sampled asymmetry never exceeds the closed-form extreme pair.
    assert 1.0 <= rep.mu_asym <= d_fwd / d_rev + 1e-9


def test_bregman_dir_equals_one_plus_asym():
    for spec in (generalized_kl_spec(2, 0.1, 1.0), itakura_saito_spec(2, 0.1, 1.0)):
        rep = measure_bregman_complexity(spec, SampleSpec((np.full(2, 0.1), np.ones(2)),
                                                          4000, seed=6))
        assert rep.mu_dir == pytest.approx(1.0 + rep.mu_asym, rel=1e-6)


def test_bound_lemma_holds(rng):
    # Compliant configuration: l2 with formula tau, site far enough.
    f = make_minkowski([8.0, 0.0], 2.0)
    ball = EuclideanBall(np.zeros(2), 1.0)
    ok, report = check_bound_lemma(f, ball, 2.0, SampleSpec(None, 4000, seed=1))
    assert ok and all(report["checks"].values())
    # Exact extrema for the Euclidean gauge: f+ = 9, f- = 7.
    assert report["f_max"] <= 9.0 + 1e-12
    assert report["f_min"] >= 7.0 - 1e-12


def test_bound_lemma_separation_precondition():
    f = make_minkowski([1.5, 0.0], 2.0)
    ball = EuclideanBall(np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="insufficient separation"):
        check_bound_lemma(f, ball, 2.0, SampleSpec(None, 100, seed=1))
    with pytest.raises(ValueError, match="insufficient separation"):
        check_bound_lemma(make_minkowski([0.0, 0.0], 2.0), ball, 2.0,
                          SampleSpec(None, 100, seed=1))


def test_bound_lemma_random_configs(rng):
    for _ in range(20):
        d = int(rng.integers(2, 4))
        f0 = make_minkowski(np.zeros(d), float(rng.choice([2.0, 3.0])),
                            float(rng.uniform(1.0, 2.0)))
        kappa = float(rng.choice([2.0, 4.0]))
        c = rng.standard_normal(d)
        r = rng.uniform(0.2, 1.0)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        sep = f0.tau * kappa * rng.uniform(1.0, 2.0)
        site = c + (r + sep * 2.0 * r) * u
        f = f0.resite(site)
        ok, _ = check_bound_lemma(f, EuclideanBall(c, r), kappa,
                                  SampleSpec(None, 2000, seed=int(rng.integers(1e6))))
        assert ok


def test_three_point_identity(rng):
    specs = [squared_euclidean_spec(2), generalized_kl_spec(2, 0.05, 2.0),
             itakura_saito_spec(2, 0.05, 2.0)]
    for spec in specs:
        for _ in range(30):
            q, p1, p2 = rng.uniform(0.1, 1.9, size=(3, 2))
            resid = check_three_point(spec, q, p1, p2)
            scale = 1.0 + abs(float(spec.divergence(q, p1)[0]))
            assert resid <= 1e-9 * scale
    # Degenerate triple.
    spec = generalized_kl_spec(2, 0.05, 2.0)
    q = np.array([0.5, 0.5])
    assert check_three_point(spec, q, q, q) == 0.0
    # Frozen 1-d example.
    isd = itakura_saito_spec(1, 0.01, 10.0)
    assert check_three_point(isd, [2.0], [1.0], [0.5]) <= 1e-9


def test_eigen_sandwich(rng):
    # Quadratic generator: both sides are exact.
    assert check_eigen_sandwich(squared_euclidean_spec(2), [1.0, 0.0], [0.0, 0.0])
    # Hand-checked KL case: eigenvalues over [1,2] are in [0.5, 1] and
    # D = 2 ln 2 - 1 sits inside [0.25, 0.5].
    kl = generalized_kl_spec(1, 0.01, 10.0)
    assert check_eigen_sandwich(kl, [2.0], [1.0])
    assert check_eigen_sandwich(kl, [1.0], [1.0])  # coincident points
    for spec in (generalized_kl_spec(3, 0.1, 1.0), itakura_saito_spec(3, 0.1, 1.0)):
        for _ in range(40):
            q = rng.uniform(0.1, 1.0, size=3)
            p = rng.uniform(0.1, 1.0, size=3)
            assert check_eigen_sandwich(spec, q, p)


def test_mu_dir_bounded_by_tau(rng):
    """Cauchy-Schwarz: the directional ratio never exceeds the growth ratio."""
    fns = [
        make_minkowski([0.0, 0.0], 2.0, 1.5),
        make_mahalanobis([0.0, 0.0], np.diag([4.0, 1.0])),
        make_bregman(generalized_kl_spec(2, 0.1, 1.0), [0.5, 0.5]),
    ]
    region = BOX2 if True else None
    for f in fns:
        if f.kernel.kind == "bregman":
            region = (np.full(2, 0.1), np.ones(2))
        else:
            region = BOX2
        rep = measure_admissibility(f, SampleSpec(region, 2000, seed=9))
        assert rep.mu_dir <= rep.tau * (1.0 + 1e-9)


def test_similarity_implies_tau_bound():
    """A divergence with finite similarity ratio has growth at most twice it."""
    spec = squared_euclidean_spec(2)
    region = (np.zeros(2), np.ones(2))
    breg = measure_bregman_complexity(spec, SampleSpec(region, 2000, seed=10))
    f = make_bregman(spec, [0.5, 0.5])
    rep = measure_admissibility(f, SampleSpec(region, 2000, seed=11))
    assert np.isfinite(breg.mu_sim)
    assert rep.tau <= 2.0 * breg.mu_sim * (1.0 + 1e-6)
