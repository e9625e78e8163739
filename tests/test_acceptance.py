"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import numpy as np
import pytest

from eann._batch import batch_values
from eann.admissibility import (
    SampleSpec,
    check_bound_lemma,
    check_eigen_sandwich,
    check_three_point,
    measure_admissibility,
    measure_bregman_complexity,
)
from eann.ann import build_index
from eann.cli import gen_family, gen_queries, gen_sites, leaf_scaling_fit, storage_exponent_fit
from eann.convexify import check_invariants, convexify, normalize
from eann.distances import (
    GaugeParams,
    generalized_kl_spec,
    itakura_saito_spec,
    make_bregman,
    make_minkowski,
    squared_euclidean_spec,
    tau_for_gauge,
)
from eann.envelope import ConcaveEnvelope
from eann.geom import EuclideanBall

from conftest import separated_family


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


def _run_ann_sweep(tags, seed0):
    import zlib

    worst_overall = 0.0
    failures = 0
    configs = 0
    for tag in tags:
        for d in (2, 3):
            for n in (100, 1000):
                for eps in (0.1, 0.25):
                    seed = zlib.crc32(f"{tag}|{d}|{n}|{eps}|{seed0}".encode())
                    rng = np.random.default_rng(seed)
                    pts = gen_sites(rng, n, d, tag)
                    fns = gen_family(tag, pts, rng)
                    index = build_index(fns, eps)
                    queries = gen_queries(rng, 1000, d, tag)
                    vals = batch_values(fns, queries)
                    best = vals.min(axis=1)
                    for qi, q in enumerate(queries):
                        _, v = index.query(q)
                        bound = (1.0 + eps) * best[qi] * (1.0 + 1e-10) + 1e-300
                        if v > bound:
                            failures += 1
                        if best[qi] > 0:
                            worst_overall = max(worst_overall, v / best[qi])
                    configs += 1
    return configs, failures, worst_overall


@pytest.mark.slow
def test_criterion_01_scaling_ann_correctness():
    configs, failures, worst = _run_ann_sweep(
        ["l1.5", "l3", "wl2", "mahalanobis"], seed0=101)
    report("criterion-01 scaling ANN (1+eps) vs oracle", failures == 0,
           f"{configs} configs x 1000 queries, failures={failures}, worst ratio={worst:.6f}")


@pytest.mark.slow
def test_criterion_02_bregman_ann_correctness():
    configs, failures, worst = _run_ann_sweep(["kl", "is"], seed0=202)
    report("criterion-02 Bregman ANN (1+eps) vs oracle", failures == 0,
           f"{configs} configs x 1000 queries, failures={failures}, worst ratio={worst:.6f}")


def test_criterion_03_convexification_invariants():
    rng = np.random.default_rng(303)
    worst = {"g_min": np.inf, "g_max": -np.inf, "grad": 0.0, "hess": 0.0, "eig": -np.inf}
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 3
        fns, ball = separated_family(rng, d, int(rng.integers(2, 8)))
        rep = check_invariants(normalize(fns, ball), 10000, seed=trial)
        worst["g_min"] = min(worst["g_min"], rep["g_min"])
        worst["g_max"] = max(worst["g_max"], rep["g_max"])
        worst["grad"] = max(worst["grad"], rep["grad_max"])
        worst["hess"] = max(worst["hess"], rep["hess_max"])
        worst["eig"] = max(worst["eig"], rep["conc_eig_max"])
    ok = (worst["g_min"] >= 0.2 - 1e-9 and worst["g_max"] <= 0.8 + 1e-9
          and worst["grad"] <= 0.25 + 1e-9 and worst["hess"] <= 1.0 / 16.0 + 1e-9
          and worst["eig"] <= 1e-8)
    report("criterion-03 normalization/concavity invariants", ok,
           f"g in [{worst['g_min']:.4f}, {worst['g_max']:.4f}], "
           f"|grad|<={worst['grad']:.4f}, |hess|<={worst['hess']:.4f}, "
           f"max eig {worst['eig']:.2e} over 50 families x 1e4 samples")


def test_criterion_04_envelope_absolute_error():
    rng = np.random.default_rng(404)
    worst_gap = 0.0
    violations = 0
    probes_total = 0
    for trial in range(20):
        d = 2 if trial < 14 else 3
        fns, ball = separated_family(rng, d, int(rng.integers(3, 8)))
        nf = normalize(fns, ball)
        eps_abs = float(rng.uniform(0.05, 0.2)) if d == 2 else float(rng.uniform(0.1, 0.25))
        env = ConcaveEnvelope(nf, eps_abs)
        step = env.spacing / 3.0
        axes = [np.arange(-1.0, 1.0 + step, step)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        grid = grid[np.linalg.norm(grid, axis=1) <= 1.0]
        truth = convexify(nf.values_matrix(grid), grid).min(axis=1)
        for i, q in enumerate(grid):
            val, _ = env.query_absolute(q)
            gap = val - truth[i]
            if gap < -1e-12 or gap > eps_abs + 1e-12:
                violations += 1
            worst_gap = max(worst_gap, gap / eps_abs)
        probes_total += len(grid)
    report("criterion-04 envelope absolute error", violations == 0,
           f"{probes_total} dense probes over 20 families, violations={violations}, "
           f"worst gap={worst_gap:.3f} of budget")


def test_criterion_05_separated_ball_bounds():
    rng = np.random.default_rng(505)
    bad = 0
    for trial in range(100):
        d = int(rng.integers(2, 4))
        fns, _ = separated_family(rng, d, 1)
        f0 = fns[0]
        kappa = float(rng.choice([2.0, 4.0]))
        c = rng.standard_normal(d)
        r = float(rng.uniform(0.2, 1.0))
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        sep = f0.tau * kappa * rng.uniform(1.0, 2.0)
        f = f0.resite(c + (r + sep * 2.0 * r) * u)
        ok, _ = check_bound_lemma(f, EuclideanBall(c, r), kappa,
                                  SampleSpec(None, 3000, seed=trial))
        bad += 0 if ok else 1
    report("criterion-05 separated-ball value/gradient/Hessian bounds",
           bad == 0, f"100 configs (kappa in {{2,4}}), violations={bad}")


def test_criterion_06_perturbation_bound():
    rng = np.random.default_rng(606)
    bad = 0
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 4))
        f0 = make_minkowski(np.zeros(d), float(rng.choice([2.0, 2.5, 3.0])),
                            float(rng.uniform(1.0, 2.0)))
        eps = float(rng.choice([0.1, 0.25]))
        beta = 10.0 * f0.tau / eps
        c = rng.standard_normal(d)
        r_w = float(rng.uniform(0.01, 0.2))
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        p = c + r_w * rng.uniform(0.0, 1.0) * u
        f = f0.resite(p)
        f_prime = f0.resite(c)
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        x = c + (r_w + beta * 2.0 * r_w * rng.uniform(1.0, 2.0)) * v
        rel = abs(f_prime.value(x) - f.value(x)) / f.value(x)
        worst = max(worst, rel / (2.0 * f0.tau / beta))
        if rel > 2.0 * f0.tau / beta + 1e-9:
            bad += 1
    report("criterion-06 re-siting perturbation bound", bad == 0,
           f"100 configs, violations={bad}, worst={worst:.3f} of 2*tau/beta")


def test_criterion_07_bregman_collapse():
    rng = np.random.default_rng(707)
    bad = 0
    worst = 0.0
    trials = 0
    for spec_maker in (lambda d: generalized_kl_spec(d, 0.1, 1.0),
                       lambda d: itakura_saito_spec(d, 0.1, 1.0)):
        for _ in range(50):
            d = int(rng.integers(2, 4))
            spec = spec_maker(d)
            probe = make_bregman(spec, np.full(d, 0.5))
            tau = probe.tau
            eps = float(rng.choice([0.1, 0.25]))
            beta = 4.0 * tau**2 / eps
            c = rng.uniform(0.15, 0.35, size=d)
            q = rng.uniform(0.8, 0.95, size=d)
            r_w = min(float(np.linalg.norm(q - c)) / (2.0 * beta * 1.01), 0.05)
            offs = rng.uniform(-1.0, 1.0, size=(2, d))
            offs /= np.maximum(1.0, np.linalg.norm(offs, axis=1))[:, None]
            p, p_prime = c[None, :] + offs * r_w / np.sqrt(d)
            d_p = float(spec.divergence(q, p)[0])
            d_pp = float(spec.divergence(q, p_prime)[0])
            rel = abs(d_p - d_pp) / d_p
            worst = max(worst, rel / eps)
            if rel > eps + 1e-9:
                bad += 1
            trials += 1
    report("criterion-07 Bregman cluster collapse", bad == 0,
           f"{trials} configs, violations={bad}, worst={worst:.3f} of eps")


def test_criterion_08_directional_identities():
    rng = np.random.default_rng(808)
    specs = [squared_euclidean_spec(2), generalized_kl_spec(2, 0.1, 1.0),
             itakura_saito_spec(3, 0.1, 1.0)]
    worst_resid = 0.0
    for spec in specs:
        d = spec.dim
        low = np.where(np.isfinite(spec.domain_low), spec.domain_low, -1.0)
        high = np.where(np.isfinite(spec.domain_high), spec.domain_high, 1.0)
        q = rng.uniform(low, high, size=(1000, d))
        p = rng.uniform(low, high, size=(1000, d))
        gq = spec.gradients(q)
        gp = spec.gradients(p)
        d_qp = spec.values(q) - spec.values(p) - np.einsum("ad,ad->a", gp, q - p)
        d_pq = spec.values(p) - spec.values(q) - np.einsum("ad,ad->a", gq, p - q)
        lhs = np.einsum("ad,ad->a", gq - gp, q - p)
        rhs = d_qp + d_pq
        resid = np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))
        worst_resid = max(worst_resid, float(resid))
    ok = worst_resid <= 1e-9

    region = ((np.full(2, 0.1), np.ones(2)))
    fns = [make_minkowski([0.0, 0.0], 2.0, 1.5),
           make_bregman(generalized_kl_spec(2, 0.1, 1.0), [0.5, 0.5]),
           make_bregman(squared_euclidean_spec(2), [0.5, 0.5])]
    for f in fns:
        rep = measure_admissibility(f, SampleSpec(region, 2000, seed=8))
        ok = ok and rep.mu_dir <= rep.tau * (1.0 + 1e-9)

    sq = measure_bregman_complexity(squared_euclidean_spec(2),
                                    SampleSpec(region, 3000, seed=9))
    ok = ok and abs(sq.mu_asym - 1.0) <= 1e-9 and abs(sq.mu_dir - 2.0) <= 1e-9
    report("criterion-08 directional/asymmetry identities", ok,
           f"identity residual={worst_resid:.2e}, sq-Euclid mu_asym={sq.mu_asym:.12f}, "
           f"mu_dir={sq.mu_dir:.12f}")


def test_criterion_09_divergence_validators():
    rng = np.random.default_rng(909)
    builders = {
        "squared-euclidean": squared_euclidean_spec(2),
        "generalized-kl": generalized_kl_spec(2, 0.1, 1.0),
        "itakura-saito": itakura_saito_spec(2, 0.1, 1.0),
        "squared-euclidean-3d": squared_euclidean_spec(3),
    }
    worst_resid = 0.0
    sandwich_bad = 0
    for name, spec in builders.items():
        d = spec.dim
        low = np.where(np.isfinite(spec.domain_low), spec.domain_low, -1.0)
        high = np.where(np.isfinite(spec.domain_high), spec.domain_high, 1.0)
        for _ in range(1000):
            q, p1, p2 = rng.uniform(low, high, size=(3, d))
            resid = check_three_point(spec, q, p1, p2)
            scale = 1.0 + abs(float(spec.divergence(q, p1)[0]))
            worst_resid = max(worst_resid, resid / scale)
        for _ in range(1000):
            q, p = rng.uniform(low, high, size=(2, d))
            if not check_eigen_sandwich(spec, q, p):
                sandwich_bad += 1
    ok = worst_resid <= 1e-9 and sandwich_bad == 0
    report("criterion-09 chain identity + eigenvalue sandwich", ok,
           f"worst three-point residual={worst_resid:.2e}, "
           f"sandwich violations={sandwich_bad} of 4000")


@pytest.fixture(scope="module")
def leaf_fit():
    """The l2 leaf-scaling sweep that criteria 10 and 11 both read, run once:
    it materializes whole trees up to n=1600."""
    return leaf_scaling_fit(d=2, n_values=(100, 400, 1600))


@pytest.mark.slow
def test_criterion_10_storage_proxy(leaf_fit):
    fits = [storage_exponent_fit(d) for d in (2, 3)]
    ok = all(f["exponent"] <= f["d"] / 2.0 + 0.5 for f in fits)
    per_n = [row["leaves_per_n"] for row in leaf_fit["rows"]]
    spread = max(per_n) / min(per_n)
    ok = ok and spread <= 2.0
    detail = ", ".join(f"d={f['d']}: exp={f['exponent']:.2f} (cap {f['d'] / 2 + 0.5})"
                       for f in fits)
    report("criterion-10 storage scaling proxy", ok,
           f"{detail}; leaf density spread x{spread:.2f} over n in (100,400,1600)")


@pytest.mark.slow
def test_criterion_11_query_time_proxy(leaf_fit):
    visits = [row["locate_visits_mean"] for row in leaf_fit["rows"]]
    growth = [visits[i + 1] - visits[i] for i in range(len(visits) - 1)]
    ok = all(g <= 4.0 for g in growth)
    # The asymptotic query-time bound itself is not certified here; this is
    # an empirical growth check only.
    report("criterion-11 locate-cost growth proxy", ok,
           f"mean visits {['%.1f' % v for v in visits]} for n=(100,400,1600), "
           f"growth per 4x n: {['%.2f' % g for g in growth]}")


def test_criterion_12_growth_constants():
    t1 = tau_for_gauge(GaugeParams(1.0, 1.0))
    t2 = tau_for_gauge(GaugeParams(0.5, 1.0))
    box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    l2 = measure_admissibility(make_minkowski([0.0, 0.0], 2.0),
                               SampleSpec(box, 4000, seed=12))
    sq = measure_admissibility(make_bregman(squared_euclidean_spec(2), [0.0, 0.0]),
                               SampleSpec(box, 4000, seed=13))
    ok = (abs(t1 - np.sqrt(2.0)) <= 1e-12 and abs(t2 - 4.0) <= 1e-12
          and abs(l2.tau - 1.0) <= 0.01 and abs(sq.tau - 2.0) <= 0.01)
    report("criterion-12 growth-constant formulas", ok,
           f"tau(1,1)={t1:.6f}, tau(0.5,1)={t2:.6f}, "
           f"measured l2 tau={l2.tau:.4f}, squared-Euclidean tau={sq.tau:.4f}")
