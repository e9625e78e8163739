import dataclasses
import gc
import struct
import weakref
import zlib

import numpy as np
import pytest

from eann.ann import (
    InnerPatchSet,
    brute_force,
    build_index,
    load_index,
    ray_to_hypercube_boundary,
    save_index,
)
from eann.cli import gen_family, gen_queries, gen_sites
from eann.config import build_site_functions, parse_distance_config
from eann.distances import (
    DomainError,
    GaugeParams,
    generalized_kl_spec,
    itakura_saito_spec,
    make_bregman,
    make_custom_gauge,
    make_mahalanobis,
    make_minkowski,
)


def oracle_check(index, fns, queries, eps):
    worst = 0.0
    for q in queries:
        w, v = index.query(q)
        bw, bv = brute_force(fns, q)
        assert v == pytest.approx(fns[w].value(q), rel=1e-12)
        assert v <= (1.0 + eps) * bv * (1.0 + 1e-10) + 1e-300
        worst = max(worst, v / bv if bv > 0 else 1.0)
    return worst


def test_brute_force_examples():
    f0 = make_minkowski([0.0, 0.0], 2.0)
    f1 = make_minkowski([10.0, 0.0], 2.0)
    idx, val = brute_force([f0, f1], np.array([1.0, 0.0]))
    assert idx == 0 and val == pytest.approx(1.0)
    # Equidistant: lowest index wins.
    idx, _ = brute_force([f0, f1], np.array([5.0, 0.0]))
    assert idx == 0
    kl = generalized_kl_spec(1, 0.01, 10.0)
    fns = [make_bregman(kl, [0.5]), make_bregman(kl, [2.0])]
    idx, val = brute_force(fns, np.array([1.0]))
    assert idx == 0
    assert val == pytest.approx(np.log(2.0) - 0.5)


def test_ray_exit_examples():
    assert np.allclose(ray_to_hypercube_boundary([0.0, 0.0], [0.5, 0.25]), [1.0, 0.5])
    assert np.allclose(ray_to_hypercube_boundary([0.0, 0.0], [-3.0, 0.0]), [-1.0, 0.0])
    with pytest.raises(ValueError):
        ray_to_hypercube_boundary([1.0, 1.0], [1.0, 1.0])


def test_beta_formulas():
    fns = [make_minkowski([0.1, 0.2], 2.0, tau=1.0),
           make_minkowski([0.9, 0.8], 2.0, tau=1.0)]
    idx = build_index(fns, 0.1)
    assert idx.alpha == pytest.approx(2.0)
    assert idx.beta == pytest.approx(100.0)

    spec = generalized_kl_spec(2, 0.1, 1.0)
    bfns = [make_bregman(spec, [0.3, 0.3], tau=2.0),
            make_bregman(spec, [0.7, 0.7], tau=2.0)]
    bidx = build_index(bfns, 0.1)
    assert bidx.alpha == pytest.approx(4.0)
    assert bidx.beta == pytest.approx(160.0)


@pytest.mark.parametrize("tag,tau,eps", [
    ("l3", 1e308, 0.5),   # alpha = 2 tau overflows
    ("l3", 1e307, 0.01),  # beta = 10 tau / eps overflows, alpha does not
    ("kl", 1e155, 0.5),   # tau**2 overflows
    ("kl", 1e154, 0.5),   # tau**2 does not, 4 tau**2 / eps does
])
def test_tau_whose_separation_factor_overflows_is_a_value_error(tag, tau, eps):
    """A declared tau so large that beta (and with it, possibly, alpha)
    overflows fails with a ValueError naming tau. A thousand times less
    fails too, as its leaves would need cells below the float spacing,
    except for a lone site, whose index has factors that follow the
    formulas bit for bit."""
    pts = np.array([[0.1, 0.2], [0.9, 0.8], [0.4, 0.6]])
    spec = generalized_kl_spec(2, 0.1, 1.0)

    def family(t, pts=pts):
        if tag == "l3":
            return [make_minkowski(p, 3.0, tau=t) for p in pts]
        return [make_bregman(spec, 0.15 + 0.8 * p, tau=t) for p in pts]

    with pytest.raises(ValueError, match="tau"):
        build_index(family(tau), eps)
    tau /= 1e3
    with pytest.raises(ValueError, match="tau .* float spacing"):
        build_index(family(tau), eps)
    index = build_index(family(tau, pts[:1]), eps)
    assert index.alpha == 2.0 * tau
    assert index.beta == (10.0 * tau / eps if tag == "l3" else 4.0 * tau**2 / eps)


def test_single_site_index(rng):
    f = [make_minkowski([0.5, 0.5], 2.0)]
    idx = build_index(f, 0.25)
    for _ in range(50):
        q = rng.uniform(-1.0, 2.0, size=2)
        w, v = idx.query(q)
        assert w == 0
        assert v == pytest.approx(f[0].value(q))
    w, v = idx.query(np.array([0.5, 0.5]))
    assert w == 0 and v == 0.0


def test_query_at_site_location(rng):
    pts = gen_sites(rng, 30, 2, "l2")
    fns = gen_family("l2", pts, rng)
    idx = build_index(fns, 0.25)
    for i in (0, 7, 29):
        w, v = idx.query(pts[i])
        assert v == 0.0
        assert np.allclose(fns[w].site, pts[i])


def test_mixed_kinds_rejected():
    f1 = make_minkowski([0.0, 0.0], 2.0)
    f2 = make_bregman(generalized_kl_spec(2, 0.01, 10.0), [0.5, 0.5])
    with pytest.raises(ValueError, match="mixed kinds"):
        build_index([f1, f2], 0.1)
    with pytest.raises(ValueError, match="eps out of range"):
        build_index([f1], 0.0)
    with pytest.raises(ValueError, match="no sites"):
        build_index([], 0.1)


def test_duplicate_sites(rng):
    pts = np.array([[0.25, 0.25], [0.25, 0.25], [0.75, 0.75]])
    fns = [make_minkowski(p, 2.0, w) for p, w in zip(pts, [2.0, 1.0, 1.0])]
    idx = build_index(fns, 0.25)
    # At the duplicated location the lighter-weighted copy wins (value 0 tie
    # broken toward the lowest index).
    w, v = idx.query(np.array([0.25, 0.25]))
    assert v == 0.0 and w == 0
    # Near the duplicate, weight 1 beats weight 2.
    w, v = idx.query(np.array([0.3, 0.25]))
    assert w == 1
    oracle_check(idx, fns, rng.random((200, 2)), 0.25)


@pytest.mark.parametrize("tag,d,eps", [
    ("l2", 2, 0.25), ("wl2", 2, 0.1), ("l3", 2, 0.25), ("l1.5", 2, 0.25),
    ("mahalanobis", 2, 0.25), ("l2", 3, 0.25),
])
def test_scaling_end_to_end(tag, d, eps, rng):
    pts = gen_sites(rng, 60, d, tag)
    fns = gen_family(tag, pts, rng)
    idx = build_index(fns, eps)
    queries = gen_queries(rng, 300, d, tag)
    oracle_check(idx, fns, queries, eps)


@pytest.mark.parametrize("tag,d,eps", [("kl", 2, 0.25), ("is", 2, 0.25), ("kl", 3, 0.25)])
def test_bregman_end_to_end(tag, d, eps, rng):
    pts = gen_sites(rng, 60, d, tag)
    fns = gen_family(tag, pts, rng)
    idx = build_index(fns, eps)
    queries = gen_queries(rng, 300, d, tag)
    oracle_check(idx, fns, queries, eps)


def test_bregman_query_outside_domain(rng):
    fns = gen_family("kl", gen_sites(rng, 20, 2, "kl"), rng)
    idx = build_index(fns, 0.25)
    with pytest.raises(DomainError):
        idx.query(np.array([5.0, 0.5]))


@pytest.mark.parametrize("tag", ["l2", "kl"])
@pytest.mark.parametrize("as_family", [True, False])
def test_malformed_queries_fail_alike_in_the_index_and_the_oracle(tag, as_family, rng):
    """``AnnIndex.query`` and ``brute_force`` check a query the same way: a
    non-finite, wrong-length or batched point raises ``ValueError`` with one
    message, and a point outside a Bregman domain ``DomainError``."""
    fns = gen_family(tag, gen_sites(rng, 30, 2, tag), rng)
    index = build_index(fns, 0.25)
    sites = index.family if as_family else fns
    q = gen_queries(rng, 1, 2, tag)[0]
    malformed = [(np.array([np.nan, q[1]]), "query must be finite"),
                 (np.array([q[0], np.inf]), "query must be finite"),
                 (np.append(q, q[0]), "query dimension mismatch"),
                 (np.stack([q, q]), "query dimension mismatch")]
    for bad, message in malformed:
        for answer in (index.query, lambda x: brute_force(sites, x)):
            with pytest.raises(ValueError, match=message):
                answer(bad)
    if tag == "kl":
        for answer in (index.query, lambda x: brute_force(sites, x)):
            with pytest.raises(DomainError, match="query outside domain"):
                answer(np.array([q[0], 50.0]))
    assert index.stats["queries"] == 0


@pytest.mark.parametrize("tag", ["kl", "is"])
def test_queries_on_a_domain_face_or_a_float_outside_raise(tag, rng):
    """A Bregman domain is open: a query exactly on a face of its box, or
    one float outside, raises ``DomainError`` from ``AnnIndex.query`` and
    ``brute_force`` alike, and one a float inside is answered."""
    fns = gen_family(tag, gen_sites(rng, 30, 2, tag), rng)
    index = build_index(fns, 0.25)
    spec = index.family.specs[0]
    for a in range(2):
        for face, outward in ((spec.domain_low[a], -np.inf), (spec.domain_high[a], np.inf)):
            q = gen_queries(rng, 1, 2, tag)[0]
            for x in (face, np.nextafter(face, outward)):
                q[a] = x
                for answer in (index.query, lambda x: brute_force(fns, x)):
                    with pytest.raises(DomainError, match="query outside domain"):
                        answer(q)
            q[a] = np.nextafter(face, -outward)
            assert index.query(q)[1] <= 1.25 * brute_force(fns, q)[1] * (1.0 + 1e-12)


def test_outside_root_queries(rng):
    pts = gen_sites(rng, 40, 2, "l2")
    fns = gen_family("l2", pts, rng)
    idx = build_index(fns, 0.25)
    queries = rng.uniform(-40.0, 40.0, size=(100, 2))
    oracle_check(idx, fns, queries, 0.25)
    assert idx.stats["outside_queries"] > 0


def test_perturbation_bound(rng):
    """Re-siting a gauge within a separated ball moves values by at most
    2*tau/beta relative."""
    for _ in range(100):
        d = int(rng.integers(2, 4))
        f0 = make_minkowski(np.zeros(d), float(rng.choice([2.0, 2.5, 3.0])),
                            float(rng.uniform(1.0, 2.0)))
        eps = float(rng.choice([0.1, 0.25]))
        beta = 10.0 * f0.tau / eps
        c = rng.standard_normal(d)
        r_w = rng.uniform(0.01, 0.2)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        p = c + r_w * rng.uniform(0.0, 1.0) * u
        f = f0.resite(p)
        f_prime = f0.resite(c)
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        x = c + (r_w + beta * 2.0 * r_w * rng.uniform(1.0, 2.0)) * v
        rel = abs(f_prime.value(x) - f.value(x)) / f.value(x)
        assert rel <= 2.0 * f0.tau / beta + 1e-9


def test_bregman_inner_collapse(rng):
    """Within a beta-separated cluster ball any representative is within
    (1+eps) of any other site of the cluster."""
    for spec in (generalized_kl_spec(3, 0.1, 1.0), itakura_saito_spec(2, 0.1, 1.0)):
        d = spec.dim
        probe = make_bregman(spec, np.full(d, 0.5))
        tau = probe.tau
        for _ in range(50):
            eps = float(rng.choice([0.1, 0.25]))
            beta = 4.0 * tau**2 / eps
            c = rng.uniform(0.2, 0.4, size=d)
            q = rng.uniform(0.85, 0.95, size=d)
            max_diam = np.linalg.norm(q - c) / (beta * 1.05) / 2.0
            r_w = min(max_diam, 0.05)
            pts = c[None, :] + rng.uniform(-r_w, r_w, size=(2, d)) / np.sqrt(d)
            p, p_prime = pts
            d_p = float(spec.divergence(q, p)[0])
            d_pp = float(spec.divergence(q, p_prime)[0])
            assert abs(d_p - d_pp) / d_p <= eps + 1e-9


def test_ray_witness_invariance(rng):
    """For a common-site family the exact argmin is constant along rays."""
    p_prime = np.array([0.3, 0.7])
    fns = [make_minkowski(p_prime, float(k), float(w))
           for k, w in [(2.0, 1.0), (3.0, 1.3), (2.5, 0.8), (2.0, 1.7)]]
    for _ in range(60):
        q = p_prime + rng.standard_normal(2)
        q_prime = ray_to_hypercube_boundary(p_prime, q)
        w_q = brute_force(fns, q)[0]
        w_qp = brute_force(fns, q_prime)[0]
        assert w_q == w_qp


def test_patchset_geometry(rng):
    fns = [make_minkowski([0.5, 0.5], 2.0, float(w)) for w in (1.0, 1.5)]
    tau = max(f.tau for f in fns)
    ps = InnerPatchSet(fns, [0, 1], np.array([0.5, 0.5]), tau, 0.25)
    assert ps.side == pytest.approx(1.0 / (2.0 * tau + 1.0))
    # Patch count stays within the tau^(d-1) regime.
    assert ps.patch_count() <= 200.0 * tau ** (2 - 1)
    for _ in range(50):
        q = np.array([0.5, 0.5]) + rng.standard_normal(2)
        qp = ray_to_hypercube_boundary(np.array([0.5, 0.5]), q)
        key = ps.patch_key(qp)
        ball = ps.patch_ball(key)
        assert np.linalg.norm(qp - ball.center) <= ball.radius + 1e-9


def test_same_ray_same_witness():
    """Two queries on one ray from the cluster center get the same witness
    from the patch machinery."""
    rng_local = np.random.default_rng(77)
    center = np.array([5.0, 5.0])
    cluster = center + rng_local.uniform(-0.005, 0.005, size=(6, 2))
    fns = []
    for p in cluster:
        theta = rng_local.uniform(0.0, np.pi)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        fns.append(make_mahalanobis(p, rot @ np.diag([1.0, 4.0]) @ rot.T))
    ps = InnerPatchSet(fns, list(range(6)), center, max(f.tau for f in fns), 0.25)
    witnesses = set()
    for _ in range(40):
        ray = rng_local.standard_normal(2)
        w1 = ps.query(center + rng_local.uniform(0.8, 1.2) * ray)
        w2 = ps.query(center + rng_local.uniform(2.0, 3.0) * ray)
        assert w1 == w2
        witnesses.add(w1)
    assert len(witnesses) > 1


def test_inner_cluster_error_ledger(rng):
    """Inner-cluster answers respect the layered budget
    (1 + 2 tau/beta)^2 (1 + eps/3)."""
    rng_local = np.random.default_rng(5)
    eps = 0.25
    cluster = np.array([3.0, 3.0]) + rng_local.uniform(-0.01, 0.01, size=(8, 2))
    fns = [make_minkowski(p, float(rng_local.choice([2.0, 2.5])),
                          float(rng_local.uniform(1.0, 2.0))) for p in cluster]
    idx = build_index(fns, eps)
    budget = (1.0 + 2.0 * idx.tau / idx.beta) ** 2 * (1.0 + eps / 3.0)
    for _ in range(200):
        q = rng_local.uniform(-1.0, 7.0, size=2)
        w, v = idx.query(q)
        _, best = brute_force(fns, q)
        if best > 0:
            assert v / best <= budget * (1.0 + 1e-9)


def test_concurrent_queries_match_sequential(rng):
    from concurrent.futures import ThreadPoolExecutor

    pts = gen_sites(rng, 80, 2, "wl2")
    fns = gen_family("wl2", pts, rng)
    queries = gen_queries(rng, 400, 2, "wl2")
    sequential = build_index(fns, 0.25)
    expected = [sequential.query(q) for q in queries]
    threaded = build_index(fns, 0.25)
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(threaded.query, queries))
    assert got == expected


def test_site_value_equals_index_value_bit_for_bit():
    """A site function evaluates through its kind's kernel, so at d = 2 a
    Mahalanobis site's value is the index's value for it, to the last bit."""
    rng = np.random.default_rng(5)
    fns = gen_family("mahalanobis", gen_sites(rng, 200, 2, "mahalanobis"), rng)
    index = build_index(fns, 0.25)
    for q in gen_queries(rng, 400, 2, "mahalanobis"):
        w, v = index.query(q)
        assert v == fns[w].value(q)


def test_index_keeps_no_site_object(rng):
    """Building an index reads the site functions into arrays and lets go
    of them."""
    for tag in ("l3", "mahalanobis", "kl"):
        fns = gen_family(tag, gen_sites(rng, 30, 2, tag), rng)
        first = weakref.ref(fns[0])
        index = build_index(fns, 0.25)
        for q in gen_queries(rng, 20, 2, tag):
            index.query(q)
        del fns
        gc.collect()
        assert first() is None, tag
        assert index.sites is index.family


@pytest.mark.parametrize("sites", ["d4-pair-1e-9", "pair-1e-30"])
def test_close_site_pairs_answer_within_eps(sites, rng):
    """Queries near a site pair closer than the default depth budget can
    separate: the tree derives a deeper budget from the sites."""
    if sites == "d4-pair-1e-9":
        pts = rng.random((50, 4))
        pts[1] = pts[0]
        pts[1, 0] += 1e-9
        scales = 10.0 ** rng.uniform(-12.0, -2.0, size=60)
    else:
        pts = np.array([[0.0, 0.0], [0.0, 1e-30]])
        scales = 10.0 ** rng.uniform(-32.0, -28.0, size=60)
    fns = [make_minkowski(p, 2.0) for p in pts]
    idx = build_index(fns, 0.25)
    queries = pts[0] + scales[:, None] * rng.standard_normal((60, pts.shape[1]))
    oracle_check(idx, fns, queries, 0.25)


@pytest.mark.parametrize("text", [
    "generator = generalized-kl\ndomain_low = 0.1 0.1\ndomain_high = 1 1\n",
    "generator = itakura-saito\n",
    "generator = squared-mahalanobis\nmatrix = 2 1 1 3\ndomain_low = 0 0\n",
])
def test_config_built_bregman_index_saves_and_loads(text, tmp_path, rng):
    cfg = parse_distance_config("kind = bregman\n" + text)
    idx = build_index(build_site_functions(cfg, rng.uniform(0.2, 0.9, size=(30, 2))), 0.25)
    path = str(tmp_path / "config.eann")
    save_index(idx, path)
    loaded = load_index(path)
    for q in rng.uniform(0.15, 0.95, size=(50, 2)):
        assert loaded.query(q) == idx.query(q)


def test_persistence_roundtrip(tmp_path, rng):
    for tag in ("l2", "wl2", "mahalanobis", "kl"):
        pts = gen_sites(rng, 40, 2, tag)
        fns = gen_family(tag, pts, rng)
        idx = build_index(fns, 0.25)
        queries = gen_queries(rng, 150, 2, tag)
        expected = [idx.query(q) for q in queries]
        path = str(tmp_path / f"{tag}.eann")
        nbytes = save_index(idx, path)
        assert nbytes > 0
        with open(path, "rb") as fh:
            assert fh.read(4) == b"EANN"
        loaded = load_index(path)
        assert loaded.kind == idx.kind
        assert loaded.tau == idx.tau
        assert loaded.beta == idx.beta
        for q, (w_exp, v_exp) in zip(queries, expected):
            w, v = loaded.query(q)
            assert w == w_exp
            assert v == v_exp  # bit-for-bit


def _mixed_scaling(rng, order):
    pts = rng.random((6, 2))
    mat = np.array([[2.0, 0.3], [0.3, 1.0]])
    make = {"minkowski": lambda p: make_minkowski(p, 2.0),
            "mahalanobis": lambda p: make_mahalanobis(p, mat)}
    return [make[order[i % 2]](p) for i, p in enumerate(pts)]


@pytest.mark.parametrize("order", [("minkowski", "mahalanobis"), ("mahalanobis", "minkowski")])
def test_save_rejects_mixed_scaling_family(tmp_path, rng, order):
    index = build_index(_mixed_scaling(rng, order), 0.25)
    index.query(rng.random(2))
    with pytest.raises(ValueError, match="mixing distance kinds"):
        save_index(index, str(tmp_path / "mixed.eann"))


def test_save_rejects_custom_bregman_generator(tmp_path, rng):
    """``load_index`` rebuilds only built-in generators by name, so a file
    naming another could be written but never read back."""
    spec = dataclasses.replace(generalized_kl_spec(2), name="my-kl")
    index = build_index([make_bregman(spec, p) for p in rng.uniform(0.2, 0.9, (10, 2))], 0.25)
    path = tmp_path / "my-kl.eann"
    with pytest.raises(ValueError, match="custom Bregman generator"):
        save_index(index, str(path))
    assert not path.exists()


def test_save_rejects_custom_gauge_at_any_position(tmp_path, rng):
    fns = [make_minkowski(p, 2.0) for p in rng.random((5, 2))]
    fns[1] = make_custom_gauge(fns[1].site, lambda v: np.linalg.norm(v, axis=1),
                               lambda v: v / np.linalg.norm(v, axis=1)[:, None],
                               lambda v: np.zeros((len(v), 2, 2)), GaugeParams(1.0, 1.0))
    index = build_index(fns, 0.25)
    with pytest.raises(ValueError, match="custom gauge"):
        save_index(index, str(tmp_path / "gauge.eann"))


def test_load_rejects_every_truncation(tmp_path, rng):
    pts = gen_sites(rng, 10, 2, "l2")
    path = tmp_path / "full.eann"
    size = save_index(build_index(gen_family("l2", pts, rng), 0.25), str(path))
    blob = path.read_bytes()
    assert len(blob) == size
    cut_path = tmp_path / "cut.eann"
    for cut in list(range(0, size, max(1, size // 64))) + [size - 1]:
        cut_path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="offset"):
            load_index(str(cut_path))
    cut_path.write_bytes(blob + b"\0")
    with pytest.raises(ValueError, match="trailing bytes at offset"):
        load_index(str(cut_path))
    assert load_index(str(path)).n == 10


def _small_l2_file(tmp_path, rng):
    pts = gen_sites(rng, 10, 2, "l2")
    path = tmp_path / "small.eann"
    save_index(build_index(gen_family("l2", pts, rng), 0.25), str(path))
    return path


def test_load_rejects_every_single_bit_flip(tmp_path, rng):
    path = _small_l2_file(tmp_path, rng)
    blob = path.read_bytes()
    flipped_path = tmp_path / "flipped.eann"
    for bit in np.random.default_rng(7).integers(0, 8 * len(blob), 200):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        flipped_path.write_bytes(bytes(flipped))
        with pytest.raises(ValueError):
            load_index(str(flipped_path))


def test_load_rejects_format_version_1(tmp_path, rng):
    path = _small_l2_file(tmp_path, rng)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (1).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unsupported format version 1"):
        load_index(str(path))


def test_load_rejects_format_version_2(tmp_path, rng):
    path = _small_l2_file(tmp_path, rng)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (2).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unsupported format version 2"):
        load_index(str(path))


def test_l2_file_holds_only_sites_and_configuration(tmp_path, rng):
    n, d = 10, 2
    path = _small_l2_file(tmp_path, rng)
    header = 4 + 2 + 4 + 4 + 8 + 1  # magic, version, d, n, eps, family code
    params = 2 * n * 8  # Minkowski k and weight per site
    sites = n * d * 8 + n * 8  # coordinates and tau
    record = 4 + 8 + 8 + 4  # d, alpha, beta, max_depth
    assert len(path.read_bytes()) == header + params + sites + record + 4


def test_save_expands_no_tree_node(tmp_path, rng):
    """``save_index`` and ``storage_stats`` change no row or expansion
    count, and a loaded index has the same ones."""
    pts = gen_sites(rng, 40, 2, "kl")
    index = build_index(gen_family("kl", pts, rng), 0.1)
    path = str(tmp_path / "fresh.eann")
    fresh = index.storage_stats()
    save_index(index, path)
    assert index.storage_stats() == fresh
    loaded = load_index(path)
    assert loaded.storage_stats() == index.storage_stats()
    q = gen_queries(rng, 1, 2, "kl")[0]
    assert loaded.query(q) == index.query(q)
    assert loaded.storage_stats()["tree_expansions"] == index.storage_stats()["tree_expansions"]


@pytest.mark.parametrize("offset,fmt,value", [
    (-28, "<I", 3), (-24, "<d", 5.0), (-16, "<d", 1e3), (-8, "<I", 95),
], ids=["d", "alpha", "beta", "max_depth"])
def test_load_rejects_configuration_record_unlike_the_sites(tmp_path, rng, offset, fmt, value):
    """A record that disagrees with the configuration derived from the sites
    is refused even when the checksum matches."""
    path = _small_l2_file(tmp_path, rng)
    blob = bytearray(path.read_bytes()[:-4])
    struct.pack_into(fmt, blob, len(blob) + 4 + offset, value)  # offset from the file end
    blob += struct.pack("<I", zlib.crc32(blob))
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="derived from the sites"):
        load_index(str(path))


# Fixed part of every index file: magic, version, d, n, eps, family code.
HEADER = 4 + 2 + 4 + 4 + 8 + 1


def _repack(path, offset, fmt, value) -> None:
    """Pack ``value`` at ``offset`` of the file and renew its checksum."""
    blob = bytearray(path.read_bytes()[:-4])
    struct.pack_into(fmt, blob, offset, value)
    blob += struct.pack("<I", zlib.crc32(blob))
    path.write_bytes(bytes(blob))


def _index_file(tmp_path, rng, tag):
    """A saved index of 10 sites in the plane, with the offsets of its
    first site coordinate and of its first tau."""
    n, d = 10, 2
    path = tmp_path / f"{tag}.eann"
    save_index(build_index(gen_family(tag, gen_sites(rng, n, d, tag), rng), 0.25), str(path))
    params = {"l2": 2 * n * 8, "mahalanobis": n * d * d * 8,
              "kl": 2 + len("generalized-kl") + 2 * d * 8 + 1}[tag]
    sites = HEADER + params
    return path, sites, sites + n * d * 8


@pytest.mark.parametrize("tag,field,fmt,value,message", [
    ("l2", "param", "<d", 1.0, "not smooth"),               # k
    ("l2", "param", "<d", 0.5, "not smooth"),
    ("l2", "param", "<d", float("nan"), "must be finite"),
    ("l2", "weight", "<d", 0.0, "weight must be finite and positive"),
    ("l2", "weight", "<d", float("inf"), "weight must be finite and positive"),
    ("l2", "site", "<d", float("nan"), "non-finite"),
    ("l2", "tau", "<d", float("nan"), "admissibility gate"),
    ("l2", "tau", "<d", -1.0, "admissibility gate"),
    ("l2", "tau", "<d", 1e308, "tau"),
    ("mahalanobis", "off_diagonal", "<d", 7.0, "symmetric"),
    ("mahalanobis", "param", "<d", -1.0, "positive-definite"),  # M[0, 0]
    ("kl", "site", "<d", 5.0, "outside Bregman domain"),
    ("kl", "tau", "<d", 1e155, "tau"),
    ("kl", "name", "<14s", b"generalized-xx", "unknown Bregman generator"),
])
def test_load_rejects_checksummed_file_with_invalid_values(tmp_path, rng, tag, field, fmt,
                                                           value, message):
    """A file whose checksum matches but which holds a parameter, site, tau
    or generator no index accepts fails with a ValueError, as ``eann query``
    reports it."""
    path, sites, taus = _index_file(tmp_path, rng, tag)
    offset = {"param": HEADER, "weight": HEADER + 10 * 8, "off_diagonal": HEADER + 8,
              "name": HEADER + 2, "site": sites, "tau": taus}[field]
    _repack(path, offset, fmt, value)
    with pytest.raises(ValueError, match=message):
        load_index(str(path))
