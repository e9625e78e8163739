"""The warm path against the per-query arithmetic it replaced.

``AnnIndex.query`` answers a built leaf from one evaluation of the leaf's
cached candidate family. The reference below answers the same leaf the
older way: the envelope picks its witness through ``query_absolute``, and a
fresh ``take`` of the candidates is evaluated at the query. Both must agree
bit for bit on every leaf kind, for every distance kind, and whether the
index was queried lazily, loaded from a file or queried in another order.
"""

import sys

import numpy as np
import pytest

from eann._batch import SiteFamily, batch_values
from eann.ann import brute_force, build_index, load_index, save_index
from eann.cli import gen_family, gen_queries, gen_sites
from eann.distances import GaugeParams, make_custom_gauge

SCALING = ("l2", "l3", "mahalanobis", "gauge")
BREGMAN = ("kl", "is")


def _ellipse_gauge(d):
    """sqrt(v^T A v) with A = diag(1, 2, 1, 2, ...): inscribed to
    circumscribed radius ratio 1/sqrt(2), tangent-ball ratio 1/2."""
    a = np.where(np.arange(d) % 2 == 0, 1.0, 2.0)

    def value(v):
        return np.sqrt(np.einsum("md,d,md->m", v, a, v))

    def gradient(v):
        return v * a / value(v)[:, None]

    def hessian(v):
        g = v * a
        n = value(v)[:, None, None]
        return (np.diag(a)[None] - np.einsum("mi,mj->mij", g, g) / n**2) / n

    return value, gradient, hessian, GaugeParams(0.7, 0.5)


def _family(tag, rng, n, d):
    """Site functions of ``n`` sites. Scaling kinds get a tight cluster
    (so that some leaves carry inner patch sets); Bregman sites stay below
    0.9 in every coordinate, so queries can leave the tree's root box
    without leaving the domain (0.1, 1)^d."""
    if tag in BREGMAN:
        return gen_family(tag, rng.uniform(0.1 + 1e-3, 0.9, size=(n, d)), rng)
    sites = gen_sites(rng, n, d, tag)
    sites[: n // 5] = 0.5 + rng.uniform(-1e-5, 1e-5, size=(n // 5, d))
    if tag == "gauge":
        value, gradient, hessian, params = _ellipse_gauge(d)
        return [make_custom_gauge(p, value, gradient, hessian, params) for p in sites]
    return gen_family(tag, sites, rng)


def _queries(tag, rng, index, count):
    """Uniform queries, queries around the scaling cluster, and queries
    outside the root box: near it, and for scaling kinds far beyond it."""
    d = index.dim
    box = index.tree.root_box
    qs = [gen_queries(rng, count, d, tag)]
    if tag in BREGMAN:
        # Leaves whose ball crosses the domain's low face answer by full scan.
        edge = gen_queries(rng, count // 2, d, tag)
        edge[:, 0] = 0.1 + 1e-4
        qs.append(edge)
        high = index.sites[0].spec.domain_high
        if np.all(box.high < high):
            qs.append(box.high[None, :] + 0.5 * (high - box.high))
    else:
        dirs = rng.standard_normal((count // 2, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = np.exp(rng.uniform(np.log(1e-3), np.log(0.4), size=(count // 2, 1)))
        qs.append(0.5 + radii * dirs)
        qs.append(box.high[None, :] + 0.01)
        qs.append(box.high[None, :] + 1e3 * index.beta * (box.high - box.low)[None, :])
    return np.concatenate(qs)


def reference(index, q):
    """The answer through the per-query arithmetic of the older path, and
    the kind of leaf (or region) that produced it."""
    leaf, _ = index.tree.locate(q)
    if leaf is None:
        ball = index._site_ball
        if float(np.linalg.norm(q - ball.center)) - ball.radius < index.beta * ball.diameter:
            return brute_force(index.family, q), "outside"
        fid = 0 if index.kind == "bregman" else index._outside_patchset.query(q)
        return (fid, float(batch_values(index.family.take([fid]), q)[0, 0])), "outside"
    att = index._attachment(leaf)
    if att.brute:
        return brute_force(index.family, q), "brute"
    cands = list(att.fixed_fids)
    kind = "fixed"
    if att.outer_env is not None:
        cands.append(att.outer_env.query(q))
        kind = "envelope"
    if att.patchset is not None:
        cands.append(att.patchset.query(q))
        kind = "patch"
    cands = sorted(set(cands))
    vals = batch_values(index.family.take(cands), q)[0]
    best = int(np.argmin(vals))
    return (cands[best], float(vals[best])), kind


def _answers(index, queries, order):
    out = [None] * len(queries)
    for i in order:
        out[i] = index.query(queries[i])
    return out


EXPECTED_KINDS = {"scaling": {"fixed", "envelope", "patch", "outside"},
                  "bregman": {"fixed", "envelope", "brute", "outside"}}


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("tag", SCALING + BREGMAN)
def test_warm_answers_match_the_per_query_reference(tag, d, tmp_path):
    """Two sites give leaves with fixed candidates only; more sites give
    outer envelopes, patch sets or brute leaves, and queries outside."""
    rng = np.random.default_rng(1000 * d + len(tag))
    kinds = set()
    for n in (2, {2: 60, 3: 40, 4: 30}[d]):
        fns = _family(tag, rng, n, d)
        lazy = build_index(fns, 0.25)
        queries = _queries(tag, rng, lazy, {2: 80, 3: 40, 4: 24}[d])
        expected = _answers(lazy, queries, range(len(queries)))
        for q, got in zip(queries, expected):
            ref, kind = reference(lazy, q)
            assert got == ref, (kind, q)
            kinds.add(kind)
        # Warm again, then on fresh indexes in other orders.
        assert _answers(lazy, queries, rng.permutation(len(queries))) == expected
        fresh = build_index(fns, 0.25)
        assert _answers(fresh, queries, rng.permutation(len(queries))) == expected
        if tag != "gauge":  # custom gauges are not serializable
            path = str(tmp_path / "index.eann")
            save_index(lazy, path)
            loaded = load_index(path)
            assert _answers(loaded, queries, rng.permutation(len(queries))) == expected
    assert kinds >= EXPECTED_KINDS[lazy.kind], kinds


def test_warm_envelope_query_makes_one_kernel_call(monkeypatch):
    """A warm query on an outer-envelope leaf evaluates one family once and
    takes no sub-family."""
    rng = np.random.default_rng(3)
    fns = gen_family("l3", gen_sites(rng, 200, 2, "l3"), rng)
    index = build_index(fns, 0.1)
    for q in gen_queries(rng, 100, 2, "l3"):
        leaf, _ = index.tree.locate(q)
        att = index._attachment(leaf)
        if att.outer_env is not None and att.patchset is None:
            break
    else:
        pytest.fail("no leaf with an outer envelope and no patch set")
    index.query(q)
    calls = {"values": 0, "take": 0}
    for name in calls:
        real = getattr(SiteFamily, name)

        def counted(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(SiteFamily, name, counted)
    answer = index.query(q)
    assert calls == {"values": 1, "take": 0}
    monkeypatch.undo()
    assert answer == reference(index, q)[0]


def test_fallbacks_are_counted_by_reason():
    """Each full-scan answer is counted once under its reason, beside the
    totals that existed before the reasons."""
    rng = np.random.default_rng(2004)
    index = build_index(_family("kl", rng, 30, 4), 0.25)
    queries = _queries("kl", rng, index, 24)
    leaf_scans = outside_scans = outside = 0
    visits = 0
    for q in queries:
        leaf, v = index.tree.locate(q)
        visits += v
        if leaf is None:
            outside += 1
            outside_scans += 1  # beta * diameter reaches past the Bregman domain
        else:
            leaf_scans += index._attachment(leaf).brute
        index.query(q)
    stats = index.stats
    assert leaf_scans > 0 and outside_scans > 0
    assert stats["queries"] == len(queries) and stats["locate_visits"] == visits
    assert stats["fallback_domain_leaf"] == stats["brute_queries"] == leaf_scans
    assert stats["fallback_outside_near"] == stats["outside_brute"] == outside_scans
    assert stats["outside_queries"] == outside
    assert stats["fallback_domain_query"] == 0


def test_threads_building_cells_concurrently_match_sequential_answers():
    """Threads that build one envelope's anchors and cell memo at the same
    time give the sequential answers."""
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(8)
    fns = gen_family("l3", gen_sites(rng, 300, 2, "l3"), rng)
    sequential = build_index(fns, 0.1)
    for q in gen_queries(rng, 100, 2, "l3"):
        leaf, _ = sequential.tree.locate(q)
        if sequential._attachment(leaf).outer_env is not None and leaf.cell.inner is None:
            break
    else:
        pytest.fail("no leaf with an outer envelope and no hole")
    box = leaf.cell.outer
    queries = rng.uniform(box.low, box.high, size=(400, 2))
    expected = [sequential.query(q) for q in queries]
    threaded = build_index(fns, 0.1)
    threaded.query(queries[0])  # builds the leaf; its cells stay unbuilt
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(threaded.query, q) for q in queries]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    # No anchor or cell was lost or mixed up between threads.
    env, ref = (ix._attachment(ix.tree.locate(queries[0])[0]).outer_env
                for ix in (threaded, sequential))
    np.testing.assert_array_equal(env._codes, ref._codes)
    np.testing.assert_array_equal(env._wit, ref._wit)
    assert env._cells.keys() == ref._cells.keys()
    for code, pos in env._cells.items():
        np.testing.assert_array_equal(pos, ref._cells[code])
