"""The warm path against a per-query reference.

``AnnIndex.query`` answers a built leaf from one evaluation at the query of
the family of its nominees: an exact leaf's ids, or an envelope leaf's ids
and the witnesses of the query's lattice cell, memoized per nominee set.
The reference below answers the same leaf from scratch: the exact minimum
at the query, over a fresh ``take``, of those nominees. Both must agree bit
for bit on every leaf kind, for every distance kind, and whether the index
was queried lazily, loaded from a file or queried in another order. The
answer is never worse than the envelope's own witness
(``ConcaveEnvelope.query``). Tests that need envelope leaves on small
uniform families set ``EXACT_MAX`` to 0.
"""

import sys

import numpy as np
import pytest

from eann import ann
from eann._batch import SiteFamily, batch_values
from eann.ann import InnerPatchSet, brute_force, build_index, load_index, save_index
from eann.cli import gen_family, gen_queries, gen_sites
from eann.distances import BregmanSpec, GaugeParams, make_custom_gauge, minkowski_sites

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
    (so that some leaves have an inner cluster of many sites); Bregman
    sites stay below 0.9 in every coordinate, so queries can leave the
    tree's root box without leaving the domain (0.1, 1)^d."""
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
        high = index.family.specs[0].domain_high
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


def _inner_fids(index, leaf) -> list[int]:
    return np.flatnonzero(np.isin(index.tree.position_of_site, leaf.inner)).tolist()


def reference(index, q):
    """The exact best nominee at q, from a fresh ``take``, and the kind of
    leaf (or region) that produced it. The nominees are the leaf's ids,
    every site of a scaling leaf's inner cluster and the witnesses
    of q's lattice cell in the outer envelope; the answer is at most the
    value at q of the envelope's own witness. Outside the root box, scaling
    queries and Bregman queries near the sites are scanned."""
    leaf, _ = index.tree.locate(q)
    if leaf is None:
        ball = index._site_ball
        gap = float(np.linalg.norm(q - ball.center)) - ball.radius
        if index.kind == "scaling" or gap < index.beta * ball.diameter:
            return brute_force(index.family, q), "outside"
        return (0, float(batch_values(index.family.take([0]), q)[0, 0])), "outside"
    att = index._attachment(leaf)
    if att.brute:
        return brute_force(index.family, q), "brute"
    cands = att.ids.tolist()
    kind = "fixed"
    env = att.outer_env
    if env is not None:
        cands += env.kept_ids[env.cell_witnesses(env.unit_point(q))].tolist()
        kind = "envelope"
    inner = _inner_fids(index, leaf)
    if index.kind == "scaling" and len(inner) > 1:
        cands += inner
        kind = "inner"
    cands = sorted(set(cands))
    vals = batch_values(index.family.take(cands), q)[0]
    best = int(np.argmin(vals))
    if env is not None:
        witness = env.query(q)
        assert vals[best] <= batch_values(index.family.take([witness]), q)[0, 0], q
    return (cands[best], float(vals[best])), kind


def _answers(index, queries, order):
    out = [None] * len(queries)
    for i in order:
        out[i] = index.query(queries[i])
    return out


EXPECTED_KINDS = {"scaling": {"fixed", "envelope", "inner", "outside"},
                  "bregman": {"fixed", "envelope", "brute", "outside"}}


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("tag", SCALING + BREGMAN)
def test_warm_answers_match_the_per_query_reference(monkeypatch, tag, d, tmp_path):
    """Two sites give leaves with fixed candidates only; more sites give
    exact leaves or, with ``EXACT_MAX`` at 0, outer envelopes, many-site
    inner clusters or brute leaves, and queries outside."""
    rng = np.random.default_rng(1000 * d + len(tag))
    kinds = set()
    many = {2: 60, 3: 40, 4: 30}[d]
    for n, exact_max in ((2, ann.EXACT_MAX), (many, 0), (many, ann.EXACT_MAX)):
        monkeypatch.setattr(ann, "EXACT_MAX", exact_max)
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


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("tag", SCALING)
def test_scaling_inner_clusters_and_outside_queries_answer_exactly(tag, d, tmp_path, monkeypatch):
    """On a leaf whose inner cluster has several sites, the answer is no
    worse than any of them at q; outside the root box, the answer is the
    full scan's. Both hold on lazy, shuffled and loaded indexes, and no
    boundary patch set is ever built."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("the index built an InnerPatchSet")

    monkeypatch.setattr(InnerPatchSet, "__init__", refuse)
    rng = np.random.default_rng(7000 + 100 * d + len(tag))
    fns = _family(tag, rng, {2: 200, 3: 120, 4: 80}[d], d)
    lazy = build_index(fns, 0.1)
    count = {2: 120, 3: 60, 4: 40}[d]
    dirs = rng.standard_normal((2 * count, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.exp(rng.uniform(np.log(1e-4), np.log(0.4), size=(count, 1)))
    ball = lazy._site_ball
    gaps = np.exp(rng.uniform(np.log(1e-2), np.log(1e3), size=(count, 1)))
    reach = ball.radius + gaps * lazy.beta * ball.diameter
    queries = np.concatenate([0.5 + radii * dirs[:count], ball.center + reach * dirs[count:]])
    indexes = [(lazy, range(len(queries))),
               (build_index(fns, 0.1), rng.permutation(len(queries)))]
    if tag != "gauge":  # custom gauges are not serializable
        path = str(tmp_path / "index.eann")
        save_index(lazy, path)
        indexes.append((load_index(path), rng.permutation(len(queries))))
    inner_hits = outside_hits = 0
    for index, order in indexes:
        for i in order:
            q = queries[i]
            answer = index.query(q)
            leaf, _ = index.tree.locate(q)
            if leaf is None:
                assert answer == brute_force(index.family, q), q
                outside_hits += 1
            elif len(inner := _inner_fids(index, leaf)) > 1:
                values = batch_values(index.family, q)[0, inner]
                assert answer[1] <= values.min() * (1.0 + 1e-12), q
                inner_hits += 1
    assert inner_hits >= len(indexes) and outside_hits >= len(indexes) * count


def test_warm_envelope_query_makes_one_kernel_call(monkeypatch):
    """A warm query on an outer-envelope leaf evaluates one family once, at
    the query alone, and takes no sub-family."""
    monkeypatch.setattr(ann, "EXACT_MAX", 0)
    rng = np.random.default_rng(3)
    fns = gen_family("l3", gen_sites(rng, 200, 2, "l3"), rng)
    index = build_index(fns, 0.1)
    for q in gen_queries(rng, 100, 2, "l3"):
        leaf, _ = index.tree.locate(q)
        att = index._attachment(leaf)
        if att.outer_env is not None:
            break
    else:
        pytest.fail("no leaf with an outer envelope")
    index.query(q)
    calls = {"values": 0, "take": 0}
    points = []
    for name in calls:
        real = getattr(SiteFamily, name)

        def counted(self, *args, _name=name, _real=real):
            calls[_name] += 1
            if _name == "values":
                points.append(np.asarray(args[0]).reshape(-1, 2))
            return _real(self, *args)

        monkeypatch.setattr(SiteFamily, name, counted)
    answer = index.query(q)
    assert calls == {"values": 1, "take": 0}
    (evaluated,) = points
    np.testing.assert_array_equal(evaluated, q[None, :])
    monkeypatch.undo()
    assert answer == reference(index, q)[0]


def test_warm_exact_query_evaluates_its_ids_at_q(monkeypatch):
    """A warm query on an exact leaf takes the leaf's ids from the index
    family once and evaluates them once, at the query alone; the leaf
    keeps no family of its own."""
    rng = np.random.default_rng(3)
    fns = gen_family("l3", gen_sites(rng, 200, 2, "l3"), rng)
    index = build_index(fns, 0.1)
    for q in gen_queries(rng, 100, 2, "l3"):
        leaf, _ = index.tree.locate(q)
        att = index._attachment(leaf)
        if len(leaf.in_cell) + len(leaf.inner) < att.ids.size:
            break
    else:
        pytest.fail("no exact leaf with an outer survivor")
    assert att.outer_env is None and att.nominees is None
    assert att.ids.dtype == np.int32 and np.all(np.diff(att.ids) > 0)
    index.query(q)
    taken, evaluated = [], []
    real_take, real_values = SiteFamily.take, SiteFamily.values
    monkeypatch.setattr(SiteFamily, "take",
                        lambda self, idx: taken.append(np.asarray(idx)) or real_take(self, idx))
    monkeypatch.setattr(SiteFamily, "values",
                        lambda self, X: evaluated.append(np.asarray(X)) or real_values(self, X))
    answer = index.query(q)
    monkeypatch.undo()
    (ids,) = taken
    (point,) = evaluated
    np.testing.assert_array_equal(ids, att.ids)
    np.testing.assert_array_equal(point, q)
    assert answer == reference(index, q)[0]


def test_a_leaf_query_checks_its_domain_once(monkeypatch):
    """A query on a built leaf is checked once, where it enters
    (``_checked_query``, which compares it with the domain bounds itself);
    neither it nor the leaf's kernel call asks ``BregmanSpec.in_domain``."""
    calls, entries = [], []
    real_in_domain, real_checked = BregmanSpec.in_domain, ann._checked_query

    def counted(spec, x):
        calls.append(x)
        return real_in_domain(spec, x)

    def entered(family, q):
        entries.append(q)
        return real_checked(family, q)

    for tag in ("kl", "l3"):
        rng = np.random.default_rng(23)
        index = build_index(gen_family(tag, gen_sites(rng, 400, 2, tag), rng), 0.25)
        queries = []
        for q in gen_queries(rng, 400, 2, tag):
            leaf, _ = index.tree.locate(q)
            if leaf is not None and not index._attachment(leaf).brute:
                index.query(q)
                queries.append(q)
        queries = queries[:48]
        assert len(queries) == 48
        monkeypatch.setattr(BregmanSpec, "in_domain", counted)
        monkeypatch.setattr(ann, "_checked_query", entered)
        calls.clear()
        entries.clear()
        for q in queries:
            index.query(q)
        monkeypatch.undo()
        assert len(calls) == 0 and len(entries) == 48
        assert index.stats["brute_queries"] == 0


def test_large_survivor_leaves_evaluate_only_the_cell_nominees(monkeypatch):
    """``l3`` sites on a circle (d = 2) or a sphere (d = 3) about the point
    0.5 keep every site as an outer survivor of the leaves around that
    point. A warm query there evaluates one family at q whose members are
    exactly its nominees, a count that stays small as m grows to 8,000;
    two lattice cells with equal witness sets share that family."""
    eps = 0.1
    evaluated = []
    real_values = SiteFamily.values
    shared_cells = 0
    for m, d in ((500, 2), (8000, 2), (2000, 3)):
        rng = np.random.default_rng(m + d)
        if d == 2:
            angles = 2.0 * np.pi * np.arange(m) / m
            dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        else:
            dirs = rng.standard_normal((m, d))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        family = SiteFamily.from_groups([(slice(None),
                                          *minkowski_sites(0.5 + 0.4 * dirs, 3.0, np.ones(m)))])
        index = build_index(family, eps)
        offsets = rng.standard_normal((120, d))
        offsets *= 0.01 * rng.random((120, 1)) / np.linalg.norm(offsets, axis=1)[:, None]
        queries = 0.5 + offsets
        for q in queries:
            answer = index.query(q)
            assert answer == reference(index, q)[0], q
            assert answer[1] <= (1.0 + eps) * brute_force(family, q)[1] * (1.0 + 1e-12), q

        monkeypatch.setattr(SiteFamily, "values",
                            lambda self, X: evaluated.append(self) or real_values(self, X))
        by_cell, by_witnesses = {}, {}
        for q in queries:
            evaluated.clear()
            index.query(q)
            (got,) = evaluated
            leaf, _ = index.tree.locate(q)
            att = index._attachment(leaf)
            env = att.outer_env
            assert env.kept_ids.size == m  # every site survives the screen
            u = env.unit_point(q)
            pos = env.cell_witnesses(u)
            nominees = set(att.ids.tolist()) | set(env.kept_ids[pos].tolist())
            assert len(got) == len(nominees) <= 24, (m, d, len(got))
            cell = (id(leaf), *np.floor(u / env.spacing + 1e-9).astype(int).tolist())
            assert by_cell.setdefault(cell, got) is got
            by_witnesses.setdefault((id(leaf), pos.tobytes()), {})[cell] = got
        monkeypatch.undo()
        for cells in by_witnesses.values():
            assert len({id(f) for f in cells.values()}) == 1
            shared_cells += len(cells) > 1
    assert shared_cells > 0, "no two cells with equal witness sets"


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
    assert stats["fallback_outside"] == stats["outside_brute"] == outside_scans
    assert stats["outside_queries"] == outside


def test_threads_building_cells_concurrently_match_sequential_answers(monkeypatch):
    """Threads that build one envelope's anchors and cell memo at the same
    time give the sequential answers."""
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(ann, "EXACT_MAX", 0)
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
