"""The index's outer-site screen against the paper's leaf build.

A leaf takes every outer site that survives the prune screen: all of them
as candidates of an exact leaf, or, above ``EXACT_MAX`` survivors, as the
members of an envelope built with no ball-minimum estimates, keep rule or
scale. The references here are ``normalize`` over the leaf's full outer
site list, which must send the same leaves to brute force and keep the same
lone survivor, and the envelope the paper builds over the survivors
(``normalize`` at eps/5), whose cell witnesses must equal the index's. The
envelope comparisons set ``EXACT_MAX`` to 0.
"""

import numpy as np
import pytest

from eann import ann
from eann._batch import SiteFamily, batch_value_bounds
from eann.ann import build_index, load_index, save_index
from eann.cli import gen_family, gen_queries, gen_sites
from eann.convexify import normalize, prune_screen, screen
from eann.distances import (
    DomainError,
    GaugeParams,
    make_bregman,
    make_custom_gauge,
    squared_mahalanobis_spec,
)
from eann.envelope import ConcaveEnvelope
from eann.geom import EuclideanBall, enclosing_ball

from conftest import random_gauge_fn

_ELLIPSE = np.array([1.0, 2.0])


def _gauge_value(v):
    return np.sqrt(np.einsum("ad,d,ad->a", v, _ELLIPSE, v))


def _gauge_gradient(v):
    return v * _ELLIPSE[None, :] / _gauge_value(v)[:, None]


def _gauge_hessian(v):
    f = _gauge_value(v)
    av = v * _ELLIPSE[None, :]
    return (np.diag(_ELLIPSE)[None] / f[:, None, None]
            - av[:, :, None] * av[:, None, :] / (f**3)[:, None, None])


def _family(tag, rng, n, d):
    if tag == "ellipse":
        params = GaugeParams(float(np.sqrt(_ELLIPSE.min() / _ELLIPSE.max())), 0.5)
        return [make_custom_gauge(p, _gauge_value, _gauge_gradient, _gauge_hessian, params)
                for p in rng.random((n, d))]
    if tag == "sq-mahalanobis":
        spec = squared_mahalanobis_spec(np.eye(d), 0.1, 1.0)
        return [make_bregman(spec, p) for p in gen_sites(rng, n, d, "kl")]
    return gen_family(tag, gen_sites(rng, n, d, tag), rng)


def _leaves(index, rng, count):
    """Distinct leaves located by uniform queries, a fifth of them pressed
    against the low edge of the first axis (where Bregman balls leave the
    domain)."""
    tag = "kl" if index.kind == "bregman" else "l2"
    queries = gen_queries(rng, count, index.dim, tag)
    queries[: count // 5, 0] = 0.1 + 1e-4
    leaves = {}
    for q in queries:
        leaf, _ = index.tree.locate(q)
        leaves.setdefault(id(leaf), leaf)
    return list(leaves.values())


def _fids(index, positions):
    return np.flatnonzero(np.isin(index.tree.position_of_site, positions)).tolist()


def _compare_leaf(index, fns, leaf) -> str:
    """Check one leaf's attachment against the paper's build from the site
    functions ``fns`` of the index; returns which case the leaf fell in."""
    outer = _fids(index, leaf.outer_positions())
    ball = enclosing_ball(leaf.cell)
    att = index._attachment(leaf)
    inner = _fids(index, leaf.inner)
    # The cell's sites and every inner site of a scaling leaf (a Bregman
    # cluster's first site); an exact leaf adds its outer survivors.
    fixed = _fids(index, leaf.in_cell) + (inner[:1] if index.kind == "bregman" else inner)
    if not outer:
        assert att.outer_env is None and not att.brute
        assert att.ids.tolist() == sorted(fixed)
        return "no outer"
    if len(outer) == 1:
        assert not att.brute and att.outer_env is None
        assert att.ids.tolist() == sorted(fixed + outer)
        return "one outer"
    try:
        ref = normalize([fns[i] for i in outer], ball, indices=outer)
    except DomainError:
        assert att.brute and att.outer_env is None
        return "brute"
    assert not att.brute
    members = np.isin(np.arange(index.n), outer)
    survivors = screen(index.family, ball, members, range(index.n)).tolist()
    env = att.outer_env
    if env is None:
        assert att.ids.tolist() == sorted(fixed + survivors)
        if len(survivors) == 1:
            assert survivors == ref.kept_indices.tolist()
            return "single survivor"
        # The paper's keep rule keeps some of the survivors.
        assert set(ref.kept_indices.tolist()) <= set(survivors)
        return "exact"
    assert att.ids.tolist() == sorted(fixed)
    assert env.kept_ids.tolist() == survivors
    paper = ConcaveEnvelope(normalize(index.family.take(survivors), ball, indices=survivors),
                            index.eps / 5.0)
    box = leaf.cell.outer
    for x in np.random.default_rng(leaf.node).uniform(box.low, box.high, (12, index.dim)):
        u = env.unit_point(x)
        assert (env.kept_ids[env.cell_witnesses(u)].tolist()
                == paper.kept_ids[paper.cell_witnesses(u)].tolist())
    return "envelope"


CASES = [
    ("l2", 2, "single survivor"),
    ("l3", 2, "single survivor"),
    ("mahalanobis", 3, "envelope"),
    ("ellipse", 2, "envelope"),
    ("kl", 2, "brute"),
    ("is", 2, "brute"),
    ("sq-mahalanobis", 2, "brute"),
]


@pytest.mark.parametrize("tag,d,expect", CASES)
def test_screened_attachment_matches_unscreened_build(monkeypatch, tag, d, expect):
    """With ``EXACT_MAX`` at 0, a leaf with two or more survivors builds an
    envelope whose cell witnesses are the paper's."""
    monkeypatch.setattr(ann, "EXACT_MAX", 0)
    rng = np.random.default_rng(5)
    fns = _family(tag, rng, 50, d)
    index = build_index(fns, 0.25)
    seen = [_compare_leaf(index, fns, leaf) for leaf in _leaves(index, rng, 60)]
    assert expect in seen
    assert "envelope" in seen


@pytest.mark.parametrize("tag,d,expect", CASES)
def test_exact_leaves_hold_every_survivor(tag, d, expect):
    """At ``EXACT_MAX``, the same leaves hold every survivor of the screen
    over all their outer sites as a candidate and build no envelope."""
    rng = np.random.default_rng(5)
    fns = _family(tag, rng, 50, d)
    index = build_index(fns, 0.25)
    seen = [_compare_leaf(index, fns, leaf) for leaf in _leaves(index, rng, 60)]
    assert ("exact" if expect == "envelope" else expect) in seen
    assert "exact" in seen and "envelope" not in seen


def test_single_survivor_out_of_domain_goes_brute():
    """A Bregman leaf whose screen keeps one of several outer members but
    whose ball leaves the domain is a brute leaf, as normalize makes it."""
    rng = np.random.default_rng(5)
    fns = _family("sq-mahalanobis", rng, 50, 2)
    index = build_index(fns, 0.25)
    hits = 0
    for leaf in _leaves(index, rng, 80):
        if _compare_leaf(index, fns, leaf) != "brute":
            continue
        outer = _fids(index, leaf.outer_positions())
        ball = enclosing_ball(leaf.cell)
        dists = np.maximum(0.0, np.linalg.norm(index.points[outer] - ball.center, axis=1)
                           - ball.radius)
        lo, hi = batch_value_bounds([fns[i] for i in outer], dists)
        hits += int(np.count_nonzero(prune_screen(lo, hi)) == 1)
    assert hits > 0


def test_screen_of_a_taken_subfamily_equals_the_full_family_screen():
    """Screening some members of a family keeps the same members as
    screening the sub-family holding just them. The index screens a leaf's
    outer sites in its whole family and ``normalize`` screens the survivors
    again, in their own family, so it keeps them all."""
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        ball = EuclideanBall(np.full(d, 0.5), 0.002)
        P = [p for p in rng.random((1500, d)) if np.linalg.norm(p - ball.center) > 0.2]
        family = SiteFamily([random_gauge_fn(rng, d, site=p) for p in P])
        assert len(family.groups) > 1
        everyone = np.ones(len(P), dtype=bool)
        survivors = screen(family, ball, everyone, range(len(P)))
        assert 1 < len(survivors) < len(P)
        again = screen(family.take(survivors), ball, np.ones(len(survivors), dtype=bool),
                       survivors)
        assert again.tolist() == list(range(len(survivors)))
        for _ in range(200):
            members = np.sort(rng.choice(len(P), size=int(rng.integers(1, 400)), replace=False))
            mask = np.zeros(len(P), dtype=bool)
            mask[members] = True
            sub = screen(family.take(members), ball, np.ones(len(members), dtype=bool), members)
            assert members[sub].tolist() == screen(family, ball, mask, range(len(P))).tolist()


def _answers(index, queries, order):
    out = [None] * len(queries)
    for i in order:
        out[i] = index.query(queries[i])
    return out


def test_answers_independent_of_query_order():
    rng = np.random.default_rng(21)
    fns = gen_family("kl", gen_sites(rng, 400, 2, "kl"), rng)
    queries = gen_queries(rng, 500, 2, "kl")
    in_order = build_index(fns, 0.1)
    expected = _answers(in_order, queries, range(len(queries)))
    assert in_order.stats["brute_leaves"] > 0
    shuffled = build_index(fns, 0.1)
    assert _answers(shuffled, queries, rng.permutation(len(queries))) == expected
    assert shuffled.stats["brute_leaves"] == in_order.stats["brute_leaves"]


def test_loaded_index_answers_like_lazy_index(tmp_path):
    """A copy loaded from a file answers shuffled queries like the lazy
    index it was saved from and sends the same leaves to brute force."""
    rng = np.random.default_rng(21)
    fns = gen_family("kl", gen_sites(rng, 400, 2, "kl"), rng)
    queries = gen_queries(rng, 500, 2, "kl")
    in_order = build_index(fns, 0.1)
    expected = _answers(in_order, queries, range(len(queries)))
    assert in_order.stats["brute_leaves"] > 0
    path = str(tmp_path / "kl.eann")
    save_index(in_order, path)
    loaded = load_index(path)
    assert _answers(loaded, queries, rng.permutation(len(queries))) == expected
    assert loaded.stats["brute_leaves"] == in_order.stats["brute_leaves"]
