"""The index's outer-site screen against the unscreened leaf build.

Before a leaf envelope is built, AnnIndex drops every outer site that the
prune screen of ``normalize`` would discard unestimated. The reference here
is the build without that step: ``normalize`` over the leaf's full outer
site list, which must keep the same members at the same scale and send the
same leaves to brute force.
"""

import numpy as np
import pytest

from eann._batch import batch_value_bounds
from eann.ann import build_index, load_index, save_index
from eann.cli import gen_family, gen_queries, gen_sites
from eann.convexify import normalize, prune_screen
from eann.distances import (
    DomainError,
    GaugeParams,
    make_bregman,
    make_custom_gauge,
    squared_mahalanobis_spec,
)
from eann.geom import enclosing_ball

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
    return sorted(i for pos in positions for i in index.tree.site_groups[pos].tolist())


def _compare_leaf(index, leaf) -> str:
    """Check one leaf's attachment against the unscreened build; returns
    which case the leaf fell in."""
    outer = _fids(index, leaf.outer_positions())
    ball = enclosing_ball(leaf.cell)
    att = index._attachment(leaf)
    assert att.single_fids == _fids(index, leaf.in_cell)
    assert att.inner_fids == _fids(index, leaf.inner)
    if not outer:
        assert att.outer_avr is None and not att.brute
        return "no outer"
    if len(outer) == 1:
        assert not att.brute and att.outer_avr.indices == outer
        return "one outer"
    try:
        ref = normalize([index.sites[i] for i in outer], ball, indices=outer, accuracy="fast")
    except DomainError:
        assert att.brute and att.outer_avr is None
        return "brute"
    assert not att.brute
    avr = att.outer_avr
    assert set(avr.indices) <= set(outer)
    if avr.trivial:
        assert ref.kept_indices == avr.indices
        return "single survivor"
    assert avr.normalized.kept_indices == ref.kept_indices
    assert avr.normalized.scale_h == ref.scale_h
    assert avr.normalized.f1_min == ref.f1_min
    return "envelope"


@pytest.mark.parametrize("tag,d,expect", [
    ("l2", 2, "single survivor"),
    ("l3", 2, "single survivor"),
    ("mahalanobis", 3, "envelope"),
    ("ellipse", 2, "envelope"),
    ("kl", 2, "brute"),
    ("is", 2, "brute"),
    ("sq-mahalanobis", 2, "brute"),
])
def test_screened_attachment_matches_unscreened_build(tag, d, expect):
    rng = np.random.default_rng(5)
    index = build_index(_family(tag, rng, 50, d), 0.25)
    seen = [_compare_leaf(index, leaf) for leaf in _leaves(index, rng, 60)]
    assert expect in seen
    assert "envelope" in seen


def test_single_survivor_out_of_domain_goes_brute():
    """A Bregman leaf whose screen keeps one of several outer members but
    whose ball leaves the domain is a brute leaf, as normalize makes it."""
    rng = np.random.default_rng(5)
    index = build_index(_family("sq-mahalanobis", rng, 50, 2), 0.25)
    hits = 0
    for leaf in _leaves(index, rng, 80):
        if _compare_leaf(index, leaf) != "brute":
            continue
        outer = _fids(index, leaf.outer_positions())
        ball = enclosing_ball(leaf.cell)
        dists = np.maximum(0.0, np.linalg.norm(index.points[outer] - ball.center, axis=1)
                           - ball.radius)
        lo, hi = batch_value_bounds([index.sites[i] for i in outer], dists)
        hits += int(np.count_nonzero(prune_screen(lo, hi)) == 1)
    assert hits > 0


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
