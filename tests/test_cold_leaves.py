"""Cold leaf builds: what a leaf runs and what it keeps.

A leaf whose prune screen keeps at most ``EXACT_MAX`` outer sites keeps
their ids and evaluates them all at each query. Above that, an envelope
leaf builds its witness lattice over the survivors. Neither runs the
paper's convexification (``normalize``, with its Frank-Wolfe ball minima
and keep rule), and both keep site ids, not a copy of their family, beside
a typed tree table. The uniform cases below set ``EXACT_MAX`` to 0 to
build envelope leaves; the probe's leaves exceed it.
"""

import gc
import importlib
import tracemalloc

import numpy as np
import pytest

from eann import ann
from eann._batch import SiteFamily
from eann.ann import brute_force, build_index
from eann.cli import gen_family, gen_queries, gen_sites
from eann.distances import make_bregman, minkowski_sites, squared_mahalanobis_spec

# The package namespace binds ``convexify`` to the function of that name.
convexify, envelope = (importlib.import_module("eann." + m) for m in ("convexify", "envelope"))


def _probe(m, rng):
    """``m`` l3 sites on a circle about (0.5, 0.5) and queries within 0.01
    of its center, where every site survives the screen."""
    angles = 2.0 * np.pi * np.arange(m) / m
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    family = SiteFamily.from_groups([(slice(None),
                                      *minkowski_sites(0.5 + 0.4 * dirs, 3.0, np.ones(m)))])
    offsets = rng.standard_normal((40, 2))
    offsets *= 0.01 * rng.random((40, 1)) / np.linalg.norm(offsets, axis=1)[:, None]
    return family, 0.5 + offsets


def _uniform(tag, n, d, rng):
    return gen_family(tag, gen_sites(rng, n, d, tag), rng), gen_queries(rng, 60, d, tag)


def _refuse(*args, **kwargs):
    raise AssertionError("an index leaf ran the paper's convexification")


@pytest.mark.parametrize("case,eps", [
    (("l3", 2000, 2), 0.1),
    (("kl", 1000, 2), 0.1),
    (("mahalanobis", 600, 3), 0.25),
    ("probe", 0.1),
], ids=["l3", "kl", "mahalanobis-d3", "probe-m500"])
def test_cold_leaves_answer_without_normalize(monkeypatch, case, eps):
    """With ``normalize`` and the ball-minimum estimator made to raise,
    cold queries build envelope leaves and answer within (1+eps) of the
    exact minimum."""
    rng = np.random.default_rng(17)
    family, queries = _probe(500, rng) if case == "probe" else _uniform(*case, rng)
    if case != "probe":
        monkeypatch.setattr(ann, "EXACT_MAX", 0)
    monkeypatch.setattr(convexify, "normalize", _refuse)
    monkeypatch.setattr(convexify, "fast_min_estimates", _refuse)
    monkeypatch.setattr(envelope, "normalize", _refuse)
    index = build_index(family, eps)
    for q in queries:
        _, value = index.query(q)
        assert value <= (1.0 + eps) * brute_force(family, q)[1] * (1.0 + 1e-12), q
    envelopes = [leaf for leaf in index.tree.built_leaves()
                 if leaf.attachment is not None and leaf.attachment.outer_env is not None]
    assert envelopes, "no envelope leaf was built"


@pytest.mark.parametrize("d", [2, 3])
def test_tight_bregman_cluster_answers_within_eps(monkeypatch, d):
    """Squared-Mahalanobis sites about 1e-8 apart at the origin of a unit
    domain box, where the divergences, about 1e-16, are computed to full
    relative precision. A witness is the argmin of the survivors' values:
    with the concavifying offset (up to 1/8) added to values that small,
    every member rounds to the same sum and the lowest id wins every anchor."""
    monkeypatch.setattr(ann, "EXACT_MAX", 0)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((d, d))
    spec = squared_mahalanobis_spec(A @ A.T + d * np.eye(d), -1.0, 1.0)
    family = SiteFamily.of([make_bregman(spec, p) for p in rng.uniform(-1e-8, 1e-8, (200, d))])
    eps = 0.1
    index = build_index(family, eps)
    for q in rng.uniform(-1e-8, 1e-8, (300, d)):
        _, value = index.query(q)
        assert value <= (1.0 + eps) * brute_force(family, q)[1] * (1.0 + 1e-12), q
    assert any(leaf.attachment is not None and leaf.attachment.outer_env is not None
               for leaf in index.tree.built_leaves()), "no envelope leaf was built"


# KB retained per cold query as measured on this code with CPython 3.11.7
# and numpy 2.4.6 on 64-bit Linux; another interpreter or numpy allocates
# differently, so remeasure there. Before envelopes kept survivor ids in
# place of a family copy, and the tree typed columns in place of lists, the
# same runs retained 8.03 and 8.44 KB; before exact leaves kept only ids,
# 4.70 and 5.11 KB; before near sets came from a grid of the positions,
# 2.28 and 2.49 KB; before the tree's nodes with two or more sites were
# built with the index, 2.13 and 2.33 KB (1.85 and 2.04 KB remeasured on
# that code).
RETAINED_KB = {"l3": 1.41, "kl": 1.72}


@pytest.mark.parametrize("tag,n", [("l3", 4000), ("kl", 2000)])
def test_memory_retained_per_cold_query(tag, n):
    """Bytes the index keeps per cold query (tracemalloc, 300 queries after
    100 warm-up ones) stay within 1.25 times the measured figure."""
    rng = np.random.default_rng(11)
    family = gen_family(tag, gen_sites(rng, n, 2, tag), rng)
    queries = gen_queries(rng, 400, 2, tag)
    gc.collect()
    tracemalloc.start()
    try:
        index = build_index(family, 0.1)
        for q in queries[:100]:
            index.query(q)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for q in queries[100:]:
            index.query(q)
        gc.collect()
        kept = (tracemalloc.get_traced_memory()[0] - before) / 300 / 1024
    finally:
        tracemalloc.stop()
    assert index.stats["queries"] == 400
    assert kept <= 1.25 * RETAINED_KB[tag], f"{kept:.2f} KB per cold query"


@pytest.mark.parametrize("exact_max", [ann.EXACT_MAX, 0], ids=["EXACT_MAX", "zero"])
def test_storage_stats_count_exact_and_envelope_leaves(monkeypatch, exact_max):
    """On the probe with 100 sites, every site survives the screen of the
    leaves about its center: they are exact leaves at ``EXACT_MAX`` and
    envelope leaves at 0. ``storage_stats`` counts each kind over the
    built leaves, and expands no node."""
    monkeypatch.setattr(ann, "EXACT_MAX", exact_max)
    family, queries = _probe(100, np.random.default_rng(17))
    index = build_index(family, 0.1)
    for q in queries:
        index.query(q)
    expansions = index.tree.expansions
    stats = index.storage_stats()
    assert index.tree.expansions == expansions
    built = [leaf for leaf in index.tree.built_leaves() if leaf.attachment is not None]
    for leaf in built:
        att = leaf.attachment
        held = att.ids if att.outer_env is None else att.outer_env.kept_ids
        assert held.size == 100
    assert built
    kinds = (len(built), 0) if exact_max else (0, len(built))
    assert (stats["exact_leaves"], stats["envelope_leaves"]) == kinds
    assert (stats["envelope_samples"] > 0) == (exact_max == 0)
