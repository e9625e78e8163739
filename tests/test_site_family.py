"""SiteFamily, the struct-of-arrays family, against the per-site
SiteFunction objects it is built from.

Both run the same kernels, a site function over itself alone, so cross
values and row-paired values, gradients and Hessians must agree bit for
bit; value bounds must bracket every value at the given distance.
"""

import tracemalloc

import numpy as np
import pytest

from eann._batch import SiteFamily, batch_value_bounds, batch_values
from eann.ann import brute_force, build_index
from eann.cli import gen_family, gen_sites
from eann.distances import (
    DomainError,
    generalized_kl_spec,
    make_bregman,
    make_mahalanobis,
    make_minkowski,
    minkowski_sites,
    squared_mahalanobis_spec,
)

from conftest import ellipse_gauge

# (tag, d, Bregman?) for every kind the kernel covers.
KINDS = [
    ("l1.5", 2, False),
    ("l2", 2, False),
    ("l3", 2, False),
    ("wl2", 2, False),
    ("mahalanobis", 3, False),
    ("ellipse", 2, False),
    ("kl", 2, True),
    ("is", 3, True),
    ("sq-mahalanobis", 2, True),
]


def _family(tag, d, rng, n=7):
    if tag == "ellipse":
        return [ellipse_gauge(p) for p in rng.random((n, d))]
    if tag == "sq-mahalanobis":
        spec = squared_mahalanobis_spec(np.array([[2.0, 0.5], [0.5, 1.0]]), 0.1, 1.0)
        return [make_bregman(spec, p) for p in gen_sites(rng, n, d, "kl")]
    return gen_family(tag, gen_sites(rng, n, d, tag), rng)


def _points(rng, count, d, bregman):
    return rng.uniform(0.15, 0.95, size=(count, d)) if bregman else rng.random((count, d))


def _per_site_values(fns, X):
    return np.column_stack([f.value(X) for f in fns])


def _assert_rows_equal(tag, actual, desired):
    """Equal bit for bit, except that the squared-Mahalanobis generator F is
    an einsum whose rounding depends on how many rows it gets at once."""
    if tag == "sq-mahalanobis":
        np.testing.assert_allclose(actual, desired, rtol=1e-14, atol=0.0)
    else:
        np.testing.assert_array_equal(actual, desired)


@pytest.mark.parametrize("tag,d,bregman", KINDS, ids=[k[0] for k in KINDS])
def test_kernel_matches_per_site_functions(tag, d, bregman, rng):
    fns = _family(tag, d, rng)
    fam = SiteFamily(fns)
    X = _points(rng, 5, d, bregman)
    np.testing.assert_array_equal(fam.values(X), _per_site_values(fns, X))
    np.testing.assert_array_equal(batch_values(fns, X), fam.values(X))
    np.testing.assert_array_equal(fam.values(X[0]), fam.values(X[:1]))

    Xp = _points(rng, len(fns), d, bregman)
    _assert_rows_equal(tag, fam.paired(Xp), [f.value(x) for f, x in zip(fns, Xp)])
    _assert_rows_equal(tag, fam.gradients(Xp), [f.gradient(x) for f, x in zip(fns, Xp)])
    _assert_rows_equal(tag, fam.hessians(Xp), [f.hessian(x) for f, x in zip(fns, Xp)])
    grid = np.stack([Xp, _points(rng, len(fns), d, bregman)])
    _assert_rows_equal(tag, fam.paired(grid), np.stack([fam.paired(g) for g in grid]))

    np.testing.assert_array_equal(fam.P, np.stack([f.site for f in fns]))
    np.testing.assert_array_equal(fam.tau, [f.tau for f in fns])


@pytest.mark.parametrize("tag,d,bregman", KINDS, ids=[k[0] for k in KINDS])
def test_value_bounds_bracket_values_at_distance(tag, d, bregman, rng):
    fns = _family(tag, d, rng)
    fam = SiteFamily(fns)
    dists = rng.uniform(0.01, 0.05, size=len(fns))
    lo, hi = fam.value_bounds(dists)
    lo_l, hi_l = batch_value_bounds(fns, dists)
    np.testing.assert_array_equal(lo, lo_l)
    np.testing.assert_array_equal(hi, hi_l)
    u = rng.standard_normal((256, d))
    u /= np.linalg.norm(u, axis=1)[:, None]
    for i, f in enumerate(fns):
        pts = f.site[None, :] + dists[i] * u
        vals = f.value(pts[np.broadcast_to(f.in_domain(pts), len(pts))])
        assert np.all(lo[i] <= vals * (1.0 + 1e-12))
        assert np.all(vals <= hi[i] * (1.0 + 1e-12))
    # Bounds scale linearly with distance for gauges, quadratically for Bregman.
    lo2, hi2 = fam.value_bounds(2.0 * dists)
    np.testing.assert_allclose(lo2, lo * (4.0 if bregman else 2.0), rtol=1e-14)
    np.testing.assert_allclose(hi2, hi * (4.0 if bregman else 2.0), rtol=1e-14)


@pytest.mark.parametrize("tag,d,bregman", KINDS, ids=[k[0] for k in KINDS])
def test_take_and_resite_match_rebuilt_families(tag, d, bregman, rng):
    fns = _family(tag, d, rng)
    fam = SiteFamily(fns)
    idx = [5, 0, 3, 3]
    sub, ref = fam.take(idx), SiteFamily([fns[i] for i in idx])
    X = _points(rng, 4, d, bregman)
    np.testing.assert_array_equal(sub.values(X), ref.values(X))
    np.testing.assert_array_equal(sub.paired(X), ref.paired(X))
    np.testing.assert_array_equal(sub.gradients(X), ref.gradients(X))
    np.testing.assert_array_equal(sub.P, ref.P)
    np.testing.assert_array_equal(sub.tau, ref.tau)
    dists = rng.uniform(0.1, 0.2, size=len(idx))
    for a, b in zip(sub.value_bounds(dists), ref.value_bounds(dists)):
        np.testing.assert_array_equal(a, b)

    p = _points(rng, 1, d, bregman)[0]
    if bregman:
        with pytest.raises(ValueError, match="cannot be re-sited"):
            fam.resite(p)
        return
    moved = fam.resite(p)
    np.testing.assert_array_equal(moved.P, np.tile(p, (len(fns), 1)))
    np.testing.assert_array_equal(moved.tau, fam.tau)
    np.testing.assert_array_equal(moved.values(X), _per_site_values([f.resite(p) for f in fns], X))


@pytest.mark.parametrize("tag,d", [("kl", 2), ("is", 3), ("sq-mahalanobis", 2)])
def test_bregman_cross_values_reject_points_outside_domain(tag, d, rng):
    """The oracle checks its query; ``values`` trusts its points, as
    ``paired`` does."""
    fam = SiteFamily(_family(tag, d, rng))
    X = _points(rng, 3, d, True)
    X[1, 0] = 0.05
    with pytest.raises(DomainError, match="query outside domain"):
        brute_force(fam, X[1])


def test_mixed_family_keeps_member_order(rng):
    """Several kernels in one family: every method answers in member order."""
    d = 2
    fns = []
    for i, p in enumerate(rng.random((12, d))):
        if i % 4 == 0:
            fns.append(make_minkowski(p, 2.0, 1.5))
        elif i % 4 == 1:
            fns.append(make_minkowski(p, 3.0))
        elif i % 4 == 2:
            fns.append(make_mahalanobis(p, np.array([[2.0, 0.3], [0.3, 1.0]])))
        else:
            fns.append(ellipse_gauge(p))
    fam = SiteFamily(fns)
    assert len(fam.groups) == 4
    X = rng.random((6, d))
    np.testing.assert_array_equal(fam.values(X), _per_site_values(fns, X))
    Xp = rng.random((len(fns), d))
    np.testing.assert_array_equal(fam.paired(Xp), [f.value(x) for f, x in zip(fns, Xp)])
    np.testing.assert_array_equal(fam.gradients(Xp), [f.gradient(x) for f, x in zip(fns, Xp)])
    idx = [11, 2, 7, 0, 5]
    sub, ref = fam.take(idx), SiteFamily([fns[i] for i in idx])
    np.testing.assert_array_equal(sub.values(X), ref.values(X))
    np.testing.assert_array_equal(sub.gradients(Xp[:5]), ref.gradients(Xp[:5]))
    dists = rng.uniform(0.1, 0.2, size=len(idx))
    for a, b in zip(sub.value_bounds(dists), ref.value_bounds(dists)):
        np.testing.assert_array_equal(a, b)
    w, v = brute_force(fam, X[0])
    assert (w, v) == brute_force(fns, X[0])
    assert v == fns[w].value(X[0])


def test_take_of_a_mixed_family_allocates_for_the_members_taken(rng):
    """``take`` on a family of two kernel groups reads each member's group
    and kernel row from arrays built with the family: at n=64,000, taking
    14 members allocates a few KB, not the n-long arrays (1 MB) that
    rebuilding them on every call would."""
    n = 64000
    P = rng.random((n, 2))
    even = np.arange(n) % 2 == 0
    fam = SiteFamily.from_groups([
        (np.flatnonzero(mask), *minkowski_sites(P[mask], k, np.ones(n // 2)))
        for mask, k in ((even, 2.0), (~even, 3.0))])
    idx = rng.choice(n, size=14, replace=False)
    fam.take(idx)
    tracemalloc.start()
    try:
        sub = fam.take(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024, peak
    ref = SiteFamily([make_minkowski(P[i], 2.0 if i % 2 == 0 else 3.0) for i in idx])
    X = rng.random((5, 2))
    np.testing.assert_array_equal(sub.values(X), ref.values(X))
    np.testing.assert_array_equal(sub.tau, ref.tau)
    again = sub.take([3, 0, 13])
    np.testing.assert_array_equal(again.values(X), ref.values(X)[:, [3, 0, 13]])


def test_empty_family_rejected():
    with pytest.raises(ValueError, match="empty family"):
        SiteFamily([])


def test_equal_builtin_generators_held_apart_share_one_kernel(rng):
    """Sites whose equal built-in generators are distinct objects form one
    kernel group, with values and tau bit for bit those of a family sharing
    one generator object; an index accepts them, and rejects a second
    generator."""
    P = gen_sites(rng, 40, 2, "kl")
    shared_spec = generalized_kl_spec(2)
    shared = SiteFamily([make_bregman(shared_spec, p) for p in P])
    apart = SiteFamily([make_bregman(generalized_kl_spec(2), p) for p in P])
    assert len(apart.groups) == 1
    assert apart.tau.tobytes() == shared.tau.tobytes()
    X = gen_sites(rng, 30, 2, "kl")
    assert batch_values(apart, X).tobytes() == batch_values(shared, X).tobytes()
    build_index([make_bregman(generalized_kl_spec(2), p) for p in P], 0.25)
    with pytest.raises(ValueError, match="share one generator"):
        build_index([make_bregman(generalized_kl_spec(2), P[0]),
                     make_bregman(generalized_kl_spec(2, 0.05, 1.0), P[1])], 0.25)


def test_sites_of_different_dimensions_rejected_by_name(rng):
    """A family, a brute-force scan or an index over a 2-d and a 3-d site
    raises a ``ValueError`` naming both dimensions, whether the family comes
    from site functions or from kernel groups."""
    fns = [make_minkowski(rng.random(2), 2.0), make_minkowski(rng.random(3), 2.0)]
    message = r"sites must share one dimension, got \[2, 3\]"
    for call in (SiteFamily, lambda f: brute_force(f, np.zeros(2)),
                 lambda f: build_index(f, 0.25), lambda f: build_index(f[::-1], 0.25)):
        with pytest.raises(ValueError, match=message):
            call(fns)
    groups = [(np.array([0]), fns[0].kernel, 1.0), (np.array([1]), fns[1].kernel, 1.0)]
    with pytest.raises(ValueError, match=message):
        SiteFamily.from_groups(groups)
