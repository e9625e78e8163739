import copy

import numpy as np
import pytest

from eann import build_index, make_minkowski
from eann.avd import _LEAF, _NO_IDS, _PENDING, AvdConfig, AvdTree, build_avd, check_leaf


def test_config_validation():
    with pytest.raises(ValueError):
        AvdConfig(1.5, 10.0)
    with pytest.raises(ValueError):
        AvdConfig(2.0, 1.0)
    AvdConfig(2.0, 2.0)


def test_single_site():
    tree = build_avd(np.array([[0.5, 0.5]]), AvdConfig(2.0, 50.0))
    leaves = tree.leaves()
    for leaf in leaves:
        assert check_leaf(tree, leaf) == []
    leaf, visits = tree.locate(np.array([0.5, 0.5]))
    assert leaf is not None
    assert 0 in leaf.in_cell
    outside, _ = tree.locate(np.array([100.0, 100.0]))
    assert outside is None


def test_two_sites_classification():
    sites = np.array([[0.0, 0.0], [1.0, 0.0]])
    tree = build_avd(sites, AvdConfig(2.0, 4.0))
    for leaf in tree.leaves():
        assert check_leaf(tree, leaf) == []


def test_duplicate_sites_merged():
    sites = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.8]])
    tree = build_avd(sites, AvdConfig(2.0, 10.0))
    assert tree.n_positions == 2
    # Both original ids map to the shared position, lowest first.
    pos = tree.position_of_site[0]
    assert tree.position_of_site[1] == pos
    assert np.flatnonzero(tree.position_of_site == pos).tolist() == [0, 1]
    for leaf in tree.leaves():
        assert check_leaf(tree, leaf) == []


@pytest.mark.parametrize("n,d,alpha,beta", [
    (40, 2, 2.0, 40.0),
    (100, 2, 2.83, 100.0),
    (25, 3, 2.0, 30.0),
    (30, 2, 6.0, 400.0),
])
def test_leaf_invariants_random(n, d, alpha, beta, rng):
    sites = rng.random((n, d))
    tree = build_avd(sites, AvdConfig(alpha, beta))
    problems = []
    for leaf in tree.leaves():
        problems.extend(check_leaf(tree, leaf))
    assert problems == []


def test_locate_membership(rng):
    sites = rng.random((80, 2))
    tree = build_avd(sites, AvdConfig(2.83, 80.0))
    for _ in range(1000):
        q = rng.uniform(-0.1, 1.1, size=2)
        leaf, visits = tree.locate(q)
        if leaf is None:
            assert not (np.all(q >= tree.root_box.low) and np.all(q < tree.root_box.high))
            continue
        assert leaf.cell.contains(q, tol=1e-12)
        assert visits <= tree.cfg.max_depth + 1


def test_locate_site_positions(rng):
    sites = rng.random((50, 2))
    tree = build_avd(sites, AvdConfig(2.0, 50.0))
    for i, p in enumerate(sites):
        leaf, _ = tree.locate(p)
        assert leaf is not None
        pos = tree.position_of_site[i]
        # The site's own position is never classified as outer for its leaf.
        assert pos in leaf.in_cell or pos in leaf.inner or leaf.cell.contains(p)


def test_leaf_count_bound(rng):
    """Node growth stays within the alpha^d * n * log(beta) regime."""
    n, alpha, beta = 100, 2.0, 100.0
    sites = rng.random((n, 2))
    tree = build_avd(sites, AvdConfig(alpha, beta))
    count = tree.leaf_count()
    bound = 50.0 * alpha**2 * n * np.log2(beta)
    assert count <= bound


def test_leaf_count_roughly_linear(rng):
    counts = {}
    for n in (100, 400):
        sites = rng.random((n, 2))
        tree = build_avd(sites, AvdConfig(2.83, 30.0))
        counts[n] = tree.leaf_count()
    ratio = (counts[400] / 400) / (counts[100] / 100)
    assert 0.5 <= ratio <= 2.0


def test_depth_growth(rng):
    """Locate path length grows slowly with n."""
    means = {}
    for n in (100, 400, 1600):
        sites = rng.random((n, 2))
        tree = build_avd(sites, AvdConfig(2.83, 60.0))
        qs = rng.random((300, 2))
        visits = [tree.locate(q)[1] for q in qs]
        means[n] = np.mean(visits)
    assert means[400] - means[100] <= 4.0
    assert means[1600] - means[400] <= 4.0


def test_cover_partition(rng):
    """Leaves tile the root box: every probe lands in exactly one leaf whose
    cell contains it."""
    sites = rng.random((20, 2))
    tree = build_avd(sites, AvdConfig(2.0, 25.0))
    leaves = tree.leaves()
    for _ in range(150):
        q = rng.random(2) * 1.2 - 0.1
        leaf, _ = tree.locate(q)
        if leaf is None:
            continue
        containing = [l for l in leaves if l.cell.contains(q, tol=0.0)]
        assert leaf in containing


def test_serialization_roundtrip(rng):
    """A tree serializes as its configuration record, without expanding."""
    sites = rng.random((60, 3))
    for cfg in (AvdConfig(2.83, 60.0), AvdConfig(2.0, 1e6, max_depth=40)):
        tree = build_avd(sites, cfg)
        blob = tree.to_bytes()
        assert len(blob) == 24
        assert tree._expansions == 0
        assert AvdTree.from_bytes(blob) == (3, cfg)
    with pytest.raises(ValueError, match="23 bytes"):
        AvdTree.from_bytes(blob[:-1])


def test_integer_grid_sites(rng):
    """Dyadic site coordinates force exact midpoint coincidences; the
    partition must still cover every site."""
    xs = np.arange(4.0)
    sites = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    tree = build_avd(sites, AvdConfig(2.0, 16.0))
    for leaf in tree.leaves():
        assert check_leaf(tree, leaf) == []
    for p in sites:
        leaf, _ = tree.locate(p)
        assert leaf is not None


def test_collinear_and_clustered_sites(rng):
    sites = np.concatenate([
        np.stack([np.linspace(0, 1, 10), np.zeros(10)], axis=1),
        np.full((5, 2), 0.25) + rng.uniform(-1e-6, 1e-6, size=(5, 2)),
    ])
    tree = build_avd(sites, AvdConfig(2.0, 40.0))
    for leaf in tree.leaves():
        assert check_leaf(tree, leaf) == []


def test_split_skips_an_axis_too_thin_to_halve():
    """Sites 4e-219 apart on a shared x: shrinks squeeze x to one float of
    width, where its midpoint rounds onto an end, so splits must halve y.
    Splitting the wider x forever used to exceed the maximum depth."""
    sites = np.array([[0.125, 0.0], [0.125, 4.276574004239104e-219]])
    tree = build_avd(sites, AvdConfig(2.0, 4.0))
    for p in sites:
        leaf, _ = tree.locate(p)
        assert leaf.cell.contains(p, tol=0.0)
        assert check_leaf(tree, leaf) == []


def test_lazy_matches_materialized(rng):
    """Expansion order does not change the leaves a query reaches."""
    sites = rng.random((40, 2))
    cfg = AvdConfig(2.83, 40.0)
    lazy = build_avd(sites, cfg)
    eager = build_avd(sites, cfg)
    eager.materialize()
    for _ in range(300):
        q = rng.uniform(0.0, 1.0, size=2)
        l1, v1 = lazy.locate(q)
        l2, v2 = eager.locate(q)
        assert v1 == v2
        assert np.array_equal(l1.in_cell, l2.in_cell)
        assert np.array_equal(np.sort(l1.inner), np.sort(l2.inner))


def test_site_id_arrays_are_int32(rng):
    """Site ids live in one int32 pool. Pending frontier nodes keep spans of
    it for their assigned sites and chains of spans for the parts their
    near sets are filtered from, and leaves keep int32 arrays; expanded
    nodes and leaves keep no span."""
    sites = np.vstack([rng.random((150, 2)), rng.random((10, 2))[[0, 0, 1]]])
    tree = build_avd(sites, AvdConfig(2.0, 40.0))
    for q in rng.random((30, 2)):
        tree.locate(q)
    arrays = [tree.position_of_site, tree._ids]
    longest_parts = 0
    for node in range(tree.tree_nodes()):
        if tree._kind[node] == _PENDING:
            arrays += [tree._assigned(node), tree._near_parts(node)]
            parts, seg = 0, tree._near[node]
            while seg >= 0:
                parts, seg = parts + 1, tree._seg[3 * seg]
            longest_parts = max(longest_parts, parts)
        else:
            assert tree._span[2 * node + 1] == 0 and tree._near[node] == -1
        if tree._kind[node] == _LEAF:
            leaf = tree._leaves[tree._leaf[node]]
            arrays += [leaf.in_cell, leaf.inner]
    assert longest_parts > 1
    assert _NO_IDS.dtype == np.int32 and len(_NO_IDS) == 0
    assert {a.dtype for a in arrays} == {np.dtype(np.int32)}


def test_sites_1e30_apart_separate():
    """Sites 1e-30 apart in a root box about 1e-9 wide need more halvings
    than the configured maximum depth; the budget derived from the sites
    allows them, and every leaf keeps its separation properties."""
    tree = build_avd([[0.0, 0.0], [0.0, 1e-30]], AvdConfig(2.0, 4.0))
    leaves = tree.leaves()
    assert max(leaf.depth for leaf in leaves) > tree.cfg.max_depth
    for leaf in leaves:
        assert check_leaf(tree, leaf) == []


def test_built_leaves_expand_nothing(rng):
    tree = build_avd(rng.random((40, 2)), AvdConfig(2.83, 40.0))
    assert tree.built_leaves() == []
    leaf, _ = tree.locate(np.full(2, 0.5))
    expansions = tree._expansions
    assert leaf in tree.built_leaves()
    assert tree._expansions == expansions
    assert tree.leaves() == tree.built_leaves()


def test_check_leaf_sees_a_site_misrouted_into_a_tiny_cell():
    """The in-cell tolerance scales with the cell: a leaf of the 1e-30
    pair's tree, made to hold a site that lies outside its cell by more
    than the cell's width, fails the check."""
    tree = build_avd([[0.0, 0.0], [0.0, 1e-30]], AvdConfig(2.0, 4.0))
    leaf, there = next((leaf, pos) for leaf in tree.leaves() for pos in range(2)
                       if leaf.cell.outer.distance_to_point(tree.positions[pos])
                       > float(np.max(leaf.cell.outer.sides)))
    assert check_leaf(tree, leaf) == []
    misrouted = copy.copy(leaf)
    misrouted.in_cell = np.array([there], dtype=np.int32)
    assert f"in-cell site {there} outside cell" in check_leaf(tree, misrouted)


def test_tree_bytes_per_cold_leaf():
    """The node table and id pool of a cold l3 index hold at most half of
    the 20.9 KB per built leaf that the object tree retained (tracemalloc,
    same inputs), and storage_stats reports them without expanding a node."""
    rng = np.random.default_rng(7)
    index = build_index([make_minkowski(p, 3.0) for p in rng.random((4000, 2))], 0.1)
    fresh = index.storage_stats()
    assert fresh["tree_nodes"] == 1 and fresh["tree_expansions"] == 0
    for q in rng.random((200, 2)):
        index.query(q)
    stats = index.storage_stats()
    assert stats["tree_nodes"] == index.tree.tree_nodes() > stats["leaves"] > 150
    assert stats["tree_bytes"] / stats["leaves"] <= 0.5 * 20.9 * 1024
    assert index.storage_stats() == stats
