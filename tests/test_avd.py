import copy
from array import array
from collections import Counter

import numpy as np
import pytest

from eann import avd, build_index, make_minkowski
from eann._batch import SiteFamily
from eann.avd import (_LEAF, _NO_IDS, _PENDING, _SHRINK, AvdConfig, AvdTree, build_avd,
                      check_leaf)
from eann.cli import gen_family, gen_queries, gen_sites
from eann.distances import minkowski_sites
from eann.geom import enclosing_ball


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
    """A tree serializes as its configuration record, and ``to_bytes``
    changes no row or expansion count."""
    sites = rng.random((60, 3))
    for cfg in (AvdConfig(2.83, 60.0), AvdConfig(2.0, 1e6, max_depth=40)):
        tree = build_avd(sites, cfg)
        counts = tree.tree_nodes(), tree.expansions
        blob = tree.to_bytes()
        assert len(blob) == 24
        assert (tree.tree_nodes(), tree.expansions) == counts
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
    """Site ids are int32: pending frontier nodes name their site in the
    int32 id pair, the grid that near sets come from keeps int32 ids, and
    leaves keep int32 arrays."""
    sites = np.vstack([rng.random((150, 2)), rng.random((10, 2))[[0, 0, 1]]])
    tree = build_avd(sites, AvdConfig(2.0, 40.0))
    for q in rng.random((30, 2)):
        tree.locate(q)
    arrays = [tree.position_of_site, tree.grid.order]
    for node in range(tree.tree_nodes()):
        if tree._kind[node] == _PENDING:
            arrays.append(np.asarray(tree._kids[2 * node:2 * node + 2]))
        if tree._kind[node] == _LEAF:
            leaf = tree._leaves[tree._kids[2 * node]]
            arrays += [leaf.in_cell, leaf.inner]
    assert _NO_IDS.dtype == np.int32 and len(_NO_IDS) == 0
    assert {a.dtype for a in arrays} == {np.dtype(np.int32)}


def _table_sites(kind: str, d: int, rng) -> np.ndarray:
    """About 60, 24 and 8 sites at d = 2, 3 and 4, so that a materialized
    tree keeps at most about 2·10^5 rows."""
    n = {2: 60, 3: 24}.get(d, 8)
    if kind == "uniform":
        return rng.random((n, d))
    if kind == "blobs":
        # Gaussian blobs of spread 1e-6 beside uniform sites, as in
        # acceptance criterion 13.
        centers = rng.random((2, d))
        return np.concatenate([c + 1e-6 * rng.standard_normal((n // 4, d)) for c in centers]
                              + [rng.random((n // 2, d))])
    base = rng.random((n // 2, d))
    if kind == "duplicates":
        return np.concatenate([base, base[rng.integers(n // 2, size=n // 4)]])
    return np.concatenate([base, base[:2] + 1e-9])


def _check_table(tree: AvdTree) -> None:
    """Every row's kind agrees with its id pair: a split's axis and children
    are those of its cell's midpoint split, a shrink's first child box lies
    in its box, a leaf's pair names the leaf built on it, and a pending
    row's pair is its site and -1, or -1, -1. Every row but the root is the
    child of exactly one row."""
    d, rows = tree.dim, tree.tree_nodes()
    kind, kids = tree._kind, tree._kids
    assert len(kids) == 2 * rows
    children, leaves, expanded = [], 0, 0
    for node in range(rows):
        k, pair = kind[node], kids[2 * node:2 * node + 2].tolist()
        if k == _PENDING:
            site, none = pair
            assert -1 <= site < tree.n_positions and none == -1
            continue
        expanded += 1
        if k == _LEAF:
            assert pair[1] == -1 and tree._leaves[pair[0]].node == node
            leaves += 1
            continue
        assert all(c > node or c == -1 for c in pair) and pair != [-1, -1]
        children += [c for c in pair if c >= 0]
        cell = tree._cell(node)
        if k >= 0:
            axis, mid, sides = avd._split(cell)
            assert k == axis < d and tree._mid[node] == mid
            assert [c == -1 for c in pair] == [side is None for side in sides]
        else:
            assert k == _SHRINK and -1 not in pair
            lo, hi, _ = cell
            qlo, qhi, qhole = tree._cell(pair[0])
            assert qhole is None
            assert all(l <= a < b <= h for l, a, b, h in zip(lo, qlo, qhi, hi))
    assert leaves == len(tree._leaves)
    assert sorted(children) == list(range(1, rows))
    assert tree.expansions == expanded
    columns = [v for v in vars(tree).values() if isinstance(v, array)]
    assert tree.tree_bytes() == sum(c.itemsize * len(c) for c in columns)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind", ["uniform", "blobs", "duplicates", "close_pair"])
def test_every_row_kind_agrees_with_its_id_pair(kind, d):
    """The node table's rows hold each fact once, by kind: on lazily located
    and on materialized trees."""
    rng = np.random.default_rng(2600 + d)
    sites = _table_sites(kind, d, rng)
    tree = build_avd(sites, AvdConfig(2.0, 8.0))
    _check_table(tree)
    for q in np.concatenate([rng.random((40, d)), sites[:10]]):
        tree.locate(q)
    assert 0 < tree.expansions < tree.tree_nodes()
    _check_table(tree)
    tree.materialize()
    assert tree.expansions == tree.tree_nodes()
    _check_table(tree)


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
    expansions = tree.expansions
    assert leaf in tree.built_leaves()
    assert tree.expansions == expansions
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
    """The rows that cold queries add to the node table of an l3 index take
    at most 1.25 times the 0.94 KB per built leaf measured (the table's
    bytes after 200 cold queries less the fresh index's, whose built top
    holds 630 KB), and storage_stats reports them and changes no row or
    expansion count."""
    rng = np.random.default_rng(7)
    index = build_index([make_minkowski(p, 3.0) for p in rng.random((4000, 2))], 0.1)
    fresh = index.storage_stats()
    assert fresh["tree_nodes"] == fresh["tree_top_nodes"] == index.tree.tree_nodes()
    assert fresh["tree_expansions"] == index.tree.expansions
    for q in rng.random((200, 2)):
        index.query(q)
    stats = index.storage_stats()
    assert stats["tree_nodes"] == index.tree.tree_nodes() > stats["leaves"] > 150
    assert (stats["tree_bytes"] - fresh["tree_bytes"]) / stats["leaves"] <= 1.25 * 0.94 * 1024
    assert index.storage_stats() == stats


def test_leaf_ball_equals_the_enclosing_ball_of_the_cell():
    """``AvdLeaf.ball``, read from the node table, is ``enclosing_ball`` of
    the leaf's cell bit for bit, on leaves with and without a hole."""
    # A cluster that holds most sites makes a shrink, whose outer child has
    # a hole; with these sites one leaf keeps part of it.
    rng = np.random.default_rng(9)
    sites = np.vstack([rng.random((2, 2)), rng.random(2) + 1e-4 * (rng.random((8, 2)) - 0.5)])
    tree = build_avd(sites, AvdConfig(2.0, 4.0))
    holed = 0
    leaves = tree.leaves()
    for leaf in leaves:
        ball, reference = leaf.ball(), enclosing_ball(leaf.cell)
        assert ball.center.tobytes() == reference.center.tobytes()
        assert ball.radius == reference.radius and type(ball.radius) is float
        holed += leaf.cell.inner is not None
    assert 0 < holed < len(leaves)


def test_cold_descents_filter_few_rows_at_large_n(monkeypatch):
    """A cold descent takes its near set from the grid: at l3 n=64,000 no
    box distance call of a cold query gets more than a few thousand rows,
    not the n that a filter over every position would take."""
    rng = np.random.default_rng(11)
    n = 64000
    family = SiteFamily.from_groups([(slice(None),
                                      *minkowski_sites(rng.random((n, 2)), 3.0, np.ones(n)))])
    index = build_index(family, 0.1)
    rows = []
    box_distances = avd.box_distances

    def counting(low, high, points):
        rows.append(len(points))
        return box_distances(low, high, points)

    monkeypatch.setattr(avd, "box_distances", counting)
    for q in rng.random((60, 2)):
        index.query(q)
    assert index.tree.expansions > 0 and len(rows) >= 60
    assert max(rows) <= 4000, max(rows)


def test_no_cell_overlaps_a_shrink_hole():
    """A midpoint that cuts a shrink's hole leaves each side its part, so
    every materialized leaf without a hole is the leaf its own center
    locates. Rounded widths of these blobs (1e-6 wide, shrunk in a cell
    twice as deep as wide) once split the outer cell across its hole, and
    a side that kept no hole covered leaves the hole's subtree had too."""
    base = np.array([[0.0, 0.0, 0.0], [0.125, 0.0, 0.625], [0.002589, 0.01, 0.000457]])
    sites = np.concatenate([base, base + 2.5e-7 * np.array([[-1, 0, -1], [3, 2, 3], [4, 0, 0]])])
    tree = build_avd(sites, AvdConfig(2.0, 4.0))
    leaves = tree.leaves()
    for leaf in leaves:
        if leaf.cell.inner is None:
            center = 0.5 * (leaf.cell.outer.low + leaf.cell.outer.high)
            assert tree.locate(center)[0] is leaf, leaf.node
        assert check_leaf(tree, leaf) == []


def _shrink_target(low: np.ndarray, high: np.ndarray, pts: np.ndarray):
    """The quadtree box a shrink descends to around the sites ``pts`` of a
    cell without a hole, as (low, high) lists, or None where the cell splits
    instead: one cell at a time, the reference for ``avd._shrink_targets``."""
    n_total = len(pts)
    lo = low.copy()
    hi = high.copy()
    d = lo.size
    descended = False
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        keys = (pts >= mid[None, :]) @ (1 << np.arange(d))
        counts = np.bincount(keys, minlength=1 << d)
        best = int(np.argmax(counts))
        if counts[best] <= (2.0 / 3.0) * n_total:
            break
        pts = pts.compress(keys == best, axis=0)
        for a in range(d):
            if best >> a & 1:
                lo[a] = mid[a]
            else:
                hi[a] = mid[a]
        descended = True
    return (lo.tolist(), hi.tolist()) if descended else None


def _expand_sites(tree: AvdTree, budget: int) -> list:
    """The rows that expanding every node with two or more sites makes, one
    node at a time and left to right: (depth, cell, kind, midpoint, sorted
    site ids) for each, kind _PENDING for the nodes left with at most one
    site. A node with two or more at depth ``budget`` raises. Each node
    shrinks toward its sites' cluster or splits at its midpoint, and each
    child holds the sites routed into its cell."""
    P = tree.positions
    rows = []
    stack = [(0, (tree._root_lo, tree._root_hi, None), np.arange(tree.n_positions, dtype=np.int32))]
    while stack:
        depth, cell, assigned = stack.pop()
        lo, hi, hole = cell
        if len(assigned) <= 1:
            rows.append((depth, cell, _PENDING, 0.0, assigned))
            continue
        if depth >= budget:
            raise RuntimeError(f"max depth exceeded at cell [{np.array(lo)}, {np.array(hi)}]")
        pts = P.take(assigned, axis=0)
        qbox = None if hole is not None else _shrink_target(np.array(lo), np.array(hi), pts)
        if qbox is not None:
            in_q = avd._points_in_box(pts, np.array(qbox[0]), np.array(qbox[1]))
            parts = [assigned.compress(in_q), assigned.compress(~in_q)]
            kids = ((*qbox, None), avd._make_cell(lo, hi, qbox))
            kind, mid = _SHRINK, 0.0
        else:
            # A split's kind is its axis.
            kind, mid, kids = avd._split(cell)
            side = pts[:, kind] >= mid
            parts = [assigned.compress(~side), assigned.compress(side)]
            # A side swallowed whole by the hole gets no child; sites routed
            # there sit on the hole boundary and belong to the sibling.
            for i in (0, 1):
                if kids[i] is None and len(parts[i]) > 0:
                    parts[1 - i] = np.sort(np.concatenate([parts[1 - i], parts[i]]))
                    parts[i] = _NO_IDS
        rows.append((depth, cell, kind, mid, assigned))
        stack += [(depth + 1, kids[i], parts[i]) for i in (1, 0) if kids[i] is not None]
    return rows


def _row_key(depth, cell, kind, mid, ids) -> tuple:
    lo, hi, hole = cell
    hole = None if hole is None else (tuple(hole[0]), tuple(hole[1]))
    return depth, tuple(lo), tuple(hi), hole, kind, mid, tuple(np.sort(ids).tolist())


def _tree_rows(tree: AvdTree) -> list:
    """The ``_row_key`` of every row of the tree's table; an expanded row's
    sites are those of its children."""
    ids, keys = {}, []
    for node in reversed(range(tree.tree_nodes())):
        kind = tree._kind[node]
        if kind == _PENDING:
            site = tree._kids[2 * node]
            ids[node] = np.array([site] if site >= 0 else [], dtype=np.int32)
        else:
            kids = [c for c in tree._kids[2 * node:2 * node + 2] if c >= 0]
            ids[node] = np.concatenate([ids.pop(c) for c in kids])
        keys.append(_row_key(tree._depth[node], tree._cell(node), kind, tree._mid[node],
                             ids[node]))
    return keys


def _clustered_probe(d: int, rng) -> np.ndarray:
    """2,000 sites, 90% of them in 4 Gaussian blobs of spread 1e-4."""
    blobs = [c + 1e-4 * rng.standard_normal((450, d)) for c in rng.random((4, d))]
    return np.concatenate(blobs + [rng.random((200, d))])


@pytest.mark.parametrize("kind,d", [(kind, d) for d in (2, 3, 4) for kind in (
    "uniform", "blobs", "duplicates", "close_pair", "clustered")] + [("clustered", 1),
                                                                     ("wide", 19)])
def test_top_equals_the_per_node_expansion(kind, d):
    """A fresh tree's rows, built a level at a time, are the rows that
    expanding its nodes with two or more sites one at a time makes: the
    same multiset of depths, cells with their holes, kinds, midpoints and
    site ids. The clustered probe makes shrinks and holed splits; at d = 1
    a shrink's box that is half its cell leaves the outer child no hole."""
    rng = np.random.default_rng(2700 + d)
    if kind == "clustered":
        sites = _clustered_probe(d, rng)
    elif kind == "wide":
        # Four blobs in 2^19 quadrants: a level's quadrant counts take one
        # bincount per two cells, and the blobs' cells shrink.
        sites = np.concatenate([c + 1e-4 * rng.standard_normal((30, d)) for c in rng.random((4, d))])
    else:
        sites = _table_sites(kind, d, rng)
    tree = build_avd(sites, AvdConfig(2.0, 8.0))
    rows = _tree_rows(tree)
    reference = [_row_key(*row) for row in _expand_sites(tree, tree._depth_budget)]
    assert Counter(rows) == Counter(reference)
    assert tree.top_nodes == tree.tree_nodes() == len(rows)
    pending = [tree._kids[2 * node:2 * node + 2].tolist() for node in range(tree.tree_nodes())
               if tree._kind[node] == _PENDING]
    assert all(none == -1 for _, none in pending)
    # Every position is the site of one pending row.
    assert sorted(site for site, _ in pending if site >= 0) == list(range(tree.n_positions))
    if kind == "clustered":
        assert any(row[4] == _SHRINK for row in rows)
        assert any(row[4] >= 0 and row[3] is not None for row in rows)


def test_multi_site_cell_at_the_depth_budget_fails_at_construction(monkeypatch, rng):
    """With a depth budget of 3, the uniform sites still have cells with
    two or more sites at depth 3: ``build_avd`` raises, naming the first of
    them left to right, as the per-node expansion does."""
    sites = rng.random((50, 2))
    tree = build_avd(sites, AvdConfig(2.0, 8.0))
    with pytest.raises(RuntimeError) as expected:
        _expand_sites(tree, 3)
    assert "max depth exceeded at cell [" in str(expected.value)
    monkeypatch.setattr(avd, "_depth_budget", lambda *args: 3)
    with pytest.raises(RuntimeError) as raised:
        build_avd(sites, AvdConfig(2.0, 8.0))
    assert str(raised.value) == str(expected.value)


def test_single_site_chain_at_the_depth_budget_fails(monkeypatch, rng):
    """With the depth budget at the depth of the built top's deepest rows,
    construction succeeds, but single-site chains need more levels than
    that: ``locate`` and ``materialize`` raise, naming a pending cell at the
    budget that holds the point located, as a descent's failing batch at
    the budget does."""
    sites = rng.random((50, 2))
    cfg = AvdConfig(2.0, 8.0)
    budget = max(build_avd(sites, cfg)._depth)
    monkeypatch.setattr(avd, "_depth_budget", lambda *args: budget)

    def named(tree: AvdTree, message: str, q=None) -> list:
        """The pending cells at the budget that ``message`` names and that
        hold ``q``."""
        out = []
        for node in range(tree.tree_nodes()):
            lo, hi, _ = tree._cell(node)
            if (tree._kind[node] == _PENDING and tree._depth[node] == budget
                    and message == f"max depth exceeded at cell [{np.array(lo)}, {np.array(hi)}]"
                    and (q is None or all(l <= x < h for l, h, x in zip(lo, hi, q)))):
                out.append(node)
        return out

    tree = build_avd(sites, cfg)
    raised = 0
    for q in np.concatenate([sites, rng.random((20, 2))]):
        try:
            tree.locate(q)
        except RuntimeError as err:
            assert str(err).startswith("max depth exceeded at cell [")
            assert len(named(tree, str(err), q.tolist())) == 1
            raised += 1
    assert raised > 0
    tree = build_avd(sites, cfg)
    with pytest.raises(RuntimeError) as err:
        tree.materialize()
    assert named(tree, str(err.value))


def _count_leaf_tests(tree: AvdTree) -> list:
    """Have the tree record, per descent, how many ``_leaf_tests`` calls it
    makes."""
    calls = []
    descend, leaf_tests = tree._descend, tree._leaf_tests

    def descending(node, qa):
        calls.append(0)
        return descend(node, qa)

    def testing(*args, **kwargs):
        calls[-1] += 1
        return leaf_tests(*args, **kwargs)

    tree._descend, tree._leaf_tests = descending, testing
    return calls


@pytest.mark.parametrize("workload", ["l3", "kl", "clustered"])
def test_a_cold_descent_tests_its_chain_in_one_batch(workload):
    """A descent leaf-tests its path in one batch, down to the first cell
    that should pass: on uniform l3 n=4,000, uniform kl n=2,000 and the
    clustered l3 probe (n=2,000; half of the queries within 3e-4 of a blob
    center), each of 300 cold queries makes one ``_leaf_tests`` call per
    descent."""
    rng = np.random.default_rng(28)
    if workload == "kl":
        sites = gen_sites(rng, 2000, 2, "kl")
        queries = gen_queries(rng, 300, 2, "kl")
    elif workload == "l3":
        sites, queries = rng.random((4000, 2)), rng.random((300, 2))
    else:
        sites = _clustered_probe(2, rng)
        centers = sites[:1800].reshape(4, 450, 2).mean(axis=1)
        queries = np.concatenate([
            centers[rng.integers(4, size=150)] + rng.uniform(-3e-4, 3e-4, size=(150, 2)),
            rng.random((150, 2))])
    index = build_index(gen_family("kl" if workload == "kl" else "l3", sites, rng), 0.1)
    calls = _count_leaf_tests(index.tree)
    for q in queries:
        index.query(q)
    assert len(calls) >= 250 and set(calls) == {1}, Counter(calls)


def test_a_close_pair_chain_is_tested_in_one_batch():
    """Sites 1e-30 apart: the chains to points just beside the pair, over a
    hundred levels long (in batches of 32 and 64 cells, three leaf tests),
    each take one leaf test, as do the chains to the sites."""
    tree = build_avd([[0.0, 0.0], [0.0, 1e-30]], AvdConfig(2.0, 4.0))
    calls = _count_leaf_tests(tree)
    depths = []
    for q in [[0.0, 0.0], [0.0, 1e-30], [0.0, -1e-30], [-3e-30, 5e-31]]:
        leaf, _ = tree.locate(q)
        assert check_leaf(tree, leaf) == []
        depths.append(leaf.depth)
    assert calls == [1] * len(calls) and len(calls) >= 3
    assert min(depths[2:]) > 100
