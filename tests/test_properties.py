"""Property tests of point location, of the near sets taken from the grid, of
the hypercube ray exit and of the envelope's gather window and cell memo
over generated inputs. Runs are derandomized and keep no example database, so they are
reproducible."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from eann.ann import ray_to_hypercube_boundary
from eann.avd import (_LEAF, _PENDING, AvdConfig, _points_in_box, _window, build_avd,
                      check_leaf)
from eann.envelope import ConcaveEnvelope
from eann.geom import AlignedBox, EuclideanBall, box_distances

# Hypothesis caches constants scanned from the source while tests are
# collected; keep that cache in the temp directory, not in the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "eann-hypothesis")
# A failing example prints a @reproduce_failure line that replays it on any
# commit, although the derandomized draws shift when source constants change.
SETTINGS = settings(database=None, derandomize=True, deadline=None, max_examples=60,
                    print_blob=True)

unit = st.floats(0.0, 1.0, allow_subnormal=False)
# Grid coordinates give duplicate, collinear and cospherical sites.
coord = st.one_of(st.integers(0, 8).map(lambda k: k / 8.0), unit)


def points(d, min_size, max_size):
    return st.lists(st.lists(coord, min_size=d, max_size=d), min_size=min_size, max_size=max_size)


@SETTINGS
@given(st.data())
def test_ray_exit_lands_on_the_unit_cube_along_the_ray(data):
    d = data.draw(st.integers(1, 4), label="d")
    vec = st.lists(st.floats(-100.0, 100.0, allow_subnormal=False), min_size=d, max_size=d)
    p = np.array(data.draw(vec, label="p_prime"))
    q = np.array(data.draw(vec, label="q"))
    rel = q - p
    assume(np.max(np.abs(rel)) > 1e-6)
    exit_rel = ray_to_hypercube_boundary(p, q) - p
    assert abs(np.max(np.abs(exit_rel)) - 1.0) <= 1e-12
    # Same direction as p' -> q: unit vectors agree.
    u = exit_rel / np.linalg.norm(exit_rel)
    v = rel / np.linalg.norm(rel)
    np.testing.assert_allclose(u, v, rtol=0, atol=1e-12)


@SETTINGS
@given(st.data())
def test_locate_finds_a_valid_containing_leaf(data):
    d = data.draw(st.integers(2, 3), label="d")
    sites = data.draw(points(d, 1, 24), label="sites")
    dups = data.draw(st.lists(st.integers(0, len(sites) - 1), max_size=6), label="duplicates")
    sites = np.array(sites + [sites[i] for i in dups])
    cfg = AvdConfig(2.0, data.draw(st.sampled_from([4.0, 12.0]), label="beta"))
    # Queries at sites, at midpoints of site pairs (on bisectors) and anywhere
    # around the sites.
    i, j = (data.draw(st.integers(0, len(sites) - 1)) for _ in range(2))
    around = st.lists(st.floats(-0.2, 1.2, allow_subnormal=False), min_size=d, max_size=d)
    q = data.draw(st.sampled_from([sites[i], 0.5 * (sites[i] + sites[j]),
                                   np.array(data.draw(around, label="q"))]), label="query")

    lazy = build_avd(sites, cfg)
    leaf, visits = lazy.locate(q)
    box = lazy.root_box
    if not (np.all(q >= box.low) and np.all(q < box.high)):
        assert leaf is None
        return
    assert leaf.cell.contains(q, tol=0.0)
    assert check_leaf(lazy, leaf) == []

    full = build_avd(sites, cfg)
    full.materialize()
    twin, twin_visits = full.locate(q)
    assert twin_visits == visits
    assert twin.depth == leaf.depth
    np.testing.assert_array_equal(twin.cell.outer.low, leaf.cell.outer.low)
    np.testing.assert_array_equal(twin.cell.outer.high, leaf.cell.outer.high)
    assert (twin.cell.inner is None) == (leaf.cell.inner is None)
    np.testing.assert_array_equal(twin.in_cell, leaf.in_cell)
    np.testing.assert_array_equal(twin.inner, leaf.inner)


def _record_near(tree):
    """Have the tree record, by box, the near set each descent or subtree
    expansion builds."""
    built = {}
    near = tree._near

    def recording(low, high, site):
        out = near(low, high, site)
        built[np.array(low).tobytes() + np.array(high).tobytes()] = out
        return out

    tree._near = recording
    return built


def _box(tree, node):
    lo, hi, _ = tree._cell(node)
    return np.array(lo), np.array(hi)


def _eager_reference(tree):
    """Reference near sets, filtered at every level: a child's near set is
    its parent's plus the sites routed to its sibling, filtered against the
    child's box, in id order. Yields (node, assigned, near) for every node
    expanded so far and its pending children."""
    P, alpha = tree.positions, tree.cfg.alpha
    stack = [(0, np.arange(tree.n_positions), np.zeros(0, dtype=int))]
    while stack:
        node, assigned, near = stack.pop()
        yield node, assigned, near
        kind = tree._kind[node]
        if kind in (_LEAF, _PENDING):
            continue
        kids = tree._kids[2 * node:2 * node + 2]
        if kind >= 0:
            side = P[assigned, kind] >= tree._mid[node]
            parts = [assigned[~side], assigned[side]]
            for i in (0, 1):
                if kids[i] < 0:
                    parts[1 - i] = np.sort(np.concatenate([parts[1 - i], parts[i]]))
                    parts[i] = parts[i][:0]
        else:
            # A shrink's first child is its quadtree box.
            inq = _points_in_box(P[assigned], *_box(tree, kids[0]))
            parts = [assigned[inq], assigned[~inq]]
        for i, child in enumerate(kids):
            if child < 0:
                continue
            cand = np.concatenate([near, parts[1 - i]])
            low, high = _box(tree, child)
            reach = (2.0 * alpha + 1.0) * float(np.linalg.norm(high - low) / 2.0)
            near_child = np.sort(cand[box_distances(low, high, P[cand]) < reach])
            stack.append((child, parts[i], near_child))


# Coordinates at least 1e-6 apart: closer sites at the origin exceed the
# tree's maximum depth whatever the near sets.
spaced = st.one_of(st.integers(0, 8).map(lambda k: k / 8.0),
                   st.integers(0, 10**6).map(lambda k: k / 1e6))


@st.composite
def adversarial_sites(draw, d, max_base=8):
    """Duplicates, 1e-6 blobs, sites collinear along one axis, or sites
    offset by 1e6, around at most ``max_base`` base sites."""
    base = np.array(draw(st.lists(st.lists(spaced, min_size=d, max_size=d),
                                  min_size=2, max_size=max_base), label="base"))
    kind = draw(st.sampled_from(["duplicates", "blobs", "collinear", "offset"]), label="kind")
    if kind == "duplicates":
        dups = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=8))
        return np.concatenate([base, base[dups]])
    if kind == "blobs":
        steps = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
        offsets = draw(st.lists(steps, min_size=len(base), max_size=len(base)))
        return np.concatenate([base, base + 2.5e-7 * np.array(offsets)])
    if kind == "collinear":
        axis = draw(st.integers(0, d - 1), label="axis")
        line = np.repeat(base[:1], len(base), axis=0)
        line[:, axis] = base[:, axis]
        return line
    return base + 1e6


def _assert_lazy_near_is_eager(tree, built):
    """Every near set a descent built equals the reference's, and so do the
    positions the grid finds near every pending node's box but its
    assigned ones; every leaf holds the in-cell, inner and ball the
    reference's near set gives."""
    P, alpha = tree.positions, tree.cfg.alpha
    leaves = compared = 0
    for node, assigned, near in _eager_reference(tree):
        low, high = _box(tree, node)
        # Only nodes with at most one site filter a near set; their boxes
        # differ from node to node.
        if len(assigned) <= 1 and (key := low.tobytes() + high.tobytes()) in built:
            np.testing.assert_array_equal(built[key], near)
            compared += 1
        if tree._kind[node] == _PENDING:
            site = tree._kids[2 * node]
            np.testing.assert_array_equal([site] if site >= 0 else [], assigned)
            around = tree._near(low.tolist(), high.tolist(), -1)
            np.testing.assert_array_equal(np.setdiff1d(around, assigned), near)
        if tree._kind[node] != _LEAF:
            continue
        leaves += 1
        leaf = tree._leaves[tree._kids[2 * node]]
        np.testing.assert_array_equal(leaf.in_cell, assigned)
        # The leaf test's outer screen, on the reference near set.
        box = leaf.cell.outer
        c, side = 0.5 * (box.low + box.high), box.high - box.low
        r = 0.5 * float(np.sqrt(np.dot(side, side)))
        diff = P[near] - c[None, :]
        inner = near[np.sqrt(np.einsum("md,md->m", diff, diff)) - r < alpha * 2.0 * r]
        np.testing.assert_array_equal(leaf.inner, inner)
        if len(inner) == 0:
            assert leaf.inner_ball is None
            continue
        center = P[inner].mean(axis=0)
        assert leaf.inner_ball.center.tobytes() == center.tobytes()
        rel = P[inner] - center[None, :]
        radius = float(np.sqrt(np.max(np.einsum("md,md->m", rel, rel)))) * (1.0 + 1e-9)
        assert leaf.inner_ball.radius == radius
    # Every recorded near set is that of a node of the tree.
    assert leaves > 0 and 0 < compared <= len(built)


def _window_edges(low, high, reach, axis):
    """Coordinates along ``axis`` one float either side of the grid
    window's edges about the box [low, high], and exactly ``reach`` from
    the box."""
    lo, hi = _window(low.tolist(), high.tolist(), reach)
    return [np.nextafter(lo[axis], -np.inf), np.nextafter(lo[axis], np.inf),
            np.nextafter(hi[axis], -np.inf), np.nextafter(hi[axis], np.inf),
            low[axis] - reach, high[axis] + reach]


def _assert_window_holds_the_near_set(tree, low, high, reach):
    """The grid near set of the box, with and without a site of its own,
    equals the exact test over every position."""
    P = tree.positions
    exact = np.flatnonzero(box_distances(low, high, P) < reach)
    np.testing.assert_array_equal(tree._near(low.tolist(), high.tolist(), -1), exact)
    site = int(exact[0]) if len(exact) else -1
    np.testing.assert_array_equal(tree._near(low.tolist(), high.tolist(), site), exact[1:])


@pytest.mark.slow
@SETTINGS
@given(st.data())
def test_lazy_near_sets_match_the_eager_filter_chain(data):
    """A near set taken from the grid equals the parent's chain of
    per-level filters, in set and in order, and so does every leaf: over a
    whole tree, then along the paths to sites placed at the grid window's
    edges about boxes the whole tree tested."""
    d = data.draw(st.integers(2, 3), label="d")
    sites = data.draw(adversarial_sites(d), label="sites")
    # Whole trees in three dimensions grow large with beta.
    cfg = AvdConfig(2.0, data.draw(st.sampled_from([4.0, 12.0][:4 - d]), label="beta"))
    tree = build_avd(sites, cfg)
    built = _record_near(tree)
    tree.materialize()
    _assert_lazy_near_is_eager(tree, built)

    tested = [_box(tree, node) for node, _, _ in _eager_reference(tree)
              if b"".join(x.tobytes() for x in _box(tree, node)) in built]
    boxes, edges = [], []
    for i in data.draw(st.lists(st.integers(0, len(tested) - 1), min_size=1, max_size=3),
                       label="tested boxes"):
        low, high = tested[i]
        reach = (2.0 * cfg.alpha + 1.0) * float(np.linalg.norm(high - low) / 2.0)
        boxes.append((low, high, reach))
        # Sites a float apart lie on different lines through the box, as
        # no cell separates them.
        lines = [0.5 * (low + high), low] * 2 + [high] * 2
        a = data.draw(st.integers(0, d - 1), label="axis")
        for x, line in zip(_window_edges(low, high, reach, a), lines):
            edges.append(line.copy())
            edges[-1][a] = x
    edged = build_avd(np.concatenate([sites, edges]), cfg)
    for box in boxes:
        _assert_window_holds_the_near_set(edged, *box)
    built = _record_near(edged)
    for q in edges:
        edged.locate(q)
    _assert_lazy_near_is_eager(edged, built)


@SETTINGS
@given(st.data())
def test_lazily_located_leaves_equal_the_materialized_tree(data):
    """Every leaf a lazily located tree reaches, through batched descents,
    is the same leaf of a fully materialized copy, bit for bit: the cell
    bounds, the in-cell and inner positions in order, and the inner ball's
    center and radius; and the query visits as many nodes in both."""
    d = data.draw(st.integers(2, 4), label="d")
    # Whole trees grow like alpha^d times the sites times log(beta): a
    # four-dimensional tree of four sites has tens of thousands of nodes.
    sites = data.draw(adversarial_sites(d, max_base={2: 8, 3: 4, 4: 2}[d]), label="sites")
    cfg = AvdConfig(2.0, data.draw(st.sampled_from([4.0, 12.0] if d == 2 else [2.0]),
                                   label="beta"))
    lazy = build_avd(sites, cfg)
    full = build_avd(sites, cfg)
    full.materialize()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    box = lazy.root_box
    for q in np.concatenate([sites, rng.uniform(box.low, box.high, size=(12, d))]):
        leaf, visits = lazy.locate(q)
        twin, twin_visits = full.locate(q)
        assert (leaf is None) == (twin is None) and visits == twin_visits
        if leaf is None:
            continue
        cell, twin_cell = lazy._cell(leaf.node), full._cell(twin.node)
        assert (cell[2] is None) == (twin_cell[2] is None)
        for a, b in zip(cell[:2] + (cell[2] or ()), twin_cell[:2] + (twin_cell[2] or ())):
            assert np.array(a).tobytes() == np.array(b).tobytes()
        assert leaf.depth == twin.depth
        np.testing.assert_array_equal(leaf.in_cell, twin.in_cell)
        np.testing.assert_array_equal(leaf.inner, twin.inner)
        assert (leaf.inner_ball is None) == (twin.inner_ball is None)
        if leaf.inner_ball is not None:
            assert leaf.inner_ball.center.tobytes() == twin.inner_ball.center.tobytes()
            assert leaf.inner_ball.radius == twin.inner_ball.radius


@SETTINGS
@given(st.data())
def test_grid_window_drops_only_what_the_exact_test_drops(data):
    """Sites one float either side of the grid window's edges about a box,
    and at exactly the reach, along every axis, are kept in a near set as
    the exact box distance test keeps them."""
    d = data.draw(st.integers(2, 3), label="d")
    offset = data.draw(st.sampled_from([0.0, 1e6]), label="offset")
    low = offset + np.array(data.draw(st.lists(unit, min_size=d, max_size=d), label="low"))
    sides = data.draw(st.lists(st.sampled_from([2.0**-k for k in (0, 3, 20, 40)]) | unit.filter(
        lambda x: x > 0), min_size=d, max_size=d), label="sides")
    box = AlignedBox(low, low + np.array(sides))
    alpha = data.draw(st.sampled_from([2.0, 2.83, 6.0]), label="alpha")
    reach = (2.0 * alpha + 1.0) * float(np.linalg.norm(box.sides) / 2.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    edges = []
    for a in range(d):
        xs = _window_edges(box.low, box.high, reach, a)
        edges.append(rng.uniform(box.low, box.high, size=(len(xs), d)))
        edges[-1][:, a] = xs
    # Far sites along axis 0 spread the grid, so that the window holds a
    # few of its cells.
    far = np.repeat(box.low[None, :], 16, axis=0)
    far[:, 0] = box.low[0] + np.linspace(-100.0, 100.0, 16) * (reach + 1.0)
    inside = rng.uniform(box.low, box.high, size=(64, d))
    tree = build_avd(np.concatenate(edges + [far, inside]), AvdConfig(alpha, 4.0))
    _assert_window_holds_the_near_set(tree, box.low, box.high, reach)


class _OneMember:
    """A one-member normalized family: every lattice point in range is an
    anchor with witness 0."""

    kept_indices = [0]

    def __init__(self, dim):
        self.ball = EuclideanBall(np.zeros(dim), 1.0)

    @staticmethod
    def values_matrix(X):
        return np.zeros((len(X), 1))


@SETTINGS
@given(st.data())
def test_gather_window_holds_an_anchor_within_the_covering_radius(data):
    """For any |u| <= 1 the first gather window holds the lattice point
    nearest to u, which lies within 1 + cover_radius of the origin, so no
    wider search is ever needed."""
    d = data.draw(st.integers(1, 4), label="d")
    env = ConcaveEnvelope(_OneMember(d), data.draw(st.floats(1e-6, 1.0), label="eps_abs"))
    vec = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=d, max_size=d)
    v = np.array(data.draw(vec, label="direction"))
    norm = float(np.linalg.norm(v))
    assume(norm > 1e-6)
    # Half of the points lie on the sphere, where the window reaches furthest out.
    r = data.draw(st.one_of(st.just(1.0), unit), label="radius")
    u = v / norm * r
    ids = env.gather(u)
    assert ids
    nearest = min(float(np.linalg.norm(env.anchors[i] - u)) for i in ids)
    assert nearest <= env.cover_radius * (1.0 + 1e-9)


class _Affine:
    """Affine members over the unit ball with arbitrary distinct ids,
    standing in for a normalized family."""

    def __init__(self, dim, consts, grads, ids):
        self.ball = EuclideanBall(np.zeros(dim), 1.0)
        self.consts = np.array(consts)
        self.grads = np.array(grads).reshape(len(consts), dim)
        self.kept_indices = list(ids)

    def values_matrix(self, U):
        return self.consts[None, :] + np.atleast_2d(U) @ self.grads.T


@SETTINGS
@given(st.data())
def test_memoized_cell_witnesses_equal_a_fresh_gather(data):
    """A cell's memoized witnesses, built from anchors that earlier windows
    may have built, are the witnesses a fresh envelope gathers there, in
    ascending order of original id, for every point of the cell."""
    d = data.draw(st.integers(1, 4), label="d")
    m = data.draw(st.integers(1, 6), label="members")
    nf = _Affine(d, data.draw(st.lists(st.floats(0.2, 0.8), min_size=m, max_size=m)),
                 data.draw(st.lists(st.floats(-0.25, 0.25), min_size=m * d, max_size=m * d)),
                 data.draw(st.lists(st.integers(0, 999), min_size=m, max_size=m, unique=True),
                           label="ids"))
    eps_abs = data.draw(st.floats(0.01, 1.0), label="eps_abs")
    env = ConcaveEnvelope(nf, eps_abs)
    vec = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=d, max_size=d)
    for _ in range(data.draw(st.integers(1, 4), label="points")):
        u = np.array(data.draw(vec, label="u"))
        u /= max(1.0, float(np.linalg.norm(u)))
        # A second point of u's lattice cell, when it lies in the ball.
        cell = np.floor(u / env.spacing + 1e-9)
        frac = np.array(data.draw(st.lists(st.floats(0.0, 0.999), min_size=d, max_size=d)))
        v = (cell + frac) * env.spacing
        for w in (u, v) if np.linalg.norm(v) <= 1.0 else (u,):
            fresh = ConcaveEnvelope(nf, eps_abs)
            ids = fresh.gather(w)
            want = sorted(set(fresh.witnesses[ids].tolist()))
            assert env.kept_ids[env.cell_witnesses(w)].tolist() == want


@SETTINGS
@given(st.data())
def test_locate_routes_a_point_on_a_cell_low_face_to_that_cell(data):
    """Cells are half-open, low <= q < high, so a point on a leaf's low face
    (a split plane, unless it is the root box's face) belongs to that leaf
    and not to the neighbor below it."""
    d = data.draw(st.integers(2, 3), label="d")
    sites = np.array(data.draw(points(d, 2, 30), label="sites"))
    cfg = AvdConfig(2.0, data.draw(st.sampled_from([4.0, 12.0]), label="beta"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    tree = build_avd(sites, cfg)
    box = tree.root_box
    # Leaves at the sites and anywhere in the root box.
    for q0 in np.concatenate([sites, rng.uniform(box.low, box.high, size=(20, d))]):
        leaf, _ = tree.locate(q0)
        outer, hole = leaf.cell.outer, leaf.cell.inner
        # Point i lies inside the cell with coordinate i on the low face.
        Q = rng.uniform(outer.low, outer.high, size=(d, d))
        Q[np.arange(d), np.arange(d)] = outer.low
        keep = np.all(Q < outer.high, axis=1)
        if hole is not None:
            keep &= ~(np.all(Q >= hole.low, axis=1) & np.all(Q < hole.high, axis=1))
        for q in Q[keep]:
            assert tree.locate(q)[0] is leaf
