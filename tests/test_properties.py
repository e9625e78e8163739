"""Property tests of point location and of the hypercube ray exit over
generated inputs. Runs are derandomized and keep no example database, so
they are reproducible."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from eann.ann import ray_to_hypercube_boundary
from eann.avd import AvdConfig, build_avd, check_leaf

# Hypothesis caches constants scanned from the source while tests are
# collected; keep that cache in the temp directory, not in the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "eann-hypothesis")
SETTINGS = settings(database=None, derandomize=True, deadline=None, max_examples=60)

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
