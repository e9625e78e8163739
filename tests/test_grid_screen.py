"""A leaf's prune screen over the sites a grid finds near its ball equals
``screen`` over every outer site of the index.

``AnnIndex._screen`` hands ``convexify.screen`` only the sites within a
radius of the leaf ball's center, widened until the family's smallest lower
bound there exceeds the prune threshold. Its survivors, in id order, and
its separation error must be those of the screen over all n sites, for
every distance kind, dimension and site layout. Runs are derandomized and
keep no example database, so they are reproducible.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from eann._batch import SiteFamily
from eann.ann import build_index
from eann.cli import gen_family
from eann.convexify import ball_gaps, screen
from eann.distances import GaugeParams, gauge_sites, minkowski_sites
from eann.geom import EuclideanBall, enclosing_ball

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "eann-hypothesis")
SETTINGS = settings(database=None, derandomize=True, deadline=None, max_examples=40,
                    print_blob=True)

KINDS = ("l2", "l3", "l1.5", "wl2", "two-exponents", "mahalanobis", "kl", "ellipse")


def _ellipse(d):
    """sqrt(v^T A v) with A = diag(1, 2, 1, 2, ...)."""
    a = np.where(np.arange(d) % 2 == 0, 1.0, 2.0)

    def value(v):
        return np.sqrt(np.einsum("md,d,md->m", v, a, v))

    def gradient(v):
        return v * a / value(v)[:, None]

    def hessian(v):
        g = v * a
        f = value(v)[:, None, None]
        return (np.diag(a)[None] - np.einsum("mi,mj->mij", g, g) / f**2) / f

    return value, gradient, hessian, GaugeParams(float(np.sqrt(0.5)), 0.5)


def _family(kind: str, P: np.ndarray, rng) -> SiteFamily:
    n, d = P.shape
    if kind == "two-exponents":
        # Two kernel groups whose members interleave.
        cubic = rng.random(n) < 0.5
        cubic[:2] = [False, True]
        groups = [(idx, *minkowski_sites(P[idx], k, np.exp(rng.uniform(0.0, 1.0, idx.size))))
                  for k, idx in ((2.0, np.flatnonzero(~cubic)), (3.0, np.flatnonzero(cubic)))]
        return SiteFamily.from_groups(groups)
    if kind == "ellipse":
        return SiteFamily.from_groups([(slice(None), *gauge_sites(P, *_ellipse(d)))])
    return SiteFamily.of(gen_family(kind, P, rng))


def _sites(rng, n: int, d: int, blobs: bool, kind: str) -> np.ndarray:
    """Uniform sites, or a few blobs of sites 1e-6 apart (criterion 13),
    inside the ``kl`` domain for a Bregman family."""
    if blobs:
        centers = rng.uniform(0.2, 0.8, (3, d))
        P = centers[rng.integers(0, 3, n)] + rng.uniform(-1e-6, 1e-6, (n, d))
    else:
        P = rng.random((n, d))
    return 0.1001 + 0.8998 * P if kind == "kl" else P


def _outcome(fn):
    """The survivors as a list, or the separation error's message."""
    try:
        return fn().tolist()
    except ValueError as exc:
        return str(exc)


@SETTINGS
@given(kind=st.sampled_from(KINDS), d=st.integers(1, 4), n=st.integers(2, 160),
       seed=st.integers(0, 2**16), blobs=st.booleans(), where=st.sampled_from(
           ("leaf", "edge", "ball")))
@example(kind="l3", d=2, n=160, seed=11, blobs=False, where="leaf")
@example(kind="kl", d=2, n=160, seed=11, blobs=False, where="leaf")
@example(kind="l2", d=3, n=150, seed=3, blobs=True, where="leaf")
@example(kind="mahalanobis", d=4, n=120, seed=5, blobs=True, where="edge")
@example(kind="two-exponents", d=2, n=140, seed=7, blobs=False, where="ball")
@example(kind="ellipse", d=1, n=60, seed=2, blobs=False, where="edge")
@example(kind="l1.5", d=3, n=100, seed=9, blobs=False, where="ball")
@example(kind="wl2", d=2, n=2, seed=1, blobs=False, where="ball")
def test_grid_screen_equals_the_screen_over_every_site(kind, d, n, seed, blobs, where):
    """Over a leaf's ball (a uniform query's leaf, or one at the root box's
    edge) or an arbitrary ball with arbitrary sites set aside, the grid
    screen keeps the survivors of the screen over every outer site, in the
    same order, or raises the same separation error, naming the same site.
    A lone site's distance to the ball, and its bounds, are its row of the
    whole family's, so a search that finds one candidate screens it alike."""
    rng = np.random.default_rng(seed)
    P = _sites(rng, n, d, blobs, kind)
    family = _family(kind, P, rng)
    index = build_index(family, 0.25)
    if where == "ball":
        ball = EuclideanBall(rng.uniform(-0.1, 1.1, d), float(10.0 ** rng.uniform(-7, -0.5)))
        used = np.flatnonzero(rng.random(n) < 0.2)[: n - 1].astype(np.int32)
    else:
        box = index.tree.root_box
        q = rng.uniform(box.low, box.high)
        if where == "edge":
            axis = rng.integers(0, d)
            high = np.nextafter(box.high[axis], -np.inf)
            q[axis] = high if rng.random() < 0.5 else box.low[axis]
        leaf, _ = index.tree.locate(q)
        assert leaf is not None
        ball = enclosing_ball(leaf.cell)
        used = np.sort(np.concatenate([index._sites_at(leaf.in_cell),
                                       index._sites_at(leaf.inner)]))
        if used.size == n:
            return
    outer = np.ones(n, dtype=bool)
    outer[used] = False
    expected = _outcome(lambda: screen(index.family, ball, outer, range(n)))
    assert _outcome(lambda: index._screen(ball, used)) == expected
    gaps = ball_gaps(index.family.P, ball)
    lo, hi = index.family.value_bounds(gaps)
    for i in range(n):
        lone = index.family.take([i])
        assert ball_gaps(lone.P, ball)[0] == gaps[i]
        lone_lo, lone_hi = lone.value_bounds(gaps[i:i + 1])
        assert (lone_lo[0], lone_hi[0]) == (lo[i], hi[i])
