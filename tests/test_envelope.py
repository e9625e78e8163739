import numpy as np
import pytest

from eann._batch import batch_values
from eann.convexify import convexify, normalize
from eann.envelope import ConcaveEnvelope, build_relative
from eann.geom import EuclideanBall

from conftest import separated_family


class StubFamily:
    """Affine members over the unit ball, standing in for a normalized
    family; the envelope adds the concave offset phi to them."""

    def __init__(self, consts, grads=None, dim=2):
        self.consts = np.asarray(consts, dtype=float)
        self.ball = EuclideanBall(np.zeros(dim), 1.0)
        self.grads = np.zeros((len(consts), dim)) if grads is None else np.asarray(grads)
        self.kept_indices = list(range(len(consts)))

    def values_matrix(self, U):
        U = np.atleast_2d(U)
        return self.consts[None, :] + U @ self.grads.T


def phi(q):
    return (1.0 - float(q @ q)) / 8.0


def convexified(nf, U):
    """Every kept member's convexified value at each row of U."""
    return convexify(nf.values_matrix(U), U)


def full_sample_count(nf, eps_abs):
    env = ConcaveEnvelope(nf, eps_abs)
    env.materialize_all()
    return env.sample_count


def test_single_affine_member_exact(rng):
    env = ConcaveEnvelope(StubFamily([0.5]), eps_abs=0.1)
    for _ in range(50):
        q = rng.standard_normal(2)
        q /= max(1.0, np.linalg.norm(q))
        val, w = env.query_absolute(q)
        assert val == pytest.approx(0.5 + phi(q), abs=1e-12)
        assert w == 0


def test_two_constants_witness():
    env = ConcaveEnvelope(StubFamily([0.5, 0.3]), eps_abs=0.05)
    env.materialize_all()
    assert set(env.witnesses) == {1}
    q = np.array([0.2, -0.4])
    val, w = env.query_absolute(q)
    assert w == 1 and val == pytest.approx(0.3 + phi(q))
    assert env.query(q) == 1  # the stub's world ball is the unit ball


def test_eps_out_of_range():
    with pytest.raises(ValueError, match="eps out of range"):
        ConcaveEnvelope(StubFamily([0.5]), eps_abs=0.0)
    with pytest.raises(ValueError, match="eps out of range"):
        ConcaveEnvelope(StubFamily([0.5]), eps_abs=1.5)


def test_query_outside_domain():
    env = ConcaveEnvelope(StubFamily([0.5]), eps_abs=0.1)
    with pytest.raises(ValueError, match="query outside envelope domain"):
        env.query_absolute(np.array([2.0, 0.0]))
    with pytest.raises(ValueError, match="query outside envelope domain"):
        env.query(np.array([0.0, -2.0]))
    # A non-finite point is refused too, before the lattice gathers around it.
    for q in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="query outside envelope domain"):
            env.query(np.array(q))


def test_covering_radius_invariant(rng):
    fns, ball = separated_family(rng, 2, 4)
    env = ConcaveEnvelope(normalize(fns, ball), eps_abs=0.07)
    env.materialize_all()
    r_spec = np.sqrt(16.0 * 0.07 / 5.0)
    for _ in range(500):
        q = rng.standard_normal(2)
        q /= max(1.0, np.linalg.norm(q))
        pts = np.stack([env.anchors[i] for i in env.gather(q)])
        assert np.min(np.linalg.norm(pts - q[None, :], axis=1)) <= r_spec + 1e-12


def test_anchor_anchors_are_exact(rng):
    fns, ball = separated_family(rng, 2, 5)
    nf = normalize(fns, ball)
    env = ConcaveEnvelope(nf, eps_abs=0.1)
    env.materialize_all()
    for i in range(env.sample_count):
        q = env.anchors[i]
        val, w = env.query_absolute(q)
        direct = convexified(nf, q[None, :])[0]
        assert val == pytest.approx(float(direct.min()), abs=1e-12)


def test_absolute_error_against_direct_min(rng):
    for trial in range(6):
        d = 2 if trial % 2 == 0 else 3
        fns, ball = separated_family(rng, d, 5)
        nf = normalize(fns, ball)
        eps_abs = float(rng.uniform(0.03, 0.15))
        env = ConcaveEnvelope(nf, eps_abs)
        probes = rng.standard_normal((800, d))
        probes /= np.maximum(1.0, np.linalg.norm(probes, axis=1))[:, None]
        for q in probes:
            val, w = env.query_absolute(q)
            truth = float(convexified(nf, q[None, :])[0].min())
            assert val >= truth - 1e-12          # never undershoots
            assert val - truth <= eps_abs + 1e-12
            # Witness validity: the reported value is the witness's true
            # value, recomputed from its site function.
            x = ball.center + ball.radius * q
            assert val == pytest.approx(float(fns[w].value(x)) / nf.scale_h + phi(q))


def test_tangents_dominate_envelope(rng):
    """Each anchor's witness is the argmin there, and its tangent at the
    anchor, recomputed from the witness, lies above the envelope."""
    fns, ball = separated_family(rng, 2, 5)
    nf = normalize(fns, ball)
    env = ConcaveEnvelope(nf, eps_abs=0.1)
    env.materialize_all()
    probes = rng.standard_normal((300, 2))
    probes /= np.maximum(1.0, np.linalg.norm(probes, axis=1))[:, None]
    truth = convexified(nf, probes).min(axis=1)
    for a, w in zip(env.anchors, env.witnesses):
        pos = nf.kept_indices.tolist().index(w)
        at_anchor = convexified(nf, a[None, :])[0]
        assert at_anchor[pos] == at_anchor.min()
        x = np.tile(nf.world_points(a), (nf.size, 1))
        grad = nf.family.gradients(x)[pos] * (nf.ball.radius / nf.scale_h) - a / 4.0
        tangents = at_anchor[pos] + (probes - a[None, :]) @ grad
        assert np.all(tangents >= truth - 1e-9)


def test_sample_count_growth(rng):
    """Halving the error budget grows the anchor count by at most 2^(d/2+1)."""
    fns, ball = separated_family(rng, 2, 4)
    nf = normalize(fns, ball)
    counts = {}
    for eps in (0.2, 0.1, 0.05):
        counts[eps] = full_sample_count(nf, eps)
    assert counts[0.1] <= counts[0.2] * 2 ** (2 / 2 + 1) + 8
    assert counts[0.05] <= counts[0.1] * 2 ** (2 / 2 + 1) + 8


def test_storage_exponent(rng):
    fns, ball = separated_family(rng, 2, 6)
    nf = normalize(fns, ball)
    eps_values = [0.4, 0.2, 0.1, 0.05]
    counts = [full_sample_count(nf, eps) for eps in eps_values]
    x = np.log(1.0 / np.array(eps_values))
    y = np.log(np.array(counts, dtype=float))
    slope = np.polyfit(x, y, 1)[0]
    assert slope <= 2 / 2 + 0.5


def test_relative_wrapper_guarantee(rng):
    for trial in range(5):
        d = 2 if trial % 2 == 0 else 3
        fns, ball = separated_family(rng, d, int(rng.integers(5, 12)))
        eps = float(rng.choice([0.1, 0.2]))
        env = build_relative(fns, ball, eps)
        probes = rng.standard_normal((500, d))
        probes /= np.maximum(1.0, np.linalg.norm(probes, axis=1))[:, None]
        X = ball.center[None, :] + ball.radius * probes
        direct = batch_values(fns, X)
        for i, x in enumerate(X):
            w = env.query(x)
            assert direct[i, w] <= (1.0 + eps) * direct[i].min() * (1.0 + 1e-10)
    with pytest.raises(ValueError, match="eps out of range"):
        build_relative(fns, ball, 1.5)


def test_relative_wrapper_trivial_and_symmetric(rng):
    # A one-site family still gets a lattice; every witness is that site.
    fns, ball = separated_family(rng, 2, 1)
    env = build_relative(fns, ball, 0.25)
    assert env.query(ball.center) == 0
    assert env.query(ball.center + ball.radius * np.array([0.6, -0.8])) == 0

    # Two sites mirrored about the center: either answer is within budget.
    from eann.distances import make_minkowski
    f1 = make_minkowski([10.0, 0.0], 2.0, tau=1.0)
    f2 = make_minkowski([-10.0, 0.0], 2.0, tau=1.0)
    env = build_relative([f1, f2], ball, 0.25)
    w = env.query(np.zeros(2))
    assert [f1, f2][w].value(np.zeros(2)) <= (1.0 + 0.25) * 10.0 * (1.0 + 1e-12)
