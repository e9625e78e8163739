import numpy as np
import pytest

from eann._batch import batch_values
from eann.convexify import convexify, normalize
from eann.envelope import build_envelope, build_relative

from conftest import separated_family


class StubFamily:
    """Affine members over the unit ball, mimicking a convexified family."""

    def __init__(self, consts, grads=None, dim=2):
        self.consts = np.asarray(consts, dtype=float)
        self.dim = dim
        self.grads = np.zeros((len(consts), dim)) if grads is None else np.asarray(grads)
        self.kept_indices = list(range(len(consts)))

    @property
    def size(self):
        return len(self.consts)

    def values_matrix(self, U):
        U = np.atleast_2d(U)
        return self.consts[None, :] + U @ self.grads.T

    def values_at_point(self, u, positions):
        vals = self.values_matrix(u[None, :])[0]
        return vals[list(positions)]


def test_single_affine_member_exact(rng):
    env = build_envelope(StubFamily([0.5]), eps_abs=0.1)
    for _ in range(50):
        q = rng.standard_normal(2)
        q /= max(1.0, np.linalg.norm(q))
        val, w = env.query_absolute(q)
        assert val == pytest.approx(0.5, abs=1e-12)
        assert w == 0


def test_two_constants_witness():
    env = build_envelope(StubFamily([0.5, 0.3]), eps_abs=0.05)
    env.materialize_all()
    assert set(env.witnesses) == {1}
    val, w = env.query_absolute(np.array([0.2, -0.4]))
    assert w == 1 and val == pytest.approx(0.3)


def test_eps_out_of_range():
    with pytest.raises(ValueError, match="eps out of range"):
        build_envelope(StubFamily([0.5]), eps_abs=0.0)
    with pytest.raises(ValueError, match="eps out of range"):
        build_envelope(StubFamily([0.5]), eps_abs=1.5)


def test_query_outside_domain():
    env = build_envelope(StubFamily([0.5]), eps_abs=0.1)
    with pytest.raises(ValueError, match="query outside envelope domain"):
        env.query_absolute(np.array([2.0, 0.0]))


def test_covering_radius_invariant(rng):
    fns, ball = separated_family(rng, 2, 4)
    cf = convexify(normalize(fns, ball))
    env = build_envelope(cf, eps_abs=0.07)
    env.materialize_all()
    r_spec = np.sqrt(16.0 * 0.07 / 5.0)
    for _ in range(500):
        q = rng.standard_normal(2)
        q /= max(1.0, np.linalg.norm(q))
        assert env.nearest_anchor_distance(q) <= r_spec + 1e-12


def test_anchor_anchors_are_exact(rng):
    fns, ball = separated_family(rng, 2, 5)
    cf = convexify(normalize(fns, ball))
    env = build_envelope(cf, eps_abs=0.1)
    env.materialize_all()
    for i in range(env.sample_count):
        q = env.anchors[i]
        val, w = env.query_absolute(q)
        direct = cf.values_matrix(q[None, :])[0]
        assert val == pytest.approx(float(direct.min()), abs=1e-12)


def test_absolute_error_against_direct_min(rng):
    for trial in range(6):
        d = 2 if trial % 2 == 0 else 3
        fns, ball = separated_family(rng, d, 5)
        cf = convexify(normalize(fns, ball))
        eps_abs = float(rng.uniform(0.03, 0.15))
        env = build_envelope(cf, eps_abs)
        probes = rng.standard_normal((800, d))
        probes /= np.maximum(1.0, np.linalg.norm(probes, axis=1))[:, None]
        for q in probes:
            val, w = env.query_absolute(q)
            truth = float(cf.values_matrix(q[None, :])[0].min())
            assert val >= truth - 1e-12          # never undershoots
            assert val - truth <= eps_abs + 1e-12
            # Witness validity: the reported value is the witness's true value.
            pos = cf.kept_indices.index(w)
            assert val == pytest.approx(float(cf.member_values(pos, q[None, :])[0]))


def test_tangents_dominate_envelope(rng):
    """Each anchor's witness is the argmin there, and its tangent at the
    anchor, recomputed from the witness, lies above the envelope."""
    fns, ball = separated_family(rng, 2, 5)
    cf = convexify(normalize(fns, ball))
    env = build_envelope(cf, eps_abs=0.1)
    env.materialize_all()
    probes = rng.standard_normal((300, 2))
    probes /= np.maximum(1.0, np.linalg.norm(probes, axis=1))[:, None]
    truth = cf.values_matrix(probes).min(axis=1)
    for a, w in zip(env.anchors, env.witnesses):
        pos = cf.kept_indices.index(w)
        at_anchor = cf.values_matrix(a[None, :])[0]
        assert at_anchor[pos] == at_anchor.min()
        grad = cf.normalized.member_gradients(pos, a[None, :])[0] - a / 4.0
        tangents = at_anchor[pos] + (probes - a[None, :]) @ grad
        assert np.all(tangents >= truth - 1e-9)


def test_sample_count_growth(rng):
    """Halving the error budget grows the anchor count by at most 2^(d/2+1)."""
    fns, ball = separated_family(rng, 2, 4)
    cf = convexify(normalize(fns, ball))
    counts = {}
    for eps in (0.2, 0.1, 0.05):
        env = build_envelope(cf, eps)
        counts[eps] = env.full_sample_count()
    assert counts[0.1] <= counts[0.2] * 2 ** (2 / 2 + 1) + 8
    assert counts[0.05] <= counts[0.1] * 2 ** (2 / 2 + 1) + 8


def test_storage_exponent(rng):
    fns, ball = separated_family(rng, 2, 6)
    cf = convexify(normalize(fns, ball))
    eps_values = [0.4, 0.2, 0.1, 0.05]
    counts = []
    for eps in eps_values:
        counts.append(build_envelope(cf, eps).full_sample_count())
    x = np.log(1.0 / np.array(eps_values))
    y = np.log(np.array(counts, dtype=float))
    slope = np.polyfit(x, y, 1)[0]
    assert slope <= 2 / 2 + 0.5


def test_relative_wrapper_guarantee(rng):
    for trial in range(5):
        d = 2 if trial % 2 == 0 else 3
        fns, ball = separated_family(rng, d, int(rng.integers(5, 12)))
        eps = float(rng.choice([0.1, 0.2]))
        avr = build_relative(fns, ball, eps)
        probes = rng.standard_normal((500, d))
        probes /= np.maximum(1.0, np.linalg.norm(probes, axis=1))[:, None]
        X = ball.center[None, :] + ball.radius * probes
        direct = batch_values(fns, X)
        for i, x in enumerate(X):
            val, w = avr.query(x)
            assert val == pytest.approx(direct[i, w], rel=1e-12)
            assert val <= (1.0 + eps) * direct[i].min() * (1.0 + 1e-10)


def test_relative_wrapper_trivial_and_symmetric(rng):
    fns, ball = separated_family(rng, 2, 1)
    avr = build_relative(fns, ball, 0.25)
    val, w = avr.query(ball.center)
    assert w == 0 and val == pytest.approx(fns[0].value(ball.center))

    # Two sites mirrored about the center: either answer is within budget.
    from eann.distances import make_minkowski
    f1 = make_minkowski([10.0, 0.0], 2.0, tau=1.0)
    f2 = make_minkowski([-10.0, 0.0], 2.0, tau=1.0)
    avr = build_relative([f1, f2], ball, 0.25)
    val, w = avr.query(np.zeros(2))
    assert val <= (1.0 + 0.25) * 10.0 * (1.0 + 1e-12)
