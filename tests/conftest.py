import numpy as np
import pytest

from eann.distances import GaugeParams, make_custom_gauge, make_mahalanobis, make_minkowski
from eann.geom import EuclideanBall

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


def ellipse_gauge(p):
    """The custom gauge sqrt(v^T diag(1, 2) v) about a 2-d site ``p``."""
    params = GaugeParams(float(np.sqrt(_ELLIPSE.min() / _ELLIPSE.max())), 0.5)
    return make_custom_gauge(p, _gauge_value, _gauge_gradient, _gauge_hessian, params)


def random_gauge_fn(rng, d, site=None):
    """One random smooth gauge site function (Minkowski k>=2, weighted l2,
    or Mahalanobis with eigenvalue ratio <= 4)."""
    if site is None:
        site = rng.random(d)
    choice = rng.integers(0, 3)
    if choice == 0:
        k = float(rng.choice([2.0, 2.5, 3.0]))
        return make_minkowski(site, k, float(np.exp(rng.uniform(0.0, np.log(2.0)))))
    if choice == 1:
        return make_minkowski(site, 2.0, float(np.exp(rng.uniform(0.0, np.log(2.0)))))
    eig = np.exp(rng.uniform(np.log(1.0), np.log(4.0), size=d))
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))[None, :]
    return make_mahalanobis(site, q @ np.diag(eig) @ q.T)


def separated_family(rng, d, m, ball=None, margin=(1.0, 2.0)):
    """A family of random gauges whose sites are (2*tau)-separated from the
    ball (separation ratio in 2*tau*[margin])."""
    if ball is None:
        ball = EuclideanBall(np.zeros(d), 1.0)
    fns = []
    for _ in range(m):
        f0 = random_gauge_fn(rng, d, site=np.zeros(d))
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        sep = 2.0 * f0.tau * rng.uniform(*margin)
        dist = sep * ball.diameter
        site = ball.center + (ball.radius + dist) * u
        fns.append(f0.resite(site))
    return fns, ball


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)
