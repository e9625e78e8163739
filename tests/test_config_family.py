"""Distance configurations build their family from parameter arrays.

The config reader hands every point to its kind's constructor at once and
makes no site object, yet the family equals, bit for bit, the family of
the per-site ``make_*`` objects, and ``eann build`` writes the same bytes
as when it built one site object per point. A family's member, viewed as
a site function, answers like the site ``make_*`` builds: both are
``SiteFunction``, the one site class.
"""

import hashlib

import numpy as np
import pytest

from eann._batch import SiteFamily
from eann.cli import main
from eann.config import build_site_functions, parse_distance_config, parse_points
from eann.distances import (
    SiteFunction,
    builtin_bregman_spec,
    make_bregman,
    make_mahalanobis,
    make_minkowski,
)

N = 40
MAHALANOBIS = "2 0.3 0.3 1"
SQ_MAHALANOBIS = "2 0.5 0.5 1"


def _points_text() -> str:
    rng = np.random.default_rng(20261019)
    return "".join(f"{x!r} {y!r}\n" for x, y in rng.uniform(0.15, 0.95, size=(N, 2)).tolist())


def _weights_text() -> str:
    rng = np.random.default_rng(7)
    return " ".join(repr(w) for w in rng.uniform(1.0, 2.0, size=N).tolist())


def _matrix(text):
    return np.array([float(t) for t in text.split()]).reshape(2, 2)


# Kind -> (configuration text, per-site constructor of one point's site).
KINDS = {
    "l3-weights": (
        f"kind = minkowski\nk = 3\nweights = {_weights_text()}\n",
        lambda i, p: make_minkowski(p, 3.0, float(_weights_text().split()[i]))),
    "l1.5": ("kind = minkowski\nk = 1.5\n", lambda i, p: make_minkowski(p, 1.5)),
    "mahalanobis": (f"kind = mahalanobis\nmatrix = {MAHALANOBIS}\n",
                    lambda i, p: make_mahalanobis(p, _matrix(MAHALANOBIS))),
    "kl": ("kind = bregman\ngenerator = generalized-kl\ndomain_low = 0.1 0.1\n"
           "domain_high = 1 1\n",
           lambda i, p: make_bregman(builtin_bregman_spec("generalized-kl", 2, 0.1, 1.0), p)),
    "is": ("kind = bregman\ngenerator = itakura-saito\n",
           lambda i, p: make_bregman(builtin_bregman_spec("itakura-saito", 2), p)),
    "squared-euclidean": ("kind = bregman\ngenerator = squared-euclidean\n",
                          lambda i, p: make_bregman(builtin_bregman_spec("squared-euclidean", 2),
                                                    p)),
    "squared-mahalanobis": (
        f"kind = bregman\ngenerator = squared-mahalanobis\nmatrix = {SQ_MAHALANOBIS}\n"
        "domain_low = 0 0\ndomain_high = 1 1\n",
        lambda i, p: make_bregman(builtin_bregman_spec(
            "squared-mahalanobis", 2, 0.0, 1.0, _matrix(SQ_MAHALANOBIS).ravel()), p)),
}

# Kind -> sha256 of the file ``eann build`` writes at eps 0.25: the bytes it
# wrote when the config reader built one site object per point, except
# ``l1.5``, re-pinned when its ``tau`` became one value per (k, d).
BUILD_BYTES = {
    "l3-weights": "8ae2dbe0671639a0e63f25304116ec62d11807dd922f89cae5c2bf0f540e0e4e",
    "l1.5": "6083fff7bf8bd73884dc60569bb56439de2564b419f4f7c0d175a71e8922c3d8",
    "mahalanobis": "da92fd4ce784d174159ba7e0fbe7922de2ee15c6c44422c39eff8823030b543d",
    "kl": "5dcf9af63f2d685db896fd845116cccf5bd797b004857a3068176d7f7774c0ef",
    "is": "71157b48b83b73d1cc8d61a1f4ed4348080821aeb2a33deea235edd537e51fe7",
    "squared-euclidean": "cf38ae150d154c8a745b86c99527d8fa79f898538a644c35c27be8dcc51699c6",
    "squared-mahalanobis": "7c2b758135a7382c3d7c0b2b9a412b26917c8c6dd780ef9a11ba067e5e054f18",
}


def _config_family(kind):
    return build_site_functions(parse_distance_config(KINDS[kind][0]),
                                parse_points(_points_text()))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_config_family_equals_per_site_family_bit_for_bit(kind):
    points = parse_points(_points_text())
    per_site = SiteFamily([KINDS[kind][1](i, p) for i, p in enumerate(points)])
    fam = _config_family(kind)
    assert fam.P.tobytes() == per_site.P.tobytes()
    assert fam.tau.tobytes() == per_site.tau.tobytes()
    (_, ka), = per_site.groups
    (_, kb), = fam.groups
    assert type(ka) is type(kb) and ka.key == kb.key
    for name in ka.arrays:
        assert getattr(kb, name).tobytes() == getattr(ka, name).tobytes(), name


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_config_builds_no_site_object(monkeypatch, kind):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the config reader built a site object")

    monkeypatch.setattr(SiteFunction, "__init__", refuse)
    assert len(_config_family(kind)) == N


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_build_bytes_are_pinned(tmp_path, kind):
    points, config, out = tmp_path / "sites.txt", tmp_path / "dist.cfg", tmp_path / "x.eann"
    points.write_text(_points_text())
    config.write_text(KINDS[kind][0])
    assert main(["build", str(points), str(config), "0.25", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILD_BYTES[kind]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_member_view_answers_like_a_site(kind, rng):
    points = parse_points(_points_text())
    fam = _config_family(kind)
    for j in (0, 17, N - 1):
        view, site = fam.member(j), KINDS[kind][1](j, points[j])
        assert type(view) is type(site) is SiteFunction
        assert view.site.tobytes() == site.site.tobytes()
        assert view.tau == site.tau == fam.tau[j]
        X = rng.uniform(0.15, 0.95, size=(5, 2))
        for method in ("value", "gradient", "hessian"):
            np.testing.assert_array_equal(getattr(view, method)(X), getattr(site, method)(X))
            assert np.array_equal(getattr(view, method)(X[0]), getattr(site, method)(X[0]))
