"""Growth constants pinned bit for bit, as ``float.hex``.

``tau`` sets the index's alpha and beta, and so its whole tree. Hessians
feed it through the curvature probe of ``minkowski_gauge_params`` (k >= 2)
and through the ratios of ``admissibility_ratios``, sampled once per (k, d)
about the origin (k < 2), so every l_k site of a dimension has the same
``tau``; Bregman sites sample it in ``SiteFamily``'s batched pass. A change
in the last bit of any of these may move the tree and the answers.
"""

import numpy as np
import pytest

from eann._batch import SiteFamily
from eann.distances import (
    generalized_kl_spec,
    itakura_saito_spec,
    make_bregman,
    make_mahalanobis,
    make_minkowski,
    minkowski_gauge_params,
)

# (k, d) -> tau of an l_k site at np.linspace(0.2, 0.8, d).
MINKOWSKI_TAU = {
    (1.5, 2): "0x1.da80b342d6875p+1",
    (1.5, 3): "0x1.603d292a19ea0p+2",
    (1.5, 4): "0x1.79b93a4fa9a61p+3",
    (2.0, 2): "0x1.6a09e667f3bcfp+0",
    (2.0, 3): "0x1.6a09e667f3bd2p+0",
    (2.0, 4): "0x1.6a09e667f3bd2p+0",
    (3.0, 2): "0x1.306fe0a31b715p+1",
    (3.0, 3): "0x1.5d452f9978ce1p+1",
    (3.0, 4): "0x1.81434785d12acp+1",
    (4.0, 2): "0x1.969aabccba15ep+1",
    (4.0, 3): "0x1.f2eeaecd3e8a4p+1",
    (4.0, 4): "0x1.208e299402f48p+2",
}

# (k, d) -> sigma of the l_k unit ball.
MINKOWSKI_SIGMA = {
    (2.0, 2): "0x1.ffffffffffffap-1",
    (2.0, 3): "0x1.ffffffffffff2p-1",
    (2.0, 4): "0x1.ffffffffffff0p-1",
    (3.0, 2): "0x1.0000000000001p-1",
    (3.0, 3): "0x1.dc6ac4d3bd12bp-2",
    (3.0, 4): "0x1.c421ea83402cdp-2",
    (4.0, 2): "0x1.5555555555556p-2",
    (4.0, 3): "0x1.3342d38a3a6f4p-2",
    (4.0, 4): "0x1.1cf48d940e6bcp-2",
}


@pytest.mark.parametrize("k,d", sorted(MINKOWSKI_TAU))
def test_minkowski_tau(k, d):
    assert make_minkowski(np.linspace(0.2, 0.8, d), k).tau.hex() == MINKOWSKI_TAU[k, d]


@pytest.mark.parametrize("k,d", sorted(MINKOWSKI_SIGMA))
def test_minkowski_sigma(k, d):
    assert minkowski_gauge_params(k, d)[1].hex() == MINKOWSKI_SIGMA[k, d]


def test_mahalanobis_tau():
    f = make_mahalanobis([0.1, 0.2], [[2.0, 0.3], [0.3, 1.0]])
    assert f.tau.hex() == "0x1.9b40f35973970p+1"


@pytest.mark.parametrize("spec,expected", [
    (generalized_kl_spec(2), "0x1.afe76bb3883a3p+1"),
    (itakura_saito_spec(3), "0x1.ba96d86f74ca0p+2"),
], ids=["kl", "is"])
def test_bregman_tau_through_family(spec, expected):
    site = make_bregman(spec, np.linspace(0.3, 0.6, spec.dim))
    assert float(SiteFamily([site]).tau[0]).hex() == expected
