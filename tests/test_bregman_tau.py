"""Bregman ``tau``: sampled for a whole family in one batched pass per
generator when the index is built, never while constructing a site or
loading an index, and equal bit for bit to the per-site definition."""

from dataclasses import replace

import numpy as np
import pytest

from eann import distances
from eann.ann import brute_force, build_index, load_index, save_index
from eann.distances import (
    admissibility_ratios,
    generalized_kl_spec,
    itakura_saito_spec,
    make_bregman,
    squared_euclidean_spec,
    squared_mahalanobis_spec,
    unit_directions,
)

SEED = distances._DIRECTION_SEED


def reference_tau(fn) -> float:
    """1.10 * max(1, max g, max h) over the seeded sample points of one site:
    2,048 uniform points of a bounded domain, else 1,024 unit directions
    about the site."""
    spec = fn.kernel.spec
    if spec.bounded:
        rng = np.random.default_rng(SEED)
        pts = rng.uniform(spec.domain_low, spec.domain_high, size=(2048, spec.dim))
    else:
        pts = fn.site[None, :] + unit_directions(spec.dim, 1024, SEED)
    g, h, _, _ = admissibility_ratios(fn, pts)
    return max(1.0, 1.10 * max(1.0, float(np.max(g)), float(np.max(h))))


def chunk_sites(spec) -> int:
    samples = 2048 if spec.bounded else 1024
    return max(1, distances._TAU_CHUNK_ELEMENTS // (samples * spec.dim))


MAHALANOBIS = np.array([[2.0, 0.6], [0.6, 1.0]])
CASES = {
    "kl": (lambda: generalized_kl_spec(2, 0.1, 1.0), 0.1, 1.0),
    "kl-d8": (lambda: generalized_kl_spec(8, 0.1, 1.0), 0.1, 1.0),
    "itakura-saito": (lambda: itakura_saito_spec(3, 0.1, 1.0), 0.1, 1.0),
    "mahalanobis-bounded": (lambda: squared_mahalanobis_spec(MAHALANOBIS, -1.0, 1.0), -1.0, 1.0),
    "squared-euclidean": (lambda: squared_euclidean_spec(3), -5.0, 5.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_family_pass_matches_per_site_reference(case, rng):
    make_spec, low, high = CASES[case]
    spec = make_spec()
    chunk = chunk_sites(spec)
    n = 2 * chunk + chunk // 2 + 1
    assert n % chunk  # several chunks and a partial last one
    sites = rng.uniform(low + 1e-3, high - 1e-3, size=(n, spec.dim))
    fns = [make_bregman(spec, p) for p in sites]
    index = build_index(fns, 0.5)
    expected = [reference_tau(f) for f in fns]
    np.testing.assert_array_equal(index.family.tau, expected)
    assert index.tau == max(expected)


def test_lone_read_equals_family_pass(rng):
    spec = generalized_kl_spec(2, 0.1, 1.0)
    sites = rng.uniform(0.11, 0.99, size=(40, 2))
    index = build_index([make_bregman(spec, p) for p in sites], 0.25)
    for i in (0, 17, 39):
        assert make_bregman(spec, sites[i]).tau == index.family.tau[i]


def test_family_mixing_preset_and_deferred_tau_builds(rng):
    spec = itakura_saito_spec(2, 0.1, 1.0)
    sites = rng.uniform(0.11, 0.99, size=(30, 2))
    preset = {i: 50.0 + i for i in range(0, 30, 4)}
    fns = [make_bregman(spec, p, tau=preset.get(i)) for i, p in enumerate(sites)]
    index = build_index(fns, 0.25)
    for i, f in enumerate(fns):
        want = preset[i] if i in preset else make_bregman(spec, sites[i]).tau
        assert index.family.tau[i] == want
    assert index.tau == max(preset.values())


def test_construction_and_loading_do_no_sampling(monkeypatch, tmp_path, rng):
    calls = []
    batched = distances._tau_pass

    def counting(kern):
        calls.append(len(kern.P))
        return batched(kern)

    monkeypatch.setattr(distances, "_tau_pass", counting)
    spec = generalized_kl_spec(2, 0.1, 1.0)
    sites = rng.uniform(0.11, 0.99, size=(45, 2))
    fns = [make_bregman(spec, p) for p in sites]
    assert calls == []
    index = build_index(fns, 0.25)
    assert calls == [45]
    path = str(tmp_path / "kl.eann")
    save_index(index, path)
    loaded = load_index(path)
    assert calls == [45]
    np.testing.assert_array_equal(loaded.family.tau, index.family.tau)

    # One pass per generator: equal built-in generators held as two
    # objects are one generator.
    twin = generalized_kl_spec(2, 0.1, 1.0)
    mixed = [make_bregman(spec if i % 2 else twin, p) for i, p in enumerate(sites)]
    build_index(mixed, 0.25)
    assert calls == [45, 45]

    make_bregman(spec, sites[0]).tau
    assert calls == [45, 45, 1]


def test_family_of_fresh_sites_samples_tau_in_one_pass(monkeypatch, rng):
    """``brute_force`` on a list of fresh sites builds a ``SiteFamily``,
    which resolves every deferred ``tau`` in one pass, not one per site."""
    calls = []
    batched = distances._tau_pass

    def counting(kern):
        calls.append(len(kern.P))
        return batched(kern)

    monkeypatch.setattr(distances, "_tau_pass", counting)
    spec = generalized_kl_spec(2, 0.1, 1.0)
    sites = rng.uniform(0.11, 0.99, size=(3 * chunk_sites(spec) + 5, 2))
    fns = [make_bregman(spec, p) for p in sites]
    q = np.array([0.5, 0.5])
    assert brute_force(fns, q) == brute_force(fns, q)
    assert calls == [len(fns)]
    np.testing.assert_array_equal([f.tau for f in fns], [reference_tau(f) for f in fns])
    assert calls == [len(fns)]


def test_degenerate_sample_raises_at_build_naming_the_site():
    # D(x, p) stays below the value floor all over a box 1e-7 wide.
    spec = generalized_kl_spec(2, 0.5, 0.5 + 1e-7)
    sites = [[0.5 + 2e-8, 0.5 + 5e-8], [0.5 + 5e-8, 0.5 + 2e-8], [0.5 + 8e-8, 0.5 + 8e-8]]
    fns = [make_bregman(spec, sites[0], tau=2.0), make_bregman(spec, sites[1], tau=2.0),
           make_bregman(spec, sites[2])]
    with pytest.raises(ValueError, match="degenerate sample at site 2"):
        build_index(fns, 0.25)
    with pytest.raises(ValueError, match="degenerate sample at site 0"):
        make_bregman(spec, sites[0]).tau


def test_unbounded_ratio_raises_at_build_naming_the_site():
    kl = generalized_kl_spec(2, 0.1, 1.0)
    spec = replace(kl, hess=lambda x: np.where(x > 0.9, np.inf, 1.0 / x))
    sites = [[0.3, 0.4], [0.5, 0.5], [0.7, 0.2]]
    fns = [make_bregman(spec, sites[0], tau=2.0)] + [make_bregman(spec, p) for p in sites[1:]]
    with pytest.raises(ValueError, match="admissibility gate: unbounded ratio at site 1"):
        build_index(fns, 0.25)


def test_site_independent_checks_stay_in_the_constructor():
    open_above = replace(generalized_kl_spec(2, 0.1, 1.0), domain_high=np.full(2, np.inf))
    with pytest.raises(ValueError, match="unbounded domain needs declared tau"):
        make_bregman(open_above, [0.5, 0.5])
    assert make_bregman(open_above, [0.5, 0.5], tau=3.0).tau == 3.0
    with pytest.raises(ValueError, match="site outside Bregman domain"):
        make_bregman(generalized_kl_spec(2, 0.1, 1.0), [0.05, 0.5])


def test_full_hessian_generator_matches_the_constant_one(rng):
    """A generator whose ``hess`` returns its constant Hessian at every
    point (``hess_kind="full"``) samples the same ``tau`` and answers
    within (1 + eps)."""
    const = squared_mahalanobis_spec(MAHALANOBIS, 0.0, 1.0)
    H = np.asarray(const.hess)
    full = replace(const, name="full-mahalanobis", hess_kind="full",
                   hess=lambda x: np.broadcast_to(H, (len(x),) + H.shape))
    sites = rng.uniform(0.01, 0.99, size=(200, 2))
    index = build_index([make_bregman(full, p) for p in sites], 0.25)
    expected = build_index([make_bregman(const, p) for p in sites], 0.25).family.tau
    assert index.family.tau.tobytes() == expected.tobytes()
    X = rng.uniform(0.0, 1.0, size=(5, 2))
    np.testing.assert_array_equal(make_bregman(full, sites[0], tau=2.0).hessian(X),
                                  make_bregman(const, sites[0], tau=2.0).hessian(X))
    for q in rng.uniform(0.0, 1.0, size=(300, 2)):
        _, value = index.query(q)
        assert value <= 1.25 * brute_force(index.family, q)[1] * (1.0 + 1e-10) + 1e-300
