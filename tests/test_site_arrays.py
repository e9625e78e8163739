"""Sites as parameter arrays.

Each kernel's constructor validates and derives its kind's per-member
arrays, so a loaded index builds its family from the file's arrays with no
site object, bit for bit equal to the family of the index it was saved
from. Minkowski sites with k < 2 take one sampled ``tau`` per (k, d),
measured once about the origin and bit for bit the per-site definition
there, whatever a member's site and weight. A ``tau`` so large that a leaf
around some site would need a cell below the float spacing fails at build
and at load.
"""

import hashlib
import struct
import zlib

import numpy as np
import pytest

from eann import distances
from eann._batch import SiteFamily
from eann.ann import brute_force, build_index, load_index, save_index
from eann.cli import gen_family, gen_sites
from eann.distances import (
    BregmanKernel,
    MahalanobisKernel,
    MinkowskiKernel,
    SiteFunction,
    admissibility_ratios,
    generalized_kl_spec,
    make_bregman,
    make_minkowski,
    squared_mahalanobis_spec,
    unit_directions,
)

# Every serializable kind: (family tag, d).
SERIALIZABLE = [("l2", 2), ("wl2", 2), ("mahalanobis", 3), ("kl", 2), ("is", 3),
                ("sq-mahalanobis", 4)]


def _family(tag, n, d, rng):
    if tag == "sq-mahalanobis":
        a = rng.standard_normal((d, d))
        spec = squared_mahalanobis_spec(a @ a.T + d * np.eye(d), 0.1, 1.0)
        return [make_bregman(spec, p) for p in gen_sites(rng, n, d, "kl")]
    return gen_family(tag, gen_sites(rng, n, d, tag), rng)


def _saved(tmp_path, tag, d, n):
    rng = np.random.default_rng(20240518)
    index = build_index(_family(tag, n, d, rng), 0.25)
    path = str(tmp_path / f"{tag}.eann")
    save_index(index, path)
    return index, path


@pytest.mark.parametrize("tag,d", SERIALIZABLE, ids=[t for t, _ in SERIALIZABLE])
def test_loaded_family_equals_lazy_family_bit_for_bit(tmp_path, tag, d):
    """Mahalanobis screen bounds come from the symmetrized matrix, the one
    the kernel keeps and the file stores, whichever way the family is built."""
    index, path = _saved(tmp_path, tag, d, 300)
    lazy, loaded = index.family, load_index(path).family
    assert loaded.P.tobytes() == lazy.P.tobytes()
    assert loaded.tau.tobytes() == lazy.tau.tobytes()
    assert len(loaded.groups) == len(lazy.groups)
    members = np.arange(len(lazy))
    for (ia, ka), (ib, kb) in zip(lazy.groups, loaded.groups):
        assert type(ka) is type(kb) and ka.key == kb.key
        np.testing.assert_array_equal(members[ia], members[ib])
        for name in ka.arrays:
            assert getattr(kb, name).tobytes() == getattr(ka, name).tobytes(), name


@pytest.mark.parametrize("tag,d", SERIALIZABLE, ids=[t for t, _ in SERIALIZABLE])
def test_load_builds_no_site_object(tmp_path, monkeypatch, tag, d):
    index, path = _saved(tmp_path, tag, d, 40)

    def refuse(self, *args, **kwargs):
        raise AssertionError("load_index built a site object")

    monkeypatch.setattr(SiteFunction, "__init__", refuse)
    loaded = load_index(path)
    for q in gen_sites(np.random.default_rng(3), 5, d, "kl"):
        assert loaded.query(q) == index.query(q)


# (family tag, n, d) -> sha256 of the file ``save_index`` writes for the
# index of ``gen_family`` at seed 2024 and eps 0.25: the same bytes as
# before the families were built from parameter arrays, except ``l1.5``,
# re-pinned when its ``tau`` became one value per (k, d).
SAVED_BYTES = {
    ("l2", 300, 2): "ae15c0b57a5b7059f7c84afa96b2370987c3c8919ea2f3dc4eb781156344b0cf",
    ("wl2", 300, 2): "8133041e1d1184e51ebbb7573ac0391760186c8203c28b51f24a1224b84ba7d5",
    ("mahalanobis", 300, 3): "135b1989b96fee376e85a13cb4e9b92223692dc5c501453dc2a2da58ba043eb3",
    ("kl", 300, 2): "68dbd650f2c0cdb15f495c030fcb7887a8bb0c84ed0520900e2aa6a35dd84684",
    ("is", 200, 3): "92e8a80cc65baa62b94bd5f33db272e5f72af9c88aa9c8cddca75dda3d7487cf",
    ("l1.5", 100, 2): "dfffbd5a91a6c18c08347856f382e4500981ebb55063d0f0fc9a52d298a13d10",
}


@pytest.mark.parametrize("tag,n,d", sorted(SAVED_BYTES))
def test_saved_bytes_are_pinned(tmp_path, tag, n, d):
    rng = np.random.default_rng(2024)
    index = build_index(gen_family(tag, gen_sites(rng, n, d, tag), rng), 0.25)
    path = tmp_path / "index.eann"
    save_index(index, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_BYTES[tag, n, d]


def test_kernel_constructors_name_the_bad_member():
    P = np.array([[0.2, 0.3], [0.4, 0.5], [0.6, 0.7]])
    with pytest.raises(ValueError, match=r"weight must be finite and positive \(member 2\)"):
        MinkowskiKernel(P, 2.0, [1.0, 2.0, -1.0])
    with pytest.raises(ValueError, match=r"non-finite coordinates \(member 1\)"):
        MinkowskiKernel(np.where([[False], [True], [False]], np.nan, P), 2.0, np.ones(3))
    with pytest.raises(ValueError, match="not smooth"):
        MinkowskiKernel(P, 1.0, np.ones(3))
    M = np.stack([np.eye(2)] * 3)
    M[1, 0, 1] = 0.5
    with pytest.raises(ValueError, match=r"matrix must be symmetric \(member 1\)"):
        MahalanobisKernel(P, M)
    M[1] = np.eye(2)
    M[2] = np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match=r"positive-definite \(member 2\)"):
        MahalanobisKernel(P, M)
    with pytest.raises(ValueError, match="matrix shape"):
        MahalanobisKernel(P, M[:2])
    spec = generalized_kl_spec(2, 0.25, 1.0)
    with pytest.raises(ValueError, match=r"outside Bregman domain \(member 0\)"):
        BregmanKernel(P, spec)


def test_mahalanobis_bounds_come_from_the_symmetrized_matrix():
    M = np.array([[2.0, 0.3 + 4e-11], [0.3, 1.0]])
    kern = MahalanobisKernel(np.zeros((1, 2)), M[None])
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert kern.lo[0] == np.sqrt(w[0]) and kern.hi[0] == np.sqrt(w[-1])
    np.testing.assert_array_equal(kern.M[0], 0.5 * (M + M.T))


def reference_tau(fn) -> float:
    """1.10 * max(1, max g, max h) over 1,024 seeded unit directions about
    the site of ``fn``."""
    dirs = unit_directions(fn.dim, 1024, distances._DIRECTION_SEED)
    g, h, _, _ = admissibility_ratios(fn, fn.site[None, :] + dirs)
    return max(1.0, 1.10 * max(1.0, float(np.max(g)), float(np.max(h))))


def origin_tau(k, d) -> float:
    """``reference_tau`` of a weight-1 l_k site at the origin."""
    return reference_tau(make_minkowski(np.zeros(d), k, tau=1.0))


def _counting_passes(monkeypatch):
    """Clear the per-(k, d) cache and record every ``_tau_pass`` after."""
    distances._minkowski_tau.cache_clear()
    calls = []
    batched = distances._tau_pass

    def counting(kern):
        calls.append((kern.key, kern.P.shape))
        return batched(kern)

    monkeypatch.setattr(distances, "_tau_pass", counting)
    return calls


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1.2, 1.5, 1.8])
def test_minkowski_tau_below_2_matches_per_site_reference(monkeypatch, k, d):
    """Every member takes the origin's value bit for bit; the per-site
    definition differs from it only by the rounding of ``(p + u) - p``."""
    rng = np.random.default_rng(int(10 * k) + d)
    P = rng.uniform(-3.0, 3.0, size=(300, d))
    W = np.exp(rng.uniform(0.0, 1.0, size=300))
    calls = _counting_passes(monkeypatch)
    fam = SiteFamily([make_minkowski(p, k, w) for p, w in zip(P, W)])
    assert calls == [(k, (1, d))]
    tau = origin_tau(k, d)
    assert distances._minkowski_tau(k, d) == tau
    assert fam.tau.tobytes() == np.full(300, tau).tobytes()
    per_site = [reference_tau(make_minkowski(p, k, w)) for p, w in zip(P, W)]
    np.testing.assert_allclose(per_site, tau, rtol=1e-12, atol=0.0)


def test_one_pass_per_exponent_and_dimension(monkeypatch, rng):
    calls = _counting_passes(monkeypatch)
    fns = ([make_minkowski(p, 1.5) for p in rng.random((40, 2))]
           + [make_minkowski(p, 1.8) for p in rng.random((30, 2))]
           + [make_minkowski(p, 3.0) for p in rng.random((10, 2))]
           + [make_minkowski(p, 1.5, tau=4.0) for p in rng.random((5, 2))]
           + [make_minkowski(p, 1.5) for p in rng.random((20, 2))]
           + [make_minkowski(p, 1.5) for p in rng.random((7, 3))])
    passes = [(1.5, (1, 2)), (1.8, (1, 2)), (1.5, (1, 3))]
    assert calls == passes
    SiteFamily(fns[:-7])
    SiteFamily(fns[-7:])
    assert calls == passes
    for f in fns[:3] + fns[-3:]:
        assert f.tau == origin_tau(f.kernel.k, f.dim)
    assert [f.tau for f in fns[80:85]] == [4.0] * 5
    index = build_index(fns[:-7], 0.25)
    assert calls == passes
    assert index.family.tau.tolist() == [f.tau for f in fns[:-7]]


def test_lone_minkowski_site_knows_tau_at_construction(monkeypatch):
    calls = _counting_passes(monkeypatch)
    f = make_minkowski([0.3, -0.4], 1.5)
    assert calls == [(1.5, (1, 2))]
    assert f._tau == f.tau == origin_tau(1.5, 2)
    g = make_minkowski([1.0, 1.0], 1.5, weight=3.0)
    assert g.tau == f.tau and f.resite([1.0, 1.0]).tau == f.tau
    assert calls == [(1.5, (1, 2))]


def test_tau_too_large_for_the_float_spacing_fails_at_build_and_load(tmp_path):
    """With alpha = 2 tau, a leaf around one of two sites ``gap`` apart
    has sides below about gap / (4 alpha + 2). At tau 1e14 that is within a
    few float spacings of coordinates in [0, 1), and queries used to fail
    with envelope errors; at 1e13 every query answers within (1 + eps)."""
    rng = np.random.default_rng(0)
    P, Q = rng.random((10, 2)), rng.random((30, 2))
    index = build_index([make_minkowski(p, 3.0, tau=1e13) for p in P], 0.5)
    for q in Q:
        assert index.query(q)[1] <= 1.5 * brute_force(index.family, q)[1] * (1.0 + 1e-10)
    message = r"tau 1e\+14 is too large: .* float spacing"
    with pytest.raises(ValueError, match=message):
        build_index([make_minkowski(p, 3.0, tau=1e14) for p in P], 0.5)

    path = tmp_path / "l3.eann"
    save_index(index, str(path))
    # Header, exponents, weights and sites come before the 10 tau values.
    blob = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<10d", blob, 23 + 2 * 10 * 8 + 10 * 2 * 8, *[1e14] * 10)
    path.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))
    with pytest.raises(ValueError, match=message):
        load_index(str(path))
