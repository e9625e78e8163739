"""End-to-end approximate nearest-neighbor indices.

Two pipelines share the decomposition tree: scaling (gauge) families use
alpha = 2*tau and beta = 10*tau/eps, answering inner-cluster queries through
boundary patches of a hypercube around the cluster ball's center with the
sites perturbed to that center; Bregman families use alpha = 2*tau and
beta = 4*tau^2/eps, collapsing inner clusters to a single representative.

Every structure only nominates candidate sites; the query always re-evaluates
the true distances of the candidates and returns the best, so the internal
approximations surface as a single checkable (1+eps) inequality.

Per-leaf structures are built on first use and memoized (they are pure
functions of the leaf), so results do not depend on query order. A built
leaf keeps one candidate family: its fixed sites, the kept members of its
outer envelope and its inner cluster. A warm query evaluates that family
once, at the query and, for an outer envelope, at the query's image in the
envelope's unit ball, where the envelope picks its witness among the
memoized witnesses of the query's lattice cell; the best of the fixed
sites and the witnesses at the query is the answer.
"""

from __future__ import annotations

import math
import struct
import threading
import zlib
from collections import Counter

import numpy as np

from ._batch import SiteFamily, batch_values
from .avd import CONFIG_RECORD, AvdConfig, AvdLeaf, AvdTree, build_avd
from .convexify import _check_ball_in_domain, screen
from .distances import (
    BregmanDistance,
    DomainError,
    MahalanobisDistance,
    MinkowskiDistance,
    SiteFunction,
    builtin_bregman_spec,
)
from .envelope import ConcaveEnvelope, build_relative
from .geom import EuclideanBall, enclosing_ball

MAGIC = b"EANN"
FORMAT_VERSION = 3


def ray_to_hypercube_boundary(p_prime, q) -> np.ndarray:
    """Exit point of the ray p' -> q on the side-2 hypercube centered at p'."""
    p_prime = np.asarray(p_prime, dtype=float)
    q = np.asarray(q, dtype=float)
    rel = q - p_prime
    m = float(np.max(np.abs(rel)))
    if m == 0.0:
        raise ValueError("query equals patch center")
    return p_prime + rel / m


class InnerPatchSet:
    """Per-leaf machinery for a tightly clustered scaling family.

    The cluster's functions are re-sited to the ball center p'; since the
    perturbed functions are 1-homogeneous about p', the answer is constant
    along rays from p', so queries are deflected to the boundary of a side-2
    hypercube around p', which is covered by patches each carrying its own
    relative envelope at error eps/3.
    """

    def __init__(self, family, indices: list[int],
                 p_prime: np.ndarray, tau: float, eps: float):
        self.p_prime = np.asarray(p_prime, dtype=float)
        self.indices = list(indices)
        self.perturbed = SiteFamily.of(family).resite(self.p_prime)
        self.tau = float(tau)
        self.eps = float(eps)
        self.side = 1.0 / (2.0 * self.tau + 1.0)  # patch diameter
        d = self.p_prime.size
        if d >= 2:
            self.face_side = self.side / np.sqrt(d - 1)
            self.cells_per_axis = int(np.ceil(2.0 / self.face_side))
        else:
            self.face_side = 2.0
            self.cells_per_axis = 1
        self._patches: dict[tuple, ConcaveEnvelope] = {}
        self._lock = threading.Lock()

    def patch_key(self, q_prime: np.ndarray) -> tuple:
        rel = q_prime - self.p_prime
        axis = int(np.argmax(np.abs(rel)))
        positive = rel[axis] > 0
        grid = []
        for j in range(rel.size):
            if j == axis:
                continue
            idx = int(np.floor((rel[j] + 1.0) / self.face_side))
            grid.append(min(max(idx, 0), self.cells_per_axis - 1))
        return (axis, positive, tuple(grid))

    def patch_ball(self, key: tuple) -> EuclideanBall:
        axis, positive, grid = key
        center = self.p_prime.copy()
        center[axis] += 1.0 if positive else -1.0
        g = iter(grid)
        for j in range(center.size):
            if j == axis:
                continue
            center[j] += -1.0 + (next(g) + 0.5) * self.face_side
        return EuclideanBall(center, self.side / 2.0)

    def patch_count(self) -> int:
        d = self.p_prime.size
        return 2 * d * self.cells_per_axis ** (d - 1)

    def _patch(self, key: tuple) -> ConcaveEnvelope:
        env = self._patches.get(key)
        if env is None:
            with self._lock:
                env = self._patches.get(key)
                if env is None:
                    env = build_relative(self.perturbed, self.patch_ball(key),
                                         self.eps / 3.0, indices=self.indices)
                    self._patches[key] = env
        return env

    def query(self, q: np.ndarray) -> int:
        """Candidate original function id for a query; at p' itself, where
        every perturbed function is zero, the first id."""
        if np.all(q == self.p_prime):
            return self.indices[0]
        q_prime = ray_to_hypercube_boundary(self.p_prime, q)
        return self._patch(self.patch_key(q_prime)).query(q_prime)

    @property
    def sample_count(self) -> int:
        return sum(p.sample_count for p in self._patches.values())


class _Attachment:
    """A leaf's candidates: ``fixed_fids`` (the cell's sites, a lone outer
    survivor of the prune screen, a lone inner site or a Bregman cluster's
    first site), plus the witnesses of ``outer_env`` (two or more outer
    survivors) and ``patchset`` (a scaling cluster of two or more sites). A
    ``brute`` leaf, whose ball leaves a Bregman domain, answers by full scan.

    Every other leaf caches its candidate family once: ``ids`` holds the
    sorted union of the fixed ids, the envelope's kept ids and the cluster's
    ids, and ``family`` those members of the index family. ``fixed_cols``
    and ``env_cols`` are the columns of the fixed ids and of the envelope's
    kept positions in ``ids``. A warm answer evaluates ``family`` once.
    """

    __slots__ = ("fixed_fids", "outer_env", "patchset", "brute",
                 "ids", "family", "fixed_cols", "env_cols")

    def __init__(self):
        self.fixed_fids: list[int] = []
        self.outer_env: ConcaveEnvelope | None = None
        self.patchset: InnerPatchSet | None = None
        self.brute = False
        self.ids: np.ndarray | None = None
        self.family: SiteFamily | None = None
        self.fixed_cols: tuple[int, ...] = ()
        self.env_cols: np.ndarray | None = None

    def cache_family(self, family: SiteFamily) -> None:
        """Take the leaf's candidate members out of the index ``family``."""
        ids = set(self.fixed_fids)
        if self.outer_env is not None:
            ids.update(self.outer_env.kept_ids.tolist())
        if self.patchset is not None:
            ids.update(self.patchset.indices)
        self.ids = np.array(sorted(ids), dtype=np.intp)
        self.family = family.take(self.ids)
        self.fixed_cols = tuple(np.searchsorted(self.ids, self.fixed_fids).tolist())
        if self.outer_env is not None:
            self.env_cols = np.searchsorted(self.ids, self.outer_env.kept_ids)


def brute_force(sites, q) -> tuple[int, float]:
    """Exact argmin/min by full scan of a ``SiteFamily`` or a list of site
    functions; ties go to the lowest index."""
    vals = batch_values(SiteFamily.of(sites), q)[0]
    idx = int(np.argmin(vals))
    return idx, float(vals[idx])


class AnnIndex:
    """Approximate nearest-neighbor index over a uniform-kind family."""

    def __init__(self, sites: list[SiteFunction], eps: float):
        if len(sites) == 0:
            raise ValueError("no sites")
        if not (0.0 < eps <= 1.0):
            raise ValueError("eps out of range")
        kinds = {("bregman" if isinstance(f, BregmanDistance) else "scaling") for f in sites}
        if len(kinds) != 1:
            raise ValueError("mixed kinds")
        self.kind = kinds.pop()
        dims = {f.dim for f in sites}
        if len(dims) != 1:
            raise ValueError("sites must share one dimension")
        self.eps = float(eps)
        self.family = SiteFamily(sites)
        if self.kind == "bregman":
            specs = self.family.specs
            if len(specs) != 1:
                raise ValueError("bregman sites must share one generator")
            if specs[0].eig_low is None or specs[0].eig_high is None:
                raise ValueError("generator lacks Hessian eigenvalue bounds")
        # Every site's tau is finite and at least 1 (``_admissible_tau``).
        self.tau = float(np.max(self.family.tau))
        self.alpha = 2.0 * self.tau
        if self.kind == "scaling":
            self.beta = 10.0 * self.tau / self.eps
        else:
            self.beta = 4.0 * self.tau**2 / self.eps
        self.points = self.family.P
        self.tree = build_avd(self.points, AvdConfig(self.alpha, self.beta))
        self._lock = threading.RLock()
        self.stats = Counter()
        c = self.points.mean(axis=0)
        r = float(np.max(np.linalg.norm(self.points - c[None, :], axis=1))) * (1.0 + 1e-9)
        self._site_ball = EuclideanBall(c, r)
        self._outside_patchset: InnerPatchSet | None = None

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n(self) -> int:
        return len(self.family)

    @property
    def sites(self) -> SiteFamily:
        """The index's family; it keeps no site function objects."""
        return self.family

    def _bump(self, visits: int, outside: bool, fallback: str | None) -> None:
        """Count one query, under one lock acquisition. A brute-force
        fallback is counted under its reason (``fallback_domain_leaf``,
        ``fallback_domain_query`` or ``fallback_outside_near``) and under
        ``brute_queries`` or, outside the tree, ``outside_brute``."""
        with self._lock:
            stats = self.stats
            stats["queries"] += 1
            stats["locate_visits"] += visits
            if outside:
                stats["outside_queries"] += 1
            if fallback is not None:
                stats["fallback_" + fallback] += 1
                stats["outside_brute" if outside else "brute_queries"] += 1

    # -- per-leaf structures ------------------------------------------------

    def _attachment(self, leaf: AvdLeaf) -> _Attachment:
        att = leaf.attachment
        if att is not None:
            return att
        with self._lock:
            att = leaf.attachment
            if att is not None:
                return att
            att = _Attachment()
            role = np.zeros(self.tree.n_positions, dtype=np.int8)  # 0: outer
            role[leaf.in_cell] = 1
            role[leaf.inner] = 2
            site_role = role[self.tree.position_of_site]
            att.fixed_fids = np.flatnonzero(site_role == 1).tolist()
            inner_fids = np.flatnonzero(site_role == 2).tolist()
            outer = site_role == 0
            if np.any(outer):
                ball = enclosing_ball(leaf.cell)
                try:
                    fids = screen(self.family, ball, outer, range(self.n)).tolist()
                    if np.count_nonzero(outer) > 1:
                        # A leaf with two or more outer sites whose ball
                        # leaves the domain is brute, even with one survivor.
                        _check_ball_in_domain(self.family, ball)
                    if len(fids) == 1:
                        att.fixed_fids += fids
                    else:
                        att.outer_env = build_relative(self.family.take(fids), ball,
                                                       self.eps, indices=fids)
                except DomainError:
                    att.brute = True
                    self.stats["brute_leaves"] += 1
            if len(inner_fids) == 1 or (inner_fids and self.kind == "bregman"):
                att.fixed_fids.append(inner_fids[0])
            elif inner_fids:
                att.patchset = InnerPatchSet(self.family.take(inner_fids), inner_fids,
                                             leaf.inner_ball.center, self.tau, self.eps)
            if not att.brute:
                att.cache_family(self.family)
            leaf.attachment = att
            return att

    # -- queries --------------------------------------------------------------

    def query(self, q) -> tuple[int, float]:
        """(site index, value) with value <= (1+eps) * min_i f_i(q)."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim,):
            raise ValueError("query dimension mismatch")
        if not np.isfinite(q).all():
            raise ValueError("query must be finite")
        if self.kind == "bregman" and not self.family.specs[0].in_domain(q):
            raise DomainError("query outside domain")
        leaf, visits = self.tree.locate(q)
        answer = fallback = None
        if leaf is None:
            answer, fallback = self._query_outside(q)
        elif (att := self._attachment(leaf)).brute:
            fallback = "domain_leaf"
        else:
            try:
                answer = self._query_leaf(att, q)
            except DomainError:
                # Only this query falls back; the leaf keeps its structures,
                # so later answers do not depend on query order.
                fallback = "domain_query"
        if answer is None:
            answer = brute_force(self.family, q)
        self._bump(visits, leaf is None, fallback)
        return answer

    def _query_leaf(self, att: _Attachment, q: np.ndarray) -> tuple[int, float]:
        """The best of the leaf's candidates at q, from one evaluation of its
        cached family: at q, and for an outer envelope also at the world
        point of q's unit-ball image, where the envelope picks its witness
        among the memoized witnesses of q's lattice cell."""
        cols = set(att.fixed_cols)
        env = att.outer_env
        if env is None:
            vals = batch_values(att.family, q)
        else:
            u = env.unit_point(q)
            pos = env.cell_witnesses(u)
            vals = batch_values(att.family, np.vstack((q, env.nf.world_points(u))))
            wcols = att.env_cols[pos]
            cols.add(int(wcols[env.pick(vals[1, wcols] / env.nf.scale_h, u)[1]]))
        if att.patchset is not None:
            cols.add(int(np.searchsorted(att.ids, att.patchset.query(q))))
        assert cols, "leaf produced no candidates"
        cols = sorted(cols)
        row = vals[0, cols]
        best = int(np.argmin(row))
        return int(att.ids[cols[best]]), float(row[best])

    def _query_outside(self, q: np.ndarray) -> tuple[tuple[int, float] | None, str | None]:
        """The answer outside the tree's root box, or None and the fallback
        reason near the sites, where only a full scan answers."""
        ball = self._site_ball
        gap = float(np.linalg.norm(q - ball.center)) - ball.radius
        if gap < self.beta * ball.diameter:
            return None, "outside_near"
        if self.kind == "bregman" or self.n == 1:
            fid = 0
        else:
            with self._lock:
                if self._outside_patchset is None:
                    self._outside_patchset = InnerPatchSet(
                        self.family, list(range(self.n)), ball.center, self.tau, self.eps)
            fid = self._outside_patchset.query(q)
        return (fid, float(batch_values(self.family.take([fid]), q)[0, 0])), None

    # -- statistics -----------------------------------------------------------

    def storage_stats(self) -> dict:
        """Sizes of the structures built so far; expands no node.
        ``tree_nodes`` counts the rows of the tree's node table and
        ``tree_bytes`` the bytes its columns and id pool hold."""
        env_samples = patches = 0
        leaves = self.tree.built_leaves()
        for leaf in leaves:
            att = leaf.attachment
            if att is not None:
                if att.outer_env is not None:
                    env_samples += att.outer_env.sample_count
                if att.patchset is not None:
                    env_samples += att.patchset.sample_count
                    patches += len(att.patchset._patches)
        return {
            "leaves": len(leaves),
            "envelope_samples": env_samples,
            "patches": patches,
            "tree_expansions": self.tree._expansions,
            "tree_nodes": self.tree.tree_nodes(),
            "tree_bytes": self.tree.tree_bytes(),
        }


def build_index(sites: list[SiteFunction], eps: float) -> AnnIndex:
    return AnnIndex(sites, eps)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

class _Reader:
    """Bounds-checked reads from a byte string: a short input raises
    ``ValueError`` naming the offset, never ``struct.error``."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def _advance(self, size: int) -> int:
        """Offset of the next ``size`` bytes, which the reader then skips."""
        if self.off + size > len(self.blob):
            raise ValueError(f"index file truncated at offset {self.off} "
                             f"(needs {size} more bytes, has {len(self.blob) - self.off})")
        self.off += size
        return self.off - size

    def take(self, size: int) -> bytes:
        return self.blob[self._advance(size) : self.off]

    def unpack(self, fmt: str) -> tuple:
        try:
            values = struct.unpack_from(fmt, self.blob, self.off)
        except struct.error:
            self._advance(struct.calcsize(fmt))  # raises, naming the offset
            raise
        self.off += struct.calcsize(fmt)
        return values

    def floats(self, *shape: int) -> np.ndarray:
        count = math.prod(shape)
        start = self._advance(8 * count)
        return np.frombuffer(self.blob, "<f8", count, start).reshape(shape).astype(float)


_FAMILY_CODE = {"minkowski": 0, "mahalanobis": 1, "bregman": 2}


def save_index(index: AnnIndex, path: str) -> int:
    """Write the index to a single binary file; returns bytes written.

    The file holds eps, the distance parameters, the sites, their ``tau``
    and the tree's configuration record, followed by a CRC32 of everything
    before it. Nothing derived is stored: the tree and the envelopes are
    pure functions of the sites and the configuration, so saving expands
    no tree node, and the loaded index rebuilds both lazily.
    """
    fam = index.family
    kinds = {kern.kind for _, kern in fam.groups}
    if "gauge" in kinds:
        raise ValueError("custom gauge functions are not serializable")
    if len(kinds) != 1:
        raise ValueError("families mixing distance kinds are not serializable")
    (kind,) = kinds
    n, d = index.n, index.dim
    out = [MAGIC, struct.pack("<HIId", FORMAT_VERSION, d, n, index.eps)]
    out.append(struct.pack("<B", _FAMILY_CODE[kind]))
    if kind == "minkowski":
        ks, ws = np.empty(n), np.empty(n)
        for idx, kern in fam.groups:
            ks[idx], ws[idx] = kern.k, kern.W
        out.append(ks.astype("<f8").tobytes())
        out.append(ws.astype("<f8").tobytes())
    elif kind == "mahalanobis":
        # Mahalanobis members share one kernel, in member order.
        out.append(fam.groups[0][1].M.astype("<f8").tobytes())
    else:
        spec = fam.specs[0]
        name = spec.name.encode()
        out.append(struct.pack("<H", len(name)))
        out.append(name)
        out.append(np.asarray(spec.domain_low, dtype="<f8").tobytes())
        out.append(np.asarray(spec.domain_high, dtype="<f8").tobytes())
        out.append(struct.pack("<B", spec.matrix is not None))
        if spec.matrix is not None:
            out.append(np.asarray(spec.matrix, dtype="<f8").tobytes())
    out.append(index.points.astype("<f8").tobytes())
    out.append(fam.tau.astype("<f8").tobytes())
    out.append(index.tree.to_bytes())
    blob = b"".join(out)
    blob += struct.pack("<I", zlib.crc32(blob))
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load_index(path: str) -> AnnIndex:
    """Read a file written by ``save_index``. A truncated, corrupt or
    malformed file, or one whose tree configuration record differs from the
    one derived from its sites, raises ``ValueError``."""
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    if rd.take(4) != MAGIC:
        raise ValueError("not an index file")
    (version,) = rd.unpack("<H")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    d, n, eps = rd.unpack("<IId")
    (fam_code,) = rd.unpack("<B")
    if fam_code == 0:
        ks, ws = rd.floats(n), rd.floats(n)
    elif fam_code == 1:
        mats = rd.floats(n, d, d)
    elif fam_code == 2:
        (name_len,) = rd.unpack("<H")
        name = rd.take(name_len).decode()
        lo, hi = rd.floats(d), rd.floats(d)
        (has_mat,) = rd.unpack("<B")
        mat = rd.floats(d, d) if has_mat else None
    else:
        raise ValueError(f"unknown family code {fam_code}")
    points = rd.floats(n, d)
    taus = rd.floats(n)
    record = rd.take(CONFIG_RECORD.size)
    (crc,) = rd.unpack("<I")
    if rd.off != len(rd.blob):
        raise ValueError(f"trailing bytes at offset {rd.off}")
    if crc != zlib.crc32(rd.blob[:-4]):
        raise ValueError("index file checksum mismatch")

    if fam_code == 0:
        fns = [MinkowskiDistance(points[i], float(ks[i]), float(ws[i]), tau=float(taus[i]))
               for i in range(n)]
    elif fam_code == 1:
        fns = [MahalanobisDistance(points[i], mats[i], tau=float(taus[i])) for i in range(n)]
    else:
        spec = builtin_bregman_spec(name, d, lo, hi, mat)
        fns = [BregmanDistance(spec, points[i], tau=float(taus[i])) for i in range(n)]
    index = AnnIndex(fns, eps)
    stored = AvdTree.from_bytes(record)
    derived = (index.dim, index.tree.cfg)
    if stored != derived:
        raise ValueError(f"tree configuration record {stored} differs from {derived} "
                         "derived from the sites")
    return index
