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
functions of the leaf), so results do not depend on query order.
"""

from __future__ import annotations

import math
import struct
import threading
import zlib
from collections import Counter

import numpy as np

from ._batch import SiteFamily, batch_values
from .avd import _LEAF, _PENDING, CONFIG_RECORD, AvdConfig, AvdLeaf, AvdTree, build_avd
from .convexify import _check_ball_in_domain, prune_screen
from .distances import (
    BUILTIN_BREGMAN,
    BregmanDistance,
    DomainError,
    MahalanobisDistance,
    MinkowskiDistance,
    SiteFunction,
    squared_mahalanobis_spec,
)
from .envelope import RelativeAvr, build_relative
from .geom import EuclideanBall, enclosing_ball

MAGIC = b"EANN"
FORMAT_VERSION = 3
# Relative widening of the outer-site screen: einsum and np.linalg.norm may
# round a distance differently in the last bits.
_SCREEN_SLACK = 1e-12


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
        self._patches: dict[tuple, RelativeAvr] = {}
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

    def _patch(self, key: tuple) -> RelativeAvr:
        avr = self._patches.get(key)
        if avr is None:
            with self._lock:
                avr = self._patches.get(key)
                if avr is None:
                    avr = build_relative(self.perturbed, self.patch_ball(key),
                                         self.eps / 3.0, indices=self.indices,
                                         accuracy="fast")
                    self._patches[key] = avr
        return avr

    def query(self, q: np.ndarray) -> int:
        """Candidate original function id for a query anywhere off p'."""
        q_prime = ray_to_hypercube_boundary(self.p_prime, q)
        _, witness = self._patch(self.patch_key(q_prime)).query(q_prime)
        return witness

    @property
    def sample_count(self) -> int:
        return sum(p.sample_count for p in self._patches.values())


class _Attachment:
    __slots__ = ("single_fids", "inner_fids", "outer_avr", "patchset", "inner_rep", "brute")

    def __init__(self):
        self.single_fids: list[int] = []
        self.inner_fids: list[int] = []
        self.outer_avr: RelativeAvr | None = None
        self.patchset: InnerPatchSet | None = None
        self.inner_rep: int | None = None
        self.brute = False


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
        if self.kind == "bregman":
            spec0 = sites[0].spec
            for f in sites[1:]:
                if f.spec is not spec0 and not _same_bregman_spec(f.spec, spec0):
                    raise ValueError("bregman sites must share one generator")
        dims = {f.dim for f in sites}
        if len(dims) != 1:
            raise ValueError("sites must share one dimension")
        self.sites = list(sites)
        self.eps = float(eps)
        tau = max(f.tau for f in sites)
        if not np.isfinite(tau):
            raise ValueError("admissibility gate: unbounded ratio")
        self.tau = max(1.0, float(tau))
        self.alpha = 2.0 * self.tau
        if self.kind == "scaling":
            self.beta = 10.0 * self.tau / self.eps
        else:
            self.beta = 4.0 * self.tau**2 / self.eps
        if self.kind == "bregman" and (spec0.eig_low is None or spec0.eig_high is None):
            raise ValueError("generator lacks Hessian eigenvalue bounds")
        self.family = SiteFamily(self.sites)
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
        return len(self.sites)

    def _bump(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.stats[key] += amount

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
            att.single_fids = np.flatnonzero(site_role == 1).tolist()
            att.inner_fids = np.flatnonzero(site_role == 2).tolist()
            outer = site_role == 0
            if np.any(outer):
                try:
                    att.outer_avr = self._outer_avr(enclosing_ball(leaf.cell), outer)
                except DomainError:
                    att.brute = True
                    self.stats["brute_leaves"] += 1
            if att.inner_fids:
                if self.kind == "scaling":
                    att.patchset = InnerPatchSet(
                        self.family.take(att.inner_fids), att.inner_fids,
                        leaf.inner_ball.center, self.tau, self.eps)
                else:
                    att.inner_rep = att.inner_fids[0]
            leaf.attachment = att
            return att

    def _outer_avr(self, ball: EuclideanBall, outer: np.ndarray) -> RelativeAvr:
        """Envelope of the outer sites (mask over site ids) over the leaf ball.

        One vectorized bound pass applies normalize's prune screen, slightly
        widened, to every outer site, and only the survivors become the
        family: normalize would prune the others unestimated, so the envelope
        equals that of the full outer set.
        """
        diff = self.points - ball.center[None, :]
        dists = np.maximum(0.0, np.sqrt(np.einsum("md,md->m", diff, diff)) - ball.radius)
        bad = outer & (dists / ball.diameter < 2.0 * self.family.tau)
        if np.any(bad):
            raise ValueError(f"insufficient separation: site {int(np.argmax(bad))}")
        lo, hi = self.family.value_bounds(dists)
        lo, hi = np.where(outer, lo, np.inf), np.where(outer, hi, np.inf)
        fids = np.flatnonzero(prune_screen(lo, hi, slack=_SCREEN_SLACK)).tolist()
        survivors = self.family.take(fids)
        if np.count_nonzero(outer) > 1:
            # normalize decides Bregman brute leaves by this check on every
            # family of two or more; a single survivor skips normalize.
            _check_ball_in_domain(survivors, ball)
        return build_relative(survivors, ball, self.eps, indices=fids, accuracy="fast")

    # -- queries --------------------------------------------------------------

    def query(self, q) -> tuple[int, float]:
        """(site index, value) with value <= (1+eps) * min_i f_i(q)."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim,):
            raise ValueError("query dimension mismatch")
        if not np.all(np.isfinite(q)):
            raise ValueError("query must be finite")
        if self.kind == "bregman" and not bool(self.sites[0].in_domain(q)):
            raise DomainError("query outside domain")
        self._bump("queries")
        leaf, visits = self.tree.locate(q)
        self._bump("locate_visits", visits)
        if leaf is None:
            return self._query_outside(q)
        att = self._attachment(leaf)
        if att.brute:
            self._bump("brute_queries")
            return brute_force(self.family, q)
        candidates: list[int] = list(att.single_fids)
        try:
            if att.outer_avr is not None:
                _, w = att.outer_avr.query(q)
                candidates.append(w)
            if att.patchset is not None:
                if np.all(q == att.patchset.p_prime):
                    candidates.append(att.inner_fids[0])
                else:
                    candidates.append(att.patchset.query(q))
            elif att.inner_rep is not None:
                candidates.append(att.inner_rep)
        except DomainError:
            # Only this query falls back; the leaf keeps its structures, so
            # later answers do not depend on query order.
            self._bump("brute_queries")
            return brute_force(self.family, q)
        assert candidates, "leaf produced no candidates"
        candidates = sorted(set(candidates))
        vals = batch_values(self.family.take(candidates), q)[0]
        best = int(np.argmin(vals))
        return candidates[best], float(vals[best])

    def _query_outside(self, q: np.ndarray) -> tuple[int, float]:
        self._bump("outside_queries")
        ball = self._site_ball
        gap = float(np.linalg.norm(q - ball.center)) - ball.radius
        if gap < self.beta * ball.diameter:
            self._bump("outside_brute")
            return brute_force(self.family, q)
        if self.kind == "bregman":
            candidates = [0]
        else:
            with self._lock:
                if self._outside_patchset is None:
                    self._outside_patchset = InnerPatchSet(
                        self.family, list(range(self.n)), ball.center, self.tau, self.eps)
            if np.all(q == ball.center):
                candidates = [0]
            else:
                candidates = [self._outside_patchset.query(q)]
        vals = batch_values(self.family.take(candidates), q)[0]
        best = int(np.argmin(vals))
        return candidates[best], float(vals[best])

    # -- statistics -----------------------------------------------------------

    def storage_stats(self, materialize: bool = False) -> dict:
        """Structure sizes. With ``materialize`` the whole tree is expanded
        (envelope samples still count only what queries touched)."""
        if materialize:
            self.tree.materialize()
        env_samples = 0
        patches = 0
        stack = [self.tree._root]
        leaf_count = 0
        while stack:
            node = stack.pop()
            if node.kind == _LEAF:
                leaf_count += 1
                att = node.leaf.attachment
                if att is not None:
                    if att.outer_avr is not None:
                        env_samples += att.outer_avr.sample_count
                    if att.patchset is not None:
                        env_samples += att.patchset.sample_count
                        patches += len(att.patchset._patches)
            elif node.kind != _PENDING:
                stack.extend(c for c in node.children if c is not None)
        return {
            "leaves": leaf_count,
            "envelope_samples": env_samples,
            "patches": patches,
            "tree_expansions": self.tree._expansions,
        }


def _same_bregman_spec(a, b) -> bool:
    return (a.name == b.name and a.dim == b.dim
            and np.array_equal(a.domain_low, b.domain_low)
            and np.array_equal(a.domain_high, b.domain_high)
            and ((a.matrix is None) == (b.matrix is None))
            and (a.matrix is None or np.array_equal(a.matrix, b.matrix)))


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
        out.append(np.stack([f.matrix for f in fam.fns]).astype("<f8").tobytes())
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
        if name not in BUILTIN_BREGMAN:
            raise ValueError(f"unknown Bregman generator '{name}'")
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
        if name == "squared-mahalanobis":
            spec = squared_mahalanobis_spec(mat, lo, hi)
        elif name == "squared-euclidean":
            spec = BUILTIN_BREGMAN[name](d)
        else:
            spec = BUILTIN_BREGMAN[name](d, lo, hi)
        fns = [BregmanDistance(spec, points[i], tau=float(taus[i])) for i in range(n)]
    index = AnnIndex(fns, eps)
    stored = AvdTree.from_bytes(record)
    derived = (index.dim, index.tree.cfg)
    if stored != derived:
        raise ValueError(f"tree configuration record {stored} differs from {derived} "
                         "derived from the sites")
    return index
