"""End-to-end approximate nearest-neighbor indices.

Two pipelines share the decomposition tree: scaling (gauge) families use
alpha = 2*tau and beta = 10*tau/eps and take every site of a leaf's inner
cluster as a candidate; Bregman families use alpha = 2*tau and
beta = 4*tau^2/eps, collapsing inner clusters to a single representative.
Outside the tree's root box a full scan answers, except that a Bregman
query beyond beta times the sites' diameter takes site 0.

Every structure only nominates candidate sites; the query always re-evaluates
the true distances of the candidates and returns the best, so the internal
approximations surface as a single checkable (1+eps) inequality.

Per-leaf structures are built on first use and memoized (they are pure
functions of the leaf), so results do not depend on query order. A leaf
build is local: the leaf's own sites come from a CSR of the sites by tree
position, and its prune screen runs over the sites that a uniform grid of
the sites, built once, finds near the leaf ball (``AnnIndex._screen``),
with the survivors of the screen over all n. By the paper's prune
argument, no site the screen drops is nearest anywhere in the leaf ball.
So an exact leaf, one with at most ``EXACT_MAX`` survivors, keeps their ids
beside its cell's and inner sites' in one sorted int32 array, and a query
there takes the exact best of them, from one kernel call at the query: the
exact nearest site, up to the Bregman inner-cluster collapse.

Above ``EXACT_MAX`` survivors, a leaf's outer envelope is the witness
lattice of its survivors, read as a ``NormalizedFamily`` of scale 1: the
index family, the leaf ball and the survivor ids. A witness is an argmin,
which neither the scale nor the keep rule of the paper's ``normalize``
moves, so the leaf computes no ball minima. A query's nominees there are
its leaf's ids and the memoized witnesses of its lattice cell; the leaf
keeps one family per distinct nominee set, so leaf work does not grow with
the envelope's survivors. The witness that the envelope alone would choose
(``ConcaveEnvelope.query``) is one of the nominees, so the answer is never
worse than it, and its (1+eps) bound holds for the answer.
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
from .convexify import (
    NormalizedFamily,
    _check_ball_in_domain,
    ball_gaps,
    prune_threshold,
    screen,
)
from .distances import (
    BregmanKernel,
    DomainError,
    SiteFunction,
    bregman_sites,
    builtin_bregman_spec,
    is_builtin_generator,
    mahalanobis_sites,
    minkowski_sites,
)
from .envelope import ConcaveEnvelope, build_relative
from .geom import EuclideanBall, PointGrid, concat_ranges

MAGIC = b"EANN"
FORMAT_VERSION = 3
# A leaf whose prune screen keeps at most this many outer sites evaluates
# them all at each query; above it, a witness lattice nominates a few.
EXACT_MAX = 128
_NO_IDS = np.zeros(0, dtype=np.int32)


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
    """Boundary patches for a tightly clustered scaling family (the paper's).

    The cluster's functions are re-sited to the ball center p'; since the
    perturbed functions are 1-homogeneous about p', the answer is constant
    along rays from p', so queries are deflected to the boundary of a side-2
    hypercube around p', which is covered by patches each carrying its own
    relative envelope at error eps/3. ``AnnIndex`` does not use it: its
    leaves evaluate every inner site exactly, which no patch pick beats.
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
    """A leaf's candidates, as sorted int32 site ``ids``: the cell's sites,
    a scaling leaf's whole inner cluster or a Bregman cluster's first site
    and, on an exact leaf, every outer survivor of the prune screen. A warm
    query on an exact leaf evaluates the index family at q over exactly
    these ids. Above ``EXACT_MAX`` survivors (and never for one), the
    survivors' witness lattice ``outer_env`` nominates a few of them
    instead. A ``brute`` leaf, whose ball leaves a Bregman domain, answers
    by full scan.

    On an envelope leaf a query's nominees are the ids and the memoized
    witnesses of its lattice cell. ``nominees`` maps the bytes of those
    witnesses' kept positions to the sorted nominee ids and their members
    of the index family, built on first use. Neighboring cells mostly share
    one witness set, so such a leaf keeps a few small families, one per
    distinct set.
    """

    __slots__ = ("ids", "outer_env", "brute", "nominees")

    def __init__(self):
        self.ids = _NO_IDS
        self.outer_env: ConcaveEnvelope | None = None
        self.brute = False
        self.nominees: dict[bytes, tuple[np.ndarray, SiteFamily]] | None = None


def _checked_query(family: SiteFamily, q) -> np.ndarray:
    """``q`` as a float vector of the family's dimension, finite and inside
    its Bregman domains: the one check of a query, before any kernel call."""
    q = np.asarray(q, dtype=float)
    if q.shape != family.P.shape[1:]:
        raise ValueError("query dimension mismatch")
    if not np.isfinite(q).all():
        raise ValueError("query must be finite")
    for spec in family.specs:
        if not ((q > spec.domain_low).all() and (q < spec.domain_high).all()):
            raise DomainError("query outside domain")
    return q


def brute_force(sites, q) -> tuple[int, float]:
    """Exact argmin/min by full scan of a ``SiteFamily`` or a list of site
    functions; ties go to the lowest index. As in ``AnnIndex.query``, a
    malformed or non-finite ``q`` raises ``ValueError``, and one outside a
    Bregman domain ``DomainError``."""
    family = SiteFamily.of(sites)
    vals = batch_values(family, _checked_query(family, q))[0]
    idx = int(np.argmin(vals))
    return idx, float(vals[idx])


class AnnIndex:
    """Approximate nearest-neighbor index over a uniform-kind family."""

    def __init__(self, sites: SiteFamily | list[SiteFunction], eps: float):
        if len(sites) == 0:
            raise ValueError("no sites")
        if not (0.0 < eps <= 1.0):
            raise ValueError("eps out of range")
        self.eps = float(eps)
        self.family = SiteFamily.of(sites)
        kinds = {isinstance(kern, BregmanKernel) for _, kern in self.family.groups}
        if len(kinds) != 1:
            raise ValueError("mixed kinds")
        self.kind = "bregman" if kinds.pop() else "scaling"
        if self.kind == "bregman":
            specs = self.family.specs
            if len(specs) != 1:
                raise ValueError("bregman sites must share one generator")
            if specs[0].eig_low is None or specs[0].eig_high is None:
                raise ValueError("generator lacks Hessian eigenvalue bounds")
        # Every site's tau is finite and at least 1 (``distances._admissible_tau``).
        self.tau = float(np.max(self.family.tau))
        self.alpha = 2.0 * self.tau
        if self.kind == "scaling":
            self.beta = 10.0 * self.tau / self.eps
        else:
            try:
                self.beta = 4.0 * self.tau**2 / self.eps
            except OverflowError:  # float ** raises where * gives inf
                self.beta = math.inf
        if not math.isfinite(self.beta):  # alpha <= beta, as tau >= 1
            raise ValueError(f"tau {self.tau:g} is too large: the tree's separation "
                             f"factor beta overflows at eps {self.eps:g}")
        self.points = self.family.P
        self.tree = build_avd(self.points, AvdConfig(self.alpha, self.beta))
        # A leaf around one of two sites ``gap`` apart has sides below about
        # gap / (4 alpha + 2) (``avd._depth_budget``); any pair's gap (here of
        # sorted neighbors) bounds the least. Within 4 float spacings, a cell's
        # center may round onto its edge (at 2.4 one did).
        P = self.tree.positions
        gap = np.linalg.norm(np.diff(P, axis=0), axis=1)
        ulp = np.spacing(np.maximum(np.abs(P[1:]), np.abs(P[:-1])).max(axis=1, initial=0.0))
        if np.any(gap < 4.0 * (4.0 * self.alpha + 2.0) * ulp):
            raise ValueError(f"tau {self.tau:g} is too large: a leaf around two sites would "
                             "need a cell narrower than the float spacing of their coordinates")
        self._lock = threading.RLock()
        self.stats = Counter()
        c = self.points.mean(axis=0)
        r = float(np.max(np.linalg.norm(self.points - c[None, :], axis=1))) * (1.0 + 1e-9)
        self._site_ball = EuclideanBall(c, r)
        # The sites at each tree position, as a CSR over the positions.
        order = np.argsort(self.tree.position_of_site, kind="stable")
        self._site_order = order.astype(np.int32)
        self._site_start = np.searchsorted(self.tree.position_of_site.take(order),
                                           np.arange(self.tree.n_positions + 1))
        # A leaf's screen takes its candidates from a grid of the sites.
        # Each member's minimum at distance t from its site lies between
        # lo * t**power and hi * t**power, so a site ``_spread`` times
        # farther from a ball than another fails the prune screen there.
        self._grid = PointGrid(self.points)
        lo, hi = self.family.value_bounds(np.ones(self.n))
        power = 2.0 if self.kind == "bregman" else 1.0
        self._spread = math.inf
        if lo.min() > 0.0:
            self._spread = float((prune_threshold(hi.max()) / lo.min()) ** (1.0 / power))

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
        fallback is counted under its reason (``fallback_domain_leaf`` or
        ``fallback_outside``) and under ``brute_queries`` or, outside the
        tree, ``outside_brute``."""
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
        """The leaf's candidates, built on first use.

        Its ball B encloses the cell, and every outer site lies at least
        2*tau diameters from B (``screen`` checks it). Along any path in B,
        a site's value then changes by a factor below e^(1/2), as its
        gradient is at most tau times its value over its distance to the
        site. The screen bounds each site's minimum over B by (lo, hi) and
        drops a site whose lo exceeds about twice the smallest hi, that of
        a site j. Such a site exceeds f_j everywhere in B, where f_j stays
        below e^(1/2) times hi. So the exact minimum over the survivors is
        the exact nearest outer site at every query in the cell, ties
        included, and an exact leaf's answer is the full scan's but for a
        collapsed Bregman inner cluster."""
        att = leaf.attachment
        if att is not None:
            return att
        with self._lock:
            att = leaf.attachment
            if att is not None:
                return att
            att = _Attachment()
            fixed, inner = self._sites_at(leaf.in_cell), self._sites_at(leaf.inner)
            used = np.sort(np.concatenate([fixed, inner]))
            outer_count = self.n - used.size
            if self.kind == "bregman":
                inner = np.sort(inner)[:1]
            survivors = _NO_IDS
            if outer_count:
                ball = leaf.ball()
                try:
                    survivors = self._screen(ball, used)
                    if outer_count > 1:
                        # A leaf with two or more outer sites whose ball
                        # leaves the domain is brute, even with one survivor.
                        _check_ball_in_domain(self.family, ball)
                except DomainError:
                    att.brute = True
                    self.stats["brute_leaves"] += 1
                    leaf.attachment = att
                    return att
                if survivors.size > max(EXACT_MAX, 1):
                    att.outer_env = ConcaveEnvelope(
                        NormalizedFamily(ball, 1.0, self.family, survivors), self.eps / 5.0)
                    att.nominees = {}
                    survivors = _NO_IDS
            att.ids = np.sort(np.concatenate([fixed, survivors, inner]))
            leaf.attachment = att
            return att

    def _sites_at(self, positions: np.ndarray) -> np.ndarray:
        """The ids of the sites at the given tree positions."""
        if positions.size == 0:
            return _NO_IDS
        return concat_ranges(self._site_order, self._site_start.take(positions),
                             self._site_start.take(positions + 1))

    def _screen(self, ball: EuclideanBall, used: np.ndarray) -> np.ndarray:
        """The ids of the outer sites (every site but the sorted ``used``)
        that ``screen`` keeps over the ball, in id order, screened among the
        sites the grid finds within a radius r + R of its center.

        R is at least 2*tau ball diameters, which holds every site that
        fails the separation test, so ``screen`` names the same site as over
        all n. Where the nearest site found lies g from the ball, the prune
        threshold is at most the one that site's upper bound sets, and a
        site beyond ``_spread`` * g has a lower bound above it; R widens to
        that. Each site beyond R then fails the screen, as its upper bound
        exceeds the smallest one too, so the threshold and the survivors
        are those of ``screen`` over every outer site. The first R also
        covers about ``_spread`` half grid cells, where the nearest site
        usually lies, so one search mostly suffices."""
        reach = max(2.0 * self.tau * ball.diameter * (1.0 + 1e-9),
                    0.5 * self._grid.side * self._spread)
        while (cand := self._outer_near(ball.center, ball.radius + reach, used)).size == 0:
            reach = max(2.0 * reach, self._grid.side)
        gap = float(ball_gaps(self.points.take(cand, axis=0), ball).min())
        if (need := self._spread * gap * (1.0 + 1e-6)) > reach:
            cand = self._outer_near(ball.center, ball.radius + need, used)
        return cand[screen(self.family.take(cand), ball, np.ones(cand.size, dtype=bool), cand)]

    def _outer_near(self, center: np.ndarray, radius: float, used: np.ndarray) -> np.ndarray:
        """Sorted ids of the grid's sites near ``center`` (every one within
        ``radius``, from the box that is ``center`` alone) but for the
        sorted ids ``used``."""
        c = center.tolist()
        ids = self._grid.within(c, c, radius)
        if used.size:
            ids = ids[used.take(np.searchsorted(used, ids), mode="clip") != ids]
        return ids

    # -- queries --------------------------------------------------------------

    def query(self, q) -> tuple[int, float]:
        """(site index, value) with value <= (1+eps) * min_i f_i(q)."""
        q = _checked_query(self.family, q)
        leaf, visits = self.tree.locate(q)
        answer = fallback = None
        if leaf is None:
            answer, fallback = self._query_outside(q)
        elif (att := self._attachment(leaf)).brute:
            fallback = "domain_leaf"
        else:
            answer = self._query_leaf(att, q)
        if answer is None:
            answer = brute_force(self.family, q)
        self._bump(visits, leaf is None, fallback)
        return answer

    def _query_leaf(self, att: _Attachment, q: np.ndarray) -> tuple[int, float]:
        """The exact best at q of the leaf's nominees, from one evaluation of
        their family at q: the leaf's ids and, for an outer envelope, the
        memoized witnesses of q's lattice cell. The ids are sorted, so ties
        go to the lowest."""
        env = att.outer_env
        if env is None:
            ids = att.ids
            family = self.family.take(ids)
        else:
            pos = env.cell_witnesses(env.unit_point(q))
            nominees = att.nominees.get(key := pos.tobytes())
            if nominees is None:
                ids = np.union1d(att.ids, env.kept_ids[pos])
                nominees = att.nominees.setdefault(key, (ids, self.family.take(ids)))
            ids, family = nominees
        row = batch_values(family, q)[0]
        best = int(np.argmin(row))
        return int(ids[best]), float(row[best])

    def _query_outside(self, q: np.ndarray) -> tuple[tuple[int, float] | None, str | None]:
        """The answer outside the tree's root box, or None and the fallback
        reason where a full scan answers: every scaling query, and a Bregman
        query closer to the sites than beta times their diameter. Beyond
        that, every Bregman site is within (1+eps) of the nearest, so site 0
        answers."""
        ball = self._site_ball
        gap = float(np.linalg.norm(q - ball.center)) - ball.radius
        if self.kind == "scaling" or gap < self.beta * ball.diameter:
            return None, "outside"
        return (0, float(batch_values(self.family.take([0]), q)[0, 0])), None

    # -- statistics -----------------------------------------------------------

    def storage_stats(self) -> dict:
        """Sizes of the structures built so far; expands no node.
        ``exact_leaves`` and ``envelope_leaves`` count the built leaves of
        each kind (``stats["brute_leaves"]`` counts the brute ones),
        ``tree_expansions`` the rows of the tree's node table that are no
        longer pending, ``tree_nodes`` all its rows, ``tree_top_nodes`` the
        rows built with the index (the rest are built by queries) and
        ``tree_bytes`` the bytes its columns and hole table hold."""
        env_samples = exact = envelope = 0
        leaves = self.tree.built_leaves()
        for leaf in leaves:
            att = leaf.attachment
            if att is None or att.brute:
                continue
            if att.outer_env is None:
                exact += 1
            else:
                envelope += 1
                env_samples += att.outer_env.sample_count
        return {
            "leaves": len(leaves),
            "exact_leaves": exact,
            "envelope_leaves": envelope,
            "envelope_samples": env_samples,
            "tree_expansions": self.tree.expansions,
            "tree_nodes": self.tree.tree_nodes(),
            "tree_top_nodes": self.tree.top_nodes,
            "tree_bytes": self.tree.tree_bytes(),
        }


def build_index(sites: SiteFamily | list[SiteFunction], eps: float) -> AnnIndex:
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
    if not all(is_builtin_generator(spec) for spec in fam.specs):
        raise ValueError("custom Bregman generators are not serializable")
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
        # One kernel per exponent, in order of first appearance.
        _, first = np.unique(ks, return_index=True)
        groups = [(idx, *minkowski_sites(points[idx], k, ws[idx], taus[idx]))
                  for k in ks[np.sort(first)] for idx in [np.flatnonzero(ks == k)]]
    elif fam_code == 1:
        groups = [(slice(None), *mahalanobis_sites(points, mats, taus))]
    else:
        spec = builtin_bregman_spec(name, d, lo, hi, mat)
        groups = [(slice(None), *bregman_sites(spec, points, taus))]
    index = AnnIndex(SiteFamily.from_groups(groups), eps)
    stored = AvdTree.from_bytes(record)
    derived = (index.dim, index.tree.cfg)
    if stored != derived:
        raise ValueError(f"tree configuration record {stored} differs from {derived} "
                         "derived from the sites")
    return index
