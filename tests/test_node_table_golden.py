"""The tree's node table pinned byte for byte, as a sha256 per tree.

The answer goldens pin only answers, and the lazy-versus-materialized tests
compare two trees built by the same code. These digests pin the rows
themselves: every byte of the kind, midpoint, id pair, depth, box and hole
columns and of the hole table, in row order. A change to how a descent
writes its rows, or to which rows it writes, changes them.

Each index's tree locates 200 seeded queries on a fresh (lazily built)
index; the clustered tree is materialized in full.
"""

import hashlib

import numpy as np
import pytest

from eann.ann import build_index
from eann.avd import AvdConfig, build_avd
from eann.cli import gen_family, gen_queries, gen_sites

# (family tag, n, d, eps) -> sha256 of the node table after 200 queries.
LAZY = {
    ("l3", 2000, 2, 0.1):
        "0beba45fa25c94dd0241cad00141adf7eb34cb8ab02a01b4f3a5e31d5ecd46e1",
    ("kl", 1000, 2, 0.1):
        "581457a618b45bbbea9416f9b753a16419c131843c5eb8b398ae184abc27ca27",
    ("mahalanobis", 600, 3, 0.25):
        "2edd876a8c9be6b4cbb9cf3ca9a58960ccaf2a4005cf9c5b038b4d1ac8aa54a1",
}
# sha256 of the materialized tree of 60 sites in three clusters.
CLUSTERED = "4f94162e68477f8032620917d5b83ca2119015b6bcb4364690167287eb1285ed"


def _table_digest(tree) -> str:
    h = hashlib.sha256()
    for column in (tree._kind, tree._mid, tree._kids, tree._depth, tree._box, tree._hole,
                   tree._holes):
        h.update(column.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(LAZY), ids=lambda c: f"{c[0]}-d{c[2]}")
def test_lazy_node_table_matches_golden(case):
    tag, n, d, eps = case
    rng = np.random.default_rng(1234)
    index = build_index(gen_family(tag, gen_sites(rng, n, d, tag), rng), eps)
    for q in gen_queries(rng, 200, d, tag):
        index.tree.locate(q)
    assert _table_digest(index.tree) == LAZY[case]


def test_materialized_clustered_node_table_matches_golden():
    rng = np.random.default_rng(1234)
    centers = rng.uniform(0.2, 0.8, (3, 2))
    sites = centers[rng.integers(0, 3, 60)] + rng.uniform(-1e-6, 1e-6, (60, 2))
    tree = build_avd(sites, AvdConfig(2.0, 4.0))
    tree.materialize()
    assert _table_digest(tree) == CLUSTERED
