"""Answers pinned bit for bit, as a sha256 per family.

Each index answers 200 seeded queries on a fresh (lazily built) index. The
digest covers every ``(witness, value.hex())`` pair in query order, so any
change to the tree, the prune screen, the kept members of a leaf envelope or
the arithmetic of an answer that moves a witness or the last bit of a value
changes it.
"""

import hashlib

import numpy as np
import pytest

from eann.ann import build_index
from eann.cli import gen_family, gen_queries, gen_sites

# (family tag, n, d, eps) -> sha256 of the answers to 200 queries.
GOLDEN = {
    ("l2", 400, 2, 0.1):
        "fcdb3ce54554acd73ed52e41ce0ee1a601dc74e0e45e8c7123527d16f27ce06d",
    ("l3", 400, 2, 0.1):
        "3f028377a10d6f0d117d617a05894d399c63c986234316f8ba6f7050d3fcc580",
    ("mahalanobis", 200, 3, 0.25):
        "cc1c83212f95c09dda0c2de98e36ca9d11bed6df543ee6577d30d93fbf4335a3",
    ("kl", 400, 2, 0.1):
        "7ec04c958d5d0a26cb2af60da19ad3b41324ef6ac07bd454fdfb4debd6600efe",
    ("is", 300, 2, 0.1):
        "5d416463a09a00139e2e3fc469c2fafb4e012c0e418be3fa7e542f61edf5d593",
}


def _digest(tag, n, d, eps) -> str:
    rng = np.random.default_rng(1234)
    index = build_index(gen_family(tag, gen_sites(rng, n, d, tag), rng), eps)
    h = hashlib.sha256()
    for q in gen_queries(rng, 200, d, tag):
        fid, value = index.query(q)
        h.update(f"{fid} {value.hex()}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: f"{c[0]}-d{c[2]}")
def test_answers_match_golden(case):
    assert _digest(*case) == GOLDEN[case]
