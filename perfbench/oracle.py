"""Generated inputs, an exact numpy oracle, and the record of every answer.

The oracle is written from the definitions of the distance families, with
no code shared with the eann package, so it checks the package rather than
repeating it.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import Counter

import numpy as np

KL_LOW, KL_HIGH = 0.1, 1.0
KL_MARGIN = 1e-4


class Family:
    """Generated points of one index, its site functions and an exact scan."""

    def __init__(self, spec: dict, rng: np.random.Generator):
        self.name = spec["family"]
        self.n, self.d, self.eps = int(spec["n"]), int(spec["d"]), float(spec["eps"])
        if self.name == "kl":
            self.low, self.high = KL_LOW + KL_MARGIN, KL_HIGH - KL_MARGIN
        else:
            self.low, self.high = 0.0, 1.0
        self.points = rng.uniform(self.low, self.high, size=(self.n, self.d))
        self.matrices = None
        if self.name == "mahalanobis":
            mats = []
            for _ in range(self.n):
                q, r = np.linalg.qr(rng.standard_normal((self.d, self.d)))
                q = q * np.sign(np.diag(r))[None, :]
                eig = np.exp(rng.uniform(0.0, np.log(4.0), size=self.d))
                mats.append(q @ np.diag(eig) @ q.T)
            self.matrices = np.stack(mats)

    def label(self) -> str:
        return f"{self.name} n={self.n} d={self.d} eps={self.eps}"

    def queries(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=(count, self.d))

    def site_functions(self, eann) -> list:
        if self.name in ("l2", "l3"):
            k = float(self.name[1:])
            return [eann.make_minkowski(p, k) for p in self.points]
        if self.name == "mahalanobis":
            return [eann.make_mahalanobis(p, m) for p, m in zip(self.points, self.matrices)]
        if self.name == "kl":
            spec = eann.generalized_kl_spec(self.d, KL_LOW, KL_HIGH)
            return [eann.make_bregman(spec, p) for p in self.points]
        raise ValueError(f"unknown family {self.name}")

    def scan(self, q: np.ndarray) -> np.ndarray:
        """Values of every site function at q, written from the definitions."""
        P = self.points
        if self.name == "l2":
            V = P - q
            return np.sqrt(np.einsum("nd,nd->n", V, V))
        if self.name == "l3":
            return np.sum(np.abs(P - q) ** 3, axis=1) ** (1.0 / 3.0)
        if self.name == "mahalanobis":
            V = P - q
            return np.sqrt(np.einsum("nd,nde,ne->n", V, self.matrices, V))
        return np.sum(q * np.log(q / P) - q + P, axis=1)  # generalized KL


def answer_ok(fam: Family, q: np.ndarray, answer) -> bool:
    """The (1+eps) bound, and the reported value is the witness's true value."""
    witness, value = answer
    vals = fam.scan(q)
    best = float(vals.min())
    true = float(vals[witness])
    return (value <= (1.0 + fam.eps) * best * (1.0 + 1e-10)
            and abs(value - true) <= 1e-9 * abs(true) + 1e-12)


class Ledger:
    """Every answer given, keyed by (index slot, query id)."""

    def __init__(self):
        self.queries: dict[tuple, np.ndarray] = {}
        self.first: dict[tuple, tuple] = {}
        self.counts: dict[tuple, Counter] = {}
        self.attempted = 0
        self.errors = 0
        self.mismatch = 0

    def record(self, key: tuple, q: np.ndarray, answer) -> None:
        self.attempted += 1
        self.queries.setdefault(key, q)
        if answer is None:
            self.errors += 1
            return
        if self.first.setdefault(key, answer) != answer:
            self.mismatch += 1
        self.counts.setdefault(key, Counter())[answer] += 1

    def check(self, fams: list[Family]) -> int:
        """Answers failing the oracle, weighted by how often they were given."""
        bad = 0
        for key, answers in self.counts.items():
            fam, q = fams[key[0]], self.queries[key]
            bad += sum(c for a, c in answers.items() if not answer_ok(fam, q, a))
        return bad

    def digest(self, keys) -> str:
        h = hashlib.sha256()
        for key in sorted(keys):
            witness, value = self.first.get(key, (-1, math.nan))
            h.update(struct.pack("<iiqd", key[0], key[1], witness, value))
        return h.hexdigest()[:16]
