"""Text formats: point files and distance configurations.

Point files hold one point per line, whitespace-separated decimals; lines
starting with '#' (and blank lines) are ignored.

Distance configurations are key-value lines ("key = value", '#' comments):

    kind = minkowski | mahalanobis | bregman
    k = 2.0                  # minkowski exponent (> 1)
    weight = 1.0             # uniform weight, or
    weights = 1.0 1.5 ...    # one weight per site
    matrix = 4 0 0 1         # row-major d*d, shared by all sites
    generator = generalized-kl | itakura-saito | squared-euclidean
                | squared-mahalanobis
    domain_low = 0.1 0.1     # Bregman working box
    domain_high = 1 1
"""

from __future__ import annotations

import numpy as np

from .distances import (
    BUILTIN_BREGMAN,
    SiteFunction,
    make_bregman,
    make_mahalanobis,
    make_minkowski,
    squared_mahalanobis_spec,
)


def parse_points(text: str) -> np.ndarray:
    rows = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            vals = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if dim is None:
            dim = len(vals)
        elif len(vals) != dim:
            raise ValueError(f"line {lineno}: expected {dim} coordinates, got {len(vals)}")
        rows.append(vals)
    if not rows:
        raise ValueError("no sites")
    return np.asarray(rows, dtype=float)


def load_points(path: str) -> np.ndarray:
    with open(path) as fh:
        return parse_points(fh.read())


def parse_distance_config(text: str) -> dict:
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg[key] = value
    if "kind" not in cfg:
        raise ValueError("missing 'kind'")
    kind = cfg["kind"]
    if kind not in ("minkowski", "mahalanobis", "bregman"):
        raise ValueError(f"unknown kind '{kind}'")
    return cfg


def load_distance_config(path: str) -> dict:
    with open(path) as fh:
        return parse_distance_config(fh.read())


def _floats(s: str) -> np.ndarray:
    return np.array([float(tok) for tok in s.split()], dtype=float)


def build_site_functions(cfg: dict, points: np.ndarray) -> list[SiteFunction]:
    """Instantiate one site function per point from a parsed configuration."""
    n, d = points.shape
    kind = cfg["kind"]
    if kind == "minkowski":
        k = float(cfg.get("k", 2.0))
        if "weights" in cfg:
            weights = _floats(cfg["weights"])
            if len(weights) != n:
                raise ValueError(f"expected {n} weights, got {len(weights)}")
        else:
            weights = np.full(n, float(cfg.get("weight", 1.0)))
        return [make_minkowski(points[i], k, float(weights[i])) for i in range(n)]
    if kind == "mahalanobis":
        if "matrix" not in cfg:
            raise ValueError("mahalanobis kind needs 'matrix'")
        entries = _floats(cfg["matrix"])
        if len(entries) != d * d:
            raise ValueError(f"matrix needs {d * d} entries, got {len(entries)}")
        M = entries.reshape(d, d)
        return [make_mahalanobis(points[i], M) for i in range(n)]
    # bregman
    name = cfg.get("generator", "generalized-kl")
    if name not in BUILTIN_BREGMAN:
        raise ValueError(f"unknown generator '{name}'")
    lo = _floats(cfg["domain_low"]) if "domain_low" in cfg else None
    hi = _floats(cfg["domain_high"]) if "domain_high" in cfg else None
    if name == "squared-euclidean":
        spec = BUILTIN_BREGMAN[name](d)
    elif name == "squared-mahalanobis":
        if "matrix" not in cfg:
            raise ValueError("squared-mahalanobis generator needs 'matrix'")
        entries = _floats(cfg["matrix"])
        spec = squared_mahalanobis_spec(entries.reshape(d, d), lo, hi)
    else:
        spec = BUILTIN_BREGMAN[name](d, lo if lo is not None else 0.1,
                                     hi if hi is not None else 1.0)
    return [make_bregman(spec, points[i]) for i in range(n)]
