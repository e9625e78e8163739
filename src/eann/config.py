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

Each kind reads only its own keys (``_KIND_KEYS``). ``build_site_functions``
builds the family with one call of the kind's constructor, as
``load_index`` does, and makes no site object.
"""

from __future__ import annotations

import numpy as np

from ._batch import SiteFamily
from .distances import bregman_sites, builtin_bregman_spec, mahalanobis_sites, minkowski_sites


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


_KIND_KEYS = {
    "minkowski": {"k", "weight", "weights"},
    "mahalanobis": {"matrix"},
    "bregman": {"generator", "domain_low", "domain_high", "matrix"},
}


def parse_distance_config(text: str) -> dict:
    """The key-value pairs of a configuration. A key the kind does not
    read, a repeated key, or ``weight`` beside ``weights`` raises
    ``ValueError`` naming the key and its line."""
    cfg: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in cfg:
            raise ValueError(f"line {lineno}: repeated key '{key}' (first on line {lines[key]})")
        cfg[key], lines[key] = value, lineno
    if "kind" not in cfg:
        raise ValueError("missing 'kind'")
    kind = cfg["kind"]
    if kind not in _KIND_KEYS:
        raise ValueError(f"unknown kind '{kind}'")
    known = set().union(*_KIND_KEYS.values())
    for key, lineno in lines.items():
        if key != "kind" and key not in _KIND_KEYS[kind]:
            why = f"does not apply to kind {kind}" if key in known else "is unknown"
            raise ValueError(f"line {lineno}: key '{key}' {why}")
    if "weight" in cfg and "weights" in cfg:
        raise ValueError(f"line {max(lines['weight'], lines['weights'])}: "
                         "keys 'weight' and 'weights' exclude each other")
    return cfg


def load_distance_config(path: str) -> dict:
    with open(path) as fh:
        return parse_distance_config(fh.read())


def _floats(s: str) -> np.ndarray:
    return np.array([float(tok) for tok in s.split()], dtype=float)


def build_site_functions(cfg: dict, points: np.ndarray) -> SiteFamily:
    """The family of one distance function per point from a parsed
    configuration, built by its kind's constructor with no site object."""
    n, d = points.shape
    kind = cfg["kind"]
    if kind == "minkowski":
        if "weights" in cfg:
            weights = _floats(cfg["weights"])
            if len(weights) != n:
                raise ValueError(f"expected {n} weights, got {len(weights)}")
        else:
            weights = np.full(n, float(cfg.get("weight", 1.0)))
        group = minkowski_sites(points, float(cfg.get("k", 2.0)), weights)
    elif kind == "mahalanobis":
        if "matrix" not in cfg:
            raise ValueError("mahalanobis kind needs 'matrix'")
        entries = _floats(cfg["matrix"])
        if len(entries) != d * d:
            raise ValueError(f"matrix needs {d * d} entries, got {len(entries)}")
        group = mahalanobis_sites(points, np.broadcast_to(entries.reshape(d, d), (n, d, d)))
    else:
        lo, hi, entries = (_floats(cfg[key]) if key in cfg else None
                           for key in ("domain_low", "domain_high", "matrix"))
        spec = builtin_bregman_spec(cfg.get("generator", "generalized-kl"), d, lo, hi, entries)
        group = bregman_sites(spec, points)
    return SiteFamily.from_groups([(slice(None), *group)])
