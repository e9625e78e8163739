"""Seeded fuzz of the text formats: mutated point files and distance
configurations must either parse and build or fail with ``ValueError``,
never with another exception and never by hanging."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from eann.config import build_site_functions, parse_distance_config, parse_points

SEED = 20261018
CASES = 2000
CASE_SECONDS = 2.0

POINT_FILES = [
    "# sites\n0.2 0.3\n0.5 0.5\n0.7 0.1\n",
    "0.2 0.3 0.4\n0.5 0.5 0.6\n\n0.7 0.1 0.9\n",
]
CONFIGS = [
    "kind = minkowski\nk = 3\nweight = 1.5\n",
    "kind = minkowski\nk = 1.5\nweights = 1 2 3\n",
    "kind = mahalanobis\nmatrix = 2 0 0 1\n",
    "kind = bregman\ngenerator = generalized-kl\ndomain_low = 0.1 0.1\ndomain_high = 1 1\n",
    "kind = bregman\ngenerator = itakura-saito\ndomain_low = 0.1\ndomain_high = 1\n",
    "kind = bregman\ngenerator = squared-euclidean\n",
    "kind = bregman\ngenerator = squared-mahalanobis\nmatrix = 2 0 0 1\n"
    "domain_low = 0 0\ndomain_high = 1 1\n",
]
TOKENS = ["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300", "5e-324",
          "0", "-1", "1", "2", "", "abc", "0x10", "1e", "=", "#"]
# Replacing a token with a hostile value is the edit most likely to reach
# arithmetic in the constructors; the other six edits share the rest.
OP_WEIGHTS = [0.4] + [0.1] * 6
KEYS = ["kind", "k", "weight", "weights", "matrix", "generator", "domain_low",
        "domain_high", "color"]


def mutate(text: str, rng: np.random.Generator) -> str:
    """One to three random edits: a token replaced, dropped or added, a value
    emptied, a line dropped or duplicated, or an unknown or repeated key."""
    lines = text.splitlines()
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(len(lines))) if lines else 0
        op = int(rng.choice(7, p=OP_WEIGHTS))
        if not lines:
            lines.append(str(rng.choice(TOKENS)))
        elif op == 0:  # replace a token
            toks = lines[i].split(" ")
            toks[int(rng.integers(len(toks)))] = str(rng.choice(TOKENS))
            lines[i] = " ".join(toks)
        elif op == 1:  # drop a token
            toks = lines[i].split(" ")
            del toks[int(rng.integers(len(toks)))]
            lines[i] = " ".join(toks)
        elif op == 2:  # add a token
            lines[i] += " " + str(rng.choice(TOKENS))
        elif op == 3:  # empty the value
            lines[i] = lines[i].split("=", 1)[0] + "=" if "=" in lines[i] else ""
        elif op == 4:  # drop the line
            del lines[i]
        elif op == 5:  # duplicate the line
            lines.insert(i, lines[i])
        else:  # a key line, possibly unknown or with a hostile value
            lines.insert(i, f"{rng.choice(KEYS)} = {rng.choice(TOKENS)}")
    return "\n".join(lines) + "\n"


@contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the block after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def outcome(fn, *args) -> str:
    """'ok', 'ValueError', or the name of any other exception."""
    try:
        with deadline(CASE_SECONDS):
            fn(*args)
    except ValueError:
        return "ValueError"
    except Exception as exc:  # anything else is a defect
        return type(exc).__name__
    return "ok"


def build(cfg_text: str, points_text: str):
    return build_site_functions(parse_distance_config(cfg_text), parse_points(points_text))


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_mutated_texts_fail_only_with_value_error():
    rng = np.random.default_rng(SEED)
    seen, bad = {"ok": 0, "ValueError": 0}, []
    for case in range(CASES):
        points_text = POINT_FILES[case % len(POINT_FILES)]
        cfg_text = CONFIGS[int(rng.integers(len(CONFIGS)))]
        # A point file alone, a configuration alone, or both at once.
        if case % 3 != 1:
            points_text = mutate(points_text, rng)
        if case % 3 != 0:
            cfg_text = mutate(cfg_text, rng)
        if case % 3 == 0:
            result = outcome(parse_points, points_text)
        else:
            result = outcome(build, cfg_text, points_text)
        if result in seen:
            seen[result] += 1
        else:
            bad.append((result, points_text, cfg_text))
    assert bad == []
    # The mutations reach both outcomes, so neither path is dead.
    assert min(seen.values()) >= CASES // 10, seen
