"""Command-line surface: build, query, bench, and verify.

Random instance generation for benchmarks and tests also lives here: sites
are uniform in the unit box; Mahalanobis matrices are random rotations of
diagonal eigenvalues drawn log-uniformly from [1, 4]; Bregman instances use
the box [0.1, 1]^d so the generator Hessians stay bounded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .admissibility import (
    SampleSpec,
    check_eigen_sandwich,
    check_three_point,
    measure_admissibility,
    measure_bregman_complexity,
)
from .ann import brute_force, build_index, load_index, save_index
from .config import build_site_functions, load_distance_config, load_points
from .distances import (
    SiteFunction,
    generalized_kl_spec,
    itakura_saito_spec,
    make_bregman,
    make_mahalanobis,
    make_minkowski,
)
from .envelope import build_relative
from .geom import EuclideanBall

BREGMAN_BOX_LOW = 0.1
BREGMAN_BOX_HIGH = 1.0


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))[None, :]


def gen_sites(rng: np.random.Generator, n: int, d: int, kind_tag: str) -> np.ndarray:
    if kind_tag in ("kl", "is"):
        return rng.uniform(BREGMAN_BOX_LOW, BREGMAN_BOX_HIGH, size=(n, d))
    return rng.random((n, d))


def gen_queries(rng: np.random.Generator, count: int, d: int, kind_tag: str) -> np.ndarray:
    return gen_sites(rng, count, d, kind_tag)


def gen_family(kind_tag: str, points: np.ndarray, rng: np.random.Generator) -> list[SiteFunction]:
    """Site functions for a named benchmark family."""
    n, d = points.shape
    if kind_tag == "l1.5":
        return [make_minkowski(p, 1.5) for p in points]
    if kind_tag == "l2":
        return [make_minkowski(p, 2.0) for p in points]
    if kind_tag == "l3":
        return [make_minkowski(p, 3.0) for p in points]
    if kind_tag == "wl2":
        weights = np.exp(rng.uniform(np.log(1.0), np.log(2.0), size=n))
        return [make_minkowski(points[i], 2.0, float(weights[i])) for i in range(n)]
    if kind_tag == "mahalanobis":
        fns = []
        for i in range(n):
            eig = np.exp(rng.uniform(np.log(1.0), np.log(4.0), size=d))
            rot = random_rotation(rng, d)
            fns.append(make_mahalanobis(points[i], rot @ np.diag(eig) @ rot.T))
        return fns
    if kind_tag == "kl":
        spec = generalized_kl_spec(d, BREGMAN_BOX_LOW, BREGMAN_BOX_HIGH)
        return [make_bregman(spec, p) for p in points]
    if kind_tag == "is":
        spec = itakura_saito_spec(d, BREGMAN_BOX_LOW, BREGMAN_BOX_HIGH)
        return [make_bregman(spec, p) for p in points]
    raise ValueError(f"unknown family tag '{kind_tag}'")


# ---------------------------------------------------------------------------
# build / query
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    points = load_points(args.points)
    cfg = load_distance_config(args.config)
    if not (0.0 < args.eps <= 1.0):
        print("error: eps out of range", file=sys.stderr)
        return 1
    index = build_index(build_site_functions(cfg, points), args.eps)
    nbytes = save_index(index, args.out)
    print(f"n = {index.n}")
    print(f"d = {index.dim}")
    print(f"kind = {index.kind}")
    print(f"tau = {index.tau:.17g}")
    print(f"alpha = {index.alpha:.17g}")
    print(f"beta = {index.beta:.17g}")
    print(f"leaves = {index.storage_stats()['leaves']}")
    print(f"bytes = {nbytes}")
    return 0


def cmd_query(args) -> int:
    index = load_index(args.index)
    queries = load_points(args.queries)
    if queries.shape[1] != index.dim:
        print("error: dimension mismatch", file=sys.stderr)
        return 1
    failures = 0
    for q in queries:
        try:
            witness, value = index.query(q)
        except ValueError as exc:  # a non-finite row, or one outside the domain
            print(f"error: {exc}")
            continue
        line = f"{witness} {value:.17g}"
        if args.check:
            _, best = brute_force(index.family, q)
            ok = value <= (1.0 + index.eps) * best * (1.0 + 1e-10) + 1e-300
            if not ok:
                failures += 1
                line += f"  FAIL oracle={best:.17g}"
        print(line)
    if args.check and failures:
        print(f"error: {failures} queries exceeded (1+eps) bound", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    cfg = load_distance_config(args.config)
    if args.site is not None:
        site = np.array([float(t) for t in args.site.split()])
    elif args.points is not None:
        site = load_points(args.points)[0]
    else:
        print("error: need --site or --points", file=sys.stderr)
        return 1
    fn = build_site_functions(cfg, site[None, :]).member(0)
    breg_spec = getattr(fn.kernel, "spec", None)
    d = site.size
    low = np.array([float(t) for t in args.region_low.split()]) if args.region_low else None
    high = np.array([float(t) for t in args.region_high.split()]) if args.region_high else None
    if low is None or high is None:
        if breg_spec is not None and breg_spec.bounded:
            low, high = breg_spec.domain_low, breg_spec.domain_high
        else:
            low, high = site - 2.0, site + 2.0
    spec = SampleSpec((low, high), args.samples, args.seed)
    report = measure_admissibility(fn, spec)
    payload = report.as_dict()
    ok = np.isfinite(report.tau)
    if breg_spec is not None:
        breg = measure_bregman_complexity(breg_spec, spec)
        payload["mu_asym"] = breg.mu_asym
        payload["mu_sim"] = breg.mu_sim
        payload["mu_dir"] = breg.mu_dir
        payload["sim_rescaled"] = breg.sim_rescaled
        rng = np.random.default_rng(args.seed + 1)
        pts = rng.uniform(low, high, size=(60, d))
        resid = max(
            check_three_point(breg_spec, pts[i], pts[i + 20], pts[i + 40]) for i in range(20)
        )
        sandwich = all(check_eigen_sandwich(breg_spec, pts[i], pts[i + 20]) for i in range(20))
        payload["three_point_residual"] = resid
        payload["eigen_sandwich"] = sandwich
        ok = ok and np.isfinite(breg.mu_dir) and sandwich and resid < 1e-9 * 100
    for key, value in payload.items():
        print(f"{key} = {value}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
    print(f"gate = {'pass' if ok else 'fail'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _timed_pass(index, queries) -> tuple[np.ndarray, list]:
    """Latency in seconds and answer of each query."""
    latencies = np.empty(len(queries))
    answers = []
    for i, q in enumerate(queries):
        t0 = time.perf_counter()
        answers.append(index.query(q))
        latencies[i] = time.perf_counter() - t0
    return latencies, answers


def _run_bench_config(kind_tag: str, n: int, d: int, eps: float, seed: int,
                      n_queries: int) -> dict:
    rng = np.random.default_rng(seed)
    points = gen_sites(rng, n, d, kind_tag)
    fns = gen_family(kind_tag, points, rng)
    t0 = time.perf_counter()
    index = build_index(fns, eps)
    build_s = time.perf_counter() - t0
    queries = gen_queries(rng, n_queries, d, kind_tag)
    # The first pass builds the leaves it touches; the second answers the
    # same queries on built leaves and must give the same answers.
    cold, answers = _timed_pass(index, queries)
    warm, again = _timed_pass(index, queries)
    if again != answers:
        raise RuntimeError(f"{kind_tag}: the warm pass changed an answer")
    worst = 0.0
    failures = 0
    for q, (_, value) in zip(queries, answers):
        _, best = brute_force(index.family, q)
        ratio = value / best if best > 0 else 1.0
        worst = max(worst, ratio)
        if value > (1.0 + eps) * best * (1.0 + 1e-10) + 1e-300:
            failures += 1
    stats = index.storage_stats()
    return {
        "kind": kind_tag,
        "n": n,
        "d": d,
        "eps": eps,
        "tau": index.tau,
        "build_seconds": build_s,
        "leaves_touched": stats["leaves"],
        "envelope_samples": stats["envelope_samples"],
        "locate_visits_mean": index.stats["locate_visits"] / max(1, index.stats["queries"]),
        "cold_latency_mean_us": float(cold.mean() * 1e6),
        "cold_latency_median_us": float(np.median(cold) * 1e6),
        "cold_latency_p99_us": float(np.quantile(cold, 0.99) * 1e6),
        "warm_latency_mean_us": float(warm.mean() * 1e6),
        "warm_latency_median_us": float(np.median(warm) * 1e6),
        "warm_latency_p99_us": float(np.quantile(warm, 0.99) * 1e6),
        "worst_ratio": worst,
        "failures": failures,
        "outside_queries": index.stats["outside_queries"],
        "brute_queries": index.stats["brute_queries"],
    }


def storage_exponent_fit(d: int, eps_values=(0.4, 0.2, 0.1, 0.05), seed: int = 12345) -> dict:
    """Full envelope sample counts of one separated family across eps,
    with the log-log slope of count against 1/eps."""
    rng = np.random.default_rng(seed)
    ball = EuclideanBall(np.zeros(d), 1.0)
    fns = []
    for _ in range(8):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        dist = rng.uniform(7.0, 12.0)
        fns.append(make_minkowski(u * dist, 2.0, float(rng.uniform(1.0, 2.0))))
    counts = []
    for eps in eps_values:
        env = build_relative(fns, ball, eps)
        env.materialize_all()
        counts.append(env.sample_count)
    x = np.log(1.0 / np.asarray(eps_values))
    y = np.log(np.asarray(counts, dtype=float))
    slope = float(np.polyfit(x, y, 1)[0])
    return {"d": d, "eps": list(eps_values), "counts": counts, "exponent": slope}


def leaf_scaling_fit(d: int = 2, n_values=(100, 400, 1600), eps: float = 0.25,
                     seed: int = 999) -> dict:
    """Materialized leaf counts and locate costs across n at fixed eps."""
    rows = []
    for n in n_values:
        rng = np.random.default_rng(seed + n)
        points = gen_sites(rng, n, d, "l2")
        index = build_index(gen_family("l2", points, rng), eps)
        queries = gen_queries(rng, 200, d, "l2")
        for q in queries:
            index.query(q)
        leaves = index.tree.leaf_count()
        visits = index.stats["locate_visits"] / max(1, index.stats["queries"])
        rows.append({"n": n, "leaves": leaves, "leaves_per_n": leaves / n,
                     "locate_visits_mean": visits})
    return {"d": d, "eps": eps, "rows": rows}


def _is_positive_int(v) -> bool:
    return type(v) is int and v >= 1  # a JSON true is a bool, not an int here


# The element check of each list setting of a sweep, and the words naming it.
_SWEEP_LISTS = {
    "kinds": (lambda v: type(v) is str, "strings"),
    "n": (_is_positive_int, "positive integers"),
    "d": (_is_positive_int, "positive integers"),
    "eps": (lambda v: type(v) in (int, float), "real numbers"),
    "leaf_fit_n": (_is_positive_int, "positive integers"),
}


def _read_sweep(path: str) -> dict:
    """A sweep config: a JSON object whose list settings are non-empty
    lists of valid elements, whose ``queries`` is a positive integer and
    whose ``seed`` is an integer."""
    with open(path) as fh:
        sweep = json.load(fh)
    if not isinstance(sweep, dict):
        raise ValueError(f"sweep config must be a JSON object, not {type(sweep).__name__}")
    for key, (valid, words) in _SWEEP_LISTS.items():
        if key not in sweep:
            continue
        if not (isinstance(sweep[key], list) and sweep[key]):
            raise ValueError(f"sweep config '{key}' must be a non-empty list, got {sweep[key]!r}")
        for v in sweep[key]:
            if not valid(v):
                raise ValueError(f"sweep config '{key}' must hold {words}, got {v!r}")
    if "queries" in sweep and not _is_positive_int(sweep["queries"]):
        raise ValueError(f"sweep config 'queries' must be a positive integer, "
                         f"got {sweep['queries']!r}")
    if "seed" in sweep and type(sweep["seed"]) is not int:
        raise ValueError(f"sweep config 'seed' must be an integer, got {sweep['seed']!r}")
    return sweep


def cmd_bench(args) -> int:
    sweep = _read_sweep(args.config)
    kinds = sweep.get("kinds", ["l2"])
    ns = sweep.get("n", [100])
    ds = sweep.get("d", [2])
    eps_list = sweep.get("eps", [0.25])
    seed = sweep.get("seed", 0)
    n_queries = sweep.get("queries", 200)

    combos = [(k, n, d, e) for k in kinds for d in ds for n in ns for e in eps_list]
    results = [_run_bench_config(k, n, d, e, seed + 1000 * i, n_queries)
               for i, (k, n, d, e) in enumerate(combos)]

    if sweep.get("fits", True):
        fits = {
            "storage": [storage_exponent_fit(d, seed=seed + 7) for d in ds],
            "leaves": leaf_scaling_fit(d=min(ds), seed=seed + 11,
                                       n_values=tuple(sweep.get("leaf_fit_n", (100, 400, 1600)))),
        }
    else:
        fits = {"storage": [], "leaves": {"rows": [], "d": min(ds), "eps": 0.25}}
    failures = sum(r["failures"] for r in results)
    report = {"configs": results, "fits": fits, "failures": failures}

    for r in results:
        print(
            f"{r['kind']:12s} n={r['n']:<6d} d={r['d']} eps={r['eps']:<5g} "
            f"worst={r['worst_ratio']:.6f} fail={r['failures']} "
            f"leaves={r['leaves_touched']} env={r['envelope_samples']} "
            f"cold_us={r['cold_latency_mean_us']:.0f} warm_us={r['warm_latency_mean_us']:.0f} "
            f"visits={r['locate_visits_mean']:.1f}"
        )
    for fit in fits["storage"]:
        print(f"storage d={fit['d']}: counts={fit['counts']} exponent={fit['exponent']:.3f}")
    for row in fits["leaves"]["rows"]:
        print(
            f"leaves n={row['n']:<6d} count={row['leaves']} per_n={row['leaves_per_n']:.2f} "
            f"visits={row['locate_visits_mean']:.1f}"
        )
    print(f"failures = {failures}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, default=str)
    return 2 if failures else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="eann",
                                     description="Approximate nearest-neighbor search "
                                                 "for gauge and Bregman distances")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an index file from points")
    p_build.add_argument("points")
    p_build.add_argument("config")
    p_build.add_argument("eps", type=float)
    p_build.add_argument("out")
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="answer queries from an index file")
    p_query.add_argument("index")
    p_query.add_argument("queries")
    p_query.add_argument("--check", action="store_true",
                         help="verify each answer against the brute-force oracle")
    p_query.set_defaults(func=cmd_query)

    p_verify = sub.add_parser("verify", help="measure growth/asymmetry constants")
    p_verify.add_argument("config")
    p_verify.add_argument("--site", help="site coordinates, space separated")
    p_verify.add_argument("--points", help="points file; the first point is the site")
    p_verify.add_argument("--region-low", dest="region_low")
    p_verify.add_argument("--region-high", dest="region_high")
    p_verify.add_argument("--samples", type=int, default=4000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="run a sweep from a JSON config")
    p_bench.add_argument("config")
    p_bench.add_argument("--json")
    p_bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
