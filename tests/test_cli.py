import json
import struct
import zlib

import numpy as np
import pytest

from eann import cli
from eann.ann import load_index
from eann.cli import gen_sites, main
from eann.config import build_site_functions, parse_distance_config


@pytest.fixture
def workspace(tmp_path, rng):
    pts = rng.random((50, 2))
    points = tmp_path / "sites.txt"
    points.write_text("# sites\n" + "\n".join(f"{p[0]} {p[1]}" for p in pts))
    config = tmp_path / "l2.cfg"
    config.write_text("kind = minkowski\nk = 2\nweight = 1.0\n")
    queries = tmp_path / "queries.txt"
    qs = rng.random((40, 2))
    queries.write_text("\n".join(f"{q[0]} {q[1]}" for q in qs))
    return tmp_path, points, config, queries


def test_build_and_query(workspace, capsys):
    tmp, points, config, queries = workspace
    out = tmp / "index.eann"
    rc = main(["build", str(points), str(config), "0.25", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert out.exists()
    assert "n = 50" in captured
    assert "alpha" in captured and "beta" in captured and "leaves" in captured

    rc = main(["query", str(out), str(queries), "--check"])
    q_out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in q_out.strip().splitlines() if l]
    assert len(lines) == 40
    for line in lines:
        parts = line.split()
        int(parts[0])
        float(parts[1])


def test_query_deterministic_output(workspace, capsys):
    tmp, points, config, queries = workspace
    out = tmp / "index.eann"
    main(["build", str(points), str(config), "0.25", str(out)])
    capsys.readouterr()
    main(["query", str(out), str(queries)])
    first = capsys.readouterr().out
    main(["query", str(out), str(queries)])
    second = capsys.readouterr().out
    assert first == second


def test_query_answers_the_rows_after_a_non_finite_one(tmp_path, capsys):
    """A NaN row prints its error on stdout, as a row outside a Bregman
    domain does, and the rows after it are still answered."""
    points = tmp_path / "sites.txt"
    points.write_text("0.1 0.2\n0.8 0.3\n0.4 0.9\n")
    config = tmp_path / "l2.cfg"
    config.write_text("kind = minkowski\nk = 2\nweight = 1.0\n")
    out = tmp_path / "index.eann"
    assert main(["build", str(points), str(config), "0.25", str(out)]) == 0
    queries = tmp_path / "queries.txt"
    queries.write_text("0.1 0.25\nnan 0.5\n0.45 0.85\n")
    capsys.readouterr()
    assert main(["query", str(out), str(queries)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "error: query must be finite"
    assert [line.split()[0] for line in (lines[0], lines[2])] == ["0", "2"]
    assert len(lines) == 3


def test_build_error_paths(workspace, capsys):
    tmp, points, config, queries = workspace
    empty = tmp / "empty.txt"
    empty.write_text("# nothing\n")
    rc = main(["build", str(empty), str(config), "0.25", str(tmp / "x.eann")])
    assert rc == 1
    assert "no sites" in capsys.readouterr().err

    rc = main(["build", str(points), str(config), "0.0", str(tmp / "x.eann")])
    assert rc == 1
    assert "eps out of range" in capsys.readouterr().err


def test_build_expands_no_leaf(tmp_path, capsys):
    """`build` reports the leaves expanded so far, which is none: it never
    materializes the tree (a whole `kl` n=400 tree has ~380,000 leaves)."""
    rng = np.random.default_rng(400)
    points = tmp_path / "kl.txt"
    points.write_text("\n".join(f"{p[0]:.17g} {p[1]:.17g}" for p in gen_sites(rng, 400, 2, "kl")))
    config = tmp_path / "kl.cfg"
    config.write_text("kind = bregman\ngenerator = generalized-kl\n"
                      "domain_low = 0.1 0.1\ndomain_high = 1 1\n")
    out = tmp_path / "kl.eann"
    assert main(["build", str(points), str(config), "0.1", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "n = 400" in lines and "leaves = 0" in lines
    index = load_index(str(out))
    assert index.n == 400 and index.eps == 0.1
    assert index.storage_stats()["leaves"] == 0


MALFORMED_CONFIGS = [
    "kind = minkowski\nk = nan\n",
    "kind = minkowski\nk = inf\n",
    "kind = minkowski\nweight = nan\n",
    "kind = minkowski\nweight = inf\n",
    "kind = bregman\ngenerator = squared-mahalanobis\n",
    "kind = mahalanobis\nmatrix = 1 0 0 1e-300\n",
    "kind = bregman\ngenerator = itakura-saito\ndomain_low = 1e-300\n",
    "kind = bregman\ngenerator = generalized-kl\ndomain_low = 0.1\n",
    "kind = bregman\nmatrix = 2 0 1\ngenerator = squared-mahalanobis\n",
]


@pytest.mark.parametrize("text", MALFORMED_CONFIGS)
def test_malformed_distance_parameters_raise_value_error(text, workspace, capsys):
    tmp, points, config, queries = workspace
    with pytest.raises(ValueError):
        build_site_functions(parse_distance_config(text), np.full((3, 2), 0.5))
    config.write_text(text)
    assert main(["build", str(points), str(config), "0.25", str(tmp / "x.eann")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_query_truncated_index_fails_cleanly(workspace, capsys):
    tmp, points, config, queries = workspace
    out = tmp / "index.eann"
    assert main(["build", str(points), str(config), "0.25", str(out)]) == 0
    blob = out.read_bytes()
    cut = tmp / "cut.eann"
    for size in (3, 60, len(blob) // 2, len(blob) - 1):
        cut.write_bytes(blob[:size])
        capsys.readouterr()
        assert main(["query", str(cut), str(queries)]) == 1
        assert "offset" in capsys.readouterr().err


def test_query_dimension_mismatch(workspace, capsys):
    tmp, points, config, queries = workspace
    out = tmp / "index.eann"
    main(["build", str(points), str(config), "0.25", str(out)])
    bad = tmp / "bad.txt"
    bad.write_text("0.1 0.2 0.3\n")
    rc = main(["query", str(out), str(bad)])
    assert rc == 1
    assert "dimension mismatch" in capsys.readouterr().err


def test_verify_l2(workspace, capsys, tmp_path):
    tmp, points, config, queries = workspace
    json_out = tmp / "report.json"
    rc = main(["verify", str(config), "--site", "0.5 0.5", "--samples", "2000",
               "--json", str(json_out)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gate = pass" in out
    payload = json.loads(json_out.read_text())
    assert payload["tau"] == pytest.approx(1.0, abs=0.01)


def test_verify_bregman(tmp_path, capsys):
    cfg = tmp_path / "kl.cfg"
    cfg.write_text("kind = bregman\ngenerator = generalized-kl\n"
                   "domain_low = 0.1 0.1\ndomain_high = 1 1\n")
    rc = main(["verify", str(cfg), "--site", "0.5 0.5", "--samples", "2000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mu_asym" in out and "mu_dir" in out
    assert "eigen_sandwich = True" in out
    assert "gate = pass" in out


def test_verify_squared_euclidean(tmp_path, capsys):
    cfg = tmp_path / "sq.cfg"
    cfg.write_text("kind = bregman\ngenerator = squared-euclidean\n")
    rc = main(["verify", str(cfg), "--site", "0.0 0.0",
               "--region-low", "-1 -1", "--region-high", "1 1"])
    out = capsys.readouterr().out
    assert rc == 0
    for line in out.splitlines():
        if line.startswith("mu_asym"):
            assert float(line.split("=")[1]) == pytest.approx(1.0, abs=1e-6)
        if line.startswith("mu_dir"):
            assert float(line.split("=")[1]) == pytest.approx(2.0, abs=1e-6)


def test_bench_repeat_gives_equal_ratios_and_failures(tmp_path, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "kinds": ["l2", "wl2"], "n": [30], "d": [2], "eps": [0.25],
        "seed": 5, "queries": 40, "fits": False,
    }))
    out_seq = tmp_path / "seq.json"
    out_par = tmp_path / "par.json"
    assert main(["bench", str(sweep), "--json", str(out_seq)]) == 0
    assert main(["bench", str(sweep), "--json", str(out_par)]) == 0
    capsys.readouterr()
    seq = json.loads(out_seq.read_text())["configs"]
    par = json.loads(out_par.read_text())["configs"]
    assert len(seq) == len(par) == 2
    for a, b in zip(seq, par):
        assert a["worst_ratio"] == b["worst_ratio"]
        assert a["failures"] == b["failures"] == 0


def test_bench_smoke(tmp_path, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "kinds": ["l2"], "n": [40], "d": [2], "eps": [0.25],
        "seed": 3, "queries": 60, "leaf_fit_n": [50, 200],
    }))
    json_out = tmp_path / "bench.json"
    rc = main(["bench", str(sweep), "--json", str(json_out)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "failures = 0" in out
    report = json.loads(json_out.read_text())
    assert report["failures"] == 0
    assert report["configs"][0]["worst_ratio"] <= 1.25 * (1 + 1e-9)
    storage = report["fits"]["storage"][0]
    assert storage["exponent"] <= 2 / 2 + 0.5


@pytest.mark.parametrize("config,message", [
    ("[1, 2]", "must be a JSON object, not list"),
    ('{"kinds": ["l2"], "queries": 0}', "'queries' must be a positive integer, got 0"),
    ('{"kinds": "l2"}', "'kinds' must be a non-empty list, got 'l2'"),
    ('{"eps": ["x"]}', "'eps' must hold real numbers, got 'x'"),
    ('{"eps": [true]}', "'eps' must hold real numbers, got True"),
    ('{"n": [1.5]}', "'n' must hold positive integers, got 1.5"),
    ('{"n": [0]}', "'n' must hold positive integers, got 0"),
    ('{"d": [true]}', "'d' must hold positive integers, got True"),
    ('{"leaf_fit_n": [-50]}', "'leaf_fit_n' must hold positive integers, got -50"),
    ('{"kinds": ["l2", 3]}', "'kinds' must hold strings, got 3"),
    ('{"seed": null}', "'seed' must be an integer, got None"),
])
def test_bench_rejects_malformed_sweep(tmp_path, capsys, config, message):
    """A sweep config that is not an object, asks for no queries, gives a
    family tag where a list belongs or holds a list element of the wrong
    type fails with a ValueError naming it, before any index is built."""
    sweep = tmp_path / "sweep.json"
    sweep.write_text(config)
    with pytest.raises(ValueError, match=message):
        cli._read_sweep(str(sweep))
    assert main(["bench", str(sweep)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_query_reports_an_index_file_whose_tau_overflows(workspace, capsys):
    """A checksummed file whose tau makes the tree's factors overflow is
    reported as an error, not a traceback."""
    tmp, points, config, queries = workspace
    out = tmp / "index.eann"
    assert main(["build", str(points), str(config), "0.25", str(out)]) == 0
    n, d = 50, 2
    header = 4 + 2 + 4 + 4 + 8 + 1  # magic, version, d, n, eps, family code
    blob = bytearray(out.read_bytes()[:-4])
    struct.pack_into("<d", blob, header + 2 * n * 8 + n * d * 8, 1e308)  # first tau
    blob += struct.pack("<I", zlib.crc32(blob))
    out.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["query", str(out), str(queries)]) == 1
    captured = capsys.readouterr()
    assert "error: tau" in captured.err and captured.out == ""


def test_bench_reports_cold_and_warm_passes(tmp_path, capsys, monkeypatch):
    """The first pass over the queries builds leaves, the second answers the
    same queries warm; both latencies are reported, and a warm answer that
    differs from the cold one fails the sweep."""
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "kinds": ["l3"], "n": [40], "d": [2], "eps": [0.25],
        "seed": 4, "queries": 30, "fits": False,
    }))
    out = tmp_path / "bench.json"
    assert main(["bench", str(sweep), "--json", str(out)]) == 0
    assert "cold_us=" in capsys.readouterr().out
    (config,) = json.loads(out.read_text())["configs"]
    for phase in ("cold", "warm"):
        for stat in ("mean", "median", "p99"):
            assert config[f"{phase}_latency_{stat}_us"] > 0

    real_build = cli.build_index

    def drifting_build(fns, eps):
        index = real_build(fns, eps)
        real_query, seen = index.query, set()

        def query(q):
            witness, value = real_query(q)
            key = q.tobytes()
            drift = key in seen
            seen.add(key)
            return witness, value * (1.0 + 1e-9) if drift else value

        index.query = query
        return index

    monkeypatch.setattr(cli, "build_index", drifting_build)
    assert main(["bench", str(sweep)]) == 1
    assert "the warm pass changed an answer" in capsys.readouterr().err
