"""Self-check of the benchmark at tiny sizes: every workload end to end,
untraced and traced, with the oracle check. Runs in seconds:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT, scale: str = "tiny"):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--scale", scale]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_end_to_end(workload):
    digests = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        values = [v["value"] for v in result["metrics"].values()]
        assert all(np.isfinite(values))
        if group == "end_to_end":
            assert min(values) > 0
        digests.append([ln for ln in lines if ln.startswith("# digest:")])
    assert digests[0] and digests[0] == digests[1]  # tracing changes no answer


def test_oracle_rejects_wrong_answers():
    rng = np.random.default_rng(0)
    for name in ("l2", "l3", "mahalanobis", "kl"):
        fam = oracle.Family({"family": name, "n": 50, "d": 2, "eps": 0.1}, rng)
        q = fam.queries(rng, 1)[0]
        vals = fam.scan(q)
        best, worst = int(np.argmin(vals)), int(np.argmax(vals))
        assert oracle.answer_ok(fam, q, (best, float(vals[best])))
        assert not oracle.answer_ok(fam, q, (worst, float(vals[worst])))
        assert not oracle.answer_ok(fam, q, (worst, float(vals[best])))  # value of another site


def test_ledger_counts_changed_answers():
    ledger = oracle.Ledger()
    q = np.zeros(2)
    ledger.record((0, 0), q, (1, 0.5))
    ledger.record((0, 0), q, (1, 0.5))
    ledger.record((0, 0), q, (2, 0.5))
    ledger.record((0, 1), q, None)
    assert (ledger.attempted, ledger.mismatch, ledger.errors) == (4, 1, 1)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("warm_serve", 0, cwd=tmp_path, scale="full")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
