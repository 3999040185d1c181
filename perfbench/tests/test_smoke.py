import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH

ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(cwd, workload, trace, seed=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in wanted
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("workload, key, wrong", [
    ("quintic-certify", "ball_size", 150),
    ("octic-limitset", "kinds", {"attracting": 106, "cusp": 81}),
    ("sym3-lyapunov", "n_discarded", 1),
    ("quintic-cusp-search", "witness", "(('0', 1),)"),
])
def test_wrong_reference_fails_jobs(workload, key, wrong):
    import run as bench_run

    reference = json.loads((BENCH / "reference.json").read_text())["smoke"][workload]
    reference[key] = wrong
    result = bench_run.measure(workload, 1, 0.1, False, "smoke", reference, BENCHMARK,
                               log=lambda line: None)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
