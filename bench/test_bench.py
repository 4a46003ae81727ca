"""Smoke test of the benchmark: a few ops of every workload, in both modes.

    python3 -m pytest bench/test_bench.py

Checks that every metric in BENCHMARK.json is printed by name and unit,
that no op failed, that the traced run computes the same outputs as the
untraced one and sees no Smith normal form inside the timed region of the
workloads whose set-up builds every solver, and that the benchmark refuses
to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_ratio 0 ") for line in lines)
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs}
    for s in specs:
        assert any(line.startswith(f"metric {s['name']} = ") and f" {s['unit']}" in line
                   for line in lines), s["name"]
    if trace and workload != "auto-step3":
        assert result["metrics"]["intlinalg.snf.calls"]["value"] == 0
    if trace and workload == "wide-setup":
        assert result["metrics"]["setup.intlinalg.snf.calls"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, NAMES[0], 0, smoke=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
