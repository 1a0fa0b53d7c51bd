"""Smoke test of the benchmark harness at reduced sizes.

    python3 -m pytest perfbench

Every metric declared in BENCHMARK.json must be reported with its unit and
direction, traced and untraced runs must produce byte-identical outputs, and
the harness must refuse to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload]
    cmd += ["--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_declared_and_outputs_identical(workload):
    digests = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = result_of(run(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = SPEC[kind]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        for m in declared:
            assert m["better"] in ("higher", "lower")
            row = [line.split() for line in lines if line.split()[1:2] == [m["name"]]]
            assert len(row) == 1 and row[0][3:] == [m["unit"], m["better"], "is", "better"]
        digests += [line for line in lines if line.startswith("# output sha256 ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("scan-ref", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
