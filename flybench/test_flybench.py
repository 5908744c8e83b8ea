"""Smoke tests for the benchmark: ``python3 -m pytest flybench``.

Each workload runs at smoke size (a few thousand packets, one second per
phase), untraced and traced.  The tests check that the result line names
every metric of BENCHMARK.json with its unit, and that every correctness
gate passed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ddos_durable", "fabric4")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "flybench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_the_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_and_passes_gates(workload, trace, section):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    if section == "end_to_end":
        # A regression bound is a share of the metric, so none may be 0.
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["coverage"]["value"] >= 0.9


def test_same_seed_gives_same_inputs():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        a = cls(workloads.SMOKE[name], 5, ROOT).windows
        b = cls(workloads.SMOKE[name], 5, ROOT).windows
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            for field, column in wa.trace.columns.items():
                assert (column == wb.trace.columns[field]).all()
            assert wa.points == wb.points


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "flybench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(
        str(tmp_path), "--workload", "ddos_durable", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
