"""Smoke tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench -q

They run every workload end to end, hold the printed metric names and
units to BENCHMARK.json, and check that an injected result mismatch and
a corrupted warm export each count as failed operations.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import measure  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]


def _cli(*args, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def _tiny(workload, trace, seed=3):
    done = _cli(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def _pinned_env(monkeypatch):
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)


def test_code_and_manifest_declare_the_same_metrics():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == measure.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_end_to_end(workload, trace):
    result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", ["mix4-unfriendly-stores", "sweep-short-jobs"])
def test_traced_counts_repeat_and_times_add_up(workload):
    first, second = (_tiny(workload, 1)["metrics"] for _ in range(2))
    values = {name: metric["value"] for name, metric in first.items()}
    assert measure.exact_part(values) == measure.exact_part(
        {name: metric["value"] for name, metric in second.items()}
    )
    parts = (
        values["controller.round_s"]
        + values["workloads.gen_s"]
        + values["prefetch.on_access_s"]
        + values["sim.kernel_cache_s"]
    )
    assert math.isclose(parts, values["sim.run_s"], rel_tol=1e-9)
    assert values["controller.rounds"] > 0 and values["workloads.entries"] > 0


def _main_result(capsys, *args):
    code = run.main(list(args) + ["--seed", "3", "--seconds", "0", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_injected_result_mismatch_raises_failed_frac(monkeypatch, capsys):
    import mix4

    real = mix4.reference_result

    def skewed(*args, **kwargs):
        payload = real(*args, **kwargs)
        payload["total_cycles"] += 1
        return payload

    monkeypatch.setattr(mix4, "reference_result", skewed)
    code, result = _main_result(capsys, "--workload", "mix4-cachefit", "--trace", "0")
    assert code == 1 and result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_corrupted_warm_export_raises_failed_frac(monkeypatch, capsys):
    import sweep

    real = sweep.export_csv

    def corrupted(handle):
        text = real(handle)
        return text + "," if handle.directory.name.startswith("warm") else text

    monkeypatch.setattr(sweep, "export_csv", corrupted)
    code, result = _main_result(capsys, "--workload", "sweep-short-jobs", "--trace", "0")
    assert code == 1 and result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
