"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs a few items untraced and traced. The test checks that
every metric named in BENCHMARK.json is reported, that outputs pass their
checks and agree with tracing on and off, and that the traced counts repeat
exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ITEMS = {"pipeline_rotated": 1, "pipeline_nft": 2, "bound_verify": 1000, "fld_wide": 4}


def run(workload: str, trace: int, seed: int = 0) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--items", str(ITEMS[workload]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture(scope="module", params=sorted(ITEMS))
def both_modes(request):
    return request.param, run(request.param, 0), run(request.param, 1)


# run by hand only: items too long and too input-dependent to time steadily
HAND_RUN = {"fld_wide", "pipeline_rotated"}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(set(ITEMS) - HAND_RUN)


def test_every_metric_reported(both_modes):
    _, (_, plain), (_, traced) = both_modes
    for result, group in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert list(metrics) == [m["name"] for m in SPEC[group]]
        for m in SPEC[group]:
            assert metrics[m["name"]]["unit"] == m["unit"]
    assert all(v["value"] > 0 for v in plain["metrics"].values())


def test_outputs_identical_with_and_without_tracing(both_modes):
    _, (plain, plain_result), (traced, traced_result) = both_modes
    assert plain.get("holdout_errors") == traced.get("holdout_errors")
    assert plain_result["failed"] == traced_result["failed"]


def test_traced_counts_repeat(both_modes):
    workload, _, (detail, result) = both_modes
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "pipeline_rotated":
        # task and run seed 0: the default rotated task and PipelineConfig
        assert values["transport.sinkhorn.calls"] == 65
        assert values["transport.sinkhorn.unconverged"] == 24
        assert detail["sinkhorn_unconverged_frac"] == 24 / 65
    elif workload == "bound_verify":
        # instances 0..999, the verify-theorem path over 1000 instances
        assert values["bound.evaluate_bound.calls_per_instance"] == 2.0
        assert values["transport.exact_w1.calls"] == 1574
        assert values["distortion.fld_exact.calls"] == 5978
        assert values["distortion.fld_exact.calls.4x4"] == 410
        assert values["distortion.fld_exact.calls.5x5"] == 0
        assert values["transport.sinkhorn.calls"] == 0
    elif workload == "fld_wide":
        # one cycle: three 5x5 solves and one with a single zero mass
        assert values["distortion.fld_exact.calls.5x5"] == 3
        assert values["distortion.fld_exact.calls.4x5"] + values["distortion.fld_exact.calls.5x4"] == 1
        assert values["distortion.fld_exact.cold_ms.5x5"] > 0
        assert values["transport.sinkhorn.calls"] == 0
    elif workload == "pipeline_nft":
        assert values["transport.sinkhorn.calls"] == ITEMS[workload]
        assert values["pipeline.stage1.epoch_ms"] == 0.0


def test_missing_package_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound_verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
