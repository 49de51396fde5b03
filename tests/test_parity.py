"""Bit-for-bit parity: six pipeline runs and evaluate_bound on instances 0-999.

``parity_pins.json`` holds readable values: per run the held-out error,
the source proxy error and every run-log row without ``wall_time``, and
the eight BoundReport fields of each instance.  Only the trained
parameters (theta, source head, phi, the kernel's w and b) are pinned as
one SHA-256 of their bytes.  The six runs are checked in this process and
once more in a subprocess at OPENBLAS_NUM_THREADS=2.  A mismatch names
each run (or instance), field and epoch that moved and by how much, and
the numpy and OpenBLAS versions the pins were taken with.

A change that moves these bits on purpose regenerates the pins with

    PYTHONPATH=src python tests/test_parity.py

and says in CHANGES.md what moved and why.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from gapcraft import bound, pipeline, synthtasks
from gapcraft.pipeline import PipelineConfig, RunRecord
from gapcraft.synthtasks import TaskSpec

HERE = Path(__file__).resolve().parent
PINS = HERE / "parity_pins.json"

# name: (task, config); the two full-scale nft runs are the benchmark's
# path, the scale-0.25 runs cover stage 1, fa_only, gap_dial and n0 = 0
RUNS = {
    "permuted_labels nft seed 0": (
        TaskSpec(family="permuted_labels", seed=0), PipelineConfig(seed=0, baseline="nft")
    ),
    "permuted_labels nft seed 1": (
        TaskSpec(family="permuted_labels", seed=1), PipelineConfig(seed=1, baseline="nft")
    ),
    "rotated recraft seed 0 scale 0.25": (
        TaskSpec(seed=0), PipelineConfig(seed=0, scale=0.25)
    ),
    "rotated fa_only seed 1 scale 0.25": (
        TaskSpec(seed=1), PipelineConfig(seed=1, baseline="fa_only", scale=0.25)
    ),
    "gap_dial knob 0.5 recraft seed 2 scale 0.25": (
        TaskSpec(family="gap_dial", gap_knob=0.5, target_dim=4, seed=2),
        PipelineConfig(seed=2, scale=0.25),
    ),
    "rotated recraft seed 3 scale 0.25 n0 0": (
        TaskSpec(seed=3), PipelineConfig(seed=3, scale=0.25, n0=0)
    ),
}
BOUND_INSTANCES = 1000
RECORD_FIELDS = [f.name for f in fields(RunRecord) if f.name != "wall_time"]
REPORT_FIELDS = [f.name for f in fields(bound.BoundReport)]


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _params_sha256(result: pipeline.PipelineResult) -> str:
    digest = hashlib.sha256()
    for params in (result.theta, result.source_head, result.phi):
        for layer in params.layers:
            digest.update(layer.w.tobytes())
            digest.update(layer.b.tobytes())
    digest.update(result.kernel.w.tobytes())
    digest.update(result.kernel.b.tobytes())
    return digest.hexdigest()


def compute_runs() -> dict:
    runs = {}
    for name, (spec, cfg) in RUNS.items():
        result = pipeline.run_pipeline(synthtasks.generate(spec), cfg)
        runs[name] = {
            "holdout_error": result.holdout_error,
            "source_proxy_error": result.source_proxy_error,
            "params_sha256": _params_sha256(result),
            "records": [[getattr(r, f) for f in RECORD_FIELDS] for r in result.log.records],
        }
    return runs


def compute_bound() -> list:
    return [
        list(asdict(bound.evaluate_bound(synthtasks.random_discrete_instance(seed))).values())
        for seed in range(BOUND_INSTANCES)
    ]


def _delta(old, new) -> str:
    if isinstance(old, float) and isinstance(new, float):
        return f"{old!r} -> {new!r} (delta {new - old:+.3g})"
    return f"{old!r} -> {new!r}"


def moved_runs(pinned: dict, got: dict) -> list[str]:
    """One line per run, field and epoch whose value differs from its pin."""
    lines = []
    for run in [*pinned, *(r for r in got if r not in pinned)]:
        if run not in pinned or run not in got:
            lines.append(f"{run}: only in the {'pins' if run in pinned else 'new runs'}")
            continue
        old, new = pinned[run], got[run]
        for key in ("holdout_error", "source_proxy_error"):
            if old[key] != new[key]:
                lines.append(f"{run}: {key} {_delta(old[key], new[key])}")
        if len(old["records"]) != len(new["records"]):
            lines.append(
                f"{run}: {len(old['records'])} run-log rows -> {len(new['records'])}"
            )
        for a, b in zip(old["records"], new["records"]):
            for name, x, y in zip(RECORD_FIELDS, a, b):
                if x != y:
                    lines.append(f"{run}: {a[1]} epoch {a[0]} {name} {_delta(x, y)}")
        if old["params_sha256"] != new["params_sha256"]:
            lines.append(f"{run}: parameter bytes moved (sha256 {old['params_sha256'][:12]}"
                         f" -> {new['params_sha256'][:12]})")
    return lines


def moved_reports(pinned: list, got: list) -> list[str]:
    """One line per instance and BoundReport field that differs from its pin."""
    lines = [f"{len(pinned)} pinned instances -> {len(got)}"] if len(pinned) != len(got) else []
    for seed, (a, b) in enumerate(zip(pinned, got)):
        for name, x, y in zip(REPORT_FIELDS, a, b):
            if x != y:
                lines.append(f"evaluate_bound instance {seed}: {name} {_delta(x, y)}")
    return lines


def _report(lines: list[str], pinned_versions: dict, limit: int = 60) -> str:
    now = versions()
    head = [f"{len(lines)} pinned values moved"]
    if now != pinned_versions:
        head.append(f"pins taken with {pinned_versions}, this run has {now}")
    tail = [f"... and {len(lines) - limit} more"] if len(lines) > limit else []
    return "\n".join(head + lines[:limit] + tail)


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def test_pins_cover_every_run_and_field(pins):
    assert list(pins["runs"]) == list(RUNS)
    assert pins["record_fields"] == RECORD_FIELDS
    assert pins["report_fields"] == REPORT_FIELDS
    assert len(pins["evaluate_bound"]) == BOUND_INSTANCES


def test_six_runs_match_the_pins(pins):
    lines = moved_runs(pins["runs"], compute_runs())
    assert not lines, _report(lines, pins["versions"])


def test_six_runs_match_the_pins_at_two_blas_threads(pins):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    paths = [str(HERE), str(HERE.parent / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    code = "import json, test_parity; print(json.dumps(test_parity.compute_runs()))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    lines = moved_runs(pins["runs"], json.loads(proc.stdout))
    assert not lines, "at OPENBLAS_NUM_THREADS=2: " + _report(lines, pins["versions"])


def test_evaluate_bound_matches_the_pins(pins):
    lines = moved_reports(pins["evaluate_bound"], compute_bound())
    assert not lines, _report(lines, pins["versions"])


def test_a_mismatch_names_the_run_field_epoch_and_delta(pins):
    runs = json.loads(json.dumps(pins["runs"]))
    run = "rotated recraft seed 0 scale 0.25"
    row = runs[run]["records"][2]
    row[RECORD_FIELDS.index("holdout_error")] += 0.25
    runs[run]["params_sha256"] = "0" * 64
    lines = moved_runs(pins["runs"], runs)
    assert len(lines) == 2
    assert lines[0].startswith(f"{run}: {row[1]} epoch {row[0]} holdout_error ")
    assert lines[0].endswith("(delta +0.25)")
    assert lines[1].startswith(f"{run}: parameter bytes moved")
    reports = json.loads(json.dumps(pins["evaluate_bound"]))
    reports[7][REPORT_FIELDS.index("gap")] *= 2.0
    (line,) = moved_reports(pins["evaluate_bound"], reports)
    assert line.startswith("evaluate_bound instance 7: gap ")
    message = _report(lines, {"numpy": "0.0", "blas": "none"})
    assert "pins taken with {'numpy': '0.0', 'blas': 'none'}" in message


def _dumps_rows(rows: list, indent: str) -> str:
    # one row per line, so a regenerated file diffs by run-log row or instance
    return "[\n" + ",\n".join(indent + json.dumps(r, allow_nan=False) for r in rows) + "]"


def write_pins(path: Path) -> None:
    runs = []
    for name, run in compute_runs().items():
        head = {k: v for k, v in run.items() if k != "records"}
        runs.append(
            f"  {json.dumps(name)}: {json.dumps(head, allow_nan=False)[:-1]}, "
            f'"records": {_dumps_rows(run["records"], "    ")}}}'
        )
    path.write_text(
        "{\n"
        f'"versions": {json.dumps(versions())},\n'
        f'"record_fields": {json.dumps(RECORD_FIELDS)},\n'
        f'"report_fields": {json.dumps(REPORT_FIELDS)},\n'
        '"runs": {\n' + ",\n".join(runs) + "},\n"
        f'"evaluate_bound": {_dumps_rows(compute_bound(), "  ")}\n'
        "}\n"
    )


if __name__ == "__main__":
    write_pins(PINS)
    print(f"wrote {PINS}")
