"""Exit codes, file outputs, resolved-config replay, golden-run parity."""

import csv
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from gapcraft import bound, cli, lipschitz, models, pipeline, synthtasks, transport
from gapcraft.cli import main
from gapcraft.pipeline import PipelineConfig, RunLog, RunRecord
from gapcraft.synthtasks import TaskSpec


def test_no_arguments_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exit_2(capsys):
    assert main(["verify-theorem", "--nonsense", "--out", "x"]) == 2


def test_unknown_subcommand_exit_2():
    assert main(["frobnicate", "--out", "x"]) == 2


def test_missing_input_exit_1(tmp_path, capsys):
    code = main(
        ["pretrain", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_verify_theorem_reports_zero_violations(tmp_path, capsys):
    out = tmp_path / "vt"
    code = main(["verify-theorem", "--instances", "25", "--seed", "0", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "verify_theorem.json").read_text())
    assert summary["violations"] == 0
    assert summary["proof_term_violations"] == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == summary


def test_verify_theorem_1000_instances_pins_worst_gap(tmp_path, capsys):
    # the worst gap over instances 0..999 is pinned to its last bit: a
    # faster bound path must not change what verify-theorem reports
    out = tmp_path / "vt"
    code = main(["verify-theorem", "--instances", "1000", "--seed", "0", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["violations"] == 0
    assert summary["proof_term_violations"] == 0
    assert summary["worst_gap"] == 0.017963728713937588


def test_verify_theorem_evaluates_each_instance_once(tmp_path, monkeypatch, capsys):
    # the proof terms are read from the report the gap comes from
    seen = []

    def counted(inst):
        seen.append(inst)
        return evaluate(inst)

    evaluate = bound.evaluate_bound
    monkeypatch.setattr(bound, "evaluate_bound", counted)
    out = tmp_path / "vt"
    assert main(["verify-theorem", "--instances", "7", "--seed", "3", "--out", str(out)]) == 0
    assert len(seen) == 7
    assert len({id(inst) for inst in seen}) == 7


def test_gen_writes_bundle(tmp_path):
    out = tmp_path / "data"
    assert main(["gen", "--family", "rotated", "--seed", "4", "--out", str(out)]) == 0
    for name in ("source", "proxy", "target", "target_test"):
        assert (out / f"{name}.csv").exists()
    ds, meta = synthtasks.load_dataset(out / "target.csv")
    assert meta["family"] == "rotated"
    assert len(ds) == 48
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["subcommand"] == "gen" and resolved["seed"] == 4


def _csv_rows(path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def test_bound_report_bars(tmp_path):
    out = tmp_path / "br"
    assert main(["bound-report", "--tasks", "4", "--seed", "2", "--out", str(out), "--bars"]) == 0
    payload = json.loads((out / "bound_report.json").read_text())
    assert list(payload) == ["task_2", "task_3", "task_4", "task_5"]
    header, *lines = _csv_rows(out / "bars.csv")
    assert header == ["task", "err_s", "fa", "e_fld", "e_tf", "rhs", "err_tau", "gap",
                      "relative_gap"]
    assert [line[0] for line in lines] == list(payload)
    for line in lines:
        row = payload[line[0]]
        assert set(row) == set(header[1:])
        # every cell reads back to exactly the value in bound_report.json
        assert [float(v) for v in line[1:]] == [row[c] for c in header[1:]]
        segments = row["err_s"] + row["fa"] + row["e_fld"] + row["e_tf"]
        assert segments == pytest.approx(row["rhs"], abs=1e-9)


def test_bound_report_non_finite_exits_1(tmp_path, monkeypatch, capsys):
    """Reports are strict JSON: a non-finite value is an error, not an
    ``Infinity`` in the file."""
    evaluate = bound.evaluate_bound
    monkeypatch.setattr(
        bound, "evaluate_bound", lambda inst: replace(evaluate(inst), relative_gap=float("inf"))
    )
    out = tmp_path / "br"
    assert main(["bound-report", "--tasks", "2", "--bars", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: Out of range float values")
    assert list(out.iterdir()) == []


def test_parse_grid():
    assert cli._parse_grid("0.1:1.0:0.1") == pytest.approx(
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    )
    assert cli._parse_grid("0.3:0.5:0.2") == [0.3, 0.5]
    assert cli._parse_grid("0.5:0.5:0.1") == [0.5]
    assert len(cli._parse_grid("0.0001:1:0.0001")) == cli.MAX_GRID_POINTS


@pytest.mark.parametrize(
    "grid, message",
    [("nonsense", "grid must be lo:hi:step"),
     ("1.0:0.1:0.1", "must be increasing"),
     ("nan:1:0.1", "bounds and step must be finite"),
     ("0.1:1:nan", "bounds and step must be finite"),
     ("0.1:inf:0.1", "bounds and step must be finite"),
     ("-inf:1:0.1", "bounds and step must be finite"),
     ("0.1:1:0", "must be increasing"),
     ("0:1:1e-9", "holds more than 10000 points"),
     ("0:1e308:1e-308", "holds more than 10000 points"),
     ("-1e308:1e308:1", "holds more than 10000 points")],
)
def test_parse_grid_rejects_a_grid_it_cannot_sweep(grid, message):
    """A malformed or decreasing grid, a non-finite bound or step, or more
    points than one sweep may hold is a domain error before any point is
    built."""
    with pytest.raises(cli.DomainError, match=message):
        cli._parse_grid(grid)


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """gen + pretrain + recalibrate once; several tests build on it."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    m1 = root / "m1"
    m2 = root / "m2"
    assert main(["gen", "--family", "rotated", "--seed", "3", "--out", str(data)]) == 0
    assert (
        main(
            ["pretrain", "--data", str(data), "--out", str(m1), "--seed", "3",
             "--scale", "0.5"]
        )
        == 0
    )
    assert (
        main(
            ["recalibrate", "--data", str(data), "--models", str(m1), "--out",
             str(m2), "--seed", "3", "--epochs", "50"]
        )
        == 0
    )
    return root


def test_recalibrate_outputs(cli_workspace):
    summary = json.loads((cli_workspace / "m2" / "recalibrate_summary.json").read_text())
    assert summary["final_penalty"] <= summary["initial_penalty"]
    history = summary["penalty_history"]
    assert len(history) == 50 + 1
    assert history[0] == summary["initial_penalty"]
    assert history[-1] == summary["final_penalty"]


@pytest.mark.parametrize(
    "subcommand, owner, name, error",
    [
        ("pretrain", pipeline, "pretrain_source", FloatingPointError("logits overflowed")),
        ("recalibrate", lipschitz, "recalibrate_head", lipschitz.DivergenceError("rose")),
        ("verify-theorem", transport, "exact_w1", transport.SolverError("no certificate")),
    ],
)
def test_numeric_failures_exit_1(
    cli_workspace, tmp_path, monkeypatch, capsys, subcommand, owner, name, error
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(owner, name, fail)
    argv = [subcommand, "--out", str(tmp_path)]
    if subcommand == "verify-theorem":
        argv += ["--instances", "3"]
    else:
        argv += ["--data", str(cli_workspace / "data")]
    if subcommand == "recalibrate":
        argv += ["--models", str(cli_workspace / "m1")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


MALFORMED_INPUT_MESSAGES = {
    "config_not_json": "not readable JSON",
    "config_json_list": "must hold a JSON object",
    "checkpoint_without_layers": "not a parameter checkpoint: KeyError('layers')",
    "checkpoint_layer_without_w": "not a parameter checkpoint: KeyError('w')",
    "checkpoint_two_layer_head": "recalibration needs a one-layer source head, got 2 layers",
    "checkpoint_relu_layer": "unknown activation 'relu'",
    "checkpoint_overflowing_head": "layer 0 pre-activation has non-finite values",
    "dataset_float_labels": "target.csv: labels must be integer class ids",
    "dataset_short_row": "target.csv:2: expected 13 fields, got 12",
    "dataset_long_row": "target.csv:2: expected 13 fields, got 14",
    "dataset_empty_file": "target.csv: no header",
    "dataset_header_only": "target.csv: no data rows",
    "dataset_nan_feature": "target.csv:2: feature fields must be finite",
    "dataset_text_feature": "target.csv:2: could not convert string to float: 'abc'",
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUT_MESSAGES))
def test_malformed_input_files_exit_1(cli_workspace, tmp_path, capsys, case):
    data = cli_workspace / "data"
    mdir = tmp_path / "d"
    mdir.mkdir()
    argv = ["recalibrate", "--data", str(data), "--models", str(mdir)]
    theta, _ = models.load_params(cli_workspace / "m1" / "theta.json")
    if case == "checkpoint_two_layer_head":
        head = models.init_mlp([theta.output_dim, 6, 3], np.random.default_rng(0))
        models.save_params(theta, mdir / "theta.json", role="source_embedder")
        models.save_params(head, mdir / "source_head.json", role="source_head")
    elif case == "checkpoint_relu_layer":
        text = (cli_workspace / "m1" / "theta.json").read_text()
        assert '"act": "tanh"' in text
        (mdir / "theta.json").write_text(text.replace('"act": "tanh"', '"act": "relu"'))
        shutil.copy(cli_workspace / "m1" / "source_head.json", mdir)
    elif case == "checkpoint_overflowing_head":
        # the embedder carries the first input coordinate to a feature near
        # 1e200, and the head scales it by 1e200 again: its logits overflow
        w_theta = np.zeros((theta.input_dim, 2))
        w_theta[0, 0] = 1e200
        w_head = np.array([[1e200, -1e200, 0.0], [0.0, 0.0, 0.0]])
        for name, w in (("theta.json", w_theta), ("source_head.json", w_head)):
            layer = models.Layer(w, np.zeros((1, w.shape[1])), "linear")
            models.save_params(models.MlpParams((layer,)), mdir / name)
    elif case.startswith("dataset"):
        data = tmp_path / "data"
        shutil.copytree(cli_workspace / "data", data)
        header, first, *rest = (data / "target.csv").read_text().splitlines()
        lines = {
            "dataset_float_labels": [header, first.rsplit(",", 1)[0] + ",0.5", *rest],
            "dataset_short_row": [header, first.rsplit(",", 1)[0], *rest],
            "dataset_long_row": [header, first + ",7", *rest],
            "dataset_empty_file": [],
            "dataset_header_only": [header],
            "dataset_nan_feature": [header, "nan," + first.split(",", 1)[1], *rest],
            "dataset_text_feature": [header, "abc," + first.split(",", 1)[1], *rest],
        }[case]
        (data / "target.csv").write_text("".join(line + "\n" for line in lines))
        argv = ["stage1", "--data", str(data), "--models", str(cli_workspace / "m2")]
    elif case.startswith("checkpoint"):
        theta = '{"meta": {}}' if case == "checkpoint_without_layers" else '{"layers": [{}]}'
        (mdir / "theta.json").write_text(theta)
        (mdir / "source_head.json").write_text(theta)
    else:
        config = tmp_path / "config.json"
        config.write_text("{not json" if case == "config_not_json" else "[1, 2]")
        argv = ["verify-theorem", "--config", str(config)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and MALFORMED_INPUT_MESSAGES[case] in err
    assert "Traceback" not in err


def test_stage1_cli_matches_library(cli_workspace, tmp_path):
    """Golden-run comparison: the subcommand is a thin wrapper."""
    out = tmp_path / "s1"
    args = ["stage1", "--data", str(cli_workspace / "data"), "--models",
            str(cli_workspace / "m2"), "--out", str(out), "--seed", "3",
            "--scale", "0.2"]
    assert main(args) == 0
    cli_phi, _ = models.load_params(out / "phi.json")

    bundle = cli._load_bundle(cli_workspace / "data")
    theta, _ = models.load_params(cli_workspace / "m2" / "theta.json")
    head, _ = models.load_params(cli_workspace / "m2" / "source_head.json")
    cfg = PipelineConfig(seed=3, scale=0.2)
    rng = np.random.default_rng(np.random.SeedSequence([3, 4]))
    phi = models.init_mlp([12, 16, theta.output_dim], rng)
    lib_phi, lib_log = pipeline.stage1(
        phi, theta, head, bundle.proxy, bundle.target, cfg, bundle.target_test, 3
    )
    assert all(
        np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
        for a, b in zip(cli_phi.layers, lib_phi.layers)
    )
    cli_log = RunLog.from_jsonl(out / "runlog.jsonl")
    assert cli_log.records == lib_log.records


def test_resolved_config_replay_bitwise(cli_workspace, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    base = ["stage1", "--data", str(cli_workspace / "data"), "--models",
            str(cli_workspace / "m2"), "--seed", "3", "--scale", "0.2"]
    assert main(base + ["--out", str(out1)]) == 0
    assert (
        main(
            ["stage1", "--config", str(out1 / "resolved_config.json"), "--out", str(out2)]
        )
        == 0
    )
    assert (out1 / "phi.json").read_text() == (out2 / "phi.json").read_text()
    a = RunLog.from_jsonl(out1 / "runlog.jsonl")
    b = RunLog.from_jsonl(out2 / "runlog.jsonl")
    assert a.records == b.records


def test_config_with_a_null_batch_size_replays_bitwise(cli_workspace, tmp_path):
    """Configs written while stage 1 had a --batch-size flag hold
    "batch_size": null; the null is skipped, so they replay the same run."""
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["stage1", "--data", str(cli_workspace / "data"), "--models",
                 str(cli_workspace / "m2"), "--seed", "3", "--scale", "0.2",
                 "--out", str(out1)]) == 0
    config = json.loads((out1 / "resolved_config.json").read_text())
    assert "batch_size" not in config
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**config, "batch_size": None}))
    assert main(["stage1", "--config", str(old), "--out", str(out2)]) == 0
    assert (out1 / "phi.json").read_bytes() == (out2 / "phi.json").read_bytes()
    a = RunLog.from_jsonl(out1 / "runlog.jsonl")
    b = RunLog.from_jsonl(out2 / "runlog.jsonl")
    assert a.records == b.records


def test_config_with_a_batch_size_exits_2(tmp_path, capsys):
    """Every epoch is one full-batch step: a stored batch size is a flag
    that no longer exists."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"subcommand": "stage1", "batch_size": 16}))
    assert main(["stage1", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "unrecognized arguments: --batch-size=16" in capsys.readouterr().err


def test_stage2_and_correlate_cli(cli_workspace, tmp_path):
    s1 = tmp_path / "s1"
    s2 = tmp_path / "s2"
    corr = tmp_path / "corr"
    data = str(cli_workspace / "data")
    assert main(["stage1", "--data", data, "--models", str(cli_workspace / "m2"),
                 "--out", str(s1), "--seed", "3", "--scale", "0.2"]) == 0
    assert main(["stage2", "--data", data, "--models", str(cli_workspace / "m2"),
                 "--phi", str(s1 / "phi.json"), "--out", str(s2), "--seed", "3",
                 "--scale", "0.2"]) == 0
    summary = json.loads((s2 / "stage2_summary.json").read_text())
    assert 0.0 <= summary["holdout_error"] <= 1.0
    # golden run: the CLI records the frozen gap, as run_pipeline does
    bundle = cli._load_bundle(cli_workspace / "data")
    theta, _ = models.load_params(cli_workspace / "m2" / "theta.json")
    head, _ = models.load_params(cli_workspace / "m2" / "source_head.json")
    phi, _ = models.load_params(s1 / "phi.json")
    cfg = PipelineConfig(seed=3, scale=0.2)
    gap = pipeline.frozen_gap(phi, theta, head, bundle, cfg)
    _, lib_log, lib_holdout = pipeline.stage2(
        phi, head, models.init_transport_head(theta.output_dim, head.output_dim, 3),
        bundle.target, cfg, bundle.target_test, gap,
    )
    cli_log = RunLog.from_jsonl(s2 / "runlog.jsonl")
    assert cli_log.records == lib_log.records
    assert summary["holdout_error"] == lib_holdout
    assert all(r.semantic_gap == gap[0] + gap[1] for r in cli_log.records)
    assert main(["correlate", "--runlog", str(s1 / "runlog.jsonl"), "--out", str(corr)]) == 0
    r = json.loads((corr / "correlation.json").read_text())["pearson_r"]
    assert -1.0 <= r <= 1.0
    series = (corr / "gap_error_series.csv").read_text().strip().splitlines()
    assert series[0] == "epoch,phase,semantic_gap,holdout_error"


def test_correlate_undefined_is_domain_error(tmp_path, capsys):
    log = RunLog()
    for i in range(1, 6):
        log.append(RunRecord(i, "fa", 1.0, 0.0, 1.0, 0.25, None, 0.0))
    path = tmp_path / "flat.jsonl"
    log.to_jsonl(path)
    assert main(["correlate", "--runlog", str(path), "--out", str(tmp_path / "o")]) == 1


def test_gen_all_families(tmp_path):
    for family in ("rotated", "permuted_labels", "gap_dial"):
        out = tmp_path / family
        assert main(["gen", "--family", family, "--seed", "1", "--out", str(out)]) == 0
        _, meta = synthtasks.load_dataset(out / "target.csv")
        assert meta["family"] == family


def test_log_level_env_var(monkeypatch):
    # any of the documented values (and junk) must configure without raising
    for value in ("quiet", "info", "debug", "nonsense"):
        monkeypatch.setenv("GAPCRAFT_LOG", value)
        cli._setup_logging()


def test_sweep_omega_cli(cli_workspace, tmp_path):
    out = tmp_path / "sweep"
    code = main(
        ["sweep-omega", "--data", str(cli_workspace / "data"), "--out", str(out),
         "--grid", "0.3:0.5:0.2", "--epochs", "40", "--seed", "3", "--scale", "0.3"]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,proxy_error,penalty_residual"
    assert len(lines) == 3


def test_default_flags_are_the_library_defaults(tmp_path):
    parser = cli.build_parser()
    out = ["--out", str(tmp_path)]
    assert cli._task_spec(parser.parse_args(["gen", *out])) == TaskSpec()
    for sub in ("pretrain", "stage1", "stage2", "sweep-omega", "baseline"):
        assert cli._pipeline_config(parser.parse_args([sub, *out])) == PipelineConfig()
    for sub in ("recalibrate", "sweep-omega"):
        lip = cli._lipschitz_config(parser.parse_args([sub, *out]))
        assert lip == PipelineConfig().lipschitz


def test_omega_flag_sets_the_one_omega(tmp_path):
    args = cli.build_parser().parse_args(["stage1", "--omega", "0.5", "--out", str(tmp_path)])
    assert args.omega == 0.5
    assert cli._pipeline_config(args).lipschitz.omega == 0.5


def _write_runlog(path, errors) -> str:
    log = RunLog()
    for i, err in enumerate(errors, start=1):
        log.append(RunRecord(i, "fa", float(i), 0.0, float(i), err, None, 0.0))
    log.to_jsonl(path)
    return str(path)


@pytest.mark.parametrize(
    "case, code",
    [("gen", 0), ("verify-theorem", 0), ("bound-report", 0), ("correlate", 0),
     ("verify-theorem-violated", 1)],
)
def test_resolved_config_follows_every_return(tmp_path, monkeypatch, capsys, case, code):
    if case == "gen":
        argv = ["gen", "--n-target-test", "5"]
    elif case.startswith("verify-theorem"):
        argv = ["verify-theorem", "--instances", "3"]
    elif case == "bound-report":
        argv = ["bound-report", "--tasks", "1"]
    else:
        argv = ["correlate", "--runlog", _write_runlog(tmp_path / "log.jsonl", [0.1, 0.3, 0.2])]
    if case == "verify-theorem-violated":
        monkeypatch.setattr(
            bound, "proof_terms", lambda inst, report: bound.ProofTerms(1.0, 0.0, 0.0, 0.0)
        )
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out), "--seed", "5"]) == code
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["subcommand"] == argv[0] and resolved["seed"] == 5


@pytest.mark.parametrize(
    "case",
    ["correlate-undefined", "gen-label-noise-above-one", "gen-n-source-zero",
     "pretrain-missing-data"],
)
def test_no_resolved_config_after_a_raised_error(tmp_path, capsys, case):
    if case == "correlate-undefined":
        argv = ["correlate", "--runlog", _write_runlog(tmp_path / "flat.jsonl", [0.25] * 5)]
        message = "need at least two distinct (gap, error) checkpoints with variance"
    elif case == "gen-label-noise-above-one":
        argv = ["gen", "--label-noise", "1.5"]
        message = "label_noise must lie in [0, 1]"
    elif case == "gen-n-source-zero":
        argv = ["gen", "--n-source", "0"]
        message = "n_source, n_proxy, n_target and n_target_test must be at least 1"
    else:
        argv = ["pretrain", "--data", str(tmp_path / "nope")]
        message = f"data directory not found: {tmp_path / 'nope'}"
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert out.is_dir() and not (out / "resolved_config.json").exists()


@pytest.mark.parametrize(
    "flags, message",
    [(["recalibrate", "--epochs=-5"], "epochs must be nonnegative"),
     (["recalibrate", "--lr", "nan"], "lr must be positive and finite"),
     (["stage1", "--omega", "nan"], "omega must be positive and finite"),
     (["stage1", "--epsilon", "nan"], "epsilon must be positive and finite"),
     (["stage1", "--sinkhorn-tol", "0"], "tol must be positive and finite"),
     (["stage1", "--lr-fa", "nan"], "learning rates must be positive and finite"),
     (["stage1", "--scale", "nan"], "scale must be positive and finite"),
     (["stage1", "--scale", "inf"], "scale must be positive and finite"),
     (["recalibrate", "--omega", "inf"], "omega must be positive and finite"),
     (["recalibrate", "--lr", "inf"], "lr must be positive and finite"),
     (["recalibrate", "--penalty-weight", "inf"], "penalty_weight must be nonnegative and finite"),
     (["stage1", "--sinkhorn-tol", "inf"], "tol must be positive and finite"),
     (["stage1", "--omega", "inf"], "omega must be positive and finite"),
     (["stage1", "--epsilon", "inf"], "epsilon must be positive and finite"),
     (["stage1", "--lr-fa", "inf"], "learning rates must be positive and finite"),
     (["stage2", "--lr-predictor", "inf"], "learning rates must be positive and finite")],
    ids=["recalibrate-epochs-negative", "recalibrate-lr-nan", "stage1-omega-nan",
         "stage1-epsilon-nan", "stage1-sinkhorn-tol-zero", "stage1-lr-fa-nan", "stage1-scale-nan",
         "stage1-scale-inf", "recalibrate-omega-inf", "recalibrate-lr-inf",
         "recalibrate-penalty-weight-inf", "stage1-sinkhorn-tol-inf", "stage1-omega-inf",
         "stage1-epsilon-inf", "stage1-lr-fa-inf", "stage2-lr-predictor-inf"],
)
def test_out_of_range_config_values_exit_1(cli_workspace, tmp_path, capsys, flags, message):
    """A config value out of range, NaN included, is a domain error: exit 1
    with an error line, no traceback and no resolved config."""
    command, *rest = flags
    argv = [command, "--data", str(cli_workspace / "data"), "--models", str(cli_workspace / "m2")]
    if command == "stage2":  # any checkpoint will do: the config is rejected before phi is used
        argv += ["--phi", str(cli_workspace / "m2" / "theta.json")]
    out = tmp_path / "out"
    assert main(argv + rest + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize(
    "split, bad",
    [("source", -1), ("source", 7), ("proxy", -1), ("target_test", 9)],
    ids=["-1", "7", "proxy--1", "target_test-9"],
)
def test_pretrain_source_label_out_of_range_exits_1(cli_workspace, tmp_path, capsys, split, bad):
    """A label outside the bundle's classes is a domain error, not a
    silently trained row, an IndexError traceback or one more miss in a
    held-out error: the training split and the proxy split that
    pretraining scores, and the target_test split that stages 1 and 2
    score."""
    data = tmp_path / "data"
    shutil.copytree(cli_workspace / "data", data)
    header, first, *rest = (data / f"{split}.csv").read_text().splitlines()
    bad_row = first.rsplit(",", 1)[0] + f",{bad}"
    (data / f"{split}.csv").write_text("".join(line + "\n" for line in [header, bad_row, *rest]))
    out = tmp_path / "out"
    common = ["--data", str(data), "--out", str(out), "--scale", "0.05"]
    if split == "target_test":
        # stage 2 reads a phi that stage 1 trained on the unchanged bundle
        models_dir = str(cli_workspace / "m2")
        phi = tmp_path / "s1"
        assert main(["stage1", "--data", str(cli_workspace / "data"), "--models", models_dir,
                     "--scale", "0.05", "--out", str(phi)]) == 0
        runs = [["stage1", "--models", models_dir, *common],
                ["stage2", "--models", models_dir, "--phi", str(phi / "phi.json"), *common]]
    else:
        runs = [["pretrain", *common]]
    for argv in runs:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {split} labels must lie in [0, 3)\n"
        assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize("case", ["target_label", "phi_width"])
def test_stage2_rejects_bad_input_before_the_sinkhorn_solve(
    cli_workspace, tmp_path, monkeypatch, capsys, case
):
    """The frozen gap builds its pseudo-label joint, which checks the target
    labels and phi's width against the head, before its Sinkhorn solve."""
    data = tmp_path / "data"
    shutil.copytree(cli_workspace / "data", data)
    phi = tmp_path / "phi.json"
    if case == "target_label":
        header, first, *rest = (data / "target.csv").read_text().splitlines()
        bad_row = first.rsplit(",", 1)[0] + ",3"
        (data / "target.csv").write_text("\n".join([header, bad_row, *rest]) + "\n")
        width, message = 8, "pseudo_label_stats: target labels must lie in [0, 3)"
    else:
        width, message = 5, "embed: batch has 5 columns, embedder expects 8"
    models.save_params(models.init_mlp([12, width], np.random.default_rng(0)), phi,
                       role="target_embedder")
    calls = []
    solve = transport.sinkhorn
    monkeypatch.setattr(transport, "sinkhorn", lambda *a: calls.append(a) or solve(*a))
    assert main(["stage2", "--data", str(data), "--models", str(cli_workspace / "m2"),
                 "--phi", str(phi), "--out", str(tmp_path / "s2"), "--scale", "0.05"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


def test_baseline_runs_gap_dial(tmp_path, capsys):
    """gap_dial keeps the input space: baseline builds its spec by the rule
    ``gen`` applies, so the default target size does not reject it."""
    out = tmp_path / "bl"
    assert main(["baseline", "--families", "gap_dial", "--seeds", "1", "--scale", "0.05",
                 "--out", str(out)]) == 0
    rows = json.loads((out / "baseline.json").read_text())
    assert [r["variant"] for r in rows] == list(pipeline.VARIANTS)
    assert all(r["task"] == "gap_dial" and r["n_seeds"] == 1 for r in rows)
    # the wide table: one line per variant, in VARIANTS order
    header, *lines = _csv_rows(out / "baseline.csv")
    assert header == ["variant", "gap_dial_median", "gap_dial_iqr_low", "gap_dial_iqr_high"]
    assert [line[0] for line in lines] == ["recraft", "nft", "fa_only"]
    # every cell reads back to exactly the value in baseline.json
    for line, r in zip(lines, rows):
        assert [float(v) for v in line[1:]] == [r["median_error"], r["iqr_low"], r["iqr_high"]]


@pytest.mark.parametrize(
    "argv, message",
    [(["baseline", "--seeds", "0"], "run_baseline needs at least one seed"),
     (["verify-theorem", "--instances", "0"], "--instances must be at least 1, got 0"),
     (["bound-report", "--tasks", "0"], "--tasks must be at least 1, got 0")],
    ids=["baseline-no-seeds", "verify-theorem-no-instances", "bound-report-no-tasks"],
)
def test_counts_below_one_exit_1(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def _fa_row(epoch, gap) -> str:
    return json.dumps({"epoch": epoch, "phase": "fa", "l_fa": 1.0, "l_fld": 0.0,
                       "semantic_gap": gap, "holdout_error": 0.2, "train_nll": None,
                       "wall_time": 0.0})


@pytest.mark.parametrize(
    "row, message",
    [('{"epoch": 1}', "not a run-log record"),
     ("[1, 2]", "not a run-log record"),
     (_fa_row(1, 1.0), "run log records must be strictly ordered"),
     (_fa_row(4, "x1"), "not a run-log record: semantic_gap 'x1' is not a number"),
     (_fa_row(4, None), "not a run-log record: semantic_gap None is not a number"),
     (_fa_row(4, 10**400), "int too large to convert to float")],
    ids=["partial", "list", "out_of_order", "string_gap", "null_gap", "huge_int"],
)
def test_correlate_rejects_a_row_that_is_not_a_record(tmp_path, capsys, row, message):
    path = tmp_path / "log.jsonl"
    _write_runlog(path, [0.1, 0.3, 0.2])
    path.write_text(path.read_text() + row + "\n")
    assert main(["correlate", "--runlog", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:4: {message}")
    assert "Traceback" not in err


def test_config_replay_abbreviated_flag_wins(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"instances": 3, "seed": 4}))
    out = tmp_path / "o"
    assert main(["verify-theorem", "--config", str(config), "--inst", "2", "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["instances"] == 2 and resolved["seed"] == 4
    assert json.loads((out / "verify_theorem.json").read_text())["instances"] == 2


@pytest.mark.parametrize(
    "stored",
    [{"instances": "abc"}, {"instances": 2.5}, {"instances": [1, 2]}, {"instances": True}],
    ids=["string", "float", "list", "bool"],
)
def test_config_replay_type_checks_stored_values(tmp_path, capsys, stored):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(stored))
    out = tmp_path / "o"
    assert main(["verify-theorem", "--config", str(config), "--out", str(out)]) in (1, 2)
    err = capsys.readouterr().err
    assert "instances" in err and "Traceback" not in err
    assert not (out / "verify_theorem.json").exists()


def test_config_replay_checks_choices(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"family": "spiral"}))
    assert main(["gen", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "--family" in capsys.readouterr().err
