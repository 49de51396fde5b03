"""Two-stage pipeline: contracts, reductions, determinism, baselines."""

import json

import numpy as np
import pytest

from dataclasses import replace

from gapcraft import distortion, models, pipeline, synthtasks
from gapcraft.numgrad import DimensionError
from gapcraft.pipeline import PipelineConfig, RunLog, RunRecord, UndefinedCorrelationError
from gapcraft.probs import softmax
from gapcraft.synthtasks import Dataset, TaskSpec

from oracles import (
    finite_difference,
    params_vector,
    params_with_vector,
    relative_gradient_error,
    transport_head,
)


SMALL = PipelineConfig(n0=20, n1=10, n2=2, pretrain_epochs=100)


@pytest.fixture(scope="module")
def rotated_bundle():
    return synthtasks.generate(TaskSpec(family="rotated", seed=0))


# ---------------------------------------------------------------------------
# pretrain_source
# ---------------------------------------------------------------------------


def test_pretrain_separable_two_class_task():
    spec = TaskSpec(family="rotated", n_classes=2, n_target_classes=2, label_noise=0.0, seed=1)
    bundle = synthtasks.generate(spec)
    _, _, proxy_error = pipeline.pretrain_source(bundle, PipelineConfig(seed=1))
    assert proxy_error < 0.05


def test_pretrain_zero_epochs_is_noop(rotated_bundle):
    cfg = replace(SMALL, pretrain_epochs=0, seed=2)
    theta, head, _ = pipeline.pretrain_source(rotated_bundle, cfg)
    rng = np.random.default_rng(np.random.SeedSequence([2, 1]))
    init_theta = models.init_mlp([4, 16, 8], "tanh", rng)
    assert all(
        np.array_equal(a.w, b.w) for a, b in zip(theta.layers, init_theta.layers)
    )


def test_pretrain_step_is_cross_entropy_gradient(rotated_bundle):
    """One pretraining epoch moves embedder and head by lr times the
    gradient of the mean cross-entropy, checked by finite differences."""
    cfg = replace(SMALL, pretrain_epochs=1, seed=4)
    theta0, head0, _ = pipeline.pretrain_source(rotated_bundle, replace(cfg, pretrain_epochs=0))
    theta1, head1, _ = pipeline.pretrain_source(rotated_bundle, cfg)
    before = models.MlpParams(theta0.layers + head0.layers)
    after = models.MlpParams(theta1.layers + head1.layers)
    step = (params_vector(before) - params_vector(after)) / pipeline.LR_PRETRAIN
    x, y = rotated_bundle.source.x, rotated_bundle.source.y

    def cross_entropy(vec):
        p = softmax(models.embed(params_with_vector(before, vec), x))
        return float(-np.log(p[np.arange(len(y)), y]).mean())

    fd = finite_difference(cross_entropy, params_vector(before))
    assert relative_gradient_error(step, fd) < 1e-4


def test_pretrain_reproducible_bitwise(rotated_bundle):
    cfg = replace(SMALL, seed=3)
    t1, h1, e1 = pipeline.pretrain_source(rotated_bundle, cfg)
    t2, h2, e2 = pipeline.pretrain_source(rotated_bundle, cfg)
    assert e1 == e2
    assert all(np.array_equal(a.w, b.w) for a, b in zip(t1.layers, t2.layers))
    assert all(np.array_equal(a.b, b.b) for a, b in zip(h1.layers, h2.layers))


def test_pretrain_hits_trainability_threshold(rotated_bundle):
    _, _, proxy_error = pipeline.pretrain_source(rotated_bundle, PipelineConfig(seed=0))
    assert proxy_error <= rotated_bundle.meta["trainable_error"]


# ---------------------------------------------------------------------------
# stage1
# ---------------------------------------------------------------------------


def _pretrained(bundle, cfg):
    theta, head, _ = pipeline.pretrain_source(bundle, cfg)
    return theta, head


def test_stage1_zero_epochs_is_noop(rotated_bundle):
    cfg = replace(SMALL, n1=0, n2=0, seed=4)
    theta, head = _pretrained(rotated_bundle, cfg)
    rng = np.random.default_rng(0)
    phi = models.init_mlp([12, 16, 8], "tanh", rng)
    phi_out, log = pipeline.stage1(
        phi, theta, head, rotated_bundle.proxy, rotated_bundle.target, cfg, None,
        pipeline.target_class_count(rotated_bundle),
    )
    assert phi_out is phi
    assert log.records == []


def test_stage1_log_counts_phases(rotated_bundle, monkeypatch):
    cfg = replace(SMALL, n1=3, n2=2, seed=5)
    theta, head = _pretrained(rotated_bundle, cfg)
    phi = models.init_mlp([12, 16, 8], "tanh", np.random.default_rng(1))
    joints = []

    def counted(*args):
        joints.append(args)
        return build(*args)

    build = distortion.pseudo_label_stats
    monkeypatch.setattr(distortion, "pseudo_label_stats", counted)
    _, log = pipeline.stage1(
        phi, theta, head, rotated_bundle.proxy, rotated_bundle.target, cfg,
        rotated_bundle.target_test, 3,
    )
    assert [r.phase for r in log.records] == ["fa"] * 3 + ["fld"] * 2
    assert all(np.isfinite(r.semantic_gap) for r in log.records)
    # one pseudo-label joint per epoch: an alignment epoch's serves both its
    # distortion value and its induced error
    assert len(joints) == 5


def test_stage1_reduces_alignment_loss_median_over_seeds():
    """Rotated family: the planted lift is recoverable, so the alignment
    loss should at least halve from initialization (median over seeds)."""
    ratios = []
    for seed in range(5):
        bundle = synthtasks.generate(TaskSpec(family="rotated", seed=seed))
        cfg = PipelineConfig(seed=seed)
        theta, head = _pretrained(bundle, cfg)
        phi = models.init_mlp(
            [12, 16, 8], "tanh",
            np.random.default_rng(np.random.SeedSequence([seed, 4])),
        )
        phi, log = pipeline.stage1(
            phi, theta, head, bundle.proxy, bundle.target, cfg, None,
            pipeline.target_class_count(bundle),
        )
        fa = [r.l_fa for r in log.records if r.phase == "fa"]
        ratios.append(fa[-1] / fa[0])
    assert np.median(ratios) <= 0.5


# ---------------------------------------------------------------------------
# stage2
# ---------------------------------------------------------------------------


def _aligned_soft_setup(seed=0, n=2000, kz=3, temperature=1.2):
    """Features with a moderately soft source head; labels sampled from it."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, 4)) * 1.5
    head = models.init_mlp([4, kz], "tanh", rng)
    head = models.MlpParams(
        (models.Layer(head.layers[0].w * temperature, head.layers[0].b, "linear"),)
    )
    p = models.predict_source(head, u)
    labels = (rng.random(n)[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
    phi = models.MlpParams((models.Layer(np.eye(4), np.zeros((1, 4)), "linear"),))
    return phi, head, Dataset(u, labels.astype(np.int64))


def test_stage2_aligned_labels_small_decrease():
    """Labels drawn from the source head itself: a near-identity kernel is
    already at the likelihood optimum, so training barely moves the loss.

    The default +2.0 identity boost leaves visible label smoothing, which
    costs more than 1e-2 in likelihood on its own; the aligned-case premise
    (kernel starts near-optimal) therefore needs a sharper identity init.
    """
    phi, head, target = _aligned_soft_setup()
    kernel = transport_head(4, 3, 3, identity_boost=6.0)
    cfg = PipelineConfig(n0=40, seed=6)
    kernel, log = pipeline.stage2(phi, head, kernel, target, cfg)
    nlls = [r.train_nll for r in log.records]
    assert nlls[0] - min(nlls) < 1e-2


def test_stage2_without_gap_or_eval_records_none():
    """A value stage 2 did not measure is None in its records, not NaN."""
    phi, head, target = _aligned_soft_setup()
    kernel = transport_head(4, 3, 3, identity_boost=6.0)
    _, log = pipeline.stage2(phi, head, kernel, target, PipelineConfig(n0=2, seed=6))
    assert len(log.records) == 2
    for r in log.records:
        assert (r.l_fa, r.l_fld, r.semantic_gap, r.holdout_error) == (None,) * 4
        assert isinstance(r.train_nll, float)


def test_stage2_learns_planted_permutation():
    """A label-only kernel recovers the planted permutation.

    The zero-entropy permutation plan is the likelihood optimum within the
    label-transport family; with feature conditioning enabled the kernel
    can instead route probability through the feature block, so the
    concentration statement is about the pure label kernel.
    """
    spec = TaskSpec(
        family="permuted_labels", source_dim=4, target_dim=4, seed=7,
        label_noise=0.02, n_target=96,
    )
    bundle = synthtasks.generate(spec)
    cfg = PipelineConfig(seed=7, n0=200)
    theta, head = _pretrained(bundle, cfg)
    # undo the planted square rotation, then reuse the source embedder
    lift = np.array(bundle.meta["planted_map"])
    phi = models.MlpParams(
        (models.Layer(lift @ theta.layers[0].w, theta.layers[0].b, "tanh"),)
        + theta.layers[1:]
    )
    kernel = models.init_transport_head(0, 3, 3)
    kernel, _ = pipeline.stage2(phi, head, kernel, bundle.target, cfg)
    perm = np.array(bundle.meta["planted_permutation"])
    lam = models.kernel_matrices(kernel, models.embed(phi, bundle.target.x))[0]
    assert np.all(lam[np.arange(3), perm] >= 0.9)


def test_stage2_never_touches_embedder(rotated_bundle):
    cfg = replace(SMALL, seed=8)
    theta, head = _pretrained(rotated_bundle, cfg)
    phi = models.init_mlp([12, 16, 8], "tanh", np.random.default_rng(2))
    snapshot = [(l.w.copy(), l.b.copy()) for l in phi.layers]
    kernel = models.init_transport_head(8, 3, 3)
    pipeline.stage2(phi, head, kernel, rotated_bundle.target, cfg)
    assert all(
        np.array_equal(l.w, w) and np.array_equal(l.b, b)
        for l, (w, b) in zip(phi.layers, snapshot)
    )


def test_stage2_loss_nonincreasing_median_over_seeds(rotated_bundle):
    worst_increase = []
    for seed in range(5):
        cfg = PipelineConfig(n0=30, seed=seed)
        theta, head = _pretrained(rotated_bundle, cfg)
        phi = models.init_mlp(
            [12, 16, 8], "tanh",
            np.random.default_rng(np.random.SeedSequence([seed, 4])),
        )
        kernel = models.init_transport_head(8, 3, 3)
        _, log = pipeline.stage2(phi, head, kernel, rotated_bundle.target, cfg)
        nlls = np.array([r.train_nll for r in log.records])
        worst_increase.append(float(np.max(np.diff(nlls), initial=0.0)))
    assert np.median(worst_increase) <= 1e-3


def test_stage2_records_score_predict_target(rotated_bundle):
    """Each record's held-out error is the argmax error of
    models.predict_target under that epoch's kernel (an n-epoch run ends
    where the longer run stood after n epochs)."""
    cfg = replace(SMALL, n0=12, seed=11)
    theta, head = _pretrained(rotated_bundle, cfg)
    phi = pipeline.init_target_embedder(rotated_bundle, theta, cfg.seed)
    kt = pipeline.target_class_count(rotated_bundle)
    kernel0 = models.init_transport_head(theta.output_dim, head.output_dim, kt)
    target, held = rotated_bundle.target, rotated_bundle.target_test
    _, log = pipeline.stage2(phi, head, kernel0, target, cfg, held)
    u_eval = models.embed(phi, held.x)
    errors = set()
    for epochs in (1, 5, cfg.n0):
        kernel, _ = pipeline.stage2(phi, head, kernel0, target, replace(cfg, n0=epochs))
        pred = np.argmax(models.predict_target(head, kernel, u_eval), axis=1)
        errors.add(log.records[epochs - 1].holdout_error)
        assert log.records[epochs - 1].holdout_error == float(np.mean(pred != held.y))
    assert len(errors) > 1  # the kernel moves the predictions


def test_stage2_rejects_kernel_of_other_source_classes(rotated_bundle):
    cfg = replace(SMALL, seed=12)
    theta, head = _pretrained(rotated_bundle, cfg)
    phi = pipeline.init_target_embedder(rotated_bundle, theta, cfg.seed)
    kernel = models.init_transport_head(theta.output_dim, head.output_dim + 1, 3)
    with pytest.raises(DimensionError, match="^stage2: head emits 3 classes, kernel consumes 4$"):
        pipeline.stage2(phi, head, kernel, rotated_bundle.target, cfg)


# ---------------------------------------------------------------------------
# reductions and determinism
# ---------------------------------------------------------------------------


def _run_pretrained(bundle, cfg):
    """run_pipeline on a pretrained, not recalibrated, source model."""
    return pipeline.run_pipeline(bundle, cfg, pipeline.pretrain_source(bundle, cfg))


def test_structural_reductions_bit_identical(rotated_bundle):
    cfg = replace(SMALL, seed=9)
    recraft_00 = _run_pretrained(rotated_bundle, replace(cfg, n1=0, n2=0))
    nft = _run_pretrained(rotated_bundle, replace(cfg, baseline="nft"))
    assert recraft_00.holdout_error == nft.holdout_error
    assert recraft_00.log.records == nft.log.records
    assert all(
        np.array_equal(a.w, b.w)
        for a, b in zip(recraft_00.kernel.mlp.layers, nft.kernel.mlp.layers)
    )

    recraft_n20 = _run_pretrained(rotated_bundle, replace(cfg, n2=0))
    fa_only = _run_pretrained(rotated_bundle, replace(cfg, baseline="fa_only"))
    assert recraft_n20.holdout_error == fa_only.holdout_error
    assert recraft_n20.log.records == fa_only.log.records
    assert all(
        np.array_equal(a.w, b.w)
        for a, b in zip(recraft_n20.phi.layers, fa_only.phi.layers)
    )


def test_run_pipeline_deterministic(rotated_bundle):
    cfg = replace(SMALL, seed=10)
    a = _run_pretrained(rotated_bundle, cfg)
    b = _run_pretrained(rotated_bundle, cfg)
    assert a.holdout_error == b.holdout_error
    assert a.log.records == b.log.records


def test_runlog_jsonl_roundtrip(tmp_path, rotated_bundle):
    cfg = replace(SMALL, n1=2, n2=1, n0=2, seed=11)
    result = _run_pretrained(rotated_bundle, cfg)
    path = tmp_path / "runlog.jsonl"
    result.log.to_jsonl(path)
    loaded = RunLog.from_jsonl(path)
    assert loaded.records == result.log.records


def test_runlog_jsonl_is_strict_json(tmp_path):
    """Unmeasured values (stage-1 train_nll, a stage-2 run without a frozen
    gap) are None, written as null and read back as None."""
    log = RunLog()
    log.append(RunRecord(1, "fa", 0.5, 0.25, 0.75, 0.1, None, 0.0))
    log.append(RunRecord(1, "predictor", None, None, None, 0.2, 0.9, 0.1))
    path = tmp_path / "runlog.jsonl"
    log.to_jsonl(path)

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    rows = [json.loads(line, parse_constant=reject) for line in path.read_text().splitlines()]
    assert rows[0]["train_nll"] is None and rows[1]["l_fa"] is None
    loaded = RunLog.from_jsonl(path)
    assert loaded.records == log.records
    assert loaded.records[1].semantic_gap is None


def test_runlog_rejects_out_of_order_records():
    log = RunLog()
    log.append(RunRecord(1, "fld", 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        log.append(RunRecord(5, "fa", 0, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# correlate_gap_error
# ---------------------------------------------------------------------------


def _synthetic_log(gaps, errs):
    log = RunLog()
    for i, (g, e) in enumerate(zip(gaps, errs), start=1):
        log.append(RunRecord(i, "fa", g, 0.0, g, e, None, 0.0))
    return log


def test_correlate_perfectly_linear():
    gaps = [5.0, 4.0, 3.0, 2.0, 1.0]
    errs = [0.5, 0.4, 0.3, 0.2, 0.1]
    r, series = pipeline.correlate_gap_error(_synthetic_log(gaps, errs))
    assert r == pytest.approx(1.0, abs=1e-12)
    assert len(series) == 5


def test_correlate_constant_error_undefined():
    with pytest.raises(UndefinedCorrelationError):
        pipeline.correlate_gap_error(_synthetic_log([3, 2, 1], [0.5, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# run_baseline
# ---------------------------------------------------------------------------


def test_run_baseline_rows_structure():
    spec = TaskSpec(family="rotated", seed=0)
    cfg = replace(SMALL, seed=0)
    rows = pipeline.run_baseline({"rotated": spec}, cfg, seeds=[0, 1])
    assert len(rows) == 3
    assert {r["variant"] for r in rows} == set(pipeline.VARIANTS)
    for r in rows:
        assert r["n_seeds"] == 2
        assert r["iqr_low"] <= r["median_error"] <= r["iqr_high"]


def test_baseline_table_csv(tmp_path):
    rows = [
        {"task": "rotated", "variant": v, "median_error": 0.1, "iqr_low": 0.05,
         "iqr_high": 0.15, "n_seeds": 5, "bayes_error": 0.1}
        for v in pipeline.VARIANTS
    ]
    path = tmp_path / "table.csv"
    pipeline.baseline_table_to_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "variant,rotated_median,rotated_iqr_low,rotated_iqr_high"
    assert [l.split(",")[0] for l in lines[1:]] == ["recraft", "nft", "fa_only"]
