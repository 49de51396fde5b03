"""Two-stage fine-tuning pipeline, ablation baselines, gap-error tracking.

Stage 1 learns the target embedder: first the alignment epochs (Wasserstein
distance between embedded target and source batches under the fixed
coupling gradient), then the distortion epochs (pseudo-label conditional
entropy), sequentially.  Stage 2 freezes the embedder and fits the
transport-head predictor by negative log-likelihood.  The ablations are
structural reductions of the same code path: ``nft`` skips stage 1
entirely, ``fa_only`` drops the distortion epochs, so bit-identical
reproductions under shared seeds come for free.

Every loss has a closed-form cotangent.  Pretraining and stage 1 pull
theirs back through the MLP with :func:`models.mlp_vjp`.  Stage 2 needs
no pullback: the kernel is one linear layer, so the likelihood gradient
sits directly on the one kernel forward, ``models._kernel_forward``, behind
:func:`models.predict_target`, which scores each epoch's kernel; the last
score is the run's holdout.

During stage 1 there is no trained target predictor yet; checkpoint
held-out errors use the predictor induced by the pseudo-label statistics
(the row-normalized joint), which is cheap, deterministic, and tracks how
transferable the current embedder is.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import distortion, lipschitz, models, transport
from . import numgrad as ng
from .lipschitz import LipschitzConfig
from .models import MlpParams, TransportHeadParams
from .numgrad import GapcraftError
from .probs import class_ids, error_rate, onehot, softmax
from .synthtasks import Dataset, TaskBundle
from .transport import SinkhornConfig

__all__ = [
    "PipelineConfig",
    "RunRecord",
    "RunLog",
    "PipelineResult",
    "UndefinedCorrelationError",
    "pretrain_source",
    "target_class_count",
    "init_target_embedder",
    "stage1",
    "stage2",
    "frozen_gap",
    "run_pipeline",
    "run_baseline",
    "correlate_gap_error",
    "induced_predictor_error",
]

PHASES = ("fa", "fld", "predictor")
VARIANTS = ("recraft", "nft", "fa_only")
LR_PRETRAIN = 0.5  # source pretraining step size


class UndefinedCorrelationError(GapcraftError, ValueError):
    """Too few distinct checkpoints to define a correlation."""


@dataclass(frozen=True)
class PipelineConfig:
    n0: int = 60  # predictor epochs
    n1: int = 60  # alignment epochs
    n2: int = 4  # distortion epochs
    pretrain_epochs: int = 300
    lr_fa: float = 0.2
    lr_fld: float = 0.1
    lr_predictor: float = 0.5
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    # its omega is the paper's one Lipschitz constant: the bound that
    # recalibration enforces and the weight of W1 in the alignment loss
    lipschitz: LipschitzConfig = field(default_factory=LipschitzConfig)
    seed: int = 0
    baseline: str = "recraft"
    scale: float = 1.0  # shrinks epoch counts for fast runs

    def __post_init__(self):
        # each check is written so that NaN and inf fail it
        if not all(n >= 0 for n in (self.n0, self.n1, self.n2, self.pretrain_epochs)):
            raise ValueError("epoch counts must be nonnegative")
        if not all(0.0 < lr < math.inf for lr in (self.lr_fa, self.lr_fld, self.lr_predictor)):
            raise ValueError("learning rates must be positive and finite")
        if self.baseline not in VARIANTS:
            raise ValueError(f"baseline must be one of {VARIANTS}")
        if not 0.0 < self.scale < math.inf:  # effective_epochs rounds scaled counts
            raise ValueError("scale must be positive and finite")

    def effective_epochs(self) -> tuple[int, int, int]:
        """(n1, n2, n0) after the variant reduction and scale factor."""
        n1 = 0 if self.baseline == "nft" else round(self.n1 * self.scale)
        n2 = (
            0
            if self.baseline in ("nft", "fa_only")
            else round(self.n2 * self.scale)
        )
        return int(n1), int(n2), int(round(self.n0 * self.scale))


@dataclass(frozen=True)
class RunRecord:
    """One epoch of a run; ``train_nll`` is None on the stage-1 epochs,
    which train no predictor.  Equality ignores ``wall_time``: equal
    records are a reproduced run."""

    epoch: int
    phase: str
    l_fa: float
    l_fld: float
    semantic_gap: float
    holdout_error: float
    train_nll: float | None
    wall_time: float = field(compare=False)


def _record_from_row(row) -> RunRecord:
    """A parsed run-log line as a record, its field types checked."""
    try:
        record = RunRecord(**row)
    except TypeError as exc:
        raise TypeError(f"not a run-log record: {exc}") from exc
    if type(record.epoch) is not int:
        raise TypeError(f"not a run-log record: epoch {record.epoch!r} is not an int")
    if record.phase not in PHASES:
        raise ValueError(f"not a run-log record: phase {record.phase!r} is not one of {PHASES}")
    for name, value in row.items():
        if name in ("epoch", "phase") or (name == "train_nll" and value is None):
            continue
        if type(value) not in (int, float) or not math.isfinite(value):
            raise TypeError(f"not a run-log record: {name} {value!r} is not a number")
    return record


@dataclass
class RunLog:
    records: list[RunRecord] = field(default_factory=list)

    def append(self, record: RunRecord) -> None:
        if self.records:
            last = self.records[-1]
            key = (PHASES.index(record.phase), record.epoch)
            if key <= (PHASES.index(last.phase), last.epoch):
                raise ValueError("run log records must be strictly ordered")
        self.records.append(record)

    def to_jsonl(self, path) -> None:
        """Strict JSON lines, one record per line; None is written as null."""
        with Path(path).open("w") as fh:
            for r in self.records:
                fh.write(json.dumps(asdict(r), allow_nan=False) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "RunLog":
        """The log a run-log file holds; ValueError names the first bad line."""
        log = cls()
        with Path(path).open() as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    log.append(_record_from_row(json.loads(line)))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
        return log


@dataclass(frozen=True)
class PipelineResult:
    theta: MlpParams
    source_head: MlpParams
    phi: MlpParams
    kernel: TransportHeadParams
    log: RunLog
    holdout_error: float
    source_proxy_error: float


def _rng_for(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tag]))


def target_class_count(bundle: TaskBundle) -> int:
    """Classes the target predictor is trained on: the bundle's declared
    count, else the largest target label plus one."""
    return int(bundle.meta.get("n_target_classes", 0)) or int(bundle.target.y.max() + 1)


def init_target_embedder(bundle: TaskBundle, theta: MlpParams, seed: int) -> MlpParams:
    """Seeded initial phi: target inputs into the source feature space."""
    return models.init_mlp([bundle.target.x.shape[1], 16, theta.output_dim], _rng_for(seed, 4))


def pretrain_source(
    bundle: TaskBundle, cfg: PipelineConfig
) -> tuple[MlpParams, MlpParams, float]:
    """Train the source embedder (tanh, widths 16 and 8) and head jointly
    by cross-entropy, at step size LR_PRETRAIN.

    Returns (embedder, head, proxy error); the proxy set acts as the
    held-out split since it is an independent draw of the same
    distribution.
    """
    # checked once here: every epoch's forward reuses it
    x = ng.as_matrix(bundle.source.x, "input batch")
    k = int(bundle.meta.get("n_classes", bundle.source.y.max() + 1))
    rng = _rng_for(cfg.seed, 1)
    theta = models.init_mlp([x.shape[1], 16, 8], rng)
    head = models.init_mlp([theta.output_dim, k], rng)
    # cross-entropy cotangent on the logits, written term for term as the
    # log-softmax VJP: (softmax - onehot)/n rounds differently, and 300
    # epochs at lr 0.5 amplify that into visibly different parameters
    c = -1.0 / x.shape[0]
    c_onehot = c * onehot(bundle.source.y, k, "source labels")
    proxy_y = class_ids(bundle.proxy.y, k, "proxy labels")
    # embedder and head train as one MLP, split once at the end
    n_theta = len(theta.layers)
    params = MlpParams(theta.layers + head.layers)
    epochs = int(round(cfg.pretrain_epochs * cfg.scale))
    for _ in range(epochs):
        logits, pullback = models.mlp_vjp(params, x)
        params = models.sgd_update(
            params, pullback(c_onehot - softmax(logits) * c), LR_PRETRAIN
        )
    theta = MlpParams(params.layers[:n_theta])
    head = MlpParams(params.layers[n_theta:])
    p_proxy = models.predict_source(head, models.embed(theta, bundle.proxy.x))
    return theta, head, error_rate(p_proxy, proxy_y)


def induced_predictor_error(
    phi: MlpParams,
    source_head: MlpParams,
    joint: np.ndarray,
    eval_x: np.ndarray,
    eval_labels: np.ndarray,
) -> float:
    """Held-out 0-1 error of the pseudo-label-induced predictor.

    The soft joint's row-normalized kernel composed with the source head is
    the natural label-transfer predictor available before stage 2 runs.
    ``joint`` is :func:`distortion.pseudo_label_stats` of ``phi`` on the
    training set, and ``eval_labels`` are the class labels of ``eval_x``.
    """
    rows = joint.sum(axis=1, keepdims=True)
    lam = np.where(rows > 0.0, joint / np.maximum(rows, 1e-300), 1.0 / joint.shape[1])
    p_eval = models.predict_source(source_head, models.embed(phi, eval_x)) @ lam
    return error_rate(p_eval, eval_labels)


def stage1(
    phi: MlpParams,
    theta: MlpParams,
    source_head: MlpParams,
    proxy: Dataset,
    target: Dataset,
    cfg: PipelineConfig,
    target_eval: Dataset,
    n_target_classes: int,
) -> tuple[MlpParams, RunLog]:
    """Learn the target embedder: alignment epochs then distortion epochs.

    Runs the configured alignment epochs first (coupling recomputed every
    step, gradient under the fixed coupling), then the distortion epochs on
    the soft pseudo-label surrogate, exactly in that order.  ``theta``
    embeds the proxy inputs once, and every epoch aligns to those source
    features.  One record per epoch lands in the log, with the induced
    predictor's error on ``target_eval``.  ``n_target_classes`` is
    :func:`target_class_count` of the task.
    """
    n1, n2, _ = cfg.effective_epochs()
    eval_y = class_ids(target_eval.y, n_target_classes, "target_test labels")
    source_features = models.embed(theta, proxy.x)
    log = RunLog()
    start = time.perf_counter()

    def pseudo_joint() -> np.ndarray:
        return distortion.pseudo_label_stats(
            phi, source_head, target.x, target.y, n_target_classes
        )

    def checkpoint(epoch: int, phase: str, l_fa: float, l_fld: float, joint: np.ndarray) -> None:
        """Append the epoch's record; ``joint`` is the epoch's pseudo-label joint."""
        err = induced_predictor_error(phi, source_head, joint, target_eval.x, eval_y)
        elapsed = time.perf_counter() - start
        log.append(RunRecord(epoch, phase, l_fa, l_fld, l_fa + l_fld, err, None, elapsed))

    for epoch in range(1, n1 + 1):
        loss, grads, _ = transport.fa_loss_and_grad(
            phi, target.x, source_features, cfg.lipschitz.omega, cfg.sinkhorn
        )
        phi = models.sgd_update(phi, grads, cfg.lr_fa)
        joint = pseudo_joint()
        checkpoint(epoch, "fa", loss, distortion.fld_surrogate(joint), joint)

    for epoch in range(1, n2 + 1):
        loss, grads = distortion.fld_loss_and_grad(
            phi, source_head, target.x, target.y, n_target_classes
        )
        phi = models.sgd_update(phi, grads, cfg.lr_fld)
        l_fa = transport.fa_loss(
            phi, target.x, source_features, cfg.lipschitz.omega, cfg.sinkhorn
        )
        checkpoint(epoch, "fld", l_fa, loss, pseudo_joint())

    return phi, log


def _stage2_loss_and_grad(
    kernel: TransportHeadParams,
    u: np.ndarray,
    p_source: np.ndarray,
    labels: np.ndarray,
    onehot: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """-mean log p_target(label | u) and its gradient (gw, gb) in the kernel's (w, b).

    ``u`` is a checked feature batch of the kernel's width and ``onehot``
    is ``labels`` one-hot over the target classes.  With
    lam = models._kernel_forward(kernel, u), the forward behind
    :func:`models.predict_target`, the cotangent on the logits of
    source class z at row i is post[i, z] (lam[i, z] - e_y) / n, where
    post[i, z] = p_s[i, z] lam[i, z, y_i] / p_tau[i, y_i] is the posterior
    of z given the label y_i.  The logits are u @ w_u + w_z[z] + b, so the
    weight gradient stacks u^T g.sum(1) over g.sum(0).
    """
    n = u.shape[0]
    rows = np.arange(n)
    lam = models._kernel_forward(kernel, u)
    p_tau = np.einsum("nz,nzt->nt", p_source, lam)[rows, labels]
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = float(-np.log(p_tau).mean())
    if not np.isfinite(loss):
        raise FloatingPointError("stage-2 negative log-likelihood is not finite")
    post = p_source * lam[rows, :, labels] / p_tau[:, None]
    g = post[:, :, None] * (lam - onehot[:, None, :]) / n
    gw = np.vstack([u[:, : kernel.feature_dim].T @ g.sum(axis=1), g.sum(axis=0)])
    return loss, gw, g.sum(axis=(0, 1))[None, :]


def stage2(
    phi: MlpParams,
    source_head: MlpParams,
    kernel: TransportHeadParams,
    target: Dataset,
    cfg: PipelineConfig,
    target_eval: Dataset,
    frozen_gap: tuple[float, float],
) -> tuple[TransportHeadParams, RunLog, float]:
    """Fit the transport-head predictor on the frozen embedder.

    Maximizes the likelihood of the target labels under the composed
    predictor; only the kernel's (w, b) moves, and the kernel reads
    ``phi``'s features (or none) and ``source_head``'s classes.  Each
    epoch's record holds ``frozen_gap``, the embedder's (FA, FLD), and the
    :func:`models.predict_target` error on ``target_eval``.  Returns the
    kernel, the log and that error of the returned kernel.
    """
    # the embedder and source head are frozen: only the kernel's forward repeats
    y_onehot = onehot(target.y, kernel.n_target_classes, "target labels")
    eval_y = class_ids(target_eval.y, kernel.n_target_classes, "target_test labels")
    u = models.embed(phi, target.x)
    p_source = models.predict_source(source_head, u)
    u_eval = models.embed(phi, target_eval.x)
    p_eval = models.predict_source(source_head, u_eval)
    _, _, n0 = cfg.effective_epochs()
    log = RunLog()
    start = time.perf_counter()
    l_fa, l_fld = frozen_gap
    lr = cfg.lr_predictor

    def holdout() -> float:
        return error_rate(models.predict_target(p_eval, kernel, u_eval), eval_y)

    err = holdout()  # checks the kernel against the head and phi before any step
    for epoch in range(1, n0 + 1):
        nll, gw, gb = _stage2_loss_and_grad(kernel, u, p_source, target.y, y_onehot)
        kernel = replace(kernel, w=ng.freeze(kernel.w - lr * gw), b=ng.freeze(kernel.b - lr * gb))
        err = holdout()
        elapsed = time.perf_counter() - start
        log.append(RunRecord(epoch, "predictor", l_fa, l_fld, l_fa + l_fld, err, nll, elapsed))
    return kernel, log, err


def frozen_gap(
    phi: MlpParams,
    theta: MlpParams,
    source_head: MlpParams,
    bundle: TaskBundle,
    cfg: PipelineConfig,
) -> tuple[float, float]:
    """(FA, FLD) of the embedder stage 2 freezes, for its run-log records; the
    joint comes first, so a bad target label or phi fails before the solve."""
    joint = distortion.pseudo_label_stats(
        phi, source_head, bundle.target.x, bundle.target.y, target_class_count(bundle)
    )
    l_fa = transport.fa_loss(
        phi, bundle.target.x, models.embed(theta, bundle.proxy.x),
        cfg.lipschitz.omega, cfg.sinkhorn,
    )
    return l_fa, distortion.fld_surrogate(joint)


def run_pipeline(
    bundle: TaskBundle,
    cfg: PipelineConfig,
    pretrained: tuple[MlpParams, MlpParams, float] | None = None,
) -> PipelineResult:
    """Full flow: pretrain, recalibrate, stage 1, stage 2, final evaluation.

    ``pretrained`` short-circuits the shared prefix (pretraining and
    recalibration) so ablation variants of the same seed reuse identical
    source models.
    """
    if pretrained is None:
        theta, head, proxy_error = pretrain_source(bundle, cfg)
        result = lipschitz.recalibrate_head(
            head, theta, bundle.proxy.x, bundle.proxy.y, cfg.lipschitz
        )
        pretrained = (theta, result.head, proxy_error)
    theta, head, proxy_error = pretrained

    kt = target_class_count(bundle)
    phi = init_target_embedder(bundle, theta, cfg.seed)
    phi, log1 = stage1(
        phi, theta, head, bundle.proxy, bundle.target, cfg, bundle.target_test, kt
    )
    kernel = models.init_transport_head(phi.output_dim, head.output_dim, kt)
    kernel, log2, holdout = stage2(
        phi, head, kernel, bundle.target, cfg, bundle.target_test,
        frozen_gap(phi, theta, head, bundle, cfg),
    )
    log = RunLog(log1.records + log2.records)
    return PipelineResult(theta, head, phi, kernel, log, holdout, proxy_error)


def run_baseline(specs: dict, cfg: PipelineConfig, seeds: Sequence[int]) -> list[dict]:
    """Held-out error per (task, variant) over seeds; median and IQR.

    ``specs`` maps task names to TaskSpec-like factories of seeded bundles;
    the source model is shared across variants within a seed.
    """
    from .synthtasks import generate

    if len(seeds) == 0:
        raise ValueError("run_baseline needs at least one seed")
    rows = []
    for task_name, spec in specs.items():
        per_variant: dict[str, list[float]] = {v: [] for v in VARIANTS}
        for seed in seeds:
            bundle = generate(replace(spec, seed=int(seed)))
            base_cfg = replace(cfg, seed=int(seed))
            shared = None
            for variant in VARIANTS:
                vcfg = replace(base_cfg, baseline=variant)
                if shared is None:
                    result = run_pipeline(bundle, vcfg)
                    shared = (result.theta, result.source_head, result.source_proxy_error)
                else:
                    result = run_pipeline(bundle, vcfg, pretrained=shared)
                per_variant[variant].append(result.holdout_error)
        for variant in VARIANTS:
            errs = np.array(per_variant[variant])
            rows.append(
                {
                    "task": task_name,
                    "variant": variant,
                    "median_error": float(np.median(errs)),
                    "iqr_low": float(np.quantile(errs, 0.25)),
                    "iqr_high": float(np.quantile(errs, 0.75)),
                    "n_seeds": len(seeds),
                    "bayes_error": float(bundle.meta["bayes_error"]),
                }
            )
    return rows


def correlate_gap_error(log: RunLog) -> tuple[float, list[dict]]:
    """Pearson correlation between the semantic gap and held-out error
    across stage-1 (fa and fld) checkpoints, plus the plottable series."""
    records = [r for r in log.records if r.phase in ("fa", "fld")]
    pairs = {(r.semantic_gap, r.holdout_error) for r in records}
    gaps = np.array([r.semantic_gap for r in records])
    errs = np.array([r.holdout_error for r in records])
    if len(pairs) < 2 or gaps.std() == 0.0 or errs.std() == 0.0:
        raise UndefinedCorrelationError(
            "need at least two distinct (gap, error) checkpoints with variance"
        )
    g = gaps - gaps.mean()
    e = errs - errs.mean()
    r = float((g @ e) / np.sqrt((g @ g) * (e @ e)))
    series = [
        {
            "epoch": rec.epoch,
            "phase": rec.phase,
            "semantic_gap": rec.semantic_gap,
            "holdout_error": rec.holdout_error,
        }
        for rec in records
    ]
    return r, series
