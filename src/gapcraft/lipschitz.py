"""Source-head recalibration: hinge-squared gradient-norm penalty and sweeps.

The feature-space loss at u is the cross-entropy of the source prediction
against the task conditional.  Recalibration retrains the one-layer head
so the empirical norm of the feature gradient of that loss stays near a
target bound omega, while a proxy cross-entropy term (weight 1:1)
keeps predictive performance from collapsing.

Only first-order machinery is needed: the head is one softmax layer
(W, b), so the feature gradient is W (p - d), an explicit expression in
the trainable layer, and the penalty and its gradient in (W, b) have a
closed form instead of differentiating through a gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numgrad as ng
from . import models
from .models import MlpParams
from .probs import _shifted_exp, as_conditional, class_ids, error_rate, fold_last, onehot

__all__ = [
    "LipschitzConfig",
    "DivergenceError",
    "RecalibrationResult",
    "feature_gradients",
    "penalty_value",
    "recalibrate_head",
    "sweep_omega",
]

GRAD_CLIP = 5.0  # recalibration's gradient-norm cap: SGD survives the initial penalty cliff


class DivergenceError(ng.GapcraftError, RuntimeError):
    """Recalibration objective rose for several consecutive epochs."""


@dataclass(frozen=True)
class LipschitzConfig:
    omega: float = 0.3  # 0.3 suits 2D-style synthetic tasks, 0.5 the 1D-style ones
    penalty_weight: float = 10.0
    epochs: int = 300
    lr: float = 0.1
    # Hinge threshold used during training, as a fraction of omega.  The
    # quadratic hinge equilibrates slightly above its threshold, so
    # enforcing against a small inner margin lands the realized norms at
    # the nominal bound; evaluation always reports against omega itself.
    enforcement_margin: float = 0.8

    def __post_init__(self):
        # each check is written so that NaN and inf fail it
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if not self.epochs >= 0:
            raise ValueError("epochs must be nonnegative")
        if not 0.0 <= self.penalty_weight < math.inf:
            raise ValueError("penalty_weight must be nonnegative and finite")
        if not 0.0 < self.enforcement_margin <= 1.0:
            raise ValueError("enforcement_margin must lie in (0, 1]")


@dataclass(frozen=True)
class RecalibrationResult:
    head: MlpParams
    initial_penalty: float
    final_penalty: float
    penalty_history: tuple[float, ...]


def _last_layer(head: MlpParams) -> models.Layer:
    """The head's one layer; a deeper head has no closed-form recalibration here."""
    if len(head.layers) != 1:
        raise ng.DimensionError(
            f"recalibration needs a one-layer source head, got {len(head.layers)} layers"
        )
    return head.layers[0]


def feature_gradients(head: MlpParams, u, conditional) -> np.ndarray:
    """Analytic gradient of the pointwise loss with respect to the feature.

    grad_u = W (p - d) with p the one-layer head's prediction and d the
    conditional.
    """
    w = _last_layer(head).w
    d = as_conditional(conditional, "task conditional")
    return (models.predict_source(head, u) - d) @ w.T


def _hinge_penalty(norms: np.ndarray, threshold: float) -> float:
    # np.mean's own arithmetic (a sum, then a divide) without its Python overhead
    return float((np.maximum(norms - threshold, 0.0) ** 2).sum() / norms.size)


def penalty_value(head: MlpParams, u, conditional, omega: float) -> float:
    """Mean squared hinge of the feature-gradient norms above omega."""
    norms = np.linalg.norm(feature_gradients(head, u, conditional), axis=1)
    return _hinge_penalty(norms, omega)


def _recalibration_loss_and_grad(
    w: np.ndarray,
    b: np.ndarray,
    u: np.ndarray,
    d: np.ndarray,
    cfg: LipschitzConfig,
) -> tuple[float, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """penalty_weight * penalty + proxy cross-entropy in the head's (W, b).

    Returns the objective, the per-row feature-gradient norms at the
    features ``u`` and the (W, b) gradient.  With r = p - d and g_u = W r, the
    penalty's cotangent on g_u is 2 hinge g_u / (n |g_u|); it reaches W
    once through W r and once through the softmax, where the cross-entropy
    adds r / n (rows of d sum to one).
    """
    n = u.shape[0]
    threshold = cfg.omega * cfg.enforcement_margin
    # the check below raises on overflow; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        logits = u @ w + b
        # softmax and log-softmax, sharing one shift, exp and sum
        shifted, e, total = _shifted_exp(logits)
        p = e / total
        r = p - d
        g_u = r @ w.T
        norms = np.sqrt((g_u * g_u).sum(axis=1))  # np.linalg.norm(g_u, axis=1)
        hinge = np.maximum(norms - threshold, 0.0)
        objective = cfg.penalty_weight * float((hinge**2).sum() / n) - float(
            (d * (shifted - np.log(total))).sum() / n
        )
        # hinge > 0 only where norms > threshold > 0, so the division is safe
        coef = (2.0 * cfg.penalty_weight / n) * hinge / np.maximum(norms, threshold)
        g_gu = coef[:, None] * g_u
        g_r = g_gu @ w
        g_logits = p * (g_r - fold_last(np.add, g_r * p)) + r / n
        gw = u.T @ g_logits + g_gu.T @ r
        gb = g_logits.sum(axis=0, keepdims=True)
    if not (np.isfinite(objective) and np.isfinite(gw).all() and np.isfinite(gb).all()):
        if not np.isfinite(logits).all():
            raise FloatingPointError("layer 0 pre-activation has non-finite values")
        raise FloatingPointError("recalibration objective or gradient is not finite")
    return objective, norms, (gw, gb)


def recalibrate_head(
    head: MlpParams,
    theta: MlpParams,
    proxy_x,
    proxy_y,
    cfg: LipschitzConfig,
    conditional: np.ndarray | None = None,
) -> RecalibrationResult:
    """Retrain the one-layer head to push feature-gradient norms under omega.

    The proxy conditional defaults to the observed one-hot labels
    (empirical mode); pass an explicit matrix for exact mode.  The embedder
    is never touched.  If the penalty is already zero the constraint is
    inactive and the head is returned unchanged.
    """
    last = _last_layer(head)
    x = ng.as_matrix(proxy_x, "proxy batch")
    if x.shape[0] == 0:
        raise ValueError("recalibrate_head: proxy dataset is empty")
    u = models.embed(theta, x)
    d = (
        onehot(proxy_y, head.output_dim, "proxy labels")
        if conditional is None
        else as_conditional(conditional, "proxy conditional")
    )
    w, b = last.w, last.b
    # the first step's norms are the initial penalty's
    step = _recalibration_loss_and_grad(w, b, u, d, cfg)
    initial = _hinge_penalty(step[1], cfg.omega)
    if initial == 0.0:
        return RecalibrationResult(head, 0.0, 0.0, (0.0,))

    history: list[float] = []  # penalty at each epoch's head, then the final
    objective_history: list[float] = []
    rising = 0
    for epoch in range(cfg.epochs):
        if epoch:
            step = _recalibration_loss_and_grad(w, b, u, d, cfg)
        objective, norms, (gw, gb) = step
        history.append(_hinge_penalty(norms, cfg.omega))
        # Divergence is judged on the optimized joint objective; the penalty
        # component alone may rise for a while as the cross-entropy term
        # trades against it.
        if objective_history and objective > objective_history[-1]:
            rising += 1
            if rising >= 5:
                raise DivergenceError(
                    f"objective rose for 5 consecutive epochs at epoch {epoch + 1}: "
                    f"{[*objective_history[-5:], objective]}"
                )
        else:
            rising = 0
        objective_history.append(objective)
        gnorm = float(np.sqrt((gw * gw).sum() + (gb * gb).sum()))
        if gnorm > GRAD_CLIP:
            gw = gw * (GRAD_CLIP / gnorm)
            gb = gb * (GRAD_CLIP / gnorm)
        w = w - cfg.lr * gw
        b = b - cfg.lr * gb
    if cfg.epochs:
        head = MlpParams((models.Layer(ng.freeze(w), ng.freeze(b), last.act),))
    history.append(penalty_value(head, u, d, cfg.omega))
    return RecalibrationResult(head, initial, history[-1], tuple(history))


def sweep_omega(
    candidates,
    theta: MlpParams,
    head: MlpParams,
    proxy_x,
    proxy_y,
    cfg: LipschitzConfig = LipschitzConfig(),
    seed: int = 0,
) -> list[dict]:
    """Recalibrate at each omega; report held-out proxy error and residual.

    Candidates must be positive and sorted ascending.  The proxy set is
    split once (seeded), a quarter held out, so every omega sees the same
    train/holdout split.
    """
    candidates = [float(w) for w in candidates]
    if any(w <= 0 for w in candidates) or candidates != sorted(candidates):
        raise ValueError("omega candidates must be positive and sorted")
    x = ng.as_matrix(proxy_x, "proxy batch")
    y = class_ids(proxy_y, head.output_dim, "proxy labels")
    rng = np.random.default_rng(seed)
    order = rng.permutation(x.shape[0])
    n_hold = max(1, int(round(0.25 * x.shape[0])))
    hold, train = order[:n_hold], order[n_hold:]
    u_hold = models.embed(theta, x[hold])
    rows = []
    for omega in candidates:
        result = recalibrate_head(head, theta, x[train], y[train], replace(cfg, omega=omega))
        rows.append(
            {
                "omega": omega,
                "proxy_error": error_rate(models.predict_source(result.head, u_hold), y[hold]),
                "penalty_residual": result.final_penalty,
            }
        )
    return rows
