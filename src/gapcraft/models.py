"""Small feed-forward parameterizations: embedders, source head, transport head.

Four maps appear downstream: the source embedder (raw source input ->
feature), the source prediction head (feature -> distribution over source
classes), the target embedder (raw target input -> feature, same feature
space), and the transport-head target predictor, which composes the frozen
source head with a learnable label-transport kernel conditioned on the
feature vector.

The kernel is one linear layer on [u, one-hot z]; its weight splits into
a feature block w_u and a label block w_z, so the logits for every source
class come from one broadcast, u @ w_u + w_z[z] + b, in :func:`_kernel_forward`.
The stage-2 likelihood calls it, and prediction reaches it through
:func:`predict_target`, which checks the feature batch once.

Every MLP forward is :func:`mlp_apply`, which rejects non-finite
pre-activations.  Reverse mode is :func:`mlp_vjp`: :func:`mlp_apply`
records each layer on a :class:`numgrad.Tape`, whose backward sweep is the
pullback.

Parameters are immutable snapshots; training steps return new snapshots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import numgrad as ng
from .numgrad import DimensionError, Matrix, Tape, freeze
from .probs import softmax

__all__ = [
    "Layer",
    "MlpParams",
    "TransportHeadParams",
    "init_mlp",
    "init_transport_head",
    "embed",
    "predict_source",
    "predict_target",
    "mlp_apply",
    "mlp_vjp",
    "sgd_update",
    "save_params",
    "load_params",
]

_ACTS = ("tanh", "linear")
# diagonal logit boost of an initial kernel whose class counts match
IDENTITY_BOOST = 2.0


@dataclass(frozen=True)
class Layer:
    w: Matrix
    b: Matrix  # shape (1, out_dim)
    act: str

    def __post_init__(self):
        if self.act not in _ACTS:
            raise ValueError(f"unknown activation {self.act!r}")
        if self.w.ndim != 2 or self.b.shape != (1, self.w.shape[1]):
            raise DimensionError(
                f"layer shapes inconsistent: w {self.w.shape}, b {self.b.shape}"
            )


@dataclass(frozen=True)
class MlpParams:
    layers: tuple[Layer, ...]

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].w.shape[1]


@dataclass(frozen=True)
class TransportHeadParams:
    """Kernel mapping (feature u, one-hot source label z) -> logits over z':
    one linear layer, ``w`` (feature_dim + n_source_classes, n_target_classes)
    and ``b`` (1, n_target_classes).  feature_dim 0 is a label-only kernel."""

    w: Matrix
    b: Matrix
    n_source_classes: int

    @property
    def feature_dim(self) -> int:
        return self.w.shape[0] - self.n_source_classes

    @property
    def n_target_classes(self) -> int:
        return self.w.shape[1]

    def __post_init__(self):
        if self.w.ndim != 2 or self.b.shape != (1, self.w.shape[1]) or self.feature_dim < 0:
            raise DimensionError(
                f"transport head shapes inconsistent: w {self.w.shape}, b {self.b.shape}, "
                f"{self.n_source_classes} source classes"
            )


def init_mlp(dims: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Gaussian init with 1/sqrt(fan_in) scale, zero biases, tanh hidden
    layers and a linear last layer."""
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
        act = "linear" if i == len(dims) - 2 else "tanh"
        layers.append(Layer(freeze(w), freeze(np.zeros((1, fan_out))), act))
    return MlpParams(tuple(layers))


def init_transport_head(
    feature_dim: int, n_source_classes: int, n_target_classes: int
) -> TransportHeadParams:
    """Linear kernel on [u, one-hot z], zero on the feature block.

    When the class counts match, the one-hot block gets the diagonal logit
    boost IDENTITY_BOOST, so the initial kernel is close to the
    row-stochastic identity and the composed target predictor starts out
    close to the source head.  Otherwise every row starts uniform.
    """
    w = np.zeros((feature_dim + n_source_classes, n_target_classes))
    if n_source_classes == n_target_classes:
        w[feature_dim:] = IDENTITY_BOOST * np.eye(n_source_classes)
    return TransportHeadParams(
        freeze(w), freeze(np.zeros((1, n_target_classes))), n_source_classes
    )


def _activate(x: np.ndarray, act: str) -> np.ndarray:
    if act == "tanh":
        return np.tanh(x)
    return x


def embed(params: MlpParams, x) -> Matrix:
    """Map a batch of raw inputs (rows) to feature rows."""
    x = ng.as_matrix(x, "input batch")
    if x.shape[1] != params.input_dim:
        raise DimensionError(
            f"embed: batch has {x.shape[1]} columns, embedder expects {params.input_dim}"
        )
    return mlp_apply(params, x)


def predict_source(head: MlpParams, u) -> Matrix:
    """Per-row distribution over source classes at features u (checked by :func:`embed`)."""
    return softmax(embed(head, u))


def _kernel_forward(kernel: TransportHeadParams, u: Matrix) -> np.ndarray:
    """Row-stochastic label-transport matrices at a feature batch already
    checked: shape (n, n_source_classes, n_target_classes), entry [i, z, z']
    the kernel's probability of target label z' given source label z at u_i."""
    fd = kernel.feature_dim
    w_u, w_z = kernel.w[:fd], kernel.w[fd:]
    return softmax((u[:, :fd] @ w_u)[:, None, :] + w_z[None] + kernel.b[None])


def predict_target(p_source: np.ndarray, kernel: TransportHeadParams, u) -> Matrix:
    """Compose the source head with the transport kernel: rows of p over z'.

    ``p_source`` is :func:`predict_source` at ``u``, and
    p(z'|u) = sum_z p_source(z|u) * kernel(z'|z, u); a product of stochastic
    maps, so each output row is a distribution for any finite parameters.
    """
    if p_source.shape[1] != kernel.n_source_classes:
        raise DimensionError(
            f"predict_target: head emits {p_source.shape[1]} classes, "
            f"kernel consumes {kernel.n_source_classes}"
        )
    u = ng.as_matrix(u, "feature batch")
    fd = kernel.feature_dim
    # label-only kernels (feature_dim 0) ignore the features entirely
    if fd and u.shape[1] != fd:
        raise DimensionError(
            f"predict_target: features have {u.shape[1]} columns, kernel expects {fd}"
        )
    return np.einsum("nz,nzt->nt", p_source, _kernel_forward(kernel, u))


# ---------------------------------------------------------------------------
# Reverse mode: one MLP pullback; every trained loss supplies its cotangent.
# ---------------------------------------------------------------------------


def mlp_apply(params: MlpParams, x: Matrix, tape: Tape | None = None) -> Matrix:
    """The MLP's output at ``x``, recording every layer on ``tape`` if given.

    A non-finite pre-activation raises FloatingPointError naming its layer.
    The check is on the pre-activation, not the output: tanh maps an
    overflowed pre-activation to a finite +-1.
    """
    h = x
    # the check below raises on overflow; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(params.layers):
            pre = h @ layer.w + layer.b
            if not np.isfinite(pre).all():
                raise FloatingPointError(f"layer {i} pre-activation has non-finite values")
            out = _activate(pre, layer.act)
            if tape is not None:
                out = freeze(out)
                tape.record(layer.w, layer.act, h, out)
            h = out
    return h


def mlp_vjp(
    params: MlpParams, x: Matrix
) -> tuple[Matrix, Callable[[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]]:
    """The MLP's output at the checked matrix ``x`` and its pullback.

    As for :func:`mlp_apply`, ``x`` has passed :func:`numgrad.as_matrix`;
    a training loop checks its batch once, not at every step.
    ``pullback(g)`` returns every layer's (dw, db) of sum(out * g), so a
    loss whose cotangent on the output is ``g`` gets its parameter
    gradient.  Non-finite pre-activations or cotangents raise
    FloatingPointError.
    """
    tape = Tape()
    out = mlp_apply(params, x, tape)

    def pullback(g: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        if not np.isfinite(g).all():
            raise FloatingPointError("output cotangent has non-finite entries")
        return tape.backward(g)

    return out, pullback


def sgd_update(
    params: MlpParams,
    grads: list[tuple[np.ndarray, np.ndarray]],
    lr: float,
) -> MlpParams:
    layers = []
    for layer, (gw, gb) in zip(params.layers, grads):
        layers.append(
            Layer(freeze(layer.w - lr * gw), freeze(layer.b - lr * gb), layer.act)
        )
    return MlpParams(tuple(layers))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_params(params: MlpParams, path, role: str = "") -> None:
    """JSON checkpoint: {layers: [{w, b, act}], meta: {role}}."""
    payload = {
        "layers": [
            {"w": l.w.tolist(), "b": l.b.ravel().tolist(), "act": l.act}
            for l in params.layers
        ],
        "meta": {"role": role},
    }
    Path(path).write_text(json.dumps(payload))


def load_params(path) -> tuple[MlpParams, str]:
    """Read a :func:`save_params` checkpoint; ValueError names a malformed file."""
    try:
        payload = json.loads(Path(path).read_text())
        layers = tuple(
            Layer(
                freeze(np.array(l["w"], dtype=np.float64)),
                freeze(np.array(l["b"], dtype=np.float64).reshape(1, -1)),
                l["act"],
            )
            for l in payload["layers"]
        )
        if not layers:
            raise ValueError('empty "layers" list')
        role = payload.get("meta", {}).get("role", "")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path} is not a parameter checkpoint: {exc!r}") from exc
    return MlpParams(layers), role
