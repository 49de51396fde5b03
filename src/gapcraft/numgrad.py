"""Dense float64 matrices and the per-layer record that MLP reverse mode sweeps.

Every value is a 2-D float64 numpy array ("matrix"); scalars live as 1x1
matrices.  A :class:`Tape` records one MLP forward (:func:`models.mlp_apply`),
one (w, act, input, output) entry per layer; ``Tape.backward(g)`` sweeps the
entries from the top and returns every layer's (dw, db) of ``sum(out * g)``.
Tapes are single-owner.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Matrix",
    "Tape",
    "GapcraftError",
    "DimensionError",
    "as_matrix",
    "freeze",
]

Matrix = np.ndarray


class GapcraftError(Exception):
    """Base of the errors gapcraft raises; each also keeps a builtin base."""


class DimensionError(GapcraftError, ValueError):
    """Operand shapes are incompatible."""


def as_matrix(data, name: str = "matrix") -> Matrix:
    """Coerce to a fresh 2-D float64 array; 0-D/1-D inputs become rows."""
    arr = np.array(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise DimensionError(f"{name} must be at most 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` as contiguous float64, marked read-only (copied only if needed)."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class Tape:
    """The record of one MLP forward: (w, act, input, output) per layer."""

    def __init__(self):
        self.layers: list[tuple[Matrix, str, Matrix, Matrix]] = []

    def record(self, w: Matrix, act: str, h_in: Matrix, out: Matrix) -> None:
        """Append one layer, out = act(h_in @ w + b)."""
        self.layers.append((w, act, h_in, out))

    def backward(self, g: Matrix) -> list[tuple[Matrix, Matrix]]:
        """Every layer's (dw, db) of sum(out * g), bottom layer first."""
        grads = []
        for i in range(len(self.layers) - 1, -1, -1):
            w, act, h_in, out = self.layers[i]
            if act == "tanh":
                g = g * (1.0 - out * out)
            elif act == "relu":
                g = g * (out > 0.0)
            grads.append((h_in.T @ g, g.sum(axis=0, keepdims=True)))
            if i:  # the input below the first layer is a constant
                g = g @ w.T
        return grads[::-1]
