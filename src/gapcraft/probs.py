"""Validation helpers for probability vectors, softmax, and entropy/KL in nats.

Conventions used throughout the package: natural logarithms everywhere,
``0 * log 0 = 0``, and ``kl(p, q) = +inf`` as soon as p puts mass where q
does not.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_distribution",
    "as_conditional",
    "entropy",
    "kl_divergence",
    "cross_entropy",
    "xlogx",
    "softmax",
    "LOG_FLOOR",
]

# probabilities are clamped to this floor before a log wherever a predicted
# distribution may underflow to zero
LOG_FLOOR = 1e-12


def as_distribution(p, name: str = "distribution", atol: float = 1e-8) -> np.ndarray:
    """Validate and return a 1-D probability vector as float64."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(arr < -atol):
        raise ValueError(f"{name} has negative entries (min {arr.min():.3e})")
    total = float(arr.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"{name} sums to {total:.12f}, expected 1")
    return np.clip(arr, 0.0, None)


def as_conditional(m, name: str = "conditional", atol: float = 1e-8) -> np.ndarray:
    """Validate a row-stochastic matrix: every row a distribution."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(arr < -atol):
        raise ValueError(f"{name} has negative entries (min {arr.min():.3e})")
    rows = arr.sum(axis=1)
    bad = np.abs(rows - 1.0) > atol
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"{name} row {i} sums to {rows[i]:.12f}, expected 1")
    return np.clip(arr, 0.0, None)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the row maximum."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def xlogx(x: np.ndarray) -> np.ndarray:
    """Elementwise x*log(x) with the 0*log(0)=0 convention."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def entropy(p) -> float:
    """Shannon entropy in nats of a nonnegative array (any shape)."""
    return float(-xlogx(np.asarray(p, dtype=np.float64)).sum())


def cross_entropy(p, q) -> float:
    """-sum p*log(q) in nats; +inf when p puts mass where q vanishes."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    support = p > 0.0
    if np.any(q[support] <= 0.0):
        return float("inf")
    return float(-(p[support] * np.log(q[support])).sum())


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats; +inf on support violation, 0*log(0/q)=0."""
    ce = cross_entropy(p, q)
    if ce == float("inf"):
        return ce
    return ce - entropy(p)
