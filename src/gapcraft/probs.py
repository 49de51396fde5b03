"""Validation helpers for probability vectors, (log-)softmax, and entropy/KL in nats.

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
    "log_softmax",
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
    total = float(arr.sum())
    # a finite sum rules out NaN and inf entries, so one test covers three
    # checks on valid input; the ordered checks below name the first failure
    if not (abs(total - 1.0) <= atol and arr.min(initial=0.0) >= -atol):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite entries")
        if (arr < -atol).any():
            raise ValueError(f"{name} has negative entries (min {arr.min():.3e})")
        raise ValueError(f"{name} sums to {total:.12f}, expected 1")
    return np.maximum(arr, 0.0)


def as_conditional(m, name: str = "conditional", atol: float = 1e-8) -> np.ndarray:
    """Validate a row-stochastic matrix: every row a distribution."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    rows = arr.sum(axis=1)
    bad = ~(np.abs(rows - 1.0) <= atol)  # a NaN row sum is bad too
    if bad.any() or arr.min(initial=0.0) < -atol:
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite entries")
        if (arr < -atol).any():
            raise ValueError(f"{name} has negative entries (min {arr.min():.3e})")
        i = int(bad.argmax())
        raise ValueError(f"{name} row {i} sums to {rows[i]:.12f}, expected 1")
    return np.maximum(arr, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the row maximum."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, shifted by the row maximum.

    A row whose maximum is not finite is shifted by 0 instead, as
    ``scipy.special.log_softmax`` does; the arithmetic is the same, so the
    results agree bit for bit.
    """
    top = logits.max(axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    shifted = logits - top
    with np.errstate(divide="ignore"):
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def xlogx(x: np.ndarray) -> np.ndarray:
    """Elementwise x*log(x) with the 0*log(0)=0 convention."""
    x = np.asarray(x, dtype=np.float64)
    pos = x > 0.0
    out = np.zeros(x.shape)
    np.log(x, out=out, where=pos)
    return np.multiply(x, out, out=out, where=pos)


def entropy(p) -> float:
    """Shannon entropy in nats of a nonnegative array (any shape)."""
    return float(-xlogx(np.asarray(p, dtype=np.float64)).sum())


def cross_entropy(p, q) -> float:
    """-sum p*log(q) in nats; +inf when p puts mass where q vanishes."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    support = p > 0.0
    qs = q[support]
    if (qs <= 0.0).any():
        return float("inf")
    return float(-(p[support] * np.log(qs)).sum())


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats; +inf on support violation, 0*log(0/q)=0."""
    ce = cross_entropy(p, q)
    if ce == float("inf"):
        return ce
    return ce - entropy(p)
