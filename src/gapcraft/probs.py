"""Validation helpers for probability vectors, (log-)softmax, and entropy/KL in nats.

Conventions used throughout the package: natural logarithms everywhere,
``0 * log 0 = 0``, and ``kl(p, q) = +inf`` as soon as p puts mass where q
does not.

Label axes are short (a few classes), and numpy reduces a short last axis
one row at a time.  Given enough rows, :func:`fold_last` reduces it
instead in k - 1 vector steps over the columns, with the same bits as the
reduction it replaces; the (log-)softmax and the other per-row label
reductions go through it.
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


# below this many terms numpy sums in index order from +0.0; from here on
# it switches to an 8-way pairwise sum, which a left fold does not match
_FOLD_LIMIT = 8
# A fold step is one vector call (about 1.5 us); numpy's reduction costs
# per row instead, about three times more for maximum than for add and
# logical_and.  Below this many rows per fold step the reduction is the
# faster of the two (numpy 2.4 on one core of an x86 host, 4 to 4096
# rows of 3 to 7 columns).
_FOLD_MIN_ROWS = {np.maximum: 24, np.add: 128, np.logical_and: 128}


def fold_last(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``op.reduce(a, axis=-1, keepdims=True)``, bit for bit, as a left fold.

    ``op`` is ``np.maximum``, ``np.add`` or ``np.logical_and``.  A last
    axis of k = 1 to 7 entries is folded over its columns, one vector
    operation each, when there are enough rows for that to beat numpy's
    row-at-a-time reduction; the add fold starts from +0.0 as numpy does,
    so a row of -0.0 sums to +0.0.  Anything else goes to ``op.reduce``.
    The result is always a new array.
    """
    k = a.shape[-1]
    if not 1 <= k < _FOLD_LIMIT or a.size < _FOLD_MIN_ROWS[op] * k * (k - 1):
        return op.reduce(a, axis=-1, keepdims=True)
    out = 0.0 + a[..., :1] if op is np.add else a[..., :1].copy()
    for j in range(1, k):
        op(out, a[..., j : j + 1], out=out)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the row maximum."""
    e = np.exp(logits - fold_last(np.maximum, logits))
    return e / fold_last(np.add, e)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, shifted by the row maximum.

    A row whose maximum is not finite is shifted by 0 instead, as
    ``scipy.special.log_softmax`` does; the arithmetic is the same, so the
    results agree bit for bit.
    """
    top = fold_last(np.maximum, logits)
    top[~np.isfinite(top)] = 0.0
    shifted = logits - top
    with np.errstate(divide="ignore"):
        return shifted - np.log(fold_last(np.add, np.exp(shifted)))


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
