"""Validation helpers for probability vectors, softmax, and entropy in nats.

Conventions used throughout the package: natural logarithms everywhere
and ``0 * log 0 = 0``.

Label axes are short (a few classes), and numpy reduces a short last axis
one row at a time.  Given enough rows, :func:`fold_last` reduces it
instead in k - 1 vector steps over the columns, with the same bits as the
reduction it replaces; the softmax and the other per-row label
reductions go through it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_distribution",
    "as_conditional",
    "entropy",
    "xlogx",
    "softmax",
    "onehot",
    "class_ids",
    "error_rate",
    "LOG_FLOOR",
]

# probabilities are clamped to this floor before a log wherever a predicted
# distribution may underflow to zero
LOG_FLOOR = 1e-12
# how far a validated mass may fall below zero, or a total miss one
_ATOL = 1e-8


def as_distribution(p, name: str = "distribution") -> np.ndarray:
    """Validate and return a 1-D probability vector as float64.

    Entries down to -1e-8 are clipped to zero; the sum must be 1 within 1e-8.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    total = float(arr.sum())
    # a finite sum rules out NaN and inf entries, so one test covers three
    # checks on valid input; the ordered checks below name the first failure
    if not (abs(total - 1.0) <= _ATOL and arr.min(initial=0.0) >= -_ATOL):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite entries")
        if (arr < -_ATOL).any():
            raise ValueError(f"{name} has negative entries (min {arr.min():.3e})")
        raise ValueError(f"{name} sums to {total:.12f}, expected 1")
    return np.maximum(arr, 0.0)


def as_conditional(m, name: str = "conditional") -> np.ndarray:
    """Validate a row-stochastic matrix: every row a distribution, within
    the tolerance of :func:`as_distribution`."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    rows = arr.sum(axis=1)
    bad = ~(np.abs(rows - 1.0) <= _ATOL)  # a NaN row sum is bad too
    if bad.any() or arr.min(initial=0.0) < -_ATOL:
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite entries")
        if (arr < -_ATOL).any():
            raise ValueError(f"{name} has negative entries (min {arr.min():.3e})")
        i = int(bad.argmax())
        raise ValueError(f"{name} row {i} sums to {rows[i]:.12f}, expected 1")
    return np.maximum(arr, 0.0)


# below this many terms numpy sums in index order from +0.0; from here on
# it switches to an 8-way pairwise sum, which a left fold does not match
_FOLD_LIMIT = 8
# The two folded ufuncs.  A fold step is one vector call (about 1.5 us);
# numpy's reduction costs per row instead, about three times more for
# maximum than for add.  Below this many rows per fold step the reduction
# is the faster of the two (numpy 2.4 on one core of an x86 host, 4 to
# 4096 rows of 3 to 7 columns).
_FOLD_MIN_ROWS = {np.maximum: 24, np.add: 128}


def fold_last(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``op.reduce(a, axis=-1, keepdims=True)``, bit for bit, as a left fold.

    Only ``np.maximum`` and ``np.add`` fold, the two reductions the
    softmax and recalibration need.  A last axis of k = 1 to 7 entries is
    folded over its columns, one vector operation each, when there are
    enough rows for that to beat numpy's row-at-a-time reduction; the add
    fold starts from +0.0 as numpy does, so a row of -0.0 sums to +0.0.
    Anything else, any other ufunc included, goes to ``op.reduce``.  The
    result is always a new array.
    """
    k = a.shape[-1]
    min_rows = _FOLD_MIN_ROWS.get(op)
    if min_rows is None or not 1 <= k < _FOLD_LIMIT or a.size < min_rows * k * (k - 1):
        return op.reduce(a, axis=-1, keepdims=True)
    out = 0.0 + a[..., :1] if op is np.add else a[..., :1].copy()
    for j in range(1, k):
        op(out, a[..., j : j + 1], out=out)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the row maximum."""
    _, e, total = _shifted_exp(logits)
    return e / total


def _shifted_exp(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(shifted, exp(shifted), its row sum) with ``shifted`` the logits less
    their row maximum: the softmax is e / total, the log-softmax
    shifted - log(total)."""
    shifted = logits - fold_last(np.maximum, logits)
    e = np.exp(shifted)
    return shifted, e, fold_last(np.add, e)


def class_ids(labels, k: int, name: str) -> np.ndarray:
    """Labels as a flat int64 array; ValueError names ``name`` when a label
    falls outside [0, k)."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"{name} must lie in [0, {k})")
    return labels


def error_rate(p: np.ndarray, labels: np.ndarray) -> float:
    """The 0-1 error of predicting each row's most probable class (ties go
    to the first, as with ``np.argmax``) against the checked ``labels``."""
    if labels.shape != (p.shape[0],):
        raise ValueError(f"error_rate: {p.shape[0]} predictions for labels of shape {labels.shape}")
    return float(np.mean(np.argmax(p, axis=1) != labels))


def onehot(labels, k: int, name: str) -> np.ndarray:
    """Rows of the k x k identity picked by :func:`class_ids` of ``labels``."""
    return np.eye(k)[class_ids(labels, k, name)]


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
