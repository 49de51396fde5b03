"""Independent oracles shared by the test suite.

Everything here deliberately avoids the library's own computation paths:
finite differences for gradients, mpmath for high-precision entropy,
straight-line numpy re-evaluations for forward passes, and HiGHS for the
transportation LP.
"""

from __future__ import annotations

import mpmath
import numpy as np
from scipy.optimize import linprog


def finite_difference(f, x0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        hi = x0.copy()
        lo = x0.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2.0 * step)
    return g


def relative_gradient_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Max per-coordinate relative error, guarded against tiny denominators."""
    analytic = np.asarray(analytic).ravel()
    fd = np.asarray(fd).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float(np.max(np.abs(analytic - fd) / denom))


def entropy_mp(p, dps: int = 50) -> float:
    """Shannon entropy in nats at 50 decimal digits."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for x in np.asarray(p, dtype=np.float64).ravel():
            if x > 0:
                mx = mpmath.mpf(x)
                total -= mx * mpmath.log(mx)
        return float(total)


def kl_mp(p, q, dps: int = 50) -> float:
    """KL divergence in nats at 50 decimal digits."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for a, b in zip(np.ravel(p), np.ravel(q)):
            if a > 0:
                total += mpmath.mpf(a) * mpmath.log(mpmath.mpf(a) / mpmath.mpf(b))
        return float(total)


def straightline_mlp(layers, x: np.ndarray) -> np.ndarray:
    """Plain re-evaluation of an MLP from (w, b, act) triples, no tape."""
    h = np.asarray(x, dtype=np.float64)
    for w, b, act in layers:
        h = h @ w + b
        if act == "tanh":
            h = np.tanh(h)
        elif act == "relu":
            h = np.maximum(h, 0.0)
    return h


def softmax_mp(logits, dps: int = 50) -> np.ndarray:
    """Row softmax at high precision, returned as float64."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    out = np.zeros_like(logits)
    with mpmath.workdps(dps):
        for i, row in enumerate(logits):
            exps = [mpmath.e ** mpmath.mpf(v) for v in row]
            s = mpmath.fsum(exps)
            out[i] = [float(e / s) for e in exps]
    return out


def random_lipschitz_function(
    points: np.ndarray, rng: np.random.Generator, constant: float = 1.0
) -> np.ndarray:
    """Values of a random ``constant``-Lipschitz function on a finite support.

    McShane construction: f(x) = min_j (r_j + c * ||x - x_j||) is c-Lipschitz
    for any anchor values r.
    """
    r = rng.normal(size=points.shape[0])
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    return np.min(r[None, :] + constant * d, axis=1)


def highs_w1(cost, mu, nu) -> tuple[np.ndarray, float, np.ndarray]:
    """Exact transportation LP solved by HiGHS: (plan, optimal cost, g).

    One equality per row and per column but the last, which the others
    imply; variables are the flattened plan, bounded below by zero.  ``g``
    holds the optimal column potentials (the last column's is 0).
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    a_eq = np.zeros((n + m - 1, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m - 1):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([mu, nu[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transportation LP failed: {res.message}")
    pi = np.clip(res.x.reshape(n, m), 0.0, None)
    g = np.append(res.eqlin.marginals[n:], 0.0)
    return pi, float((pi * cost).sum()), g
