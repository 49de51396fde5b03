"""Independent oracles shared by the test suite.

Everything here deliberately avoids the library's own computation paths:
finite differences for gradients, mpmath for high-precision entropy,
straight-line numpy re-evaluations for forward passes, HiGHS for the
transportation LP, and integer leaf-peeling for spanning-tree bases.
Reference implementations that a faster library path must match bit for
bit keep the earlier arithmetic: the recalibration step with an explicit
identity Jacobian and separate softmax and log-softmax, and the greedy
vertex search with its live-cell mask rebuilt at every step.
"""

from __future__ import annotations

import mpmath
import numpy as np
from scipy.optimize import linprog
from scipy.special import log_softmax, softmax


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


def leaf_peel(cells, w, q) -> np.ndarray:
    """Basic solution of one spanning tree by peeling leaves, in integers.

    ``cells`` are the tree's flat cells i*m+j and ``w``, ``q`` integer
    marginals with equal totals.  A leaf line's only cell must carry all
    that is left of the line, so repeatedly fixing a leaf cell and
    deducting it from the other end solves the tree with no arithmetic but
    exact integer subtraction.  Values may come out negative (an
    infeasible basis); cells off the tree stay 0.
    """
    n, m = len(w), len(q)
    rest = [int(v) for v in w] + [int(v) for v in q]
    edges = {(c // m, n + c % m) for c in (int(c) for c in cells)}
    plan = np.zeros((n, m), dtype=np.int64)
    while edges:
        degree = [0] * (n + m)
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        a, b = next((a, b) for a, b in sorted(edges) if degree[a] == 1 or degree[b] == 1)
        leaf, other = (a, b) if degree[a] == 1 else (b, a)
        plan[a, b - n] = rest[leaf]
        rest[other] -= rest[leaf]
        rest[leaf] = 0
        edges.remove((a, b))
    return plan


def recalibration_lower_stack(layers, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Activations and Jacobians d h / d u below the last of (w, b, act)
    layers; the Jacobian starts from an explicit identity, even for a
    one-layer head."""
    n, d_in = u.shape
    h = u
    jac = np.broadcast_to(np.eye(d_in), (n, d_in, d_in)).copy()
    for w, b, act in layers[:-1]:
        pre = h @ w + b
        if act == "tanh":
            h = np.tanh(pre)
            dact = 1.0 - h * h
        elif act == "relu":
            h = np.maximum(pre, 0.0)
            dact = (pre > 0.0).astype(np.float64)
        else:
            h = pre
            dact = np.ones_like(pre)
        jac = dact[:, :, None] * np.einsum("io,niu->nou", w, jac)
    return h, jac


def recalibration_loss_and_grad(
    w, b, h, jac, d, omega: float, penalty_weight: float, margin: float
) -> tuple[float, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """penalty_weight * hinge-squared penalty + proxy cross-entropy in the
    last layer (w, b): (objective, per-row feature-gradient norms, (gw, gb)),
    through the Jacobian product and separate softmax and log-softmax."""
    n = h.shape[0]
    threshold = omega * margin
    logits = h @ w + b
    p = softmax(logits, axis=-1)
    r = p - d
    g_u = np.einsum("nh,nhu->nu", r @ w.T, jac)
    norms = np.linalg.norm(g_u, axis=1)
    hinge = np.maximum(norms - threshold, 0.0)
    objective = penalty_weight * float(np.mean(hinge**2)) - float(
        (d * log_softmax(logits, axis=-1)).sum() / n
    )
    coef = (2.0 * penalty_weight / n) * hinge / np.maximum(norms, threshold)
    g_h = np.einsum("nhu,nu->nh", jac, coef[:, None] * g_u)
    g_r = g_h @ w
    g_logits = p * (g_r - (g_r * p).sum(axis=1, keepdims=True)) + r / n
    gw = h.T @ g_logits + g_h.T @ r
    gb = g_logits.sum(axis=0, keepdims=True)
    return objective, norms, (gw, gb)


def masked_vertex_entropies(w, q, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Coupling entropies of random greedy-fill vertices, rebuilding the
    live-cell mask from per-line alive flags at every step."""
    w = np.asarray(w, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n, m = w.size, q.size
    b = int(n_samples)
    rows = np.tile(w, (b, 1))
    cols = np.tile(q, (b, 1))
    alive_r = np.ones((b, n), dtype=bool)
    alive_c = np.ones((b, m), dtype=bool)
    ent = np.zeros(b)
    bi = np.arange(b)
    priority = rng.random((b, n, m))
    for _ in range(n + m - 1):
        live = alive_r[:, :, None] & alive_c[:, None, :]
        scores = np.where(live, priority, -1.0)
        flat = scores.reshape(b, -1).argmax(axis=1)
        i, j = flat // m, flat % m
        x = np.minimum(rows[bi, i], cols[bi, j])
        pos = x > 0.0
        ent[pos] -= x[pos] * np.log(x[pos])
        rows[bi, i] -= x
        cols[bi, j] -= x
        kill_row = rows[bi, i] <= cols[bi, j]
        alive_r[bi[kill_row], i[kill_row]] = False
        alive_c[bi[~kill_row], j[~kill_row]] = False
    return ent
