"""Wasserstein-1 machinery: costs, entropic Sinkhorn, exact LP, alignment loss.

The entropic solver runs entirely in log-domain (max-subtracted
log-sum-exp), which keeps regularization weights as small as a few 1e-3
from underflowing.  The exact solver is a transportation LP handed to
HiGHS; it doubles as the oracle for every Sinkhorn test and for the bound
calculus.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from . import numgrad as ng
from . import models
from .models import MlpParams
from .probs import as_distribution

__all__ = [
    "CapabilityError",
    "Coupling",
    "SinkhornConfig",
    "SinkhornResult",
    "cost_matrix",
    "sinkhorn",
    "exact_w1",
    "dual_lower_bound",
    "fa_loss_and_grad",
    "coupling_to_csv",
]

EXACT_MAX_SIDE = 64


class CapabilityError(ValueError):
    """Instance exceeds the size this exact solver is rated for."""


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float = 0.1
    max_iter: int = 1000
    tol: float = 1e-7

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class Coupling:
    """Nonnegative plan with prescribed row/column marginals."""

    pi: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def validate(self, atol: float = 1e-8) -> "Coupling":
        if np.any(self.pi < -atol):
            raise ValueError(f"coupling has negative mass (min {self.pi.min():.3e})")
        row_err = float(np.max(np.abs(self.pi.sum(axis=1) - self.row_marginal)))
        col_err = float(np.max(np.abs(self.pi.sum(axis=0) - self.col_marginal)))
        if row_err > atol or col_err > atol:
            raise ValueError(
                f"coupling marginals violated: row {row_err:.3e}, col {col_err:.3e}"
            )
        return self

    def marginal_violation(self) -> float:
        row_err = float(np.max(np.abs(self.pi.sum(axis=1) - self.row_marginal)))
        col_err = float(np.max(np.abs(self.pi.sum(axis=0) - self.col_marginal)))
        return max(row_err, col_err)


@dataclass(frozen=True)
class SinkhornResult:
    coupling: Coupling
    w1_estimate: float
    converged: bool
    n_iter: int
    violation: float
    potential_f: np.ndarray
    potential_g: np.ndarray


def cost_matrix(u, v) -> np.ndarray:
    """Pairwise Euclidean distances between feature rows of u and v."""
    u = ng.as_matrix(u, "target features")
    v = ng.as_matrix(v, "source features")
    if u.shape[1] != v.shape[1]:
        raise ng.DimensionError(
            f"cost_matrix: feature dims differ, {u.shape[1]} vs {v.shape[1]}"
        )
    diff = u[:, None, :] - v[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def sinkhorn(cost, mu, nu, cfg: SinkhornConfig = SinkhornConfig()) -> SinkhornResult:
    """Entropically regularized transport by log-domain scaling iterations.

    Returns the plan rebuilt from the dual potentials, its transport cost
    against ``cost`` (not including the entropy term), and a convergence
    flag; after max_iter the best iterate comes back with converged=False.
    """
    cost = ng.as_matrix(cost, "cost")
    mu = as_distribution(mu, "row marginal")
    nu = as_distribution(nu, "col marginal")
    n, m = cost.shape
    if mu.shape[0] != n or nu.shape[0] != m:
        raise ng.DimensionError(
            f"sinkhorn: cost is {cost.shape}, marginals have {mu.shape[0]}/{nu.shape[0]} atoms"
        )
    eps = cfg.epsilon
    # Zero-mass atoms would put -inf in the potentials; drop and reinsert.
    ri = np.flatnonzero(mu > 0.0)
    ci = np.flatnonzero(nu > 0.0)
    c = cost[np.ix_(ri, ci)]
    lmu = np.log(mu[ri])
    lnu = np.log(nu[ci])
    f = np.zeros(ri.size)
    g = np.zeros(ci.size)
    violation = np.inf
    it = 0
    for it in range(1, cfg.max_iter + 1):
        f = eps * (lmu - _logsumexp((g[None, :] - c) / eps, axis=1))
        g = eps * (lnu - _logsumexp((f[:, None] - c) / eps, axis=0))
        plan = np.exp((f[:, None] + g[None, :] - c) / eps)
        violation = max(
            float(np.max(np.abs(plan.sum(axis=1) - mu[ri]))),
            float(np.max(np.abs(plan.sum(axis=0) - nu[ci]))),
        )
        if violation <= cfg.tol:
            break
    full = np.zeros((n, m))
    full[np.ix_(ri, ci)] = plan
    coupling = Coupling(full, mu, nu)
    w1 = float((full * cost).sum())
    ff = np.full(n, -np.inf)
    gg = np.full(m, -np.inf)
    ff[ri] = f
    gg[ci] = g
    return SinkhornResult(coupling, w1, violation <= cfg.tol, it, violation, ff, gg)


def exact_w1(cost, mu, nu) -> tuple[Coupling, float]:
    """Exact transportation LP; the optimum lands on a polytope vertex."""
    cost = ng.as_matrix(cost, "cost")
    mu = as_distribution(mu, "row marginal")
    nu = as_distribution(nu, "col marginal")
    n, m = cost.shape
    if n > EXACT_MAX_SIDE or m > EXACT_MAX_SIDE:
        raise CapabilityError(
            f"exact_w1 rated for at most {EXACT_MAX_SIDE}x{EXACT_MAX_SIDE}, got {n}x{m}"
        )
    if mu.shape[0] != n or nu.shape[0] != m:
        raise ng.DimensionError("exact_w1: marginal sizes do not match cost")
    a_eq = np.zeros((n + m - 1, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m - 1):  # last column constraint is redundant
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([mu, nu[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transportation LP failed: {res.message}")
    pi = np.clip(res.x.reshape(n, m), 0.0, None)
    coupling = Coupling(pi, mu, nu)
    return coupling, float((pi * cost).sum())


def dual_lower_bound(cost, mu, nu, g) -> float:
    """Kantorovich dual value of a feasible pair obtained by c-transform of g.

    For any g, f_i = min_j (cost_ij - g_j) makes (f, g) dual feasible, so the
    returned value never exceeds the exact optimum.
    """
    cost = ng.as_matrix(cost, "cost")
    mu = as_distribution(mu, "row marginal")
    nu = as_distribution(nu, "col marginal")
    g = np.where(np.isfinite(g), g, 0.0)
    f = (cost - g[None, :]).min(axis=1)
    return float(f @ mu + g @ nu)


def fa_loss_and_grad(
    phi: MlpParams,
    theta: MlpParams,
    target_batch,
    source_batch,
    omega: float,
    cfg: SinkhornConfig = SinkhornConfig(),
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]], SinkhornResult | None]:
    """Alignment loss omega * W1(target features, source features) and its
    gradient with respect to the target embedder.

    The coupling is treated as fixed at its converged value (envelope
    differentiation), so the gradient flows only through the target
    embeddings: dL/du_i = omega * sum_j pi_ij (u_i - v_j)/||u_i - v_j||.
    """
    target_batch = ng.as_matrix(target_batch, "target batch")
    source_batch = ng.as_matrix(source_batch, "source batch")
    if target_batch.shape[0] == 0 or source_batch.shape[0] == 0:
        raise ValueError("fa_loss_and_grad: batches must be nonempty")
    zero = [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in phi.layers]
    if omega == 0.0:
        return 0.0, zero, None

    u, pullback = models.mlp_vjp(phi, target_batch)
    v = models.embed(theta, source_batch)
    n, m = u.shape[0], v.shape[0]
    c = cost_matrix(u, v)
    result = sinkhorn(c, np.full(n, 1.0 / n), np.full(m, 1.0 / m), cfg)
    loss = omega * result.w1_estimate

    # Cotangent on the embeddings under the fixed plan; coincident pairs
    # (zero distance) contribute a zero subgradient.
    pi = result.coupling.pi
    diff = u[:, None, :] - v[None, :, :]
    safe = np.where(c > 0.0, c, 1.0)
    g_u = omega * np.einsum("ij,ijd->id", pi / safe * (c > 0.0), diff)
    return loss, pullback(g_u), result


def coupling_to_csv(coupling: Coupling, path) -> None:
    """Write (row, col, mass) triples for every nonzero cell."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "mass"])
        for i, j in zip(*np.nonzero(coupling.pi)):
            writer.writerow([int(i), int(j), repr(float(coupling.pi[i, j]))])
