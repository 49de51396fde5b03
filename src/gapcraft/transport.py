"""Wasserstein-1 machinery: costs, entropic Sinkhorn, exact W1, alignment loss.

The entropic solver runs entirely in log-domain (max-subtracted
log-sum-exp), which keeps regularization weights as small as a few 1e-3
from underflowing.  The exact solver is the transportation (network)
simplex on a spanning-tree basis, whose dual potentials certify the
optimum it returns; it serves the bound calculus and the Sinkhorn tests.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numgrad as ng
from . import models
from .models import MlpParams
from .probs import as_distribution

__all__ = [
    "CapabilityError",
    "SolverError",
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
# pivots per squared node count after which the simplex is deemed broken;
# strongly feasible trees end long before (a defect guard, not a stopping rule)
_PIVOT_GUARD = 8


class CapabilityError(ValueError):
    """Instance exceeds the size this exact solver is rated for."""


class SolverError(RuntimeError):
    """An exact solver failed to certify its result."""


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
    flag; after max_iter the last iterate comes back with converged=False.

    Convergence is the plan's marginal violation (max over rows and
    columns) at or below ``tol``, but the plan is not rebuilt at every
    iteration to test it.  After a g update the columns hold up to
    rounding, and the row sums at (f, g) are exp(f/eps + lse), where lse
    is the log-sum-exp the next f update needs anyway.  Only once that
    row estimate is within rounding of ``tol`` is the plan rebuilt and
    the violation measured exactly; a failed exact test goes on
    iterating.  The returned plan, cost, potentials and violation all come
    from the one rebuild at the stopping iterate.
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
    mu_a, nu_a = mu[ri], nu[ci]
    lmu = np.log(mu_a)
    lnu = np.log(nu_a)
    g = np.zeros(ci.size)
    # The row estimate and the rebuilt plan's row sums round differently,
    # by a few units in the last place of the exponents (magnitudes up to
    # (|f| + |g| + |c|)/eps and |log mu|) and of sums of ci.size terms,
    # relative to row sums of at most max(mu) + tol where the exact test
    # passes.  Within that bound of tol the exact test decides.
    slack = 64.0 * np.finfo(np.float64).eps * (float(mu_a.max()) + cfg.tol)
    base = ci.size + float(np.abs(lmu).max()) + float(np.abs(c).max()) / eps
    lse = _logsumexp((g[None, :] - c) / eps, axis=1)
    for it in range(1, cfg.max_iter + 1):
        f = eps * (lmu - lse)
        g = eps * (lnu - _logsumexp((f[:, None] - c) / eps, axis=0))
        lse = _logsumexp((g[None, :] - c) / eps, axis=1)  # for the next f
        row_gap = float(np.max(np.abs(np.exp(f / eps + lse) - mu_a)))
        scale = base + (float(np.abs(f).max()) + float(np.abs(g).max())) / eps
        if row_gap <= cfg.tol + slack * scale:
            plan, violation = _plan_and_violation(f, g, c, eps, mu_a, nu_a)
            if violation <= cfg.tol:
                break
    else:  # max_iter reached: the last iterate comes back
        plan, violation = _plan_and_violation(f, g, c, eps, mu_a, nu_a)
    full = np.zeros((n, m))
    full[np.ix_(ri, ci)] = plan
    coupling = Coupling(full, mu, nu)
    w1 = float((full * cost).sum())
    ff = np.full(n, -np.inf)
    gg = np.full(m, -np.inf)
    ff[ri] = f
    gg[ci] = g
    return SinkhornResult(coupling, w1, violation <= cfg.tol, it, violation, ff, gg)


def _plan_and_violation(
    f: np.ndarray, g: np.ndarray, c: np.ndarray, eps: float, mu: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, float]:
    """The plan at potentials (f, g) and its marginal violation."""
    plan = np.exp((f[:, None] + g[None, :] - c) / eps)
    violation = max(
        float(np.max(np.abs(plan.sum(axis=1) - mu))),
        float(np.max(np.abs(plan.sum(axis=0) - nu))),
    )
    return plan, violation


def exact_w1(cost, mu, nu) -> tuple[Coupling, float]:
    """Exact W1 by the transportation simplex; the plan is a polytope vertex.

    Zero-mass atoms are dropped and reinserted as empty rows/columns.  The
    returned plan is certified optimal: the simplex stops only when the dual
    potentials of its final spanning tree leave no reduced cost below
    -1e-12 * max(1, max|cost|), and the tree's flows, peeled exactly from
    the marginals, must be nonnegative and meet them up to the marginals'
    own imbalance.  A failed certificate raises SolverError.
    """
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
    ri = np.flatnonzero(mu > 0.0)
    ci = np.flatnonzero(nu > 0.0)
    pi = np.zeros((n, m))
    pi[np.ix_(ri, ci)] = _transport_simplex(cost[np.ix_(ri, ci)], mu[ri], nu[ci])
    coupling = Coupling(pi, mu, nu)
    violation = coupling.marginal_violation()
    if violation > 1e-12 + abs(float(mu.sum() - nu.sum())) or pi.min() < 0.0:
        raise SolverError(
            f"transportation simplex plan misses its marginals by {violation:.3e}"
            f" or has negative mass (min {pi.min():.3e})"
        )
    return coupling, float((pi * cost).sum())


def _transport_simplex(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Optimal plan for positive marginals ``a`` (rows) and ``b`` (columns).

    Network simplex on the bipartite graph: nodes 0..n-1 are rows, n..n+m-1
    columns, and a basis is a spanning tree rooted at the heaviest column,
    each non-root node holding the flow on the edge to its parent.  Dual
    potentials satisfy u_i + v_j = c_ij on the tree; the most negative
    reduced cost c_ij - u_i - v_j enters.  The tree is kept strongly
    feasible (Cunningham 1976: every zero-flow edge points towards the
    root), which rules out cycling, so the loop ends when the potentials
    certify optimality.  Flows are exact integers in units of 2**-1074, so
    the zero tests that strong feasibility rests on see no rounding.
    """
    n, m = c.shape
    size = n + m
    root = n + int(b.argmax())
    tol = 1e-12 * max(1.0, float(np.abs(c).max()))
    cl = c.tolist()
    mass = [_exact(x) for x in a.tolist() + b.tolist()]
    # the root absorbs the marginals' rounding imbalance, as an LP would
    # by dropping its redundant constraint
    mass[root] += sum(mass[:n]) - sum(mass[n:])
    parent, children = _least_cost_tree(c, mass, root)
    flow = _peel(_preorder(children, root), parent, mass)
    depth = [0] * size
    pivots = 0
    while True:
        order = _preorder(children, root)
        pot = [0.0] * size
        for x in order[1:]:
            y = parent[x]
            pot[x] = (cl[x][y - n] if x < n else cl[y][x - n]) - pot[y]
            depth[x] = depth[y] + 1
        p = np.array(pot)
        r = c - p[:n, None] - p[None, n:]
        cell = int(r.argmin())
        if r.flat[cell] >= -tol:
            break
        pivots += 1
        if pivots > _PIVOT_GUARD * size * size:
            raise SolverError(f"transportation simplex made {pivots} pivots on {n}x{m}")
        k, l = divmod(cell, m)
        l += n

        # The cycle closed by edge (k, l): both tree paths up to the apex.
        up_k, up_l = [], []
        x, y = k, l
        while depth[x] > depth[y]:
            up_k.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            up_l.append(y)
            y = parent[y]
        while x != y:
            up_k.append(x)
            x = parent[x]
            up_l.append(y)
            y = parent[y]

        # Flow goes k -> l, up to the apex, then down to k: an edge loses
        # flow where its row end sends less.  Cunningham's rule: of the
        # blocking edges, leave by the last one met walking from the apex.
        theta, leave = math.inf, -1
        for x in reversed(up_k):
            if x < n and flow[x] <= theta:
                theta, leave = flow[x], x
        for y in up_l:
            if y >= n and flow[y] <= theta:
                theta, leave = flow[y], y
        for x in up_k:
            flow[x] += -theta if x < n else theta
        for y in up_l:
            flow[y] += -theta if y >= n else theta

        # Re-hang the subtree cut off by the leaving edge under the entering
        # edge, reversing the parent pointers from its endpoint to ``leave``.
        path, top = (up_k, l) if leave in up_k else (up_l, k)
        carried = theta
        for x in path[: path.index(leave) + 1]:
            children[parent[x]].remove(x)
            children[top].append(x)
            parent[x], flow[x], carried = top, carried, flow[x]
            top = x

    pi = np.zeros((n, m))
    for x in order[1:]:
        i, j = (x, parent[x]) if x < n else (parent[x], x)
        pi[i, j - n] = flow[x] / _EXACT_ONE
    return pi


# every float in [0, 1] is an integer multiple of 2**-1074
_EXACT_ONE = 1 << 1074


def _exact(x: float) -> int:
    """``x`` in units of 2**-1074, exactly."""
    p, q = x.as_integer_ratio()
    return p << (1075 - q.bit_length())


def _preorder(children: list[list[int]], root: int) -> list[int]:
    order = [root]
    for x in order:
        order.extend(children[x])
    return order


def _peel(order: list[int], parent: list[int], mass: list[int]) -> list[int]:
    """Tree flows from node masses, leaves first: the edge above each node
    carries whatever of the node's own mass its children left over."""
    mass = list(mass)
    flow = [0] * len(mass)
    for x in reversed(order[1:]):
        flow[x] = mass[x]
        mass[parent[x]] -= mass[x]
    return flow


def _least_cost_tree(
    c: np.ndarray, mass: list[int], root: int
) -> tuple[list[int], list[list[int]]]:
    """Greedy least-cost basis as a tree hung from ``root``: (parent, children).

    Cells are taken cheapest first; each closes the row or the column whose
    remaining mass runs out first.  Ties go by Orden's perturbation (every
    supply + eps, the root column's demand + n*eps), which makes the tree
    strongly feasible.
    """
    n, m = c.shape
    size = n + m
    rest: list[int | None] = list(mass)
    eps = [1] * n + [0] * m
    eps[root] = n
    adjacent: list[list[int]] = [[] for _ in range(size)]
    edges = 0
    for cell in np.argsort(c, axis=None, kind="stable").tolist():
        i, j = divmod(cell, m)
        j += n
        if rest[i] is None or rest[j] is None:
            continue
        adjacent[i].append(j)
        adjacent[j].append(i)
        edges += 1
        if edges == size - 1:
            break
        gone, kept = (i, j) if (rest[i], eps[i]) < (rest[j], eps[j]) else (j, i)
        rest[kept] -= rest[gone]
        eps[kept] -= eps[gone]
        rest[gone] = None

    parent = [-1] * size
    children: list[list[int]] = [[] for _ in range(size)]
    order = [root]
    for x in order:
        for y in adjacent[x]:
            if y != parent[x]:
                parent[y] = x
                children[x].append(y)
                order.append(y)
    return parent, children


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
