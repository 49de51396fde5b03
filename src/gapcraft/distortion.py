"""Feature-label distortion: exact minimum-entropy coupling plus surrogate.

The exact value at a feature point couples the source label conditional w
with the target conditional q and minimizes the expected row entropy of the
induced kernel, which equals H(pi) - H(w) over couplings pi with marginals
(w, q).  Entropy is concave, so the minimum sits on a vertex of the
transportation polytope; vertices are enumerated through spanning trees of
the complete bipartite support graph, with each tree's basic solution
precomputed as a linear map of the marginals so whole shapes evaluate in
one tensor contraction.

The differentiable surrogate replaces the oracle with pseudo-label joint
statistics: H[Z',Z] - H[Z] under soft counts, the expectation of the
hard sampled counts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numgrad as ng
from . import models
from .models import MlpParams
from .probs import as_distribution, entropy, softmax
from .transport import CapabilityError

__all__ = [
    "MAX_LABEL_CLASSES",
    "TransportKernel",
    "JointLabelStats",
    "FldExact",
    "fld_exact",
    "enumerate_polytope_vertices",
    "random_vertex_entropies",
    "pseudo_label_stats",
    "fld_surrogate",
    "fld_loss_and_grad",
    "stats_to_csv",
]

MAX_LABEL_CLASSES = 5

# Full (edges, basis-map) tensors get cached per shape up to this many trees;
# a 5x5 label space (390625 trees) is recomputed in chunks instead.
_CACHE_TREE_LIMIT = 50_000
_TREE_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray | None]] = {}


@dataclass(frozen=True)
class TransportKernel:
    """Row-stochastic conditional over target labels given source labels."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2:
            raise ValueError(f"kernel must be 2-D, got shape {m.shape}")
        if np.any(m < -1e-10):
            raise ValueError(f"kernel has negative entries (min {m.min():.3e})")
        rows = m.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-10:
            raise ValueError("kernel rows must sum to 1 within 1e-10")

    @property
    def z_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def zprime_classes(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class JointLabelStats:
    """Empirical joint over (pseudo source label, target label)."""

    joint: np.ndarray
    kappa: int

    def __post_init__(self):
        if self.joint.ndim != 2:
            raise ValueError("joint must be 2-D")
        if np.any(self.joint < -1e-12):
            raise ValueError("joint has negative entries")
        if abs(float(self.joint.sum()) - 1.0) > 1e-10:
            raise ValueError(f"joint mass {self.joint.sum():.12f}, expected 1")
        if self.kappa < 1:
            raise ValueError("kappa must be positive")


@dataclass(frozen=True)
class FldExact:
    fld: float
    plan: TransportKernel
    coupling: np.ndarray


def _enumerate_spanning_trees(n: int, m: int) -> np.ndarray:
    """All spanning trees of the complete bipartite graph K_{n,m}.

    Returns an int array (n_trees, n+m-1) of flat cell indices i*m+j.
    Backtracking over cells in index order with a union-find (no path
    compression, so choices undo cleanly).
    """
    nodes = n + m
    need = nodes - 1
    total = n * m
    parent = list(range(nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(start: int) -> None:
        if len(chosen) == need:
            out.append(tuple(chosen))
            return
        if total - start < need - len(chosen):
            return
        for e in range(start, total):
            ri = find(e // m)
            rj = find(n + e % m)
            if ri == rj:
                continue
            parent[ri] = rj
            chosen.append(e)
            rec(e + 1)
            chosen.pop()
            parent[ri] = ri

    rec(0)
    return np.array(out, dtype=np.int64)


def _tree_basis_maps(trees: np.ndarray, n: int, m: int) -> np.ndarray:
    """Linear maps with basic values = T @ [w; q[:-1]] for a batch of trees.

    Each tree's basic matrix is its bipartite incidence with the redundant
    last-column constraint dropped; that square 0/1 matrix is nonsingular
    for any spanning tree, so one batched inverse yields every map.
    """
    b, k = trees.shape
    rows = trees // m
    cols = trees % m
    a = np.zeros((b, k, k))
    bb = np.broadcast_to(np.arange(b)[:, None], (b, k))
    pos = np.broadcast_to(np.arange(k)[None, :], (b, k))
    a[bb, rows, pos] = 1.0
    keep = cols < m - 1
    a[bb[keep], n + cols[keep], pos[keep]] = 1.0
    return np.linalg.inv(a)


def _tree_data(n: int, m: int):
    """Yield (trees, basis_tensor) chunks for shape (n, m), caching small shapes."""
    key = (n, m)
    if key in _TREE_CACHE:
        trees, tensor = _TREE_CACHE[key]
        if tensor is not None:
            yield trees, tensor
            return
    else:
        trees = _enumerate_spanning_trees(n, m)
        if len(trees) <= _CACHE_TREE_LIMIT:
            tensor = _tree_basis_maps(trees, n, m)
            _TREE_CACHE[key] = (trees, tensor)
            yield trees, tensor
            return
        _TREE_CACHE[key] = (trees, None)
    chunk = 65_536
    for at in range(0, len(trees), chunk):
        block = trees[at : at + chunk]
        yield block, _tree_basis_maps(block, n, m)


def _check_label_sizes(n: int, m: int) -> None:
    if n > MAX_LABEL_CLASSES or m > MAX_LABEL_CLASSES:
        raise CapabilityError(
            f"exact label-transport rated for at most {MAX_LABEL_CLASSES} classes "
            f"per side, got {n}x{m}"
        )


def _vertex_entropies(values: np.ndarray) -> np.ndarray:
    pos = values > 0.0
    logs = np.zeros_like(values)
    np.log(values, out=logs, where=pos)
    return -(values * logs * pos).sum(axis=1)


def fld_exact(w, q) -> FldExact:
    """Minimum expected kernel entropy carrying w onto q, in nats.

    Returns the optimum H(pi) - H(w) over couplings with marginals (w, q),
    attained at a transportation-polytope vertex, together with the
    row-normalized kernel of the optimal coupling.  Rows of zero source
    mass carry no entropy weight; they are reported as q itself so the
    kernel still averages back to q.
    """
    w = as_distribution(w, "source conditional")
    q = as_distribution(q, "target conditional")
    _check_label_sizes(w.size, q.size)
    ri = np.flatnonzero(w > 0.0)
    ci = np.flatnonzero(q > 0.0)
    wa, qa = w[ri], q[ci]
    n, m = wa.size, qa.size

    if n == 1:
        pi_a = qa[None, :]
    elif m == 1:
        pi_a = wa[:, None]
    else:
        d = np.concatenate([wa, qa[:-1]])
        best = np.inf
        best_vals: np.ndarray | None = None
        best_tree: np.ndarray | None = None
        for trees, tensor in _tree_data(n, m):
            sols = tensor @ d
            feasible = np.all(sols >= -1e-12, axis=1)
            if not np.any(feasible):
                continue
            ent = _vertex_entropies(np.clip(sols, 0.0, None))
            ent[~feasible] = np.inf
            i = int(np.argmin(ent))
            if ent[i] < best:
                best = float(ent[i])
                best_vals = np.clip(sols[i], 0.0, None)
                best_tree = trees[i]
        assert best_vals is not None, "transportation polytope cannot be empty"
        pi_a = np.zeros((n, m))
        pi_a[best_tree // m, best_tree % m] = best_vals

    fld = max(0.0, entropy(pi_a) - entropy(wa))
    pi = np.zeros((w.size, q.size))
    pi[np.ix_(ri, ci)] = pi_a
    lam = np.tile(q, (w.size, 1))
    lam[ri] = pi[ri] / w[ri, None]
    return FldExact(fld, TransportKernel(lam), pi)


def enumerate_polytope_vertices(w, q) -> list[np.ndarray]:
    """All vertices (basic feasible solutions) of the coupling polytope.

    Every returned matrix has marginals (w, q) and at most
    ``len(w) + len(q) - 1`` nonzeros; degenerate vertices reachable from
    several spanning trees (equal to 12 decimals) appear once.
    """
    w = as_distribution(w, "row marginal")
    q = as_distribution(q, "col marginal")
    _check_label_sizes(w.size, q.size)
    ri = np.flatnonzero(w > 0.0)
    ci = np.flatnonzero(q > 0.0)
    wa, qa = w[ri], q[ci]
    n, m = wa.size, qa.size
    d = np.concatenate([wa, qa[:-1]])
    seen: dict[tuple, np.ndarray] = {}
    if n == 1 or m == 1:
        inner = qa[None, :] if n == 1 else wa[:, None]
        full = np.zeros((w.size, q.size))
        full[np.ix_(ri, ci)] = inner
        return [full]
    for trees, tensor in _tree_data(n, m):
        sols = tensor @ d
        feasible = np.all(sols >= -1e-12, axis=1)
        for t_idx in np.flatnonzero(feasible):
            vals = np.clip(sols[t_idx], 0.0, None)
            pi_a = np.zeros((n, m))
            tree = trees[t_idx]
            pi_a[tree // m, tree % m] = vals
            key = tuple(np.round(pi_a, 12).ravel())
            if key not in seen:
                full = np.zeros((w.size, q.size))
                full[np.ix_(ri, ci)] = pi_a
                seen[key] = full
    return list(seen.values())


def random_vertex_entropies(
    w, q, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Coupling entropies H(pi) of random polytope vertices.

    Vertices come from the randomized greedy fill (pick a live cell, route
    min(remaining row, remaining col), retire one line); every basic
    feasible solution is reachable this way.  Used as a stochastic search
    oracle against the exhaustive enumeration.
    """
    w = as_distribution(w, "row marginal")
    q = as_distribution(q, "col marginal")
    n, m = w.size, q.size
    b = int(n_samples)
    rows = np.tile(w, (b, 1))
    cols = np.tile(q, (b, 1))
    alive_r = np.ones((b, n), dtype=bool)
    alive_c = np.ones((b, m), dtype=bool)
    ent = np.zeros(b)
    bi = np.arange(b)
    # one random priority per cell fixes a random greedy order per sample
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


def pseudo_label_stats(
    phi: MlpParams,
    source_head: MlpParams,
    target_x,
    target_labels,
    n_target_classes: int,
    mode: str = "soft",
    seed: int = 0,
) -> JointLabelStats:
    """Joint (pseudo source label, target label) statistics on a target set.

    hard: one source label sampled per point from the head's distribution
    at the embedded feature, counted into C(z, z')/kappa.  soft: each
    point contributes its full predictive row, which is exactly the
    expectation of the hard counts over the sampling.
    """
    x = ng.as_matrix(target_x, "target batch")
    labels = np.asarray(target_labels, dtype=np.int64).ravel()
    if x.shape[0] == 0:
        raise ValueError("pseudo_label_stats: empty target dataset")
    if labels.shape[0] != x.shape[0]:
        raise ValueError("pseudo_label_stats: features and labels disagree in length")
    if labels.min() < 0 or labels.max() >= n_target_classes:
        raise ValueError(
            f"target labels must lie in [0, {n_target_classes}), "
            f"got range [{labels.min()}, {labels.max()}]"
        )
    if mode not in ("hard", "soft"):
        raise ValueError(f"mode must be 'hard' or 'soft', got {mode!r}")
    kappa = x.shape[0]
    p = models.predict_source(source_head, models.embed(phi, x))
    k_source = p.shape[1]
    joint = np.zeros((k_source, n_target_classes))
    if mode == "soft":
        np.add.at(joint.T, labels, p)
    else:
        rng = np.random.default_rng(seed)
        cum = np.cumsum(p, axis=1)
        draws = rng.random(kappa)
        # the last class takes whatever a rounded-down cumsum leaves above it
        z = (draws[:, None] > cum[:, :-1]).sum(axis=1)
        np.add.at(joint, (z, labels), 1.0)
    joint /= kappa
    return JointLabelStats(joint, kappa)


def fld_surrogate(stats: JointLabelStats) -> float:
    """H[Z',Z] - H[Z] in nats: the pseudo-label conditional entropy."""
    h_joint = entropy(stats.joint)
    h_rows = entropy(stats.joint.sum(axis=1))
    return max(0.0, h_joint - h_rows)


def fld_loss_and_grad(
    phi: MlpParams,
    source_head: MlpParams,
    target_x,
    target_labels,
    n_target_classes: int,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Soft-count surrogate and its gradient with respect to the embedder.

    Soft counts only: the sampled (hard) counts are piecewise constant in
    the embedder, so their gradient is zero almost everywhere.  Target
    classes absent from the batch contribute nothing to either entropy and
    are dropped.  With J = p^T onehot / n and r its row marginal, the loss
    sum r log r - sum J log J has the cotangent
    dL/dp[i, z] = (log r_z - log J[z, y_i]) / n, taken through the softmax
    and pulled back through embedder and head together; only the
    embedder's gradient is returned.
    """
    x = ng.as_matrix(target_x, "target batch")
    labels = np.asarray(target_labels, dtype=np.int64).ravel()
    if x.shape[0] == 0:
        raise ValueError("fld_loss_and_grad: empty target dataset")
    if labels.min() < 0 or labels.max() >= n_target_classes:
        raise ValueError("fld_loss_and_grad: label index out of range")
    observed, column = np.unique(labels, return_inverse=True)
    onehot = (labels[:, None] == observed[None, :]).astype(np.float64)
    n = x.shape[0]

    logits, pullback = models.mlp_vjp(MlpParams(phi.layers + source_head.layers), x)
    p = softmax(logits)
    joint = p.T @ onehot / n
    rows = joint.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_joint, log_rows = np.log(joint), np.log(rows)
        loss = float((rows * log_rows).sum() - (joint * log_joint).sum())
        g_p = (log_rows[None, :] - log_joint[:, column].T) / n
        g_logits = p * (g_p - (g_p * p).sum(axis=1, keepdims=True))
    grads = pullback(g_logits)  # raises FloatingPointError if a count is zero
    return loss, grads[: len(phi.layers)]


def stats_to_csv(stats: JointLabelStats, path) -> None:
    """Joint matrix as CSV, source classes as rows."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"zprime_{j}" for j in range(stats.joint.shape[1])])
        for row in stats.joint:
            writer.writerow([repr(float(v)) for v in row])
