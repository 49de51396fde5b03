"""Feature-label distortion: exact minimum-entropy coupling plus surrogate.

The exact value at a feature point couples the source label conditional w
with the target conditional q and minimizes the expected row entropy of the
induced kernel, which equals H(pi) - H(w) over couplings pi with marginals
(w, q).  Entropy is concave, so the minimum sits on a vertex of the
transportation polytope.  Its vertices are the feasible basic solutions
of the spanning trees of the complete bipartite support graph, and each
basic value is a cut form: the signed marginal mass on one side of a tree
edge.  A table built once per label shape holds every tree's cells and the
few distinct 0/+-1 forms they use, so one call evaluates the forms at the
marginals with a single small product and gathers every tree's solution
from it.

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
from .probs import as_distribution, entropy, fold_last, softmax, xlogx
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

# (cells, index, forms) per label shape, built on first use; see _cut_table
_CUT_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class TransportKernel:
    """Row-stochastic conditional over target labels given source labels."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2:
            raise ValueError(f"kernel must be 2-D, got shape {m.shape}")
        if (m < -1e-10).any():
            raise ValueError(f"kernel has negative entries (min {m.min():.3e})")
        # written so that a NaN row sum (a NaN entry) fails it too
        if not np.abs(m.sum(axis=1) - 1.0).max() <= 1e-10:
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

    Returns an int8 array (n_trees, n+m-1) of flat cell indices i*m+j, each
    row increasing and the rows in lexicographic order.  Every forest grows
    by each later cell that joins two of its components (node labels track
    the components) while enough cells remain to finish a tree.
    """
    nodes = n + m
    need = nodes - 1
    total = n * m
    cell = np.arange(total)
    row_node, col_node = cell // m, n + cell % m
    comp = np.arange(nodes, dtype=np.int8)[None, :]
    chosen = np.zeros((1, 0), dtype=np.int8)
    last = np.array([-1])
    for size in range(need):
        grow = (
            (cell > last[:, None])
            & (cell <= total - need + size)
            & (comp[:, row_node] != comp[:, col_node])
        )
        forest, last = grow.nonzero()  # row-major: lexicographic order kept
        chosen = np.concatenate([chosen[forest], last[:, None].astype(np.int8)], axis=1)
        comp = comp[forest]
        joined = np.take_along_axis(comp, col_node[last][:, None], axis=1)
        into = np.take_along_axis(comp, row_node[last][:, None], axis=1)
        comp = np.where(comp == joined, into, comp)
    return chosen


def _cut_table(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every spanning tree's basic solution as a gather from a few cut forms.

    A spanning tree of K_{n,m} is a basis of the coupling polytope with the
    last column's (redundant) constraint dropped.  Removing tree edge (i, j)
    splits the tree in two; flow conservation on the side S without the
    last column gives x_ij = w(S) - q(S) when row i lies in S and
    q(S) - w(S) when column j does.  So over d = [w; q[:-1]] each basic
    value is a 0/+-1 form fixed by (S, side), and whole shapes share a few
    of them: 204 for the 4096 trees of 4x4, 910 for the 390625 of 5x5.

    Returns ``cells`` (n_trees, n+m-1) int8 flat cells i*m+j in enumeration
    order, ``index`` (n_trees, n+m-1) int16 rows of ``forms``, and
    ``forms`` (n_forms, n+m-1) float64, so the basic solutions at d are
    ``(forms @ d)[index]``.  Built once per shape.
    """
    key = (n, m)
    if key in _CUT_TABLES:
        return _CUT_TABLES[key]
    cells = _enumerate_spanning_trees(n, m)
    b, k = cells.shape  # nodes: rows 0..n-1, columns n..n+m-1, root = last column
    row_node, col_node = cells // m, n + cells % m
    # orient every tree away from the root, one breadth-first layer at a
    # time, recording each node's ancestors-or-self as a bitmask
    anc = np.zeros((b, k + 1), dtype=np.int16)
    anc[:, k] = 1 << k
    lower = np.empty((b, k), dtype=np.int8)  # the endpoint away from the root
    for _ in range(k):  # no tree is deeper than its k edges
        row_in = np.take_along_axis(anc, row_node, axis=1) != 0
        col_in = np.take_along_axis(anc, col_node, axis=1) != 0
        t, e = np.nonzero(row_in != col_in)  # edges leaving the reached part
        if t.size == 0:
            break
        down = np.where(row_in[t, e], col_node[t, e], row_node[t, e])
        up = np.where(row_in[t, e], row_node[t, e], col_node[t, e])
        lower[t, e] = down
        anc[t, down] = anc[t, up] | (1 << down.astype(np.int16))
    # S of edge e = the nodes with lower[e] among their ancestors; the key
    # is S as a bitmask plus a sign bit for a column-side cut
    keys = (lower >= n).astype(np.int16) << k
    for v in range(k):
        keys |= ((anc[:, v : v + 1] >> lower) & 1) << v
    present = np.zeros(1 << (k + 1), dtype=bool)
    present[keys] = True
    codes = np.flatnonzero(present)
    bits = (codes[:, None] >> np.arange(k)) & 1
    # one-term forms go last: a gemv may sum its last few rows in another
    # order than the rest, which a single term cannot feel, so every longer
    # form is summed the same way as a row of a k x k basis solve
    order = np.argsort(bits.sum(axis=1) == 1, kind="stable")
    codes, bits = codes[order], bits[order]
    slot = np.empty(present.size, dtype=np.int16)
    slot[codes] = np.arange(codes.size)
    index = slot[keys]
    sign = np.where(codes >> k, -1.0, 1.0)[:, None]
    forms = np.where(bits == 1, sign * np.where(np.arange(k) < n, 1.0, -1.0), 0.0)
    _CUT_TABLES[key] = cells, index, forms
    return _CUT_TABLES[key]


def _basic_feasible_solutions(wa: np.ndarray, qa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells and clipped values of every feasible tree basis, in tree order."""
    cells, index, forms = _cut_table(wa.size, qa.size)
    values = forms @ np.concatenate([wa, qa[:-1]])
    feasible = fold_last(np.logical_and, (values >= -1e-12)[index])[:, 0]
    return cells[feasible], np.maximum(values[index[feasible]], 0.0)


def _check_label_sizes(n: int, m: int) -> None:
    if n > MAX_LABEL_CLASSES or m > MAX_LABEL_CLASSES:
        raise CapabilityError(
            f"exact label-transport rated for at most {MAX_LABEL_CLASSES} classes "
            f"per side, got {n}x{m}"
        )


def fld_exact(w, q) -> FldExact:
    """Minimum expected kernel entropy carrying w onto q, in nats.

    Returns the optimum H(pi) - H(w) over couplings with marginals (w, q),
    attained at a transportation-polytope vertex, together with the
    row-normalized kernel of the optimal coupling.  The search is
    exhaustive over the spanning trees of the active (nonzero) classes:
    the cached cut-form table gives every tree's basic solution, the
    feasible ones (no value below -1e-12) are scored by entropy, and ties
    go to the first tree in enumeration order.  Rows of zero source mass
    carry no entropy weight; they are reported as q itself so the kernel
    still averages back to q.
    """
    w = as_distribution(w, "source conditional")
    q = as_distribution(q, "target conditional")
    _check_label_sizes(w.size, q.size)
    ri = (w > 0.0).nonzero()[0]
    ci = (q > 0.0).nonzero()[0]
    wa, qa = w[ri], q[ci]
    n, m = wa.size, qa.size

    if n == 1:
        pi_a = qa[None, :]
    elif m == 1:
        pi_a = wa[:, None]
    else:
        cells, sols = _basic_feasible_solutions(wa, qa)
        assert len(cells), "transportation polytope cannot be empty"
        t = int((-fold_last(np.add, xlogx(sols))).argmin())  # first minimum in tree order
        pi_a = np.zeros((n, m))
        pi_a.flat[cells[t]] = sols[t]

    fld = max(0.0, entropy(pi_a) - entropy(wa))
    pi = _embed(pi_a, ri, ci, (w.size, q.size))
    lam = np.empty_like(pi)
    lam[:] = q
    np.divide(pi, w[:, None], out=lam, where=w[:, None] > 0.0)
    return FldExact(fld, TransportKernel(lam), pi)


def _embed(pi_a: np.ndarray, ri: np.ndarray, ci: np.ndarray, shape) -> np.ndarray:
    """The coupling on the active rows ri and columns ci, zero elsewhere."""
    full = np.zeros(shape)
    full[ri[:, None], ci] = pi_a
    return full


def enumerate_polytope_vertices(w, q) -> list[np.ndarray]:
    """All vertices (basic feasible solutions) of the coupling polytope.

    Every returned matrix has marginals (w, q) and at most
    ``len(w) + len(q) - 1`` nonzeros; degenerate vertices reachable from
    several spanning trees (equal to 12 decimals) appear once.
    """
    w = as_distribution(w, "row marginal")
    q = as_distribution(q, "col marginal")
    _check_label_sizes(w.size, q.size)
    ri = (w > 0.0).nonzero()[0]
    ci = (q > 0.0).nonzero()[0]
    wa, qa = w[ri], q[ci]
    n, m = wa.size, qa.size
    if n == 1 or m == 1:
        return [_embed(qa[None, :] if n == 1 else wa[:, None], ri, ci, (w.size, q.size))]
    seen: dict[tuple, np.ndarray] = {}
    for tree, vals in zip(*_basic_feasible_solutions(wa, qa)):
        pi_a = np.zeros((n, m))
        pi_a.flat[tree] = vals
        key = tuple(np.round(pi_a, 12).ravel())
        if key not in seen:
            seen[key] = _embed(pi_a, ri, ci, (w.size, q.size))
    return list(seen.values())


def random_vertex_entropies(
    w, q, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Coupling entropies H(pi) of random polytope vertices.

    Vertices come from the randomized greedy fill (pick the live cell of
    highest priority, route min(remaining row, remaining col), retire one
    line); every basic feasible solution is reachable this way.  A retired
    line's cells are marked dead by writing -1 over their priorities, below
    every live cell's.  Used as a stochastic search oracle against the
    exhaustive enumeration.
    """
    w = as_distribution(w, "row marginal")
    q = as_distribution(q, "col marginal")
    n, m = w.size, q.size
    b = int(n_samples)
    # remaining masses, flat: sample s's row i is rows[n * s + i]
    rows = np.tile(w, b)
    cols = np.tile(q, b)
    ent = np.zeros(b)
    bi = np.arange(b)
    # one random priority in [0, 1) per cell fixes a random greedy order per sample
    priority = rng.random((b, n, m))
    # views of it: by_row[n * s + i] is sample s's row i, by_col[s, j] its column j
    by_row = priority.reshape(b * n, m)
    by_col = priority.transpose(0, 2, 1)
    for _ in range(n + m - 1):
        flat = priority.reshape(b, -1).argmax(axis=1)
        i, j = flat // m, flat % m
        ri, cj = n * bi + i, m * bi + j
        r, c = rows[ri], cols[cj]
        x = np.minimum(r, c)
        pos = x > 0.0
        ent[pos] -= x[pos] * np.log(x[pos])
        r, c = r - x, c - x
        rows[ri], cols[cj] = r, c
        kill_row = r <= c
        by_row[ri[kill_row]] = -1.0
        dead = np.flatnonzero(~kill_row)
        by_col[dead, j[dead]] = -1.0
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
