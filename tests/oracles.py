"""Independent oracles shared by the test suite.

Everything here deliberately avoids the library's own computation paths:
finite differences for gradients, mpmath for high-precision entropy,
straight-line numpy re-evaluations for forward passes, HiGHS for the
transportation LP, and integer leaf-peeling for spanning-tree bases.
Reference code that checks the library and that the library itself never
calls lives here too: the flat parameter vector finite differences
perturb (``params_vector``, ``params_with_vector``, ``n_parameters``),
the head's per-row cross-entropy (``pointwise_losses``),
``cross_entropy`` and ``kl_divergence``, every vertex of a coupling
polytope (``enumerate_polytope_vertices``), the row-normalized kernel of
an FLD coupling (``fld_kernel``), the fitting term by an SLSQP solve
(``tf_convex_oracle``) and the plan that attains its minimum
(``realized_plan``), the true source label conditional of a synthetic
task (``exact_source_conditional``), the hard pseudo-label counts whose
expectation the library's soft counts are (``hard_pseudo_label_joint``),
and transport heads with a random feature block or another identity
boost than the library's initial kernel (``transport_head``).
Reference implementations that a faster library path must match bit for
bit keep the earlier arithmetic: the recalibration step with an explicit
identity Jacobian and separate softmax and log-softmax, the greedy
vertex search with its live-cell mask rebuilt at every step, the softmax
and the stage-2 likelihood step with numpy's row reductions, the
Sinkhorn loop that rebuilds its plan at every iteration, and the bound
assembled with a per-entry feasibility gather, the fitting term through
``kl_divergence`` and the proof terms' entropies one row at a time.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import log_softmax, softmax

from gapcraft import bound, distortion, models, probs, transport
from gapcraft import numgrad as ng
from gapcraft.models import Layer, MlpParams
from gapcraft.numgrad import DimensionError, freeze
from gapcraft.probs import LOG_FLOOR, as_conditional, as_distribution, entropy
from gapcraft.synthtasks import NOISE_SCALE


def params_vector(params: MlpParams) -> np.ndarray:
    return np.concatenate([np.concatenate([l.w.ravel(), l.b.ravel()]) for l in params.layers])


def n_parameters(params: MlpParams) -> int:
    return sum(l.w.size + l.b.size for l in params.layers)


def params_with_vector(params: MlpParams, vec: np.ndarray) -> MlpParams:
    needed = n_parameters(params)
    if vec.size != needed:
        raise DimensionError(f"vector has {vec.size} entries, params need {needed}")
    layers = []
    at = 0
    for l in params.layers:
        w = vec[at : at + l.w.size].reshape(l.w.shape)
        at += l.w.size
        b = vec[at : at + l.b.size].reshape(l.b.shape)
        at += l.b.size
        layers.append(Layer(freeze(w), freeze(b), l.act))
    return MlpParams(tuple(layers))


def pointwise_losses(head: MlpParams, u, conditional) -> tuple[np.ndarray, bool]:
    """Cross-entropy of the head against per-row conditionals, in nats.

    Predictions at exactly zero probability on a supported class are
    clamped at 1e-12; the returned flag reports whether that happened.
    """
    u = ng.as_matrix(u, "feature batch")
    d = as_conditional(conditional, "task conditional")
    p = models.predict_source(head, u)
    clamped = bool(np.any((p < LOG_FLOOR) & (d > 0.0)))
    logp = np.log(np.maximum(p, LOG_FLOOR))
    return -(d * logp).sum(axis=1), clamped


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


def enumerate_polytope_vertices(w, q) -> list[np.ndarray]:
    """All vertices (basic feasible solutions) of the coupling polytope.

    Every returned matrix has marginals (w, q) and at most
    ``len(w) + len(q) - 1`` nonzeros; degenerate vertices reachable from
    several spanning trees (equal to 12 decimals) appear once.
    """
    w = as_distribution(w, "row marginal")
    q = as_distribution(q, "col marginal")
    distortion._check_label_sizes(w.size, q.size)
    ri = (w > 0.0).nonzero()[0]
    ci = (q > 0.0).nonzero()[0]
    wa, qa = w[ri], q[ci]
    n, m = wa.size, qa.size
    if n == 1 or m == 1:
        pi_a = qa[None, :] if n == 1 else wa[:, None]
        return [distortion._embed(pi_a, ri, ci, (w.size, q.size))]
    seen: dict[tuple, np.ndarray] = {}
    cells, sols = distortion._basic_feasible_solutions(wa, qa)
    for tree, vals in zip(cells, sols.T):
        pi_a = np.zeros((n, m))
        pi_a.flat[tree] = vals
        key = tuple(np.round(pi_a, 12).ravel())
        if key not in seen:
            seen[key] = distortion._embed(pi_a, ri, ci, (w.size, q.size))
    return list(seen.values())


def fld_kernel(coupling: np.ndarray, q) -> np.ndarray:
    """The FLD optimum's kernel: ``distortion.fld_exact``'s coupling
    row-normalized, a conditional over target labels given source labels.

    Each kernel row is its coupling row over that row's own sum, not over
    w_i: the basic values carry rounding of the order of the whole unit
    mass, which divided by a tiny w_i would leave the row's sum off 1.
    Rows of zero coupling mass (zero source mass, or a source mass lost
    below that rounding) carry no entropy weight; they are reported as q
    itself so the kernel still averages back to q.
    """
    q = as_distribution(q, "target conditional")
    mass = coupling.sum(axis=1, keepdims=True)
    if mass.all():
        return coupling / mass
    lam = np.empty_like(coupling)
    lam[:] = q
    np.divide(coupling, mass, out=lam, where=mass > 0.0)
    return lam


def tf_convex_oracle(plus: np.ndarray, source_cond, p_target) -> float:
    """Fitting term by a generic constrained convex solve; closed-form-free.

    Minimizes sum_z w(z) KL(plus(.|z) || lam(.|z)) over nonnegative plans
    whose mixture under w equals the prediction: per prediction class this
    is an independent problem in its plan column, solved by sequential
    quadratic programming in log space (linear objective, one smooth
    equality, iterates strictly positive by construction).  Kept as the
    cross-check route against ``bound.tf_closed_form`` at small label counts.
    """
    w = as_distribution(source_cond, "source conditional")
    p = as_distribution(p_target, "target prediction")
    if plus.shape[0] != w.size or plus.shape[1] != p.size:
        raise ValueError("plan shape disagrees with conditional/prediction sizes")
    if w.size > 5 or p.size > 5:
        raise transport.CapabilityError("convex oracle rated for label spaces <= 5")
    live = w > 0.0
    wa = w[live]
    total = 0.0
    for j in range(p.size):
        a = wa * plus[live, j]  # per-entry objective weights of this column
        if float(a.sum()) <= 0.0:
            continue  # column never visited: any feasible completion is free
        if p[j] <= 0.0:
            return math.inf
        support = a > 0.0
        a_s = a[support]
        w_s = wa[support]
        total += float((a_s * np.log(plus[live, j][support])).sum())
        if a_s.size == 1:
            # the single supported entry is pinned by the mixture constraint
            total += float(-a_s[0] * np.log(p[j] / w_s[0]))
            continue

        # Solve in log space: variables t = log(plan column on the support).
        # The objective is then linear and iterates stay strictly positive.
        mass = float(p[j])
        res = minimize(
            lambda t, a_s=a_s: -float(a_s @ t),
            np.full(a_s.size, np.log(mass)),
            jac=lambda t, a_s=a_s: -a_s,
            method="SLSQP",
            constraints=[
                {
                    "type": "eq",
                    "fun": lambda t, w_s=w_s, mass=mass: w_s @ np.exp(t) - mass,
                    "jac": lambda t, w_s=w_s: (w_s * np.exp(t))[None, :],
                }
            ],
            options={"ftol": 1e-14, "maxiter": 500},
        )
        if not res.success and abs(float(res.fun)) > 1e6:
            raise transport.SolverError(f"convex oracle failed on column {j}: {res.message}")
        total += float(res.fun)
    return total


# the smallest normal float64: a ratio p / q of probabilities can overflow
# only for q below it
_MIN_NORMAL = np.finfo(np.float64).tiny


def realized_plan(lam: np.ndarray, target_cond, p_target) -> np.ndarray:
    """The plan at which ``bound.tf_closed_form``'s program attains its
    minimum: the FLD kernel ``lam`` (:func:`fld_kernel`) rescaled
    columnwise by prediction over conditional.

    Columns the conditional never visits, and columns whose ratio
    overflows (a subnormal conditional mass), are completed with the
    constant prediction column (objective-neutral).  The plan's mixture
    under the source conditional reproduces the prediction on those
    columns and on every column whose kernel mixture reproduces the
    conditional; a kernel column that carries a tiny conditional mass with
    absolute rounding misses it.  The rescaled rows are generally not
    normalized: the program constrains only nonnegativity and the mixture.
    """
    q = as_distribution(target_cond, "target conditional")
    p = as_distribution(p_target, "target prediction")
    if q.min() >= _MIN_NORMAL:  # every class live, no ratio p_j / q_j overflows
        return lam * (p / q)
    live = q > 0.0
    with np.errstate(over="ignore"):
        ratio = np.divide(p, q, out=np.full(p.shape, np.inf), where=live)
    plan = np.broadcast_to(p, lam.shape).copy()
    return np.multiply(lam, ratio, out=plan, where=ratio < np.inf)


def exact_source_conditional(meta: dict, x) -> np.ndarray:
    """True label conditional D(z|x) of the source generative process.

    Gaussian class posterior composed with the planted flip-noise matrix;
    available exactly because the task is synthetic.
    """
    x = np.asarray(x, dtype=np.float64)
    means = np.asarray(meta["class_means"], dtype=np.float64)
    k = means.shape[0]
    noise = float(meta["label_noise"])
    d2 = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    post = probs.softmax(-d2 / (2.0 * NOISE_SCALE**2))
    flip = np.full((k, k), noise / (k - 1))
    np.fill_diagonal(flip, 1.0 - noise)
    return post @ flip


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


def hard_pseudo_label_joint(p, labels, n_target_classes: int, seed: int) -> np.ndarray:
    """Hard pseudo-label counts C(z, z')/kappa: one source label sampled per
    row of the predictive rows ``p`` and counted against that row's target
    label.  Their expectation over the sampling is the soft joint of
    ``distortion.pseudo_label_stats``."""
    p = np.asarray(p, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    draws = np.random.default_rng(seed).random(p.shape[0])
    # the last class takes whatever a rounded-down cumsum leaves above it
    z = (draws[:, None] > np.cumsum(p, axis=1)[:, :-1]).sum(axis=1)
    joint = np.zeros((p.shape[1], n_target_classes))
    np.add.at(joint, (z, labels), 1.0)
    return joint / p.shape[0]


def transport_head(
    feature_dim: int,
    n_source_classes: int,
    n_target_classes: int,
    rng: np.random.Generator | None = None,
    feature_scale: float = 0.0,
    identity_boost: float = models.IDENTITY_BOOST,
) -> models.TransportHeadParams:
    """``models.init_transport_head`` with a feature block of normal draws
    of scale ``feature_scale`` from ``rng`` and the diagonal boost
    ``identity_boost`` on matching class counts."""
    w = np.zeros((feature_dim + n_source_classes, n_target_classes))
    if feature_scale > 0.0:
        w[:feature_dim] = rng.normal(0.0, feature_scale, size=(feature_dim, n_target_classes))
    if n_source_classes == n_target_classes:
        w[feature_dim:] = identity_boost * np.eye(n_source_classes)
    layer = Layer(freeze(w), freeze(np.zeros((1, n_target_classes))), "linear")
    return models.TransportHeadParams(
        MlpParams((layer,)), n_source_classes, n_target_classes
    )


def reduce_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis by numpy's max and sum reductions."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def stage2_loss_and_grad(w, b, feature_dim: int, u, p_source, labels, onehot):
    """Stage-2 negative log-likelihood and its (w, b) gradient for a linear
    kernel with weight ``w`` on [u, one-hot z] and bias ``b``, the composed
    prediction summed over the middle axis."""
    n = u.shape[0]
    rows = np.arange(n)
    w_u, w_z = w[:feature_dim], w[feature_dim:]
    lam = reduce_softmax((u[:, :feature_dim] @ w_u)[:, None, :] + w_z[None] + b[None])
    p_tau = (p_source[:, :, None] * lam).sum(axis=1)[rows, labels]
    loss = float(-np.log(p_tau).mean())
    post = p_source * lam[rows, :, labels] / p_tau[:, None]
    g = post[:, :, None] * (lam - onehot[:, None, :]) / n
    gw = np.vstack([u[:, :feature_dim].T @ g.sum(axis=1), g.sum(axis=0)])
    return loss, gw, g.sum(axis=(0, 1))[None, :]


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def sinkhorn_rebuilding_plan(cost, mu, nu, eps: float, max_iter: int, tol: float) -> dict:
    """Log-domain Sinkhorn that rebuilds the plan at every iteration and
    stops at the first whose marginal violation is at most ``tol``.

    Returns the plan, transport cost, convergence flag, iteration count,
    violation and the potentials (-inf at zero-mass atoms) by name.
    """
    n, m = cost.shape
    ri = np.flatnonzero(mu > 0.0)
    ci = np.flatnonzero(nu > 0.0)
    c = cost[np.ix_(ri, ci)]
    lmu = np.log(mu[ri])
    lnu = np.log(nu[ci])
    f = np.zeros(ri.size)
    g = np.zeros(ci.size)
    violation = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        f = eps * (lmu - _logsumexp((g[None, :] - c) / eps, axis=1))
        g = eps * (lnu - _logsumexp((f[:, None] - c) / eps, axis=0))
        plan = np.exp((f[:, None] + g[None, :] - c) / eps)
        violation = max(
            float(np.max(np.abs(plan.sum(axis=1) - mu[ri]))),
            float(np.max(np.abs(plan.sum(axis=0) - nu[ci]))),
        )
        if violation <= tol:
            break
    full = np.zeros((n, m))
    full[np.ix_(ri, ci)] = plan
    ff = np.full(n, -np.inf)
    gg = np.full(m, -np.inf)
    ff[ri] = f
    gg[ci] = g
    return {
        "plan": full,
        "w1_estimate": float((full * cost).sum()),
        "converged": violation <= tol,
        "n_iter": it,
        "violation": violation,
        "potential_f": ff,
        "potential_g": gg,
    }


def _xlogx(x: np.ndarray) -> np.ndarray:
    pos = x > 0.0
    return np.where(pos, x * np.log(np.where(pos, x, 1.0)), 0.0)


def conditional_pairs(n, m, count, rng):
    """``count`` (w, q) pairs of n and m classes, in turn: Dirichlet draws;
    draws with exact zeros on each side of more than one class, so the
    active shape shrinks; and multiples of 1/20 (zeros allowed), whose
    degenerate vertices tie exactly across many trees."""
    for c in range(count):
        alpha = float(rng.choice([0.4, 1.0, 3.0]))
        w, q = rng.dirichlet(np.full(n, alpha)), rng.dirichlet(np.full(m, alpha))
        if c % 3 == 1:
            for side in (w, q):
                if side.size > 1:
                    side[rng.choice(side.size, rng.integers(1, side.size), replace=False)] = 0.0
                    side /= side.sum()
        elif c % 3 == 2:
            w = (rng.multinomial(20 - n, w) + 1) / 20
            q = rng.multinomial(20, q) / 20
        yield w, q


def gathered_fld(w, q) -> tuple[float, np.ndarray]:
    """(fld, coupling) of ``fld_exact`` with the library's cut-form table
    turned to one index row per tree.

    A flag per tree entry is gathered and folded along the row into one
    feasibility flag per tree, the feasible trees' values are gathered
    again, and each row of their entropy terms is summed on its own; ties
    go to the first tree.
    """
    w = np.maximum(np.asarray(w, dtype=np.float64), 0.0)
    q = np.maximum(np.asarray(q, dtype=np.float64), 0.0)
    ri, ci = np.flatnonzero(w > 0.0), np.flatnonzero(q > 0.0)
    wa, qa = w[ri], q[ci]
    if wa.size == 1:
        pi_a = qa[None, :]
    elif qa.size == 1:
        pi_a = wa[:, None]
    else:
        cells, index_t, forms = distortion._cut_table(wa.size, qa.size)
        index = index_t.T
        values = forms @ np.concatenate([wa, qa[:-1]])
        feasible = np.logical_and.reduce((values >= -1e-12)[index], axis=1)
        sols = np.maximum(values[index[feasible]], 0.0)
        t = int((-np.add.reduce(_xlogx(sols), axis=1)).argmin())
        pi_a = np.zeros((wa.size, qa.size))
        pi_a.flat[cells[feasible][t]] = sols[t]
    fld = max(0.0, entropy(pi_a) - entropy(wa))
    pi = np.zeros((w.size, q.size))
    pi[ri[:, None], ci] = pi_a
    return fld, pi


def kl_route_tf(lam: np.ndarray, q, p) -> tuple[float, np.ndarray]:
    """(tf, realized plan) of the fitting term with the KL taken by
    ``kl_divergence`` and the plan rescaled by a masked ratio."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    live = q > 0.0
    ratio = np.divide(p, q, out=np.zeros(p.shape), where=live)
    return kl_divergence(q, p), np.where(live, lam * ratio, p)


def reference_bound(inst) -> tuple[float, ...]:
    """(err_s, err_tau, fa, e_fld, e_tf, rhs, gap, relative_gap) with a
    separate distance matrix for the Lipschitz constant and for W1, the
    zero-mass atoms of W1 gathered out, the distortion by
    :func:`gathered_fld` and the fitting term by ``kl_divergence``."""
    err_s, err_tau = bound.generalized_errors(inst)
    fa = 0.0
    if inst.n_points > 1:
        losses = bound.source_loss_values(inst)
        dist = transport.cost_matrix(inst.points, inst.points)
        np.fill_diagonal(dist, np.inf)
        tau = float((np.abs(losses[:, None] - losses[None, :]) / dist).max())
        if tau != 0.0:
            cost = transport.cost_matrix(inst.points, inst.points)
            mu, nu = inst.target_marginal, inst.source_marginal
            ri, ci = np.flatnonzero(mu > 0.0), np.flatnonzero(nu > 0.0)
            plan = np.zeros(cost.shape)
            plan[np.ix_(ri, ci)] = transport._transport_simplex(
                cost[np.ix_(ri, ci)], mu[ri], nu[ci]
            )
            fa = tau * float((plan * cost).sum())
    e_fld = e_tf = 0.0
    for i in range(inst.n_points):
        weight = float(inst.target_marginal[i])
        if weight == 0.0:
            continue
        q = inst.target_cond[i]
        e_fld += weight * gathered_fld(inst.source_cond[i], q)[0]
        e_tf += weight * kl_divergence(q, inst.p_target[i])
    rhs = err_s + fa + e_fld + e_tf
    gap = rhs - err_tau
    return err_s, err_tau, fa, e_fld, e_tf, rhs, gap, gap / rhs if rhs > 0.0 else 0.0


def entropy_loop_proof_terms(inst) -> tuple[float, float, float, float]:
    """(term_a_lhs, term_a_rhs, term_b_lhs, term_b_rhs) with the source
    conditional's entropies taken one row at a time."""
    err_s, err_tau = bound.generalized_errors(inst)
    report = bound.evaluate_bound(inst)
    h = float(inst.target_marginal @ np.array([entropy(row) for row in inst.source_cond]))
    return err_tau - h, report.e_fld + report.e_tf, h - err_s, report.fa
