"""Exact evaluation of the target-error decomposition on discrete instances.

For a finite feature support carrying both tasks' marginals, conditionals,
and predictors, every term of the bound

    target_error <= source_error + alignment + E[distortion + fitting]

is computable exactly: the alignment term by the transportation simplex
(:func:`transport.exact_w1`, certified optimal by its dual potentials)
weighted with the support-restricted Lipschitz constant of the source
loss, the distortion term by the minimum-entropy coupling oracle, and the
fitting term by its closed form, cross-checkable against a
projected-gradient solve of the underlying constrained convex program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import transport
from .distortion import TransportKernel, fld_exact
from .probs import LOG_FLOOR, as_conditional, as_distribution, entropy, kl_divergence

__all__ = [
    "DiscreteInstance",
    "BoundReport",
    "ProofTerms",
    "TfResult",
    "InfeasibilityError",
    "generalized_errors",
    "source_loss_values",
    "lipschitz_constant",
    "fa_exact",
    "tf_closed_form",
    "tf_convex_oracle",
    "evaluate_bound",
    "verify_proof_terms",
    "reports_to_bars_csv",
]


class InfeasibilityError(ValueError):
    """A fitting-term constraint set is inconsistent with its inputs."""


@dataclass(frozen=True)
class DiscreteInstance:
    """A finite joint world: shared feature support, two tasks on top of it.

    points: (k, d) distinct feature atoms; source/target marginals are
    distributions over the atoms; source_cond/target_cond give per-atom
    label conditionals; p_source/p_target the per-atom predictions.
    """

    points: np.ndarray
    source_marginal: np.ndarray
    target_marginal: np.ndarray
    source_cond: np.ndarray
    target_cond: np.ndarray
    p_source: np.ndarray
    p_target: np.ndarray

    def __post_init__(self):
        k = self.points.shape[0]
        as_distribution(self.source_marginal, "source marginal")
        as_distribution(self.target_marginal, "target marginal")
        for name in ("source_cond", "target_cond", "p_source", "p_target"):
            arr = getattr(self, name)
            as_conditional(arr, name)
            if arr.shape[0] != k:
                raise ValueError(f"{name} has {arr.shape[0]} rows, expected {k}")
        if self.source_cond.shape[1] != self.p_source.shape[1]:
            raise ValueError("source conditional and prediction class counts differ")
        if self.target_cond.shape[1] != self.p_target.shape[1]:
            raise ValueError("target conditional and prediction class counts differ")
        if k > 1:
            dist = transport.cost_matrix(self.points, self.points)
            np.fill_diagonal(dist, np.inf)
            if dist.min() <= 1e-9:
                raise ValueError("feature points must be distinct")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class BoundReport:
    err_s: float
    err_tau: float
    fa: float
    e_fld: float
    e_tf: float
    rhs: float
    gap: float
    relative_gap: float

    def to_dict(self) -> dict:
        return {
            "err_s": self.err_s,
            "err_tau": self.err_tau,
            "fa": self.fa,
            "e_fld": self.e_fld,
            "e_tf": self.e_tf,
            "rhs": self.rhs,
            "gap": self.gap,
            "relative_gap": self.relative_gap,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class ProofTerms:
    term_a_lhs: float
    term_a_rhs: float
    term_b_lhs: float
    term_b_rhs: float


@dataclass(frozen=True)
class TfResult:
    tf: float
    realized_plan: np.ndarray


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, LOG_FLOOR))


def source_loss_values(inst: DiscreteInstance) -> np.ndarray:
    """Per-atom source prediction loss: -sum_z cond(z|u) log p(z|u)."""
    return -(inst.source_cond * _clamped_log(inst.p_source)).sum(axis=1)


def generalized_errors(inst: DiscreteInstance) -> tuple[float, float]:
    """Expected source and target prediction losses, in nats.

    Predictions at zero probability on a supported label are clamped at
    1e-12 (keeping the values finite instead of infinite).
    """
    err_s = float(inst.source_marginal @ source_loss_values(inst))
    target_losses = -(inst.target_cond * _clamped_log(inst.p_target)).sum(axis=1)
    err_tau = float(inst.target_marginal @ target_losses)
    return err_s, err_tau


def lipschitz_constant(inst: DiscreteInstance) -> float:
    """Exact Lipschitz constant of the source loss on the support.

    Max over distinct atom pairs of |l(u1) - l(u2)| / ||u1 - u2||; zero for
    single-atom supports, certifying the alignment premise exactly.
    """
    k = inst.n_points
    if k < 2:
        return 0.0
    losses = source_loss_values(inst)
    dist = transport.cost_matrix(inst.points, inst.points)
    np.fill_diagonal(dist, np.inf)
    ratios = np.abs(losses[:, None] - losses[None, :]) / dist
    return float(ratios.max())


def fa_exact(inst: DiscreteInstance) -> float:
    """Alignment term: Lipschitz constant times exact W1 between marginals."""
    tau = lipschitz_constant(inst)
    if tau == 0.0:
        return 0.0
    cost = transport.cost_matrix(inst.points, inst.points)
    _, w1 = transport.exact_w1(cost, inst.target_marginal, inst.source_marginal)
    return tau * w1


def tf_closed_form(plus_plan: TransportKernel, target_cond, p_target) -> TfResult:
    """Fitting term in closed form: KL(target conditional || prediction).

    The minimizing plan is plus_plan rescaled columnwise by prediction over
    conditional; columns the conditional never visits are completed with
    the constant prediction column (objective-neutral), so the plan's
    mixture under the source conditional reproduces the prediction exactly.
    The rescaled rows are generally not normalized: the program constrains
    only nonnegativity and the mixture.
    """
    q = as_distribution(target_cond, "target conditional")
    p = as_distribution(p_target, "target prediction")
    lam = plus_plan.matrix
    if lam.shape[1] != q.size or q.size != p.size:
        raise ValueError("plan, conditional, and prediction class counts differ")
    live = q > 0.0
    if not live.all():
        col_mass = lam[:, ~live].max(axis=0, initial=0.0)
        if (col_mass > 1e-9).any():
            j = int(np.flatnonzero(~live)[col_mass.argmax()])
            raise InfeasibilityError(
                f"plan puts mass on target class {j} which the conditional never emits"
            )
    tf = kl_divergence(q, p)
    ratio = np.divide(p, q, out=np.zeros(p.shape), where=live)
    realized = np.where(live, lam * ratio, p)
    return TfResult(tf, realized)


def tf_convex_oracle(plus_plan: TransportKernel, source_cond, p_target) -> float:
    """Fitting term by a generic constrained convex solve; closed-form-free.

    Minimizes sum_z w(z) KL(plus(.|z) || lam(.|z)) over nonnegative plans
    whose mixture under w equals the prediction: per prediction class this
    is an independent problem in its plan column, solved by sequential
    quadratic programming in log space (linear objective, one smooth
    equality, iterates strictly positive by construction).  Kept as the
    cross-check route against :func:`tf_closed_form` at small label counts.
    """
    from scipy.optimize import minimize

    w = as_distribution(source_cond, "source conditional")
    p = as_distribution(p_target, "target prediction")
    plus = plus_plan.matrix
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


def evaluate_bound(inst: DiscreteInstance) -> BoundReport:
    """Assemble every term of the decomposition and its gap.

    Per-atom distortion and fitting terms are weighted by the target
    marginal; the reported gap is rhs - target error and is nonnegative
    whenever the instance is exactly evaluable.
    """
    err_s, err_tau = generalized_errors(inst)
    fa = fa_exact(inst)
    e_fld = 0.0
    e_tf = 0.0
    for i in range(inst.n_points):
        weight = float(inst.target_marginal[i])
        if weight == 0.0:
            continue
        try:
            res = fld_exact(inst.source_cond[i], inst.target_cond[i])
            tf = tf_closed_form(res.plan, inst.target_cond[i], inst.p_target[i])
        except (ValueError, InfeasibilityError) as exc:
            raise type(exc)(f"at support point {i}: {exc}") from exc
        e_fld += weight * res.fld
        e_tf += weight * tf.tf
    rhs = err_s + fa + e_fld + e_tf
    gap = rhs - err_tau
    relative = gap / rhs if rhs > 0.0 else 0.0
    return BoundReport(err_s, err_tau, fa, e_fld, e_tf, rhs, gap, relative)


def verify_proof_terms(inst: DiscreteInstance) -> ProofTerms:
    """The two intermediate inequalities behind the decomposition.

    The error difference splits exactly into A + B, where A compares the
    target error against the source conditional's entropy on target atoms
    and B compares that entropy term against the source error; A is
    bounded by the expected distortion-plus-fitting, B by the alignment.
    """
    err_s, err_tau = generalized_errors(inst)
    report = evaluate_bound(inst)
    h_source_on_target = float(
        inst.target_marginal @ np.array([entropy(row) for row in inst.source_cond])
    )
    term_a_lhs = err_tau - h_source_on_target
    term_b_lhs = h_source_on_target - err_s
    return ProofTerms(term_a_lhs, report.e_fld + report.e_tf, term_b_lhs, report.fa)


def reports_to_bars_csv(reports: dict[str, BoundReport], path) -> None:
    """Stacked-segment values per task for plotting the decomposition."""
    import csv

    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["task", "err_s", "fa", "e_fld", "e_tf", "rhs", "err_tau", "gap", "relative_gap"]
        )
        for name, r in reports.items():
            writer.writerow(
                [name, r.err_s, r.fa, r.e_fld, r.e_tf, r.rhs, r.err_tau, r.gap, r.relative_gap]
            )
