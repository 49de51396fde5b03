"""Exact evaluation of the target-error decomposition on discrete instances.

For a finite feature support carrying both tasks' marginals, conditionals,
and predictors, every term of the bound

    target_error <= source_error + alignment + E[distortion + fitting]

is computable exactly: the alignment term by the transportation simplex
(:func:`transport.exact_w1`, certified optimal by its dual potentials)
weighted with the support-restricted Lipschitz constant of the source
loss, the distortion term by the minimum-entropy coupling oracle, and the
fitting term by its closed form, the minimum of the underlying
constrained convex program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transport
from .distortion import fld_exact
from .numgrad import as_matrix
from .probs import LOG_FLOOR, as_conditional, as_distribution, xlogx

__all__ = [
    "DiscreteInstance",
    "BoundReport",
    "ProofTerms",
    "generalized_errors",
    "source_loss_values",
    "fa_exact",
    "tf_closed_form",
    "evaluate_bound",
    "proof_terms",
    "verify_proof_terms",
]


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
        points = as_matrix(self.points, "feature points")
        k = points.shape[0]
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
        if _atom_separation(points) <= 1e-9:
            raise ValueError("feature points must be distinct")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _atom_separation(points: np.ndarray) -> float:
    """The least distance between two distinct atoms; inf for a single atom."""
    if points.shape[0] < 2:
        return math.inf
    dist = transport.cost_matrix(points, points)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


@dataclass(frozen=True, slots=True)
class BoundReport:
    err_s: float
    err_tau: float
    fa: float
    e_fld: float
    e_tf: float
    rhs: float
    gap: float
    relative_gap: float


@dataclass(frozen=True, slots=True)
class ProofTerms:
    term_a_lhs: float
    term_a_rhs: float
    term_b_lhs: float
    term_b_rhs: float


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


def _lipschitz_on(inst: DiscreteInstance, dist: np.ndarray) -> float:
    """The Lipschitz constant over the atom distances ``dist`` (read only);
    the zero diagonal pairs an atom with itself and counts as ratio 0."""
    losses = source_loss_values(inst)
    diff = np.abs(losses[:, None] - losses[None, :])
    ratios = np.divide(diff, dist, out=np.zeros(dist.shape), where=dist > 0.0)
    return float(ratios.max())


def fa_exact(inst: DiscreteInstance) -> float:
    """Alignment term: Lipschitz constant times exact W1 between marginals."""
    if inst.n_points < 2:
        return 0.0
    dist = transport.cost_matrix(inst.points, inst.points)
    tau = _lipschitz_on(inst, dist)
    if tau == 0.0:
        return 0.0
    _, w1 = transport.exact_w1(dist, inst.target_marginal, inst.source_marginal)
    return tau * w1


def tf_closed_form(target_cond, p_target) -> float:
    """Fitting term in closed form: KL(target conditional || prediction).

    This is the minimum, over nonnegative plans whose mixture under the
    source conditional is the prediction, of the source-weighted KL from
    the rows of the FLD optimum's kernel.  The minimum is the same for
    every kernel that puts no mass on a class the conditional never emits,
    and :func:`distortion.fld_exact`'s coupling is zero on every such
    column, so no kernel is taken.  ``tests/oracles.py`` builds the kernel
    and the plan that attains the minimum.
    """
    q = as_distribution(target_cond, "target conditional")
    p = as_distribution(p_target, "target prediction")
    if q.size != p.size:
        raise ValueError("conditional and prediction class counts differ")
    live = q > 0.0
    # KL(q || p) as cross-entropy minus entropy, each summed over the
    # classes q lives on
    q_live, p_live = q[live], p[live]
    if (p_live <= 0.0).any():
        return math.inf
    return float(-(q_live * np.log(p_live)).sum()) - float(-(q_live * np.log(q_live)).sum())


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
            tf = tf_closed_form(inst.target_cond[i], inst.p_target[i])
        except ValueError as exc:
            raise type(exc)(f"at support point {i}: {exc}") from exc
        e_fld += weight * res.fld
        e_tf += weight * tf
    rhs = err_s + fa + e_fld + e_tf
    gap = rhs - err_tau
    relative = gap / rhs if rhs > 0.0 else 0.0
    return BoundReport(err_s, err_tau, fa, e_fld, e_tf, rhs, gap, relative)


def verify_proof_terms(inst: DiscreteInstance) -> ProofTerms:
    """:func:`proof_terms` of ``inst`` read from its own evaluation."""
    return proof_terms(inst, evaluate_bound(inst))


def proof_terms(inst: DiscreteInstance, report: BoundReport) -> ProofTerms:
    """The two intermediate inequalities behind the decomposition.

    The error difference splits exactly into A + B, where A compares the
    target error against the source conditional's entropy on target atoms
    and B compares that entropy term against the source error; A is
    bounded by the expected distortion-plus-fitting, B by the alignment.
    ``report`` is :func:`evaluate_bound` of ``inst``, so a caller that
    holds it evaluates the instance once.
    """
    h_source_on_target = float(inst.target_marginal @ -xlogx(inst.source_cond).sum(axis=1))
    term_a_lhs = report.err_tau - h_source_on_target
    term_b_lhs = h_source_on_target - report.err_s
    return ProofTerms(term_a_lhs, report.e_fld + report.e_tf, term_b_lhs, report.fa)
