"""The benchmark's workloads: inputs from a seed, one item, its output check.

Why each workload was chosen is recorded in BENCHMARK.json and README.md.

An item is one unit of work: one pipeline run, one bound instance or one
minimum-entropy coupling solve. ``make_inputs`` draws a pool of item inputs
from the workload seed; ``warm`` makes the first call into every layer and
label shape the items use, so cold caches are paid during set-up;
``run`` does one item and returns only small values, never model objects;
``check`` tests those values outside the timed section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from gapcraft import bound, distortion, pipeline, synthtasks
from gapcraft.pipeline import PipelineConfig
from gapcraft.probs import entropy
from gapcraft.synthtasks import TaskSpec

TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    warm: Callable[[list], None]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    # spans every traced run of this workload must record in its timed section
    expected: tuple[str, ...]
    # the timed loop stops only after a whole number of cycles
    cycle: int = 1


# -- pipelines ---------------------------------------------------------------

PIPELINE_POOL = 16


def _item_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


def _pipeline_inputs(family: str, baseline: str):
    def make(seed: int) -> list:
        out = []
        for i in range(PIPELINE_POOL):
            s = _item_seed(seed, i)
            out.append(
                (synthtasks.generate(TaskSpec(family=family, seed=s)),
                 PipelineConfig(seed=s, baseline=baseline))
            )
        return out

    return make


def _pipeline_warm(pool: list) -> None:
    bundle, cfg = pool[0]
    tiny = replace(
        cfg, n0=1, n1=1, n2=1, pretrain_epochs=1,
        lipschitz=replace(cfg.lipschitz, epochs=1),
    )
    pipeline.run_pipeline(bundle, tiny)


def _pipeline_run(inp) -> float:
    bundle, cfg = inp
    return pipeline.run_pipeline(bundle, cfg).holdout_error


def _pipeline_check(inp, holdout: float) -> bool:
    return math.isfinite(holdout) and 0.0 <= holdout <= 1.0


_PIPELINE_LAYERS = (
    "pipeline.run_pipeline",
    "pipeline.pretrain_source",
    "pipeline.stage1",
    "pipeline.stage2",
    "lipschitz.recalibrate_head",
    "lipschitz.penalty_value",
    "models.mlp_apply",
    "numgrad.backward",
    "distortion.pseudo_label_stats",
    "transport.cost_matrix",
    "transport.sinkhorn",
)

PIPELINE_ROTATED = Workload(
    "pipeline_rotated",
    _pipeline_inputs("rotated", "recraft"),
    _pipeline_warm,
    _pipeline_run,
    _pipeline_check,
    _PIPELINE_LAYERS + ("transport.fa_loss_and_grad", "pipeline.induced_predictor_error"),
)

PIPELINE_NFT = Workload(
    "pipeline_nft",
    _pipeline_inputs("permuted_labels", "nft"),
    _pipeline_warm,
    _pipeline_run,
    _pipeline_check,
    _PIPELINE_LAYERS,
)


# -- bound verification ------------------------------------------------------

BOUND_POOL = 4096


def _bound_inputs(seed: int) -> list:
    return [synthtasks.random_discrete_instance(_item_seed(seed, i))
            for i in range(BOUND_POOL)]


def _warm_label_shapes(sizes: range, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for n in sizes:
        for m in sizes:
            distortion.fld_exact(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m)))


def _bound_warm(pool: list) -> None:
    _warm_label_shapes(range(2, 5), 0)
    bound.verify_proof_terms(pool[0])


def _bound_run(inst):
    report = bound.evaluate_bound(inst)
    terms = bound.verify_proof_terms(inst)
    return report.gap, terms, (report.err_s, report.err_tau, report.fa,
                               report.e_fld, report.e_tf, report.rhs)


def _bound_check(inst, out) -> bool:
    gap, t, terms = out
    values = (gap, t.term_a_lhs, t.term_a_rhs, t.term_b_lhs, t.term_b_rhs, *terms)
    return (
        all(math.isfinite(v) for v in values)
        and gap >= -TOL
        and t.term_a_lhs <= t.term_a_rhs + TOL
        and t.term_b_lhs <= t.term_b_rhs + TOL
    )


BOUND_VERIFY = Workload(
    "bound_verify",
    _bound_inputs,
    _bound_warm,
    _bound_run,
    _bound_check,
    (
        "bound.evaluate_bound",
        "bound.verify_proof_terms",
        "bound.tf_closed_form",
        "transport.exact_w1",
        "transport.cost_matrix",
        "distortion.fld_exact",
    ),
)


# -- 5-class minimum-entropy coupling ---------------------------------------

FLD_CLASSES = 5
FLD_CYCLES = 16
VERTEX_SAMPLES = 2000


def _fld_inputs(seed: int) -> list:
    """Pairs of 5-class conditionals with Dirichlet concentrations drawn as
    random_discrete_instance draws them. Every fourth pair gets one exact zero
    on one side, so each cycle of four holds three 5x5 solves and one 4x5 or
    5x4 solve, and every run has the same mix of shapes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    out = []
    for i in range(4 * FLD_CYCLES):
        alpha = float(rng.choice([0.4, 1.0, 3.0]))
        w, q = rng.dirichlet(np.full(FLD_CLASSES, alpha), size=2)
        if i % 4 == 3:
            side = w if rng.random() < 0.5 else q
            side[rng.choice(np.argsort(side)[:-1])] = 0.0
            side /= side.sum()
        out.append((w, q, int(rng.integers(2**31))))
    return out


def _fld_warm(pool: list) -> None:
    _warm_label_shapes(range(2, FLD_CLASSES + 1), 0)
    w, q, s = pool[0]
    distortion.random_vertex_entropies(w, q, VERTEX_SAMPLES, np.random.default_rng(s))


def _fld_run(inp):
    w, q, _ = inp
    res = distortion.fld_exact(w, q)
    return res.fld, res.coupling


def _fld_check(inp, out) -> bool:
    w, q, s = inp
    fld, pi = out
    if not (math.isfinite(fld) and 0.0 <= fld <= entropy(q) + TOL):
        return False
    marginal_err = max(np.max(np.abs(pi.sum(axis=1) - w)), np.max(np.abs(pi.sum(axis=0) - q)))
    if not marginal_err <= TOL:
        return False
    vertices = distortion.random_vertex_entropies(w, q, VERTEX_SAMPLES, np.random.default_rng(s))
    return bool(vertices.min() >= fld + entropy(w) - TOL)


FLD_WIDE = Workload(
    "fld_wide",
    _fld_inputs,
    _fld_warm,
    _fld_run,
    _fld_check,
    ("distortion.fld_exact",),
    cycle=4,
)


WORKLOADS = {w.name: w for w in (PIPELINE_ROTATED, PIPELINE_NFT, BOUND_VERIFY, FLD_WIDE)}
