"""Exact decomposition terms, the closed-form fitting term, proof terms."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from gapcraft import bound, distortion, synthtasks, transport
from gapcraft.bound import DiscreteInstance
from gapcraft.cli import main

from oracles import (
    conditional_pairs,
    entropy_loop_proof_terms,
    fld_kernel,
    kl_divergence,
    kl_mp,
    kl_route_tf,
    realized_plan,
    reference_bound,
    tf_convex_oracle,
)


def _self_transfer_instance(k=3, kz=3, seed=0):
    """Source task equals target task; predictions equal the conditionals."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(k, 2))
    marginal = rng.dirichlet(np.ones(k))
    cond = rng.dirichlet(np.ones(kz), size=k)
    return DiscreteInstance(points, marginal, marginal, cond, cond, cond, cond)


def _permutation_instance(seed=1):
    """Deterministic conditionals, target labels a permutation of source."""
    rng = np.random.default_rng(seed)
    k, kz = 4, 3
    points = rng.normal(size=(k, 2))
    sm = rng.dirichlet(np.ones(k))
    tm = rng.dirichlet(np.ones(k))
    src_labels = rng.integers(0, kz, size=k)
    perm = np.array([2, 0, 1])
    source_cond = np.eye(kz)[src_labels]
    target_cond = np.eye(kz)[perm[src_labels]]
    return DiscreteInstance(points, sm, tm, source_cond, target_cond, source_cond, target_cond)


def test_instance_rejects_atoms_closer_than_1e_9():
    inst = _self_transfer_instance()
    points = inst.points.copy()
    points[2] = points[0] + 5e-10  # 7.1e-10 apart
    with pytest.raises(ValueError, match="^feature points must be distinct$"):
        replace(inst, points=points)
    points[2] = points[0] + 1e-8
    assert replace(inst, points=points).n_points == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_instance_rejects_non_finite_points_by_name(bad):
    inst = _self_transfer_instance()
    points = inst.points.copy()
    points[1, 0] = bad
    with pytest.raises(ValueError, match="^feature points contains non-finite entries$"):
        replace(inst, points=points)


def test_atom_separation_is_the_least_pairwise_distance():
    assert bound._atom_separation(np.zeros((1, 3))) == np.inf
    assert bound._atom_separation(np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])) == 1.0


# ---------------------------------------------------------------------------
# generalized_errors
# ---------------------------------------------------------------------------


def test_errors_zero_for_perfect_onehot():
    inst = _permutation_instance()
    err_s, err_tau = bound.generalized_errors(inst)
    assert err_s == 0.0 and err_tau == 0.0


def test_errors_uniform_target_predictor_is_log_k():
    rng = np.random.default_rng(2)
    k, kt = 3, 4
    inst = DiscreteInstance(
        rng.normal(size=(k, 2)),
        rng.dirichlet(np.ones(k)),
        rng.dirichlet(np.ones(k)),
        rng.dirichlet(np.ones(2), size=k),
        rng.dirichlet(np.ones(kt), size=k),
        rng.dirichlet(np.ones(2), size=k),
        np.full((k, kt), 1.0 / kt),
    )
    _, err_tau = bound.generalized_errors(inst)
    assert err_tau == pytest.approx(np.log(kt), abs=1e-12)


def test_errors_match_double_sum_recomputation():
    inst = synthtasks.random_discrete_instance(7)
    err_s, err_tau = bound.generalized_errors(inst)
    direct_s = sum(
        -inst.source_marginal[i] * inst.source_cond[i, z] * np.log(inst.p_source[i, z])
        for i in range(inst.n_points)
        for z in range(inst.source_cond.shape[1])
        if inst.source_cond[i, z] > 0
    )
    direct_t = sum(
        -inst.target_marginal[i] * inst.target_cond[i, z] * np.log(inst.p_target[i, z])
        for i in range(inst.n_points)
        for z in range(inst.target_cond.shape[1])
        if inst.target_cond[i, z] > 0
    )
    assert err_s == pytest.approx(direct_s, abs=1e-12)
    assert err_tau == pytest.approx(direct_t, abs=1e-12)


# ---------------------------------------------------------------------------
# fa_exact
# ---------------------------------------------------------------------------


def test_fa_zero_for_identical_marginals():
    assert bound.fa_exact(_self_transfer_instance()) == pytest.approx(0.0, abs=1e-12)


def test_fa_zero_for_constant_loss():
    rng = np.random.default_rng(3)
    k = 4
    # uniform predictions and uniform conditionals: same loss at every atom
    inst = DiscreteInstance(
        rng.normal(size=(k, 2)),
        rng.dirichlet(np.ones(k)),
        rng.dirichlet(np.ones(k)),
        np.full((k, 3), 1.0 / 3),
        rng.dirichlet(np.ones(3), size=k),
        np.full((k, 3), 1.0 / 3),
        rng.dirichlet(np.ones(3), size=k),
    )
    assert bound._lipschitz_on(inst, transport.cost_matrix(inst.points, inst.points)) == 0.0
    assert bound.fa_exact(inst) == 0.0


def test_fa_single_point_support():
    rng = np.random.default_rng(4)
    inst = DiscreteInstance(
        rng.normal(size=(1, 2)),
        np.array([1.0]),
        np.array([1.0]),
        rng.dirichlet(np.ones(3), size=1),
        rng.dirichlet(np.ones(3), size=1),
        rng.dirichlet(np.ones(3), size=1),
        rng.dirichlet(np.ones(3), size=1),
    )
    assert bound.fa_exact(inst) == 0.0


def test_fa_upper_bounds_expectation_difference():
    for seed in range(30):
        inst = synthtasks.random_discrete_instance(seed)
        losses = bound.source_loss_values(inst)
        diff = float((inst.target_marginal - inst.source_marginal) @ losses)
        assert diff <= bound.fa_exact(inst) + 1e-9


# ---------------------------------------------------------------------------
# tf_closed_form / tf_convex_oracle
# ---------------------------------------------------------------------------


def test_tf_perfect_fit():
    w = np.array([0.6, 0.4])
    q = np.array([0.3, 0.7])
    plus = fld_kernel(distortion.fld_exact(w, q).coupling, q)
    assert bound.tf_closed_form(q, q) == 0.0
    assert np.allclose(realized_plan(plus, q, q), plus)


def test_tf_reference_kl_value():
    tf = bound.tf_closed_form([0.5, 0.5], [0.8, 0.2])
    expected = kl_mp([0.5, 0.5], [0.8, 0.2])
    assert expected == pytest.approx(0.2231, abs=5e-5)
    assert tf == pytest.approx(expected, abs=1e-12)


def test_tf_single_source_class_pins_plan():
    q = np.array([0.25, 0.75])
    p_tau = np.array([0.4, 0.6])
    plus = fld_kernel(distortion.fld_exact(np.array([1.0]), q).coupling, q)
    tf = bound.tf_closed_form(q, p_tau)
    assert np.allclose(realized_plan(plus, q, p_tau), p_tau[None, :])
    assert tf == pytest.approx(kl_divergence(q, p_tau), abs=1e-12)
    oracle = tf_convex_oracle(plus, np.array([1.0]), p_tau)
    assert oracle == pytest.approx(tf, abs=1e-9)


def test_tf_realized_plan_reproduces_prediction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        kz, kt = rng.integers(2, 5, size=2)
        w = rng.dirichlet(np.ones(kz))
        q = rng.dirichlet(np.ones(kt))
        p_tau = rng.dirichlet(np.ones(kt))
        plus = fld_kernel(distortion.fld_exact(w, q).coupling, q)
        assert np.max(np.abs(w @ realized_plan(plus, q, p_tau) - p_tau)) < 1e-9


def test_tf_closed_matches_convex_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        kz, kt = rng.integers(2, 5, size=2)
        w = rng.dirichlet(np.ones(kz))
        q = rng.dirichlet(np.ones(kt))
        p_tau = rng.dirichlet(np.ones(kt) * 2)
        plus = fld_kernel(distortion.fld_exact(w, q).coupling, q)
        closed = bound.tf_closed_form(q, p_tau)
        oracle = tf_convex_oracle(plus, w, p_tau)
        assert abs(closed - oracle) <= 1e-4


def test_tf_oracle_unconstrained_minimum():
    rng = np.random.default_rng(7)
    w = rng.dirichlet(np.ones(3))
    q = rng.dirichlet(np.ones(3))
    plus = fld_kernel(distortion.fld_exact(w, q).coupling, q)
    p_tau = w @ plus  # exactly the plan's own mixture
    assert tf_convex_oracle(plus, w, p_tau) == pytest.approx(0.0, abs=1e-8)


def test_tf_infinite_sentinel_on_unreachable_class():
    assert bound.tf_closed_form([0.5, 0.5], [1.0, 0.0]) == float("inf")


# ---------------------------------------------------------------------------
# evaluate_bound / verify_proof_terms
# ---------------------------------------------------------------------------


def test_self_transfer_sanity():
    inst = _self_transfer_instance()
    report = bound.evaluate_bound(inst)
    assert report.fa == pytest.approx(0.0, abs=1e-12)
    assert report.e_tf == pytest.approx(0.0, abs=1e-12)
    assert report.gap == pytest.approx(report.e_fld, abs=1e-9)
    assert report.gap >= -1e-9


def test_bound_holds_on_random_instances():
    for seed in range(100):
        report = bound.evaluate_bound(synthtasks.random_discrete_instance(seed))
        assert report.gap >= -1e-9, seed
        assert report.fa >= 0 and report.e_fld >= 0 and report.e_tf >= 0
        assert report.rhs == pytest.approx(
            report.err_s + report.fa + report.e_fld + report.e_tf, abs=1e-12
        )


def test_bound_on_instance_with_tiny_source_class_mass():
    # its atom 2 has a source class of mass 3.77e-7, whose kernel row once
    # failed the row-sum check inside fld_exact
    report = bound.evaluate_bound(synthtasks.random_discrete_instance(955220))
    assert report.gap >= -1e-9


def test_bound_invariant_under_target_label_permutation():
    rng = np.random.default_rng(8)
    inst = synthtasks.random_discrete_instance(11)
    kt = inst.target_cond.shape[1]
    perm = rng.permutation(kt)
    permuted = DiscreteInstance(
        inst.points,
        inst.source_marginal,
        inst.target_marginal,
        inst.source_cond,
        inst.target_cond[:, perm],
        inst.p_source,
        inst.p_target[:, perm],
    )
    a = bound.evaluate_bound(inst)
    b = bound.evaluate_bound(permuted)
    assert a.rhs == pytest.approx(b.rhs, abs=1e-10)
    assert a.err_tau == pytest.approx(b.err_tau, abs=1e-10)


def test_proof_terms_self_transfer_kills_b():
    inst = _self_transfer_instance()
    terms = bound.verify_proof_terms(inst)
    assert terms.term_b_lhs == pytest.approx(0.0, abs=1e-12)
    assert terms.term_b_rhs == pytest.approx(0.0, abs=1e-12)


def test_proof_terms_permutation_case_is_tight():
    inst = _permutation_instance()
    terms = bound.verify_proof_terms(inst)
    assert terms.term_a_lhs == pytest.approx(0.0, abs=1e-12)
    assert terms.term_a_rhs == pytest.approx(0.0, abs=1e-12)


def test_proof_terms_hold_on_random_instances():
    for seed in range(100):
        terms = bound.verify_proof_terms(synthtasks.random_discrete_instance(seed))
        assert terms.term_a_lhs <= terms.term_a_rhs + 1e-9, seed
        assert terms.term_b_lhs <= terms.term_b_rhs + 1e-9, seed


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(1, 5) for m in range(1, 5)] + [(4, 5), (5, 4), (5, 5)]
)
def test_tf_matches_kl_route_bitwise(n, m):
    rng = np.random.default_rng(200 + 10 * n + m)
    for c, (w, q) in enumerate(conditional_pairs(n, m, 8 if max(n, m) == 5 else 40, rng)):
        plan = fld_kernel(distortion.fld_exact(w, q).coupling, q)
        p = rng.dirichlet(np.full(m, 2.0))
        if c % 3 == 2 and m > 1:
            p[rng.integers(m)] = 0.0  # KL is infinite when q lives there
            p /= p.sum()
        tf, realized = kl_route_tf(plan, q, p)
        assert bound.tf_closed_form(q, p).hex() == tf.hex(), (q, p)
        assert realized_plan(plan, q, p).tobytes() == realized.tobytes(), (q, p)


def test_bound_and_proof_terms_match_reference_bitwise():
    for seed in range(200):
        inst = synthtasks.random_discrete_instance(seed)
        report = bound.evaluate_bound(inst)
        expected = reference_bound(inst)
        assert _bits(asdict(report).values()) == _bits(expected), seed
        terms = bound.verify_proof_terms(inst)
        got = (terms.term_a_lhs, terms.term_a_rhs, terms.term_b_lhs, terms.term_b_rhs)
        assert _bits(got) == _bits(entropy_loop_proof_terms(inst)), seed


def test_training_p_target_toward_conditional_reduces_tf():
    """Descending the target cross-entropy drags the fitting term down."""
    rng = np.random.default_rng(9)
    q = rng.dirichlet(np.ones(3))
    rng.dirichlet(np.ones(3))  # skipped, so the logits are the same draw as before
    logits = rng.normal(size=3)
    previous = np.inf
    for _ in range(40):
        p = np.exp(logits - logits.max())
        p /= p.sum()
        tf = bound.tf_closed_form(q, p)
        assert tf <= previous + 1e-12
        previous = tf
        logits -= 0.5 * (p - q)  # gradient of CE(q, softmax(logits))
    assert previous < 1e-3


def test_report_json_and_bars_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        synthtasks, "random_discrete_instance", lambda seed: _self_transfer_instance()
    )
    out = tmp_path / "br"
    assert main(["bound-report", "--tasks", "1", "--bars", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads((out / "bound_report.json").read_text())
    assert data == {"task_0": asdict(bound.evaluate_bound(_self_transfer_instance()))}
    assert set(data["task_0"]) == {
        "err_s", "err_tau", "fa", "e_fld", "e_tf", "rhs", "gap", "relative_gap"
    }
    lines = (out / "bars.csv").read_text().strip().splitlines()
    assert lines[0].startswith("task,err_s,fa,e_fld,e_tf,rhs")
    assert len(lines) == 2
