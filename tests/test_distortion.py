"""Minimum-entropy coupling oracle, vertex enumeration, pseudo-label surrogate."""

import re

import numpy as np
import pytest

from gapcraft import distortion, models, transport
from gapcraft import numgrad as ng
from gapcraft.distortion import JointLabelStats, TransportKernel, fld_exact, fld_surrogate
from gapcraft.probs import entropy

from oracles import (
    entropy_mp,
    finite_difference,
    highs_w1,
    leaf_peel,
    relative_gradient_error,
)


# ---------------------------------------------------------------------------
# TransportKernel validation
# ---------------------------------------------------------------------------

KERNEL_REJECTS = {
    "pos_inf": ([[0.5, 0.5], [np.inf, 0.0]], "kernel rows must sum to 1 within 1e-10"),
    "pos_and_neg_inf": ([[0.5, 0.5], [np.inf, -np.inf]], "kernel has negative entries (min -inf)"),
    "sum_overflows": ([[0.5, 0.5], [1e308, 1e308]], "kernel rows must sum to 1 within 1e-10"),
    "negative_entry": ([[0.5, 0.5], [1.1, -0.1]], "kernel has negative entries (min -1.000e-01)"),
    "wrong_ndim": ([1.0], "kernel must be 2-D, got shape (1,)"),
    "no_columns": (np.zeros((2, 0)), "kernel rows must sum to 1 within 1e-10"),
    "bad_row": ([[0.5, 0.5], [0.3, 0.3]], "kernel rows must sum to 1 within 1e-10"),
    # an empty kernel has no row deviation to take the maximum of
    "empty": (np.zeros((0, 3)), "zero-size array to reduction operation maximum which has no identity"),
}


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case", sorted(KERNEL_REJECTS))
def test_kernel_rejects(case):
    value, message = KERNEL_REJECTS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TransportKernel(np.asarray(value, dtype=np.float64))


def test_kernel_passes_nan_through():
    # NaN compares false against both thresholds, so neither check fires;
    # this pins the current behaviour, it is not a promise
    kernel = TransportKernel(np.array([[0.5, 0.5], [np.nan, 1.0]]))
    assert np.isnan(kernel.matrix[1, 0])


# ---------------------------------------------------------------------------
# fld_exact
# ---------------------------------------------------------------------------


def test_fld_one_hot_target_is_zero():
    res = fld_exact([0.3, 0.7], [1.0, 0.0])
    assert res.fld == 0.0
    # deterministic plan: all mass on the supported column
    assert np.allclose(res.plan.matrix[:, 0], 1.0)


def test_fld_single_source_class_forces_q():
    res = fld_exact([1.0], [0.5, 0.5])
    assert res.fld == pytest.approx(np.log(2.0), abs=1e-12)
    assert np.allclose(res.plan.matrix, [[0.5, 0.5]])


def test_fld_2x2_reference_value():
    # w=(0.7,0.3), q=(0.5,0.5): optimum 0.41879 nats at pi=[[0.5,0.2],[0,0.3]]
    res = fld_exact([0.7, 0.3], [0.5, 0.5])
    expected = entropy_mp([0.5, 0.2, 0.3]) - entropy_mp([0.7, 0.3])
    assert expected == pytest.approx(0.4188, abs=5e-5)
    assert res.fld == pytest.approx(expected, abs=1e-12)
    vertices = distortion.enumerate_polytope_vertices([0.7, 0.3], [0.5, 0.5])
    values = [entropy(v) - entropy([0.7, 0.3]) for v in vertices]
    assert res.fld == pytest.approx(min(values), abs=1e-12)
    assert any(np.allclose(v, [[0.5, 0.2], [0.0, 0.3]]) for v in vertices)


def test_fld_plan_reproduces_target_marginal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.dirichlet(np.ones(rng.integers(2, 5)))
        q = rng.dirichlet(np.ones(rng.integers(2, 5)))
        res = fld_exact(w, q)
        assert np.max(np.abs(w @ res.plan.matrix - q)) < 1e-9


def test_fld_zero_weight_rows_get_barycentric_completion():
    res = fld_exact([0.6, 0.0, 0.4], [0.25, 0.75])
    assert np.allclose(res.plan.matrix[1], [0.25, 0.75])
    assert np.max(np.abs(np.array([0.6, 0.0, 0.4]) @ res.plan.matrix - [0.25, 0.75])) < 1e-12


def test_fld_oversize_rejected():
    with pytest.raises(transport.CapabilityError):
        fld_exact(np.full(6, 1 / 6), [0.5, 0.5])


def test_fld_upper_bounded_by_target_entropy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(4))
        assert fld_exact(w, q).fld <= entropy(q) + 1e-12


def test_fld_zero_iff_deterministic_vertex():
    # matched permutation marginals admit a zero-entropy (deterministic) plan
    w = np.array([0.2, 0.5, 0.3])
    res = fld_exact(w, w[[2, 0, 1]])
    assert res.fld == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.sort(res.plan.matrix.ravel()), [0, 0, 0, 0, 0, 0, 1, 1, 1])
    # generic marginals do not
    res2 = fld_exact([0.61, 0.39], [0.5, 0.5])
    assert res2.fld > 1e-3


def test_fld_invariant_under_simultaneous_permutation():
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(3))
        pw = rng.permutation(4)
        pq = rng.permutation(3)
        assert fld_exact(w, q).fld == pytest.approx(
            fld_exact(w[pw], q[pq]).fld, abs=1e-12
        )


def test_fld_below_any_feasible_coupling_entropy():
    rng = np.random.default_rng(3)
    for _ in range(30):
        w = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        best = fld_exact(w, q).fld
        # independent coupling and random vertex blends are all feasible
        candidates = [np.outer(w, q)]
        vertices = distortion.enumerate_polytope_vertices(w, q)
        candidates.extend(vertices[:5])
        lam = rng.random(2)
        candidates.append(
            lam[0] * vertices[0] + (1 - lam[0]) * np.outer(w, q)
        )
        for pi in candidates:
            assert best <= entropy(pi) - entropy(w) + 1e-9


def test_fld_5x5_below_every_sampled_vertex():
    rng = np.random.default_rng(15)
    for i in range(20):
        alpha = float(rng.choice([0.4, 1.0, 3.0]))
        w, q = rng.dirichlet(np.full(5, alpha), size=2)
        if i % 4 == 3:  # an exact zero on one side
            side = w if i % 8 == 3 else q
            side[rng.integers(5)] = 0.0
            side /= side.sum()
        res = fld_exact(w, q)
        assert np.max(np.abs(res.coupling.sum(axis=1) - w)) < 1e-12
        assert np.max(np.abs(res.coupling.sum(axis=0) - q)) < 1e-12
        ents = distortion.random_vertex_entropies(w, q, 2000, rng)
        assert res.fld <= float(ents.min()) - entropy(w) + 1e-12


# ---------------------------------------------------------------------------
# cut-form table
# ---------------------------------------------------------------------------


def _gathered_plans_match_peeling(n, m, trees, rng):
    cells, index, forms = distortion._cut_table(n, m)
    for _ in range(3):
        w = rng.integers(1, 40, size=n)
        q = rng.multinomial(int(w.sum()) - m, np.full(m, 1.0 / m)) + 1
        sols = (forms @ np.concatenate([w, q[:-1]]).astype(np.float64))[index]
        for t in trees:
            plan = np.zeros(n * m)
            plan[cells[t]] = sols[t]
            plan = plan.reshape(n, m)
            assert np.array_equal(plan, leaf_peel(cells[t], w, q)), (t, w, q)
            assert np.array_equal(plan.sum(axis=1), w) and np.array_equal(plan.sum(axis=0), q)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_cut_table_matches_leaf_peeling_on_every_tree(n, m):
    cells, index, forms = distortion._cut_table(n, m)
    # Scoins' count n^(m-1) m^(n-1) for K_{n,m}; each tree once, cells increasing
    assert len(cells) == n ** (m - 1) * m ** (n - 1)
    assert len(np.unique(cells, axis=0)) == len(cells)
    assert np.all(np.diff(cells, axis=1) > 0)
    assert cells.dtype == np.int8 and index.dtype == np.int16
    assert set(np.unique(forms)) <= {-1.0, 0.0, 1.0}
    _gathered_plans_match_peeling(n, m, range(len(cells)), np.random.default_rng(16 + 5 * n + m))


def test_cut_table_matches_leaf_peeling_on_sampled_5x5_trees():
    cells, _, forms = distortion._cut_table(5, 5)
    assert len(cells) == 5**4 * 5**4 and len(forms) == 910
    rng = np.random.default_rng(17)
    _gathered_plans_match_peeling(5, 5, rng.choice(len(cells), 300, replace=False), rng)


# ---------------------------------------------------------------------------
# enumerate_polytope_vertices
# ---------------------------------------------------------------------------


def test_enumerate_singleton():
    vertices = distortion.enumerate_polytope_vertices([1.0], [1.0])
    assert len(vertices) == 1
    assert np.allclose(vertices[0], [[1.0]])


def test_enumerate_birkhoff_corners():
    vertices = distortion.enumerate_polytope_vertices([0.5, 0.5], [0.5, 0.5])
    mats = [np.round(v / 0.5).astype(int) for v in vertices]
    assert any(np.array_equal(m, np.eye(2, dtype=int)) for m in mats)
    assert any(np.array_equal(m, np.eye(2, dtype=int)[::-1]) for m in mats)


def test_enumerate_marginals_and_support_size():
    rng = np.random.default_rng(4)
    w = rng.dirichlet(np.ones(3))
    q = rng.dirichlet(np.ones(3))
    vertices = distortion.enumerate_polytope_vertices(w, q)
    for v in vertices:
        assert np.max(np.abs(v.sum(axis=1) - w)) < 1e-9
        assert np.max(np.abs(v.sum(axis=0) - q)) < 1e-9
        assert int((v > 1e-12).sum()) <= 5


def test_enumerate_covers_lp_optima():
    """50 random linear objectives: LP optimum always equals a vertex value."""
    rng = np.random.default_rng(5)
    w = rng.dirichlet(np.ones(3))
    q = rng.dirichlet(np.ones(3))
    vertices = distortion.enumerate_polytope_vertices(w, q)
    for _ in range(50):
        c = rng.normal(size=9)
        _, lp_best, _ = highs_w1(c.reshape(3, 3), w, q)
        vertex_best = min(float((v.ravel() * c).sum()) for v in vertices)
        assert lp_best == pytest.approx(vertex_best, abs=1e-9)


def test_random_vertex_search_reaches_enumerated_optimum():
    rng = np.random.default_rng(6)
    w = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    exact = fld_exact(w, q).fld
    ents = distortion.random_vertex_entropies(w, q, 20_000, rng)
    assert float(ents.min()) - entropy(w) == pytest.approx(exact, abs=1e-9)


# ---------------------------------------------------------------------------
# pseudo_label_stats
# ---------------------------------------------------------------------------


def _deterministic_head(k):
    # logits large enough that softmax saturates: p_s is effectively one-hot
    w = np.eye(k) * 200.0
    return models.MlpParams(
        (models.Layer(w, np.zeros((1, k)), "linear"),)
    )


def _identity_embedder(d):
    return models.MlpParams(
        (models.Layer(np.eye(d), np.zeros((1, d)), "linear"),)
    )


def test_stats_hard_equals_soft_for_deterministic_head():
    rng = np.random.default_rng(7)
    x = np.eye(3)[rng.integers(0, 3, size=40)] * 1.0
    y = rng.integers(0, 2, size=40)
    phi = _identity_embedder(3)
    head = _deterministic_head(3)
    hard = distortion.pseudo_label_stats(phi, head, x, y, 2, "hard", seed=0)
    soft = distortion.pseudo_label_stats(phi, head, x, y, 2, "soft")
    assert np.allclose(hard.joint, soft.joint, atol=1e-12)


def test_stats_uniform_head_balanced_targets():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(100, 3))
    y = np.array([0, 1] * 50)
    phi = _identity_embedder(3)
    zero_head = models.MlpParams(
        (models.Layer(np.zeros((3, 2)), np.zeros((1, 2)), "linear"),)
    )
    soft = distortion.pseudo_label_stats(phi, zero_head, x, y, 2, "soft")
    assert np.allclose(soft.joint, 0.25)


def test_stats_hard_concentrates_to_soft():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(64, 3))
    y = rng.integers(0, 3, size=64)
    phi = _identity_embedder(3)
    head = models.init_mlp([3, 3], "tanh", rng)
    soft = distortion.pseudo_label_stats(phi, head, x, y, 3, "soft")
    acc = np.zeros_like(soft.joint)
    n_rounds = 10_000
    for s in range(n_rounds):
        acc += distortion.pseudo_label_stats(phi, head, x, y, 3, "hard", seed=s).joint
    assert np.max(np.abs(acc / n_rounds - soft.joint)) < 0.02


def test_stats_hard_last_class_takes_cumsum_shortfall(monkeypatch):
    """A draw above a row's rounded-down cumsum lands in the last class,
    not one past it."""
    n = 40
    p = np.full((n, 2), 0.25)  # rows sum to 0.5, far below any draw near 1
    monkeypatch.setattr(models, "predict_source", lambda head, u: p)
    y = np.zeros(n, dtype=np.int64)
    phi = _identity_embedder(2)
    stats = distortion.pseudo_label_stats(phi, phi, np.zeros((n, 2)), y, 2, "hard", seed=0)
    draws = np.random.default_rng(0).random(n)  # the draws hard mode makes
    assert np.any(draws > 0.5)
    above = draws > 0.25
    assert np.array_equal(stats.joint, [[np.mean(~above), 0.0], [np.mean(above), 0.0]])


def test_stats_rejects_empty_and_out_of_range():
    phi = _identity_embedder(2)
    head = models.init_mlp([2, 2], "tanh")
    with pytest.raises(ValueError):
        distortion.pseudo_label_stats(phi, head, np.zeros((0, 2)), [], 2)
    with pytest.raises(ValueError):
        distortion.pseudo_label_stats(phi, head, np.zeros((2, 2)), [0, 5], 2)


# ---------------------------------------------------------------------------
# fld_surrogate
# ---------------------------------------------------------------------------


def test_surrogate_independent_joint_is_target_entropy():
    w = np.array([0.3, 0.7])
    q = np.array([0.2, 0.5, 0.3])
    stats = JointLabelStats(np.outer(w, q), kappa=10)
    assert fld_surrogate(stats) == pytest.approx(entropy(q), abs=1e-12)


def test_surrogate_diagonal_joint_is_zero():
    stats = JointLabelStats(np.diag([0.25, 0.35, 0.4]), kappa=10)
    assert fld_surrogate(stats) == 0.0


def test_surrogate_reference_value():
    stats = JointLabelStats(np.array([[0.4, 0.1], [0.1, 0.4]]), kappa=4)
    expected = entropy_mp([0.4, 0.1, 0.1, 0.4]) - entropy_mp([0.5, 0.5])
    assert expected == pytest.approx(0.5004, abs=5e-5)
    assert fld_surrogate(stats) == pytest.approx(expected, abs=1e-12)


def test_surrogate_range():
    rng = np.random.default_rng(10)
    for _ in range(50):
        j = rng.dirichlet(np.ones(6)).reshape(2, 3)
        val = fld_surrogate(JointLabelStats(j, kappa=5))
        assert 0.0 <= val <= np.log(3) + 1e-12


def test_surrogate_dominates_exact_on_random_instances():
    """Expected exact distortion <= surrogate, pointwise construction."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        n_u = rng.integers(1, 5)
        kz, kt = rng.integers(2, 4, size=2)
        u_marg = rng.dirichlet(np.ones(n_u))
        conds_w = rng.dirichlet(np.ones(kz), size=n_u)
        conds_q = rng.dirichlet(np.ones(kt), size=n_u)
        e_exact = sum(
            u_marg[i] * fld_exact(conds_w[i], conds_q[i]).fld for i in range(n_u)
        )
        # surrogate stats marginalize u away before measuring entropy
        joint = (u_marg[:, None, None] * conds_w[:, :, None] * conds_q[:, None, :]).sum(0)
        assert e_exact <= fld_surrogate(JointLabelStats(joint, kappa=1)) + 1e-9


# ---------------------------------------------------------------------------
# fld_loss_and_grad
# ---------------------------------------------------------------------------


def test_fld_grad_zero_for_constant_head():
    rng = np.random.default_rng(12)
    phi = models.init_mlp([3, 4, 2], "tanh", rng)
    head = models.MlpParams(
        (models.Layer(np.zeros((2, 3)), np.array([[0.3, -0.2, 0.1]]), "linear"),)
    )
    x = rng.normal(size=(20, 3))
    y = rng.integers(0, 2, size=20)
    _, grads = distortion.fld_loss_and_grad(phi, head, x, y, 2)
    for gw, gb in grads:
        assert np.allclose(gw, 0.0) and np.allclose(gb, 0.0)


def test_fld_loss_single_point_is_zero():
    rng = np.random.default_rng(13)
    phi = models.init_mlp([3, 4, 2], "tanh", rng)
    head = models.init_mlp([2, 3], "tanh", rng)
    loss, _ = distortion.fld_loss_and_grad(phi, head, rng.normal(size=(1, 3)), [1], 2)
    assert loss == 0.0


def test_fld_grad_matches_fd():
    rng = np.random.default_rng(14)
    phi = models.init_mlp([3, 5, 3], "tanh", rng)
    head = models.init_mlp([3, 3], "tanh", rng)
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, 3, size=12)
    loss, grads = distortion.fld_loss_and_grad(phi, head, x, y, 3)

    def f(vec):
        p = models.params_with_vector(phi, vec)
        stats = distortion.pseudo_label_stats(p, head, x, y, 3, "soft")
        return fld_surrogate(stats)

    x0 = models.params_vector(phi)
    assert loss == pytest.approx(f(x0), abs=1e-12)
    fd = finite_difference(f, x0)
    analytic = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads])
    assert relative_gradient_error(analytic, fd) < 1e-4


def test_stats_csv(tmp_path):
    stats = JointLabelStats(np.array([[0.4, 0.1], [0.1, 0.4]]), kappa=4)
    path = tmp_path / "joint.csv"
    distortion.stats_to_csv(stats, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "zprime_0,zprime_1"
    assert len(lines) == 3
