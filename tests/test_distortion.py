"""Minimum-entropy coupling oracle, vertex enumeration, pseudo-label surrogate."""

import numpy as np
import pytest

from gapcraft import distortion, models, synthtasks, transport
from gapcraft import numgrad as ng
from gapcraft.distortion import fld_exact, fld_surrogate
from gapcraft.probs import entropy

from oracles import (
    conditional_pairs,
    entropy_mp,
    enumerate_polytope_vertices,
    finite_difference,
    fld_kernel,
    gathered_fld,
    hard_pseudo_label_joint,
    highs_w1,
    leaf_peel,
    masked_vertex_entropies,
    params_vector,
    params_with_vector,
    relative_gradient_error,
)


# ---------------------------------------------------------------------------
# fld_exact
# ---------------------------------------------------------------------------


def test_fld_one_hot_target_is_zero():
    res = fld_exact([0.3, 0.7], [1.0, 0.0])
    assert res.fld == 0.0
    # deterministic plan: all mass on the supported column
    assert np.allclose(fld_kernel(res.coupling, [1.0, 0.0])[:, 0], 1.0)


def test_fld_single_source_class_forces_q():
    res = fld_exact([1.0], [0.5, 0.5])
    assert res.fld == pytest.approx(np.log(2.0), abs=1e-12)
    assert np.allclose(fld_kernel(res.coupling, [0.5, 0.5]), [[0.5, 0.5]])


def test_fld_2x2_reference_value():
    # w=(0.7,0.3), q=(0.5,0.5): optimum 0.41879 nats at pi=[[0.5,0.2],[0,0.3]]
    res = fld_exact([0.7, 0.3], [0.5, 0.5])
    expected = entropy_mp([0.5, 0.2, 0.3]) - entropy_mp([0.7, 0.3])
    assert expected == pytest.approx(0.4188, abs=5e-5)
    assert res.fld == pytest.approx(expected, abs=1e-12)
    vertices = enumerate_polytope_vertices([0.7, 0.3], [0.5, 0.5])
    values = [entropy(v) - entropy([0.7, 0.3]) for v in vertices]
    assert res.fld == pytest.approx(min(values), abs=1e-12)
    assert any(np.allclose(v, [[0.5, 0.2], [0.0, 0.3]]) for v in vertices)


def test_fld_plan_reproduces_target_marginal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.dirichlet(np.ones(rng.integers(2, 5)))
        q = rng.dirichlet(np.ones(rng.integers(2, 5)))
        res = fld_exact(w, q)
        assert np.max(np.abs(w @ fld_kernel(res.coupling, q) - q)) < 1e-9


def test_fld_zero_weight_rows_get_barycentric_completion():
    res = fld_exact([0.6, 0.0, 0.4], [0.25, 0.75])
    kernel = fld_kernel(res.coupling, [0.25, 0.75])
    assert np.allclose(kernel[1], [0.25, 0.75])
    assert np.max(np.abs(np.array([0.6, 0.0, 0.4]) @ kernel - [0.25, 0.75])) < 1e-12


def test_fld_kernel_row_of_tiny_source_mass_sums_to_one():
    # source class 2 has mass 3.77e-7; the coupling row over w_2 misses 1
    # by 1.6e-10, so the kernel divides each row by its own sum
    inst = synthtasks.random_discrete_instance(955220)
    w, q = inst.source_cond[2], inst.target_cond[2]
    res = fld_exact(w, q)
    kernel = fld_kernel(res.coupling, q)
    assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-15
    live = res.coupling[:, q > 0.0]
    assert kernel[:, q > 0.0].tobytes() == (live / live.sum(axis=1, keepdims=True)).tobytes()


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
    kernel = fld_kernel(res.coupling, w[[2, 0, 1]])
    assert np.allclose(np.sort(kernel.ravel()), [0, 0, 0, 0, 0, 0, 1, 1, 1])
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
        vertices = enumerate_polytope_vertices(w, q)
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
    cells, index_t, forms = distortion._cut_table(n, m)
    for _ in range(3):
        w = rng.integers(1, 40, size=n)
        q = rng.multinomial(int(w.sum()) - m, np.full(m, 1.0 / m)) + 1
        sols = (forms @ np.concatenate([w, q[:-1]]).astype(np.float64))[index_t]
        for t in trees:
            plan = np.zeros(n * m)
            plan[cells[t]] = sols[:, t]
            plan = plan.reshape(n, m)
            assert np.array_equal(plan, leaf_peel(cells[t], w, q)), (t, w, q)
            assert np.array_equal(plan.sum(axis=1), w) and np.array_equal(plan.sum(axis=0), q)


WIDE_SHAPES = [(4, 5), (5, 4), (5, 5)]


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(1, 5) for m in range(1, 5)] + WIDE_SHAPES
)
def test_fld_matches_per_entry_feasibility_gather_bitwise(n, m):
    # 8 or more terms per tree (4x5, 5x4, 5x5) is where numpy's row sum
    # turns pairwise; the tie order there must still match
    rng = np.random.default_rng(100 * n + m)
    for w, q in conditional_pairs(n, m, 8 if (n, m) in WIDE_SHAPES else 40, rng):
        res = fld_exact(w, q)
        fld, pi = gathered_fld(w, q)
        assert res.fld == fld, (w, q)
        assert res.coupling.tobytes() == pi.tobytes(), (w, q)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_cut_table_matches_leaf_peeling_on_every_tree(n, m):
    cells, index_t, forms = distortion._cut_table(n, m)
    # Scoins' count n^(m-1) m^(n-1) for K_{n,m}; each tree once, cells increasing
    assert len(cells) == n ** (m - 1) * m ** (n - 1)
    assert len(np.unique(cells, axis=0)) == len(cells)
    assert np.all(np.diff(cells, axis=1) > 0)
    assert cells.dtype == np.int8 and index_t.dtype == np.intp
    assert index_t.shape == cells.shape[::-1] and index_t.flags.c_contiguous
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
    vertices = enumerate_polytope_vertices([1.0], [1.0])
    assert len(vertices) == 1
    assert np.allclose(vertices[0], [[1.0]])


def test_enumerate_birkhoff_corners():
    vertices = enumerate_polytope_vertices([0.5, 0.5], [0.5, 0.5])
    mats = [np.round(v / 0.5).astype(int) for v in vertices]
    assert any(np.array_equal(m, np.eye(2, dtype=int)) for m in mats)
    assert any(np.array_equal(m, np.eye(2, dtype=int)[::-1]) for m in mats)


def test_enumerate_marginals_and_support_size():
    rng = np.random.default_rng(4)
    w = rng.dirichlet(np.ones(3))
    q = rng.dirichlet(np.ones(3))
    vertices = enumerate_polytope_vertices(w, q)
    for v in vertices:
        assert np.max(np.abs(v.sum(axis=1) - w)) < 1e-9
        assert np.max(np.abs(v.sum(axis=0) - q)) < 1e-9
        assert int((v > 1e-12).sum()) <= 5


def test_enumerate_covers_lp_optima():
    """50 random linear objectives: LP optimum always equals a vertex value."""
    rng = np.random.default_rng(5)
    w = rng.dirichlet(np.ones(3))
    q = rng.dirichlet(np.ones(3))
    vertices = enumerate_polytope_vertices(w, q)
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


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_vertex_entropies_match_masked_reference(n, m):
    """Retiring a line by writing -1 over its priorities picks the same
    cells as rebuilding the live mask: equal entropies bit for bit, with
    and without zero masses, and the same generator state afterwards."""
    rng = np.random.default_rng(40 + 10 * n + m)
    w, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
    w0, q0 = w.copy(), q.copy()
    w0[rng.integers(n)] = 0.0
    q0[rng.integers(m)] = 0.0
    w0, q0 = w0 / w0.sum(), q0 / q0.sum()
    for a, b in ((w, q), (w0, q), (w, q0), (w0, q0)):
        seed = int(rng.integers(2**31))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = distortion.random_vertex_entropies(a, b, 400, ours)
        ref = masked_vertex_entropies(a, b, 400, theirs)
        assert got.tobytes() == ref.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


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
    p = models.predict_source(head, models.embed(phi, x))
    hard = hard_pseudo_label_joint(p, y, 2, seed=0)
    soft = distortion.pseudo_label_stats(phi, head, x, y, 2)
    assert np.allclose(hard, soft, atol=1e-12)


def test_stats_uniform_head_balanced_targets():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(100, 3))
    y = np.array([0, 1] * 50)
    phi = _identity_embedder(3)
    zero_head = models.MlpParams(
        (models.Layer(np.zeros((3, 2)), np.zeros((1, 2)), "linear"),)
    )
    soft = distortion.pseudo_label_stats(phi, zero_head, x, y, 2)
    assert np.allclose(soft, 0.25)


def test_stats_hard_concentrates_to_soft():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(64, 3))
    y = rng.integers(0, 3, size=64)
    phi = _identity_embedder(3)
    head = models.init_mlp([3, 3], rng)
    soft = distortion.pseudo_label_stats(phi, head, x, y, 3)
    p = models.predict_source(head, models.embed(phi, x))
    acc = np.zeros_like(soft)
    n_rounds = 10_000
    for s in range(n_rounds):
        acc += hard_pseudo_label_joint(p, y, 3, seed=s)
    assert np.max(np.abs(acc / n_rounds - soft)) < 0.02


def test_stats_hard_last_class_takes_cumsum_shortfall():
    """A draw above a row's rounded-down cumsum lands in the last class,
    not one past it."""
    n = 40
    p = np.full((n, 2), 0.25)  # rows sum to 0.5, far below any draw near 1
    joint = hard_pseudo_label_joint(p, np.zeros(n, dtype=np.int64), 2, seed=0)
    draws = np.random.default_rng(0).random(n)  # the draws the sampler makes
    assert np.any(draws > 0.5)
    above = draws > 0.25
    assert np.array_equal(joint, [[np.mean(~above), 0.0], [np.mean(above), 0.0]])


def test_stats_rejects_empty_and_out_of_range():
    phi = _identity_embedder(2)
    head = models.init_mlp([2, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        distortion.pseudo_label_stats(phi, head, np.zeros((0, 2)), [], 2)
    with pytest.raises(ValueError):
        distortion.pseudo_label_stats(phi, head, np.zeros((2, 2)), [0, 5], 2)


@pytest.mark.parametrize("fn", [distortion.pseudo_label_stats, distortion.fld_loss_and_grad],
                         ids=lambda fn: fn.__name__)
def test_target_batch_errors_name_their_caller(fn):
    """Both target-batch readers reject an empty batch, a label count that
    is not the row count, and labels outside the target classes."""
    phi = _identity_embedder(2)
    head = models.init_mlp([2, 2], np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(10, 2))
    for rows, labels, message in [
        (x[:0], [], "0 target rows for 0 labels"),
        (x, [0, 1] * 3 + [0], "10 target rows for 7 labels"),
        (x, [0, 1] * 4 + [0, 2], r"target labels must lie in \[0, 2\)"),
    ]:
        with pytest.raises(ValueError, match=rf"^{fn.__name__}: {message}$"):
            fn(phi, head, rows, labels, 2)


# ---------------------------------------------------------------------------
# fld_surrogate
# ---------------------------------------------------------------------------


def test_surrogate_independent_joint_is_target_entropy():
    w = np.array([0.3, 0.7])
    q = np.array([0.2, 0.5, 0.3])
    assert fld_surrogate(np.outer(w, q)) == pytest.approx(entropy(q), abs=1e-12)


def test_surrogate_diagonal_joint_is_zero():
    assert fld_surrogate(np.diag([0.25, 0.35, 0.4])) == 0.0


def test_surrogate_reference_value():
    joint = np.array([[0.4, 0.1], [0.1, 0.4]])
    expected = entropy_mp([0.4, 0.1, 0.1, 0.4]) - entropy_mp([0.5, 0.5])
    assert expected == pytest.approx(0.5004, abs=5e-5)
    assert fld_surrogate(joint) == pytest.approx(expected, abs=1e-12)


def test_surrogate_range():
    rng = np.random.default_rng(10)
    for _ in range(50):
        j = rng.dirichlet(np.ones(6)).reshape(2, 3)
        val = fld_surrogate(j)
        assert 0.0 <= val <= np.log(3) + 1e-12


@pytest.mark.parametrize(
    "joint",
    [
        [[0.5, 0.25], [0.25, 0.25]],  # mass 1.25
        [[0.6, -0.1], [0.25, 0.25]],  # negative entry
        [[np.nan, 0.5], [0.25, 0.25]],
        [0.5, 0.5],  # not 2-D
    ],
    ids=["mass", "negative", "nan", "one_dim"],
)
def test_surrogate_rejects_a_joint_that_is_not_a_distribution(joint):
    with pytest.raises(ValueError):
        fld_surrogate(joint)


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
        assert e_exact <= fld_surrogate(joint) + 1e-9


# ---------------------------------------------------------------------------
# fld_loss_and_grad
# ---------------------------------------------------------------------------


def test_fld_grad_zero_for_constant_head():
    rng = np.random.default_rng(12)
    phi = models.init_mlp([3, 4, 2], rng)
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
    phi = models.init_mlp([3, 4, 2], rng)
    head = models.init_mlp([2, 3], rng)
    loss, _ = distortion.fld_loss_and_grad(phi, head, rng.normal(size=(1, 3)), [1], 2)
    assert loss == 0.0


def test_fld_grad_matches_fd():
    """The loss is the surrogate of pseudo_label_stats' joint, bit for bit,
    on a batch with every target class and on one missing class 1."""
    rng = np.random.default_rng(14)
    phi = models.init_mlp([3, 5, 3], rng)
    head = models.init_mlp([3, 3], rng)
    x = rng.normal(size=(12, 3))
    y_all = rng.integers(0, 3, size=12)
    for y in (y_all, np.where(y_all == 1, 2, y_all)):
        loss, grads = distortion.fld_loss_and_grad(phi, head, x, y, 3)

        def f(vec):
            p = params_with_vector(phi, vec)
            return fld_surrogate(distortion.pseudo_label_stats(p, head, x, y, 3))

        x0 = params_vector(phi)
        assert loss == f(x0)
        fd = finite_difference(f, x0)
        analytic = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads])
        assert relative_gradient_error(analytic, fd) < 1e-4
