"""Cost matrices, Sinkhorn vs the exact LP, and the alignment loss."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapcraft import models
from gapcraft import numgrad as ng
from gapcraft import transport
from gapcraft.transport import CapabilityError, SinkhornConfig, SolverError

from oracles import (
    finite_difference,
    highs_w1,
    random_lipschitz_function,
    relative_gradient_error,
    sinkhorn_rebuilding_plan,
)


def random_simplex(rng, k):
    return rng.dirichlet(np.ones(k))


# ---------------------------------------------------------------------------
# cost_matrix
# ---------------------------------------------------------------------------


def test_cost_single_identical_point():
    u = np.array([[1.0, 2.0]])
    assert np.allclose(transport.cost_matrix(u, u), [[0.0]])


def test_cost_3_4_5_triangle():
    assert np.allclose(transport.cost_matrix([[0.0, 0.0]], [[3.0, 4.0]]), [[5.0]])


def test_cost_matches_direct_recomputation():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(4, 3))
    v = rng.normal(size=(3, 3))
    c = transport.cost_matrix(u, v)
    for i in range(4):
        for j in range(3):
            expected = np.sqrt(((u[i] - v[j]) ** 2).sum())
            assert abs(c[i, j] - expected) < 1e-12
    # symmetry under swapping arguments and transposing
    assert np.allclose(transport.cost_matrix(v, u), c.T)
    assert np.all(c >= 0.0)


def test_cost_dimension_mismatch():
    with pytest.raises(ng.DimensionError):
        transport.cost_matrix(np.ones((2, 3)), np.ones((2, 4)))


# ---------------------------------------------------------------------------
# exact_w1
# ---------------------------------------------------------------------------


def test_exact_point_mass_to_point_mass():
    cost = np.array([[2.5]])
    coupling, w1 = transport.exact_w1(cost, [1.0], [1.0])
    assert w1 == pytest.approx(2.5)
    assert np.allclose(coupling.pi, [[1.0]])


def test_exact_2x2_identity_matching():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    coupling, w1 = transport.exact_w1(cost, [0.5, 0.5], [0.5, 0.5])
    assert w1 == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(coupling.pi, np.diag([0.5, 0.5]))


def test_exact_matches_vertex_enumeration_5x5():
    from gapcraft.distortion import enumerate_polytope_vertices

    rng = np.random.default_rng(42)
    for _ in range(5):
        cost = rng.random((5, 5))
        mu = random_simplex(rng, 5)
        nu = random_simplex(rng, 5)
        coupling, w1 = transport.exact_w1(cost, mu, nu)
        coupling.validate(1e-8)
        assert int((coupling.pi > 1e-12).sum()) <= 9
        vertex_min = min(
            float((v * cost).sum()) for v in enumerate_polytope_vertices(mu, nu)
        )
        assert w1 == pytest.approx(vertex_min, abs=1e-9)


def test_exact_oversize_rejected():
    with pytest.raises(CapabilityError):
        transport.exact_w1(np.ones((65, 2)), np.full(65, 1 / 65), [0.5, 0.5])


# Property tests against HiGHS: deterministic, so Tier-1 stays repeatable.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def assert_matches_highs(cost, mu, nu):
    """Value within 1e-12 relative of the LP, a feasible vertex plan, and a
    dual value from the LP's optimal potentials that stays below it."""
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    coupling, w1 = transport.exact_w1(cost, mu, nu)
    _, lp, g = highs_w1(cost, mu, nu)
    assert abs(w1 - lp) <= 1e-12 * max(1.0, abs(lp))
    coupling.validate(atol=1e-12)
    assert int(np.count_nonzero(coupling.pi)) <= n + m - 1
    assert transport.dual_lower_bound(cost, mu, nu, g) <= w1 + 1e-12 * max(1.0, abs(w1))


@st.composite
def marginal(draw, k):
    """A distribution on k atoms; integer weights make ties and exact zeros."""
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)), float)
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, k - 1))] = 1.0
    if draw(st.booleans()):  # break the ties on the nonzero atoms
        weights *= draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k))
    return weights / weights.sum()


@st.composite
def transport_problem(draw, rows=st.integers(1, 64), cols=st.integers(1, 64)):
    n, m = draw(rows), draw(cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["euclidean", "tied", "negative"]))
    if kind == "euclidean":
        cost = transport.cost_matrix(rng.normal(size=(n, 2)), rng.normal(size=(m, 2)))
    elif kind == "tied":
        cost = rng.integers(0, 3, size=(n, m)).astype(float)
    else:
        cost = rng.normal(scale=10.0, size=(n, m))
    return cost, draw(marginal(n)), draw(marginal(m))


def _euclidean_problem(n, m, seed):
    rng = np.random.default_rng(seed)
    cost = transport.cost_matrix(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)))
    return cost, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))


@PROPERTY
@given(transport_problem())
@example(_euclidean_problem(64, 64, 0))
@example(_euclidean_problem(64, 17, 1))
@example((np.arange(64.0).reshape(8, 8), np.full(8, 1 / 8), np.full(8, 1 / 8)))
def test_exact_w1_matches_highs(problem):
    """n != m, sizes up to 64, zero masses, tied and negative costs."""
    assert_matches_highs(*problem)


@PROPERTY
@given(st.one_of(
    transport_problem(rows=st.just(1)), transport_problem(cols=st.just(1))
))
def test_exact_w1_single_row_or_column(problem):
    assert_matches_highs(*problem)


@PROPERTY
@given(st.integers(1, 64).flatmap(lambda k: st.tuples(st.just(k), marginal(k))),
       st.sampled_from(["discrete", "line"]))
def test_exact_w1_equal_marginals_identity_like_cost(k_and_mu, metric):
    """Every basis is degenerate here: the optimum is the diagonal at 0."""
    k, mu = k_and_mu
    idx = np.arange(k, dtype=float)
    cost = 1.0 - np.eye(k) if metric == "discrete" else np.abs(idx[:, None] - idx[None, :])
    coupling, w1 = transport.exact_w1(cost, mu, mu)
    assert w1 == 0.0
    assert np.array_equal(coupling.pi, np.diag(mu))
    assert_matches_highs(cost, mu, mu)


def test_greedy_basis_is_strongly_feasible():
    """Unit masses on every row and column tie at every step; Orden's
    tie-break must still leave every zero-flow edge pointing to the root (a
    row under its column), the invariant that keeps the simplex from
    cycling."""
    rng = np.random.default_rng(0)
    for k in (2, 3, 5, 8):
        mass = [1] * (2 * k)
        for _ in range(20):
            cost = rng.integers(0, 3, size=(k, k)).astype(float)
            parent, children = transport._least_cost_tree(cost, mass, k)
            order = transport._preorder(children, k)
            assert sorted(order) == list(range(2 * k))
            flow = transport._peel(order, parent, mass)
            assert all(x < k for x in order[1:] if flow[x] == 0)


def test_exact_w1_absorbs_rounding_imbalance_in_heaviest_column():
    """Marginals may sum to 1 within 1e-8.  The imbalance lands on the
    heaviest column, so a column lighter than it keeps a nonnegative plan."""
    mu = [0.5, 0.5 + 5e-9]
    nu = [1.0 - 1e-12, 1e-12]
    coupling, w1 = transport.exact_w1([[0.0, 1.0], [2.0, 0.0]], mu, nu)
    assert coupling.pi.min() >= 0.0
    assert np.allclose(coupling.pi.sum(axis=1), mu, rtol=0.0, atol=1e-15)
    assert coupling.pi[:, 1].sum() == pytest.approx(1e-12, rel=1e-12)
    assert w1 == pytest.approx(2.0 * (0.5 + 5e-9 - 1e-12), rel=1e-12)


def test_exact_w1_uncertified_plan_raises(monkeypatch):
    """A plan that misses its marginals is a solver failure, not a result."""
    monkeypatch.setattr(transport, "_transport_simplex", lambda c, a, b: np.zeros_like(c))
    with pytest.raises(SolverError, match="marginals"):
        transport.exact_w1(np.ones((2, 2)), [0.5, 0.5], [0.5, 0.5])


def test_exact_w1_pivot_guard_raises(monkeypatch):
    """A simplex that keeps pivoting past its guard reports it, not a plan."""
    monkeypatch.setattr(transport, "_PIVOT_GUARD", 0)
    with pytest.raises(SolverError, match="pivots"):
        transport.exact_w1(*_euclidean_problem(16, 16, 0))


def test_metric_axioms_on_shared_support():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(6, 2))
    cost = transport.cost_matrix(points, points)
    for _ in range(10):
        mu = random_simplex(rng, 6)
        nu = random_simplex(rng, 6)
        rho = random_simplex(rng, 6)
        _, d_mn = transport.exact_w1(cost, mu, nu)
        _, d_nm = transport.exact_w1(cost, nu, mu)
        _, d_mm = transport.exact_w1(cost, mu, mu)
        _, d_mr = transport.exact_w1(cost, mu, rho)
        _, d_rn = transport.exact_w1(cost, rho, nu)
        assert d_mm == pytest.approx(0.0, abs=1e-9)
        assert d_mn == pytest.approx(d_nm, abs=1e-9)
        assert d_mn <= d_mr + d_rn + 1e-9


def test_kantorovich_duality_spot_check():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(5, 3))
    cost = transport.cost_matrix(points, points)
    for _ in range(20):
        mu = random_simplex(rng, 5)
        nu = random_simplex(rng, 5)
        _, w1 = transport.exact_w1(cost, mu, nu)
        f = random_lipschitz_function(points, rng)
        assert f @ mu - f @ nu <= w1 + 1e-9


# ---------------------------------------------------------------------------
# sinkhorn
# ---------------------------------------------------------------------------


def test_sinkhorn_self_distance_near_zero():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(8, 2))
    cost = transport.cost_matrix(pts, pts)
    res = transport.sinkhorn(
        cost, np.full(8, 1 / 8), np.full(8, 1 / 8), SinkhornConfig(epsilon=0.01)
    )
    assert res.w1_estimate <= 0.02 * float(cost.mean())


def test_sinkhorn_two_point_line():
    # uniform on {0,1} vs uniform on {0,2}: exact W1 = 0.5
    u = np.array([[0.0], [1.0]])
    v = np.array([[0.0], [2.0]])
    cost = transport.cost_matrix(u, v)
    res = transport.sinkhorn(
        cost, [0.5, 0.5], [0.5, 0.5], SinkhornConfig(epsilon=0.01, max_iter=5000)
    )
    _, w1 = transport.exact_w1(cost, [0.5, 0.5], [0.5, 0.5])
    assert w1 == pytest.approx(0.5, abs=1e-9)
    assert abs(res.w1_estimate - 0.5) < 0.05


def test_sinkhorn_16x16_marginals_and_upper_bound():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(16, 4))
    v = rng.normal(size=(16, 4))
    cost = transport.cost_matrix(u, v)
    mu = random_simplex(rng, 16)
    nu = random_simplex(rng, 16)
    res = transport.sinkhorn(cost, mu, nu, SinkhornConfig(epsilon=0.1, max_iter=5000))
    assert res.converged
    assert res.coupling.marginal_violation() < 1e-7
    _, w1 = transport.exact_w1(cost, mu, nu)
    # any (near-)feasible plan's cost upper-bounds the LP optimum
    assert res.w1_estimate >= w1 - 1e-6


def test_sinkhorn_gap_shrinks_with_epsilon():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(8, 2))
    v = rng.normal(size=(8, 2))
    cost = transport.cost_matrix(u, v)
    mu = random_simplex(rng, 8)
    nu = random_simplex(rng, 8)
    _, w1 = transport.exact_w1(cost, mu, nu)
    gaps = []
    for eps in (0.5, 0.1, 0.02, 0.004):
        res = transport.sinkhorn(cost, mu, nu, SinkhornConfig(eps, max_iter=200_000, tol=1e-9))
        gaps.append(abs(res.w1_estimate - w1))
    assert all(gaps[i + 1] <= gaps[i] + 1e-9 for i in range(3))


def test_sinkhorn_nonconvergence_flag():
    rng = np.random.default_rng(9)
    cost = rng.random((12, 12))
    mu = random_simplex(rng, 12)
    nu = random_simplex(rng, 12)
    res = transport.sinkhorn(cost, mu, nu, SinkhornConfig(epsilon=0.004, max_iter=2))
    assert not res.converged
    assert np.all(np.isfinite(res.coupling.pi))


def test_sinkhorn_log_domain_small_epsilon_no_nan():
    u = np.array([[0.0], [10.0], [20.0]])
    cost = transport.cost_matrix(u, u + 0.5)
    res = transport.sinkhorn(
        cost, np.full(3, 1 / 3), np.full(3, 1 / 3), SinkhornConfig(epsilon=0.004, max_iter=50000)
    )
    assert np.all(np.isfinite(res.coupling.pi))
    assert res.converged


def _sinkhorn_case(rows, cols, seed, zero_rows=0, zero_cols=0, uniform=False):
    """Euclidean costs between seeded point clouds and their marginals, the
    first ``zero_rows`` / ``zero_cols`` atoms carrying no mass."""
    rng = np.random.default_rng(seed)
    cost = transport.cost_matrix(rng.normal(size=(rows, 4)), rng.normal(size=(cols, 4)) + 0.3)
    if uniform:
        return cost, np.full(rows, 1.0 / rows), np.full(cols, 1.0 / cols)
    mu, nu = random_simplex(rng, rows), random_simplex(rng, cols)
    mu[:zero_rows] = 0.0
    nu[:zero_cols] = 0.0
    return cost, mu / mu.sum(), nu / nu.sum()


SINKHORN_ORACLE_CASES = {
    # name: (case arguments, (epsilon, max_iter, tol))
    "random_default": ((12, 20, 40), (0.1, 1000, 1e-7)),
    "pipeline_shape": ((48, 240, 41, 0, 0, True), (0.1, 500, 1e-6)),
    "small_epsilon": ((10, 14, 42), (0.01, 20000, 1e-8)),
    "zero_mass_atoms": ((9, 11, 43, 2, 3), (0.05, 5000, 1e-9)),
    "hits_max_iter": ((16, 16, 44), (0.004, 40, 1e-7)),
    "single_iteration": ((5, 7, 45), (0.1, 1, 1e-7)),
    "tol_1e-12": ((16, 24, 46, 1, 0), (0.1, 3000, 1e-12)),
    "tol_1e-3": ((16, 24, 47, 0, 2), (0.1, 1000, 1e-3)),
}


@pytest.mark.parametrize("name", sorted(SINKHORN_ORACLE_CASES))
def test_sinkhorn_matches_plan_rebuilding_loop_bitwise(name):
    """Stopping on the cheap row estimate, confirmed by one rebuild, returns
    what rebuilding the plan at every iteration returns, bit for bit."""
    args, (eps, max_iter, tol) = SINKHORN_ORACLE_CASES[name]
    cost, mu, nu = _sinkhorn_case(*args)
    res = transport.sinkhorn(cost, mu, nu, SinkhornConfig(eps, max_iter, tol))
    ref = sinkhorn_rebuilding_plan(cost, mu, nu, eps, max_iter, tol)
    assert res.coupling.pi.tobytes() == ref["plan"].tobytes()
    assert res.w1_estimate == ref["w1_estimate"]
    assert (res.converged, res.n_iter) == (ref["converged"], ref["n_iter"])
    assert res.violation == ref["violation"]
    assert res.potential_f.tobytes() == ref["potential_f"].tobytes()
    assert res.potential_g.tobytes() == ref["potential_g"].tobytes()
    if name in ("hits_max_iter", "single_iteration"):
        assert not res.converged and res.n_iter == max_iter


def test_dual_lower_bound_never_exceeds_exact():
    rng = np.random.default_rng(13)
    for _ in range(10):
        u = rng.normal(size=(6, 2))
        v = rng.normal(size=(7, 2))
        cost = transport.cost_matrix(u, v)
        mu = random_simplex(rng, 6)
        nu = random_simplex(rng, 7)
        res = transport.sinkhorn(cost, mu, nu, SinkhornConfig(epsilon=0.05, max_iter=5000))
        _, w1 = transport.exact_w1(cost, mu, nu)
        lb = transport.dual_lower_bound(cost, mu, nu, res.potential_g)
        assert lb <= w1 + 1e-9


# ---------------------------------------------------------------------------
# fa_loss_and_grad
# ---------------------------------------------------------------------------


def _toy_embedders(seed=0):
    rng = np.random.default_rng(seed)
    phi = models.init_mlp([3, 6, 4], "tanh", rng)
    theta = models.init_mlp([3, 6, 4], "tanh", rng)
    return phi, theta


def test_fa_aligned_case():
    rng = np.random.default_rng(2)
    phi, _ = _toy_embedders()
    batch = rng.normal(size=(10, 3))
    loss, grads, res = transport.fa_loss_and_grad(
        phi, phi, batch, batch, omega=1.0, cfg=SinkhornConfig(epsilon=0.01, max_iter=5000)
    )
    # identical clouds: loss is only the entropic bias, gradient nearly flat
    assert loss < 0.05
    gnorm = np.sqrt(sum(float((gw**2).sum() + (gb**2).sum()) for gw, gb in grads))
    assert gnorm < 1e-3


def test_fa_omega_zero():
    rng = np.random.default_rng(3)
    phi, theta = _toy_embedders()
    loss, grads, res = transport.fa_loss_and_grad(
        phi, theta, rng.normal(size=(5, 3)), rng.normal(size=(6, 3)), omega=0.0
    )
    assert loss == 0.0
    assert res is None
    assert all(np.all(gw == 0.0) and np.all(gb == 0.0) for gw, gb in grads)


def test_fa_fixed_coupling_gradient_matches_fd():
    rng = np.random.default_rng(4)
    phi, theta = _toy_embedders(seed=5)
    target = rng.normal(size=(6, 3))
    source = rng.normal(size=(7, 3))
    omega = 0.7
    cfg = SinkhornConfig(epsilon=0.1, max_iter=2000)
    loss, grads, res = transport.fa_loss_and_grad(phi, theta, target, source, omega, cfg)
    pi = res.coupling.pi
    v = models.embed(theta, source)

    def fixed_coupling_loss(vec):
        p = models.params_with_vector(phi, vec)
        u = models.embed(p, target)
        c = transport.cost_matrix(u, v)
        return omega * float((pi * c).sum())

    x0 = models.params_vector(phi)
    assert loss == pytest.approx(fixed_coupling_loss(x0), rel=1e-12)
    fd = finite_difference(fixed_coupling_loss, x0)
    analytic = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads])
    assert relative_gradient_error(analytic, fd) < 1e-4


def test_coupling_csv_roundtrip(tmp_path):
    coupling, _ = transport.exact_w1(
        np.array([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5], [0.5, 0.5]
    )
    path = tmp_path / "plan.csv"
    transport.coupling_to_csv(coupling, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "row,col,mass"
    assert len(rows) == 3  # header + two diagonal cells
