"""Pointwise source loss, feature gradients, recalibration, omega sweep."""

from dataclasses import replace

import numpy as np
import pytest

from gapcraft import lipschitz, models
from gapcraft.lipschitz import LipschitzConfig
from gapcraft.numgrad import Tape
from gapcraft.probs import softmax

from oracles import (
    finite_difference,
    recalibration_loss_and_grad,
    recalibration_lower_stack,
    relative_gradient_error,
)


def _lower_stack(head, u):
    """The lower stack of ``head`` at ``u``, read from one recorded forward."""
    tape = Tape()
    models.mlp_apply(head, u, tape)
    return lipschitz._lower_stack(tape)


def _blob_task(seed=0, n=120, k=3, d=4):
    """Well-separated Gaussian blobs plus a trained-ish linear head."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=3.0, size=(k, d))
    y = rng.integers(0, k, size=n)
    x = means[y] + rng.normal(scale=0.6, size=(n, d))
    theta = models.init_mlp([d, 8, 4], "tanh", rng)
    head = models.init_mlp([4, k], "tanh", rng)
    return x, y, theta, head


def _saturated_head(k):
    return models.MlpParams(
        (models.Layer(np.eye(k) * 500.0, np.zeros((1, k)), "linear"),)
    )


def test_loss_zero_for_perfect_onehot_prediction():
    head = _saturated_head(3)
    u = np.eye(3)[1:2]
    loss = lipschitz.source_pointwise_loss(head, u, np.array([[0.0, 1.0, 0.0]]))
    assert loss == 0.0


def test_loss_uniform_predictor_is_log_k():
    head = models.MlpParams(
        (models.Layer(np.zeros((4, 5)), np.zeros((1, 5)), "linear"),)
    )
    rng = np.random.default_rng(0)
    for _ in range(5):
        cond = rng.dirichlet(np.ones(5))
        loss = lipschitz.source_pointwise_loss(head, rng.normal(size=4), cond)
        assert loss == pytest.approx(np.log(5.0), abs=1e-12)


def test_loss_matches_direct_cross_entropy():
    rng = np.random.default_rng(1)
    head = models.init_mlp([4, 6, 3], "tanh", rng)
    u = rng.normal(size=(7, 4))
    d = rng.dirichlet(np.ones(3), size=7)
    losses, clamped = lipschitz.pointwise_losses(head, u, d)
    assert not clamped
    p = models.predict_source(head, u)
    direct = -(d * np.log(p)).sum(axis=1)
    assert np.allclose(losses, direct, atol=1e-12)
    assert np.all(losses >= 0.0)


def test_loss_clamps_and_flags_zero_predictions():
    head = _saturated_head(2)  # predicts class 0 with probability exactly 1
    u = np.array([[1.0, 0.0]])
    losses, clamped = lipschitz.pointwise_losses(head, u, np.array([[0.0, 1.0]]))
    assert clamped
    assert losses[0] == pytest.approx(-np.log(1e-12))


def test_feature_gradients_match_fd_in_u():
    rng = np.random.default_rng(2)
    for depth in ([4, 3], [4, 6, 3]):
        head = models.init_mlp(depth, "tanh", rng)
        u0 = rng.normal(size=4)
        d = rng.dirichlet(np.ones(3))
        analytic = lipschitz.feature_gradients(head, u0[None, :], d[None, :])[0]
        fd = finite_difference(
            lambda v: lipschitz.source_pointwise_loss(head, v, d), u0
        )
        assert relative_gradient_error(analytic, fd) < 1e-4


def test_penalty_matches_linear_head_closed_form():
    """One-layer softmax head: grad_u = W(p - d); hinge evaluated by hand."""
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 3))
    head = models.MlpParams((models.Layer(w, rng.normal(size=(1, 3)), "linear"),))
    u = rng.normal(size=(20, 4))
    d = np.eye(3)[rng.integers(0, 3, size=20)]
    omega = 0.5
    p = models.predict_source(head, u)
    norms = np.linalg.norm((p - d) @ w.T, axis=1)
    expected = np.mean(np.maximum(norms - omega, 0.0) ** 2)
    assert lipschitz.penalty_value(head, u, d, omega) == pytest.approx(expected, abs=1e-12)


def test_recalibration_gradient_matches_fd_through_lower_stack():
    """Closed-form (W, b) gradient of penalty_weight * penalty + proxy
    cross-entropy for a two-layer head (non-identity lower Jacobians) at an
    inner enforcement margin, against central differences."""
    rng = np.random.default_rng(14)
    head = models.init_mlp([4, 5, 3], "tanh", rng)
    last = models.Layer(head.layers[-1].w * 8.0, rng.normal(size=(1, 3)), "linear")
    head = models.MlpParams(head.layers[:-1] + (last,))
    u = rng.normal(size=(12, 4))
    d = np.eye(3)[rng.integers(0, 3, size=12)]
    norms = np.sort(np.linalg.norm(lipschitz.feature_gradients(head, u, d), axis=1))
    threshold = 0.5 * (norms[5] + norms[6])  # half the rows above, clear of kinks
    cfg = LipschitzConfig(omega=threshold / 0.8, penalty_weight=10.0, enforcement_margin=0.8)
    h, jac = _lower_stack(head, u)
    objective, row_norms, (gw, gb) = lipschitz._recalibration_loss_and_grad(
        last.w, last.b, h, jac, d, cfg
    )

    def f(vec):
        patched = models.MlpParams(
            head.layers[:-1]
            + (models.Layer(vec[: last.w.size].reshape(last.w.shape),
                            vec[last.w.size :].reshape(1, -1), "linear"),)
        )
        return 10.0 * lipschitz.penalty_value(patched, u, d, threshold) + float(
            lipschitz.pointwise_losses(patched, u, d)[0].mean()
        )

    x0 = np.concatenate([last.w.ravel(), last.b.ravel()])
    assert np.sort(row_norms) == pytest.approx(norms, abs=1e-14)
    assert objective == pytest.approx(f(x0), abs=1e-12)
    fd = finite_difference(f, x0)
    assert relative_gradient_error(np.concatenate([gw.ravel(), gb.ravel()]), fd) < 1e-4


REFERENCE_HEADS = {"one_layer": [4, 3], "two_layer_tanh": [4, 6, 3]}


def _sharp_reference_setup(dims, seed):
    """A head whose last layer is scaled up so the hinge is active on most
    rows, its proxy features and one-hot labels."""
    x, y, theta, _ = _blob_task(seed=seed)
    rng = np.random.default_rng(seed)
    head = models.init_mlp(dims, "tanh", rng)
    last = models.Layer(head.layers[-1].w * 6.0, rng.normal(size=(1, 3)), "linear")
    head = models.MlpParams(head.layers[:-1] + (last,))
    return head, x, y, theta, models.embed(theta, x), np.eye(3)[y]


@pytest.mark.parametrize("name", sorted(REFERENCE_HEADS))
def test_lower_stack_matches_reference_bitwise(name):
    """The lower stack read from the forward's tape equals the reference's
    recomputed activations and Jacobians; a one-layer head has no Jacobian
    where the reference carries an explicit identity."""
    head, _, _, _, u, _ = _sharp_reference_setup(REFERENCE_HEADS[name], seed=23)
    h, jac = _lower_stack(head, u)
    h_ref, jac_ref = recalibration_lower_stack([(l.w, l.b, l.act) for l in head.layers], u)
    assert h.shape == h_ref.shape and h.tobytes() == h_ref.tobytes()
    if len(head.layers) == 1:
        assert jac is None
        assert np.array_equal(jac_ref, np.broadcast_to(np.eye(u.shape[1]), jac_ref.shape))
    else:
        assert jac.shape == jac_ref.shape and jac.tobytes() == jac_ref.tobytes()


def test_penalty_value_rejects_overflowed_hidden_pre_activation():
    """Layer 1's pre-activation is 1e200 * 1e200 = inf; tanh would saturate
    it, but the one head forward behind the penalty checks it."""
    layers = (
        models.Layer(np.array([[1e200]]), np.zeros((1, 1)), "linear"),
        models.Layer(np.array([[1e200]]), np.zeros((1, 1)), "tanh"),
        models.Layer(np.array([[1.0, -1.0]]), np.zeros((1, 2)), "linear"),
    )
    head = models.MlpParams(layers)
    with pytest.raises(FloatingPointError, match="layer 1"):
        lipschitz.penalty_value(head, [[1.0]], [[1.0, 0.0]], 0.3)


@pytest.mark.parametrize("name", sorted(REFERENCE_HEADS))
def test_recalibration_step_matches_reference_bitwise(name):
    """Objective, norms and (gw, gb) equal the reference step's bit for bit:
    skipping the identity Jacobian of an empty lower stack and sharing one
    shift, exp and sum between softmax and log-softmax change no bit."""
    dims = REFERENCE_HEADS[name]
    head, _, _, _, u, d = _sharp_reference_setup(dims, seed=21)
    cfg = LipschitzConfig(omega=0.3, penalty_weight=10.0, enforcement_margin=0.8)
    h, jac = _lower_stack(head, u)
    assert (jac is None) == (len(dims) == 2)
    h_ref, jac_ref = recalibration_lower_stack([(l.w, l.b, l.act) for l in head.layers], u)
    assert h.tobytes() == h_ref.tobytes()
    last = head.layers[-1]
    objective, norms, (gw, gb) = lipschitz._recalibration_loss_and_grad(
        last.w, last.b, h, jac, d, cfg
    )
    ref_objective, ref_norms, (ref_gw, ref_gb) = recalibration_loss_and_grad(
        last.w, last.b, h_ref, jac_ref, d, cfg.omega, cfg.penalty_weight, cfg.enforcement_margin
    )
    threshold = cfg.omega * cfg.enforcement_margin
    assert np.any(norms > threshold) and np.any(norms < threshold)  # both hinge branches
    assert objective == ref_objective
    assert norms.tobytes() == ref_norms.tobytes()
    assert gw.tobytes() == ref_gw.tobytes()
    assert gb.tobytes() == ref_gb.tobytes()


@pytest.mark.parametrize("name, grad_clip", [("one_layer", 150.0), ("two_layer_tanh", 33.0)])
def test_recalibrate_head_matches_reference_loop(name, grad_clip):
    """20 epochs of recalibrate_head equal a loop driven by the reference
    step: the same head bytes and the same penalty history."""
    head, x, y, theta, u, d = _sharp_reference_setup(REFERENCE_HEADS[name], seed=22)
    cfg = LipschitzConfig(omega=0.3, penalty_weight=10.0, epochs=20, lr=0.01,
                          grad_clip=grad_clip, enforcement_margin=0.8)
    result = lipschitz.recalibrate_head(head, theta, x, y, cfg)

    h, jac = recalibration_lower_stack([(l.w, l.b, l.act) for l in head.layers], u)
    w, b = head.layers[-1].w, head.layers[-1].b

    def step(w, b):
        return recalibration_loss_and_grad(
            w, b, h, jac, d, cfg.omega, cfg.penalty_weight, cfg.enforcement_margin
        )

    def penalty(norms):
        return float(np.mean(np.maximum(norms - cfg.omega, 0.0) ** 2))

    history, clipped = [], 0
    for _ in range(cfg.epochs):
        _, norms, (gw, gb) = step(w, b)
        history.append(penalty(norms))
        gnorm = float(np.sqrt((gw * gw).sum() + (gb * gb).sum()))
        if gnorm > cfg.grad_clip:
            clipped += 1
            gw = gw * (cfg.grad_clip / gnorm)
            gb = gb * (cfg.grad_clip / gnorm)
        w = w - cfg.lr * gw
        b = b - cfg.lr * gb
    history.append(penalty(step(w, b)[1]))

    assert 0 < clipped < cfg.epochs  # the clip is exercised both ways
    assert result.initial_penalty == history[0]
    assert result.final_penalty == history[-1]
    assert result.penalty_history == tuple(history)
    last = result.head.layers[-1]
    assert last.w.tobytes() == w.tobytes() and last.b.tobytes() == b.tobytes()
    assert result.head.layers[:-1] == head.layers[:-1]


def test_penalty_zero_when_norms_below_omega():
    rng = np.random.default_rng(4)
    head = models.init_mlp([4, 3], "tanh", rng)
    u = rng.normal(size=(10, 4))
    d = np.eye(3)[rng.integers(0, 3, size=10)]
    norms = np.linalg.norm(lipschitz.feature_gradients(head, u, d), axis=1)
    assert lipschitz.penalty_value(head, u, d, float(norms.max()) + 1e-9) == 0.0


def test_recalibrate_inactive_constraint_is_noop():
    x, y, theta, head = _blob_task()
    cfg = LipschitzConfig(omega=1e9, epochs=10, lr=0.1)
    result = lipschitz.recalibrate_head(head, theta, x, y, cfg)
    assert result.head is head
    assert result.final_penalty == 0.0


def test_recalibrate_reduces_penalty_and_touches_only_last_layer():
    x, y, theta, head = _blob_task(seed=5)
    # sharpen the head so gradient norms start well above omega
    sharp = models.MlpParams(
        (models.Layer(head.layers[0].w * 40.0, head.layers[0].b, "linear"),)
    )
    cfg = LipschitzConfig(omega=0.3, epochs=120, lr=0.2)
    result = lipschitz.recalibrate_head(sharp, theta, x, y, cfg)
    assert result.initial_penalty > 0.0
    assert result.final_penalty < result.initial_penalty
    last = result.head.layers[-1]
    assert not last.w.flags.writeable and not last.b.flags.writeable


def test_recalibrate_multilayer_freezes_lower_stack():
    x, y, theta, _ = _blob_task(seed=6)
    rng = np.random.default_rng(6)
    head = models.init_mlp([4, 6, 3], "tanh", rng)
    sharp = models.MlpParams(
        head.layers[:-1]
        + (models.Layer(head.layers[-1].w * 60.0, head.layers[-1].b, "linear"),)
    )
    cfg = LipschitzConfig(omega=0.3, epochs=60, lr=0.2)
    result = lipschitz.recalibrate_head(sharp, theta, x, y, cfg)
    for before, after in zip(sharp.layers[:-1], result.head.layers[:-1]):
        assert before.w is after.w and before.b is after.b
    assert result.final_penalty < result.initial_penalty
    assert not np.array_equal(result.head.layers[-1].w, sharp.layers[-1].w)


def test_recalibrate_history_is_penalty_after_each_epoch():
    """history[t] of an E-epoch run is the final penalty of the t-epoch run."""
    x, y, theta, _ = _blob_task(seed=6)
    head = models.init_mlp([4, 6, 3], "tanh", np.random.default_rng(6))
    sharp = models.MlpParams(
        head.layers[:-1]
        + (models.Layer(head.layers[-1].w * 60.0, head.layers[-1].b, "linear"),)
    )
    cfg = LipschitzConfig(omega=0.3, epochs=6, lr=0.2)
    result = lipschitz.recalibrate_head(sharp, theta, x, y, cfg)
    assert len(result.penalty_history) == cfg.epochs + 1
    for t in range(cfg.epochs + 1):
        shorter = lipschitz.recalibrate_head(sharp, theta, x, y, replace(cfg, epochs=t))
        assert result.penalty_history[t] == shorter.final_penalty
    u = models.embed(theta, x)
    assert result.final_penalty == lipschitz.penalty_value(
        result.head, u, np.eye(3)[y], cfg.omega
    )


def _pretrained_blob_head(seed=7, n=240):
    """Separated blobs, identity embedder, cross-entropy-trained linear head."""
    means = np.zeros((3, 4))
    means[[0, 1, 2], [0, 1, 2]] = 3.0
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, size=n)
    x = means[y] + rng.normal(scale=0.4, size=(n, 4))
    theta = models.MlpParams((models.Layer(np.eye(4), np.zeros((1, 4)), "linear"),))
    head = models.init_mlp([4, 3], "tanh", np.random.default_rng(seed + 7))
    onehot = np.eye(3)[y]
    c = -1.0 / n
    for _ in range(300):
        logits, pullback = models.mlp_vjp(head, x)
        grads = pullback(c * onehot - softmax(logits) * c)
        head = models.sgd_update(head, grads, 0.5)
    return means, x, y, theta, head


def test_recalibrate_hits_gradient_norm_target():
    means, x, y, theta, head = _pretrained_blob_head()
    cfg = LipschitzConfig(
        omega=0.3, penalty_weight=10.0, epochs=800, lr=0.1, enforcement_margin=0.8
    )
    result = lipschitz.recalibrate_head(head, theta, x, y, cfg)
    rng = np.random.default_rng(8)
    y2 = rng.integers(0, 3, size=400)
    x2 = means[y2] + rng.normal(scale=0.4, size=(400, 4))
    u2 = models.embed(theta, x2)
    norms = np.linalg.norm(
        lipschitz.feature_gradients(result.head, u2, np.eye(3)[y2]), axis=1
    )
    assert np.quantile(norms, 0.95) <= 0.3 * 1.1
    # argmax predictions survive the squeeze
    base = np.argmax(models.predict_source(head, u2), axis=1)
    after = np.argmax(models.predict_source(result.head, u2), axis=1)
    assert np.mean(after != y2) - np.mean(base != y2) < 0.02


def test_recalibrate_rejects_empty_proxy():
    _, _, theta, head = _blob_task()
    with pytest.raises(ValueError):
        lipschitz.recalibrate_head(head, theta, np.zeros((0, 4)), [], LipschitzConfig())


def test_sweep_single_candidate():
    x, y, theta, head = _blob_task(seed=9)
    rows = lipschitz.sweep_omega(
        [0.4], theta, head, x, y, LipschitzConfig(epochs=30, lr=0.2)
    )
    assert len(rows) == 1
    assert set(rows[0]) == {"omega", "proxy_error", "penalty_residual"}


def test_sweep_keeps_every_config_field_but_omega():
    """A sweep row is recalibrate_head on the train split with only omega
    replaced, so the enforcement margin and gradient clip carry through."""
    x, y, theta, head = _blob_task(seed=9)
    sharp = models.MlpParams(
        (models.Layer(head.layers[0].w * 40.0, head.layers[0].b, "linear"),)
    )
    cfg = LipschitzConfig(epochs=30, lr=0.2, grad_clip=2.0, enforcement_margin=0.5)
    (row,) = lipschitz.sweep_omega([0.4], theta, sharp, x, y, cfg, seed=3)
    order = np.random.default_rng(3).permutation(len(y))
    train = order[round(0.25 * len(y)):]
    expected = lipschitz.recalibrate_head(
        sharp, theta, x[train], y[train], replace(cfg, omega=0.4)
    )
    assert row["penalty_residual"] == expected.final_penalty
    assert expected.final_penalty > 0.0


def test_sweep_rejects_unsorted_candidates():
    x, y, theta, head = _blob_task()
    with pytest.raises(ValueError):
        lipschitz.sweep_omega([0.5, 0.1], theta, head, x, y)


def test_sweep_csv_header(tmp_path):
    rows = [{"omega": 0.1, "proxy_error": 0.25, "penalty_residual": 0.01}]
    path = tmp_path / "sweep.csv"
    lipschitz.sweep_to_csv(rows, path)
    assert path.read_text().splitlines()[0] == "omega,proxy_error,penalty_residual"


def test_default_grid_matches_expected_span():
    grid = np.round(np.arange(0.1, 1.01, 0.1), 10)
    assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(1.0)
    assert len(grid) == 10


def test_sweep_proxy_error_nonincreasing_in_omega():
    """A looser bound never hurts the recalibrated proxy error, up to seed
    noise (median over 5 seeds per omega).

    Starts from a trained head, as in real usage: at loose omega the sweep
    is a no-op at baseline error, while tight omega squeezes the head.
    """
    candidates = [0.05, 0.3, 1.0]
    per_omega = {w: [] for w in candidates}
    for seed in range(5):
        means, x, y, theta, head = _pretrained_blob_head(seed=30 + seed, n=400)
        rows = lipschitz.sweep_omega(
            candidates, theta, head, x, y,
            LipschitzConfig(penalty_weight=10.0, epochs=150, lr=0.1),
            seed=seed,
        )
        for row in rows:
            per_omega[row["omega"]].append(row["proxy_error"])
    medians = [float(np.median(per_omega[w])) for w in candidates]
    assert all(medians[i + 1] <= medians[i] + 0.02 for i in range(2)), medians
