"""Embedders, source head, transport-head predictor, checkpoints."""

import numpy as np
import pytest

from gapcraft import models, pipeline
from gapcraft import numgrad as ng

from oracles import (
    finite_difference,
    n_parameters,
    params_vector,
    params_with_vector,
    relative_gradient_error,
    softmax_mp,
    stage2_loss_and_grad,
    straightline_mlp,
    transport_head,
)


def test_embed_identity_layer():
    p = models.MlpParams((models.Layer(np.eye(2), np.zeros((1, 2)), "linear"),))
    assert np.allclose(models.embed(p, [[1.0, 2.0]]), [[1.0, 2.0]])


def test_embed_zero_weights_zero_output():
    p = models.MlpParams((models.Layer(np.zeros((3, 4)), np.zeros((1, 4)), "linear"),))
    rng = np.random.default_rng(0)
    assert np.allclose(models.embed(p, rng.normal(size=(5, 3))), 0.0)


def test_embed_matches_straightline():
    rng = np.random.default_rng(0)
    p = models.init_mlp([3, 5, 4], rng)
    x = rng.normal(size=(6, 3))
    expected = straightline_mlp([(l.w, l.b, l.act) for l in p.layers], x)
    assert np.array_equal(models.embed(p, x), expected)


def test_embed_dimension_mismatch():
    p = models.init_mlp([3, 4], np.random.default_rng(0))
    with pytest.raises(ng.DimensionError):
        models.embed(p, np.ones((2, 5)))


def test_predict_source_zero_logits_uniform():
    p = models.MlpParams((models.Layer(np.zeros((4, 3)), np.zeros((1, 3)), "linear"),))
    out = models.predict_source(p, np.random.default_rng(1).normal(size=(4, 4)))
    assert np.allclose(out, 1.0 / 3)


def test_predict_source_saturated_logits():
    p = models.MlpParams(
        (models.Layer(np.array([[10.0, -10.0]]), np.zeros((1, 2)), "linear"),)
    )
    out = models.predict_source(p, [[1.0]])
    assert np.max(np.abs(out - [[1.0, 0.0]])) < 1e-8


def test_predict_source_matches_high_precision_softmax():
    rng = np.random.default_rng(2)
    head = models.init_mlp([4, 3], rng)
    u = rng.normal(size=(5, 4))
    logits = u @ head.layers[0].w + head.layers[0].b
    assert np.allclose(models.predict_source(head, u), softmax_mp(logits), atol=1e-14)
    rows = models.predict_source(head, u).sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) < 1e-12


def _identity_kernel(k, feature_dim=2, boost=200.0):
    return transport_head(feature_dim, k, k, identity_boost=boost)


def test_predict_target_identity_kernel_is_source():
    rng = np.random.default_rng(3)
    head = models.init_mlp([2, 3], rng)
    kernel = _identity_kernel(3)
    u = rng.normal(size=(6, 2))
    p_source = models.predict_source(head, u)
    assert np.allclose(models.predict_target(p_source, kernel, u), p_source, atol=1e-12)


def test_predict_target_uniform_kernel_absorbs():
    rng = np.random.default_rng(4)
    head = models.init_mlp([2, 3], rng)
    kernel = models.TransportHeadParams(np.zeros((5, 3)), np.zeros((1, 3)), 3)
    u = rng.normal(size=(4, 2))
    out = models.predict_target(models.predict_source(head, u), kernel, u)
    assert np.allclose(out, 1.0 / 3)


def test_predict_target_hand_product():
    # p_source = (0.7, 0.3), kernel rows [[0.9, 0.1], [0.2, 0.8]] -> (0.69, 0.31)
    lam = np.array([[0.9, 0.1], [0.2, 0.8]])
    p = np.array([0.7, 0.3])
    assert np.allclose(p @ lam, [0.69, 0.31])
    logits = np.log(np.array([0.7, 0.3]))
    head = models.MlpParams(
        (models.Layer(np.zeros((2, 2)), logits.reshape(1, 2), "linear"),)
    )
    kernel_w = np.zeros((4, 2))
    kernel_w[2:] = np.log(lam)
    kernel = models.TransportHeadParams(kernel_w, np.zeros((1, 2)), 2)
    u = np.zeros((1, 2))
    out = models.predict_target(models.predict_source(head, u), kernel, u)
    assert np.allclose(out, [[0.69, 0.31]], atol=1e-12)


def test_predict_target_rows_are_distributions():
    rng = np.random.default_rng(5)
    head = models.init_mlp([3, 4], rng)
    kernel = transport_head(3, 4, 2, rng, feature_scale=0.5)
    u = rng.normal(size=(10, 3)) * 50.0
    out = models.predict_target(models.predict_source(head, u), kernel, u)
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


def test_predict_target_class_count_mismatch():
    """The source probabilities must have one column per source class the
    kernel consumes."""
    rng = np.random.default_rng(6)
    head = models.init_mlp([2, 3], rng)
    kernel = _identity_kernel(2)
    u = rng.normal(size=(2, 2))
    with pytest.raises(
        ng.DimensionError, match="^predict_target: head emits 3 classes, kernel consumes 2$"
    ):
        models.predict_target(models.predict_source(head, u), kernel, u)


def test_predict_target_feature_width_mismatch():
    """A feature kernel reads features of its own width; a label-only
    kernel reads none."""
    rng = np.random.default_rng(6)
    head = models.init_mlp([3, 2], rng)
    u = rng.normal(size=(4, 3))
    p = models.predict_source(head, u)
    with pytest.raises(
        ng.DimensionError, match="^predict_target: features have 3 columns, kernel expects 2$"
    ):
        models.predict_target(p, transport_head(2, 2, 2, rng, feature_scale=0.5), u)
    assert models.predict_target(p, _identity_kernel(2, feature_dim=0), u).shape == (4, 2)


def test_kernel_isolation_from_source_head():
    rng = np.random.default_rng(7)
    head = models.init_mlp([2, 3], rng)
    kernel = transport_head(2, 3, 3, rng, feature_scale=0.3)
    u = rng.normal(size=(5, 2))
    p_before = models.predict_source(head, u)
    tau_before = models.predict_target(p_before, kernel, u)
    noise = np.random.default_rng(70).normal(size=kernel.w.shape)
    bumped = models.TransportHeadParams(kernel.w + 0.5 * noise, kernel.b, 3)
    p_after = models.predict_source(head, u)
    assert np.array_equal(p_after, p_before)
    assert not np.allclose(models.predict_target(p_after, bumped, u), tau_before)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    p = models.init_mlp([3, 5, 2], rng)
    path = tmp_path / "embedder.json"
    models.save_params(p, path, role="source_embedder")
    loaded, role = models.load_params(path)
    assert role == "source_embedder"
    assert all(
        np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b) and a.act == b.act
        for a, b in zip(p.layers, loaded.layers)
    )


def test_params_vector_roundtrip():
    rng = np.random.default_rng(9)
    p = models.init_mlp([3, 4, 2], rng)
    vec = params_vector(p)
    q = params_with_vector(p, vec)
    assert all(np.array_equal(a.w, b.w) for a, b in zip(p.layers, q.layers))
    with pytest.raises(ng.DimensionError):
        params_with_vector(p, vec[:-1])


@pytest.mark.parametrize(
    "acts",
    [("tanh", "tanh", "linear"), ("linear",), ("tanh", "tanh", "tanh", "linear")],
    ids="-".join,
)
def test_mlp_vjp_matches_fd_three_layers(acts):
    """pullback(g) is the gradient of sum(out * g) in every layer's (w, b)."""
    rng = np.random.default_rng(13)
    dims = [3, *(5, 4, 4)[: len(acts) - 1], 2]
    shape = models.MlpParams(
        tuple(
            models.Layer(l.w, l.b, act)
            for l, act in zip(models.init_mlp(dims, rng).layers, acts)
        )
    )
    params = params_with_vector(shape, rng.normal(size=n_parameters(shape)))
    x = rng.normal(size=(6, 3))
    g = rng.normal(size=(6, 2))
    out, pullback = models.mlp_vjp(params, x)
    assert np.array_equal(
        out, straightline_mlp([(l.w, l.b, l.act) for l in params.layers], x)
    )
    analytic = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in pullback(g)])

    def f(vec):
        return float((models.embed(params_with_vector(params, vec), x) * g).sum())

    fd = finite_difference(f, params_vector(params))
    assert relative_gradient_error(analytic, fd) < 1e-4
    with pytest.raises(FloatingPointError):
        pullback(np.full((6, 2), np.inf))


def _stage2_gradient_error(rng, kernel_feature_dim, kz, kt, n=8, d=3):
    """Relative error of the closed-form stage-2 gradient against central
    finite differences of the stage-2 loss, over every kernel parameter."""
    u = rng.normal(size=(n, d))
    labels = rng.integers(0, kt, size=n)
    head = models.init_mlp([d, kz], rng)
    kernel = transport_head(kernel_feature_dim, kz, kt, rng, feature_scale=0.4)
    p_s = models.predict_source(head, u)
    onehot = np.eye(kt)[labels]
    _, gw, gb = pipeline._stage2_loss_and_grad(kernel, u, p_s, labels, onehot)
    analytic = np.concatenate([gw.ravel(), gb.ravel()])

    def f(vec):
        w = vec[: kernel.w.size].reshape(kernel.w.shape)
        k = models.TransportHeadParams(w, vec[kernel.w.size :].reshape(1, kt), kz)
        return pipeline._stage2_loss_and_grad(k, u, p_s, labels, onehot)[0]

    fd = finite_difference(f, np.concatenate([kernel.w.ravel(), kernel.b.ravel()]))
    return relative_gradient_error(analytic, fd)


def test_stage2_style_nll_gradient_matches_fd():
    """Gradient of -E[log sum_z p(z|u) kernel(z'|z,u)] with respect to the kernel."""
    assert _stage2_gradient_error(np.random.default_rng(10), 3, 3, 2) < 1e-4


@pytest.mark.parametrize(
    "kernel_feature_dim, kz, kt", [(0, 3, 2), (3, 5, 4), (0, 5, 4)]
)
def test_stage2_gradient_label_only_and_wide_kernels(kernel_feature_dim, kz, kt):
    rng = np.random.default_rng(11 + kz + kt + kernel_feature_dim)
    assert _stage2_gradient_error(rng, kernel_feature_dim, kz, kt) < 1e-4


def test_stage2_loss_matches_composed_prediction():
    rng = np.random.default_rng(12)
    u = rng.normal(size=(6, 3))
    labels = rng.integers(0, 4, size=6)
    head = models.init_mlp([3, 5], rng)
    kernel = transport_head(3, 5, 4, rng, feature_scale=0.4)
    p_source = models.predict_source(head, u)
    loss, _, _ = pipeline._stage2_loss_and_grad(kernel, u, p_source, labels, np.eye(4)[labels])
    p_tau = models.predict_target(p_source, kernel, u)
    assert loss == pytest.approx(-np.mean(np.log(p_tau[np.arange(6), labels])), abs=1e-14)


@pytest.mark.parametrize("kz", [2, 3, 4, 5])
@pytest.mark.parametrize("kernel_feature_dim", [0, 4])
def test_stage2_step_matches_reference_bitwise(kz, kernel_feature_dim):
    """Loss and (w, b) gradient equal the reference step's bit for bit: the
    composed prediction by einsum equals the middle-axis sum, and the
    folded softmax equals numpy's row reductions."""
    rng = np.random.default_rng(30 + kz + kernel_feature_dim)
    kt = 3
    u = rng.normal(size=(40, 4))
    labels = rng.integers(0, kt, size=40)
    head = models.init_mlp([4, kz], rng)
    kernel = transport_head(kernel_feature_dim, kz, kt, rng, feature_scale=0.5)
    p_s = models.predict_source(head, u)
    onehot = np.eye(kt)[labels]
    loss, gw, gb = pipeline._stage2_loss_and_grad(kernel, u, p_s, labels, onehot)
    ref_loss, ref_gw, ref_gb = stage2_loss_and_grad(
        kernel.w, kernel.b, kernel_feature_dim, u, p_s, labels, onehot
    )
    assert loss == ref_loss
    assert gw.tobytes() == ref_gw.tobytes() and gw.shape == ref_gw.shape
    assert gb.tobytes() == ref_gb.tobytes() and gb.shape == ref_gb.shape


def test_stage2_loss_rejects_non_finite():
    kernel = transport_head(0, 2, 2, identity_boost=2000.0)
    p_s = np.array([[1.0, 0.0]])
    with pytest.raises(FloatingPointError):
        pipeline._stage2_loss_and_grad(
            kernel, np.zeros((1, 2)), p_s, np.array([1]), np.array([[0.0, 1.0]])
        )


def test_transport_head_rejects_inconsistent_shapes():
    # w not 2-D, b of the wrong width or rank, fewer rows than source classes
    for w_shape, b_shape in [
        ((5, 3, 1), (1, 3)), ((15,), (1, 3)), ((5, 3), (1, 2)), ((5, 3), (3,)), ((2, 3), (1, 3)),
    ]:
        with pytest.raises(ng.DimensionError, match="transport head shapes inconsistent"):
            models.TransportHeadParams(np.zeros(w_shape), np.zeros(b_shape), 3)
    # a label-only kernel has no feature rows
    kernel = models.TransportHeadParams(np.zeros((3, 2)), np.zeros((1, 2)), 3)
    assert (kernel.feature_dim, kernel.n_target_classes) == (0, 2)


def test_kernel_forward_matches_per_class_forward():
    """The broadcast forward equals the per-class [u, one-hot z] layer."""
    rng = np.random.default_rng(13)
    kernel = transport_head(3, 4, 2, rng, feature_scale=0.7)
    u = rng.normal(size=(7, 3))
    lam = models._kernel_forward(kernel, u)
    for z in range(4):
        x = np.hstack([u, np.tile(np.eye(4)[z], (7, 1))])
        assert np.allclose(lam[:, z], softmax_mp(x @ kernel.w + kernel.b), atol=1e-14)
