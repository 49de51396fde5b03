"""The layer record: models.mlp_apply's forward and finite check,
Tape.backward's sweep against finite differences; as_matrix and freeze."""

import numpy as np
import pytest

from gapcraft import models
from gapcraft import numgrad as ng

from oracles import (
    finite_difference,
    params_vector,
    params_with_vector,
    relative_gradient_error,
    straightline_mlp,
)


def _mlp(*layers):
    """MlpParams from (w, b, act) triples given as nested lists or arrays."""
    return models.MlpParams(
        tuple(
            models.Layer(
                np.asarray(w, dtype=np.float64),
                np.asarray(b, dtype=np.float64).reshape(1, -1),
                act,
            )
            for w, b, act in layers
        )
    )


def test_forward_identity_graph():
    """One linear identity layer: the output is the input, recorded once."""
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    tape = ng.Tape()
    out = models.mlp_apply(_mlp((np.eye(2), [0.0, 0.0], "linear")), x, tape)
    assert np.array_equal(out, x)
    [(w, act, h_in, h_out)] = tape.layers
    assert act == "linear" and h_in is x and h_out is out


def test_forward_affine_identity_weights():
    tape = ng.Tape()
    out = models.mlp_apply(
        _mlp((np.eye(2), [1.0, -1.0], "linear")), np.array([[3.0, 4.0]]), tape
    )
    assert np.array_equal(out, [[4.0, 3.0]])


def test_forward_two_layer_tanh_matches_straightline():
    rng = np.random.default_rng(0)
    layers = [
        (rng.normal(size=(3, 4)), rng.normal(size=(1, 4)), "tanh"),
        (rng.normal(size=(4, 2)), rng.normal(size=(1, 2)), "tanh"),
    ]
    x = rng.normal(size=(5, 3))
    tape = ng.Tape()
    value = models.mlp_apply(_mlp(*layers), x, tape)
    assert np.array_equal(value, straightline_mlp(layers, x))
    assert len(tape.layers) == 2


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(3)
    params = _mlp((rng.normal(size=(4, 4)), np.zeros(4), "tanh"))
    x = rng.normal(size=(6, 4))
    g = rng.normal(size=(6, 4))
    (v1, pb1), (v2, pb2) = models.mlp_vjp(params, x), models.mlp_vjp(params, x)
    assert np.array_equal(v1, v2)
    [(dw1, db1)], [(dw2, db2)] = pb1(g), pb2(g)
    assert np.array_equal(dw1, dw2) and np.array_equal(db1, db2)


def test_backward_sum_is_ones():
    """The cotangent of sum(out) is ones: db counts rows, dw sums x's columns."""
    x = np.arange(6.0).reshape(2, 3)
    tape = ng.Tape()
    models.mlp_apply(_mlp((np.ones((3, 2)), [0.0, 0.0], "linear")), x, tape)
    [(dw, db)] = tape.backward(np.ones((2, 2)))
    assert np.array_equal(db, [[2.0, 2.0]])
    assert np.array_equal(dw, [[3.0, 3.0], [5.0, 5.0], [7.0, 7.0]])


def test_backward_square_scalar():
    """out = 3 * w + b at w = 1, b = 0: d(out^2)/dw = 18, d(out^2)/db = 6."""
    tape = ng.Tape()
    out = models.mlp_apply(_mlp(([[1.0]], [0.0], "linear")), np.array([[3.0]]), tape)
    [(dw, db)] = tape.backward(2.0 * out)
    assert np.array_equal(dw, [[18.0]]) and np.array_equal(db, [[6.0]])


def test_backward_three_layer_mlp_matches_fd():
    """Squared error against a target: the cotangent depends on the output."""
    rng = np.random.default_rng(7)
    dims = [3, 5, 4, 2]
    params = _mlp(
        *(
            (rng.normal(size=(dims[i], dims[i + 1])), rng.normal(size=dims[i + 1]), act)
            for i, act in enumerate(("tanh", "tanh", "linear"))
        )
    )
    x = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 2))
    out, pullback = models.mlp_vjp(params, x)
    analytic = np.concatenate(
        [np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in pullback(2.0 * (out - target))]
    )

    def f(vec):
        h = models.embed(params_with_vector(params, vec), x)
        return float(((h - target) ** 2).sum())

    fd = finite_difference(f, params_vector(params))
    assert relative_gradient_error(analytic, fd) < 1e-4


@pytest.mark.parametrize("seed", range(100))
def test_primitive_gradients_match_fd(seed):
    """Every layer kind of the sweep against central differences: the kind
    under test sits on a tanh layer, so its input gradient g @ w.T is
    checked through the lower layer's parameters."""
    rng = np.random.default_rng(seed)
    act = ("linear", "tanh", "relu")[seed % 3]
    params = _mlp(
        (rng.normal(size=(4, 5)), rng.normal(size=5), "tanh"),
        (rng.normal(size=(5, 3)), rng.normal(size=3), act),
    )
    x = rng.normal(size=(3, 4))
    g = rng.normal(size=(3, 3))
    _, pullback = models.mlp_vjp(params, x)
    analytic = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in pullback(g)])

    def f(vec):
        return float((models.embed(params_with_vector(params, vec), x) * g).sum())

    fd = finite_difference(f, params_vector(params))
    assert relative_gradient_error(analytic, fd) < 1e-4, act


def test_non_finite_results_are_rejected():
    """An overflowed first pre-activation raises even though tanh would map
    it to a finite 1; non-finite inputs are rejected by as_matrix."""
    params = _mlp(([[1e200]], [0.0], "tanh"))
    with pytest.raises(FloatingPointError, match="layer 0"):
        models.mlp_vjp(params, np.array([[1e200]]))
    with pytest.raises(ValueError, match="non-finite"):
        ng.as_matrix(np.array([[np.nan]]))


_OVERFLOWING_HIDDEN_LAYER = (
    ([[1e200]], [0.0], "linear"),
    ([[1e200]], [0.0], "tanh"),
    ([[1.0]], [0.0], "linear"),
)


def test_mlp_vjp_rejects_overflowed_hidden_pre_activation():
    """Layer 1's pre-activation is 1e200 * 1e200 = inf; tanh saturates it to
    1 and the linear output stays finite, but the record still raises."""
    params = _mlp(*_OVERFLOWING_HIDDEN_LAYER)
    with np.errstate(over="ignore"):
        assert np.isfinite(straightline_mlp(_OVERFLOWING_HIDDEN_LAYER, [[1.0]])).all()
    with pytest.raises(FloatingPointError, match="layer 1"):
        models.mlp_vjp(params, np.array([[1.0]]))


@pytest.mark.parametrize("forward", [models.embed, models.predict_source])
def test_untaped_forward_rejects_overflowed_hidden_pre_activation(forward):
    """Without a tape, embed and predict_source make the same check."""
    with pytest.raises(FloatingPointError, match="layer 1"):
        forward(_mlp(*_OVERFLOWING_HIDDEN_LAYER), [[1.0]])


def test_relu_at_zero_pre_activation_gets_zero_gradient():
    """Unit 0's pre-activation is exactly 0 (1 - 1); unit 1's is 1."""
    x = np.array([[1.0, -1.0]])
    out, pullback = models.mlp_vjp(_mlp(([[1.0, 1.0], [1.0, 0.0]], [0.0, 0.0], "relu")), x)
    assert np.array_equal(out, [[0.0, 1.0]])
    [(dw, db)] = pullback(np.ones((1, 2)))
    assert np.array_equal(dw, [[0.0, 1.0], [0.0, -1.0]])
    assert np.array_equal(db, [[0.0, 1.0]])


def test_as_matrix_rejects_more_than_2d():
    with pytest.raises(ng.DimensionError, match="at most 2-D"):
        ng.as_matrix(np.zeros((2, 2, 2)))


def test_values_are_immutable():
    tape = ng.Tape()
    out = models.mlp_apply(_mlp((np.eye(2), [0.0, 0.0], "tanh")), np.ones((2, 2)), tape)
    with pytest.raises(ValueError):
        out[0, 0] = 5.0
    frozen = ng.freeze(np.ones((2, 2)))
    with pytest.raises(ValueError):
        frozen[0, 0] = 5.0
