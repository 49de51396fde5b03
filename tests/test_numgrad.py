"""Tape forward/backward contracts and the finite-difference property."""

import numpy as np
import pytest

from gapcraft import numgrad as ng

from oracles import finite_difference, relative_gradient_error, straightline_mlp


def test_forward_identity_graph():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    value, tape = ng.forward(lambda t: t, [x])
    assert np.array_equal(value, x)
    assert np.array_equal(tape.replay(), x)


def test_forward_affine_identity_weights():
    w = np.eye(2)
    b = np.zeros((1, 2))
    x = np.array([[3.0, 4.0]])
    value, _ = ng.forward(lambda tw, tb, tx: ng.add(ng.matmul(tx, tw), tb), [w, b, x])
    assert np.allclose(value, [[3.0, 4.0]])


def test_forward_two_layer_tanh_matches_straightline():
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=(3, 4))
    b1 = rng.normal(size=(1, 4))
    w2 = rng.normal(size=(4, 2))
    b2 = rng.normal(size=(1, 2))
    x = rng.normal(size=(5, 3))

    def graph(tw1, tb1, tw2, tb2, tx):
        h = ng.tanh(ng.add(ng.matmul(tx, tw1), tb1))
        return ng.tanh(ng.add(ng.matmul(h, tw2), tb2))

    value, tape = ng.forward(graph, [w1, b1, w2, b2, x])
    expected = straightline_mlp([(w1, b1, "tanh"), (w2, b2, "tanh")], x)
    assert np.allclose(value, expected, atol=0, rtol=0)
    assert np.array_equal(tape.replay(), value)


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 4))
    x = rng.normal(size=(6, 4))
    graph = lambda tw, tx: ng.tanh(ng.matmul(tx, tw))
    v1, _ = ng.forward(graph, [w, x])
    v2, _ = ng.forward(graph, [w, x])
    assert np.array_equal(v1, v2)


def test_shape_mismatch_names_node():
    tape = ng.Tape()
    a = tape.input(np.ones((2, 3)))
    b = tape.input(np.ones((2, 3)))
    with pytest.raises(ng.DimensionError, match="node 2"):
        ng.matmul(a, b)


def test_backward_sum_is_ones():
    tape = ng.Tape()
    x = tape.input(np.arange(6.0).reshape(2, 3))
    grads = tape.backward(ng.sum(x))
    assert np.array_equal(grads.wrt(x), np.ones((2, 3)))


def test_backward_square_scalar():
    tape = ng.Tape()
    x = tape.input(np.array([[3.0]]))
    grads = tape.backward(ng.sum(ng.mul(x, x)))
    assert np.allclose(grads.wrt(x), [[6.0]])


def test_backward_requires_scalar():
    tape = ng.Tape()
    x = tape.input(np.ones((2, 2)))
    y = ng.tanh(x)
    with pytest.raises(ng.ContractError):
        tape.backward(y)


def test_backward_three_layer_mlp_matches_fd():
    rng = np.random.default_rng(7)
    dims = [3, 5, 4, 2]
    mats = []
    for i in range(3):
        mats.append(rng.normal(size=(dims[i], dims[i + 1])))
        mats.append(rng.normal(size=(1, dims[i + 1])))
    x = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 2))

    def build(tape, flats):
        ts = [tape.input(m) for m in flats]
        tx = tape.constant(x)
        tt = tape.constant(target)
        h = tx
        for i in range(3):
            h = ng.add(ng.matmul(h, ts[2 * i]), ts[2 * i + 1])
            if i < 2:
                h = ng.tanh(h)
        neg = tape.constant(np.array([[-1.0]]))
        diff = ng.add(h, ng.mul(tt, neg))
        return ts, ng.sum(ng.mul(diff, diff))

    tape = ng.Tape()
    ts, loss = build(tape, mats)
    grads = tape.backward(loss)
    analytic = np.concatenate([grads.wrt(t).ravel() for t in ts])

    sizes = [m.size for m in mats]

    def f(vec):
        pieces = []
        at = 0
        for m, s in zip(mats, sizes):
            pieces.append(vec[at : at + s].reshape(m.shape))
            at += s
        t2 = ng.Tape()
        _, l2 = build(t2, pieces)
        return float(l2.value[0, 0])

    fd = finite_difference(f, np.concatenate([m.ravel() for m in mats]))
    assert relative_gradient_error(analytic, fd) < 1e-4


def _square(t):
    return ng.mul(t, t)


@pytest.mark.parametrize("seed", range(100))
def test_primitive_gradients_match_fd(seed):
    """Every differentiable primitive against central differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 3))
    row = rng.normal(size=(1, 4))
    other = rng.normal(size=(3, 4))

    cases = {
        "matmul": (lambda t, c: ng.sum(ng.matmul(t, c(w))), x),
        "add_broadcast": (lambda t, c: ng.sum(_square(ng.add(t, c(row)))), x),
        "mul": (lambda t, c: ng.sum(ng.mul(t, c(other))), x),
        "mul_self": (lambda t, c: ng.sum(_square(t)), x),
        "tanh": (lambda t, c: ng.sum(ng.tanh(t)), x),
        "relu": (lambda t, c: ng.sum(ng.relu(t)), x + 0.3),
    }
    name = list(cases)[seed % len(cases)]
    graph, x0 = cases[name]

    tape = ng.Tape()
    t = tape.input(x0)
    loss = graph(t, tape.constant)
    analytic = tape.backward(loss).wrt(t)

    def f(vec):
        t2 = ng.Tape()
        tt = t2.input(vec.reshape(x0.shape))
        return float(graph(tt, t2.constant).value[0, 0])

    fd = finite_difference(f, x0.ravel())
    assert relative_gradient_error(analytic.ravel(), fd) < 1e-4, name


def test_non_finite_results_are_rejected():
    tape = ng.Tape()
    x = tape.input(np.array([[1e200]]))
    with pytest.raises(FloatingPointError, match="mul"):
        ng.mul(x, x)  # overflows to inf
    with pytest.raises(ValueError):
        tape.input(np.array([[np.nan]]))


def test_values_are_immutable():
    tape = ng.Tape()
    t = tape.input(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.value[0, 0] = 5.0


def test_replay_bit_identical():
    rng = np.random.default_rng(5)
    tape = ng.Tape()
    a = tape.input(rng.normal(size=(4, 4)))
    b = tape.input(rng.normal(size=(4, 4)))
    out = ng.sum(ng.relu(ng.matmul(ng.tanh(a), b)))
    assert np.array_equal(tape.replay(), out.value)
