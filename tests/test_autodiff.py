"""Tape engine: forward values, reverse-mode gradients, replay, Adam.

The finite-difference comparisons use a relative error with denominator
max(|fd|, |analytic|, 1e-5). The floor matters: batch standardization makes
some true gradients exactly zero (for example a translation-invariant bias),
where central differences return pure cancellation noise around 1e-11 and a
raw relative error would be meaningless. Below the floor the comparison is
effectively absolute at 1e-9 precision.
"""

import numpy as np
import pytest

from latentjam import autodiff as ad
from latentjam.autodiff import AdamState, Tape, adam_step, backward_grads, forward_eval
from latentjam.errors import ConfigError, NumericError, ShapeError
from latentjam.rng import Rng

FD_STEP = 1e-5
FD_FLOOR = 1e-5


def fd_gradient(tape, loss, name, base, h=FD_STEP):
    """Central finite differences of the marked 'loss' output w.r.t. one input."""
    tape.mark_output("loss", loss)
    grad = np.zeros_like(base)
    flat = grad.ravel()
    for i in range(base.size):
        bumped = base.copy().ravel()
        bumped[i] += h
        hi = forward_eval(tape, {name: bumped.reshape(base.shape)})["loss"][0]
        bumped[i] -= 2 * h
        lo = forward_eval(tape, {name: bumped.reshape(base.shape)})["loss"][0]
        flat[i] = (hi - lo) / (2 * h)
    return grad


def rel_err(fd, an):
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), FD_FLOOR)
    return np.max(np.abs(fd - an) / denom)


# ============================================================
# Forward values
# ============================================================


def test_matmul_identity():
    tape = Tape()
    a = tape.const(np.eye(2))
    b = tape.const(np.array([[3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal((a @ b).value, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_hand_value():
    tape = Tape()
    a = tape.const(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = tape.const(np.array([[5.0], [6.0]]))
    assert np.array_equal((a @ b).value, [[17.0], [39.0]])


def test_relu_definition():
    tape = Tape()
    t = ad.relu(tape.const(np.array([[-1.0, 0.0, 2.0]])))
    assert np.array_equal(t.value, [[0.0, 0.0, 2.0]])


def test_broadcast_add_row_vector():
    tape = Tape()
    x = tape.const(np.ones((3, 2)))
    b = tape.const(np.array([10.0, 20.0]))
    assert np.array_equal((x + b).value, [[11.0, 21.0]] * 3)


def test_scalar_sugar():
    tape = Tape()
    x = tape.const(np.array([[2.0]]))
    assert (3.0 * x + 1.0).value[0, 0] == 7.0
    assert (1.0 - x).value[0, 0] == -1.0
    assert (x / 4.0).value[0, 0] == 0.5


# ============================================================
# Gradients
# ============================================================


def test_grad_of_square_at_3():
    tape = Tape()
    x = tape.input("x", np.array([3.0]))
    loss = ad.sum_all(ad.square(x))
    (g,) = backward_grads(tape, loss, [x])
    assert g[0] == 6.0


def test_grad_of_untouched_input_is_zero():
    tape = Tape()
    x = tape.input("x", np.array([3.0]))
    w = tape.input("w", np.array([[1.0, 2.0]]))
    loss = ad.sum_all(ad.square(x))
    gx, gw = backward_grads(tape, loss, [x, w])
    assert gx[0] == 6.0
    assert np.array_equal(gw, np.zeros((1, 2)))


def test_grad_linear_regression_hand_value():
    # mean((x W^T - y)^2), W=[[1,2]], x=[[1,1]], y=[[0]]: residual 3, dW = 2*3*x
    tape = Tape()
    w = tape.input("W", np.array([[1.0, 2.0]]))
    x = tape.const(np.array([[1.0, 1.0]]))
    y = tape.const(np.array([[0.0]]))
    loss = ad.mean_all(ad.square(x @ ad.transpose(w) - y))
    (gw,) = backward_grads(tape, loss, [w])
    assert np.array_equal(gw, [[6.0, 6.0]])
    assert rel_err(fd_gradient(tape, loss, "W", w.value), gw) <= 1e-4


def test_grad_linearity_in_scalar_factor():
    tape = Tape()
    x = tape.input("x", np.array([[0.3, -0.7], [1.1, 0.2]]))
    loss = ad.mean_all(ad.square(ad.tanh(x)))
    scaled = 2.5 * loss
    (g1,) = backward_grads(tape, loss, [x])
    (g2,) = backward_grads(tape, scaled, [x])
    assert np.allclose(g2, 2.5 * g1, rtol=0, atol=1e-15)


def test_fd_check_every_op():
    # one graph touching each differentiable op, inputs kept away from kinks
    rng = Rng(77)
    xv = 0.4 * rng.normal((4, 3)) + 0.1
    wv = 0.5 * rng.normal((3, 3))
    tape = Tape()
    x = tape.input("x", xv)
    w = tape.input("w", wv)
    h = x @ w + 1.0
    parts = [
        ad.relu(h + 3.0),          # shifted well clear of zero
        ad.tanh(h),
        ad.sigmoid(h),
        ad.exp(0.3 * h),
        ad.sqrt(ad.square(h) + 1.0),
        ad.clip(h, -10.0, 10.0),
        -h / 2.0,
        ad.transpose(ad.transpose(h)),
    ]
    cat = ad.concat_cols([p * 0.25 for p in parts])
    sliced = ad.slice_cols(cat, 2, 20)
    loss = ad.mean_all(ad.square(sliced)) + ad.sum_all(ad.mean_cols(cat)) \
        + ad.mean_all(ad.sum_rows(cat))
    gx, gw = backward_grads(tape, loss, [x, w])
    assert rel_err(fd_gradient(tape, loss, "x", xv), gx) <= 1e-4
    assert rel_err(fd_gradient(tape, loss, "w", wv), gw) <= 1e-4


def test_fd_check_random_small_mlps():
    # <= 3 layers, <= 16 units, both hidden activations
    for seed, act in ((1, "relu"), (2, "tanh"), (3, "relu")):
        rng = Rng(seed)
        dims = [5, 16, 8, 1]
        tape = Tape()
        x = tape.const(rng.normal((6, dims[0])))
        h = x
        params = {}
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            wv = 0.6 * rng.normal((b, a))
            bv = 0.1 * rng.normal((b,))
            w = tape.input(f"W{i}", wv)
            bias = tape.input(f"b{i}", bv)
            params[f"W{i}"] = (w, wv)
            params[f"b{i}"] = (bias, bv)
            h = h @ ad.transpose(w) + bias
            if i < len(dims) - 2:
                h = ad.relu(h) if act == "relu" else ad.tanh(h)
        loss = ad.mean_all(ad.square(h))
        tensors = [t for t, _ in params.values()]
        grads = backward_grads(tape, loss, tensors)
        for (name, (_, base)), g in zip(params.items(), grads):
            assert rel_err(fd_gradient(tape, loss, name, base), g) <= 1e-4, (seed, name)


def test_detach_blocks_gradient():
    # L(a, detach(b(a))) must match the graph where b's value enters as a constant
    av = np.array([[0.5, -1.2], [0.3, 0.8]])
    tape1 = Tape()
    a1 = tape1.input("a", av)
    b1 = ad.detach(ad.square(a1))
    loss1 = ad.mean_all(a1 * b1)
    (g1,) = backward_grads(tape1, loss1, [a1])

    tape2 = Tape()
    a2 = tape2.input("a", av)
    b2 = tape2.const(av * av)
    loss2 = ad.mean_all(a2 * b2)
    (g2,) = backward_grads(tape2, loss2, [a2])
    assert np.array_equal(g1, g2)
    assert np.array_equal(g1, av * av / av.size)


def test_detach_preserves_value():
    tape = Tape()
    x = tape.const(np.array([[1.0, 2.0]]))
    assert np.array_equal(ad.detach(x).value, x.value)


def _unpruned_grads(tape, out, wrt):
    """Reference sweep: every rule run on every input, every gradient kept."""
    acc = {out.node_id: np.ones(1)}
    for nid in range(out.node_id, -1, -1):
        node = tape.nodes[nid]
        if nid not in acc or not node.inputs:
            continue
        in_values = [tape.nodes[i].value for i in node.inputs]
        need = [True] * len(node.inputs)
        for in_id, gi in zip(node.inputs, ad._backward_one(node, acc[nid], in_values, need)):
            if gi is not None:
                acc[in_id] = gi if in_id not in acc else acc[in_id] + gi
    return [acc.get(t.node_id, np.zeros(t.shape)) for t in wrt]


def test_pruned_gradients_equal_unpruned_reference():
    # a game-like graph: data constants, a trainable encoder whose output is
    # used both live and detached, a frozen pair of constants, and a non-leaf
    # hidden layer among the requested tensors
    rng = Rng(23)
    tape = Tape()
    d = tape.const(rng.normal((16, 6)))
    w1 = tape.input("w1", rng.normal((5, 6)))
    b1 = tape.input("b1", rng.normal((5,)))
    w2 = tape.input("w2", rng.normal((2, 5)))
    frozen = tape.const(rng.normal((2, 2)))
    hidden = ad.tanh(d @ ad.transpose(w1) + b1)
    z = hidden @ ad.transpose(w2)
    jammed = ad.sigmoid(ad.detach(z) @ ad.transpose(frozen)) * tape.const(rng.normal((16, 2)))
    live = ad.square(z @ frozen) / (ad.mean_all(ad.square(z)) + 1.0)
    loss = ad.mean_all(live - jammed) + ad.sum_all(ad.square(hidden)) * 0.01
    wrt = [w1, b1, w2, hidden, frozen, d]
    pruned = backward_grads(tape, loss, wrt)
    reference = _unpruned_grads(tape, loss, wrt)
    for t, g, ref in zip(wrt, pruned, reference):
        assert np.array_equal(g, ref), f"node {t.node_id}"
    # constants never requested, and the detach node itself, are never marked
    marked = ad._depends_on(tape, {t.node_id for t in wrt[:4]}, loss.node_id)
    assert not marked[d.node_id] and not marked[frozen.node_id]
    assert not any(marked[n] for n, node in enumerate(tape.nodes) if node.op == "detach")
    assert marked[hidden.node_id] and marked[loss.node_id]


def test_transposed_weight_gradient_is_c_contiguous():
    rng = Rng(29)
    tape = Tape()
    x = tape.const(rng.normal((32, 7)))
    w = tape.input("w", rng.normal((3, 7)))
    (gw,) = backward_grads(tape, ad.mean_all(ad.square(x @ ad.transpose(w))), [w])
    assert gw.shape == (3, 7) and gw.flags["C_CONTIGUOUS"]


# ============================================================
# Replay
# ============================================================


def test_replay_bit_identical():
    rng = Rng(11)
    xv = rng.normal((8, 4))
    tape = Tape()
    x = tape.input("x", xv)
    y = ad.mean_all(ad.square(ad.tanh(x @ tape.const(rng.normal((4, 4))))))
    tape.mark_output("y", y)
    replayed = forward_eval(tape, {"x": xv})["y"]
    assert np.array_equal(replayed, y.value)


def test_replay_through_transpose_view_bit_identical():
    # (128, 64) @ (64, 8) is a shape where OpenBLAS rounds a transposed view
    # differently from a C-ordered copy; replay must take the same path
    rng = Rng(13)
    xv, wv = rng.normal((128, 64)), rng.normal((8, 64))
    tape = Tape()
    w = tape.input("w", wv)
    wt = ad.transpose(w)
    assert np.shares_memory(wt.value, w.value)
    y = ad.mean_all(ad.square(tape.input("x", xv) @ wt))
    tape.mark_output("y", y)
    assert np.array_equal(forward_eval(tape, {"x": xv, "w": wv})["y"], y.value)


def test_replay_with_new_input():
    tape = Tape()
    x = tape.input("x", np.array([[1.0, 2.0]]))
    y = ad.sum_all(ad.square(x))
    tape.mark_output("y", y)
    out = forward_eval(tape, {"x": np.array([[3.0, 4.0]])})["y"]
    assert out[0] == 25.0


def test_replay_rejects_nonfinite():
    tape = Tape()
    x = tape.input("x", np.array([[1.0]]))
    tape.mark_output("y", ad.sqrt(x))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError):
            forward_eval(tape, {"x": np.array([[-1.0]])})


# ============================================================
# Error contracts
# ============================================================


def test_matmul_shape_error_names_op():
    tape = Tape()
    a = tape.const(np.ones((2, 3)))
    b = tape.const(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="matmul"):
        _ = a @ b


def test_nonfinite_value_raises_with_node_index():
    tape = Tape()
    zero = tape.const(np.zeros((1, 1)))
    one = tape.const(np.ones((1, 1)))
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericError, match="node"):
            _ = one / zero


_NONFINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", _NONFINITE)
def test_nonfinite_forward_value_names_op_and_node(bad):
    tape = Tape()
    tape.input("x", np.ones(3))
    with pytest.raises(NumericError, match=r"op 'input' at node 1"):
        tape.input("y", np.array([1.0, bad, 3.0]))
    # a value that only turns bad inside an op: 0/0, 1/0 and -1/0
    num = tape.const(np.array([1.0, np.copysign(1.0, bad) if np.isinf(bad) else 0.0]))
    den = tape.const(np.array([1.0, 0.0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"op 'div' at node 3"):
            _ = num / den


@pytest.mark.parametrize("bad", _NONFINITE)
def test_nonfinite_gradient_names_op_and_node(bad):
    # sqrt(0) is finite, its derivative is not: 0 * inf, +inf or -inf upstream sign
    scale = 0.0 if np.isnan(bad) else np.copysign(1.0, bad)
    tape = Tape()
    x = tape.input("x", np.array([[4.0, 0.0]]))
    loss = ad.sum_all(ad.sqrt(x) * tape.const(np.array([[1.0, scale]])))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"gradient at op 'sqrt', node 1"):
            backward_grads(tape, loss, [x])


def test_finite_values_whose_sum_overflows_pass():
    big = np.full(4, 1e308)
    tape = Tape()
    with np.errstate(over="ignore"):
        assert np.array_equal(tape.const(big).value, big)
        x = tape.input("x", np.full(4, 1e-300))
        (g,) = backward_grads(tape, ad.sum_all(x * tape.const(big)), [x])
        assert np.array_equal(g, big)


def test_backward_requires_scalar_output():
    tape = Tape()
    x = tape.input("x", np.ones((2, 2)))
    y = ad.square(x)
    with pytest.raises(ShapeError):
        backward_grads(tape, y, [x])


def test_cross_tape_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.const(np.ones((1, 1)))
    b = t2.const(np.ones((1, 1)))
    with pytest.raises(ConfigError):
        _ = a + b


def test_unknown_op_rejected():
    tape = Tape()
    with pytest.raises(ConfigError):
        tape.apply("convolve", [tape.const(np.ones((1, 1)))])


# ============================================================
# Adam
# ============================================================


def test_adam_zero_gradient_is_noop():
    p = {"w": np.array([1.0, -2.0, 3.0])}
    before = p["w"].copy()
    state = AdamState(lr=0.01)
    adam_step(p, {"w": np.zeros(3)}, state)
    assert np.array_equal(p["w"], before)
    assert state.step_count == 1


def test_adam_first_step_magnitude():
    # t=1 bias correction cancels: update = lr * g / (|g| + eps) ~ lr * sign(g)
    p = {"w": np.array([0.0, 0.0])}
    g = np.array([0.5, -3.0])
    state = AdamState(lr=1e-3)
    adam_step(p, {"w": g}, state)
    expected = -1e-3 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p["w"], expected, rtol=0, atol=1e-18)
    assert np.allclose(np.abs(p["w"]), 1e-3, rtol=1e-6)


def test_adam_two_identical_steps():
    p = {"w": np.zeros(2)}
    g = np.array([0.7, -0.2])
    state = AdamState(lr=1e-3)
    adam_step(p, {"w": g}, state)
    first = p["w"].copy()
    adam_step(p, {"w": g}, state)
    second = p["w"] - first
    assert np.max(np.abs(np.abs(second) - np.abs(first))) <= 1e-9
    assert state.step_count == 2


def test_adam_shape_mismatch():
    state = AdamState()
    with pytest.raises(ShapeError):
        adam_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, state)


def test_adam_moments_match_param_shapes():
    p = {"w": np.zeros((2, 3)), "b": np.zeros(3)}
    g = {"w": np.ones((2, 3)), "b": np.ones(3)}
    state = AdamState()
    adam_step(p, g, state)
    assert state.first_moment["w"].shape == (2, 3)
    assert state.second_moment["b"].shape == (3,)
