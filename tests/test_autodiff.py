"""Tape engine: forward values, reverse-mode gradients, replay, Adam.

The finite-difference comparisons use a relative error with denominator
max(|fd|, |analytic|, 1e-5). The floor matters: batch standardization makes
some true gradients exactly zero (for example a translation-invariant bias),
where central differences return pure cancellation noise around 1e-11 and a
raw relative error would be meaningless. Below the floor the comparison is
effectively absolute at 1e-9 precision.
"""

import warnings

import numpy as np
import pytest

from conftest import traced_peak_ratio
from latentjam import autodiff as ad
from latentjam.autodiff import AdamState, EagerTape, Tape, adam_step, backward_grads, forward_eval
from latentjam.errors import ConfigError, NumericError, ShapeError
from latentjam.game import GameConfig, init_state
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
    bv = 0.3 * rng.normal((3,))
    tape = Tape()
    x = tape.input("x", xv)
    w = tape.input("w", wv)
    b = tape.input("b", bv)
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
        ad.affine(h, w, b) - h,
    ]
    loss = None
    for part in parts:
        q = part * 0.25
        term = ad.mean_all(ad.square(ad.slice_cols(q, 1, 3))) + ad.sum_all(ad.mean_cols(q)) \
            + ad.mean_all(ad.sum_rows(q))
        loss = term if loss is None else loss + term
    # a new op cannot land without a finite-difference check; detach has its own tests
    unchecked = set(ad._OPS) - {"detach"} - {node.op for node in tape.nodes}
    assert not unchecked, sorted(unchecked)
    gx, gw, gb = backward_grads(tape, loss, [x, w, b])
    assert rel_err(fd_gradient(tape, loss, "x", xv), gx) <= 1e-4
    assert rel_err(fd_gradient(tape, loss, "w", wv), gw) <= 1e-4
    assert rel_err(fd_gradient(tape, loss, "b", bv), gb) <= 1e-4


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
        for i, in_id in enumerate(node.inputs):
            gi = ad._OPS[node.op][1](acc[nid], in_values, node.value, node.attrs, i)
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


@pytest.mark.parametrize("m,n,d", [(128, 784, 512), (128, 64, 8)])
def test_affine_equals_transpose_matmul_add_chain(m, n, d):
    rng = Rng(37)
    values = {"x": rng.normal((m, n)), "w": rng.normal((d, n)) / np.sqrt(n), "b": rng.normal((d,))}

    def record(fused):
        tape = Tape()
        ins = {name: tape.input(name, v) for name, v in values.items()}
        out = ad.affine(ins["x"], ins["w"], ins["b"]) if fused \
            else ins["x"] @ ad.transpose(ins["w"]) + ins["b"]
        tape.mark_output("out", out)
        loss = tape.mark_output("loss", ad.mean_all(ad.square(ad.tanh(out))))
        return tape, ins, out, loss

    tape, ins, out, loss = record(fused=True)
    ref_tape, ref_ins, ref_out, ref_loss = record(fused=False)
    assert [node.op for node in tape.nodes].count("affine") == 1
    assert np.array_equal(out.value, ref_out.value)
    for subset in (["x", "w", "b"], ["x"], ["w"], ["b"], ["x", "w"], ["x", "b"], ["w", "b"]):
        got = backward_grads(tape, loss, [ins[name] for name in subset])
        want = backward_grads(ref_tape, ref_loss, [ref_ins[name] for name in subset])
        for name, g, ref in zip(subset, got, want):
            assert np.array_equal(g, ref), (subset, name)
            assert g.flags["C_CONTIGUOUS"] == ref.flags["C_CONTIGUOUS"], (subset, name)
    replayed = forward_eval(tape, values)
    assert np.array_equal(replayed["out"], out.value)
    assert np.array_equal(replayed["loss"], loss.value)


@pytest.mark.parametrize("x_shape,w_shape,b_shape,match", [
    ((4, 3), (2, 5), (2,), "inner dims"),
    ((4, 3), (2, 3), (3,), "bias"),
    ((4, 3), (2, 3), (1, 2), "bias"),
    ((3,), (2, 3), (2,), "2-D"),
])
def test_affine_shape_errors(x_shape, w_shape, b_shape, match):
    tape = Tape()
    x, w, b = (tape.const(np.ones(s)) for s in (x_shape, w_shape, b_shape))
    with pytest.raises(ShapeError, match=f"op 'affine'.*{match}"):
        ad.affine(x, w, b)
    assert len(tape.nodes) == 3


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


def test_replay_rejects_unknown_input_name():
    tape = Tape()
    x = tape.input("x", np.array([[1.0, 2.0]]))
    tape.mark_output("y", ad.sum_all(ad.square(x)))
    with pytest.raises(ConfigError, match=r"unknown inputs \['X'\]"):
        forward_eval(tape, {"x": np.array([[3.0, 4.0]]), "X": np.array([[3.0, 4.0]])})


def test_replay_rejects_rebound_shape():
    # (4, 3) would broadcast against the recorded (3,) and replay silently
    tape = Tape()
    x = tape.const(np.ones((4, 3)))
    b = tape.input("b", np.zeros(3))
    tape.mark_output("y", ad.sum_all(x + b))
    with pytest.raises(ShapeError, match=r"'b' recorded as \(3,\), rebound as \(4, 3\)"):
        forward_eval(tape, {"b": np.zeros((4, 3))})


def test_replay_rejects_nonfinite():
    tape = Tape()
    x = tape.input("x", np.array([[1.0]]))
    tape.mark_output("y", ad.sqrt(x))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError):
            forward_eval(tape, {"x": np.array([[-1.0]])})


def _split_by_sign_sigmoid(x):
    """Reference: the exact formula for each sign, by masked gather and scatter."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("shape", [(10000, 784), (128, 784), (7, 3), (1, 1)])
def test_sigmoid_equals_split_by_sign_reference(shape):
    base = Rng(31).normal(shape)
    for i, scale in enumerate((1e-3, 1.0, 30.0, 800.0)):
        # each scale takes every fourth row, so the (10000, 784) case costs two full passes
        rows = base[i::4] if len(base) >= 4 else base
        for x in (rows * scale, (rows * scale).T):
            got = ad.sigmoid(EagerTape().const(x)).value
            assert np.array_equal(got, _split_by_sign_sigmoid(x)), (shape, scale)
    extremes = np.array([[0.0, -0.0, -745.5, 745.5, -800.0, 800.0, 1e-300, -1e-300]])
    got = ad.sigmoid(EagerTape().const(extremes)).value
    assert np.array_equal(got, _split_by_sign_sigmoid(extremes))


# (300, 784) is row blocks of 83, 83, 83 and 51 rows in float64 and of 167 and 133 in
# float32; a 70000-wide float64 row is larger than a block, so each row is a block of its
# own; a float32 training batch of 128 x 784 is one block
@pytest.mark.parametrize("shape,dtype", [((300, 784), np.float64), ((300, 784), np.float32),
                                         ((3, 70_000), np.float64), ((128, 784), np.float32)])
def test_sigmoid_row_blocks_equal_split_by_sign_reference(shape, dtype):
    base = (Rng(33).normal(shape) * 20.0).astype(dtype)
    for x in (base, np.asfortranarray(base)):
        got = ad.sigmoid(EagerTape().const(x)).value
        assert got.dtype == dtype and got.shape == shape
        assert np.array_equal(got, _split_by_sign_sigmoid(x)), (shape, dtype)


def test_sigmoid_forward_memory():
    # the output plus one row block's scratch; the whole-array forward held 2.1 arrays
    x = Rng(32).normal((1000, 784))
    assert traced_peak_ratio(lambda: ad.sigmoid(EagerTape().const(x)).value) < 1.25


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
def test_nonfinite_value_on_record_free_tape_names_op(bad):
    tape = EagerTape()
    message = r"^non-finite value out of op '{}' on a record-free tape$"
    with pytest.raises(NumericError, match=message.format("const")):
        tape.const(np.array([1.0, bad]))
    num = tape.const(np.array([1.0, np.copysign(1.0, bad) if np.isinf(bad) else 0.0]))
    den = tape.const(np.array([1.0, 0.0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=message.format("div")):
            _ = num / den


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finiteness_check_warns_of_nothing(dtype):
    # a sum would meet inf - inf in the first array and overflow on the finite second
    # one, and numpy warns of both
    big = np.finfo(dtype).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tape = Tape(dtype)
        with pytest.raises(NumericError, match=r"op 'input' at node 0"):
            tape.input("x", np.array([np.inf, -np.inf, 1.0]))
        assert tape.const(np.full((3, 4), big)).value.dtype == dtype
        with pytest.raises(NumericError, match=r"op 'const' at node 1"):
            tape.const(np.array([[big, -np.inf], [np.nan, 1.0]]).T)


def test_record_free_tape_keeps_no_graph():
    tape = EagerTape()
    x = tape.const(np.array([[3.0]]))
    y = ad.sum_all(ad.square(x))
    assert y.value[0] == 9.0 and y.node_id is None and tape.nodes == []
    with pytest.raises(ConfigError, match="record-free"):
        backward_grads(tape, y, [x])


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


def test_cross_tape_rejected_with_attrs():
    other = Tape().const(np.ones((2, 2)))
    tape = Tape()
    with pytest.raises(ConfigError, match="different tape"):
        tape.apply_attrs("clip", [other], {"lo": -1.0, "hi": 1.0})
    assert tape.nodes == []


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


def _adam_reference(p, m, v, g, t, lr, beta1, beta2, eps):
    """The whole-array Adam update that the blocked `adam_step` must reproduce bit for bit."""
    m *= beta1
    m += (1.0 - beta1) * g
    m[np.abs(m) < np.finfo(m.dtype).tiny] = 0
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)


# block edges: one element, one block less one, exactly one, one more, the f and r
# weights, and a single row wider than a block
_ADAM_SHAPES = [(1,), (16383,), (16384,), (16385,), (512, 784), (784, 512), (1, 20000)]


def _assert_adam_matches_reference(shapes, order="C", grad_kind="C", dtype=np.float64):
    rng = Rng(41)
    names = [f"p{i}" for i in range(len(shapes))]
    params = {name: np.asarray(rng.normal(s), dtype, order=order) for name, s in zip(names, shapes)}
    ref = {name: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
    state = AdamState(lr=3e-3)
    for t in range(1, 5):
        grads = {}
        for name, shape in zip(names, shapes):
            if grad_kind == "broadcast":
                g = np.broadcast_to(rng.normal((1,) + shape[1:]).astype(dtype), shape)
            else:
                g = np.asarray(rng.normal(shape), dtype, order=grad_kind)
            grads[name] = g
            _adam_reference(*ref[name], g, t, state.lr, state.beta1, state.beta2, state.epsilon)
        adam_step(params, grads, state)
        for name in names:
            p_ref, m_ref, v_ref = ref[name]
            assert params[name].dtype == state.first_moment[name].dtype == dtype, (t, name)
            assert np.array_equal(params[name], p_ref), (t, name)
            assert np.array_equal(state.first_moment[name], m_ref), (t, name)
            assert np.array_equal(state.second_moment[name], v_ref), (t, name)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("grad_kind", ["C", "F", "broadcast"])
def test_blocked_adam_equals_whole_array_reference(order, grad_kind):
    _assert_adam_matches_reference(_ADAM_SHAPES, order, grad_kind)


@pytest.mark.parametrize("grad_kind", ["C", "broadcast"])
def test_blocked_adam_equals_whole_array_reference_in_float32(grad_kind):
    # training's precision: the scratch must be float32 too, or the steps round twice
    _assert_adam_matches_reference(_ADAM_SHAPES, "C", grad_kind, np.float32)


def test_adam_sets_subnormal_first_moments_to_zero():
    # with no gradient, m decays by beta1 each step; times beta1 the smallest subnormal
    # rounds back to itself, so m would otherwise stay subnormal (and slow) for good
    tiny, smallest = np.finfo(np.float32).tiny, np.float32(2.0 ** -149)
    p = {"w": np.ones(3, np.float32)}
    state = AdamState()
    state.first_moment["w"] = np.array([tiny, smallest, 1e-3], np.float32)
    state.second_moment["w"] = np.ones(3, np.float32)
    assert smallest * np.float32(state.beta1) == smallest
    adam_step(p, {"w": np.zeros(3, np.float32)}, state)
    assert np.array_equal(state.first_moment["w"], [0.0, 0.0, np.float32(1e-3) * np.float32(0.9)])


def test_adam_at_comparison_shapes_equals_whole_array_reference():
    # every parameter of the n=8 comparison fits in one block;
    # an MNIST-shape (512, 784) weight spans 26
    config = GameConfig(k=2, n=8, data_hidden=64, jscc_hidden=64)
    shapes = [params.array(name).shape for params in init_state(config).networks.present().values()
              for name in params.array_names()]
    assert max(np.prod(s) for s in shapes) <= 16384
    _assert_adam_matches_reference(shapes + [(512, 784)])
