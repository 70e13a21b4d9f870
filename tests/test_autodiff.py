"""Tape engine: forward values, reverse-mode gradients, Adam.

The finite-difference comparisons use a relative error with denominator
max(|fd|, |analytic|, 1e-5). The floor matters: batch standardization makes
some true gradients exactly zero (for example a translation-invariant bias),
where central differences return pure cancellation noise around 1e-11 and a
raw relative error would be meaningless. Below the floor the comparison is
effectively absolute at 1e-9 precision.
"""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import fd_gradient, traced_peak_ratio
from latentjam import autodiff as ad
from latentjam import nets
from latentjam.autodiff import AdamState, EagerTape, Tape, adam_step, backward_grads
from latentjam.errors import ConfigError, NumericError, ShapeError
from latentjam.game import GameConfig, init_state
from latentjam.rng import Rng

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FD_FLOOR = 1e-5


def mean_square(t):
    """mean(t^2) as one `mse` node against zeros: the bits of a square-then-mean chain."""
    return ad.mse(t, t.tape.const(np.zeros(t.shape)))


def rel_err(fd, an):
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), FD_FLOOR)
    return np.max(np.abs(fd - an) / denom)


# ============================================================
# Forward values
# ============================================================


def test_matmul_identity():
    # affine is the tape's one product: I @ w.T + 0 is w.T
    tape = Tape()
    a = tape.const(np.eye(2))
    w = tape.const(np.array([[3.0, 5.0], [4.0, 6.0]]))
    assert np.array_equal(ad.affine(a, w, tape.const(np.zeros(2))).value, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_hand_value():
    tape = Tape()
    a = tape.const(np.array([[1.0, 2.0], [3.0, 4.0]]))
    w = tape.const(np.array([[5.0, 6.0]]))
    assert np.array_equal(ad.affine(a, w, tape.const(np.zeros(1))).value, [[17.0], [39.0]])
    # a (batch, out) bias adds row by row
    assert np.array_equal(ad.affine(a, w, tape.const([[1.0], [2.0]])).value, [[18.0], [41.0]])


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
    assert (x - 1.0).value[0, 0] == 1.0
    assert (x * 0.25).value[0, 0] == 0.5


# ============================================================
# Gradients
# ============================================================


def test_grad_of_square_at_3():
    tape = Tape()
    x = tape.const(np.array([3.0]))
    loss = ad.sum_all(ad.square(x))
    (g,) = backward_grads(tape, loss, [x])
    assert g[0] == 6.0


def test_grad_of_untouched_input_is_zero():
    tape = Tape()
    x = tape.const(np.array([3.0]))
    w = tape.const(np.array([[1.0, 2.0]]))
    loss = ad.sum_all(ad.square(x))
    gx, gw = backward_grads(tape, loss, [x, w])
    assert gx[0] == 6.0
    assert np.array_equal(gw, np.zeros((1, 2)))


def test_grad_linear_regression_hand_value():
    # mean((x W^T - y)^2), W=[[1,2]], x=[[1,1]], y=[[0]]: residual 3, dW = 2*3*x
    wv = np.array([[1.0, 2.0]])

    def graph():
        tape = Tape()
        w = tape.const(wv)
        x = tape.const(np.array([[1.0, 1.0]]))
        y = tape.const(np.array([[0.0]]))
        return tape, w, ad.mse(ad.affine(x, w, tape.const(np.zeros(1))), y)

    tape, w, loss = graph()
    (gw,) = backward_grads(tape, loss, [w])
    assert np.array_equal(gw, [[6.0, 6.0]])
    assert rel_err(fd_gradient(lambda: graph()[2], wv), gw) <= 1e-4


def test_grad_linearity_in_scalar_factor():
    tape = Tape()
    x = tape.const(np.array([[0.3, -0.7], [1.1, 0.2]]))
    loss = mean_square(ad.sigmoid(x))
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

    def graph():
        tape = Tape()
        x, w, b = (tape.const(v) for v in (xv, wv, bv))
        h = ad.affine(x, w, b) + 1.0
        parts = [
            ad.relu(h + 3.0),          # shifted well clear of zero
            ad.sigmoid(h),
            ad.exp(0.3 * h),
            nets.power_normalize(h, 2.0),
            ad.clip(h, -10.0, 10.0),
            ad.affine(h, w, h) - h,    # a (batch, out) bias
        ]
        loss = None
        for part in parts:
            q = part * 0.25
            # both operands of mse and imq_mmd are live, so both of their gradients are checked
            term = ad.mse(ad.slice_cols(q, 1, 3), ad.slice_cols(h, 0, 2)) \
                + ad.sum_all(ad.square(q)) * 0.1 + ad.imq_mmd(q, h, 2.0)
            loss = term if loss is None else loss + term
        return tape, [x, w, b], loss

    tape, leaves, loss = graph()
    # a new op cannot land without a finite-difference check
    unchecked = set(ad._OPS) - {node.op for node in tape.nodes}
    assert not unchecked, sorted(unchecked)
    for value, g in zip((xv, wv, bv), backward_grads(tape, loss, leaves)):
        assert rel_err(fd_gradient(lambda: graph()[2], value), g) <= 1e-4


def test_fd_check_random_small_mlps():
    # <= 3 layers, <= 16 units, relu or a smooth (sigmoid) hidden activation
    for seed, act in ((1, "relu"), (2, "sigmoid"), (3, "relu")):
        rng = Rng(seed)
        dims = [5, 16, 8, 1]
        xv = rng.normal((6, dims[0]))
        params = {}
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            params[f"W{i}"] = 0.6 * rng.normal((b, a))
            params[f"b{i}"] = 0.1 * rng.normal((b,))

        def graph():
            tape = Tape()
            leaves = {name: tape.const(v) for name, v in params.items()}
            h = tape.const(xv)
            for i in range(len(dims) - 1):
                h = ad.affine(h, leaves[f"W{i}"], leaves[f"b{i}"])
                if i < len(dims) - 2:
                    h = ad.relu(h) if act == "relu" else ad.sigmoid(h)
            return tape, list(leaves.values()), mean_square(h)

        tape, leaves, loss = graph()
        for (name, base), g in zip(params.items(), backward_grads(tape, loss, leaves)):
            assert rel_err(fd_gradient(lambda: graph()[2], base), g) <= 1e-4, (seed, name)


@pytest.mark.parametrize("case", ["batch of 2", "constant column", "power 2.5"])
def test_power_normalize_gradient_matches_finite_differences(case):
    # two rows about sqrt(eps) apart, so the output is not saturated at +-sqrt(P); a
    # constant column has sigma = sqrt(eps), where the gradient is largest
    rng = Rng(47)
    zv = {"batch of 2": 1.0 + 3e-3 * rng.normal((2, 3)),
          "constant column": np.column_stack([np.full(8, 0.7), rng.normal((8, 2))]),
          "power 2.5": 3.0 * rng.normal((16, 3)) + 1.0}[case]
    power = 2.5 if case == "power 2.5" else 1.0
    weights = rng.normal(zv.shape)

    def graph():
        tape = Tape()
        z = tape.const(zv)
        return tape, z, ad.sum_all(nets.power_normalize(z, power) * tape.const(weights))

    tape, z, loss = graph()
    (g,) = backward_grads(tape, loss, [z])
    assert [node.op for node in tape.nodes].count("power_normalize") == 1
    assert rel_err(fd_gradient(lambda: graph()[2], zv, h=1e-6), g) <= 1e-6


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
            acc[in_id] = gi if in_id not in acc else acc[in_id] + gi
    return [acc.get(t.node_id, np.zeros(t.shape)) for t in wrt]


def test_pruned_gradients_equal_unpruned_reference():
    # a game-like graph: data constants, an encoder being trained whose output is
    # used both live and as a constant leaf, a frozen pair of constants, and a non-leaf
    # hidden layer among the requested tensors
    rng = Rng(23)
    tape = Tape()
    d = tape.const(rng.normal((16, 6)))
    w1 = tape.const(rng.normal((5, 6)))
    b1 = tape.const(rng.normal((5,)))
    w2 = tape.const(rng.normal((2, 5)))
    frozen = tape.const(rng.normal((2, 2)))
    zero = tape.const(np.zeros(2))
    hidden = ad.sigmoid(ad.affine(d, w1, b1))
    z = ad.affine(hidden, w2, zero)
    jammed = ad.sigmoid(ad.affine(tape.const(z.value), frozen, zero)) * tape.const(rng.normal((16, 2)))
    live = ad.square(ad.affine(z, frozen, z)) * (mean_square(z) + 1.0)
    loss = ad.mse(live, jammed) + ad.sum_all(ad.square(hidden)) * 0.01
    wrt = [w1, b1, w2, hidden, frozen, d]
    pruned = backward_grads(tape, loss, wrt)
    reference = _unpruned_grads(tape, loss, wrt)
    for t, g, ref in zip(wrt, pruned, reference):
        assert np.array_equal(g, ref), f"node {t.node_id}"
    # constants never requested are never marked
    marked = ad._depends_on(tape, {t.node_id for t in wrt[:4]}, loss.node_id)
    assert not marked[d.node_id] and not marked[frozen.node_id]
    assert marked[hidden.node_id] and marked[loss.node_id]


def test_transposed_weight_gradient_is_c_contiguous():
    # Adam reads leaf gradients in place as flat views, so affine's weight gradient g.T @ x
    # must come out C-ordered: a layer's, and a g network's skip path's
    rng = Rng(29)
    tape = Tape()
    x = tape.const(rng.normal((32, 2)))
    w = tape.const(rng.normal((3, 2)))
    g_net = init_state(GameConfig(k=2, n=3, jscc_hidden=4, data_hidden=4)).networks.g
    g_b = nets.BoundMlp(tape, g_net)
    loss = mean_square(ad.affine(x, w, tape.const(np.zeros(3)))) + mean_square(g_b(x))
    assert g_net.linear_skip and "skip" in g_b.nodes
    leaves = [w, *g_b.nodes.values()]
    for t, g in zip(leaves, backward_grads(tape, loss, leaves)):
        assert g.shape == t.shape and g.flags["C_CONTIGUOUS"], t.shape


@pytest.mark.parametrize("m,n,d", [(128, 784, 512), (128, 64, 8)])
def test_affine_equals_transpose_matmul_add_chain(m, n, d):
    # value and gradients bit for bit numpy's x @ w.T + b, g @ w, g.T @ x and the sum of g
    # down to b's shape, g being the gradient the tape reaches `out` with
    rng = Rng(37)
    x, w = rng.normal((m, n)), rng.normal((d, n)) / np.sqrt(n)
    for b in (rng.normal((d,)), rng.normal((m, d))):
        values = {"x": x, "w": w, "b": b}
        tape = Tape()
        ins = {name: tape.const(v) for name, v in values.items()}
        out = ad.affine(ins["x"], ins["w"], ins["b"])
        loss = mean_square(ad.sigmoid(out))
        assert [node.op for node in tape.nodes].count("affine") == 1
        assert np.array_equal(out.value, x @ w.T + b)
        (g,) = backward_grads(tape, loss, [out])
        want = {"x": g @ w, "w": g.T @ x, "b": g.sum(axis=0) if b.ndim == 1 else g}
        for subset in (["x", "w", "b"], ["x"], ["w"], ["b"], ["x", "w"], ["x", "b"], ["w", "b"]):
            got = backward_grads(tape, loss, [ins[name] for name in subset])
            for name, grad in zip(subset, got):
                assert np.array_equal(grad, want[name]), (b.shape, subset, name)
                assert grad.flags["C_CONTIGUOUS"], (b.shape, subset, name)


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


def test_mse_is_one_node_with_the_bits_of_sub_square_mean():
    # the forward and both gradients are the float32 operations of mean((a - b)^2)'s chain
    rng = Rng(39)
    av, bv = (rng.normal((128, 8)).astype(np.float32) for _ in range(2))
    tape = Tape(np.float32)
    a, b = tape.const(av), tape.const(bv)
    loss = ad.mse(a, b)
    assert [node.op for node in tape.nodes] == ["const", "const", "mse"]
    assert np.array_equal(loss.value, np.mean(np.square(av - bv)).reshape(1))
    want = (np.ones(1, np.float32) / av.size) * 2.0 * (av - bv)
    ga, gb = backward_grads(tape, loss, [a, b])
    assert ga.dtype == np.float32 and np.array_equal(ga, want) and np.array_equal(gb, -want)


def test_mse_rejects_operands_of_unequal_shape():
    tape = Tape()
    a, b = tape.const(np.ones((4, 3))), tape.const(np.ones((4, 1)))
    with pytest.raises(ShapeError, match=r"op 'mse'.*\(4, 3\) and \(4, 1\)"):
        ad.mse(a, b)
    assert len(tape.nodes) == 2


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


def test_nonfinite_value_raises_with_node_index():
    tape = Tape()
    big = tape.const(np.array([[1000.0]]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="node"):
            ad.exp(big)


_NONFINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", _NONFINITE)
def test_nonfinite_forward_value_names_op_and_node(bad):
    tape = Tape()
    tape.const(np.ones(3))
    with pytest.raises(NumericError, match=r"op 'const' at node 1"):
        tape.const(np.array([1.0, bad, 3.0]))
    # a value that only turns bad inside an op: clipped to bounds of nan, inf or -inf
    num = tape.const(np.array([1.0, 2.0]))
    with pytest.raises(NumericError, match=r"op 'clip' at node 2"):
        ad.clip(num, bad, bad)


@pytest.mark.parametrize("bad", _NONFINITE)
def test_nonfinite_value_on_record_free_tape_names_op(bad):
    tape = EagerTape()
    message = r"^non-finite value out of op '{}' on a record-free tape$"
    with pytest.raises(NumericError, match=message.format("const")):
        tape.const(np.array([1.0, bad]))
    num = tape.const(np.array([1.0, 2.0]))
    with pytest.raises(NumericError, match=message.format("clip")):
        ad.clip(num, bad, bad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finiteness_check_warns_of_nothing(dtype):
    # a sum would meet inf - inf in the first array and overflow on the finite second
    # one, and numpy warns of both
    big = np.finfo(dtype).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tape = Tape(dtype)
        with pytest.raises(NumericError, match=r"op 'const' at node 0"):
            tape.const(np.array([np.inf, -np.inf, 1.0]))
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
    # 0.36 * 1.5e308 is finite, square's backward 1.5e308 * 2.0 * x is not: inf * 0, +inf or
    # -inf for x = 0, 0.6 and -0.6
    s = 0.0 if np.isnan(bad) else 0.6 * np.copysign(1.0, bad)
    tape = Tape()
    x = tape.const(np.array([[0.25, s]]))
    loss = ad.sum_all(ad.square(x) * tape.const(np.array([[1.0, 1.5e308]])))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"gradient at op 'square', node 1"):
            backward_grads(tape, loss, [x])


def test_finite_values_whose_sum_overflows_pass():
    big = np.full(4, 1e308)
    tape = Tape()
    with np.errstate(over="ignore"):
        assert np.array_equal(tape.const(big).value, big)
        x = tape.const(np.full(4, 1e-300))
        (g,) = backward_grads(tape, ad.sum_all(x * tape.const(big)), [x])
        assert np.array_equal(g, big)


def test_backward_requires_scalar_output():
    tape = Tape()
    x = tape.const(np.ones((2, 2)))
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
        tape.apply("clip", [other], {"lo": -1.0, "hi": 1.0})
    assert tape.nodes == []


def test_unknown_op_rejected():
    tape = Tape()
    with pytest.raises(ConfigError):
        tape.apply("convolve", [tape.const(np.ones((1, 1)))])


# ============================================================
# Adam
# ============================================================


class _Flat:
    """Arrays laid end to end in one flat buffer, named p0, p1, ...: the parameter set
    `adam_step` reads, as `nets.MlpParams` is one for a network."""

    role = "flat"

    def __init__(self, arrays):
        self.shapes = [np.shape(a) for a in arrays]
        self.buffer = np.concatenate([np.ravel(a) for a in arrays])

    def array_names(self):
        return [f"p{i}" for i in range(len(self.shapes))]

    def array(self, name):
        i = int(name[1:])
        lo = sum(math.prod(s) for s in self.shapes[:i])
        return self.buffer[lo:lo + math.prod(self.shapes[i])].reshape(self.shapes[i])


def test_adam_zero_gradient_is_noop():
    p = _Flat([np.array([1.0, -2.0, 3.0])])
    before = p.buffer.copy()
    state = AdamState(lr=0.01)
    adam_step(p, [np.zeros(3)], state)
    assert np.array_equal(p.buffer, before)
    assert state.step_count == 1


def test_adam_first_step_magnitude():
    # t=1 bias correction cancels: update = lr * g / (|g| + eps) ~ lr * sign(g)
    p = _Flat([np.zeros(2)])
    g = np.array([0.5, -3.0])
    state = AdamState(lr=1e-3)
    adam_step(p, [g], state)
    expected = -1e-3 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.buffer, expected, rtol=0, atol=1e-18)
    assert np.allclose(np.abs(p.buffer), 1e-3, rtol=1e-6)


def test_adam_two_identical_steps():
    p = _Flat([np.zeros(2)])
    g = np.array([0.7, -0.2])
    state = AdamState(lr=1e-3)
    adam_step(p, [g], state)
    first = p.buffer.copy()
    adam_step(p, [g], state)
    second = p.buffer - first
    assert np.max(np.abs(np.abs(second) - np.abs(first))) <= 1e-9
    assert state.step_count == 2


def test_adam_shape_mismatch():
    state = AdamState()
    p = _Flat([np.zeros(3)])
    with pytest.raises(ShapeError, match=r"parameter p0 has shape \(3,\), given \(4,\)"):
        adam_step(p, [np.zeros(4)], state)
    with pytest.raises(ShapeError, match="1 parameters given 2 gradients"):
        adam_step(p, [np.zeros(3), np.zeros(3)], state)
    adam_step(p, [np.zeros(3)], state)
    with pytest.raises(ShapeError, match="moments"):  # moments belong to one buffer
        adam_step(_Flat([np.zeros(4)]), [np.zeros(4)], state)
    assert state.step_count == 1


def test_adam_checks_every_gradient_before_any_write():
    # the first array's gradient is fine, the second one's is transposed
    p = _Flat([np.zeros(2), np.zeros((2, 3))])
    state = AdamState()
    with pytest.raises(ShapeError, match=r"parameter p1 has shape \(2, 3\), given \(3, 2\)"):
        adam_step(p, [np.ones(2), np.ones((3, 2))], state)
    assert np.array_equal(p.buffer, np.zeros(8))
    assert state.step_count == 0 and state.m is None


def test_adam_moments_match_param_shapes():
    p = _Flat([np.zeros(9, np.float32)])
    state = AdamState()
    adam_step(p, [np.ones(9, np.float32)], state)
    assert state.m.shape == state.v.shape == (9,)
    assert state.m.dtype == state.v.dtype == np.float32


def test_adam_equals_textbook_reference_in_float64():
    # Kingma and Ba's algorithm as printed: unscaled m and v, each bias-corrected per step
    lr, beta1, beta2, eps = 2e-3, ad.ADAM_BETA1, ad.ADAM_BETA2, ad.ADAM_EPSILON
    rng = Rng(43)
    shapes = [(7, 5), (5,), (3,)]
    p = _Flat([rng.normal(s) for s in shapes])
    start = p.buffer.copy()
    want, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
    state = AdamState(lr=lr)
    for t in range(1, 101):
        # a tenth of the steps see no gradient at the last array, so m decays toward 0 there
        grads = [rng.normal(s) * (t % 10 != 0 or i < 2) for i, s in enumerate(shapes)]
        g = np.concatenate([a.ravel() for a in grads])
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        want = want - lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
        adam_step(p, grads, state)
        for got, ref in ((p.buffer - start, want - start), ((1.0 - beta1) * state.m, m),
                         ((1.0 - beta2) * state.v, v)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), t


def _adam_reference(p, m, v, g, t, lr, beta1, beta2, eps):
    """The whole-array update on scaled moments that the blocked `adam_step` must reproduce
    bit for bit."""
    c2 = (1.0 - beta2) / (1.0 - beta2 ** t)
    alpha = lr * (1.0 - beta1) / ((1.0 - beta1 ** t) * math.sqrt(c2))
    m *= beta1
    m += g
    m[np.abs(m) < np.finfo(m.dtype).tiny] = 0
    v *= beta2
    v += g * g
    p -= alpha * (m / (np.sqrt(v) + eps / math.sqrt(c2)))


# one flat buffer per list, its arrays laid end to end: one element, one block less one,
# exactly one block, leaves of one block less one, 3 and one block and one (so blocks start
# off the buffer's block grid), two blocks and 103, and the MNIST-shape f (784-512-2),
# whose 401,408-element W0 is six blocks and 8,192
_MNIST_F = [(512, 784), (512,), (2, 512), (2,)]
_ADAM_BUFFERS = [[(1,)], [(255, 257)], [(256, 256)], [(65535,), (3,), (65537,)], [(99, 1325)],
                 _MNIST_F]


def _assert_adam_matches_reference(buffers, order="C", grad_kind="C", dtype=np.float64):
    """Adam on each flat buffer, with one gradient per array as `game._update` passes
    them, against the whole-array reference on each of its arrays (in `order`)."""
    rng = Rng(41)
    for shapes in buffers:
        params = [np.asarray(rng.normal(s), dtype, order=order) for s in shapes]
        ref = [(p, np.zeros_like(p), np.zeros_like(p)) for p in params]
        flat = _Flat(params)
        state = AdamState(lr=3e-3)
        for t in range(1, 5):
            grads = []
            for shape in shapes:
                if grad_kind == "broadcast":
                    grads.append(np.broadcast_to(rng.normal((1,) + shape[1:]).astype(dtype), shape))
                else:
                    grads.append(np.asarray(rng.normal(shape), dtype, order=grad_kind))
            for arrays, g in zip(ref, grads):
                _adam_reference(*arrays, g, t, state.lr, ad.ADAM_BETA1, ad.ADAM_BETA2,
                                ad.ADAM_EPSILON)
            adam_step(flat, grads, state)
            assert flat.buffer.dtype == state.m.dtype == state.v.dtype == dtype, (t, shapes)
            for i, got in enumerate((flat.buffer, state.m, state.v)):
                want = np.concatenate([arrays[i].ravel() for arrays in ref])
                assert np.array_equal(got, want), (t, shapes, i)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("grad_kind", ["C", "F", "broadcast"])
def test_blocked_adam_equals_whole_array_reference(order, grad_kind):
    _assert_adam_matches_reference(_ADAM_BUFFERS, order, grad_kind)


@pytest.mark.parametrize("grad_kind", ["C", "broadcast"])
def test_blocked_adam_equals_whole_array_reference_in_float32(grad_kind):
    # training's precision: the scratch must be float32 too, or the steps round twice
    _assert_adam_matches_reference(_ADAM_BUFFERS, "C", grad_kind, np.float32)


def test_adam_sets_subnormal_first_moments_to_zero():
    # with no gradient, m decays by beta1 each step; times beta1 the smallest subnormal
    # rounds back to itself, so m would otherwise stay subnormal (and slow) for good
    tiny, smallest = np.finfo(np.float32).tiny, np.float32(2.0 ** -149)
    p = _Flat([np.ones(3, np.float32)])
    state = AdamState()
    state.m = np.array([tiny, smallest, 1e-3], np.float32)
    state.v = np.ones(3, np.float32)
    assert smallest * np.float32(ad.ADAM_BETA1) == smallest
    adam_step(p, [np.zeros(3, np.float32)], state)
    assert np.array_equal(state.m, [0.0, 0.0, np.float32(1e-3) * np.float32(0.9)])


def test_adam_second_moment_overflow_names_the_network():
    # float32 v holds v / (1 - beta2): a gradient of 6e17 held for a few thousand steps
    # overflows it, which would stop each element for good; numpy's overflow warning is
    # silenced so that only the check can report it
    p = _Flat([np.ones(3, np.float32)])
    state = AdamState()
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"second moment of network 'flat' overflowed at step \d+$"):
        for _ in range(5000):
            adam_step(p, [np.full(3, 6e17, np.float32)], state)
    assert 100 < state.step_count < 5000 and np.all(np.isfinite(p.buffer))
    # a gradient of 2e19 squares past float32's range at once, here in a network of role f
    f = init_state(GameConfig(k=2, n=3, data_hidden=4, regularizer="none")).networks.f
    grads = [np.zeros_like(f.array(name)) for name in f.array_names()]
    grads[0][0, 0] = 2e19
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match="second moment of network 'f' overflowed at step 1$"):
        adam_step(f, grads, AdamState())


def test_adam_at_comparison_shapes_equals_whole_array_reference():
    # every network of the n=8 comparison fits in one block;
    # the MNIST-shape f spans 10
    config = GameConfig(k=2, n=8, data_hidden=64, jscc_hidden=64)
    networks = init_state(config).networks.present().values()
    assert max(params.buffer.size for params in networks) <= ad._ADAM_BLOCK == 65536
    buffers = [[params.array(name).shape for name in params.array_names()] for params in networks]
    _assert_adam_matches_reference(buffers + [_MNIST_F])


def test_autodiff_walkthrough_demo_runs(tmp_path):
    demo = os.path.join(_REPO, "demos", "autodiff_walkthrough.py")
    path = [os.path.join(_REPO, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    fd_line = next(line for line in done.stdout.splitlines() if line.startswith("max |analytic - fd|"))
    assert float(fd_line.split("=")[1]) < 1e-8, fd_line
