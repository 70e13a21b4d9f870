"""Network construction, forward passes, and power normalization."""

import numpy as np
import pytest

from conftest import normalized, power_normalize_reference
from latentjam.autodiff import AdamState, Tape, adam_step, backward_grads
from latentjam import autodiff as ad
from latentjam.cli import load_checkpoint, save_checkpoint
from latentjam.errors import ConfigError, NumericError, ShapeError
from latentjam.game import GameConfig, init_state
from latentjam.nets import (POWER_EPS, ROLE_TRAITS, BoundMlp, MlpParams, NetworkRoles,
                            init_params, make_networks, mlp_apply, mlp_forward_graph,
                            power_normalize)
from latentjam.rng import Rng


def linear_net(W, b=None, role="f"):
    W = np.asarray(W, dtype=np.float64)
    b = np.zeros(W.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
    return MlpParams.from_arrays(role, [W.shape[1], W.shape[0]], [W], [b])


def reference_forward(params, x):
    """Forward pass written from the role table: relu hidden layers, r's sigmoid head, and
    g's and h's skip path."""
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T + b
        if i < params.depth - 1:
            h = np.maximum(h, 0.0)
    if params.role in ("g", "h"):
        h = h + x @ params.skip.T
    return 1.0 / (1.0 + np.exp(-h)) if params.role == "r" else h


# ============================================================
# Initialization
# ============================================================


def test_init_deterministic():
    a = init_params("f", [2, 2], Rng(5))
    b = init_params("f", [2, 2], Rng(5))
    assert np.array_equal(a.weights[0], b.weights[0])


def test_init_biases_zero():
    p = init_params("f", [3, 7, 2], Rng(0))
    assert all(np.all(bias == 0.0) for bias in p.biases)


def test_init_fan_bound():
    p = init_params("r", [4, 4], Rng(1))
    bound = np.sqrt(6.0 / 8.0)
    assert np.all(np.abs(p.weights[0]) <= bound)
    # and the draw actually uses the range, not a degenerate corner of it
    assert np.max(np.abs(p.weights[0])) > 0.25 * bound


def test_init_skip_matrix():
    p = init_params("g", [3, 8, 3], Rng(2))
    assert p.skip.shape == (3, 3)
    assert p.array_names() == ["W0", "b0", "W1", "b1", "skip"]


def _network_from(source: str, tmp_path) -> MlpParams:
    made = init_params("g", [3, 5, 2], Rng(6))
    if source == "init_params":
        return made
    if source == "from_arrays":
        return MlpParams.from_arrays("g", [3, 5, 2], made.weights, made.biases, skip=made.skip)
    path = tmp_path / "cp.bin"
    save_checkpoint(path, init_state(GameConfig(k=2, n=3, jscc_hidden=5, data_hidden=4)))
    return load_checkpoint(path)["g"]


@pytest.mark.parametrize("source", ["init_params", "load_checkpoint", "from_arrays"])
def test_parameters_are_views_of_one_buffer(tmp_path, source):
    params = _network_from(source, tmp_path)
    views = params.weights + params.biases + [params.skip]
    assert params.buffer.ndim == 1 and params.buffer.flags.c_contiguous
    assert all(np.shares_memory(v, params.buffer) for v in views)
    assert sum(v.size for v in views) == params.buffer.size
    laid_out = np.concatenate([params.array(name).ravel() for name in params.array_names()])
    assert np.array_equal(laid_out, params.buffer)
    # a binding reads the buffer itself, so an update after backward shows through it
    bound = BoundMlp(Tape(params.buffer.dtype), params)
    leaves = {name: node.value for name, node in bound.nodes.items()}
    before = params.buffer.copy()
    adam_step(params, [np.ones_like(params.array(name)) for name in params.array_names()],
              AdamState(lr=0.25))
    assert not np.any(params.buffer == before)
    for name, leaf in leaves.items():
        assert np.shares_memory(leaf, params.buffer)
        assert np.array_equal(leaf, params.array(name)), name


def test_buffer_must_fit_the_layer_dims():
    with pytest.raises(ShapeError, match="needs a flat buffer of 9 values"):
        MlpParams("f", [2, 2, 1], np.zeros(10))
    with pytest.raises(ShapeError, match="needs a flat buffer of 9 values"):
        MlpParams("r", [2, 2, 1], np.zeros((3, 3)))
    with pytest.raises(ShapeError, match=r"W1 has shape \(1, 2\), given \(2, 1\)"):
        MlpParams.from_arrays("f", [2, 2, 1], [np.zeros((2, 2)), np.zeros((2, 1))],
                              [np.zeros(2), np.zeros(1)])
    # g and h carry a skip matrix and f and r do not, so a mismatched one misses the buffer
    with pytest.raises(ShapeError, match="needs a flat buffer of 11 values"):
        MlpParams.from_arrays("g", [2, 2, 1], [np.zeros((2, 2)), np.zeros((1, 2))],
                              [np.zeros(2), np.zeros(1)])
    with pytest.raises(ShapeError, match="needs a flat buffer of 9 values"):
        MlpParams.from_arrays("f", [2, 2, 1], [np.zeros((2, 2)), np.zeros((1, 2))],
                              [np.zeros(2), np.zeros(1)], skip=np.zeros((1, 2)))
    with pytest.raises(ConfigError, match="no skip matrix"):
        init_params("f", [2, 2], Rng(0)).array("skip")


def test_init_bad_dims():
    with pytest.raises(ConfigError):
        init_params("f", [], Rng(0))
    with pytest.raises(ConfigError):
        init_params("f", [2, 0, 2], Rng(0))
    with pytest.raises(ConfigError, match="unknown network role 'q'"):
        init_params("q", [2, 2], Rng(0))
    with pytest.raises(ConfigError, match="unknown network role 'net'"):
        MlpParams("net", [2, 2], np.zeros(6))


# ============================================================
# Forward passes
# ============================================================


def test_zero_weight_identity_output_gives_zeros():
    p = linear_net(np.zeros((3, 2)))
    out = mlp_apply(p, np.array([[1.0, -2.0], [0.5, 4.0]]))
    assert np.array_equal(out, np.zeros((2, 3)))


def test_single_layer_identity_matrix_is_identity_map():
    p = linear_net(np.eye(3))
    x = np.array([[1.0, -2.0, 0.25]])
    assert np.array_equal(mlp_apply(p, x), x)


def test_hand_computed_hidden_layer():
    # x=[1,2]: pre-act [1-2+0.1, 0.5+0.5-0.2] = [-0.9, 0.8]; relu keeps 0.8;
    # output 2*0 - 1*0.8 + 0.3 = -0.5
    p = MlpParams.from_arrays("f", [2, 2, 1],
                  [np.array([[1.0, -1.0], [0.5, 0.25]]), np.array([[2.0, -1.0]])],
                  [np.array([0.1, -0.2]), np.array([0.3])])
    out = mlp_apply(p, np.array([[1.0, 2.0]]))
    assert abs(out[0, 0] - (-0.5)) <= 1e-12


def test_sigmoid_output_at_zero_logits():
    p = linear_net(np.zeros((2, 2)), role="r")
    out = mlp_apply(p, np.ones((3, 2)))
    assert np.array_equal(out, np.full((3, 2), 0.5))


def test_skip_with_zero_mlp_is_pure_linear_map():
    skip = np.array([[2.0, 0.0], [0.0, -1.0]])
    p = MlpParams.from_arrays("h", [2, 4, 2], [np.zeros((4, 2)), np.zeros((2, 4))],
                  [np.zeros(4), np.zeros(2)], skip=skip)
    x = np.array([[1.0, 3.0], [-2.0, 0.5]])
    assert np.array_equal(mlp_apply(p, x), x @ skip.T)


def test_record_free_forward_equals_recorded_bitwise():
    for seed, role in enumerate(ROLE_TRAITS, start=3):
        p = init_params(role, [4, 6, 4], Rng(seed))
        x = Rng(seed + 100).normal((5, 4))
        tape = Tape()
        bound = BoundMlp(tape, p)
        recorded = bound(tape.const(x)).value
        assert len(tape.nodes) > 0
        assert np.array_equal(mlp_apply(p, x), recorded)


@pytest.mark.parametrize("role", ["f", "r", "g", "h"])
def test_role_forward_matches_numpy_reference(role):
    p = init_params(role, [4, 6, 3 if role in "fr" else 4], Rng(20))
    p.buffer[:] = Rng(21).normal(p.buffer.shape)  # nonzero biases too
    x = Rng(22).normal((7, 4))
    out = mlp_apply(p, x)
    assert np.max(np.abs(out - reference_forward(p, x))) <= 1e-5 * max(1.0, np.max(np.abs(out)))
    assert p.hidden_activation == "relu"  # read by the benchmark's own reference forward
    if role == "r":
        assert np.all((out > 0.0) & (out < 1.0))


def test_forward_shape_error():
    p = linear_net(np.eye(2))
    with pytest.raises(ShapeError):
        mlp_apply(p, np.ones((3, 5)))


def test_forward_of_1d_input_is_shape_error():
    p = linear_net(np.eye(2))
    with pytest.raises(ShapeError, match=r"expects \[batch, 2\] input, got \(2,\)"):
        mlp_apply(p, np.ones(2))
    tape = Tape()
    with pytest.raises(ShapeError):
        mlp_forward_graph(BoundMlp(tape, p), tape.const(np.ones(2)))


def test_forward_overflow_names_the_op_on_record_free_tape():
    p = linear_net(np.full((1, 2), 1e300))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="^non-finite value out of op 'affine' on a record"):
            mlp_apply(p, np.full((1, 2), 1e300))


# ============================================================
# Power normalization
# ============================================================


def test_power_normalize_two_point_example():
    # values {0, 2}: mean 1, biased variance 1, so outputs are -+1/sqrt(1+eps)
    z = np.array([[0.0], [2.0]])
    out = normalized(z, 1.0)
    expected = np.array([[-1.0], [1.0]]) / np.sqrt(1.0 + POWER_EPS)
    assert np.allclose(out, expected, rtol=0, atol=1e-15)


def test_power_normalize_standardized_input_nearly_unchanged():
    z = np.array([[-1.0, 1.0], [1.0, -1.0]])  # zero mean, unit variance
    out = normalized(z, 1.0)
    assert np.max(np.abs(out - z)) <= 1e-5


def test_power_normalize_constant_coordinate_maps_to_zero():
    # dyadic constant: the mean is exact, so the column collapses to exact zeros
    z = np.column_stack([np.full(8, 4.0), np.arange(8.0)])
    out = normalized(z, 1.0)
    assert np.array_equal(out[:, 0], np.zeros(8))
    # non-dyadic constant: centering leaves ~1 ulp, eps keeps the output tiny
    z2 = np.column_stack([np.full(8, 3.7), np.arange(8.0)])
    out2 = normalized(z2, 1.0)
    assert np.max(np.abs(out2[:, 0])) < 1e-12


def test_power_normalize_moment_invariants():
    z = Rng(6).normal((512, 4)) * 2.0 + 0.3  # healthy variance, offset mean
    out = normalized(z, 1.0)
    assert np.max(np.abs(out.mean(axis=0))) <= 1e-8
    assert np.max(np.abs(out.var(axis=0) - 1.0)) <= 2e-5


def test_power_normalize_target_power():
    z = Rng(7).normal((512, 3)) * 3.0
    out = normalized(z, 2.5)
    assert np.max(np.abs(out.var(axis=0) - 2.5)) <= 5e-5


def test_power_normalize_affine_invariance():
    # the residual difference is the eps term, ~ eps/(2 var) * |out| ~ 2e-9 here
    z = Rng(8).normal((256, 3)) * 100.0
    out1 = normalized(z, 1.0)
    out2 = normalized(3.0 * z - 50.0, 1.0)
    assert np.max(np.abs(out1 - out2)) <= 1e-8


def test_power_normalize_record_free_equals_recorded():
    z = Rng(9).normal((64, 5))
    tape = Tape()
    out = power_normalize(tape.const(z), 1.0)
    assert len(tape.nodes) > 0
    assert np.array_equal(normalized(z, 1.0), out.value)


@pytest.mark.parametrize("shape,power", [((2, 3), 1.0), ((128, 2), 2.5), ((513, 8), 0.3)])
def test_power_normalize_on_record_free_tape_equals_numpy_reference(shape, power):
    z = 4.0 * Rng(48).normal(shape) - 1.5
    z[:, -1] = 0.7  # a constant column: sigma = sqrt(eps)
    want = power_normalize_reference(z, power)
    assert np.max(np.abs(normalized(z, power) - want)) <= 1e-12


def test_power_normalize_is_one_node():
    # the backward recomputes the batch statistics from the input, so the node keeps only
    # its output
    tape = Tape(np.float32)
    z = tape.const(Rng(49).normal((128, 2)))
    out = power_normalize(z, 1.0)
    assert [node.op for node in tape.nodes] == ["const", "power_normalize"]
    assert out.value.dtype == np.float32
    (g,) = backward_grads(tape, ad.sum_all(out * tape.const(np.ones((128, 2)))), [z])
    assert g.dtype == np.float32 and g.shape == (128, 2)


def test_power_normalize_is_differentiable():
    z = Rng(10).normal((16, 2))
    tape = Tape()
    zt = tape.const(z)
    loss = ad.mse(power_normalize(zt, 1.0), tape.const(np.zeros(z.shape)))
    (g,) = backward_grads(tape, loss, [zt])
    assert g.shape == z.shape
    assert np.any(g != 0.0)


def test_power_normalize_batch_of_one_rejected():
    with pytest.raises(ShapeError):
        normalized(np.ones((1, 2)), 1.0)
    tape = Tape()
    with pytest.raises(ShapeError):
        power_normalize(tape.const(np.ones((1, 2))), 1.0)


# ============================================================
# Role wiring
# ============================================================


def test_make_networks_aj_shapes():
    roles = make_networks(k=3, n=10, jscc_hidden=16, regularizer="aj", rng=Rng(0))
    roles.validate(3, 10)
    assert roles.f.layer_dims == [10, 512, 3]
    assert roles.r.layer_dims == [3, 512, 10]
    assert roles.g.layer_dims == [3, 16, 3] and roles.g.skip is not None
    assert roles.h.layer_dims == [3, 16, 3] and roles.h.skip is not None
    assert roles.r.output_activation == "sigmoid"
    assert set(roles.present()) == {"f", "r", "g", "h"}


def test_make_networks_kl_head_width():
    roles = make_networks(k=3, n=10, jscc_hidden=16, regularizer="kl", rng=Rng(0))
    assert roles.f.out_dim == 6
    assert roles.g is None and roles.h is None
    assert set(roles.present()) == {"f", "r"}


def test_make_networks_deterministic():
    a = make_networks(2, 8, 8, "aj", Rng(12))
    b = make_networks(2, 8, 8, "aj", Rng(12))
    for name in ("f", "r", "g", "h"):
        pa, pb = a.present()[name], b.present()[name]
        for pn in pa.array_names():
            assert np.array_equal(pa.array(pn), pb.array(pn))


def test_validate_catches_dim_mismatch():
    roles = make_networks(2, 8, 8, "aj", Rng(0))
    with pytest.raises(ConfigError):
        roles.validate(3, 8)
    with pytest.raises(ConfigError):
        roles.validate(2, 9)


def test_validate_catches_a_network_in_another_role_slot():
    roles = make_networks(2, 8, 8, "aj", Rng(0))
    # r's dims fit f's slot only when n = k, so only the role check can catch it
    square = make_networks(2, 2, 8, "aj", Rng(0))
    with pytest.raises(ConfigError, match="the f slot holds a network of role 'r'"):
        NetworkRoles(f=square.r, r=square.r, g=square.g, h=square.h).validate(2, 2)
    with pytest.raises(ConfigError, match="the g slot holds a network of role 'h'"):
        NetworkRoles(f=roles.f, r=roles.r, g=roles.h, h=roles.h).validate(2, 8)


def test_validate_needs_g_and_h_together():
    roles = make_networks(2, 8, 8, "aj", Rng(0))
    with pytest.raises(ConfigError, match="g and h must be given together"):
        NetworkRoles(f=roles.f, r=roles.r, g=roles.g).validate(2, 8)
    with pytest.raises(ConfigError, match="g and h must be given together"):
        NetworkRoles(f=roles.f, r=roles.r, h=roles.h).validate(2, 8)
