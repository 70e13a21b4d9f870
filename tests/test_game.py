"""Adversarial game: losses, alternation schedule, and the training loop."""

import copy
import gc
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import expit

from conftest import normalized
from latentjam import autodiff as ad
from latentjam import game
from latentjam.autodiff import EagerTape, Tape, backward_grads
from latentjam.baselines import vae_sample
from latentjam.data_io import BatchPlan, Dataset, batches, synth_source
from latentjam.errors import ConfigError, NumericError, ShapeError
from latentjam.game import (
    GameConfig,
    channel_output,
    data_loss,
    evaluate,
    init_state,
    jscc_loss,
    split_eval,
    train,
    train_step,
)
from latentjam.nets import (
    BoundMlp,
    MlpParams,
    mlp_apply,
    power_normalize,
)
from latentjam.rng import Rng, derive_seed

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def passthrough_mlp(role: str, k: int, hidden: int = 4, skip_scale: float = 1.0) -> MlpParams:
    """Zero-weight g or h whose skip matrix carries the signal."""
    dims = [k, hidden, k]
    weights = [np.zeros((hidden, k)), np.zeros((k, hidden))]
    biases = [np.zeros(hidden), np.zeros(k)]
    return MlpParams.from_arrays(role, dims, weights, biases, skip=skip_scale * np.eye(k))


def zero_reconstructor(k: int, n: int, hidden: int = 4) -> MlpParams:
    """Zero-weight r: its sigmoid head emits 0.5 everywhere."""
    weights = [np.zeros((hidden, k)), np.zeros((n, hidden))]
    return MlpParams.from_arrays("r", [k, hidden, n], weights, [np.zeros(hidden), np.zeros(n)])


# ============================================================
# Config
# ============================================================


def test_config_validation():
    with pytest.raises(ConfigError):
        GameConfig(k=2, n=2, P_t=0.0)
    with pytest.raises(ConfigError):
        GameConfig(k=2, n=2, P_a=-1.0)
    with pytest.raises(ConfigError):
        GameConfig(k=2, n=2, sigma_n_sq=-0.1)
    with pytest.raises(ConfigError):
        GameConfig(k=2, n=2, eta=-1.0)
    with pytest.raises(ConfigError):
        GameConfig(k=0, n=2)
    with pytest.raises(ConfigError):
        GameConfig(k=2, n=2, batch_size=1)
    with pytest.raises(ConfigError):
        GameConfig(k=2, n=2, regularizer="vamp")
    with pytest.raises(ConfigError):
        GameConfig(k=2, n=2, jscc_steps_per_data_step=0)


@pytest.mark.parametrize("field, value", [
    ("P_t", float("nan")), ("P_a", float("inf")), ("sigma_n_sq", float("inf")),
    ("eta", float("inf")), ("eta", float("nan")), ("lr", float("nan")),
    ("lr", float("inf")), ("lambda_weight", float("nan")), ("mmd_scale", float("inf")),
    ("lr", -1.0), ("epochs", -3), ("lambda_weight", -1.0), ("mmd_scale", 0.0),
    ("data_hidden", 0), ("jscc_hidden", -3),
])
def test_config_rejects_nonfinite_and_negative(field, value):
    # mmd reads every one of these fields
    with pytest.raises(ConfigError, match=field):
        GameConfig(k=2, n=4, regularizer="mmd", **{field: value})
    if field.endswith("_hidden"):  # refused for every regularizer, also one that builds no g or h
        for reg in ("aj", "kl", "none"):
            with pytest.raises(ConfigError, match=field):
                GameConfig(k=2, n=4, regularizer=reg, **{field: value})


def test_regularizer_defaults():
    assert GameConfig(k=2, n=2, regularizer="kl").lambda_weight == 1.0
    assert GameConfig(k=2, n=2, regularizer="mmd").lambda_weight == 10.0
    for reg in ("aj", "none"):  # no default is materialized for a setting the step never reads
        cfg = GameConfig(k=2, n=2, regularizer=reg)
        assert cfg.lambda_weight is None and cfg.mmd_scale is None
    assert GameConfig(k=2, n=2, regularizer="kl").mmd_scale is None
    assert GameConfig(k=2, n=2, regularizer="mmd", lambda_weight=0.25).lambda_weight == 0.25
    assert GameConfig(k=3, n=2, regularizer="mmd").mmd_scale == 6.0
    assert GameConfig(k=3, n=2, regularizer="mmd", mmd_scale=0.5).mmd_scale == 0.5


@pytest.mark.parametrize("reg, field", [
    ("aj", "lambda_weight"), ("none", "lambda_weight"), ("aj", "mmd_scale"),
    ("none", "mmd_scale"), ("kl", "mmd_scale"),
])
def test_config_ignores_settings_the_step_never_reads(reg, field):
    # a valid value is accepted and left unset, so a resolved config that lists it
    # still runs and the re-resolved config omits it; an invalid one is still refused
    for value in (1.0, 10.0):
        assert getattr(GameConfig(k=2, n=4, regularizer=reg, **{field: value}), field) is None
    with pytest.raises(ConfigError, match=f"^{field} must be finite, got inf$"):
        GameConfig(k=2, n=4, regularizer=reg, **{field: float("inf")})


# ============================================================
# Channel
# ============================================================


def test_channel_noiseless_is_exact_sum():
    rng = Rng(derive_seed(0, "chan"))
    y_val = rng.spawn("y").normal((8, 3))
    z_val = rng.spawn("z").normal((8, 3))
    tape = Tape()
    out = channel_output(tape.const(y_val), tape.const(z_val), 0.0, Rng(0))
    assert np.array_equal(out.value, y_val + z_val)


def test_channel_shape_mismatch():
    tape = Tape()
    with pytest.raises(ShapeError):
        channel_output(tape.const(np.zeros((4, 2))), tape.const(np.zeros((4, 3))), 0.0, Rng(0))


def test_channel_noise_moments():
    tape = Tape()
    zeros = tape.const(np.zeros((100_000, 1)))
    out = channel_output(zeros, tape.const(np.zeros((100_000, 1))), 1.0, Rng(1))
    assert 0.98 <= out.value.var() <= 1.02
    assert abs(out.value.mean()) < 0.02


def test_channel_noise_deterministic():
    tape1, tape2 = Tape(), Tape()
    a = channel_output(tape1.const(np.zeros((16, 2))), tape1.const(np.zeros((16, 2))), 0.5, Rng(7))
    b = channel_output(tape2.const(np.zeros((16, 2))), tape2.const(np.zeros((16, 2))), 0.5, Rng(7))
    assert np.array_equal(a.value, b.value)


# ============================================================
# Channel-pair loss
# ============================================================


def scalar(t) -> float:
    return float(np.asarray(t.value).ravel()[0])


def test_jscc_dead_decoder_sees_source_power():
    # h == 0 means x_hat == 0, so the loss is E[x^2] ~ 1
    tape = Tape()
    g_b = BoundMlp(tape, passthrough_mlp("g", 2))
    h_b = BoundMlp(tape, passthrough_mlp("h", 2, skip_scale=0.0))
    x = tape.const(Rng(derive_seed(1, "jscc/dead")).normal((4096, 2)))
    z = tape.const(np.zeros((4096, 2)))
    loss = jscc_loss(g_b, h_b, x, z, 1.0, 0.0, Rng(0))
    assert abs(scalar(loss) - 1.0) < 0.05


def test_jscc_identity_codec_clean_channel():
    tape = Tape()
    g_b = BoundMlp(tape, passthrough_mlp("g", 2))
    h_b = BoundMlp(tape, passthrough_mlp("h", 2))
    x = tape.const(Rng(derive_seed(2, "jscc/id")).normal((4096, 2)))
    z = tape.const(np.zeros((4096, 2)))
    loss = jscc_loss(g_b, h_b, x, z, 1.0, 0.0, Rng(0))
    assert scalar(loss) < 0.01


def test_jscc_halving_decoder_against_unit_jammer():
    # x_hat = 0.5 (y + z) with y ~ x gives E[(x - x_hat)^2] ~ 0.25 (1 + 1)
    tape = Tape()
    g_b = BoundMlp(tape, passthrough_mlp("g", 2))
    h_b = BoundMlp(tape, passthrough_mlp("h", 2, skip_scale=0.5))
    rng = Rng(derive_seed(3, "jscc/half"))
    x = tape.const(rng.spawn("x").normal((4096, 2)))
    z = tape.const(rng.spawn("z").normal((4096, 2)))
    loss = jscc_loss(g_b, h_b, x, z, 1.0, 0.0, Rng(0))
    assert abs(scalar(loss) - 0.5) < 0.05


# ============================================================
# Compressor objective
# ============================================================


def test_data_loss_eta_zero_is_reconstruction():
    tape = Tape()
    recon = ad.sum_all(ad.square(tape.const(np.array([[1.0, 2.0]]))))
    out = data_loss(recon, tape.const([0.7]), 0.0)
    assert scalar(out) == scalar(recon)


def test_data_loss_subtracts_scaled_channel_term():
    tape = Tape()
    recon = ad.sum_all(ad.square(tape.const(np.array([[2.0]]))))  # 4.0
    out = data_loss(recon, tape.const([0.3]), 2.0)
    assert abs(scalar(out) - (4.0 - 0.6)) < 1e-14


def test_data_loss_exact_on_perfect_reconstruction():
    # zero-weight sigmoid reconstructor emits 0.5 everywhere; feed it 0.5s
    tape = Tape()
    r_b = BoundMlp(tape, zero_reconstructor(2, 3))
    d = tape.const(np.full((16, 3), 0.5))
    z = tape.const(np.zeros((16, 2)))
    recon = ad.mse(d, r_b(z))
    out = data_loss(recon, tape.const([0.3]), 1.0)
    assert scalar(out) == -0.3


def test_data_loss_rejects_negative_eta():
    tape = Tape()
    recon = ad.sum_all(ad.square(tape.const(np.zeros((2, 2)))))
    with pytest.raises(ConfigError):
        data_loss(recon, tape.const([0.1]), -1.0)


# ============================================================
# Alternation schedule
# ============================================================


def small_cfg(**over):
    base = dict(k=2, n=3, batch_size=16, seed=4, jscc_hidden=8, data_hidden=16)
    base.update(over)
    return GameConfig(**base)


def snapshot(networks):
    out = {}
    for name, params in networks.present().items():
        out[name] = {p: params.array(p).copy() for p in params.array_names()}
    return out


def test_train_step_rejects_baseline_configs():
    cfg = small_cfg(regularizer="kl")
    state = init_state(small_cfg())  # aj's f has a k-wide head
    with pytest.raises(ConfigError, match="2k-wide head"):
        train_step(state, np.zeros((16, 3)), cfg)


def test_train_step_checks_batch_width():
    cfg = small_cfg()
    state = init_state(cfg)
    with pytest.raises(ShapeError):
        train_step(state, np.zeros((16, 5)), cfg)


def test_train_step_zero_lr_moves_nothing():
    cfg = small_cfg(lr=0.0)
    state = init_state(cfg)
    before = snapshot(state.networks)
    batch = synth_source("gaussian", 16, 3, seed=4).images
    train_step(state, batch, cfg)
    after = snapshot(state.networks)
    for net in before:
        for pname in before[net]:
            assert np.array_equal(before[net][pname], after[net][pname]), f"{net}.{pname}"
    # the optimizer still advanced
    assert state.opt["f"].step_count == 1
    assert state.opt["g"].step_count == 1


def test_eta_only_touches_the_compressor_side():
    batch = synth_source("gaussian", 16, 3, seed=4).images
    states = {}
    for eta in (0.0, 7.0):
        cfg = small_cfg(eta=eta)
        state = init_state(cfg)
        train_step(state, batch, cfg)
        states[eta] = state
    a, b = states[0.0].networks, states[7.0].networks
    # the auxiliary pair trains against z read as a constant: identical both ways
    for net in ("g", "h"):
        pa, pb = getattr(a, net), getattr(b, net)
        for pname in pa.array_names():
            assert np.array_equal(pa.array(pname), pb.array(pname)), f"{net}.{pname}"
    # the reconstructor only sees the reconstruction term: identical too
    for pname in a.r.array_names():
        assert np.array_equal(a.r.array(pname), b.r.array(pname))
    # the compressor is the one pushed by the channel term
    assert any(not np.array_equal(a.f.array(p), b.f.array(p)) for p in a.f.array_names())


def test_live_jammer_carries_compressor_gradient_to_the_channel_term():
    cfg = small_cfg(seed=6)
    state = init_state(cfg)
    batch = synth_source("gaussian", 16, 3, seed=6).images
    tape = Tape()
    f_b = BoundMlp(tape, state.networks.f)
    g_b = BoundMlp(tape, state.networks.g)
    h_b = BoundMlp(tape, state.networks.h)
    d = tape.const(batch)
    z_live = power_normalize(f_b(d), cfg.P_a)
    x = tape.const(Rng(derive_seed(6, "leak")).normal((16, 2)))
    loss = jscc_loss(g_b, h_b, x, z_live, cfg.P_t, cfg.sigma_n_sq, Rng(7))
    grads = backward_grads(tape, loss, list(f_b.nodes.values()))
    assert any(np.any(g != 0.0) for g in grads)


def test_phase_a_update_of_frozen_pair_raises(monkeypatch):
    cfg = small_cfg(seed=8)
    state = init_state(cfg)
    batch = synth_source("gaussian", 16, 3, seed=8).images
    real_update = game._update

    def leaky_update(state, tape, loss, bounds):
        real_update(state, tape, loss, bounds)
        if bounds[0].params.role == "g":  # phase (a) also nudges the compressor
            w = state.networks.f.weights[0]
            w[0, 0] = np.nextafter(w[0, 0], np.inf)  # the smallest step its dtype can take

    monkeypatch.setattr(game, "_update", leaky_update)
    with pytest.raises(NumericError, match=r"frozen f\.W0 changed in phase \(a\)"):
        train_step(state, batch, cfg)


def test_phase_b_update_of_frozen_pair_raises(monkeypatch):
    cfg = small_cfg(seed=8)
    state = init_state(cfg)
    batch = synth_source("gaussian", 16, 3, seed=8).images
    real_update = game._update

    def leaky_update(state, tape, loss, bounds):
        real_update(state, tape, loss, bounds)
        if bounds[0].params.role == "f":  # phase (b) also nudges the frozen transmitter
            w = state.networks.g.weights[0]
            w[0, 0] = np.nextafter(w[0, 0], np.inf)  # the smallest step its dtype can take

    monkeypatch.setattr(game, "_update", leaky_update)
    with pytest.raises(NumericError, match=r"frozen g\.W0 changed in phase \(b\)"):
        train_step(state, batch, cfg)


@pytest.mark.parametrize("reg", ["aj", "kl"])
def test_each_update_makes_one_adam_step_per_network(monkeypatch, reg):
    cfg = small_cfg(regularizer=reg, jscc_steps_per_data_step=2)
    state = init_state(cfg)
    batch = synth_source("gaussian", 16, 3, seed=8).images
    present = state.networks.present()
    updates = []  # per `_update`: the bound networks, then the networks Adam stepped
    real_update, real_adam = game._update, game.adam_step

    def update(state, tape, loss, bounds):
        updates.append(([b.params.role for b in bounds], []))
        real_update(state, tape, loss, bounds)

    def adam(p, grads, opt):
        name = next(name for name, params in present.items() if params is p)
        assert opt is state.opt[name]
        updates[-1][1].append(name)
        return real_adam(p, grads, opt)

    monkeypatch.setattr(game, "_update", update)
    monkeypatch.setattr(game, "adam_step", adam)
    train_step(state, batch, cfg)
    assert [bound for bound, _ in updates] == ([["g", "h"]] * 2 if reg == "aj" else []) + [["f", "r"]]
    assert all(stepped == bound for bound, stepped in updates)


def test_update_rejects_a_transposed_leaf_gradient(monkeypatch):
    # right size, wrong shape: raveled into the buffer it would scramble the update silently
    cfg = small_cfg()
    state = init_state(cfg)
    batch = synth_source("gaussian", 16, 3, seed=8).images
    real_grads = game.backward_grads

    def transposed(*args):
        grads = real_grads(*args)
        grads[0] = grads[0].T  # phase (a) asks for g.W0 first, shape (8, 2)
        return grads

    monkeypatch.setattr(game, "backward_grads", transposed)
    before = state.networks.g.buffer.copy()
    with pytest.raises(ShapeError, match=r"W0 has shape \(8, 2\), given \(2, 8\)"):
        train_step(state, batch, cfg)
    assert np.array_equal(state.networks.g.buffer, before)
    assert state.opt["g"].step_count == 0


def test_adam_reads_the_leaf_gradients_in_place(monkeypatch):
    # no gradient of a network larger than one block is copied: every block Adam reads there
    # is a view of a gradient backward returned (f's W0 and r's W1 span two blocks each at
    # n=784); a network of at most one block (g, h) is one pass over its packed gradients
    cfg = small_cfg(n=784, data_hidden=100)
    state = init_state(cfg)
    nets = state.networks.present()
    assert {name for name, p in nets.items() if p.buffer.size > ad._ADAM_BLOCK} == {"f", "r"}
    batch = synth_source("mixture", 16, 784, seed=8).images
    returned, read = [], {name: [] for name in nets}
    real_grads, real_ops = game.backward_grads, ad._adam_ops

    def backward(*args):
        out = real_grads(*args)
        returned.extend(out)
        return out

    def adam_ops(*args):  # five step constants, the mask, then p, g, m, v and the scratch
        read[next(n for n, p in nets.items() if np.shares_memory(args[6], p.buffer))].append(args[7])
        real_ops(*args)

    monkeypatch.setattr(game, "backward_grads", backward)
    monkeypatch.setattr(ad, "_adam_ops", adam_ops)
    train_step(state, batch, cfg)
    for name in ("f", "r"):
        assert len(read[name]) == len(nets[name].array_names()) + 1
        assert all(any(np.shares_memory(g, leaf) for leaf in returned) for g in read[name])
    for name in ("g", "h"):
        assert [g.size for g in read[name]] == [nets[name].buffer.size]
    assert sum(g.size for g in read["f"]) == nets["f"].buffer.size


def test_a_leaf_reached_twice_accumulates_in_backward_order():
    # f applied to three batches on one tape: each leaf's gradient is the sum over the uses
    # in reverse recording order, ((g3 + g2) + g1) in float32, and Adam steps with exactly that
    cfg = small_cfg()
    state = init_state(cfg)
    parts = [synth_source("gaussian", 16, 3, seed=s).images for s in (1, 2, 3)]
    params = state.networks.f
    use_grads = []
    for d in parts:
        tape = Tape(np.float32)
        f_b = BoundMlp(tape, params)
        loss = ad.sum_all(ad.square(f_b(tape.const(d))))
        use_grads.append(backward_grads(tape, loss, list(f_b.nodes.values())))
    want = [(g3 + g2) + g1 for g1, g2, g3 in zip(*use_grads)]
    expected = copy.deepcopy(params)
    ad.adam_step(expected, want, ad.AdamState(lr=cfg.lr))

    tape = Tape(np.float32)
    f_b = BoundMlp(tape, params)
    terms = [ad.sum_all(ad.square(f_b(tape.const(d)))) for d in parts]
    game._update(state, tape, terms[0] + terms[1] + terms[2], [f_b])
    assert np.array_equal(params.buffer, expected.buffer)
    assert state.opt["f"].step_count == 1


@pytest.mark.parametrize("regularizer,n,data_hidden,jscc_steps,most", [
    ("aj", 784, 512, 1, 66), ("aj", 8, 64, 2, 89), ("mmd", 8, 64, 2, 23)])
def test_step_records_few_tape_nodes(monkeypatch, regularizer, n, data_hidden, jscc_steps, most):
    # the MNIST shape and the comparison shape; each power_normalize is one node: g's on
    # every tape, f's on phase (b)'s; each g/h skip path is one affine node; each squared
    # error is one mse node, and the mmd penalty one imq_mmd node
    cfg = GameConfig(k=2, n=n, batch_size=128, seed=3, data_hidden=data_hidden, jscc_hidden=64,
                     jscc_steps_per_data_step=jscc_steps, regularizer=regularizer)
    state = init_state(cfg)
    tapes = []
    real_grads = game.backward_grads

    def backward(tape, *args):
        tapes.append(tape)
        return real_grads(tape, *args)

    monkeypatch.setattr(game, "backward_grads", backward)
    train_step(state, synth_source("mixture", 128, n, seed=3).images, cfg)
    assert sum(len(tape.nodes) for tape in tapes) <= most
    ops = [node.op for tape in tapes for node in tape.nodes]
    aj = regularizer == "aj"
    assert ops.count("power_normalize") == (jscc_steps + 2 if aj else 1)
    assert ops.count("mse") == (jscc_steps + 2 if aj else 1)
    assert ops.count("imq_mmd") == (regularizer == "mmd")


def test_recorded_tapes_are_freed_by_reference_counting():
    # a tape holds its nodes and each tensor holds its tape, but no node holds a tensor: a
    # step's tapes go when their last tensor does, without waiting for the cycle collector
    cfg = small_cfg(jscc_steps_per_data_step=2)
    state = init_state(cfg)
    data = synth_source("gaussian", 128, 3, seed=4).images
    gc.collect()
    gc.disable()
    try:
        train_step(state, data[:16], cfg)
        evaluate(state, cfg, data, epoch=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_every_op_has_a_caller(monkeypatch):
    # one training step of each regularizer at the comparison shape, then `evaluate`, runs
    # every op of `_OPS`, recorded or on a record-free tape, so an op that outlives its last
    # caller fails here
    seen = set()
    real_apply = Tape.apply

    def apply(self, op, args, attrs=None):
        seen.add(op)
        return real_apply(self, op, args, attrs)

    monkeypatch.setattr(Tape, "apply", apply)
    data = synth_source("mixture", 128, 8, seed=3).images
    for regularizer in ("aj", "kl", "mmd", "none"):
        cfg = GameConfig(k=2, n=8, batch_size=128, seed=3, data_hidden=64, jscc_hidden=64,
                         jscc_steps_per_data_step=2, regularizer=regularizer)
        evaluate(train_step(init_state(cfg), data, cfg), cfg, data, epoch=1)
    assert seen == set(ad._OPS)


def test_compressor_steers_channel_loss_both_ways():
    # after a short warmup, nudging f along +/- grad(jscc) moves jscc up/down
    cfg = small_cfg(seed=7)
    state = init_state(cfg)
    data = synth_source("gaussian", 320, 3, seed=7).images
    for i in range(20):
        train_step(state, data[16 * i:16 * (i + 1)], cfg)
    batch = data[:16]
    x_batch = Rng(derive_seed(7, "steer")).normal((16, 2))
    f = state.networks.f
    f = MlpParams(f.role, f.layer_dims, f.buffer.astype(np.float64))

    def jscc_of():
        tape = Tape()
        f_b = BoundMlp(tape, f)
        g_b, h_b = BoundMlp(tape, state.networks.g), BoundMlp(tape, state.networks.h)
        z = power_normalize(f_b(tape.const(batch)), cfg.P_a)
        jt = jscc_loss(g_b, h_b, tape.const(x_batch), z, cfg.P_t, cfg.sigma_n_sq, Rng(8))
        return tape, f_b, jt

    tape, f_b, jt = jscc_of()
    grad = np.concatenate([g.ravel() for g in backward_grads(tape, jt, list(f_b.nodes.values()))])
    base, start = scalar(jt), f.buffer.copy()
    for sign, cmp in ((+1.0, np.greater), (-1.0, np.less)):
        f.buffer[:] = start + sign * 1e-3 * grad
        assert cmp(scalar(jscc_of()[2]), base), f"sign {sign}"


# ============================================================
# Training loop harness
# ============================================================


def test_train_validates_inputs():
    cfg = small_cfg()
    empty = Dataset(np.zeros((0, 3)), {})
    with pytest.raises(ConfigError, match="empty"):
        train(cfg, empty)
    bad_range = Dataset(np.full((64, 3), 1.5), {})
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        train(cfg, bad_range)
    ds = synth_source("gaussian", 64, 3, seed=0)
    # both splits are checked: width, and every value finite and in [0, 1]
    for images, eval_images, match in (
            (ds.images[:, :2], ds.images, r"training images have shape \(64, 2\), need \[rows, 3\]"),
            (ds.images, ds.images[:, :2], r"evaluation images have shape \(64, 2\)"),
            (np.where(np.arange(3) == 1, np.nan, ds.images), None, "training values must be finite"),
            (ds.images, np.where(np.arange(3) == 1, 5.0, ds.images), r"evaluation values .*\[0, 1\]"),
            (ds.images, np.where(np.arange(3) == 1, np.nan, ds.images), "evaluation values")):
        eval_ds = None if eval_images is None else Dataset(eval_images, {})
        with pytest.raises(ConfigError, match=match):
            train(cfg, Dataset(images, {}), eval_ds)
    with pytest.raises(ConfigError, match="eval_every"):
        train(cfg, ds, eval_every=0)
    with pytest.raises(ConfigError, match="batch_size"):
        train(small_cfg(batch_size=128), ds)


def test_train_zero_epochs_returns_untrained_state():
    cfg = small_cfg(epochs=0)
    ds = synth_source("gaussian", 64, 3, seed=1)
    state = train(cfg, ds)
    assert state.epoch == 0 and state.history == []


def test_train_eval_schedule():
    ds = synth_source("gaussian", 256, 3, seed=2)
    state = train(small_cfg(epochs=3), ds, eval_every=2)
    # epoch 2 by cadence plus the forced final epoch
    assert [r.epoch for r in state.history] == [2, 3]


def test_train_rewraps_numeric_errors_with_position():
    cfg = small_cfg(lr=1e150, epochs=1)
    ds = synth_source("gaussian", 128, 3, seed=3)  # 64 rows are too few to evaluate
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="epoch 1, step"):
            train(cfg, ds)


def test_train_rewraps_evaluation_numeric_errors_with_epoch(monkeypatch):
    real_evaluate = game.evaluate

    def infinite_decoder(state, config, d_eval, epoch):
        # float32 weights cannot overflow evaluation's float64 products, so the decoder's
        # last weights are made infinite and binding them fails
        state.networks.r.weights[-1][:] = np.inf
        return real_evaluate(state, config, d_eval, epoch)

    monkeypatch.setattr(game, "evaluate", infinite_decoder)
    ds = synth_source("gaussian", 128, 3, seed=3)
    with pytest.raises(NumericError, match=r"^epoch 1, evaluation: non-finite value out of "
                                           r"op 'const' on a record-free tape$"):
        train(small_cfg(epochs=1), ds)


def test_train_eta_zero_matches_plain_autoencoder_bitwise():
    kwargs = dict(k=2, n=3, eta=0.0, epochs=2, batch_size=32, seed=11,
                  jscc_hidden=8, data_hidden=16)
    ds = synth_source("gaussian", 256, 3, seed=11)
    s_aj = train(GameConfig(regularizer="aj", **kwargs), ds)
    s_none = train(GameConfig(regularizer="none", **kwargs), ds)
    for net in ("f", "r"):
        pa = getattr(s_aj.networks, net)
        pb = getattr(s_none.networks, net)
        for pname in pa.array_names():
            assert np.array_equal(pa.array(pname), pb.array(pname)), f"{net}.{pname}"
    assert [r.data_mse for r in s_aj.history] == [r.data_mse for r in s_none.history]


# ============================================================
# Evaluation plumbing
# ============================================================


def test_split_eval_rules():
    big = Dataset(np.zeros((100_000, 2)), {})
    tr, ev = split_eval(big, None)
    assert tr.shape[0] == 90_000 and ev.shape[0] == 10_000
    mid = Dataset(np.zeros((2_000, 2)), {})
    tr, ev = split_eval(mid, None)
    assert tr.shape[0] == 1_800 and ev.shape[0] == 200
    small = Dataset(np.arange(1_000, dtype=np.float64).reshape(500, 2), {})
    tr, ev = split_eval(small, None)
    assert tr.shape[0] == 500 and ev.shape[0] == 500
    assert np.array_equal(ev, small.images[:500])
    explicit = Dataset(np.zeros((7, 2)), {})
    tr, ev = split_eval(small, explicit)
    assert ev.shape[0] == 7


def _evaluated_latents(monkeypatch, state, cfg, d_eval, calls=2) -> list:
    """The latent z each of `calls` evaluations hands to the report."""
    seen, real = [], game.evaluate_latents
    monkeypatch.setattr(game, "evaluate_latents",
                        lambda epoch, data_mse, z, jscc: seen.append(z) or real(epoch, data_mse, z, jscc))
    for _ in range(calls):
        evaluate(state, cfg, d_eval, epoch=1)
    return seen


def test_evaluate_latents_deterministic_for_aj(monkeypatch):
    cfg = small_cfg()
    d_eval = synth_source("gaussian", 200, 3, seed=8).images
    a, b = _evaluated_latents(monkeypatch, init_state(cfg), cfg, d_eval)
    assert a.shape == (200, 2)
    assert np.array_equal(a, b)  # deterministic path, no stream draws


def test_evaluate_latents_kl_resamples(monkeypatch):
    cfg = small_cfg(regularizer="kl")
    d_eval = synth_source("gaussian", 200, 3, seed=9).images
    a, b = _evaluated_latents(monkeypatch, init_state(cfg), cfg, d_eval)
    assert a.shape == (200, 2)
    assert not np.array_equal(a, b)  # fresh reparameterization draws


@pytest.mark.parametrize("reg", ["aj", "kl", "mmd", "none"])
def test_evaluate_data_mse_is_the_decoders_mse_on_one_tape(monkeypatch, reg):
    cfg = small_cfg(regularizer=reg)
    state = init_state(cfg)
    train_step(state, synth_source("gaussian", 16, 3, seed=6).images, cfg)
    d_eval = synth_source("gaussian", 200, 3, seed=7).images
    sampler = Rng(state.streams["eval"]._seed)  # kl's eps, redrawn at the eval stream's counter
    sampler._counter = state.streams["eval"]._counter
    head = mlp_apply(state.networks.f, d_eval)
    if reg == "kl":
        z = vae_sample(EagerTape().const(head), cfg.k, sampler)[0].value
    else:
        z = normalized(head, cfg.P_a)
    d_hat = mlp_apply(state.networks.r, z)
    tapes = []

    class CountedTape(EagerTape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(game, "EagerTape", CountedTape)
    report = evaluate(state, cfg, d_eval, epoch=1)
    assert len(tapes) == 1
    assert report.data_mse == float(np.mean(np.square(d_eval - d_hat)))


def test_evaluate_jscc_field_presence():
    d_eval = synth_source("gaussian", 200, 3, seed=10).images
    cfg_aj = small_cfg()
    rep = evaluate(init_state(cfg_aj), cfg_aj, d_eval, epoch=1)
    assert rep.jscc_mse is not None
    cfg_none = small_cfg(regularizer="none")
    rep2 = evaluate(init_state(cfg_none), cfg_none, d_eval, epoch=1)
    assert rep2.jscc_mse is None


# ============================================================
# Precision: float32 training, float64 evaluation
# ============================================================


def _ref_mlp(params, x):
    """float64 numpy forward pass, written from the MlpParams layout."""
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.astype(np.float64).T + b
        if i < len(params.weights) - 1:
            h = np.maximum(h, 0.0)
    if params.skip is not None:
        h = h + x @ params.skip.astype(np.float64).T
    return expit(h) if params.output_activation == "sigmoid" else h


@pytest.mark.parametrize("reg", ["aj", "kl", "mmd", "none"])
def test_training_is_float32_and_evaluation_float64(monkeypatch, reg):
    # f's and r's buffers exceed one Adam block, so Adam reads their leaves in place
    cfg = GameConfig(k=2, n=784, batch_size=16, seed=12, regularizer=reg, jscc_hidden=8,
                     data_hidden=100)
    state = init_state(cfg)
    data = synth_source("mixture", 216, 784, seed=12).images
    tapes, grads, adam_operands = [], [], []
    real_update, real_grads, real_ops = game._update, game.backward_grads, ad._adam_ops

    def update(state, tape, loss, bounds):
        tapes.append(tape)
        real_update(state, tape, loss, bounds)

    def backward(*args):
        out = real_grads(*args)
        grads.extend(out)
        return out

    def adam_ops(*args):  # five step constants, the mask, then p, g, m, v and the scratch
        # numpy 2 computes float32 with a Python float but upcasts it with an np.float64
        assert {type(c) for c in args[:5]} == {float} and args[5].dtype == bool
        adam_operands.extend(args[6:])
        real_ops(*args)

    monkeypatch.setattr(game, "_update", update)
    monkeypatch.setattr(game, "backward_grads", backward)
    monkeypatch.setattr(ad, "_adam_ops", adam_ops)
    train_step(state, data[:16], cfg)
    f32 = {np.dtype(np.float32)}
    assert len(tapes) == (2 if reg == "aj" else 1)
    assert {node.value.dtype for tape in tapes for node in tape.nodes} == f32
    assert grads and {g.dtype for g in grads} == f32
    assert adam_operands and {a.dtype for a in adam_operands} == f32
    for name, params in state.networks.present().items():
        opt = state.opt[name]
        assert opt.m.shape == opt.v.shape == params.buffer.shape
        assert {params.array(p).dtype for p in params.array_names()} == f32
        assert {params.buffer.dtype, opt.m.dtype, opt.v.dtype} == f32

    d_eval = data[16:]
    sampler = copy.deepcopy(state.streams["eval"])  # kl's latent is drawn from this stream
    report = evaluate(state, cfg, d_eval, epoch=1)
    head = _ref_mlp(state.networks.f, d_eval)
    if reg == "kl":
        log_var = np.clip(head[:, 2:], -10.0, 10.0)
        z = head[:, :2] + np.exp(0.5 * log_var) * sampler.normal((d_eval.shape[0], 2))
    else:
        centered = head - head.mean(axis=0)
        z = centered / np.sqrt((centered * centered).mean(axis=0) + 1e-5)
    expected = float(np.mean((d_eval - _ref_mlp(state.networks.r, z)) ** 2))
    assert abs(report.data_mse - expected) <= 1e-9 * expected


# ============================================================
# 500-step convergence regression
# ============================================================


def test_adversarial_game_converges_to_linear_saddle_level():
    """2-D gaussian data, 500 alternations: the channel loss starts high
    while the auxiliary pair is cold, drops to the linear-game level
    P_a / (P_t + P_a) = 0.5, and oscillates there; reconstruction MSE
    keeps falling throughout. Window means are pinned for this seed."""
    cfg = GameConfig(k=2, n=2, epochs=5, batch_size=128, seed=20, regularizer="aj",
                     jscc_hidden=32, data_hidden=64)
    ds = synth_source("gaussian", 12800, 2, seed=20)
    state = init_state(cfg)
    plan = BatchPlan(cfg.batch_size, derive_seed(cfg.seed, "data"))
    jscc_hist, mse_hist = [], []
    steps, epoch = 0, 1
    while steps < 500:
        for d_batch in batches(ds, plan, epoch):
            if steps >= 500:
                break
            train_step(state, d_batch, cfg)
            z = normalized(mlp_apply(state.networks.f, d_batch), cfg.P_a)
            d_hat = mlp_apply(state.networks.r, z)
            mse_hist.append(float(np.mean(np.square(d_batch - d_hat))))
            x = state.streams["eval"].normal((d_batch.shape[0], cfg.k))
            y = normalized(mlp_apply(state.networks.g, x), cfg.P_t)
            x_hat = mlp_apply(state.networks.h, y + z)
            jscc_hist.append(float(np.mean(np.square(x - x_hat))))
            steps += 1
        epoch += 1
    wins_j = [float(np.mean(jscc_hist[100 * i:100 * (i + 1)])) for i in range(5)]
    wins_m = [float(np.mean(mse_hist[100 * i:100 * (i + 1)])) for i in range(5)]

    assert all(b < a for a, b in zip(wins_m, wins_m[1:])), wins_m
    assert all(0.4 <= w <= 0.65 for w in wins_j[1:]), wins_j
    assert abs(wins_j[-1] - 0.5) < 0.1, wins_j
    # measured once for this seed and pinned; loosen only with a ledger entry
    assert np.allclose(wins_j, [1.3665, 0.4988, 0.5319, 0.4994, 0.5097], atol=1e-3)
    assert np.allclose(wins_m, [0.01407, 0.01087, 0.00518, 0.00271, 0.00104], atol=1e-4)

    # trained jammer output sits on the power constraint up to the eps law:
    # mean z^2 per coordinate is exactly P_a * v / (v + eps) for raw variance v
    raw = mlp_apply(state.networks.f, ds.images[:2000])
    z = normalized(raw, cfg.P_a)
    v = raw.var(axis=0)
    expected = float(np.mean(cfg.P_a * v / (v + 1e-5)))
    assert abs(float(np.mean(z * z)) - expected) < 1e-12
    assert cfg.P_a * 0.99 <= float(np.mean(z * z)) <= cfg.P_a + 1e-12


def test_train_synthetic_demo_runs(tmp_path):
    demo = os.path.join(_REPO, "demos", "train_synthetic.py")
    path = [os.path.join(_REPO, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "final jscc_mse" in done.stdout
