"""Adversarial game: losses, alternation schedule, and the training loop."""

import numpy as np
import pytest

from latentjam import autodiff as ad
from latentjam import game
from latentjam.autodiff import Tape, backward_grads, detach, forward_eval
from latentjam.data_io import BatchPlan, Dataset, batches, synth_source
from latentjam.errors import ConfigError, NumericError, ShapeError
from latentjam.game import (
    GameConfig,
    _jscc_graph,
    channel_output,
    data_loss,
    eval_latents,
    evaluate,
    init_state,
    jscc_loss,
    split_eval,
    train,
    train_step,
)
from latentjam.metrics import mse_metric
from latentjam.nets import (
    BoundMlp,
    MlpParams,
    mlp_apply,
    power_normalize,
    power_normalize_np,
)
from latentjam.rng import Rng, derive_seed


def passthrough_mlp(k: int, hidden: int = 4, skip_scale: float = 1.0,
                    out: str = "identity") -> MlpParams:
    """Zero-weight MLP whose skip matrix carries the signal."""
    dims = [k, hidden, k]
    weights = [np.zeros((hidden, k)), np.zeros((k, hidden))]
    biases = [np.zeros(hidden), np.zeros(k)]
    return MlpParams(dims, weights, biases, "relu", out, skip=skip_scale * np.eye(k))


def zero_mlp(n_in: int, n_out: int, hidden: int = 4, out: str = "identity") -> MlpParams:
    dims = [n_in, hidden, n_out]
    weights = [np.zeros((hidden, n_in)), np.zeros((n_out, hidden))]
    biases = [np.zeros(hidden), np.zeros(n_out)]
    return MlpParams(dims, weights, biases, "relu", out)


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


def test_resolved_lambda_defaults():
    assert GameConfig(k=2, n=2, regularizer="kl").resolved_lambda() == 1.0
    assert GameConfig(k=2, n=2, regularizer="mmd").resolved_lambda() == 10.0
    assert GameConfig(k=2, n=2, regularizer="mmd", lambda_weight=0.25).resolved_lambda() == 0.25
    reg = GameConfig(k=2, n=2, regularizer="kl", lambda_weight=3.0).make_regularizer()
    assert reg.kind == "kl" and reg.weight == 3.0


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


def test_jscc_loss_requires_detached_jammer():
    cfg = GameConfig(k=2, n=3, jscc_hidden=8, data_hidden=8, seed=0)
    state = init_state(cfg)
    tape = Tape()
    f_b = BoundMlp(tape, state.networks.f, "f", trainable=True)
    g_b = BoundMlp(tape, state.networks.g, "g", trainable=True)
    h_b = BoundMlp(tape, state.networks.h, "h", trainable=True)
    d = tape.const(synth_source("gaussian", 8, 3, seed=0).images)
    x = tape.const(Rng(0).normal((8, 2)))
    z_live = power_normalize(f_b(d), cfg.P_a)
    with pytest.raises(ConfigError, match="detach"):
        jscc_loss(g_b, h_b, x, z_live, cfg.P_t, cfg.sigma_n_sq, Rng(1))
    # the detached twin is accepted
    jscc_loss(g_b, h_b, x, detach(z_live), cfg.P_t, cfg.sigma_n_sq, Rng(1))


def scalar(t) -> float:
    return float(np.asarray(t.value).ravel()[0])


def test_jscc_dead_decoder_sees_source_power():
    # h == 0 means x_hat == 0, so the loss is E[x^2] ~ 1
    tape = Tape()
    g_b = BoundMlp(tape, passthrough_mlp(2), "g", trainable=False)
    h_b = BoundMlp(tape, zero_mlp(2, 2), "h", trainable=False)
    x = tape.const(Rng(derive_seed(1, "jscc/dead")).normal((4096, 2)))
    z = tape.const(np.zeros((4096, 2)))
    loss = jscc_loss(g_b, h_b, x, z, 1.0, 0.0, Rng(0))
    assert abs(scalar(loss) - 1.0) < 0.05


def test_jscc_identity_codec_clean_channel():
    tape = Tape()
    g_b = BoundMlp(tape, passthrough_mlp(2), "g", trainable=False)
    h_b = BoundMlp(tape, passthrough_mlp(2), "h", trainable=False)
    x = tape.const(Rng(derive_seed(2, "jscc/id")).normal((4096, 2)))
    z = tape.const(np.zeros((4096, 2)))
    loss = jscc_loss(g_b, h_b, x, z, 1.0, 0.0, Rng(0))
    assert scalar(loss) < 0.01


def test_jscc_halving_decoder_against_unit_jammer():
    # x_hat = 0.5 (y + z) with y ~ x gives E[(x - x_hat)^2] ~ 0.25 (1 + 1)
    tape = Tape()
    g_b = BoundMlp(tape, passthrough_mlp(2), "g", trainable=False)
    h_b = BoundMlp(tape, passthrough_mlp(2, skip_scale=0.5), "h", trainable=False)
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
    recon = ad.mean_all(ad.square(tape.const(np.array([[1.0, 2.0]]))))
    out = data_loss(recon, 0.7, 0.0)
    assert scalar(out) == scalar(recon)


def test_data_loss_subtracts_scaled_channel_term():
    tape = Tape()
    recon = ad.mean_all(ad.square(tape.const(np.array([[2.0]]))))  # 4.0
    out = data_loss(recon, 0.3, 2.0)
    assert abs(scalar(out) - (4.0 - 0.6)) < 1e-14


def test_data_loss_exact_on_perfect_reconstruction():
    # zero-weight sigmoid reconstructor emits 0.5 everywhere; feed it 0.5s
    tape = Tape()
    r_b = BoundMlp(tape, zero_mlp(2, 3, out="sigmoid"), "r", trainable=False)
    d = tape.const(np.full((16, 3), 0.5))
    z = tape.const(np.zeros((16, 2)))
    recon = ad.mean_all(ad.square(d - r_b(z)))
    out = data_loss(recon, 0.3, 1.0)
    assert scalar(out) == -0.3


def test_data_loss_rejects_negative_eta():
    tape = Tape()
    recon = ad.mean_all(ad.square(tape.const(np.zeros((2, 2)))))
    with pytest.raises(ConfigError):
        data_loss(recon, 0.1, -1.0)


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
    state = init_state(small_cfg())
    with pytest.raises(ConfigError):
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
    # the auxiliary pair trains against a detached jammer: identical both ways
    for net in ("g", "h"):
        pa, pb = getattr(a, net), getattr(b, net)
        for pname in pa.array_names():
            assert np.array_equal(pa.array(pname), pb.array(pname)), f"{net}.{pname}"
    # the reconstructor only sees the reconstruction term: identical too
    for pname in a.r.array_names():
        assert np.array_equal(a.r.array(pname), b.r.array(pname))
    # the compressor is the one pushed by the channel term
    assert any(not np.array_equal(a.f.array(p), b.f.array(p)) for p in a.f.array_names())


def test_phase_a_gradients_blocked_by_detach():
    cfg = small_cfg(seed=5)
    state = init_state(cfg)
    batch = synth_source("gaussian", 16, 3, seed=5).images
    tape = Tape()
    f_b = BoundMlp(tape, state.networks.f, "f", trainable=True)
    g_b = BoundMlp(tape, state.networks.g, "g", trainable=True)
    h_b = BoundMlp(tape, state.networks.h, "h", trainable=True)
    d = tape.const(batch)
    z = detach(power_normalize(f_b(d), cfg.P_a))
    x = tape.const(Rng(derive_seed(5, "phase-a")).normal((16, 2)))
    loss = jscc_loss(g_b, h_b, x, z, cfg.P_t, cfg.sigma_n_sq, Rng(6))
    tape.mark_output("loss", loss)
    f_tensors = list(f_b.nodes.values())
    grads = backward_grads(tape, loss, f_tensors)
    assert all(np.all(g == 0.0) for g in grads)
    # g still learns from the same loss
    g_grads = backward_grads(tape, loss, list(g_b.nodes.values()))
    assert any(np.any(g != 0.0) for g in g_grads)


def test_phase_a_without_detach_would_leak():
    cfg = small_cfg(seed=6)
    state = init_state(cfg)
    batch = synth_source("gaussian", 16, 3, seed=6).images
    tape = Tape()
    f_b = BoundMlp(tape, state.networks.f, "f", trainable=True)
    g_b = BoundMlp(tape, state.networks.g, "g", trainable=True)
    h_b = BoundMlp(tape, state.networks.h, "h", trainable=True)
    d = tape.const(batch)
    z_live = power_normalize(f_b(d), cfg.P_a)
    x = tape.const(Rng(derive_seed(6, "leak")).normal((16, 2)))
    loss = _jscc_graph(g_b, h_b, x, z_live, cfg.P_t, cfg.sigma_n_sq, Rng(7))
    tape.mark_output("loss", loss)
    grads = backward_grads(tape, loss, list(f_b.nodes.values()))
    assert any(np.any(g != 0.0) for g in grads)


def test_phase_b_update_of_frozen_pair_raises(monkeypatch):
    cfg = small_cfg(seed=8)
    state = init_state(cfg)
    batch = synth_source("gaussian", 16, 3, seed=8).images
    real_update = game._apply_update

    def leaky_update(state, net_name, grads):
        real_update(state, net_name, grads)
        if net_name == "r":  # phase (b) also nudges the frozen transmitter
            state.networks.g.weights[0][0, 0] += 1e-12

    monkeypatch.setattr(game, "_apply_update", leaky_update)
    with pytest.raises(NumericError, match=r"frozen g\.W0 changed in phase \(b\)"):
        train_step(state, batch, cfg)


def test_compressor_steers_channel_loss_both_ways():
    # after a short warmup, nudging f along +/- grad(jscc) moves jscc up/down
    cfg = small_cfg(seed=7)
    state = init_state(cfg)
    data = synth_source("gaussian", 320, 3, seed=7).images
    for i in range(20):
        train_step(state, data[16 * i:16 * (i + 1)], cfg)
    batch = data[:16]
    tape = Tape()
    f_b = BoundMlp(tape, state.networks.f, "f", trainable=True)
    g_b = BoundMlp(tape, state.networks.g, "g", trainable=False)
    h_b = BoundMlp(tape, state.networks.h, "h", trainable=False)
    d = tape.const(batch)
    z = power_normalize(f_b(d), cfg.P_a)
    x = tape.const(Rng(derive_seed(7, "steer")).normal((16, 2)))
    jt = _jscc_graph(g_b, h_b, x, z, cfg.P_t, cfg.sigma_n_sq, Rng(8))
    tape.mark_output("jt", jt)
    f_tensors = list(f_b.nodes.values())
    grads = backward_grads(tape, jt, f_tensors)
    base = scalar(jt)
    for sign, cmp in ((+1.0, np.greater), (-1.0, np.less)):
        bumped = {}
        for (pname, tensor), g in zip(f_b.nodes.items(), grads):
            bumped[f"f.{pname}"] = tensor.value + sign * 1e-3 * g
        replay = forward_eval(tape, bumped)["jt"]
        assert cmp(float(np.asarray(replay).ravel()[0]), base), f"sign {sign}"


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
    ds = synth_source("gaussian", 64, 3, seed=3)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="epoch 1, step"):
            train(cfg, ds)


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


def test_eval_latents_deterministic_for_aj():
    cfg = small_cfg()
    state = init_state(cfg)
    d_eval = synth_source("gaussian", 200, 3, seed=8).images
    a = eval_latents(state, cfg, d_eval)
    b = eval_latents(state, cfg, d_eval)
    assert a.shape == (200, 2)
    assert np.array_equal(a, b)  # deterministic path, no stream draws


def test_eval_latents_kl_resamples():
    cfg = small_cfg(regularizer="kl")
    state = init_state(cfg)
    d_eval = synth_source("gaussian", 200, 3, seed=9).images
    a = eval_latents(state, cfg, d_eval)
    b = eval_latents(state, cfg, d_eval)
    assert a.shape == (200, 2)
    assert not np.array_equal(a, b)  # fresh reparameterization draws


def test_evaluate_jscc_field_presence():
    d_eval = synth_source("gaussian", 200, 3, seed=10).images
    cfg_aj = small_cfg()
    rep = evaluate(init_state(cfg_aj), cfg_aj, d_eval, epoch=1)
    assert rep.jscc_mse is not None
    cfg_none = small_cfg(regularizer="none")
    rep2 = evaluate(init_state(cfg_none), cfg_none, d_eval, epoch=1)
    assert rep2.jscc_mse is None


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
    plan = BatchPlan(cfg.batch_size, derive_seed(cfg.seed, "data"), drop_last=True)
    jscc_hist, mse_hist = [], []
    steps, epoch = 0, 1
    while steps < 500:
        for d_batch in batches(ds, plan, epoch):
            if steps >= 500:
                break
            train_step(state, d_batch, cfg)
            z = power_normalize_np(mlp_apply(state.networks.f, d_batch), cfg.P_a)
            d_hat = mlp_apply(state.networks.r, z)
            mse_hist.append(mse_metric(d_batch, d_hat))
            x = state.streams["eval"].normal((d_batch.shape[0], cfg.k))
            y = power_normalize_np(mlp_apply(state.networks.g, x), cfg.P_t)
            x_hat = mlp_apply(state.networks.h, y + z)
            jscc_hist.append(mse_metric(x, x_hat))
            steps += 1
        epoch += 1
    wins_j = [float(np.mean(jscc_hist[100 * i:100 * (i + 1)])) for i in range(5)]
    wins_m = [float(np.mean(mse_hist[100 * i:100 * (i + 1)])) for i in range(5)]

    assert all(b < a for a, b in zip(wins_m, wins_m[1:])), wins_m
    assert all(0.4 <= w <= 0.65 for w in wins_j[1:]), wins_j
    assert abs(wins_j[-1] - 0.5) < 0.1, wins_j
    # measured once for this seed and pinned; loosen only with a ledger entry
    assert np.allclose(wins_j, [1.3666, 0.498, 0.5324, 0.4998, 0.5099], atol=1e-3)
    assert np.allclose(wins_m, [0.01407, 0.01093, 0.0051, 0.00281, 0.00102], atol=1e-4)

    # trained jammer output sits on the power constraint up to the eps law:
    # mean z^2 per coordinate is exactly P_a * v / (v + eps) for raw variance v
    raw = mlp_apply(state.networks.f, ds.images[:2000])
    z = power_normalize_np(raw, cfg.P_a)
    v = raw.var(axis=0)
    expected = float(np.mean(cfg.P_a * v / (v + 1e-5)))
    assert abs(float(np.mean(z * z)) - expected) < 1e-12
    assert cfg.P_a * 0.99 <= float(np.mean(z * z)) <= cfg.P_a + 1e-12
