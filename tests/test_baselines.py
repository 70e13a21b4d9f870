"""KL and MMD regularizers: estimators, graph builders, and their training step."""

import numpy as np
import pytest

from latentjam import autodiff as ad
from latentjam.autodiff import EagerTape, Tape
from conftest import fd_gradient, kl_diag_gaussian, mmd_imq, reparameterize
from latentjam.baselines import kl_diag_gaussian_graph, vae_sample
from latentjam.errors import ConfigError, ShapeError
from latentjam.game import GameConfig, init_state, train_step
from latentjam.data_io import synth_source
from latentjam.nets import mlp_apply
from latentjam.rng import Rng, derive_seed


# ============================================================
# KL estimator
# ============================================================


def test_kl_zero_at_prior():
    assert kl_diag_gaussian(np.zeros((4, 3)), np.zeros((4, 3))) == 0.0


def test_kl_mean_shift():
    # 0.5 * ||mu||^2 when sigma = 1
    assert abs(kl_diag_gaussian(np.array([[1.0, 0.0]]), np.zeros((1, 2))) - 0.5) < 1e-15


def test_kl_variance_shift():
    # 0.5 (e^1 - 1 - 1) = (e - 2) / 2
    val = kl_diag_gaussian(np.zeros((1, 1)), np.ones((1, 1)))
    assert abs(val - (np.e - 2.0) / 2.0) < 1e-15


def test_kl_nonnegative():
    rng = Rng(derive_seed(0, "kl/nonneg"))
    for _ in range(20):
        mu = rng.normal((8, 3))
        lv = rng.normal((8, 3))
        assert kl_diag_gaussian(mu, lv) >= 0.0


def test_kl_batch_average():
    mu = np.array([[1.0], [0.0]])
    lv = np.zeros((2, 1))
    assert abs(kl_diag_gaussian(mu, lv) - 0.25) < 1e-15


def test_kl_shape_mismatch():
    with pytest.raises(ShapeError):
        kl_diag_gaussian(np.zeros((2, 3)), np.zeros((2, 2)))


def test_kl_monte_carlo_agrees():
    # E_q[log q - log p] sampled through reparameterize matches the closed form
    mu_row = np.array([0.7, -0.3])
    lv_row = np.array([0.4, -0.8])
    m = 1_000_000
    mu = np.tile(mu_row, (m, 1))
    lv = np.tile(lv_row, (m, 1))
    z = reparameterize(mu, lv, Rng(derive_seed(11, "kl/mc")))
    log_q = -0.5 * np.sum((z - mu) ** 2 / np.exp(lv) + lv + np.log(2 * np.pi), axis=1)
    log_p = -0.5 * np.sum(z ** 2 + np.log(2 * np.pi), axis=1)
    mc = float(np.mean(log_q - log_p))
    an = kl_diag_gaussian(mu_row[None, :], lv_row[None, :])
    assert abs(mc - an) / an < 0.01


# ============================================================
# Reparameterization
# ============================================================


def test_reparameterize_moments():
    z = reparameterize(np.zeros((100_000, 1)), np.zeros((100_000, 1)), Rng(3))
    assert 0.98 <= z.var() <= 1.02
    assert abs(z.mean()) < 0.02


def test_reparameterize_tiny_log_var():
    z = reparameterize(np.zeros((100_000, 1)), np.full((100_000, 1), -10.0), Rng(4))
    assert z.std() < 0.01


def test_reparameterize_deterministic():
    mu = np.ones((5, 2))
    lv = np.zeros((5, 2))
    assert np.array_equal(reparameterize(mu, lv, Rng(7)), reparameterize(mu, lv, Rng(7)))


def test_reparameterize_shape_mismatch():
    with pytest.raises(ShapeError):
        reparameterize(np.zeros((2, 3)), np.zeros((3, 2)), Rng(0))


# ============================================================
# MMD estimator
# ============================================================


def test_mmd_two_point_by_hand():
    # a = b = {0, 1}, C = 1: within-terms 0.5 each, cross mean 0.75 -> -0.5
    a = np.array([[0.0], [1.0]])
    assert mmd_imq(a, a.copy(), 1.0) == -0.5


def test_mmd_same_distribution_near_zero():
    rng = Rng(derive_seed(7, "mmd/example"))
    rng.spawn("a"), rng.spawn("b")  # keep stream layout of the example below
    p = rng.spawn("p").normal((500, 2))
    q = rng.spawn("q").normal((500, 2))
    assert abs(mmd_imq(p, q, 4.0)) < 0.01


def test_mmd_separated_blocks():
    rng = Rng(derive_seed(7, "mmd/example"))
    a = rng.spawn("a").normal((256, 2))
    b = rng.spawn("b").normal((256, 2)) + 3.0
    val = mmd_imq(a, b, 4.0)
    assert val > 0.5
    assert abs(val - 0.81266403930296) < 1e-10  # deterministic draw, pinned


def test_mmd_symmetric():
    rng = Rng(derive_seed(8, "mmd/sym"))
    a = rng.spawn("a").normal((64, 3))
    b = rng.spawn("b").normal((64, 3)) + 1.0
    assert abs(mmd_imq(a, b, 6.0) - mmd_imq(b, a, 6.0)) < 1e-14


def test_mmd_permutation_invariant():
    rng = Rng(derive_seed(9, "mmd/perm"))
    a = rng.spawn("a").normal((32, 2))
    b = rng.spawn("b").normal((32, 2))
    perm = rng.spawn("p").permutation(32)
    assert abs(mmd_imq(a, b, 4.0) - mmd_imq(a[perm], b, 4.0)) < 1e-12


def test_mmd_validation():
    a = np.zeros((4, 2))
    with pytest.raises(ShapeError):
        mmd_imq(a, np.zeros((3, 2)), 1.0)
    with pytest.raises(ConfigError):
        mmd_imq(np.zeros((1, 2)), np.zeros((1, 2)), 1.0)
    with pytest.raises(ConfigError):
        mmd_imq(a, a, 0.0)


# ============================================================
# The imq_mmd op and the KL graph against their numpy references
# ============================================================


@pytest.mark.parametrize("m,k", [(48, 3), (2, 3)])
def test_imq_mmd_op_matches_numpy(m, k):
    # the value, and the closed-form gradient toward each block against central differences
    # of the numpy reference; m = 2 is the smallest legal block
    rng = Rng(derive_seed(10, "mmd/graph"))
    a = rng.spawn("a").normal((m, k))
    b = rng.spawn("b").normal((m, k)) + 0.5
    tape = Tape()
    at, bt = tape.const(a), tape.const(b)
    val = ad.imq_mmd(at, bt, 6.0)
    assert [node.op for node in tape.nodes] == ["const", "const", "imq_mmd"]
    assert abs(float(val.value[0]) - mmd_imq(a, b, 6.0)) < 1e-12
    for block, grad in zip((a, b), ad.backward_grads(tape, val, [at, bt])):
        fd = fd_gradient(lambda: EagerTape().const([mmd_imq(a, b, 6.0)]), block, h=1e-6)
        assert np.max(np.abs(fd - grad)) <= 1e-8 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("a_shape,b_shape,match", [
    ((4, 2), (3, 2), "one shape"),
    ((4, 2), (4, 3), "one shape"),
    ((1, 2), (1, 2), ">= 2 rows"),
    ((4,), (4,), "2-D"),
    ((2, 2, 2), (2, 2, 2), "2-D"),
])
def test_imq_mmd_op_shape_errors(a_shape, b_shape, match):
    tape = Tape()
    a, b = tape.const(np.zeros(a_shape)), tape.const(np.ones(b_shape))
    with pytest.raises(ShapeError, match=f"op 'imq_mmd'.*{match}"):
        ad.imq_mmd(a, b, 1.0)
    assert len(tape.nodes) == 2


def test_kl_graph_matches_numpy():
    rng = Rng(derive_seed(12, "kl/graph"))
    mu = rng.spawn("m").normal((16, 4))
    lv = rng.spawn("v").normal((16, 4))
    tape = Tape()
    val = kl_diag_gaussian_graph(tape.const(mu), tape.const(lv))
    assert abs(float(np.asarray(val.value).ravel()[0]) - kl_diag_gaussian(mu, lv)) < 1e-12


def test_kl_graph_gradient_wrt_mu():
    # d/dmu [mean_b 0.5 sum mu^2] = mu / m with log_var fixed at 0
    rng = Rng(derive_seed(13, "kl/grad"))
    mu_val = rng.normal((4, 3))
    tape = Tape()
    mu = tape.const(mu_val)
    lv = tape.const(np.zeros((4, 3)))
    kl = kl_diag_gaussian_graph(mu, lv)
    grad = ad.backward_grads(tape, kl, [mu])[0]
    assert np.allclose(grad, mu_val / 4.0, atol=1e-14)


# ============================================================
# Regularizer config and the shared training step
# ============================================================


def test_regularizer_validation():
    with pytest.raises(ConfigError, match="regularizer"):
        GameConfig(k=2, n=2, regularizer="vae")
    with pytest.raises(ConfigError, match="lambda_weight"):
        GameConfig(k=2, n=2, regularizer="kl", lambda_weight=-1.0)
    with pytest.raises(ConfigError, match="mmd_scale"):
        GameConfig(k=2, n=2, regularizer="mmd", mmd_scale=0.0)
    assert GameConfig(k=3, n=2, regularizer="mmd", lambda_weight=2.0).mmd_scale == 6.0


def test_baseline_losses_kl_head_width_guard():
    config = GameConfig(k=2, n=4, regularizer="mmd", seed=0)  # mmd head is k wide
    state = init_state(config)
    batch = synth_source("gaussian", 8, 4, seed=0).images
    head = EagerTape().const(mlp_apply(state.networks.f, batch))
    with pytest.raises(ConfigError, match="2k"):
        vae_sample(head, config.k, Rng(0))


def test_zero_weight_mmd_step_equals_plain_autoencoder():
    # prior draws advance the noise stream but must not touch the update
    kwargs = dict(k=2, n=6, batch_size=32, seed=9, data_hidden=16, jscc_hidden=8)
    cfg_mmd = GameConfig(regularizer="mmd", lambda_weight=0.0, **kwargs)
    cfg_none = GameConfig(regularizer="none", **kwargs)
    s_mmd = init_state(cfg_mmd)
    s_none = init_state(cfg_none)
    data = synth_source("gaussian", 256, 6, seed=5).images
    for i in range(5):
        batch = data[32 * i:32 * (i + 1)]
        train_step(s_mmd, batch, cfg_mmd)
        train_step(s_none, batch, cfg_none)
    for net in ("f", "r"):
        pa = getattr(s_mmd.networks, net)
        pb = getattr(s_none.networks, net)
        for name in pa.array_names():
            assert np.array_equal(pa.array(name), pb.array(name)), f"{net}.{name} diverged"


def kl_objective(state, config, batch, rng):
    """recon + weight * KL for one batch, from the numpy KL and record-free forwards."""
    z, mu, log_var = vae_sample(EagerTape().const(mlp_apply(state.networks.f, batch)),
                                config.k, rng)
    recon = float(np.mean((batch - mlp_apply(state.networks.r, z.value)) ** 2))
    return recon + config.lambda_weight * kl_diag_gaussian(mu.value, log_var.value)


def test_baseline_training_reduces_loss():
    config = GameConfig(k=2, n=4, regularizer="kl", batch_size=32, seed=6,
                        data_hidden=32, jscc_hidden=8, lambda_weight=0.1)
    state = init_state(config)
    data = synth_source("gaussian", 640, 4, seed=6).images
    totals = []
    for i in range(20):
        batch = data[32 * i:32 * (i + 1)]
        totals.append(kl_objective(state, config, batch, Rng(derive_seed(6, f"probe/{i}"))))
        train_step(state, batch, config)
    assert np.mean(totals[-5:]) < totals[0]
