"""Top-level acceptance checks, one test per numbered criterion.

Criteria 1-5 and 10 run on synthetic data and finish in well under two
minutes combined. Criteria 6-9 train on MNIST and skip (with download
instructions) when the IDX files are not present; they share one fixed
seed, documented as MNIST_SEED below, and cache trained runs so shared
configurations are trained once.

conftest.py appends a PASS/FAIL/SKIP line per criterion to the pytest
terminal summary.
"""

import os
import time

import numpy as np
import pytest

import conftest
from conftest import fd_gradient, kl_diag_gaussian, mmd_imq, reparameterize
from latentjam.autodiff import Tape, backward_grads
from latentjam.data_io import BatchPlan, batches, load_idx, synth_source
from latentjam.game import (GameConfig, channel_output, data_loss, init_state,
                            jscc_loss, train, train_step)
from latentjam.metrics import pearson_dpc
from latentjam.nets import BoundMlp, MlpParams, NetworkRoles, make_networks, power_normalize
from latentjam.oracle import (OracleSpec, isotropic_matching, matching_residual,
                              matching_samples, mc_game_value, saddle_strategy,
                              saddle_verify, scalar_saddle_distortion)
from latentjam.rng import Rng, derive_seed
from latentjam import autodiff as ad
from latentjam import game

MNIST_SEED = 0  # the single fixed seed used by every MNIST benchmark below

FD_FLOOR = 1e-5


# ============================================================
# 1. closed form vs Monte-Carlo
# ============================================================


def test_criterion_01_saddle_closed_form_matches_monte_carlo():
    """D* for the unit game is exactly 0.5 and the MC estimate agrees to 1%."""
    t0 = time.monotonic()
    spec = OracleSpec(sigma_x_sq=1.0, P_t=1.0, P_a=1.0, sigma_n_sq=0.0)
    d_star = scalar_saddle_distortion(spec)
    assert d_star == 0.5
    mc = mc_game_value(spec, saddle_strategy(spec), 1_000_000,
                       derive_seed(0, "accept/mc"))
    assert abs(mc.value - d_star) / d_star <= 0.01
    assert time.monotonic() - t0 < 10.0


# ============================================================
# 2. saddle inequalities across dimensions
# ============================================================


def test_criterion_02_saddle_deviations_verified_for_k_1_2_8():
    """Default perturbation grid passes for isotropic k in {1, 2, 8}."""
    t0 = time.monotonic()
    for k in (1, 2, 8):
        spec = OracleSpec(sigma_x_sq=1.0, P_t=1.0, P_a=1.0, sigma_n_sq=0.0, k=k)
        report = saddle_verify(spec, samples=400_000,
                               seed=derive_seed(0, f"accept/verify/{k}"))
        assert report.passed, f"k={k}: {[r.name for r in report.rows if not r.ok]}"
        for row in report.rows:
            assert row.ok, f"k={k} row {row.name} ({row.side}) failed"
    assert time.monotonic() - t0 < 60.0


# ============================================================
# 3. matching condition separates jammer families
# ============================================================


def test_criterion_03_matching_residual_separates_gaussian_from_uniform():
    spec = OracleSpec(sigma_x_sq=1.0, P_t=1.0, P_a=1.0, sigma_n_sq=0.0, k=2)
    x, zn = matching_samples(spec, ("gaussian", spec.P_a), 1_000_000,
                             derive_seed(0, "accept/match/gauss"))
    gauss = matching_residual(x, zn, isotropic_matching(spec))
    assert gauss <= 0.02

    # uniform jammer with the same variance, probed at radius 1 only
    x, zn = matching_samples(spec, ("uniform", 1.0), 1_000_000,
                             derive_seed(0, "accept/match/unif"))
    unif = matching_residual(x, zn, isotropic_matching(spec, radii=(1.0,)))
    assert unif >= 0.05


# ============================================================
# 4. gradient integrity on both losses
# ============================================================


def _fd_against_analytic(loss_of, roles):
    """Worst relative error between backward pass and central differences.

    `loss_of()` records the loss on a fresh float64 tape and returns (tape, bound networks by
    role, loss); every parameter of the listed roles is probed. A rebuilt graph recomputes
    the value a constant leaf reads too, so each loss is checked only on the parameters its
    training phase actually updates.
    """
    tape, bound, loss = loss_of()
    # the differences need the tape's float64 default, whatever the parameters' dtype
    assert {node.value.dtype for node in tape.nodes} == {np.dtype(np.float64)}
    worst = 0.0
    for role in roles:
        b = bound[role]
        an = np.concatenate([g.ravel() for g in backward_grads(tape, loss, list(b.nodes.values()))])
        fd = fd_gradient(lambda: loss_of()[2], b.params.buffer)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), FD_FLOOR)
        worst = max(worst, float(np.max(np.abs(fd - an) / denom)))
    return worst


@pytest.mark.parametrize("k,n,jh,dh,sigma_n_sq,eta,seed", [
    (2, 4, 6, 10, 0.3, 0.7, 13),
    (4, 8, 8, 12, 0.0, 1.3, 14),
])
def test_criterion_04_loss_gradients_match_finite_differences(k, n, jh, dh,
                                                              sigma_n_sq, eta, seed):
    rng = Rng(seed)
    nets = make_networks(k, n, jh, "aj", rng.spawn("init"), dh)
    # float64 copies to bump: a float32 buffer would lose the step
    nets = NetworkRoles(**{role: MlpParams(p.role, p.layer_dims, p.buffer.astype(np.float64))
                           for role, p in nets.present().items()})
    d_batch = rng.spawn("d").normal((8, n))
    x_batch = rng.spawn("x").normal((8, k))

    def bind(tape):
        return {role: BoundMlp(tape, p) for role, p in nets.present().items()}

    def auxiliary_loss():
        # gradients wrt (g, h) with z read as a constant leaf
        tape = Tape()
        b = bind(tape)
        z = tape.const(power_normalize(b["f"](tape.const(d_batch)), 1.0).value)
        x = tape.const(x_batch)
        return tape, b, jscc_loss(b["g"], b["h"], x, z, 1.0, sigma_n_sq, rng.spawn("noise/a"))

    def compressor_loss():
        # gradients wrt (f, r) through the frozen channel pair
        tape = Tape()
        b = bind(tape)
        d = tape.const(d_batch)
        z = power_normalize(b["f"](d), 1.0)
        recon = ad.mse(d, b["r"](z))
        y = power_normalize(b["g"](tape.const(x_batch)), 1.0)
        x_hat = b["h"](channel_output(y, z, sigma_n_sq, rng.spawn("noise/b")))
        jt = ad.mse(tape.const(x_batch), x_hat)
        return tape, b, data_loss(recon, jt, eta)

    assert _fd_against_analytic(auxiliary_loss, ("g", "h")) <= 1e-4
    assert _fd_against_analytic(compressor_loss, ("f", "r")) <= 1e-4


# ============================================================
# 5. stop-gradient contract over a smoke run
# ============================================================


def test_criterion_05_stop_gradient_contract_holds_each_step(monkeypatch):
    """100 steps; f and r bitwise unchanged in phase (a), g and h in phase (b), every step."""
    cfg = GameConfig(k=2, n=3, batch_size=32, seed=5, regularizer="aj",
                     jscc_hidden=8, data_hidden=16)
    ds = synth_source("gaussian", 3200, 3, seed=5)
    plan = BatchPlan(cfg.batch_size, derive_seed(cfg.seed, "data"))
    state = init_state(cfg)

    def copies(st, nets):
        return {net: {p: getattr(st.networks, net).array(p).copy()
                      for p in getattr(st.networks, net).array_names()} for net in nets}

    # g and h as the last phase-(a) update leaves them; f and r as phase (b) finds them
    seen = {}
    real_update = game._update

    def recording_update(st, tape, loss, bounds):
        names = [b.params.role for b in bounds]
        if names == ["f", "r"]:
            seen.update(copies(st, names))
        real_update(st, tape, loss, bounds)
        if names == ["g", "h"]:
            seen.update(copies(st, names))

    monkeypatch.setattr(game, "_update", recording_update)
    steps = 0
    for i, batch in enumerate(batches(ds, plan, epoch=1)):
        before_step = copies(state, ("f", "r"))
        # the step re-asserts both halves inside itself as well
        train_step(state, batch, cfg)
        after_step = copies(state, ("g", "h"))
        for net, phase, old, new in (("f", "a", before_step, seen), ("r", "a", before_step, seen),
                                     ("g", "b", seen, after_step), ("h", "b", seen, after_step)):
            for pname, before in old[net].items():
                assert np.array_equal(new[net][pname], before), \
                    f"step {i}: {net}.{pname} changed in phase ({phase})"

        steps += 1
    assert steps == 100


# ============================================================
# 6-9. MNIST benchmarks (skip without the IDX files)
# ============================================================

_mnist_cache: dict = {}


def _mnist_datasets():
    d = conftest.mnist_dir()
    if d is None:
        pytest.skip(conftest.MNIST_SKIP_REASON)
    if "data" not in _mnist_cache:
        f = conftest.MNIST_FILES
        _mnist_cache["data"] = (load_idx(os.path.join(d, f["train_images"])),
                                load_idx(os.path.join(d, f["test_images"])))
    return _mnist_cache["data"]


def _benchmark_run(**overrides):
    """Train one 20-epoch, batch-128 MNIST run; cached by configuration."""
    key = tuple(sorted(overrides.items()))
    if key not in _mnist_cache:
        train_ds, test_ds = _mnist_cache["data"]
        cfg = GameConfig(n=784, epochs=20, batch_size=128, seed=MNIST_SEED, **overrides)
        _mnist_cache[key] = train(cfg, train_ds, test_ds, eval_every=5)
    return _mnist_cache[key]


def test_criterion_06_mnist_k2_benchmark_beats_thresholds():
    _mnist_datasets()
    t0 = time.monotonic()
    aj = _benchmark_run(k=2, regularizer="aj")
    vae = _benchmark_run(k=2, regularizer="kl")
    wae = _benchmark_run(k=2, regularizer="mmd")
    assert aj.history[-1].data_mse <= 0.03
    assert aj.history[-1].dpc >= 0.9
    assert vae.history[-1].dpc >= 0.6
    assert wae.history[-1].dpc >= 0.9
    assert time.monotonic() - t0 < 1800.0


def test_criterion_07_mnist_k8_dpc_ordering_vs_vae():
    _mnist_datasets()
    aj = _benchmark_run(k=8, regularizer="aj")
    vae = _benchmark_run(k=8, regularizer="kl")
    assert aj.history[-1].dpc >= vae.history[-1].dpc - 0.02


def test_criterion_08_mnist_latents_more_gaussian_than_control():
    """Adversarial run beats its own eta=0 control on both normality stats."""
    _mnist_datasets()
    aj = _benchmark_run(k=2, regularizer="aj")
    control = _benchmark_run(k=2, regularizer="aj", eta=0.0)
    assert aj.history[-1].mean_exkurt_abs() < control.history[-1].mean_exkurt_abs()
    assert aj.history[-1].mean_ks() < control.history[-1].mean_ks()


def test_criterion_09_mnist_dpc_nondecreasing_in_jscc_hidden():
    _mnist_datasets()
    dpc = [_benchmark_run(k=2, regularizer="aj", jscc_hidden=h).history[-1].dpc
           for h in (8, 32, 128)]
    for lo, hi in zip(dpc, dpc[1:]):
        assert hi >= lo - 0.02, f"dpc sequence {dpc} decreases beyond tolerance"


# ============================================================
# 10. estimator reference values
# ============================================================


def test_criterion_10_estimator_reference_values():
    # closed-form KL vs a reparameterized Monte-Carlo estimate, 1e6 draws
    mu = np.tile(np.array([0.7, -0.3]), (1_000_000, 1))
    lv = np.tile(np.array([0.4, -0.8]), (1_000_000, 1))
    exact = kl_diag_gaussian(mu[:1], lv[:1])
    zs = reparameterize(mu, lv, Rng(derive_seed(11, "kl/mc")))
    log_ratio = 0.5 * np.sum(zs * zs - (zs - mu) ** 2 / np.exp(lv) - lv, axis=1)
    assert abs(np.mean(log_ratio) - exact) / exact < 0.01

    # hand-checkable IMQ value: within-terms 1/2 + 1/2, cross 2 * 3/4
    pts = np.array([[0.0], [1.0]])
    assert mmd_imq(pts, pts, 1.0) == -0.5

    # two unit-variance columns with correlation exactly 1/2
    a = np.tile([1.0, -1.0], 500)
    b = np.tile([1.0, 1.0, -1.0, -1.0], 250)
    z2 = 0.5 * a + np.sqrt(0.75) * b
    assert abs(pearson_dpc(np.stack([a, z2], axis=1)) - 0.75) < 1e-12
