"""The adversarial-jamming minimax loop.

One data compressor f doubles as a channel jammer: its power-normalized
latent z rides on an auxiliary autoencoder's channel y + n + z. The
auxiliary pair (g, h) minimizes its own reconstruction error of a fresh
Gaussian source x; f maximizes that same error (weight eta) while
minimizing its data reconstruction through r. The only stable z the
jammer can settle on is the channel game's saddle point, a diagonal
Gaussian, which is what anchors the latent distribution.

Alternation per batch: (a) `jscc_steps_per_data_step` updates of (g, h)
against a detached z, fresh x each sub-step; (b) one update of (f, r) with
gradients flowing through z into the frozen (g, h) channel, fresh x again.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape, Tensor, adam_step, backward_grads, detach
from .baselines import Regularizer, baseline_train_step
from .data_io import BatchPlan, Dataset, batches
from .errors import ConfigError, NumericError, ShapeError
from .metrics import MetricsReport, evaluate_latents, mse_metric
from .nets import (BoundMlp, NetworkRoles, make_networks, mlp_apply,
                   power_normalize, power_normalize_np)
from .rng import Rng, derive_seed

log = logging.getLogger("latentjam")

REGULARIZERS = ("aj", "kl", "mmd", "none")


@dataclass
class GameConfig:
    """All game and training hyperparameters."""

    k: int
    n: int
    P_t: float = 1.0
    P_a: float = 1.0
    sigma_n_sq: float = 0.0
    eta: float = 1.0
    regularizer: str = "aj"
    batch_size: int = 128
    epochs: int = 20
    lr: float = 1e-3
    jscc_steps_per_data_step: int = 1
    seed: int = 0
    jscc_hidden: int = 64
    data_hidden: int = 512
    lambda_weight: Optional[float] = None  # kl -> 1.0, mmd -> 10.0 when unset
    mmd_scale: Optional[float] = None      # -> 2k when unset
    check_gradients: bool = True

    def __post_init__(self):
        if self.P_t <= 0 or self.P_a <= 0:
            raise ConfigError("P_t and P_a must be > 0")
        if self.sigma_n_sq < 0:
            raise ConfigError("sigma_n_sq must be >= 0")
        if self.eta < 0:
            raise ConfigError("eta must be >= 0")
        if self.k < 1 or self.n < 1:
            raise ConfigError("k and n must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.regularizer not in REGULARIZERS:
            raise ConfigError(f"regularizer must be one of {REGULARIZERS}")
        if self.jscc_steps_per_data_step < 1:
            raise ConfigError("jscc_steps_per_data_step must be >= 1")

    def resolved_lambda(self) -> float:
        if self.lambda_weight is not None:
            return self.lambda_weight
        return 1.0 if self.regularizer == "kl" else 10.0

    def make_regularizer(self) -> Regularizer:
        return Regularizer(self.regularizer, self.resolved_lambda(), self.mmd_scale)


@dataclass
class TrainState:
    networks: NetworkRoles
    opt: dict
    streams: dict
    epoch: int = 0
    history: list = field(default_factory=list)
    grad_buffers: dict = field(default_factory=dict)


def init_state(config: GameConfig) -> TrainState:
    master = Rng(config.seed)
    networks = make_networks(config.k, config.n, config.jscc_hidden, config.regularizer,
                             master, config.data_hidden)
    networks.validate(config.k, config.n)
    opt = {name: AdamState(lr=config.lr) for name in networks.present()}
    streams = {
        "x": master.spawn("x"),
        "noise": master.spawn("noise"),
        "eval": master.spawn("eval"),
    }
    return TrainState(networks=networks, opt=opt, streams=streams)


# ============================================================
# Losses
# ============================================================


def channel_output(y: Tensor, z: Tensor, sigma_n_sq: float, rng: Rng) -> Tensor:
    """yhat = y + z (+ fresh N(0, sigma_n_sq I) when the fixed noise is on)."""
    if y.shape != z.shape:
        raise ShapeError(f"channel shapes differ: {y.shape} vs {z.shape}")
    out = y + z
    if sigma_n_sq > 0:
        noise = y.tape.const(np.sqrt(sigma_n_sq) * rng.normal(y.shape))
        out = out + noise
    return out


def _jscc_graph(g_b: BoundMlp, h_b: BoundMlp, x: Tensor, z: Tensor,
                P_t: float, sigma_n_sq: float, rng: Rng) -> Tensor:
    y = power_normalize(g_b(x), P_t)
    x_hat = h_b(channel_output(y, z, sigma_n_sq, rng))
    return ad.mean_all(ad.square(x - x_hat))


def jscc_loss(g_b: BoundMlp, h_b: BoundMlp, x: Tensor, z_detached: Tensor,
              P_t: float, sigma_n_sq: float, rng: Rng) -> Tensor:
    """Auxiliary pair's objective; z must carry a stop-gradient marker."""
    z_op = z_detached.tape.nodes[z_detached.node_id].op
    if z_op not in ("detach", "const"):
        raise ConfigError(f"jscc_loss requires a detached z, got op '{z_op}'")
    return _jscc_graph(g_b, h_b, x, z_detached, P_t, sigma_n_sq, rng)


def data_loss(recon_mse: Tensor, jscc_term, eta: float) -> Tensor:
    """Compressor objective: reconstruction MSE minus eta times the channel term."""
    if eta < 0:
        raise ConfigError("eta must be >= 0")
    if not isinstance(jscc_term, Tensor):
        jscc_term = recon_mse.tape.const(np.asarray([float(jscc_term)]))
    return recon_mse - eta * jscc_term


# ============================================================
# Training steps
# ============================================================


def _collect_grads(tape: Tape, loss: Tensor, bounds: list) -> dict:
    """Gradients for every parameter of the given bound networks."""
    wrt, keys = [], []
    for b in bounds:
        for pname, tensor in b.nodes.items():
            wrt.append(tensor)
            keys.append((b.name, pname))
    grads = backward_grads(tape, loss, wrt)
    out: dict = {}
    for (net, pname), g in zip(keys, grads):
        out.setdefault(net, {})[pname] = g
    return out


def _apply_update(state: TrainState, net_name: str, grads: dict) -> None:
    params_obj = state.networks.present()[net_name]
    params = {p: params_obj.array(p) for p in params_obj.array_names()}
    adam_step(params, grads, state.opt[net_name])


def _snapshot(params_obj) -> dict:
    return {p: params_obj.array(p).copy() for p in params_obj.array_names()}


def _assert_unchanged(net_name: str, params_obj, before: dict, phase: str) -> None:
    for pname, old in before.items():
        if not np.array_equal(params_obj.array(pname), old):
            raise NumericError(
                f"stop-gradient violation: frozen {net_name}.{pname} changed in phase ({phase})")


def _assert_all_zero(net_name: str, grads: dict, phase: str) -> None:
    for pname, g in grads.items():
        if np.any(g):
            raise NumericError(
                f"stop-gradient violation: {net_name}.{pname} has nonzero gradient in phase ({phase})")


def train_step(state: TrainState, d_batch: np.ndarray, config: GameConfig) -> TrainState:
    """One adversarial alternation; see module docstring for the schedule."""
    if config.regularizer != "aj":
        raise ConfigError("train_step runs the adversarial game only; baselines use their own step")
    if d_batch.shape[1] != config.n:
        raise ShapeError(f"batch has n={d_batch.shape[1]}, config says {config.n}")
    nets = state.networks
    m = d_batch.shape[0]

    # (a) auxiliary pair updates against a detached jammer
    for _ in range(config.jscc_steps_per_data_step):
        tape = Tape()
        f_b = BoundMlp(tape, nets.f, "f", trainable=True)
        g_b = BoundMlp(tape, nets.g, "g", trainable=True)
        h_b = BoundMlp(tape, nets.h, "h", trainable=True)
        d = tape.const(d_batch)
        z = detach(power_normalize(f_b(d), config.P_a))
        x = tape.const(state.streams["x"].normal((m, config.k)))
        loss = jscc_loss(g_b, h_b, x, z, config.P_t, config.sigma_n_sq, state.streams["noise"])
        grads = _collect_grads(tape, loss, [f_b, g_b, h_b])
        if config.check_gradients:
            _assert_all_zero("f", grads["f"], "a")
        state.grad_buffers = {"f": grads["f"], "g": grads["g"], "h": grads["h"]}
        _apply_update(state, "g", grads["g"])
        _apply_update(state, "h", grads["h"])

    # (b) compressor/reconstructor update; (g, h) frozen constants
    # bitwise copies of the frozen pair, compared once f and r have been updated
    frozen = ({net: _snapshot(getattr(nets, net)) for net in ("g", "h")}
              if config.check_gradients else {})
    tape = Tape()
    f_b = BoundMlp(tape, nets.f, "f", trainable=True)
    r_b = BoundMlp(tape, nets.r, "r", trainable=True)
    d = tape.const(d_batch)
    z = power_normalize(f_b(d), config.P_a)
    d_hat = r_b(z)
    recon = ad.mean_all(ad.square(d - d_hat))
    if config.eta > 0:
        g_b = BoundMlp(tape, nets.g, "g", trainable=False)
        h_b = BoundMlp(tape, nets.h, "h", trainable=False)
        x = tape.const(state.streams["x"].normal((m, config.k)))
        jt = _jscc_graph(g_b, h_b, x, z, config.P_t, config.sigma_n_sq, state.streams["noise"])
        loss = data_loss(recon, jt, config.eta)
    else:
        loss = recon
    grads = _collect_grads(tape, loss, [f_b, r_b])
    state.grad_buffers = {"f": grads["f"], "r": grads["r"]}
    _apply_update(state, "f", grads["f"])
    _apply_update(state, "r", grads["r"])
    for net_name, before in frozen.items():
        _assert_unchanged(net_name, getattr(nets, net_name), before, "b")
    return state


def _plain_autoencoder_step(state: TrainState, d_batch: np.ndarray, config: GameConfig) -> None:
    tape = Tape()
    f_b = BoundMlp(tape, state.networks.f, "f", trainable=True)
    r_b = BoundMlp(tape, state.networks.r, "r", trainable=True)
    d = tape.const(d_batch)
    z = power_normalize(f_b(d), config.P_a)
    d_hat = r_b(z)
    loss = ad.mean_all(ad.square(d - d_hat))
    grads = _collect_grads(tape, loss, [f_b, r_b])
    state.grad_buffers = {"f": grads["f"], "r": grads["r"]}
    _apply_update(state, "f", grads["f"])
    _apply_update(state, "r", grads["r"])


# ============================================================
# Evaluation and the epoch loop
# ============================================================


def eval_latents(state: TrainState, config: GameConfig, d_eval: np.ndarray) -> np.ndarray:
    """Latent codes as the metrics see them; normalization uses eval-batch stats."""
    raw = mlp_apply(state.networks.f, d_eval)
    if config.regularizer == "kl":
        mu = raw[:, :config.k]
        log_var = np.clip(raw[:, config.k:], -10.0, 10.0)
        eps = state.streams["eval"].normal(mu.shape)
        return mu + np.exp(0.5 * log_var) * eps
    return power_normalize_np(raw, config.P_a)


def evaluate(state: TrainState, config: GameConfig, d_eval: np.ndarray, epoch: int) -> MetricsReport:
    z = eval_latents(state, config, d_eval)
    d_hat = mlp_apply(state.networks.r, z)
    jscc = None
    if config.regularizer == "aj":
        m = z.shape[0]
        x = state.streams["eval"].normal((m, config.k))
        y = power_normalize_np(mlp_apply(state.networks.g, x), config.P_t)
        y_hat = y + z
        if config.sigma_n_sq > 0:
            y_hat = y_hat + np.sqrt(config.sigma_n_sq) * state.streams["eval"].normal(y.shape)
        x_hat = mlp_apply(state.networks.h, y_hat)
        jscc = mse_metric(x, x_hat)
    return evaluate_latents(epoch, d_eval, d_hat, z, jscc)


def split_eval(dataset: Dataset, eval_dataset: Optional[Dataset]):
    """Carve a held-out tail when no separate evaluation split is given."""
    if eval_dataset is not None:
        return dataset.images, eval_dataset.images
    count = dataset.count
    holdout = min(10_000, count // 10)
    if holdout >= 100:
        return dataset.images[:count - holdout], dataset.images[count - holdout:]
    # tiny datasets: evaluate on the training rows themselves
    return dataset.images, dataset.images[:min(count, 1000)]


def train(config: GameConfig, dataset: Dataset, eval_dataset: Optional[Dataset] = None,
          eval_every: int = 1) -> TrainState:
    """Shuffled mini-batch epochs with a MetricsReport per evaluated epoch."""
    if dataset.count == 0:
        raise ConfigError("dataset is empty")
    if float(dataset.images.min()) < 0.0 or float(dataset.images.max()) > 1.0:
        raise ConfigError("dataset values must lie in [0, 1]")
    if eval_every < 1:
        raise ConfigError("eval_every must be >= 1")
    train_images, eval_images = split_eval(dataset, eval_dataset)
    if train_images.shape[0] < config.batch_size:
        raise ConfigError(
            f"batch_size {config.batch_size} exceeds training rows {train_images.shape[0]}")
    state = init_state(config)
    train_ds = Dataset(train_images, dict(dataset.metadata))
    plan = BatchPlan(config.batch_size, derive_seed(config.seed, "data"), drop_last=True)
    reg = config.make_regularizer() if config.regularizer in ("kl", "mmd") else None
    for epoch in range(1, config.epochs + 1):
        for step_idx, d_batch in enumerate(batches(train_ds, plan, epoch)):
            try:
                if config.regularizer == "aj":
                    train_step(state, d_batch, config)
                elif config.regularizer == "none":
                    _plain_autoencoder_step(state, d_batch, config)
                else:
                    baseline_train_step(state, d_batch, reg, config.P_a, config.k)
            except NumericError as err:
                raise NumericError(f"epoch {epoch}, step {step_idx}: {err}") from err
        state.epoch = epoch
        if epoch % eval_every == 0 or epoch == config.epochs:
            report = evaluate(state, config, eval_images, epoch)
            state.history.append(report)
            log.info("epoch %d: data_mse=%.5f dpc=%.4f%s", epoch, report.data_mse, report.dpc,
                     "" if report.jscc_mse is None else f" jscc_mse={report.jscc_mse:.4f}")
    return state
