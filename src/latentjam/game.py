"""The adversarial-jamming minimax loop.

One data compressor f doubles as a channel jammer: its power-normalized
latent z rides on an auxiliary autoencoder's channel y + n + z. The
auxiliary pair (g, h) minimizes its own reconstruction error of a fresh
Gaussian source x; f maximizes that same error (weight eta) while
minimizing its data reconstruction through r. The only stable z the
jammer can settle on is the channel game's saddle point, a diagonal
Gaussian, which is what anchors the latent distribution.

Alternation per batch (`train_step`): f's forward and power normalization
are recorded once, on the tape of phase (b). (a) `jscc_steps_per_data_step`
updates of (g, h), each on its own tape that reads z as a constant leaf,
fresh x each sub-step; (b) one update of (f, r) with gradients flowing
through z into the frozen (g, h) channel, fresh x again (`_channel_term`).
f is not updated in (a) and its forward draws no randomness, so (a) sees
the z that (b) trains through.
The none control is phase (b) without the channel term; kl and mmd are
the same (f, r) update with `lambda_weight` times their regularizer in its
place, so all four regularizers share one step. Every update goes through
one gradient-and-Adam helper, and an aj phase that changes a network it froze
raises `NumericError`.

Evaluation (`evaluate`) builds the same graph on one record-free tape: f's
latent goes through `power_normalize` (or the shared VAE sampler for kl),
the data MSE is the `mse` op on r's output, and aj's channel term is
`_channel_term`'s; `metrics.evaluate_latents` only builds the report.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import baselines
from .autodiff import AdamState, EagerTape, Tape, Tensor, adam_step, backward_grads
from .data_io import BatchPlan, Dataset, batches
from .errors import ConfigError, NumericError, ShapeError
from .metrics import MIN_EVAL_ROWS, MetricsReport, evaluate_latents
from .nets import TRAIN_DTYPE, BoundMlp, NetworkRoles, make_networks, power_normalize
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
    lambda_weight: Optional[float] = None  # kl -> 1.0, mmd -> 10.0 when unset; else checked, then ignored
    mmd_scale: Optional[float] = None      # mmd -> 2k when unset; else checked, then ignored

    def __post_init__(self):
        if self.regularizer not in REGULARIZERS:
            raise ConfigError(f"regularizer must be one of {REGULARIZERS}")
        reads = {"lambda_weight": self.regularizer in ("kl", "mmd"),
                 "mmd_scale": self.regularizer == "mmd"}
        if reads["lambda_weight"] and self.lambda_weight is None:
            self.lambda_weight = 1.0 if self.regularizer == "kl" else 10.0
        if reads["mmd_scale"] and self.mmd_scale is None:
            self.mmd_scale = 2.0 * self.k
        for name in ("P_t", "P_a", "sigma_n_sq", "eta", "lr", "lambda_weight", "mmd_scale"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.lr < 0 or self.epochs < 0:
            raise ConfigError("lr and epochs must be >= 0")
        if self.P_t <= 0 or self.P_a <= 0:
            raise ConfigError("P_t and P_a must be > 0")
        if self.sigma_n_sq < 0:
            raise ConfigError("sigma_n_sq must be >= 0")
        if self.eta < 0:
            raise ConfigError("eta must be >= 0")
        if self.k < 1 or self.n < 1:
            raise ConfigError("k and n must be >= 1")
        if self.data_hidden < 1 or self.jscc_hidden < 1:
            raise ConfigError("data_hidden and jscc_hidden must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.jscc_steps_per_data_step < 1:
            raise ConfigError("jscc_steps_per_data_step must be >= 1")
        if self.lambda_weight is not None and self.lambda_weight < 0:
            raise ConfigError("lambda_weight must be >= 0")
        if self.mmd_scale is not None and self.mmd_scale <= 0:
            raise ConfigError("mmd_scale must be > 0")
        for name, read in reads.items():
            if not read:  # a valid value the step never reads is accepted and ignored
                setattr(self, name, None)


@dataclass
class TrainState:
    networks: NetworkRoles
    opt: dict
    streams: dict
    epoch: int = 0
    history: list = field(default_factory=list)


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


def jscc_loss(g_b: BoundMlp, h_b: BoundMlp, x: Tensor, z: Tensor,
              P_t: float, sigma_n_sq: float, rng: Rng) -> Tensor:
    """Auxiliary pair's objective; phase (a) passes z as a constant leaf, so f gets no gradient."""
    y = power_normalize(g_b(x), P_t)
    x_hat = h_b(channel_output(y, z, sigma_n_sq, rng))
    return ad.mse(x, x_hat)


def data_loss(recon_mse: Tensor, jscc_term: Tensor, eta: float) -> Tensor:
    """Compressor objective: reconstruction MSE minus eta times the channel term."""
    if eta < 0:
        raise ConfigError("eta must be >= 0")
    return recon_mse - eta * jscc_term


# ============================================================
# Training steps
# ============================================================


def _update(state: TrainState, tape: Tape, loss: Tensor, bounds: list) -> None:
    """One backward sweep over the bound networks' leaves, then one Adam step per network, in
    order, on its flat buffer, reading the leaf gradients where the sweep left them."""
    grads = iter(backward_grads(tape, loss, [t for b in bounds for t in b.nodes.values()]))
    for b in bounds:
        adam_step(b.params, [next(grads) for _ in b.nodes], state.opt[b.params.role])


def _channel_term(tape: Tape, nets: NetworkRoles, z: Tensor, config: GameConfig,
                  x_rng: Rng, noise_rng: Rng) -> tuple:
    """aj's channel term on `tape`: g and h bound there, a fresh source x drawn from `x_rng`
    (before the noise), z jamming the channel; returns the loss and the bound pair."""
    g_b, h_b = BoundMlp(tape, nets.g), BoundMlp(tape, nets.h)
    x = tape.const(x_rng.normal((z.shape[0], config.k)))
    return jscc_loss(g_b, h_b, x, z, config.P_t, config.sigma_n_sq, noise_rng), [g_b, h_b]


def _snapshot(nets: NetworkRoles, names: tuple) -> dict:
    return {net: replace(getattr(nets, net), buffer=getattr(nets, net).buffer.copy())
            for net in names}


def _assert_unchanged(nets: NetworkRoles, before: dict, phase: str) -> None:
    for net, old in before.items():
        now = getattr(nets, net)
        if not np.array_equal(now.buffer, old.buffer):
            pname = next(p for p in old.array_names() if not np.array_equal(now.array(p), old.array(p)))
            raise NumericError(
                f"stop-gradient violation: frozen {net}.{pname} changed in phase ({phase})")


def train_step(state: TrainState, d_batch: np.ndarray, config: GameConfig) -> TrainState:
    """One (f, r) update for any regularizer; see the module docstring for the schedule."""
    if d_batch.shape[1] != config.n:
        raise ShapeError(f"batch has n={d_batch.shape[1]}, config says {config.n}")
    nets = state.networks
    m = d_batch.shape[0]
    tape = Tape(TRAIN_DTYPE)
    f_b = BoundMlp(tape, nets.f)
    r_b = BoundMlp(tape, nets.r)
    d = tape.const(d_batch)
    reg = None
    # kl and mmd record the regularizer before r(z): backward sums z's gradients in this order
    if config.regularizer == "kl":
        z, mu, log_var = baselines.vae_sample(f_b(d), config.k, state.streams["noise"])
        reg = baselines.kl_diag_gaussian_graph(mu, log_var)
    else:
        z = power_normalize(f_b(d), config.P_a)
        if config.regularizer == "mmd":
            prior = tape.const(state.streams["noise"].normal((m, config.k)))
            reg = ad.imq_mmd(z, prior, config.mmd_scale)
    loss = ad.mse(d, r_b(z))
    if reg is not None:
        loss = loss + config.lambda_weight * reg
    frozen: dict = {}
    if config.regularizer == "aj":
        # (a) the auxiliary pair learns against f's latent, read as a constant
        frozen = _snapshot(nets, ("f", "r"))
        for _ in range(config.jscc_steps_per_data_step):
            tape_a = Tape(TRAIN_DTYPE)
            _update(state, tape_a, *_channel_term(tape_a, nets, tape_a.const(z.value), config,
                                                  state.streams["x"], state.streams["noise"]))
        _assert_unchanged(nets, frozen, "a")
        # (b) f and r learn through z into the pair, bound frozen once updated
        frozen = _snapshot(nets, ("g", "h"))
        if config.eta > 0:
            jt = _channel_term(tape, nets, z, config, state.streams["x"], state.streams["noise"])[0]
            loss = data_loss(loss, jt, config.eta)
    _update(state, tape, loss, [f_b, r_b])
    _assert_unchanged(nets, frozen, "b")
    return state


# ============================================================
# Evaluation and the epoch loop
# ============================================================


def evaluate(state: TrainState, config: GameConfig, d_eval: np.ndarray, epoch: int) -> MetricsReport:
    """One evaluation pass: the training step's graph on one record-free tape.

    The eval stream stands in for training's streams, in their order: kl's sampler draws eps,
    then aj's channel term draws a fresh source and the channel noise. Power normalization
    uses the eval batch's statistics.
    """
    tape = EagerTape()
    nets = state.networks
    d = tape.const(d_eval)
    head = BoundMlp(tape, nets.f)(d)
    if config.regularizer == "kl":
        z = baselines.vae_sample(head, config.k, state.streams["eval"])[0]
    else:
        z = power_normalize(head, config.P_a)
    data_mse = float(ad.mse(d, BoundMlp(tape, nets.r)(z)).value[0])
    jscc = None
    if config.regularizer == "aj":
        jt = _channel_term(tape, nets, z, config, state.streams["eval"], state.streams["eval"])[0]
        jscc = float(jt.value[0])
    return evaluate_latents(epoch, data_mse, z.value, jscc)


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


def check_training_inputs(config: GameConfig, dataset: Dataset,
                          eval_dataset: Optional[Dataset] = None, eval_every: int = 1):
    """Reject inputs `train` cannot run on; returns the (train, eval) image split."""
    if eval_every < 1:
        raise ConfigError("eval_every must be >= 1")
    if dataset.count == 0:
        raise ConfigError("dataset is empty")
    train_images, eval_images = split_eval(dataset, eval_dataset)
    for split, images in (("training", train_images), ("evaluation", eval_images)):
        if images.shape[1:] != (config.n,):
            raise ConfigError(f"{split} images have shape {images.shape}, need [rows, {config.n}]")
        # min and max carry a NaN through, and a NaN fails both comparisons
        if images.size and not (0.0 <= float(images.min()) and float(images.max()) <= 1.0):
            raise ConfigError(f"{split} values must be finite and lie in [0, 1]")
    if train_images.shape[0] < config.batch_size:
        raise ConfigError(
            f"batch_size {config.batch_size} exceeds training rows {train_images.shape[0]}")
    rows = eval_images.shape[0]
    if config.epochs > 0 and (rows < MIN_EVAL_ROWS or rows <= config.k):
        raise ConfigError(f"evaluation needs at least {MIN_EVAL_ROWS} rows and more than "
                          f"k={config.k}, got {rows}")
    return train_images, eval_images


def train(config: GameConfig, dataset: Dataset, eval_dataset: Optional[Dataset] = None,
          eval_every: int = 1) -> TrainState:
    """Shuffled mini-batch epochs with a MetricsReport per evaluated epoch."""
    train_images, eval_images = check_training_inputs(config, dataset, eval_dataset, eval_every)
    state = init_state(config)
    train_ds = Dataset(train_images, dict(dataset.metadata))
    plan = BatchPlan(config.batch_size, derive_seed(config.seed, "data"))
    for epoch in range(1, config.epochs + 1):
        for step_idx, d_batch in enumerate(batches(train_ds, plan, epoch)):
            try:
                train_step(state, d_batch, config)
            except NumericError as err:
                raise NumericError(f"epoch {epoch}, step {step_idx}: {err}") from err
        state.epoch = epoch
        if epoch % eval_every == 0 or epoch == config.epochs:
            try:
                report = evaluate(state, config, eval_images, epoch)
            except NumericError as err:
                raise NumericError(f"epoch {epoch}, evaluation: {err}") from err
            state.history.append(report)
            log.info("epoch %d: data_mse=%.5f dpc=%.4f%s", epoch, report.data_mse, report.dpc,
                     "" if report.jscc_mse is None else f" jscc_mse={report.jscc_mse:.4f}")
    return state
