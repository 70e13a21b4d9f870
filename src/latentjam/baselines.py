"""KL and MMD latent regularizers: estimators and the losses they train on.

The variational path splits f's output into (mu, log sigma^2), samples by
reparameterization, and adds the closed-form KL to N(0, I). The MMD path
keeps f deterministic, power-normalizes its output, and penalizes the
unbiased IMQ-kernel MMD^2 against a fresh prior sample. Both exist so the
adversarial run can be compared against like-for-like alternatives; their
(f, r) update is `game.baseline_train_step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, ShapeError
from .nets import BoundMlp, power_normalize
from .rng import Rng

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0


@dataclass
class Regularizer:
    """kind "kl" or "mmd", its weight, and the IMQ kernel constant."""

    kind: str
    weight: float
    mmd_scale: Optional[float] = None  # resolved to 2k when unset

    def __post_init__(self):
        if self.kind not in ("kl", "mmd"):
            raise ConfigError(f"unknown regularizer kind '{self.kind}'")
        if self.weight < 0:
            raise ConfigError("regularizer weight must be >= 0")
        if self.mmd_scale is not None and self.mmd_scale <= 0:
            raise ConfigError("IMQ kernel constant must be > 0")


# ============================================================
# Pure estimators
# ============================================================


def kl_diag_gaussian(mu: np.ndarray, log_var: np.ndarray) -> float:
    """KL(N(mu, diag sigma^2) || N(0, I)), averaged over the batch."""
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    if mu.shape != log_var.shape:
        raise ShapeError(f"kl_diag_gaussian shapes differ: {mu.shape} vs {log_var.shape}")
    per_sample = 0.5 * np.sum(mu * mu + np.exp(log_var) - log_var - 1.0, axis=-1)
    return float(np.mean(per_sample))


def reparameterize(mu: np.ndarray, log_var: np.ndarray, rng: Rng) -> np.ndarray:
    """z = mu + exp(log_var / 2) * eps with fresh standard-normal eps."""
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    if mu.shape != log_var.shape:
        raise ShapeError(f"reparameterize shapes differ: {mu.shape} vs {log_var.shape}")
    return mu + np.exp(0.5 * log_var) * rng.normal(mu.shape)


def mmd_imq(a: np.ndarray, b: np.ndarray, C: float) -> float:
    """Unbiased MMD^2 with kernel C / (C + ||u - v||^2).

    Diagonal terms are excluded from the within-sample means, so single
    draws can come out negative; only the expectation is nonnegative.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"mmd_imq expects equal [m, k] blocks, got {a.shape} vs {b.shape}")
    m = a.shape[0]
    if m < 2:
        raise ConfigError(f"mmd_imq needs m >= 2, got {m}")
    if C <= 0:
        raise ConfigError("IMQ kernel constant must be > 0")

    def sq_dists(u, v):
        ru = np.sum(u * u, axis=1)[:, None]
        rv = np.sum(v * v, axis=1)[None, :]
        return np.maximum(ru + rv - 2.0 * (u @ v.T), 0.0)

    k_aa = C / (C + sq_dists(a, a))
    k_bb = C / (C + sq_dists(b, b))
    k_ab = C / (C + sq_dists(a, b))
    off = float(m * (m - 1))
    term_aa = (k_aa.sum() - np.trace(k_aa)) / off
    term_bb = (k_bb.sum() - np.trace(k_bb)) / off
    return float(term_aa + term_bb - 2.0 * k_ab.mean())


# ============================================================
# Graph builders (training path)
# ============================================================


def _sq_dists_graph(a: Tensor, b: Tensor) -> Tensor:
    ra = ad.sum_rows(ad.square(a))
    rb = ad.sum_rows(ad.square(b))
    cross = a @ ad.transpose(b)
    # relu clamps the tiny negative residue of the expansion on the diagonal
    return ad.relu(ra + ad.transpose(rb) - 2.0 * cross)


def mmd_imq_graph(a: Tensor, b: Tensor, C: float) -> Tensor:
    """Tape twin of mmd_imq; diagonals removed with a constant mask."""
    m = a.shape[0]
    tape = a.tape
    mask = tape.const(1.0 - np.eye(m))
    off = float(m * (m - 1))

    def kernel(u, v):
        return C / (_sq_dists_graph(u, v) + C)

    term_aa = ad.sum_all(kernel(a, a) * mask) / off
    term_bb = ad.sum_all(kernel(b, b) * mask) / off
    term_ab = ad.mean_all(kernel(a, b))
    return term_aa + term_bb - 2.0 * term_ab


def kl_diag_gaussian_graph(mu: Tensor, log_var: Tensor) -> Tensor:
    m = mu.shape[0]
    inner = ad.square(mu) + ad.exp(log_var) - log_var - 1.0
    return ad.sum_all(inner) * (0.5 / m)


def vae_sample(head: Tensor, k: int, rng: Rng) -> tuple:
    """(z, mu, log_var) from a 2k-wide head: z = mu + exp(log_var / 2) * fresh eps."""
    if head.shape[1] != 2 * k:
        raise ConfigError(f"kl path needs a 2k-wide head, got {head.shape[1]} for k={k}")
    mu = ad.slice_cols(head, 0, k)
    log_var = ad.clip(ad.slice_cols(head, k, 2 * k), LOG_VAR_MIN, LOG_VAR_MAX)
    eps = head.tape.const(rng.normal(mu.shape))
    return mu + ad.exp(log_var * 0.5) * eps, mu, log_var


def baseline_losses(tape: Tape, f_bound: BoundMlp, r_bound: BoundMlp, d_batch: np.ndarray,
                    reg: Regularizer, P_a: float, k: int, noise_rng: Rng) -> dict:
    """Record reconstruction + weighted regularizer onto the tape.

    Returns tensors: total, recon, reg_term, z. The kl path leaves z
    unnormalized (the KL already anchors its scale); the mmd path
    power-normalizes z exactly like the adversarial run.
    """
    d = tape.const(d_batch)
    m = d_batch.shape[0]
    if reg.kind == "kl":
        z, mu, log_var = vae_sample(f_bound(d), k, noise_rng)
        reg_term = kl_diag_gaussian_graph(mu, log_var)
    else:
        z = power_normalize(f_bound(d), P_a)
        scale = reg.mmd_scale if reg.mmd_scale is not None else 2.0 * k
        prior = tape.const(noise_rng.normal((m, k)))
        reg_term = mmd_imq_graph(z, prior, scale)
    d_hat = r_bound(z)
    recon = ad.mean_all(ad.square(d - d_hat))
    total = recon + reg.weight * reg_term
    return {"total": total, "recon": recon, "reg_term": reg_term, "z": z}
