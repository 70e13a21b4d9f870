"""KL and MMD latent regularizers: estimators and their graph builders.

The variational path splits f's output into (mu, log sigma^2), samples by
reparameterization, and adds the closed-form KL to N(0, I). The MMD path
keeps f deterministic, power-normalizes its output, and penalizes the
unbiased IMQ-kernel MMD^2 against a fresh prior sample. Both exist so the
adversarial run can be compared against like-for-like alternatives: each
is a regularizer term in `game.train_step`'s (f, r) update. The numpy
estimators are the references the graph builders are tested against.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .rng import Rng

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0


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
