"""KL and MMD latent regularizers as graph builders.

The variational path splits f's output into (mu, log sigma^2), samples by
reparameterization, and adds the closed-form KL to N(0, I). The MMD path
keeps f deterministic, power-normalizes its output, and penalizes the
unbiased IMQ-kernel MMD^2 against a fresh prior sample. Both exist so the
adversarial run can be compared against like-for-like alternatives: each
is a regularizer term in `game.train_step`'s (f, r) update. Numpy
references for the graph builders live with the tests.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .rng import Rng

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0


def _sq_dists_graph(a: Tensor, b: Tensor) -> Tensor:
    ra = ad.sum_rows(ad.square(a))
    rb = ad.sum_rows(ad.square(b))
    cross = ad.affine(a, b, a.tape.const(np.zeros(b.shape[0])))
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
