"""The KL regularizer's graph builders: the reparameterized sampler and the closed-form KL.

The variational path splits f's output into (mu, log sigma^2), samples by
reparameterization, and adds the closed-form KL to N(0, I). It exists, like
the MMD path (f's power-normalized output against a fresh prior sample
through the `imq_mmd` tape op), so the adversarial run can be compared
against like-for-like alternatives: each is a regularizer term in
`game.train_step`'s (f, r) update. Numpy references for both live with the
tests.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .rng import Rng

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0


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
