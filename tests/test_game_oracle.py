"""The auxiliary pair (g, h) of the game meets the linear-Gaussian oracle.

The pair is trained through the game's own `jscc_loss` and `_update` against a jammer of
fixed law, drawn from its own stream, and then evaluated on fresh draws through record-free
tapes. At k = 1 it reproduces both sides of the saddle: against the Gaussian jammer at P_a
it cannot beat the closed-form D* and learns to reach it; against a uniform jammer of the
same power it beats D*. A Gaussian jammer 5 % wider in standard deviation leaves the
Gaussian bounds, so a mis-scaled jammer cannot pass for the saddle's. At k = 2 the source
and the Gaussian jammer have independent dimensions, so D* holds per dimension, and the
pair's channel MSE per dimension meets the same bounds.
"""

import numpy as np

from conftest import normalized
from latentjam.autodiff import Tape
from latentjam.game import GameConfig, _update, init_state, jscc_loss
from latentjam.nets import TRAIN_DTYPE, BoundMlp, mlp_apply
from latentjam.oracle import OracleSpec, scalar_saddle_distortion
from latentjam.rng import Rng

SEED = 0
UPDATES = 1000
BATCH = 128
EVAL_ROWS = 200_000


def _jammer(family: str, variance: float, rows: int, k: int, rng: Rng) -> np.ndarray:
    shape = (rows, k)
    unit = rng.normal(shape) if family == "gaussian" else rng.symmetric(shape, np.sqrt(3.0))
    return np.sqrt(variance) * unit


def _trained_pair_value(family: str, variance: float, k: int = 1):
    """(J, se, D*): the trained pair's channel MSE per dimension on fresh draws, its standard
    error, and the per-dimension saddle distortion at the game's powers."""
    cfg = GameConfig(k=k, n=1, seed=SEED, jscc_hidden=64, data_hidden=2, batch_size=BATCH)
    state = init_state(cfg)
    g, h = state.networks.g, state.networks.h
    source, jam, noise = (Rng(SEED).spawn(label) for label in ("x", "jammer", "noise"))
    for _ in range(UPDATES):
        tape = Tape(TRAIN_DTYPE)
        g_b, h_b = BoundMlp(tape, g), BoundMlp(tape, h)
        x = tape.const(source.normal((BATCH, k)))
        z = tape.const(_jammer(family, variance, BATCH, k, jam))
        _update(state, tape, jscc_loss(g_b, h_b, x, z, cfg.P_t, cfg.sigma_n_sq, noise), [g_b, h_b])
    fresh = Rng(SEED).spawn("eval")
    x = fresh.normal((EVAL_ROWS, k))
    z = _jammer(family, variance, EVAL_ROWS, k, fresh)
    # one value per row, its dimensions' mean, so the standard error counts rows
    err = np.mean((x - mlp_apply(h, normalized(mlp_apply(g, x), cfg.P_t) + z)) ** 2, axis=1)
    spec = OracleSpec(sigma_x_sq=1.0, P_t=cfg.P_t, P_a=cfg.P_a, sigma_n_sq=cfg.sigma_n_sq, k=1)
    return float(err.mean()), float(err.std() / np.sqrt(EVAL_ROWS)), scalar_saddle_distortion(spec)


def _meets_gaussian_bounds(j, se, d_star) -> bool:
    """The saddle holds (J >= D* - 3 se) and the pair has learnt (J <= D* + 0.01)."""
    return d_star - 3.0 * se <= j <= d_star + 0.01


def test_pair_reaches_the_saddle_against_the_gaussian_jammer():
    j, se, d_star = _trained_pair_value("gaussian", 1.0)
    assert _meets_gaussian_bounds(j, se, d_star), (j, se, d_star)


def test_pair_beats_the_saddle_against_a_uniform_jammer():
    # the best response to a uniform jammer of power P_a reads about 0.487 against D* = 0.5
    j, se, d_star = _trained_pair_value("uniform", 1.0)
    assert j <= d_star - 0.008, (j, se, d_star)


def test_wider_gaussian_jammer_fails_the_gaussian_bounds():
    # 5 % wider in standard deviation: J reads about 0.524
    j, se, d_star = _trained_pair_value("gaussian", 1.05 ** 2)
    assert not _meets_gaussian_bounds(j, se, d_star), (j, se, d_star)


def test_pair_reaches_the_saddle_per_dimension_at_k2():
    j, se, d_star = _trained_pair_value("gaussian", 1.0, k=2)
    assert _meets_gaussian_bounds(j, se, d_star), (j, se, d_star)
