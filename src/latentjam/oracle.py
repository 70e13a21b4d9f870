"""Analytic and Monte-Carlo ground truth for the linear-Gaussian jamming game.

A transmitter sends alpha*x through an additive channel carrying fixed
noise n and a jammer signal z; a linear decoder estimates x from the sum.
In the isotropic case the saddle point is closed-form: gaussian jammer at
full power, distortion D* = sigma_x^2 (sigma_n^2 + P_a) / (P_t + sigma_n^2
+ P_a). Three checks live here: the closed form vs Monte-Carlo, the saddle
inequalities under strategy perturbations, and the characteristic-function
matching condition, necessary and sufficient for the optimal estimator to be
linear, on exact slopes i E[c exp(iwc)] / E[exp(iwc)] of empirical log-CFs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .autodiff import _all_finite
from .errors import ConfigError, DegenerateGameError, NumericError, ShapeError
from .rng import _BLOCK, Rng, _cos_sin_turn

MC_MIN_SAMPLES = 10_000  # the fewest draws a Monte-Carlo game value takes
MATCHING_MIN_SAMPLES = 100_000  # the fewest rows per block the matching residual takes

# ============================================================
# Specs and strategies
# ============================================================


@dataclass
class OracleSpec:
    """Per-dimension game parameters for the isotropic linear-Gaussian game."""

    sigma_x_sq: float = 1.0
    P_t: float = 1.0
    P_a: float = 1.0
    sigma_n_sq: float = 0.0
    k: int = 1

    def __post_init__(self):
        for name in ("sigma_x_sq", "P_t", "P_a", "sigma_n_sq"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma_x_sq < 0 or self.sigma_n_sq < 0 or self.P_t < 0 or self.P_a < 0:
            raise ConfigError("variances and powers must be nonnegative")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


@dataclass
class LinearStrategy:
    """Scalar per-dimension gains plus the jammer's distribution family.

    jammer is (family, variance), family "gaussian" or "uniform": sqrt(variance)
    times a `_unit_jammer` draw. decoder_gain may be the string "optimal", which
    resolves to the minimum-MSE gain Cov(x, yhat)/Var(yhat) for the given game.
    """

    encoder_gain: float
    decoder_gain: Union[float, str]
    jammer: tuple = ("gaussian", 1.0)

    def jammer_variance(self) -> float:
        family, variance = self.jammer
        if family not in ("gaussian", "uniform"):
            raise ConfigError(f"unknown jammer family '{family}'")
        return float(variance)

    def check_feasible(self, spec: OracleSpec) -> None:
        if self.encoder_gain ** 2 * spec.sigma_x_sq > spec.P_t + 1e-9:
            raise ConfigError(
                f"encoder gain {self.encoder_gain} violates transmit power {spec.P_t}")
        if self.jammer_variance() > spec.P_a + 1e-9:
            raise ConfigError(f"jammer variance {self.jammer_variance()} violates jam power {spec.P_a}")


def saddle_strategy(spec: OracleSpec) -> LinearStrategy:
    """Full-power encoder, MMSE decoder, full-power gaussian jammer."""
    if spec.sigma_x_sq == 0:
        raise DegenerateGameError("zero-variance source has no meaningful encoder gain")
    if spec.P_t == 0:
        raise DegenerateGameError("zero transmit power leaves the codec side of the game empty")
    alpha = float(np.sqrt(spec.P_t / spec.sigma_x_sq))
    return LinearStrategy(alpha, "optimal", ("gaussian", spec.P_a))


# ============================================================
# Closed form and Monte-Carlo game value
# ============================================================


def scalar_saddle_distortion(spec: OracleSpec) -> float:
    """Per-dimension distortion at the saddle point."""
    denom = spec.P_t + spec.sigma_n_sq + spec.P_a
    if denom == 0:
        raise DegenerateGameError("P_t + sigma_n_sq + P_a is zero; the game has no signal at all")
    return spec.sigma_x_sq * (spec.sigma_n_sq + spec.P_a) / denom


@dataclass
class McResult:
    value: float
    std_error: float
    samples: int


def resolve_decoder_gain(spec: OracleSpec, strategy: LinearStrategy) -> float:
    """Closed-form Cov(x, yhat)/Var(yhat) when the decoder asks for "optimal"."""
    if isinstance(strategy.decoder_gain, str):
        if strategy.decoder_gain != "optimal":
            raise ConfigError(f"unknown decoder gain '{strategy.decoder_gain}'")
        alpha = strategy.encoder_gain
        var_y = alpha ** 2 * spec.sigma_x_sq + spec.sigma_n_sq + strategy.jammer_variance()
        return alpha * spec.sigma_x_sq / var_y if var_y != 0 else 0.0
    return float(strategy.decoder_gain)


def _scaled(draws: np.ndarray, scale) -> np.ndarray:
    return np.multiply(draws, scale, out=draws)


def _unit_jammer(family: str, shape, rng: Rng) -> np.ndarray:
    """A unit-variance jammer draw: standard normal, or uniform on [-sqrt 3, sqrt 3)."""
    if family == "gaussian":
        return rng.normal(shape)
    if family == "uniform":
        return rng.symmetric(shape, np.sqrt(3.0))
    raise ConfigError(f"unknown jammer family '{family}'")


def _mc_shape(spec: OracleSpec, samples: int, caller: str) -> tuple:
    """(rows, k) holding `samples` draws; fewer than `MC_MIN_SAMPLES` is a config error."""
    if samples < MC_MIN_SAMPLES:
        raise ConfigError(f"{caller} needs >= 1e4 samples, got {samples}")
    return (max(2, samples // spec.k), spec.k)


def _draw_game(spec: OracleSpec, jammer: tuple, shape, rng: Rng):
    """Source x, fixed noise n (0.0 when sigma_n^2 = 0) and jammer z from streams x, n, z;
    z is sqrt(variance) times a `_unit_jammer` draw of the jammer's family."""
    x = _scaled(rng.spawn("x").normal(shape), np.sqrt(spec.sigma_x_sq))
    n = _scaled(rng.spawn("n").normal(shape), np.sqrt(spec.sigma_n_sq)) if spec.sigma_n_sq > 0 else 0.0
    family, variance = jammer
    return x, n, _scaled(_unit_jammer(family, shape, rng.spawn("z")), np.sqrt(variance))


def _game_value(x: np.ndarray, n, z: np.ndarray, alpha: float, gamma: float) -> McResult:
    """Mean and standard error of err^2, err = x - gamma (alpha x + n + z), with numpy's mean and
    std (the root of the mean of (sq - mean)^2) and numpy's operations in order. err^2 overwrites
    z a block at a time, and the rest runs in place there. n is an array or 0.0, which is not
    added: its sign of zero cannot survive the square."""
    rows = max(1, _BLOCK // x.shape[1])
    scratch = np.empty((min(rows, len(x)), x.shape[1]))
    for lo in range(0, len(x), rows):
        xb = x[lo:lo + rows]
        e = np.multiply(xb, alpha, out=scratch[:len(xb)])
        if isinstance(n, np.ndarray):
            e += n[lo:lo + rows]
        e += z[lo:lo + rows]
        e *= gamma
        np.subtract(xb, e, out=e)
        np.multiply(e, e, out=z[lo:lo + rows])
    sq = z.reshape(-1)
    mean = sq.mean()
    sq -= mean
    sq *= sq
    std = np.sqrt(sq.sum() / sq.size)
    return McResult(float(mean), float(std / np.sqrt(sq.size)), sq.size)


def mc_game_value(spec: OracleSpec, strategy: LinearStrategy, samples: int, seed: int) -> McResult:
    """Monte-Carlo per-dimension MSE of xhat = gamma (alpha x + n + z)."""
    shape = _mc_shape(spec, samples, "mc_game_value")
    strategy.check_feasible(spec)
    x, n, z = _draw_game(spec, strategy.jammer, shape, Rng(seed))
    return _game_value(x, n, z, strategy.encoder_gain, resolve_decoder_gain(spec, strategy))


# ============================================================
# Saddle-inequality verification
# ============================================================


@dataclass
class SaddleRow:
    name: str
    side: str  # "jammer" or "codec"
    value: float
    std_error: float
    ok: bool


@dataclass
class SaddleReport:
    j_star: float
    rows: list
    max_jammer_gain: float
    max_codec_loss: float
    passed: bool


def default_perturbations(spec: OracleSpec) -> list:
    """(name, side, strategy) triples: every jammer deviation should lower J,
    every codec deviation should raise it."""
    alpha = saddle_strategy(spec).encoder_gain
    gamma_star = resolve_decoder_gain(spec, saddle_strategy(spec))
    rows = []
    for family, scales in (("gaussian", (0.25, 0.5, 0.75)), ("uniform", (0.5, 1.0))):
        for s in scales:
            rows.append((f"jammer/{family}-{s}Pa", "jammer",
                         LinearStrategy(alpha, "optimal", (family, s * spec.P_a))))
    # encoder can only scale down: upscaling breaks power feasibility
    for s in (0.5, 0.75):
        rows.append((f"codec/alpha-x{s}", "codec",
                     LinearStrategy(s * alpha, "optimal", ("gaussian", spec.P_a))))
    for s in (0.0, 0.5, 0.75, 1.25, 1.5):
        rows.append((f"codec/gamma-x{s}", "codec",
                     LinearStrategy(alpha, s * gamma_star, ("gaussian", spec.P_a))))
    return rows


def saddle_verify(spec: OracleSpec, perturbations=None, samples: int = 400_000,
                  seed: int = 0) -> SaddleReport:
    """Check J(jammer dev) <= J* and J(codec dev) >= J* within 3 standard errors.

    All rows share one draw of each input (common random numbers), made after the sample floor
    and each row's feasibility are checked: `_draw_game`'s x, n and unit gaussian jammer, and a
    unit uniform jammer from stream u; a row scales its family's unit draw."""
    rows_in = default_perturbations(spec) if perturbations is None else perturbations
    jam, cod = (sum(r[1] == side for r in rows_in) for side in ("jammer", "codec"))
    if min(jam, cod) < 5:
        raise ConfigError(f"perturbation grid too small: {jam} jammer, {cod} codec rows")
    shape = _mc_shape(spec, samples, "saddle_verify")
    for _, _, strat in rows_in:
        strat.check_feasible(spec)
    j_star = scalar_saddle_distortion(spec)
    x, n, gaussian = _draw_game(spec, ("gaussian", 1.0), shape, Rng(seed))
    units = {"gaussian": gaussian, "uniform": _unit_jammer("uniform", shape, Rng(seed).spawn("u"))}
    z = np.empty(shape)
    rows = []
    max_gain = max_loss = -np.inf
    for name, side, strat in rows_in:
        np.multiply(units[strat.jammer[0]], np.sqrt(strat.jammer_variance()), out=z)
        res = _game_value(x, n, z, strat.encoder_gain, resolve_decoder_gain(spec, strat))
        if side == "jammer":
            ok = res.value <= j_star + 3.0 * res.std_error
            max_gain = max(max_gain, res.value - j_star)
        else:
            ok = res.value >= j_star - 3.0 * res.std_error
            max_loss = max(max_loss, j_star - res.value)
        rows.append(SaddleRow(name, side, res.value, res.std_error, ok))
    return SaddleReport(j_star, rows, float(max_gain), float(max_loss), all(r.ok for r in rows))


# ============================================================
# Matching condition (characteristic-function residual)
# ============================================================


@dataclass
class MatchingSpec:
    """Diagonal matching-condition data for S = Sigma Lambda_X Sigma Lambda_Z^-1.

    sigma, lambda_x, lambda_z hold the diagonals, one entry per dimension; the
    eigenbases are the coordinate axes. The evaluation grid is axis-aligned:
    omega = t * e_i for each dimension i and each radius t.
    """

    sigma: np.ndarray
    lambda_x: np.ndarray
    lambda_z: np.ndarray
    radii: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self):
        # a NaN would pass a comparison and give `_cos_sin_turn` a hanging index of -2^63
        try:
            diagonals = [np.asarray(d, dtype=float) for d in (self.sigma, self.lambda_x, self.lambda_z)]
        except (TypeError, ValueError) as err:
            raise ConfigError(f"sigma, lambda_x and lambda_z must be numeric: {err}") from err
        self.sigma, self.lambda_x, self.lambda_z = diagonals
        shapes = [d.shape for d in diagonals]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
            raise ConfigError(f"sigma, lambda_x and lambda_z must be 1-D and of one length, "
                              f"got shapes {shapes}")
        if not all(np.all(np.isfinite(d) & (d > 0)) for d in diagonals):
            raise ConfigError("sigma and eigenvalue diagonals must be finite and positive")
        if len(self.radii) == 0 or not np.all(np.abs(self.radii) <= 1.0 + 1e-12):  # False for NaN
            raise ConfigError(f"omega grid needs finite radii within ||omega|| <= 1, got {self.radii}")

    @property
    def s_diag(self) -> np.ndarray:
        return self.sigma * self.lambda_x * self.sigma / self.lambda_z


def isotropic_matching(spec: OracleSpec, radii=(0.0, 0.25, 0.5, 0.75, 1.0)) -> MatchingSpec:
    """Sigma = sqrt(P_t/sigma_x^2) I, Lambda_X = sigma_x^2 I, Lambda_Z = (sigma_n^2 + P_a) I."""
    if spec.sigma_x_sq <= 0:
        raise DegenerateGameError("matching condition needs a nondegenerate source")
    if spec.P_t == 0:
        raise DegenerateGameError("zero transmit power gives a degenerate power allocation")
    k = spec.k
    return MatchingSpec(
        sigma=np.full(k, np.sqrt(spec.P_t / spec.sigma_x_sq)),
        lambda_x=np.full(k, spec.sigma_x_sq),
        lambda_z=np.full(k, spec.sigma_n_sq + spec.P_a), radii=tuple(radii))


def matching_samples(spec: OracleSpec, jammer: tuple, samples: int, seed: int):
    """Draw (X, N+Z) sample blocks for matching_residual."""
    x, n, z = _draw_game(spec, jammer, (samples, spec.k), Rng(seed))
    return x, np.add(z, n, out=z)


def _log_cf_slopes(blocks, radii) -> list:
    """d/dw log E[exp(iwc)] = i E[c exp(iwc)] / E[exp(iwc)] at w = t for each t in radii.

    `blocks` yields the column c at most `_BLOCK` values at a time; s0 = sum exp(itc) and
    s1 = sum c exp(itc), each one real product of a row of ones or of c with the (re, im)
    pairs of exp(itc), are added up block by block, so the working set stays cache-sized.
    exp(itc) starts at 1 and steps from the previous radius by the product with exp(igc)
    for the gap g: one cosine-sine pass per block for each new gap, `rng._cos_sin_turn` on
    the turn gc / 2 pi less its floor.
    """
    scratch = (np.ones(_BLOCK), np.empty(_BLOCK, dtype=np.intp), *(np.empty(_BLOCK) for _ in range(4)),
               *(np.empty(_BLOCK, dtype=np.complex128) for _ in range(2)))
    sums = np.zeros((len(radii), 2, 2))
    n = 0
    for column in blocks:
        ones, idx, turn, p, q, r, e_gap, e_t = (s[:column.size] for s in scratch)
        e_t.fill(1.0)
        pairs = e_t.view(np.float64).reshape(column.size, 2)
        t_prev, g_prev = 0.0, None
        for j, t in enumerate(radii):
            if t != t_prev:
                if t - t_prev != g_prev:
                    g_prev = t - t_prev
                    np.multiply(column, g_prev / (2.0 * np.pi), out=turn)
                    turn -= np.floor(turn, out=p)
                    _cos_sin_turn(turn, e_gap.real, idx, p, q, r)
                    e_gap.imag = turn  # the sine
                e_t *= e_gap
                t_prev = t
            sums[j] += ones @ pairs, column @ pairs
        n += column.size
    slopes = []
    for t, (s0, s1) in zip(radii, sums @ np.array([1.0, 1j])):
        if abs(s0) < 0.1 * n:
            raise NumericError(f"characteristic function magnitude below 0.1 at w={t}; grid too wide")
        slopes.append(1j * complex(s1) / complex(s0))
    return slopes


def _column_blocks(samples: np.ndarray, i: int, scale: float):
    """samples[:, i] * scale, `_BLOCK` rows at a time; a product past float64's range, whose
    turn would hang `_cos_sin_turn`, is a `NumericError`."""
    for lo in range(0, samples.shape[0], _BLOCK):
        with np.errstate(over="ignore"):
            block = samples[lo:lo + _BLOCK, i] * scale
        if not _all_finite(block):
            raise NumericError(f"matching_residual: column {i} times sigma {scale} overflows")
        yield block


def matching_residual(samples_x: np.ndarray, samples_zn: np.ndarray,
                      matching: MatchingSpec) -> float:
    """Max over grid and dims of |dlogF_A/dw_i - S_i dlogF_B/dw_i|.

    A = Sigma X and B = N+Z; both log-CFs are quadratic with ratio exactly S
    when the jammer-plus-noise is Gaussian matched to the source, so the
    residual is a direct linearity-of-estimation probe. The log-CF slopes are
    the exact slopes of the empirical CFs (`_log_cf_slopes`). Each column of A
    and B is scaled and consumed `_BLOCK` rows at a time, so no temporary
    grows with the sample count. Either block needs one column per entry of
    sigma, else `ShapeError`; a NaN or +-inf sample raises `NumericError`
    before any column is read, and so does a column that sigma scales past
    float64's range.
    """
    x = np.asarray(samples_x, dtype=np.float64)
    zn = np.asarray(samples_zn, dtype=np.float64)
    k = len(matching.sigma)
    if x.shape[1:] != (k,) or zn.shape[1:] != (k,):
        raise ShapeError(f"matching_residual needs (rows, {k}) blocks for {k} sigma entries, "
                         f"got {x.shape} and {zn.shape}")
    if min(x.shape[0], zn.shape[0]) < MATCHING_MIN_SAMPLES:
        raise ConfigError("matching_residual needs >= 1e5 samples per block")
    if not (_all_finite(x) and _all_finite(zn)):
        raise NumericError("matching_residual samples must be finite")
    s = matching.s_diag
    worst = 0.0
    for i in range(k):
        lhs = _log_cf_slopes(_column_blocks(x, i, matching.sigma[i]), matching.radii)
        rhs = _log_cf_slopes(_column_blocks(zn, i, 1.0), matching.radii)
        for l_t, r_t in zip(lhs, rhs):
            worst = max(worst, abs(l_t - s[i] * r_t))
    return worst
