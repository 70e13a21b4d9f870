"""Analytic and Monte-Carlo ground truth for the linear-Gaussian jamming game.

A transmitter sends alpha*x through an additive channel carrying fixed
noise n and a jammer signal z; a linear decoder estimates x from the sum.
In the isotropic case the saddle point is closed-form: gaussian jammer at
full power, distortion D* = sigma_x^2 (sigma_n^2 + P_a) / (P_t + sigma_n^2
+ P_a). Three checks live here: the closed form vs Monte-Carlo, the saddle
inequalities under strategy perturbations, and the characteristic-function
matching condition that is necessary and sufficient for the optimal
estimator to be linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, DegenerateGameError, NumericError
from .rng import _BLOCK, Rng, derive_seed

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
        if self.sigma_x_sq < 0 or self.sigma_n_sq < 0 or self.P_t < 0 or self.P_a < 0:
            raise ConfigError("variances and powers must be nonnegative")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")

    def theoretical_beta(self, power: Optional[float] = None) -> float:
        """Jammer gain so that beta^2 (sigma_n^2 + sigma_x^2) hits the power cap."""
        p = self.P_a if power is None else power
        denom = self.sigma_n_sq + self.sigma_x_sq
        if denom == 0:
            raise DegenerateGameError("scaled-source jammer undefined for a zero-variance source")
        return float(np.sqrt(p / denom))


@dataclass
class LinearStrategy:
    """Scalar per-dimension gains plus the jammer's distribution family.

    jammer is (family, param): ("gaussian", variance), ("uniform", variance)
    or ("scaled_source", beta). decoder_gain may be the string "optimal",
    which resolves to the minimum-MSE gain Cov(x, yhat)/Var(yhat) for the
    given game parameters.
    """

    encoder_gain: float
    decoder_gain: Union[float, str]
    jammer: tuple = ("gaussian", 1.0)

    def jammer_variance(self, spec: OracleSpec) -> float:
        family, param = self.jammer
        if family in ("gaussian", "uniform"):
            return float(param)
        if family == "scaled_source":
            return float(param) ** 2 * (spec.sigma_n_sq + spec.sigma_x_sq)
        raise ConfigError(f"unknown jammer family '{family}'")

    def check_feasible(self, spec: OracleSpec) -> None:
        if self.encoder_gain ** 2 * spec.sigma_x_sq > spec.P_t + 1e-9:
            raise ConfigError(
                f"encoder gain {self.encoder_gain} violates transmit power {spec.P_t}")
        if self.jammer_variance(spec) > spec.P_a + 1e-9:
            raise ConfigError(
                f"jammer variance {self.jammer_variance(spec)} violates jam power {spec.P_a}")


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
        var_y = alpha ** 2 * spec.sigma_x_sq + spec.sigma_n_sq + strategy.jammer_variance(spec)
        if var_y == 0:
            return 0.0
        return alpha * spec.sigma_x_sq / var_y
    return float(strategy.decoder_gain)


def _scaled(draws: np.ndarray, scale) -> np.ndarray:
    return np.multiply(draws, scale, out=draws)


def _draw_game(spec: OracleSpec, jammer: tuple, shape, rng: Rng):
    """Source x, fixed noise n (0.0 when sigma_n^2 = 0) and jammer z from streams x, n, z."""
    x = _scaled(rng.spawn("x").normal(shape), np.sqrt(spec.sigma_x_sq))
    n = _scaled(rng.spawn("n").normal(shape), np.sqrt(spec.sigma_n_sq)) if spec.sigma_n_sq > 0 else 0.0
    family, param = jammer
    z_rng = rng.spawn("z")
    if family == "gaussian":
        z = _scaled(z_rng.normal(shape), np.sqrt(param))
    elif family == "uniform":
        z = z_rng.symmetric(shape, np.sqrt(3.0 * param))
    elif family == "scaled_source":
        # The certificate form beta*(n - x) realized with the jammer's own
        # independent draws; in law this is N(0, beta^2 (sigma_n^2 + sigma_x^2)).
        x_own = _scaled(z_rng.normal(shape), np.sqrt(spec.sigma_x_sq))
        n_own = _scaled(z_rng.normal(shape), np.sqrt(spec.sigma_n_sq)) if spec.sigma_n_sq > 0 else 0.0
        z = _scaled(np.subtract(n_own, x_own, out=x_own), param)
    else:
        raise ConfigError(f"unknown jammer family '{family}'")
    return x, n, z


def mc_game_value(spec: OracleSpec, strategy: LinearStrategy, samples: int, seed: int) -> McResult:
    """Monte-Carlo per-dimension MSE of xhat = gamma (alpha x + n + z)."""
    if samples < 10_000:
        raise ConfigError(f"mc_game_value needs >= 1e4 samples, got {samples}")
    strategy.check_feasible(spec)
    x, n, z = _draw_game(spec, strategy.jammer, (max(2, samples // spec.k), spec.k), Rng(seed))
    gamma = resolve_decoder_gain(spec, strategy)
    # err = x - gamma * (alpha x + n + z), squared, then its mean and numpy's std
    # (the root of the mean of (sq - mean)^2), in one buffer with numpy's operations and order
    sq = np.multiply(x, strategy.encoder_gain)
    sq += n
    sq += z
    sq *= gamma
    np.subtract(x, sq, out=sq)
    sq = np.multiply(sq, sq, out=sq).ravel()
    mean = sq.mean()
    sq -= mean
    sq *= sq
    std = np.sqrt(sq.sum() / sq.size)
    return McResult(float(mean), float(std / np.sqrt(sq.size)), sq.size)


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
    saddle_mc: McResult
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
    for s in (0.25, 0.5, 0.75):
        rows.append((f"jammer/gaussian-{s}Pa", "jammer",
                     LinearStrategy(alpha, "optimal", ("gaussian", s * spec.P_a))))
    for s in (0.5, 1.0):
        rows.append((f"jammer/uniform-{s}Pa", "jammer",
                     LinearStrategy(alpha, "optimal", ("uniform", s * spec.P_a))))
        rows.append((f"jammer/scaled-source-{s}Pa", "jammer",
                     LinearStrategy(alpha, "optimal",
                                    ("scaled_source", spec.theoretical_beta(s * spec.P_a)))))
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
    """Check J(jammer dev) <= J* and J(codec dev) >= J* within 3 standard errors."""
    rows_in = default_perturbations(spec) if perturbations is None else perturbations
    jam = [r for r in rows_in if r[1] == "jammer"]
    cod = [r for r in rows_in if r[1] == "codec"]
    if len(jam) < 5 or len(cod) < 5:
        raise ConfigError(f"perturbation grid too small: {len(jam)} jammer, {len(cod)} codec rows")
    j_star = scalar_saddle_distortion(spec)
    saddle_mc = mc_game_value(spec, saddle_strategy(spec), samples, derive_seed(seed, "saddle"))
    rows = []
    max_gain = -np.inf
    max_loss = -np.inf
    for name, side, strat in rows_in:
        res = mc_game_value(spec, strat, samples, derive_seed(seed, f"grid/{name}"))
        if side == "jammer":
            ok = res.value <= j_star + 3.0 * res.std_error
            max_gain = max(max_gain, res.value - j_star)
        else:
            ok = res.value >= j_star - 3.0 * res.std_error
            max_loss = max(max_loss, j_star - res.value)
        rows.append(SaddleRow(name, side, res.value, res.std_error, ok))
    return SaddleReport(j_star, saddle_mc, rows, float(max_gain), float(max_loss),
                        all(r.ok for r in rows))


# ============================================================
# Matching condition (characteristic-function residual)
# ============================================================


@dataclass
class MatchingSpec:
    """Diagonalized matching-condition data for S = Sigma Lambda_X Sigma Lambda_Z^-1.

    sigma, lambda_x, lambda_z hold the diagonals; q_x, q_z are the
    orthonormal eigenbases. The evaluation grid is axis-aligned: omega =
    t * e_i for each dimension i and each radius t.
    """

    sigma: np.ndarray
    lambda_x: np.ndarray
    lambda_z: np.ndarray
    q_x: np.ndarray
    q_z: np.ndarray
    radii: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    step: float = 0.05

    def __post_init__(self):
        k = len(self.sigma)
        for q, label in ((self.q_x, "q_x"), (self.q_z, "q_z")):
            if not np.allclose(q.T @ q, np.eye(k), atol=1e-10):
                raise ConfigError(f"{label} is not orthonormal within 1e-10")
        if np.any(self.sigma <= 0) or np.any(self.lambda_x <= 0) or np.any(self.lambda_z <= 0):
            raise ConfigError("sigma and eigenvalue diagonals must be positive")
        if max(self.radii) > 1.0 + 1e-12:
            raise ConfigError("omega grid must stay within ||omega|| <= 1")
        if self.step <= 0:
            raise ConfigError("finite-difference step must be positive")

    @property
    def s_diag(self) -> np.ndarray:
        return self.sigma * self.lambda_x * self.sigma / self.lambda_z


def isotropic_matching(spec: OracleSpec, kappa: Optional[float] = None,
                       radii=(0.0, 0.25, 0.5, 0.75, 1.0), step: float = 0.05) -> MatchingSpec:
    """Identity eigenbases, Sigma = sqrt(P_t/sigma_x^2) I, Lambda_Z = (sigma_n^2 + kappa) I."""
    if spec.sigma_x_sq <= 0:
        raise DegenerateGameError("matching condition needs a nondegenerate source")
    if spec.P_t == 0:
        raise DegenerateGameError("zero transmit power gives a degenerate power allocation")
    kappa = spec.P_a if kappa is None else kappa
    k = spec.k
    eye = np.eye(k)
    return MatchingSpec(
        sigma=np.full(k, np.sqrt(spec.P_t / spec.sigma_x_sq)),
        lambda_x=np.full(k, spec.sigma_x_sq),
        lambda_z=np.full(k, spec.sigma_n_sq + kappa),
        q_x=eye, q_z=eye, radii=tuple(radii), step=step)


def matching_samples(spec: OracleSpec, jammer: tuple, samples: int, seed: int):
    """Draw (X, N+Z) sample blocks for matching_residual."""
    if jammer[0] not in ("gaussian", "uniform"):
        raise ConfigError(f"unknown jammer family '{jammer[0]}' for matching samples")
    x, n, z = _draw_game(spec, jammer, (samples, spec.k), Rng(seed))
    return x, n + z


def _cis(arg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(i arg) into complex `out`, from one real cosine and one real sine."""
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _gap_cis(column, e_h, g: float, h: float, arg, out) -> np.ndarray:
    """exp(igc) into `out`: exp(ihc) = `e_h` to the power q by repeated squaring when
    g == q * h in floating point for an integer q >= 1, else a cosine and sine of g c."""
    q = round(g / h)
    if q < 1 or q * h != g:
        return _cis(np.multiply(column, g, out=arg), out)
    np.copyto(out, e_h)
    for bit in bin(q)[3:]:
        np.multiply(out, out, out=out)
        if bit == "1":
            out *= e_h
    return out


def _log_cf_slopes(blocks, radii, h: float) -> list:
    """Central differences of log E[exp(i w c)] at w = t for each t in radii.

    `blocks` yields the column c at most `_BLOCK` values at a time, and the
    characteristic-function sums are added up block by block, so the working
    set stays cache-sized. By angle addition exp(i(t + h)c) = exp(itc)
    exp(ihc) and exp(i(t - h)c) = exp(itc) conj(exp(ihc)), so each sum is one
    complex dot product. exp(itc) steps from the previous radius by the
    product with exp(igc) for the gap g, which `_gap_cis` makes from exp(ihc)
    when g is a whole number of steps, as on the default grid. At t = 0 the
    value at -h is the conjugate of the value at +h.
    """
    scratch = np.empty(_BLOCK), *(np.empty(_BLOCK, dtype=np.complex128) for _ in range(3))
    sums = np.zeros((len(radii), 2), dtype=np.complex128)
    n = 0
    for column in blocks:
        arg, e_h, e_gap, e_t = (s[:column.size] for s in scratch)
        _cis(np.multiply(column, h, out=arg), e_h)
        t_prev, g_prev, at_origin = 0.0, None, True
        for j, t in enumerate(radii):
            if t != t_prev:
                if t - t_prev != g_prev:
                    g_prev = t - t_prev
                    _gap_cis(column, e_h, g_prev, h, arg, e_gap)
                if at_origin:
                    np.copyto(e_t, e_gap)
                else:
                    e_t *= e_gap
                t_prev, at_origin = t, False
            if t == 0:
                sums[j, 0] += e_h.sum()
            else:
                sums[j] += e_t @ e_h, np.vdot(e_h, e_t)
        n += column.size
    slopes = []
    for t, (s_hi, s_lo) in zip(radii, sums):
        f_hi = complex(s_hi) / n
        f_lo = f_hi.conjugate() if t == 0 else complex(s_lo) / n
        if abs(f_hi) < 0.1 or abs(f_lo) < 0.1:
            raise NumericError(f"characteristic function magnitude below 0.1 near w={t}; grid too wide")
        slopes.append((np.log(f_hi) - np.log(f_lo)) / (2.0 * h))
    return slopes


def _projected(samples: np.ndarray, basis_column: np.ndarray, scale: float):
    """(samples @ basis_column) * scale, `_BLOCK` rows at a time."""
    for lo in range(0, samples.shape[0], _BLOCK):
        block = samples[lo:lo + _BLOCK] @ basis_column
        block *= scale
        yield block


def matching_residual(samples_x: np.ndarray, samples_zn: np.ndarray,
                      matching: MatchingSpec) -> float:
    """Max over grid and dims of |dlogF_A/dw_i - S_i dlogF_B/dw_i|.

    A = Sigma Q_X^T X and B = Q_Z^T (N+Z); both log-CFs are quadratic with
    ratio exactly S when the jammer-plus-noise is Gaussian matched to the
    source, so the residual is a direct linearity-of-estimation probe. The
    log-CF slopes are central differences of step h (`_log_cf_slopes`).
    Each column of A and B is projected and consumed `_BLOCK` rows at a
    time, so no temporary grows with the sample count.
    """
    x = np.asarray(samples_x, dtype=np.float64)
    zn = np.asarray(samples_zn, dtype=np.float64)
    if x.shape[0] < 100_000 or zn.shape[0] < 100_000:
        raise ConfigError("matching_residual needs >= 1e5 samples per block")
    s = matching.s_diag
    h = matching.step
    worst = 0.0
    for i in range(x.shape[1]):
        lhs = _log_cf_slopes(_projected(x, matching.q_x[:, i], matching.sigma[i]), matching.radii, h)
        rhs = _log_cf_slopes(_projected(zn, matching.q_z[:, i], 1.0), matching.radii, h)
        for l_t, r_t in zip(lhs, rhs):
            worst = max(worst, abs(l_t - s[i] * r_t))
    return worst
