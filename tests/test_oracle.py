"""Linear-Gaussian oracle: closed form, saddle grid, matching residual."""

import numpy as np
import pytest

from conftest import traced_peak
from latentjam import oracle
from latentjam.errors import ConfigError, DegenerateGameError, NumericError
from latentjam.oracle import (
    LinearStrategy,
    MatchingSpec,
    OracleSpec,
    default_perturbations,
    isotropic_matching,
    matching_residual,
    matching_samples,
    mc_game_value,
    resolve_decoder_gain,
    saddle_strategy,
    saddle_verify,
    scalar_saddle_distortion,
)
from latentjam.rng import _BLOCK, Rng, derive_seed


# ============================================================
# Closed form
# ============================================================


def test_saddle_distortion_unit_game():
    # sigma_x^2 (sigma_n^2 + P_a) / (P_t + sigma_n^2 + P_a) = 1/2
    assert scalar_saddle_distortion(OracleSpec(1.0, 1.0, 1.0, 0.0)) == 0.5


def test_saddle_distortion_with_channel_noise():
    d = scalar_saddle_distortion(OracleSpec(1.0, 1.0, 1.0, 1.0))
    assert abs(d - 2.0 / 3.0) < 1e-15


def test_saddle_distortion_no_jammer_no_noise():
    assert scalar_saddle_distortion(OracleSpec(1.0, 1.0, 0.0, 0.0)) == 0.0


def test_saddle_distortion_vanishing_transmit_power():
    # power starved codec loses everything to the jammer
    d = scalar_saddle_distortion(OracleSpec(1.0, 1e-12, 1.0, 0.0))
    assert abs(d - 1.0) < 1e-11


def test_saddle_distortion_all_zero_powers():
    with pytest.raises(DegenerateGameError):
        scalar_saddle_distortion(OracleSpec(1.0, 0.0, 0.0, 0.0))


def test_spec_rejects_negatives():
    with pytest.raises(ConfigError):
        OracleSpec(sigma_x_sq=-1.0)
    with pytest.raises(ConfigError):
        OracleSpec(P_a=-0.5)
    with pytest.raises(ConfigError):
        OracleSpec(k=0)


def test_saddle_distortion_monotone_in_each_parameter():
    base = OracleSpec(1.3, 0.8, 0.6, 0.2)
    d0 = scalar_saddle_distortion(base)
    assert scalar_saddle_distortion(OracleSpec(1.3, 0.8, 1.2, 0.2)) > d0   # stronger jammer
    assert scalar_saddle_distortion(OracleSpec(1.3, 1.6, 0.6, 0.2)) < d0   # stronger codec
    assert scalar_saddle_distortion(OracleSpec(2.6, 0.8, 0.6, 0.2)) > d0   # louder source
    assert scalar_saddle_distortion(OracleSpec(1.3, 0.8, 0.6, 0.9)) > d0   # noisier channel


def test_theoretical_beta():
    spec = OracleSpec(1.0, 1.0, 1.0, 1.0)
    assert abs(spec.theoretical_beta() - 1.0 / np.sqrt(2.0)) < 1e-15
    # beta^2 (sigma_n^2 + sigma_x^2) saturates the cap by construction
    b = spec.theoretical_beta(0.5)
    assert abs(b ** 2 * 2.0 - 0.5) < 1e-15


def test_theoretical_beta_degenerate():
    with pytest.raises(DegenerateGameError):
        OracleSpec(0.0, 1.0, 1.0, 0.0).theoretical_beta()


# ============================================================
# Strategies and feasibility
# ============================================================


def test_saddle_strategy_gains():
    s = saddle_strategy(OracleSpec(1.0, 1.0, 1.0, 0.0))
    assert s.encoder_gain == 1.0
    assert abs(resolve_decoder_gain(OracleSpec(1.0, 1.0, 1.0, 0.0), s) - 0.5) < 1e-15
    assert s.jammer == ("gaussian", 1.0)


def test_saddle_strategy_degenerate_inputs():
    with pytest.raises(DegenerateGameError):
        saddle_strategy(OracleSpec(0.0, 1.0, 1.0, 0.0))
    with pytest.raises(DegenerateGameError):
        saddle_strategy(OracleSpec(1.0, 0.0, 1.0, 0.0))


def test_feasibility_checks():
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ConfigError, match="transmit"):
        LinearStrategy(2.0, "optimal").check_feasible(spec)
    with pytest.raises(ConfigError, match="jam"):
        LinearStrategy(1.0, "optimal", ("gaussian", 2.0)).check_feasible(spec)
    # exactly at the cap is fine
    LinearStrategy(1.0, "optimal", ("gaussian", 1.0)).check_feasible(spec)


def test_scaled_source_jammer_variance():
    spec = OracleSpec(1.0, 1.0, 1.0, 1.0)
    strat = LinearStrategy(1.0, "optimal", ("scaled_source", 0.5))
    assert abs(strat.jammer_variance(spec) - 0.5) < 1e-15


def test_unknown_jammer_family():
    spec = OracleSpec()
    with pytest.raises(ConfigError, match="family"):
        LinearStrategy(1.0, "optimal", ("laplace", 1.0)).jammer_variance(spec)


def test_resolve_decoder_gain_variants():
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0)
    assert resolve_decoder_gain(spec, LinearStrategy(1.0, 0.3)) == 0.3
    with pytest.raises(ConfigError):
        resolve_decoder_gain(spec, LinearStrategy(1.0, "best"))
    # fully silent channel resolves to a zero gain rather than dividing by zero
    silent = OracleSpec(0.0, 1.0, 0.0, 0.0)
    assert resolve_decoder_gain(silent, LinearStrategy(0.0, "optimal", ("gaussian", 0.0))) == 0.0


# ============================================================
# Monte-Carlo game value
# ============================================================


def test_mc_sample_floor():
    with pytest.raises(ConfigError):
        mc_game_value(OracleSpec(), saddle_strategy(OracleSpec()), 9_999, seed=0)


def test_mc_deterministic():
    spec = OracleSpec()
    a = mc_game_value(spec, saddle_strategy(spec), 20_000, seed=5)
    b = mc_game_value(spec, saddle_strategy(spec), 20_000, seed=5)
    assert a.value == b.value and a.std_error == b.std_error


def test_mc_saddle_matches_closed_form():
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0)
    res = mc_game_value(spec, saddle_strategy(spec), 1_000_000, seed=0)
    assert abs(res.value - 0.5) / 0.5 < 0.01
    assert abs(res.value - 0.5) < 3.0 * res.std_error


def test_mc_saddle_with_noise():
    spec = OracleSpec(1.0, 1.0, 1.0, 1.0)
    res = mc_game_value(spec, saddle_strategy(spec), 1_000_000, seed=1)
    assert abs(res.value - 2.0 / 3.0) / (2.0 / 3.0) < 0.01


def test_mc_zero_decoder_returns_source_variance():
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0)
    res = mc_game_value(spec, LinearStrategy(1.0, 0.0, ("gaussian", 1.0)), 1_000_000, seed=2)
    assert abs(res.value - 1.0) < 3.0 * res.std_error


def test_mc_weak_jammer_mmse():
    # optimal decoder against a quarter-power jammer: 1*0.25/1.25 = 0.2
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0)
    res = mc_game_value(spec, LinearStrategy(1.0, "optimal", ("gaussian", 0.25)),
                        1_000_000, seed=3)
    assert abs(res.value - 0.2) < max(3.0 * res.std_error, 0.002)


def test_mc_scaled_source_jammer_achieves_saddle_value():
    # the certificate jammer is gaussian in law at full power
    spec = OracleSpec(1.0, 1.0, 1.0, 1.0)
    beta = spec.theoretical_beta()
    d_star = scalar_saddle_distortion(spec)
    scaled = mc_game_value(spec, LinearStrategy(1.0, "optimal", ("scaled_source", beta)),
                           1_000_000, seed=4)
    gauss = mc_game_value(spec, LinearStrategy(1.0, "optimal", ("gaussian", 1.0)),
                          1_000_000, seed=5)
    assert abs(scaled.value - d_star) / d_star < 0.01
    assert abs(gauss.value - d_star) / d_star < 0.01


def test_scaled_source_row_without_channel_noise_rebuilt_from_its_streams(monkeypatch):
    # at sigma_n^2 = 0 the jammer is beta * (0 - x_own): one normal draw per entry
    spec = OracleSpec(2.0, 1.0, 1.0, 0.0, k=2)
    beta = spec.theoretical_beta(0.5)
    strategy = LinearStrategy(0.7, "optimal", ("scaled_source", beta))
    draws = []
    real_normal = Rng.normal

    def counted_normal(self, shape=()):
        draws.append(shape)
        return real_normal(self, shape)

    monkeypatch.setattr(Rng, "normal", counted_normal)
    res = mc_game_value(spec, strategy, 40_000, seed=11)
    monkeypatch.undo()
    assert draws == [(20_000, 2), (20_000, 2)]
    rng = Rng(11)
    x = np.sqrt(2.0) * rng.spawn("x").normal((20_000, 2))
    z = beta * (0.0 - np.sqrt(2.0) * rng.spawn("z").normal((20_000, 2)))
    gamma = resolve_decoder_gain(spec, strategy)
    err = x - gamma * (0.7 * x + z)
    assert res.value == float((err * err).mean())


def test_mc_multidim_row_split():
    spec = OracleSpec(k=8)
    res = mc_game_value(spec, saddle_strategy(spec), 80_000, seed=6)
    assert res.samples == (80_000 // 8) * 8
    assert abs(res.value - 0.5) < 5.0 * res.std_error


def test_mc_decoder_detuning_always_hurts():
    # MMSE dominance: scaling the optimal gain either way raises the loss
    spec = OracleSpec(2.0, 1.5, 0.7, 0.3)
    gamma_star = resolve_decoder_gain(spec, saddle_strategy(spec))
    d_star = scalar_saddle_distortion(spec)
    for factor in (0.7, 1.3):
        res = mc_game_value(
            spec, LinearStrategy(saddle_strategy(spec).encoder_gain,
                                 factor * gamma_star, ("gaussian", spec.P_a)),
            400_000, seed=7)
        assert res.value > d_star - 3.0 * res.std_error
        assert res.value > d_star  # strict at this sample size


def test_mc_infeasible_strategy_rejected():
    with pytest.raises(ConfigError):
        mc_game_value(OracleSpec(), LinearStrategy(3.0, "optimal"), 20_000, seed=0)


def _whole_array_game_value(spec, strategy, samples, seed):
    """Reference: the game value and standard error by whole-array temporaries."""
    x, n, z = oracle._draw_game(spec, strategy.jammer, (max(2, samples // spec.k), spec.k), Rng(seed))
    gamma = resolve_decoder_gain(spec, strategy)
    err = x - gamma * (strategy.encoder_gain * x + n + z)
    sq = (err * err).ravel()
    return float(sq.mean()), float(sq.std() / np.sqrt(sq.size))


@pytest.mark.parametrize("sigma_n_sq", [0.0, 0.5])
def test_mc_in_place_equals_whole_array_reference_bit_for_bit(sigma_n_sq):
    # every jammer family (gaussian, uniform, scaled-source) and both codec deviations
    spec = OracleSpec(1.0, 1.0, 1.0, sigma_n_sq, k=2)
    rows = default_perturbations(spec) + [("saddle", "", saddle_strategy(spec))]
    assert {strat.jammer[0] for _, _, strat in rows} == {"gaussian", "uniform", "scaled_source"}
    for i, (name, _, strat) in enumerate(rows):
        res = mc_game_value(spec, strat, 20_000, seed=i)
        assert (res.value, res.std_error) == _whole_array_game_value(spec, strat, 20_000, i), name


def test_mc_memory_is_the_draws_and_one_buffer():
    # x, z and one error buffer; whole-array temporaries held five arrays of the draws' size
    spec = OracleSpec(k=2)
    draw_bytes = 400_000 * 8
    _, peak = traced_peak(lambda: mc_game_value(spec, saddle_strategy(spec), 400_000, seed=1))
    assert peak < 3.5 * draw_bytes


# ============================================================
# Saddle grid verification
# ============================================================


def test_default_perturbations_feasible_and_sized():
    spec = OracleSpec(1.0, 1.0, 1.0, 0.5)
    rows = default_perturbations(spec)
    jam = [r for r in rows if r[1] == "jammer"]
    cod = [r for r in rows if r[1] == "codec"]
    assert len(jam) >= 5 and len(cod) >= 5
    for _, _, strat in rows:
        strat.check_feasible(spec)


def test_saddle_verify_unit_game():
    report = saddle_verify(OracleSpec(1.0, 1.0, 1.0, 0.0), samples=100_000, seed=0)
    assert report.j_star == 0.5
    assert report.passed
    assert abs(report.saddle_mc.value - 0.5) < 3.0 * report.saddle_mc.std_error
    assert all(r.ok for r in report.rows)
    # full-power uniform and scaled-source rows match the saddle jammer in
    # second moments, so the best jammer gain only hovers around zero
    assert report.max_jammer_gain < 0.01
    # codec deviations are all bounded away from the saddle here
    assert report.max_codec_loss < 0.0


def test_saddle_verify_multidim():
    report = saddle_verify(OracleSpec(1.0, 1.0, 1.0, 0.0, k=8), samples=100_000, seed=1)
    assert report.passed


def test_saddle_verify_grid_floor():
    spec = OracleSpec()
    tiny = default_perturbations(spec)[:6]  # jammer rows only, no codec side
    with pytest.raises(ConfigError, match="grid too small"):
        saddle_verify(spec, perturbations=tiny, samples=100_000)


def test_saddle_verify_seed_changes_rows_not_verdict():
    a = saddle_verify(OracleSpec(), samples=100_000, seed=2)
    b = saddle_verify(OracleSpec(), samples=100_000, seed=3)
    assert a.passed and b.passed
    assert a.rows[0].value != b.rows[0].value


# ============================================================
# Matching condition
# ============================================================


def test_matching_spec_s_diag_by_hand():
    m = MatchingSpec(sigma=np.array([2.0]), lambda_x=np.array([3.0]),
                     lambda_z=np.array([4.0]), q_x=np.eye(1), q_z=np.eye(1))
    assert abs(m.s_diag[0] - 3.0) < 1e-15  # 2*3*2/4


def test_matching_spec_validation():
    eye = np.eye(2)
    ones = np.ones(2)
    skew = np.array([[1.0, 0.2], [0.0, 1.0]])
    with pytest.raises(ConfigError, match="orthonormal"):
        MatchingSpec(ones, ones, ones, skew, eye)
    with pytest.raises(ConfigError, match="positive"):
        MatchingSpec(ones, ones, -ones, eye, eye)
    with pytest.raises(ConfigError, match="omega"):
        MatchingSpec(ones, ones, ones, eye, eye, radii=(0.0, 1.5))
    with pytest.raises(ConfigError, match="step"):
        MatchingSpec(ones, ones, ones, eye, eye, step=0.0)


def test_isotropic_matching_unit_game():
    m = isotropic_matching(OracleSpec(1.0, 1.0, 1.0, 0.0, k=2))
    assert np.allclose(m.s_diag, 1.0, atol=1e-15)
    assert np.allclose(m.sigma, 1.0)
    assert np.allclose(m.lambda_z, 1.0)


def test_isotropic_matching_degenerate():
    with pytest.raises(DegenerateGameError):
        isotropic_matching(OracleSpec(1.0, 0.0, 1.0, 0.0))
    with pytest.raises(DegenerateGameError):
        isotropic_matching(OracleSpec(0.0, 1.0, 1.0, 0.0))


def test_matching_residual_gaussian_jammer_small():
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0, k=2)
    m = isotropic_matching(spec)
    x, zn = matching_samples(spec, ("gaussian", spec.P_a), 1_000_000, seed=0)
    assert matching_residual(x, zn, m) <= 0.02


def test_matching_residual_uniform_jammer_large():
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0, k=2)
    m = isotropic_matching(spec)
    x, zn = matching_samples(spec, ("uniform", spec.P_a), 1_000_000, seed=0)
    assert matching_residual(x, zn, m) >= 0.05


def test_matching_residual_origin_only():
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0, k=1)
    m = isotropic_matching(spec, radii=(0.0,))
    x, zn = matching_samples(spec, ("gaussian", spec.P_a), 1_000_000, seed=1)
    assert matching_residual(x, zn, m) <= 0.02


def test_matching_residual_sample_floor():
    spec = OracleSpec(k=1)
    m = isotropic_matching(spec)
    x, zn = matching_samples(spec, ("gaussian", 1.0), 200_000, seed=0)
    with pytest.raises(ConfigError, match="1e5"):
        matching_residual(x[:50_000], zn, m)


def test_matching_cf_magnitude_guard():
    # inflating sigma pushes |F| below 0.1 inside the radius-1 grid
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0, k=1)
    m = isotropic_matching(spec)
    wide = MatchingSpec(sigma=6.0 * m.sigma, lambda_x=m.lambda_x, lambda_z=m.lambda_z,
                        q_x=m.q_x, q_z=m.q_z)
    x, zn = matching_samples(spec, ("gaussian", spec.P_a), 200_000, seed=2)
    with pytest.raises(NumericError, match="0.1"):
        matching_residual(x, zn, wide)


def _whole_array_log_cf_slopes(column, radii, h):
    """Reference: the slopes from whole-column exp(ihc), exp(itc) and libm exp(igc)."""
    def cis(arg):
        return np.cos(arg) + 1j * np.sin(arg)

    e_h = cis(h * column)
    e_t, e_gap, t_prev, g_prev = np.ones(column.size, dtype=np.complex128), None, 0.0, None
    slopes = []
    for t in radii:
        if t != t_prev:
            if t - t_prev != g_prev:
                g_prev = t - t_prev
                e_gap = cis(g_prev * column)
            e_t *= e_gap
            t_prev = t
        f_hi = np.mean(e_h) if t == 0 else np.mean(e_t * e_h)
        f_lo = np.conj(f_hi) if t == 0 else np.mean(e_t * np.conj(e_h))
        slopes.append((np.log(f_hi) - np.log(f_lo)) / (2.0 * h))
    return slopes


@pytest.fixture(scope="module")
def cf_column():
    x, _ = matching_samples(OracleSpec(k=1), ("uniform", 1.0), 1_000_000, seed=9)
    return x[:, 0] + 0.1  # a nonzero mean gives the slope at t = 0 a real size


# radii, and the cosine-sine passes per block: one for exp(ihc), plus one per gap that is
# not a whole number of steps in floating point (0.3 != 6 * 0.05, 0.7 - 0.3 != 8 * 0.05)
_CF_GRIDS = [((0.0,), 1), ((0.0, 0.25, 0.5, 0.75, 1.0), 1), ((1.0,), 1), ((0.3, 0.7), 3)]


@pytest.mark.parametrize("radii,cis_per_block", _CF_GRIDS, ids=["origin", "default", "q20", "libm"])
@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 1_000_000])
def test_blocked_log_cf_slopes_match_whole_array(cf_column, monkeypatch, radii, cis_per_block, size):
    column = cf_column[:size]
    calls = []
    real_cis = oracle._cis
    monkeypatch.setattr(oracle, "_cis", lambda arg, out: calls.append(arg.size) or real_cis(arg, out))
    blocks = (column[lo:lo + _BLOCK] for lo in range(0, size, _BLOCK))
    got = oracle._log_cf_slopes(blocks, radii, 0.05)
    expected = _whole_array_log_cf_slopes(column, radii, 0.05)
    assert max(abs(g - e) for g, e in zip(got, expected)) <= 1e-13
    assert len(calls) == cis_per_block * -(-size // _BLOCK)


def test_matching_residual_memory_stays_block_sized():
    # the whole-array code held the projections and three complex columns, several times the input
    spec = OracleSpec(k=2)
    m = isotropic_matching(spec)
    x, zn = matching_samples(spec, ("gaussian", spec.P_a), 1_000_000, seed=0)
    _, peak = traced_peak(lambda: matching_residual(x, zn, m))
    assert peak < 0.1 * x.nbytes


def _reference_log_cf_slope(column, t, h):
    """Complex-exponential central difference of log E[exp(i w column)] at w = t."""
    f_hi = np.mean(np.exp(1j * (t + h) * column))
    f_lo = np.mean(np.exp(1j * (t - h) * column))
    return (np.log(f_hi) - np.log(f_lo)) / (2.0 * h)


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


@pytest.mark.parametrize("radii", [(0.0, 0.3, 0.75, 1.0), (0.0,)], ids=["grid", "origin"])
@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_matching_residual_matches_complex_exponential_reference(family, radii):
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0, k=2)
    m = MatchingSpec(sigma=np.array([0.8, 1.3]), lambda_x=np.array([1.0, 0.7]),
                     lambda_z=np.array([1.2, 0.9]), q_x=_rotation(0.3), q_z=_rotation(1.1),
                     radii=radii)
    x, zn = matching_samples(spec, (family, spec.P_a), 200_000, seed=5)
    x = x + np.array([0.1, -0.2])  # a nonzero mean gives the slope at t = 0 a real size
    a = (x @ m.q_x) * m.sigma
    b = zn @ m.q_z
    expected = max(abs(_reference_log_cf_slope(a[:, i], t, m.step)
                       - m.s_diag[i] * _reference_log_cf_slope(b[:, i], t, m.step))
                   for i in range(2) for t in m.radii)
    got = matching_residual(x, zn, m)
    assert abs(got - expected) <= 1e-10 * expected


@pytest.mark.parametrize("wide", ["source", "noise"])
def test_matching_cf_magnitude_guard_either_block_rotated(wide):
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0, k=2)
    m = MatchingSpec(sigma=np.array([0.8, 1.3]), lambda_x=np.ones(2), lambda_z=np.ones(2),
                     q_x=_rotation(0.3), q_z=_rotation(1.1))
    x, zn = matching_samples(spec, ("gaussian", spec.P_a), 200_000, seed=2)
    if wide == "source":
        x = 6.0 * x
    else:
        zn = 6.0 * zn
    with pytest.raises(NumericError, match="0.1"):
        matching_residual(x, zn, m)


def test_matching_separates_families_consistently():
    # gaussian should beat uniform on nearly every seed even at 2e5 samples
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0, k=1)
    m = isotropic_matching(spec)
    wins = 0
    for s in range(10):
        xg, zng = matching_samples(spec, ("gaussian", spec.P_a), 200_000,
                                   seed=derive_seed(s, "cons/g"))
        xu, znu = matching_samples(spec, ("uniform", spec.P_a), 200_000,
                                   seed=derive_seed(s, "cons/u"))
        if matching_residual(xg, zng, m) < matching_residual(xu, znu, m):
            wins += 1
    assert wins >= 9


def test_matching_samples_unknown_family():
    with pytest.raises(ConfigError):
        matching_samples(OracleSpec(), ("triangular", 1.0), 200_000, seed=0)
