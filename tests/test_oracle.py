"""Linear-Gaussian oracle: closed form, saddle grid, matching residual."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import traced_peak
from latentjam import cli, oracle
from latentjam.errors import ConfigError, DegenerateGameError, NumericError, ShapeError
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

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


@pytest.mark.parametrize("field", ["sigma_x_sq", "P_t", "P_a", "sigma_n_sq"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_spec_rejects_nonfinite_fields(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        OracleSpec(**{field: value})


def test_saddle_distortion_monotone_in_each_parameter():
    base = OracleSpec(1.3, 0.8, 0.6, 0.2)
    d0 = scalar_saddle_distortion(base)
    assert scalar_saddle_distortion(OracleSpec(1.3, 0.8, 1.2, 0.2)) > d0   # stronger jammer
    assert scalar_saddle_distortion(OracleSpec(1.3, 1.6, 0.6, 0.2)) < d0   # stronger codec
    assert scalar_saddle_distortion(OracleSpec(2.6, 0.8, 0.6, 0.2)) > d0   # louder source
    assert scalar_saddle_distortion(OracleSpec(1.3, 0.8, 0.6, 0.9)) > d0   # noisier channel


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


def test_unknown_jammer_family():
    with pytest.raises(ConfigError, match="family"):
        LinearStrategy(1.0, "optimal", ("laplace", 1.0)).jammer_variance()


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


def _whole_array_game_value(spec, strategy, x, n, z):
    """Reference: the game value and standard error by whole-array temporaries."""
    gamma = resolve_decoder_gain(spec, strategy)
    err = x - gamma * (strategy.encoder_gain * x + n + z)
    sq = (err * err).ravel()
    return float(sq.mean()), float(sq.std() / np.sqrt(sq.size))


@pytest.mark.parametrize("sigma_n_sq", [0.0, 0.5])
def test_mc_in_place_equals_whole_array_reference_bit_for_bit(sigma_n_sq):
    # every jammer family (gaussian, uniform) and both codec deviations
    spec = OracleSpec(1.0, 1.0, 1.0, sigma_n_sq, k=2)
    rows = default_perturbations(spec) + [("saddle", "", saddle_strategy(spec))]
    assert {strat.jammer[0] for _, _, strat in rows} == {"gaussian", "uniform"}
    for i, (name, _, strat) in enumerate(rows):
        res = mc_game_value(spec, strat, 20_000, seed=i)
        x, n, z = oracle._draw_game(spec, strat.jammer, (10_000, 2), Rng(i))
        assert (res.value, res.std_error) == _whole_array_game_value(spec, strat, x, n, z), name


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
    assert all(r.ok for r in report.rows)
    # the full-power uniform row matches the saddle jammer in second moments, and a
    # linear decoder sees only those, so the best jammer gain only hovers around zero
    assert report.max_jammer_gain < 0.01
    # codec deviations are all bounded away from the saddle here
    assert report.max_codec_loss < 0.0


def test_saddle_verify_multidim():
    report = saddle_verify(OracleSpec(1.0, 1.0, 1.0, 0.0, k=8), samples=100_000, seed=1)
    assert report.passed


def test_saddle_verify_grid_floor():
    spec = OracleSpec()
    tiny = default_perturbations(spec)[:5]  # jammer rows only, no codec side
    with pytest.raises(ConfigError, match="grid too small"):
        saddle_verify(spec, perturbations=tiny, samples=100_000)


@pytest.mark.parametrize("sigma_n_sq", [0.0, 0.5])
def test_saddle_rows_equal_whole_array_reference_on_shared_draws(sigma_n_sq):
    # every row scales one unit draw of its jammer family; x, n and those draws are shared
    spec = OracleSpec(2.0, 1.0, 0.8, sigma_n_sq, k=2)
    rows = default_perturbations(spec)
    assert {strat.jammer[0] for _, _, strat in rows} == {"gaussian", "uniform"}
    report = saddle_verify(spec, samples=20_000, seed=8)
    rng, shape = Rng(8), (10_000, 2)
    x = np.sqrt(2.0) * rng.spawn("x").normal(shape)
    n = np.sqrt(sigma_n_sq) * rng.spawn("n").normal(shape) if sigma_n_sq > 0 else 0.0
    units = {"gaussian": rng.spawn("z").normal(shape),
             "uniform": rng.spawn("u").symmetric(shape, np.sqrt(3.0))}
    assert [r.name for r in report.rows] == [name for name, _, _ in rows]
    for (name, _, strat), row in zip(rows, report.rows):
        z = units[strat.jammer[0]] * np.sqrt(strat.jammer[1])
        assert (row.value, row.std_error) == _whole_array_game_value(spec, strat, x, n, z), name


@pytest.mark.parametrize("sigma_n_sq", [0.0, 0.5])
def test_saddle_verify_draws_each_input_once(monkeypatch, sigma_n_sq):
    calls = []
    real_normal, real_uniform = Rng.normal, Rng.uniform
    monkeypatch.setattr(Rng, "normal", lambda self, shape=(): calls.append(
        ("normal", self._seed)) or real_normal(self, shape))
    monkeypatch.setattr(Rng, "uniform", lambda self, shape=(): calls.append(
        ("uniform", self._seed)) or real_uniform(self, shape))
    saddle_verify(OracleSpec(1.0, 1.0, 1.0, sigma_n_sq, k=2), samples=20_000, seed=4)
    stream = {label: Rng(4).spawn(label)._seed for label in "xnzu"}
    normals = "xnz" if sigma_n_sq > 0 else "xz"
    # a normal draw takes its Box-Muller uniforms in one uniform call on its own stream
    assert calls == [(kind, stream[label]) for label in normals for kind in ("normal", "uniform")] \
        + [("uniform", stream["u"])]


def test_saddle_verify_checks_samples_and_every_row_before_any_draw(monkeypatch):
    for name in ("normal", "uniform"):
        monkeypatch.setattr(Rng, name, None)  # any draw would fail loudly
    spec = OracleSpec()
    with pytest.raises(ConfigError, match="1e4"):
        saddle_verify(spec, samples=9_999)
    over_power = ("jammer/gaussian-2Pa", "jammer", LinearStrategy(1.0, "optimal", ("gaussian", 2.0)))
    with pytest.raises(ConfigError, match="jam power"):
        saddle_verify(spec, perturbations=default_perturbations(spec) + [over_power], samples=20_000)


def _widen(monkeypatch, family):
    """Make the unit jammer draw of `family` 5 % too wide."""
    real = oracle._unit_jammer
    monkeypatch.setattr(oracle, "_unit_jammer", lambda fam, shape, rng: (
        real(fam, shape, rng) * (1.05 if fam == family else 1.0)))


@pytest.mark.parametrize("k", [1, 2, 8])
def test_saddle_verify_catches_a_too_wide_uniform_jammer(monkeypatch, k):
    # variance 1.1025 P_a lifts the full-power uniform row to J* + 0.0256 at the unit game
    _widen(monkeypatch, "uniform")
    report = saddle_verify(OracleSpec(k=k), seed=derive_seed(0, f"verify/{k}"))
    assert [r.name for r in report.rows if not r.ok] == ["jammer/uniform-1.0Pa"]


def test_oracle_verb_catches_a_too_wide_gaussian_jammer(tmp_path, monkeypatch):
    # the saddle game value and the gaussian matching residual both see the extra power
    _widen(monkeypatch, "gaussian")
    out = tmp_path / "wide"
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text(f"oracle.seed = 0\nrun.output_dir = {out}\n", encoding="utf-8")
    assert cli.main(["oracle", str(cfg)]) == 4
    rows = [line.split(",") for line in (out / "oracle-report.csv").read_text().splitlines()[1:]]
    assert sorted(name for name, *_, verdict in rows if verdict == "FAIL") == [
        "matching_gaussian", "saddle_mc_rel_err"]


def test_saddle_verify_seed_changes_rows_not_verdict():
    a = saddle_verify(OracleSpec(), samples=100_000, seed=2)
    b = saddle_verify(OracleSpec(), samples=100_000, seed=3)
    assert a.passed and b.passed
    assert a.rows[0].value != b.rows[0].value


# ============================================================
# Matching condition
# ============================================================


def test_matching_spec_s_diag_by_hand():
    m = MatchingSpec(sigma=np.array([2.0]), lambda_x=np.array([3.0]), lambda_z=np.array([4.0]))
    assert abs(m.s_diag[0] - 3.0) < 1e-15  # 2*3*2/4


def test_matching_spec_validation():
    ones = np.ones(2)
    with pytest.raises(ConfigError, match="positive"):
        MatchingSpec(ones, ones, -ones)
    with pytest.raises(ConfigError, match="omega"):
        MatchingSpec(ones, ones, ones, radii=(0.0, 1.5))


@pytest.mark.parametrize("diagonals", [
    (np.ones(2), np.ones(3), np.ones(2)),
    (np.ones(2), np.ones(2), np.ones(1)),
    (np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2))),
    (np.float64(1.0), np.float64(1.0), np.float64(1.0)),
], ids=["ragged-x", "ragged-z", "2-D", "0-D"])
def test_matching_spec_rejects_diagonals_not_1d_of_one_length(diagonals):
    with pytest.raises(ConfigError, match="1-D and of one length"):
        MatchingSpec(*diagonals)


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
    wide = MatchingSpec(sigma=6.0 * m.sigma, lambda_x=m.lambda_x, lambda_z=m.lambda_z)
    x, zn = matching_samples(spec, ("gaussian", spec.P_a), 200_000, seed=2)
    with pytest.raises(NumericError, match="0.1"):
        matching_residual(x, zn, wide)


def _exact_log_cf_slope(column, t):
    """Reference: d/dw log mean(exp(i w column)) at w = t from whole-column np.exp."""
    e = np.exp(1j * t * column)
    return 1j * np.mean(column * e) / np.mean(e)


@pytest.fixture(scope="module")
def cf_column():
    x, _ = matching_samples(OracleSpec(k=1), ("uniform", 1.0), 1_000_000, seed=9)
    return x[:, 0] + 0.1  # a nonzero mean gives the slope at t = 0 a real size


# radii, and the cosine-sine passes per block: one per new gap between a radius and the one
# before it (0.7 - 0.3 != 0.3), none at t = 0; ids "q20" and "libm" name the lone radius 1.0
# and two unequal gaps
_CF_GRIDS = [((0.0,), 0), ((0.0, 0.25, 0.5, 0.75, 1.0), 1), ((1.0,), 1), ((0.3, 0.7), 2)]


@pytest.mark.parametrize("radii,cis_per_block", _CF_GRIDS, ids=["origin", "default", "q20", "libm"])
@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 1_000_000])
def test_blocked_log_cf_slopes_match_whole_array(cf_column, monkeypatch, radii, cis_per_block, size):
    column = cf_column[:size]
    calls = []
    real_cis = oracle._cis
    monkeypatch.setattr(oracle, "_cis", lambda arg, out: calls.append(arg.size) or real_cis(arg, out))
    blocks = (column[lo:lo + _BLOCK] for lo in range(0, size, _BLOCK))
    got = oracle._log_cf_slopes(blocks, radii)
    expected = [_exact_log_cf_slope(column, t) for t in radii]
    assert max(abs(g - e) for g, e in zip(got, expected)) <= 1e-13
    assert len(calls) == cis_per_block * -(-size // _BLOCK)


def test_matching_residual_memory_stays_block_sized():
    # the whole-array code held the projections and three complex columns, several times the input
    spec = OracleSpec(k=2)
    m = isotropic_matching(spec)
    x, zn = matching_samples(spec, ("gaussian", spec.P_a), 1_000_000, seed=0)
    _, peak = traced_peak(lambda: matching_residual(x, zn, m))
    assert peak < 0.1 * x.nbytes


@pytest.mark.parametrize("radii", [(0.0, 0.3, 0.75, 1.0), (0.0,)], ids=["grid", "origin"])
@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_matching_residual_matches_complex_exponential_reference(family, radii):
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0, k=2)
    # a distinct sigma per dimension, so reading the wrong column or scale shows
    m = MatchingSpec(sigma=np.array([0.8, 1.3]), lambda_x=np.array([1.0, 0.7]),
                     lambda_z=np.array([1.2, 0.9]), radii=radii)
    x, zn = matching_samples(spec, (family, spec.P_a), 200_000, seed=5)
    x = x + np.array([0.1, -0.2])  # a nonzero mean gives the slope at t = 0 a real size
    a = x * m.sigma
    expected = max(abs(_exact_log_cf_slope(a[:, i], t)
                       - m.s_diag[i] * _exact_log_cf_slope(zn[:, i], t))
                   for i in range(2) for t in m.radii)
    got = matching_residual(x, zn, m)
    assert abs(got - expected) <= 1e-10 * expected


@pytest.mark.parametrize("wide", ["source", "noise"])
def test_matching_cf_magnitude_guard_either_block_rotated(wide):
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0, k=2)
    m = MatchingSpec(sigma=np.array([0.8, 1.3]), lambda_x=np.ones(2), lambda_z=np.ones(2))
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("side", ["source", "noise"])
def test_matching_residual_rejects_a_nonfinite_sample(side, value):
    # max() keeps 0.0 over a NaN slope, so an unchecked NaN would read as a matched gaussian
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0, k=2)
    x, zn = matching_samples(spec, ("uniform", spec.P_a), 200_000, seed=0)
    (x if side == "source" else zn)[123_456, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="finite"):
            matching_residual(x, zn, isotropic_matching(spec))


def test_matching_residual_uniform_jammer_matches_closed_form():
    # at sigma_x^2 = P_t = P_a = 1 and sigma_n^2 = 0, A ~ N(0, 1) has log-CF slope -t and
    # B ~ U(-sqrt 3, sqrt 3) has sqrt(3) cot(sqrt(3) t) - 1/t; both are 0 at t = 0
    spec = OracleSpec(1.0, 1.0, 1.0, 0.0, k=1)
    m = isotropic_matching(spec)
    root3 = np.sqrt(3.0)
    gaps = [abs(-t - (root3 / np.tan(root3 * t) - 1.0 / t)) for t in m.radii if t != 0]
    assert np.allclose(gaps, [0.0032, 0.0269, 0.1007, 0.2817], atol=1e-4)
    x, zn = matching_samples(spec, ("uniform", spec.P_a), 1_000_000, seed=0)
    assert abs(matching_residual(x, zn, m) - max(gaps)) <= 0.02


def test_oracle_demo_runs(tmp_path):
    demo = os.path.join(_REPO, "demos", "oracle_saddle_suite.py")
    path = [os.path.join(_REPO, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, demo, "--samples", "100000", "--k", "1"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "uniform  jammer: residual" in done.stdout


def test_matching_samples_unknown_family():
    with pytest.raises(ConfigError):
        matching_samples(OracleSpec(), ("triangular", 1.0), 200_000, seed=0)


@pytest.mark.parametrize("block", ["source", "noise"])
@pytest.mark.parametrize("k", [1, 3])
def test_matching_residual_rejects_blocks_without_one_column_per_sigma(block, k):
    right, wrong = np.zeros((100_000, 2)), np.zeros((100_000, k))
    x, zn = (wrong, right) if block == "source" else (right, wrong)
    with pytest.raises(ShapeError, match="2 sigma entries"):
        matching_residual(x, zn, isotropic_matching(OracleSpec(k=2)))
