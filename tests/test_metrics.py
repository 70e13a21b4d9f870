"""MSE, correlation-determinant, and Gaussianity diagnostics."""

import numpy as np
import pytest

from latentjam import autodiff as ad
from latentjam.autodiff import EagerTape
from latentjam.errors import ShapeError
from latentjam.metrics import (CSV_HEADER, MetricsReport, evaluate_latents,
                               gaussianity_report, pearson_dpc)
from latentjam.rng import Rng, derive_seed


def _mse(a, b) -> float:
    """The data MSE as evaluation computes it: the `mse` op on a record-free tape."""
    tape = EagerTape()
    return float(ad.mse(tape.const(a), tape.const(b)).value[0])


def test_mse_identical_is_zero():
    x = np.arange(12.0).reshape(3, 4)
    assert _mse(x, x) == 0.0


def test_mse_unit_offset():
    assert _mse(np.zeros((2, 2)), np.ones((2, 2))) == 1.0


def test_mse_hand_value():
    assert _mse(np.array([[0.0, 0.0]]), np.array([[1.0, 3.0]])) == 5.0


def test_mse_symmetric():
    a = Rng(0).normal((10, 3))
    b = Rng(1).normal((10, 3))
    assert _mse(a, b) == _mse(b, a)


def test_mse_leaves_inputs_unchanged_and_equals_whole_array_formula():
    # the op squares its difference in place; that buffer is its own, never an input
    a = Rng(2).normal((50, 7))
    b = Rng(3).normal((50, 7))
    a0, b0 = a.copy(), b.copy()
    assert _mse(a, b) == float(np.mean((a0 - b0) * (a0 - b0)))
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        _mse(np.zeros((2, 2)), np.zeros((2, 3)))


# ============================================================
# DPC
# ============================================================


def test_dpc_independent_columns_near_one():
    z = Rng(derive_seed(5, "dpc8")).normal((100_000, 8))
    assert pearson_dpc(z) >= 0.99


def test_dpc_exact_half_correlation():
    # constructed so the empirical correlation is exactly 0.5:
    # a and b are orthogonal unit-variance sign patterns
    a = np.tile([1.0, -1.0], 500)
    b = np.tile([1.0, 1.0, -1.0, -1.0], 250)
    z2 = 0.5 * a + np.sqrt(0.75) * b
    d = pearson_dpc(np.column_stack([a, z2]))
    assert abs(d - 0.75) <= 1e-12


def test_dpc_duplicated_column_is_zero():
    col = Rng(2).normal((500,))
    assert pearson_dpc(np.column_stack([col, col])) == 0.0


def test_dpc_zero_variance_column_is_zero():
    z = np.column_stack([np.ones(100), Rng(3).normal((100,))])
    assert pearson_dpc(z) == 0.0


def test_dpc_single_column_is_one():
    assert pearson_dpc(Rng(4).normal((50, 1))) == 1.0


def test_dpc_affine_invariance():
    z = Rng(5).normal((2000, 4))
    scaled = z * np.array([2.0, 0.5, 7.0, 1.0]) + np.array([1.0, -3.0, 0.0, 9.0])
    assert abs(pearson_dpc(z) - pearson_dpc(scaled)) <= 1e-10


def test_dpc_never_exceeds_one():
    for seed in range(5):
        z = Rng(seed).normal((300, 5))
        assert pearson_dpc(z) <= 1.0


def test_dpc_needs_more_rows_than_columns():
    with pytest.raises(ShapeError):
        pearson_dpc(np.ones((3, 3)))


# ============================================================
# Gaussianity
# ============================================================


def test_gaussianity_on_standard_normal():
    z = Rng(derive_seed(4, "gaus")).normal((100_000, 4))
    rep = gaussianity_report(z)
    assert np.max(np.abs(rep.skewness)) <= 0.05
    assert np.max(np.abs(rep.excess_kurtosis)) <= 0.1
    assert np.max(rep.ks_stat) <= 0.01
    assert np.all(np.isfinite(rep.skewness))


def test_gaussianity_uniform_kurtosis():
    # excess kurtosis of a uniform distribution is -6/5
    u = Rng(derive_seed(3, "unif")).uniform((100_000, 4))
    rep = gaussianity_report(u)
    assert np.max(np.abs(rep.excess_kurtosis - (-1.2))) <= 0.05
    assert np.min(rep.ks_stat) >= 0.04  # shape mismatch clearly visible


def test_gaussianity_constant_column_flagged():
    z = np.column_stack([np.full(200, 2.0), Rng(1).normal((200,))])
    rep = gaussianity_report(z)
    for stat in (rep.skewness, rep.excess_kurtosis, rep.ks_stat):
        assert np.isnan(stat[0]) and np.isfinite(stat[1])


def test_gaussianity_ks_converges_with_samples():
    wins = 0
    for s in range(10):
        ks = []
        for m in (1000, 100_000):
            z = Rng(derive_seed(s, "ksconv")).normal((m, 2))
            ks.append(float(np.max(gaussianity_report(z).ks_stat)))
        wins += ks[1] < ks[0]
    assert wins >= 9


def test_gaussianity_needs_100_rows():
    with pytest.raises(ShapeError):
        gaussianity_report(np.ones((99, 2)))


# ============================================================
# Report serialization
# ============================================================


def test_csv_header_schema():
    assert CSV_HEADER == ("epoch,data_mse,jscc_mse,dpc,mean_skew_abs,"
                          "mean_exkurt_abs,mean_ks,mean_norm,mean_power")


def test_csv_row_with_and_without_jscc():
    rep = MetricsReport(epoch=3, data_mse=0.25, jscc_mse=None, dpc=0.5,
                        per_dim_skewness=np.array([0.1, -0.3]),
                        per_dim_excess_kurtosis=np.array([0.2, -0.2]),
                        per_dim_ks_stat=np.array([0.01, 0.03]),
                        mean_norm=0.0, mean_power=1.0)
    row = rep.to_csv_row()
    assert row == "3,0.25,,0.5,0.2,0.2,0.02,0,1"
    rep.jscc_mse = 0.5
    assert rep.to_csv_row().split(",")[2] == "0.5"


def test_csv_row_nan_sentinels_ignored_in_means():
    rep = MetricsReport(epoch=1, data_mse=0.0, jscc_mse=None, dpc=1.0,
                        per_dim_skewness=np.array([np.nan, 0.4]),
                        per_dim_excess_kurtosis=np.array([np.nan, 0.6]),
                        per_dim_ks_stat=np.array([np.nan, 0.08]),
                        mean_norm=0.0, mean_power=1.0)
    assert rep.mean_skew_abs() == 0.4
    assert rep.mean_exkurt_abs() == 0.6
    assert rep.mean_ks() == 0.08


def test_evaluate_latents_bundles_everything():
    z = Rng(9).normal((500, 2))
    rep = evaluate_latents(7, 0.01, z, jscc_mse=0.42)
    assert rep.epoch == 7
    assert rep.data_mse == 0.01
    assert rep.jscc_mse == 0.42
    assert 0.9 <= rep.dpc <= 1.0
    assert abs(rep.mean_power - float(np.mean(z.var(axis=0)))) <= 1e-15
