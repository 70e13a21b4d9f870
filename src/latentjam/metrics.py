"""Evaluation metrics: latent decorrelation and Gaussianity, bundled into a report.

The data MSE is not computed here: evaluation takes it from the `mse` tape op
that training uses, and `evaluate_latents` reports it beside the latent
statistics.

DPC is the determinant of the Pearson correlation matrix of the latent
coordinates: 1 means pairwise uncorrelated, 0 means a linear dependence.
The Gaussianity report (per-dim skewness, excess kurtosis, KS statistic
against a standard normal) tracks how close the aggregate latent comes to
the diagonal-Gaussian target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

from .errors import ShapeError

CSV_HEADER = "epoch,data_mse,jscc_mse,dpc,mean_skew_abs,mean_exkurt_abs,mean_ks,mean_norm,mean_power"
MIN_EVAL_ROWS = 100  # fewest latent rows the Gaussianity report accepts


def pearson_dpc(latents: np.ndarray) -> float:
    """det of the k x k Pearson correlation matrix, in [0, 1].

    Zero-variance columns and determinants below 1e-300 report 0 by
    convention (a dead or duplicated coordinate is maximal dependence).
    """
    z = np.asarray(latents, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError(f"pearson_dpc expects [m, k], got {z.shape}")
    m, k = z.shape
    if m <= k:
        raise ShapeError(f"pearson_dpc needs more rows than columns, got {z.shape}")
    if np.any(z.var(axis=0) == 0.0):
        return 0.0
    corr = np.corrcoef(z, rowvar=False)
    if k == 1:
        return 1.0
    if not np.all(np.isfinite(corr)):
        return 0.0
    sign, logdet = np.linalg.slogdet(corr)
    if sign <= 0.0 or logdet < np.log(1e-300):
        return 0.0
    return float(min(np.exp(logdet), 1.0))


@dataclass
class GaussianityStats:
    """Per-column shape statistics; degenerate columns carry NaN sentinels."""

    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    ks_stat: np.ndarray


def gaussianity_report(latents: np.ndarray) -> GaussianityStats:
    """Population-moment skewness/kurtosis and two-sided KS vs N(0, 1).

    Columns are standardized before the KS comparison, so the statistic
    isolates shape mismatch from location and scale.
    """
    z = np.asarray(latents, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < MIN_EVAL_ROWS:
        raise ShapeError(f"gaussianity_report expects [m >= {MIN_EVAL_ROWS}, k], got {z.shape}")
    m, k = z.shape
    skew = np.full(k, np.nan)
    exkurt = np.full(k, np.nan)
    ks = np.full(k, np.nan)
    steps_hi = np.arange(1, m + 1) / m
    steps_lo = np.arange(0, m) / m
    for j in range(k):
        col = z[:, j]
        centered = col - col.mean()
        m2 = np.mean(centered * centered)
        if m2 == 0.0:
            continue
        m3 = np.mean(centered ** 3)
        m4 = np.mean(centered ** 4)
        skew[j] = m3 / m2 ** 1.5
        exkurt[j] = m4 / (m2 * m2) - 3.0
        std = np.sort(centered / np.sqrt(m2))
        cdf = ndtr(std)
        ks[j] = max(np.max(steps_hi - cdf), np.max(cdf - steps_lo))
    return GaussianityStats(skew, exkurt, ks)


@dataclass
class MetricsReport:
    """One evaluation row; serializes to the fixed CSV schema."""

    epoch: int
    data_mse: float
    jscc_mse: Optional[float]
    dpc: float
    per_dim_skewness: np.ndarray
    per_dim_excess_kurtosis: np.ndarray
    per_dim_ks_stat: np.ndarray
    mean_norm: float
    mean_power: float

    def mean_skew_abs(self) -> float:
        return float(np.nanmean(np.abs(self.per_dim_skewness)))

    def mean_exkurt_abs(self) -> float:
        return float(np.nanmean(np.abs(self.per_dim_excess_kurtosis)))

    def mean_ks(self) -> float:
        return float(np.nanmean(self.per_dim_ks_stat))

    def to_csv_row(self) -> str:
        jscc = "" if self.jscc_mse is None else f"{self.jscc_mse:.10g}"
        fields = [
            str(self.epoch),
            f"{self.data_mse:.10g}",
            jscc,
            f"{self.dpc:.10g}",
            f"{self.mean_skew_abs():.10g}",
            f"{self.mean_exkurt_abs():.10g}",
            f"{self.mean_ks():.10g}",
            f"{self.mean_norm:.10g}",
            f"{self.mean_power:.10g}",
        ]
        return ",".join(fields)


def evaluate_latents(epoch: int, data_mse: float, z: np.ndarray,
                     jscc_mse: Optional[float] = None) -> MetricsReport:
    """Bundle the data MSE, the channel MSE and the latent statistics of z into one report."""
    stats = gaussianity_report(z)
    mean_vec = z.mean(axis=0)
    return MetricsReport(
        epoch=epoch,
        data_mse=data_mse,
        jscc_mse=jscc_mse,
        dpc=pearson_dpc(z),
        per_dim_skewness=stats.skewness,
        per_dim_excess_kurtosis=stats.excess_kurtosis,
        per_dim_ks_stat=stats.ks_stat,
        mean_norm=float(np.linalg.norm(mean_vec)),
        mean_power=float(np.mean(z.var(axis=0))),
    )
