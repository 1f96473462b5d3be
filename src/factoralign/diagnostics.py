"""Alignment-quality diagnostics: covariance discrepancy, effective sample size.

The covariance metric compares the posterior mean of L L^T (invariant under
alignment) with the same quantity rebuilt from the mean of the aligned
samples; a misaligned chain averages incompatible rotations and inflates it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Chain, frobenius_norm

__all__ = [
    "DegenerateSeriesWarning",
    "DiagnosticsReport",
    "build_report",
    "covariance_discrepancy",
    "effective_sample_size",
    "mean_ess_ratio",
    "export_traces",
]

MIN_SERIES_LENGTH = 10

# ESS is capped at this multiple of T; anticorrelated series can legitimately
# estimate above T, but unboundedly small autocorrelation-time estimates
# (e.g. a deterministic alternating series) must not blow up.
ESS_CAP_RATIO = 10.0


class DegenerateSeriesWarning(UserWarning):
    """Raised for (numerically) constant series, whose ESS is reported as T."""


@dataclass(frozen=True)
class DiagnosticsReport:
    """Alignment-quality summary; ESS fields are None for chains shorter than
    the ESS minimum length."""

    covariance_discrepancy: float
    mean_ess_ratio: float | None
    per_entry_ess: np.ndarray | None
    elapsed_align_seconds: float


def build_report(
    raw: Chain, aligned: Chain, elapsed_align_seconds: float = float("nan")
) -> DiagnosticsReport:
    """Assemble the standard diagnostics for an aligned chain."""
    metric = covariance_discrepancy(raw, aligned)
    if aligned.n_samples >= MIN_SERIES_LENGTH:
        ess = per_entry_ess(aligned)
        ratio = float(np.mean(ess)) / aligned.n_samples
    else:
        ess = None
        ratio = None
    return DiagnosticsReport(
        covariance_discrepancy=metric,
        mean_ess_ratio=ratio,
        per_entry_ess=ess,
        elapsed_align_seconds=elapsed_align_seconds,
    )


def _mean_gram(chain: Chain) -> np.ndarray:
    # sum_t L_t L_t^T is one product of the (p, T*k) unfolding with itself.
    unfolded = chain.samples.transpose(1, 0, 2).reshape(chain.n_variables, -1)
    return unfolded @ unfolded.T / chain.n_samples


def covariance_discrepancy(raw: Chain, aligned: Chain) -> float:
    """Frobenius distance between mean(L L^T) and Lbar Lbar^T of the aligned chain.

    The first term is computed from the raw chain; because alignment only
    post-multiplies by signed permutations, the aligned chain must give the
    same mean gram matrix, and this is asserted.
    """
    if raw.samples.shape != aligned.samples.shape:
        raise ValueError(
            f"chain shapes differ: {raw.samples.shape} vs {aligned.samples.shape}"
        )
    raw_gram = _mean_gram(raw)
    aligned_gram = _mean_gram(aligned)
    drift = frobenius_norm(raw_gram - aligned_gram)
    if drift > 1e-10 * max(frobenius_norm(raw_gram), 1e-300):
        raise ValueError(
            "per-sample L L^T differs between the chains; 'aligned' is not a "
            "signed-permutation alignment of 'raw'"
        )
    mean_aligned = aligned.samples.mean(axis=0)
    return frobenius_norm(raw_gram - mean_aligned @ mean_aligned.T)


def effective_sample_size(series, cap_ratio: float = ESS_CAP_RATIO) -> float:
    """ESS of one scalar MCMC series: T / (1 + 2 sum of autocorrelations).

    The autocorrelation sum is truncated with the initial-positive-sequence
    rule: consecutive-lag pairs are accumulated while their sum stays
    positive.  A constant series returns T with a DegenerateSeriesWarning;
    estimates are capped at ``cap_ratio * T``.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"series must be 1-dimensional, got shape {x.shape}")
    t = x.shape[0]
    if t < MIN_SERIES_LENGTH:
        raise ValueError(f"series must have at least {MIN_SERIES_LENGTH} points, got {t}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")

    centered = x - x.mean()
    gamma0 = float(centered @ centered) / t
    if gamma0 == 0.0:
        warnings.warn(
            "constant series: effective sample size reported as the series length",
            DegenerateSeriesWarning,
            stacklevel=2,
        )
        return float(t)

    def rho(lag: int) -> float:
        if lag >= t:
            return 0.0
        return float(centered[: t - lag] @ centered[lag:]) / t / gamma0

    pair_sum_total = 0.0
    i = 0
    while 2 * i < t:
        pair = rho(2 * i) + rho(2 * i + 1)
        if pair <= 0.0:
            break
        pair_sum_total += pair
        i += 1
    tau = 2.0 * pair_sum_total - 1.0
    tau = max(tau, 1.0 / cap_ratio)
    return min(float(t) / tau, cap_ratio * t)


def mean_ess_ratio(chain: Chain) -> float:
    """Mean over all loading entries of ESS divided by the number of samples."""
    t = chain.n_samples
    if t < MIN_SERIES_LENGTH:
        raise ValueError(f"chain must have at least {MIN_SERIES_LENGTH} samples, got {t}")
    return float(np.mean(per_entry_ess(chain))) / t


def per_entry_ess(chain: Chain) -> np.ndarray:
    """ESS of every loading-entry series, as a (p, k) matrix."""
    t = chain.n_samples
    if t < MIN_SERIES_LENGTH:
        raise ValueError(f"chain must have at least {MIN_SERIES_LENGTH} samples, got {t}")
    p, k = chain.n_variables, chain.n_factors
    out = np.empty((p, k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSeriesWarning)
        for i in range(p):
            for j in range(k):
                out[i, j] = effective_sample_size(chain.samples[:, i, j])
    return out


def export_traces(chain: Chain, entries: list[tuple[int, int]]) -> np.ndarray:
    """Extract the (T,) series of the requested 0-based (row, col) entries.

    Returns a (T, len(entries)) matrix with one column per requested entry.
    """
    if not entries:
        raise ValueError("at least one (row, col) entry is required")
    p, k = chain.n_variables, chain.n_factors
    for row, col in entries:
        if not (0 <= row < p and 0 <= col < k):
            raise ValueError(
                f"entry ({row}, {col}) out of range for a {p} x {k} loadings matrix"
            )
    return np.column_stack([chain.samples[:, row, col] for row, col in entries])
