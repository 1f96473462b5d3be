"""Alignment-quality diagnostics: covariance discrepancy, effective sample size.

The covariance metric compares the posterior mean of L L^T (invariant under
alignment) with the same quantity rebuilt from the mean of the aligned
samples; a misaligned chain averages incompatible rotations and inflates it.
The ESS estimator runs as one array pass over every loading-entry series of a
chain.  ``build_report`` is the one place that turns a raw and an aligned
chain into these fields, for both the ``align`` and the ``diagnose`` report.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import Chain, frobenius_norm

__all__ = [
    "MIN_SERIES_LENGTH",
    "DegenerateSeriesWarning",
    "build_report",
    "covariance_discrepancy",
    "effective_sample_size",
    "mean_ess_ratio",
    "export_traces",
    "per_entry_ess",
]

MIN_SERIES_LENGTH = 10

# ESS is capped at this multiple of T; anticorrelated series can legitimately
# estimate above T, but unboundedly small autocorrelation-time estimates
# (e.g. a deterministic alternating series) must not blow up.
ESS_CAP_RATIO = 10.0


class DegenerateSeriesWarning(UserWarning):
    """Raised for (numerically) constant series, whose ESS is reported as T."""


def build_report(raw: Chain | None, aligned: Chain | None) -> dict:
    """The covariance and ESS report fields of a raw and an aligned chain.

    Returns ``covariance_discrepancy_{raw,aligned}``, ``mean_ess_ratio_{raw,
    aligned}`` and ``per_entry_ess_{raw,aligned}`` (nested lists), each None
    when its chain is missing; the ESS fields are also None for chains
    shorter than ``MIN_SERIES_LENGTH``.  Without a raw chain the aligned chain
    is its own covariance reference.  Each chain's mean gram is computed once
    and serves both the L L^T drift check and the discrepancy.
    """
    chains = {"raw": raw, "aligned": aligned}
    grams = {name: _mean_gram(chain) for name, chain in chains.items() if chain is not None}
    reference = "raw" if raw is not None else "aligned"
    report = {}
    for name, chain in chains.items():
        report[f"covariance_discrepancy_{name}"] = (
            None
            if chain is None
            else covariance_discrepancy(
                chains[reference], chain, raw_gram=grams[reference], aligned_gram=grams[name]
            )
        )
        if chain is None or chain.n_samples < MIN_SERIES_LENGTH:
            report[f"mean_ess_ratio_{name}"] = report[f"per_entry_ess_{name}"] = None
        else:
            ess = per_entry_ess(chain)
            report[f"mean_ess_ratio_{name}"] = float(np.mean(ess)) / chain.n_samples
            report[f"per_entry_ess_{name}"] = ess.tolist()
    return report


def _mean_gram(chain: Chain) -> np.ndarray:
    # sum_t L_t L_t^T is one product of the (p, T*k) unfolding with itself.
    unfolded = chain.samples.transpose(1, 0, 2).reshape(chain.n_variables, -1)
    return unfolded @ unfolded.T / chain.n_samples


def covariance_discrepancy(
    raw: Chain,
    aligned: Chain,
    *,
    raw_gram: np.ndarray | None = None,
    aligned_gram: np.ndarray | None = None,
) -> float:
    """Frobenius distance between mean(L L^T) and Lbar Lbar^T of the aligned chain.

    The first term is computed from the raw chain; because alignment only
    post-multiplies by signed permutations, the aligned chain must give the
    same mean gram matrix, and this is asserted.  ``raw_gram`` and
    ``aligned_gram`` are the chains' mean(L L^T) when the caller already has
    them; :func:`build_report` passes them so that each chain's is computed
    once.  The result is the same either way.
    """
    if raw.samples.shape != aligned.samples.shape:
        raise ValueError(
            f"chain shapes differ: {raw.samples.shape} vs {aligned.samples.shape}"
        )
    if raw_gram is None:
        raw_gram = _mean_gram(raw)
    if aligned_gram is None:
        aligned_gram = _mean_gram(aligned)
    drift = frobenius_norm(raw_gram - aligned_gram)
    if drift > 1e-10 * max(frobenius_norm(raw_gram), 1e-300):
        raise ValueError(
            "per-sample L L^T differs between the chains; 'aligned' is not a "
            "signed-permutation alignment of 'raw'"
        )
    mean_aligned = aligned.samples.mean(axis=0)
    return frobenius_norm(raw_gram - mean_aligned @ mean_aligned.T)


def effective_sample_size(series) -> float:
    """ESS of one scalar MCMC series: T / (1 + 2 sum of autocorrelations).

    The autocorrelation sum is truncated with the initial-positive-sequence
    rule: consecutive-lag pairs are accumulated while their sum stays
    positive.  A constant series returns T with a DegenerateSeriesWarning;
    estimates are capped at ``ESS_CAP_RATIO * T``.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"series must be 1-dimensional, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    ess, constant = _ess_rows(x[None, :].copy())
    if constant[0]:
        warnings.warn(
            "constant series: effective sample size reported as the series length",
            DegenerateSeriesWarning,
            stacklevel=2,
        )
    return float(ess[0])


def _ess_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ESS of every row of an (m, T) float64 array of series, and which rows are constant.

    The rows are centred in place, so callers pass an array of their own.
    Each row takes the same dot products, in the same order, as a scalar
    series would; a row leaves the working set at its first non-positive
    autocorrelation pair, and the set is compacted only when rows leave it.
    """
    t = rows.shape[1]
    if t < MIN_SERIES_LENGTH:
        raise ValueError(f"series must have at least {MIN_SERIES_LENGTH} points, got {t}")
    rows -= rows.mean(axis=1, keepdims=True)
    gamma0 = np.vecdot(rows, rows) / t
    constant = gamma0 == 0.0
    pair_sums = np.zeros(len(rows))
    active = np.flatnonzero(~constant)
    work, work_gamma0 = rows[active], gamma0[active]
    lag = 0
    while active.size and lag < t:
        # at lag + 1 == T both slices are empty, so that product is 0
        pair = (
            np.vecdot(work[:, : t - lag], work[:, lag:]) / t / work_gamma0
            + np.vecdot(work[:, : t - lag - 1], work[:, lag + 1 :]) / t / work_gamma0
        )
        positive = pair > 0.0
        pair_sums[active[positive]] += pair[positive]
        if not positive.all():
            active, work, work_gamma0 = active[positive], work[positive], work_gamma0[positive]
        lag += 2
    tau = np.maximum(2.0 * pair_sums - 1.0, 1.0 / ESS_CAP_RATIO)
    ess = np.minimum(t / tau, ESS_CAP_RATIO * t)
    return np.where(constant, float(t), ess), constant


def mean_ess_ratio(chain: Chain) -> float:
    """Mean over all loading entries of ESS divided by the number of samples."""
    return float(np.mean(per_entry_ess(chain))) / chain.n_samples


def per_entry_ess(chain: Chain) -> np.ndarray:
    """ESS of every loading-entry series, as a (p, k) matrix.

    Constant entries get ESS T without a warning.
    """
    # One C-order copy to (p * k, T) rows, whatever the layout of the samples;
    # _ess_rows centres it in place.
    rows = chain.samples.transpose(1, 2, 0).copy().reshape(-1, chain.n_samples)
    ess, _ = _ess_rows(rows)
    return ess.reshape(chain.n_variables, chain.n_factors)


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
