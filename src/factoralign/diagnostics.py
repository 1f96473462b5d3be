"""Alignment-quality diagnostics: covariance discrepancy, effective sample size.

The covariance metric compares the posterior mean of L L^T (invariant under
alignment) with the same quantity rebuilt from the mean of the aligned
samples; a misaligned chain averages incompatible rotations and inflates it.
The ESS estimator runs as one array pass over every loading-entry series of a
chain, on one centred copy of the samples.  Series that finish stay in the
working set until at least half of it has finished, and only then are the
live ones copied out, so those copies total less than one payload (the size
of the chain's samples) and the pass holds under two payloads.

Both metrics use the package's one power-of-two rescaling rule
(``core.scale_exponent``).  ESS rescales each series before centring it, so
it is exactly scale-free: a chain scaled by 2**s gives bitwise the same ESS
while its entries stay normal floats.  The covariance metric reads each
chain's gram from :attr:`Chain.mean_gram <factoralign.core.Chain.mean_gram>`,
taken at one chain-wide scale and computed once per chain, and maps its value
back, so it is scale-equivariant: scaling a chain by 2**s scales the metric by
exactly 2**(2s), rounded once.  It raises
:class:`~factoralign.core.NumericalError` only when that value overflows.

``build_report`` is the one place that turns a raw and an aligned chain into
these fields, for both the ``align`` and the ``diagnose`` report.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import Chain, NumericalError, check_integers, frobenius_norm, scale_exponent

__all__ = [
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
    is its own covariance reference.  :func:`covariance_discrepancy` runs once
    per chain, and each chain computes its mean gram once
    (:attr:`Chain.mean_gram <factoralign.core.Chain.mean_gram>`), so a report
    takes two grams, or one when there is one chain.
    """
    reference = raw if raw is not None else aligned
    report = {}
    for name, chain in {"raw": raw, "aligned": aligned}.items():
        report[f"covariance_discrepancy_{name}"] = (
            None if chain is None else covariance_discrepancy(reference, chain)
        )
        if chain is None or chain.n_samples < MIN_SERIES_LENGTH:
            report[f"mean_ess_ratio_{name}"] = report[f"per_entry_ess_{name}"] = None
        else:
            ess = per_entry_ess(chain)
            report[f"mean_ess_ratio_{name}"] = float(np.mean(ess)) / chain.n_samples
            report[f"per_entry_ess_{name}"] = ess.tolist()
    return report


def covariance_discrepancy(raw: Chain, aligned: Chain) -> float:
    """Frobenius distance between mean(L L^T) and Lbar Lbar^T of the aligned chain.

    The first term is computed from the raw chain; because alignment only
    post-multiplies by signed permutations, the aligned chain must give the
    same mean gram matrix, and this is asserted.  Both grams are the chains'
    own :attr:`~factoralign.core.Chain.mean_gram`, ``(G, e)`` with G =
    mean(L L^T) * 2**-2e at the chain's
    :func:`~factoralign.core.scale_exponent` e, computed on a chain's first
    call and reused by later ones.  Both terms are taken at the raw chain's
    scale 2**-e and the distance is mapped back by 2**(2e), so the metric is
    scale-equivariant and finite whenever its value is; it raises
    :class:`NumericalError` when the value overflows.
    """
    if raw.samples.shape != aligned.samples.shape:
        raise ValueError(f"chain shapes differ: {raw.samples.shape} vs {aligned.samples.shape}")
    g_raw, e = raw.mean_gram
    g_aligned, e_aligned = aligned.mean_gram
    with np.errstate(over="ignore"):
        # A chain far larger than the raw one overflows here and fails the check.
        drift = frobenius_norm(g_raw - np.ldexp(g_aligned, 2 * (e_aligned - e)))
        if drift > 1e-10 * max(frobenius_norm(g_raw), 1e-300):
            raise ValueError(
                "per-sample L L^T differs between the chains; 'aligned' is not a "
                "signed-permutation alignment of 'raw'"
            )
        mean_aligned = np.ldexp(aligned.samples, -e).mean(axis=0)
        value = float(np.ldexp(frobenius_norm(g_raw - mean_aligned @ mean_aligned.T), 2 * e))
    if not np.isfinite(value):
        raise NumericalError(f"covariance discrepancy overflows at loadings of up to 2**{e}")
    return value


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

    Each row is rescaled by its own power of two and centred in place, so
    callers pass an array of their own; the rescaling is exact, so a series
    and its multiples by powers of two get the same estimate.  Each row then
    takes the same dot products, in the same order, as a scalar series
    would, and finishes at its first non-positive autocorrelation pair;
    constant rows start out finished.  Finished rows stay in the working
    set, which starts as ``rows`` itself, until at least half of it has
    finished; only then are the live rows copied out.  Each copy is at most
    half the set it replaces, so the copies held beside ``rows`` never reach
    its size.
    """
    t = rows.shape[1]
    if t < MIN_SERIES_LENGTH:
        raise ValueError(f"series must have at least {MIN_SERIES_LENGTH} points, got {t}")
    np.ldexp(rows, -scale_exponent(rows, axis=1), out=rows)
    rows -= rows.mean(axis=1, keepdims=True)
    gamma0 = np.vecdot(rows, rows) / t
    constant = gamma0 == 0.0
    pair_sums = np.zeros(len(rows))
    # A constant row divides by a stand-in variance of 1.0, so its pair stays finite.
    work, variance, live = rows, np.where(constant, 1.0, gamma0), ~constant
    index = np.arange(len(rows))
    lag = 0
    while live.any() and lag < t:
        # at lag + 1 == T both slices are empty, so that product is 0
        pair = (
            np.vecdot(work[:, : t - lag], work[:, lag:]) / t / variance
            + np.vecdot(work[:, : t - lag - 1], work[:, lag + 1 :]) / t / variance
        )
        live &= pair > 0.0
        pair_sums[index[live]] += pair[live]
        if 2 * np.count_nonzero(live) <= len(live):
            index, work, variance, live = index[live], work[live], variance[live], live[live]
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
    Raises ``ValueError`` naming the first entry whose row or column is not an
    integer (:func:`~factoralign.core.check_integers`) or is out of range.
    """
    if not entries:
        raise ValueError("at least one (row, col) entry is required")
    p, k = chain.n_variables, chain.n_factors
    for row, col in entries:
        check_integers(**{f"row of entry {(row, col)}": row, f"column of entry {(row, col)}": col})
        if not (0 <= row < p and 0 <= col < k):
            raise ValueError(
                f"entry ({row}, {col}) out of range for a {p} x {k} loadings matrix"
            )
    return np.column_stack([chain.samples[:, row, col] for row, col in entries])
