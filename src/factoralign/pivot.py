"""Reference-matrix (pivot) selection from an orthogonalized chain.

The pivot is the sample whose conditioning statistic sits at the lower median
of the chain: condition number by default, falling back to the largest
singular value when too many samples are numerically rank deficient.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import Chain, validate_loadings

__all__ = [
    "PivotSelection",
    "PivotStatistic",
    "check_infinite_fraction_threshold",
    "condition_number",
    "select_pivot",
    "singular_values",
]

RANK_TOLERANCE = 1e-12
INFINITE_FRACTION_THRESHOLD = 0.10


class PivotStatistic(enum.Enum):
    CONDITION_NUMBER = "condition"
    LARGEST_SINGULAR_VALUE = "sigma-max"


@dataclass(frozen=True)
class PivotSelection:
    """The chosen pivot, the statistic used, and every sample's statistic value."""

    index: int
    pivot: np.ndarray
    statistic_used: PivotStatistic
    statistics: np.ndarray


def singular_values(m) -> np.ndarray:
    """Singular values of a tall (p >= k) matrix in nonincreasing order."""
    arr = validate_loadings(m)
    p, k = arr.shape
    if p < k:
        raise ValueError(f"matrix must be tall (p >= k), got shape {arr.shape}")
    return np.linalg.svd(arr, compute_uv=False)


def _condition_numbers(
    svals: np.ndarray, rank_tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sigma_max / sigma_min of ``(T, k)`` singular values, and the deficiency mask.

    A row is numerically rank deficient when
    ``sigma_min <= rank_tolerance * sigma_max``; its condition number is +inf.
    """
    sigma_max, sigma_min = svals[:, 0], svals[:, -1]
    # Rank-deficient rows divide by 1.0, since their sigma_min may be zero.
    deficient = sigma_min <= rank_tolerance * sigma_max
    conds = np.where(deficient, np.inf, sigma_max / np.where(deficient, 1.0, sigma_min))
    return conds, deficient


def condition_number(m, rank_tolerance: float = RANK_TOLERANCE) -> float:
    """sigma_max / sigma_min, or +inf when the matrix is numerically rank deficient."""
    conds, _ = _condition_numbers(singular_values(m)[None], rank_tolerance)
    return float(conds[0])


def check_infinite_fraction_threshold(threshold: float) -> None:
    """Raise ``ValueError`` unless the fallback threshold lies in [0, 1]; NaN is rejected."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"infinite_fraction_threshold must be in [0, 1], got {threshold}")


def _lower_median_index(stats: np.ndarray) -> int:
    # Rank floor((T+1)/2) ascending picks the lower-median value; among
    # samples tied at that value the smallest sample index wins.
    order = np.argsort(stats, kind="stable")
    value = stats[order[(stats.shape[0] + 1) // 2 - 1]]
    return int(np.argmax(stats == value))


def select_pivot(
    chain: Chain,
    force_statistic: PivotStatistic | None = None,
    infinite_fraction_threshold: float = INFINITE_FRACTION_THRESHOLD,
    rank_tolerance: float = RANK_TOLERANCE,
) -> PivotSelection:
    """Choose the pivot sample of an orthogonalized chain.

    The statistic is the condition number unless ``force_statistic`` overrides
    it or more than ``infinite_fraction_threshold`` of the samples hit the
    +inf rank-deficiency sentinel, in which case the whole chain switches to
    the largest singular value.
    """
    check_infinite_fraction_threshold(infinite_fraction_threshold)
    _, p, k = chain.samples.shape
    if p < k:
        raise ValueError(f"samples must be tall (p >= k), got shape {(p, k)}")
    svals = np.linalg.svd(chain.samples, compute_uv=False)
    sigma_max = svals[:, 0]
    if force_statistic is PivotStatistic.LARGEST_SINGULAR_VALUE:
        statistic = PivotStatistic.LARGEST_SINGULAR_VALUE
    else:
        conds, deficient = _condition_numbers(svals, rank_tolerance)
        if force_statistic is PivotStatistic.CONDITION_NUMBER:
            statistic = PivotStatistic.CONDITION_NUMBER
        elif np.mean(deficient) > infinite_fraction_threshold:
            statistic = PivotStatistic.LARGEST_SINGULAR_VALUE
        else:
            statistic = PivotStatistic.CONDITION_NUMBER

    stats = sigma_max if statistic is PivotStatistic.LARGEST_SINGULAR_VALUE else conds
    index = _lower_median_index(stats)
    return PivotSelection(
        index=index,
        pivot=chain.samples[index].copy(),
        statistic_used=statistic,
        statistics=stats,
    )
