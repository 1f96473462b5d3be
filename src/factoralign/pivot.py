"""Reference-matrix (pivot) selection from a stack of orthogonalized samples.

The pivot is the sample whose conditioning statistic sits at the lower median
of the chain: condition number by default, falling back to the largest
singular value when too many samples are numerically rank deficient.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import validate_stack

__all__ = [
    "PivotSelection",
    "PivotStatistic",
    "select_pivot",
]

RANK_TOLERANCE = 1e-12
INFINITE_FRACTION_THRESHOLD = 0.10


class PivotStatistic(enum.Enum):
    CONDITION_NUMBER = "condition"
    LARGEST_SINGULAR_VALUE = "sigma-max"


@dataclass(frozen=True)
class PivotSelection:
    """The pivot's sample index, the statistic used, and every sample's statistic value.

    The pivot itself is ``samples[index]`` of the stack passed to
    :func:`select_pivot`; no copy of it is kept.
    """

    index: int
    statistic_used: PivotStatistic
    statistics: np.ndarray


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
    samples,
    force_statistic: PivotStatistic | None = None,
    infinite_fraction_threshold: float = INFINITE_FRACTION_THRESHOLD,
) -> PivotSelection:
    """Choose the pivot sample of a ``(T, p, k)`` stack of orthogonalized samples.

    ``align_posterior`` passes the ``rotated`` stack of
    :func:`~factoralign.varimax.orthogonalize_chain`'s result.  The
    statistic is the condition number unless ``force_statistic`` overrides
    it or more than ``infinite_fraction_threshold`` of the samples hit the
    +inf rank-deficiency sentinel, in which case the whole stack switches to
    the largest singular value.  The pivot is the sample at the returned
    ``index``; :func:`~factoralign.align.align_chain` takes that index.
    Raises ``ValueError`` unless ``samples`` is a finite, tall ``(T, p, k)``
    stack; a non-finite entry is named by its sample, as ``sample t: ...``.
    """
    check_infinite_fraction_threshold(infinite_fraction_threshold)
    samples = validate_stack(samples, "samples")
    _, p, k = samples.shape
    if p < k:
        raise ValueError(f"samples must be tall (p >= k), got shape {(p, k)}")
    svals = np.linalg.svd(samples, compute_uv=False)
    sigma_max, sigma_min = svals[:, 0], svals[:, -1]
    # Rank-deficient samples divide by 1.0, since their sigma_min may be zero.
    deficient = sigma_min <= RANK_TOLERANCE * sigma_max
    conds = np.where(deficient, np.inf, sigma_max / np.where(deficient, 1.0, sigma_min))
    if force_statistic is not None:
        statistic = force_statistic
    elif np.mean(deficient) > infinite_fraction_threshold:
        statistic = PivotStatistic.LARGEST_SINGULAR_VALUE
    else:
        statistic = PivotStatistic.CONDITION_NUMBER

    stats = sigma_max if statistic is PivotStatistic.LARGEST_SINGULAR_VALUE else conds
    index = _lower_median_index(stats)
    return PivotSelection(index, statistic, stats)
