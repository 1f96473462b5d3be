"""Signed-permutation matching of loadings columns against a pivot.

All three matchers read their costs from one table: ``_signed_d2`` computes
every squared distance |a_j -+ p_h|^2 of a ``(T, p, k)`` stack into one
``(T, k, 2k)`` stack interleaved as (+p_0, -p_0, +p_1, ...), each as an exact
dot product of the difference with itself, so the matchers compare the same
rounded numbers.  The cheaper gram form |a|^2 + |p|^2 -+ 2 a.p rounds
differently and can flip a near tie.

The greedy rule walks a sample's columns (largest norm first by default),
assigns each to its nearest remaining signed pivot column, and drops the
matched column and its negative from the candidate pool.  One kernel,
``_greedy_match_chain``, applies the rule to a whole stack: ``align_chain``
calls it on the chain, and ``greedy_match`` on one sample as a stack of one.
It takes k masked ``argmin`` steps over all samples: step i picks each
sample's i-th source column and sets the two slots of its matched pivot
column to +inf.  ``argmin`` returns the first minimum, so ties go to the
lower pivot index and then to the + sign.  The tests hold the rule as a
per-sample, per-column scan (``_greedy_match_stats`` in
``tests/test_align.py``), which counts the distances and norms the rule
evaluates, and check the kernel against it bitwise.

``align_posterior`` is the whole ``align`` pipeline in one call, and each
stage passes on the record it makes: ``orthogonalize_chain`` returns the
:class:`~factoralign.varimax.VarimaxResult` of every draw, ``select_pivot``
reads its rotated stack, and ``align_chain`` matches that stack to the pivot
and folds each draw's rotation, permutation and signs into one k x k
transform.  The aligned chain is the raw chain times those transforms; no
rotated chain is built.  It then computes the diagnostics and returns the
aligned chain with the body and stage seconds of the ``align`` report.

The two exact matchers exist as quality baselines and test oracles: the
per-sample optimum from an in-package O(k^3) assignment solve (the Hungarian
method; the package needs only numpy) and a small-k exhaustive search.  Both
take the table of one sample, at the package's one power-of-two scale, and
both raise :class:`NumericalError` when a pair cost overflows.  Wherever such
a check reports an overflow, numpy's overflow and invalid-value warnings are
silenced, so a failure prints one error line.
"""

from __future__ import annotations

import enum
import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import diagnostics, pivot as pivot_stage, varimax
from .core import (
    Chain,
    NumericalError,
    SignedPermutation,
    apply_signed_permutation,
    check_integers,
    frobenius_norm,
    scale_exponent,
    validate_loadings,
)

__all__ = [
    "AlignmentReport",
    "MatchOrder",
    "align_chain",
    "align_posterior",
    "brute_force_match",
    "exact_match_assignment",
    "greedy_match",
    "match_loss",
]

logger = logging.getLogger(__name__)

BRUTE_FORCE_MAX_K = 8

# A matched distance above this fraction of the largest pivot-column norm
# marks an unstable match (typically near-zero columns of an over-fitted model).
UNSTABLE_DISTANCE_FRACTION = 0.5

_NON_FINITE_DISTANCE = "matching distance to the pivot is not finite"


class MatchOrder(enum.Enum):
    BY_DESCENDING_NORM = "norm"
    NATURAL_COLUMN_ORDER = "natural"


@dataclass(frozen=True)
class AlignmentReport:
    """Per-sample matching results for an aligned chain.

    ``perm`` and ``signs`` are read-only ``(T, k)`` arrays holding each
    rotated sample's signed permutation in the :class:`SignedPermutation`
    convention: aligned column j of sample t is
    ``signs[t, j] * rotated[t][:, perm[t, j]]``.  ``losses`` holds each
    aligned sample's Frobenius distance to the pivot.  ``transform`` is the
    read-only ``(T, k, k)`` stack of each sample's whole alignment, its
    varimax rotation ``R_t`` with columns permuted and signed:
    ``transform[t] = R_t[:, perm[t]] * signs[t]``, an orthogonal matrix,
    and aligned sample t is ``raw[t] @ transform[t]``.
    """

    perm: np.ndarray
    signs: np.ndarray
    losses: np.ndarray
    transform: np.ndarray


def _checked_pair(a, pivot) -> tuple[np.ndarray, np.ndarray]:
    """Validate a sample and a pivot of the same shape; return both as arrays."""
    a_arr = validate_loadings(a, "sample")
    p_arr = validate_loadings(pivot, "pivot")
    if a_arr.shape != p_arr.shape:
        raise ValueError(f"shape mismatch: sample {a_arr.shape} vs pivot {p_arr.shape}")
    return a_arr, p_arr


def match_loss(a, sp: SignedPermutation, pivot) -> float:
    """Frobenius distance between the signed-permuted sample and the pivot."""
    a_arr, p_arr = _checked_pair(a, pivot)
    return frobenius_norm(apply_signed_permutation(a_arr, sp) - p_arr)


def _unstable_d2(pivot: np.ndarray) -> float:
    """Squared matched distance above which a match counts as unstable."""
    return UNSTABLE_DISTANCE_FRACTION**2 * float(np.max(np.einsum("ij,ij->j", pivot, pivot)))


def _warn_unstable_matches(per_sample, unit: str) -> None:
    """Log one warning counting unstable matches, from each sample's count of them.

    ``unit`` names the samples in the message.  Nothing is logged when every
    count is 0.  The record's first argument is the total count.
    """
    counts = np.asarray(per_sample)
    if counts.any():
        logger.warning(
            "%d column matches in %d of %d %s were at a distance above %.0f%% of the largest "
            "pivot column norm; those matches may be unstable",
            int(counts.sum()),
            np.count_nonzero(counts),
            counts.size,
            unit,
            100 * UNSTABLE_DISTANCE_FRACTION,
        )


@np.errstate(over="ignore", invalid="ignore")
def _checked_greedy_match(
    a, pivot, order: MatchOrder = MatchOrder.BY_DESCENDING_NORM
) -> tuple[SignedPermutation, int]:
    """Validate the inputs and return the greedy match and its unstable-match count.

    The match is the chain kernel's on a stack of one sample.
    """
    a_arr, p_arr = _checked_pair(a, pivot)
    perm, signs, matched_d2 = _greedy_match_chain(a_arr[None], p_arr, order)
    if not np.isfinite(matched_d2).all():
        raise NumericalError(_NON_FINITE_DISTANCE)
    n_unstable = int(np.count_nonzero(matched_d2 > _unstable_d2(p_arr)))
    return SignedPermutation(perm[0], signs[0]), n_unstable


def greedy_match(a, pivot, order: MatchOrder = MatchOrder.BY_DESCENDING_NORM) -> SignedPermutation:
    """Match ``a``'s columns to the pivot's columns greedily, without duplication.

    Processing ``a``'s columns in the given ``order``, each column is
    assigned the L2-nearest of the not-yet-matched pivot columns and their
    negatives; the matched column and its negative are then dropped from the
    candidate pool.  This is the single-sample call of the kernel that
    :func:`align_chain` runs on a whole chain.  Raises
    :class:`NumericalError` when every candidate distance of a column
    overflows.
    """
    sp, n_unstable = _checked_greedy_match(a, pivot, order)
    _warn_unstable_matches([n_unstable], "sample")
    return sp


def _signed_d2(samples: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """The ``(T, k, 2k)`` squared distances of a ``(T, p, k)`` stack to the signed pivot.

    d2[t, j, 2h] = |a_j - p_h|^2 and d2[t, j, 2h + 1] = |a_j + p_h|^2, each
    the dot product of a contiguous length-p row with itself.
    """
    t_len, _, k = samples.shape
    cols = np.ascontiguousarray(samples.transpose(0, 2, 1))
    pivot_cols = np.ascontiguousarray(pivot.T)
    d2 = np.empty((t_len, k, 2 * k))
    buf = np.empty_like(cols)
    for h in range(k):
        np.subtract(cols, pivot_cols[h], out=buf)
        np.vecdot(buf, buf, out=d2[:, :, 2 * h])
        np.add(cols, pivot_cols[h], out=buf)
        np.vecdot(buf, buf, out=d2[:, :, 2 * h + 1])
    return d2


@np.errstate(over="ignore", invalid="ignore")
def _pair_costs(a: np.ndarray, pivot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k x k costs min(|a_j - p_h|^2, |a_j + p_h|^2) of one sample, and their signs.

    The costs are returned scaled by the power of two that puts the largest
    in [0.5, 1) (:func:`~factoralign.core.scale_exponent`), which is exact
    for every normal entry and keeps any sum of k of them finite.  The sign
    is +1 at ties.  Raises :class:`NumericalError` when a cost overflows.
    """
    k = a.shape[1]
    d2 = _signed_d2(a[None], pivot)[0].reshape(k, k, 2)
    plus, minus = d2[:, :, 0], d2[:, :, 1]
    cost = np.minimum(plus, minus)
    # The costs are sums of squares, so they are all finite when the largest is.
    if not math.isfinite(float(cost.max())):
        raise NumericalError(_NON_FINITE_DISTANCE)
    return np.ldexp(cost, -scale_exponent(cost)), np.where(plus <= minus, 1, -1)


def _assignment(cost: list[list[float]]) -> list[int]:
    """Rows of a minimum-cost assignment of a square cost matrix, one per column.

    The Hungarian method as k shortest augmenting paths with row potentials
    ``u`` and column potentials ``v`` (O(k^3)); index 0 of ``v``, ``match``
    and ``way`` is a virtual column that roots each path.  The loops run over
    Python floats, which at these k beat any numpy inner loop.  Entries must
    be finite and in [0, 1], so that no potential overflows.
    """
    k = len(cost)
    u = [0.0] * (k + 1)
    v = [0.0] * (k + 1)
    match = [0] * (k + 1)  # match[j]: the 1-based row assigned to column j
    way = [0] * (k + 1)
    for row in range(1, k + 1):
        match[0] = row
        j0 = 0
        min_slack = [math.inf] * (k + 1)
        used = [False] * (k + 1)
        while match[j0]:
            used[j0] = True
            i0 = match[j0]
            costs, u_i0 = cost[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, k + 1):
                if not used[j]:
                    slack = costs[j - 1] - u_i0 - v[j]
                    if slack < min_slack[j]:
                        min_slack[j], way[j] = slack, j0
                    if min_slack[j] < delta:
                        delta, j1 = min_slack[j], j
            for j in range(k + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    min_slack[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return [i - 1 for i in match[1:]]


def exact_match_assignment(a, pivot) -> SignedPermutation:
    """Globally optimal signed match via a linear assignment solve.

    The squared Frobenius loss decomposes over matched column pairs, so with
    per-pair cost min(||a_j - p_h||^2, ||a_j + p_h||^2) the optimum over all
    2^k * k! signed permutations reduces to a k x k assignment problem, solved
    in O(k^3) by :func:`_assignment`; the sign of each matched pair is the
    cheaper of the two, + at ties.  The costs are read from the greedy
    kernel's distance table, so they carry its rounding.  The solve runs on
    the costs at the package's one power-of-two scale
    (:func:`~factoralign.core.scale_exponent`), at most 1, which keeps its
    potentials from overflowing and leaves every normal entry exact.  Among
    tied optima any one may be returned.  Raises :class:`NumericalError` when
    a pair cost overflows.
    """
    cost, signs = _pair_costs(*_checked_pair(a, pivot))
    perm = np.array(_assignment(cost.tolist()))
    return SignedPermutation(perm, signs[perm, np.arange(perm.size)])


@functools.cache
def _permutations(k: int) -> np.ndarray:
    """Every permutation of ``range(k)`` in lexicographic order, as a read-only (k!, k) array."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    perms.flags.writeable = False
    return perms


def brute_force_match(a, pivot) -> SignedPermutation:
    """Exhaustive minimizer over all k! * 2^k signed permutations (k <= 8).

    For each permutation the optimal sign decomposes per column, so the
    search sums the per-pair costs of :func:`exact_match_assignment`, at the
    same scale, over every permutation, in lexicographic order and column by
    column, with each sign chosen as + at exact ties; ``argmin`` returns the
    first minimizer, which realizes the lexicographic (perm, signs) tie-break
    with +1 ordered before -1.  At that scale no total overflows.  Raises
    :class:`NumericalError` when a pair cost overflows.
    """
    a_arr, p_arr = _checked_pair(a, pivot)
    k = a_arr.shape[1]
    if k > BRUTE_FORCE_MAX_K:
        raise ValueError(f"brute-force matching is capped at k <= {BRUTE_FORCE_MAX_K}, got k={k}")
    cost, signs = _pair_costs(a_arr, p_arr)
    perms = _permutations(k)
    totals = np.zeros(len(perms))
    for h in range(k):
        totals += cost[perms[:, h], h]
    perm = perms[np.argmin(totals)]
    return SignedPermutation(perm, signs[perm, np.arange(k)])


def _greedy_match_chain(
    samples: np.ndarray, pivot: np.ndarray, order: MatchOrder
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The greedy rule applied to every sample of a ``(T, p, k)`` stack at once.

    Returns the ``(T, k)`` ``perm`` and ``signs`` arrays and the ``(T, k)``
    squared distances of the matches, in the order the sources were matched.
    """
    t_len, _, k = samples.shape
    rows = np.arange(t_len)
    d2 = _signed_d2(samples, pivot)

    if order is MatchOrder.BY_DESCENDING_NORM:
        # Descending norm, ties to the lower source index.
        sq_norms = np.einsum("tij,tij->tj", samples, samples)
        source_order = np.argsort(-sq_norms, axis=1, kind="stable")
    else:
        source_order = np.broadcast_to(np.arange(k), (t_len, k))

    # Zeros, not np.empty: a sample whose distances overflow can leave a pivot
    # column unmatched, and its perm must still index validly until the
    # caller rejects it.
    perm = np.zeros((t_len, k), dtype=np.intp)
    signs = np.ones((t_len, k), dtype=np.int64)
    matched_d2 = np.empty((t_len, k))
    pivot_pairs = d2.reshape(t_len, k, k, 2)
    for step in range(k):
        source = source_order[:, step]
        candidates = d2[rows, source]
        slot = np.argmin(candidates, axis=1)
        matched_d2[:, step] = candidates[rows, slot]
        target = slot // 2
        perm[rows, target] = source
        signs[rows, target] = 1 - 2 * (slot % 2)
        # Drop the matched pivot column and its negative for every source.
        pivot_pairs[rows, :, target] = np.inf
    return perm, signs, matched_d2


@np.errstate(over="ignore", invalid="ignore")
def align_chain(
    raw: Chain,
    rotation: varimax.VarimaxResult,
    pivot_index: int,
    order: MatchOrder = MatchOrder.BY_DESCENDING_NORM,
) -> tuple[Chain, AlignmentReport]:
    """Greedily align every rotated sample to the pivot sample, and apply it to ``raw``.

    ``rotation`` is the :class:`~factoralign.varimax.VarimaxResult` of
    ``raw``'s samples, as :func:`~factoralign.varimax.orthogonalize_chain`
    returns it.  The pivot is ``rotation.rotated[pivot_index]``, the index
    that :func:`~factoralign.pivot.select_pivot` returns, and each rotated
    sample is matched to it.  The aligned chain is
    ``raw.samples @ report.transform``, with ``raw``'s residual variances
    (they are per-variable, not per-factor); see :class:`AlignmentReport`
    for the transform.  Matches and losses equal :func:`greedy_match`'s and
    ``frobenius_norm``'s per rotated sample, bitwise.  Raises
    ``ValueError`` unless ``pivot_index`` is an integer in [0, T) and
    ``rotation.rotated`` has ``raw``'s shape, and :class:`NumericalError`
    naming the first sample whose matched distance or loss overflows.
    """
    if rotation.rotated.shape != raw.samples.shape:
        raise ValueError(f"shape mismatch: rotated {rotation.rotated.shape} vs {raw.samples.shape}")
    check_integers(pivot_index=pivot_index)
    if not 0 <= pivot_index < raw.n_samples:
        raise ValueError(f"pivot_index {pivot_index} is out of range for T={raw.n_samples}")
    # A sample of a validated stack, the pivot has its shape and is finite.
    pivot = rotation.rotated[pivot_index]

    perm, signs, matched_d2 = _greedy_match_chain(rotation.rotated, pivot, order)
    transform = np.take_along_axis(rotation.rotation, perm[:, None, :], axis=2)
    transform *= signs[:, None, :]
    aligned = raw.samples @ transform
    residual = aligned - pivot
    np.multiply(residual, residual, out=residual)
    # Summed over each sample's flat p*k entries, as frobenius_norm sums them.
    losses = np.sqrt(np.add.reduce(residual.reshape(raw.n_samples, -1), axis=1))
    finite = np.isfinite(matched_d2).all(axis=1) & np.isfinite(losses)
    if not finite.all():
        raise NumericalError(f"sample {int(np.argmin(finite))}: {_NON_FINITE_DISTANCE}")

    _warn_unstable_matches(np.count_nonzero(matched_d2 > _unstable_d2(pivot), axis=1), "samples")
    for arr in (perm, signs, transform):
        arr.flags.writeable = False
    return Chain(aligned, raw.residual_variances), AlignmentReport(perm, signs, losses, transform)


def align_posterior(
    raw: Chain,
    order: MatchOrder = MatchOrder.BY_DESCENDING_NORM,
    force_statistic: pivot_stage.PivotStatistic | None = None,
    infinite_fraction_threshold: float = pivot_stage.INFINITE_FRACTION_THRESHOLD,
    config: varimax.VarimaxConfig | None = None,
) -> tuple[Chain, dict, dict]:
    """Align a raw posterior chain: varimax, pivot, greedy matching, then diagnostics.

    The options are those of :func:`~factoralign.varimax.orthogonalize_chain`
    (``config``), :func:`~factoralign.pivot.select_pivot` and
    :func:`align_chain`.  The varimax result goes to both later stages: the
    pivot is chosen from its rotated stack, and :func:`align_chain` matches
    that stack and returns ``raw.samples @ transform``.  Returns
    ``(aligned, body, seconds)``: the aligned chain; the ``alignment`` and
    ``diagnostics`` blocks of the ``align`` report, the latter
    :func:`~factoralign.diagnostics.build_report` without the raw chain's
    per-entry ESS; and the ``varimax``, ``pivot``, ``match`` and
    ``diagnostics`` seconds, each from the end of the stage before.

    ``comparisons_per_sample`` counts the greedy rule's work per sample, as
    the tests' per-column scan evaluates it: k(k+1) candidate distances under
    the drop-after-match rule, plus the k ordering norms when sorting by
    norm.  It is not the kernel's work: the one batched kernel computes all
    2k^2 distances of every sample up front.
    """
    # Each stage is looked up on its module at call time, not bound at import,
    # so that a wrapper set on the module attribute (bench/tracing.py times
    # the stages that way) sees the call.
    stamps = [time.perf_counter()]
    rotation = varimax.orthogonalize_chain(raw, config)
    stamps.append(time.perf_counter())
    selection = pivot_stage.select_pivot(
        rotation.rotated, force_statistic, infinite_fraction_threshold
    )
    stamps.append(time.perf_counter())
    aligned, report = align_chain(raw, rotation, selection.index, order)
    stamps.append(time.perf_counter())
    metrics = diagnostics.build_report(raw, aligned)
    del metrics["per_entry_ess_raw"]
    stamps.append(time.perf_counter())

    k = raw.n_factors
    norm_evals = k if order is MatchOrder.BY_DESCENDING_NORM else 0
    alignment = {
        "order": order.value,
        "pivot_index": selection.index,
        "pivot_statistic": selection.statistic_used.value,
        # A rank-deficient sample's condition number is +inf: null in JSON.
        "pivot_statistics": [
            value if math.isfinite(value) else None for value in selection.statistics.tolist()
        ],
        "comparisons_per_sample": k * (k + 1) + norm_evals,
        "total_loss": float(np.sum(report.losses)),
        "losses": report.losses.tolist(),
        "permutations": [
            {"perm": perm, "signs": signs}
            for perm, signs in zip(report.perm.tolist(), report.signs.tolist())
        ],
    }
    seconds = dict(zip(("varimax", "pivot", "match", "diagnostics"), np.diff(stamps).tolist()))
    return aligned, {"alignment": alignment, "diagnostics": metrics}, seconds
