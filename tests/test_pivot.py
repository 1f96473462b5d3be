import math

import numpy as np
import pytest

from factoralign import (
    Chain,
    PivotStatistic,
    apply_signed_permutation,
    condition_number,
    random_signed_permutation,
    select_pivot,
    singular_values,
)


def test_singular_values_identity():
    np.testing.assert_allclose(singular_values(np.eye(3)), np.ones(3))


def test_singular_values_diagonal_case():
    m = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(singular_values(m), [3.0, 1.0])


def test_singular_values_match_characteristic_roots():
    # For k=2 the squared singular values solve the quadratic
    # s^2 - tr(M^T M) s + det(M^T M) = 0.
    rng = np.random.default_rng(30)
    m = rng.standard_normal((4, 2))
    gram = m.T @ m
    tr, det = gram[0, 0] + gram[1, 1], gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    roots = np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])
    np.testing.assert_allclose(singular_values(m) ** 2, roots, rtol=1e-9)


def test_singular_values_reject_wide_matrix():
    with pytest.raises(ValueError):
        singular_values(np.ones((2, 3)))


def test_condition_number_identity():
    assert condition_number(np.eye(3)) == pytest.approx(1.0)


def test_condition_number_diagonal_case():
    m = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert condition_number(m) == pytest.approx(3.0)


def test_condition_number_duplicate_column_is_infinite():
    col = np.arange(1.0, 5.0)
    m = np.column_stack([col, col])
    assert condition_number(m) == math.inf


def test_condition_number_invariant_under_signed_permutation():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((8, 3))
    sp = random_signed_permutation(3, rng)
    a = condition_number(m)
    b = condition_number(apply_signed_permutation(m, sp))
    assert abs(a - b) <= 1e-10 * a


def test_select_pivot_singleton():
    rng = np.random.default_rng(32)
    chain = Chain(rng.standard_normal((1, 5, 2)))
    sel = select_pivot(chain)
    assert sel.index == 0
    np.testing.assert_array_equal(sel.pivot, chain.samples[0])


def _chain_with_condition_numbers(kappas: list[float]) -> Chain:
    # Diagonal 3x2 samples: singular values (kappa, 1) give condition kappa;
    # a duplicated-column sample stands in for infinity.
    samples = []
    for kappa in kappas:
        if math.isinf(kappa):
            samples.append(np.column_stack([np.ones(3), np.ones(3)]))
        else:
            m = np.zeros((3, 2))
            m[0, 0] = kappa
            m[1, 1] = 1.0
            samples.append(m)
    return Chain(np.stack(samples))


def test_select_pivot_median_of_three():
    chain = _chain_with_condition_numbers([1.2, 7.0, 2.5])
    sel = select_pivot(chain)
    assert sel.index == 2
    np.testing.assert_allclose(sel.statistics, [1.2, 7.0, 2.5])
    assert sel.statistic_used is PivotStatistic.CONDITION_NUMBER


def test_select_pivot_lower_median_with_infinite_sample():
    # Lower-median rule: rank floor((T+1)/2) = 2 of (1, 2, 3, inf) is 2.
    # One infinite sample out of four exceeds the 10% fallback threshold, so
    # the statistic is forced here to exercise the median rule in isolation;
    # the automatic fallback is covered below.
    chain = _chain_with_condition_numbers([1.0, 2.0, 3.0, math.inf])
    sel = select_pivot(chain, force_statistic=PivotStatistic.CONDITION_NUMBER)
    assert sel.statistic_used is PivotStatistic.CONDITION_NUMBER
    assert sel.index == 1
    assert sel.statistics[3] == math.inf


def test_select_pivot_fallback_on_infinite_fraction():
    chain = _chain_with_condition_numbers([1.0, 2.0, 3.0, math.inf])
    sel = select_pivot(chain)
    assert sel.statistic_used is PivotStatistic.LARGEST_SINGULAR_VALUE
    # sigma_max values are (1, 2, 3, sqrt(6)); lower median is 2 at index 1
    assert sel.index == 1


def test_select_pivot_no_fallback_below_threshold():
    kappas = [1.0] * 10 + [math.inf]
    chain = _chain_with_condition_numbers(kappas)
    sel = select_pivot(chain)  # 1/11 < 10%: keep the condition number
    assert sel.statistic_used is PivotStatistic.CONDITION_NUMBER


def test_select_pivot_force_largest_singular_value():
    chain = _chain_with_condition_numbers([1.2, 7.0, 2.5])
    sel = select_pivot(chain, force_statistic=PivotStatistic.LARGEST_SINGULAR_VALUE)
    assert sel.statistic_used is PivotStatistic.LARGEST_SINGULAR_VALUE
    np.testing.assert_allclose(sel.statistics, [1.2, 7.0, 2.5])  # sigma_max here


def test_select_pivot_tie_breaks_to_smallest_index():
    chain = _chain_with_condition_numbers([4.0, 4.0, 4.0])
    sel = select_pivot(chain)
    assert sel.index == 0  # lower median rank 2 ties at 4.0; earliest index wins


def test_select_pivot_deterministic():
    rng = np.random.default_rng(33)
    chain = Chain(rng.standard_normal((7, 6, 2)))
    a = select_pivot(chain)
    b = select_pivot(chain)
    assert a.index == b.index
    np.testing.assert_array_equal(a.statistics, b.statistics)


def test_select_pivot_statistic_is_lower_median():
    rng = np.random.default_rng(34)
    chain = Chain(rng.standard_normal((9, 8, 3)))
    sel = select_pivot(chain)
    value = sel.statistics[sel.index]
    t = len(sel.statistics)
    assert np.sum(sel.statistics <= value) >= (t + 1) // 2
    assert np.sum(sel.statistics >= value) >= t - (t + 1) // 2 + 1


def test_select_pivot_statistics_equal_per_sample_values():
    # The stacked SVD must reproduce the per-sample functions bit for bit,
    # including the +inf sentinel for a rank-deficient sample.
    rng = np.random.default_rng(35)
    col = rng.standard_normal(6)
    deficient = np.column_stack([col, col, rng.standard_normal(6)])
    samples = np.concatenate([rng.standard_normal((11, 6, 3)), deficient[None]])
    chain = Chain(samples)
    sel = select_pivot(chain)
    assert sel.statistic_used is PivotStatistic.CONDITION_NUMBER
    assert sel.statistics[-1] == math.inf
    np.testing.assert_array_equal(sel.statistics, [condition_number(s) for s in samples])

    # Two deficient samples of five trigger the sigma-max fallback.
    fallback = Chain(np.concatenate([samples[:3], deficient[None], deficient[None]]))
    sel = select_pivot(fallback)
    assert sel.statistic_used is PivotStatistic.LARGEST_SINGULAR_VALUE
    np.testing.assert_array_equal(
        sel.statistics, [singular_values(s)[0] for s in fallback.samples]
    )


def test_select_pivot_rejects_wide_chain():
    chain = Chain(np.random.default_rng(36).standard_normal((3, 2, 3)))
    with pytest.raises(ValueError, match="tall"):
        select_pivot(chain)


def test_select_pivot_rejects_threshold_outside_unit_interval():
    chain = _chain_with_condition_numbers([1.0, 2.0, 3.0])
    for threshold in (-1.0, -1e-9, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="infinite_fraction_threshold"):
            select_pivot(chain, infinite_fraction_threshold=threshold)
    for threshold in (0.0, 1.0):
        assert select_pivot(chain, infinite_fraction_threshold=threshold).index == 1
