import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from factoralign import (
    Chain,
    MatchOrder,
    NumericalError,
    SignedPermutation,
    VarimaxConfig,
    align_chain,
    align_posterior,
    apply_signed_permutation,
    brute_force_match,
    exact_match_assignment,
    frobenius_norm,
    greedy_match,
    match_loss,
    orthogonalize_chain,
    random_signed_permutation,
    select_pivot,
)
from factoralign.align import (
    _NON_FINITE_DISTANCE,
    _assignment,
    _permutations,
    _signed_d2,
    _unstable_d2,
)

from conftest import unrotated


def _greedy_match_stats(
    a: np.ndarray, pivot: np.ndarray, order: MatchOrder
) -> tuple[SignedPermutation, int, int, int]:
    """Reference for greedy_match: the rule as a per-sample, per-column scan.

    Returns (match, distance evals, norm evals, unstable count).  Inputs are
    assumed validated; ordering uses squared norms, which sort identically
    to norms.
    """
    k = a.shape[1]
    if order is MatchOrder.BY_DESCENDING_NORM:
        sq_norms = np.einsum("ij,ij->j", a, a).tolist()
        # Descending norm, ties to the lower source index.
        source_order = sorted(range(k), key=lambda j: (-sq_norms[j], j))
        n_norm_evals = k
    else:
        source_order = range(k)
        n_norm_evals = 0

    sample_cols = np.ascontiguousarray(a.T)
    pivot_cols = np.ascontiguousarray(pivot.T)
    unstable_d2 = _unstable_d2(pivot)

    available = list(range(k))
    perm = np.empty(k, dtype=np.intp)
    signs = np.empty(k, dtype=np.int64)
    n_distance_evals = 0
    n_unstable = 0
    for j in source_order:
        col = sample_cols[j]
        best_d2 = np.inf
        best_h = -1
        best_sign = 1
        # Candidates scanned in ascending pivot index, + before -, so ties
        # resolve to the lower index and the positive sign.
        for h in available:
            diff = col - pivot_cols[h]
            d2_plus = float(diff @ diff)
            summ = col + pivot_cols[h]
            d2_minus = float(summ @ summ)
            n_distance_evals += 2
            if d2_plus < best_d2:
                best_d2, best_h, best_sign = d2_plus, h, 1
            if d2_minus < best_d2:
                best_d2, best_h, best_sign = d2_minus, h, -1
        if best_h < 0:
            # Every candidate overflowed to +inf.
            raise NumericalError(_NON_FINITE_DISTANCE)
        perm[best_h] = j
        signs[best_h] = best_sign
        available.remove(best_h)
        if best_d2 > unstable_d2:
            n_unstable += 1

    return SignedPermutation(perm, signs), n_distance_evals, n_norm_evals, n_unstable


def _brute_force_reference(a: np.ndarray, pivot: np.ndarray) -> SignedPermutation:
    """Reference for brute_force_match: per-pair scalar distances, then a scan.

    Permutations are scanned lexicographically with each column's sign
    chosen as + at exact ties, and the first strict minimizer wins.  Inputs
    are assumed validated and of the same shape, with finite distances.
    """
    k = a.shape[1]
    d2_plus = np.empty((k, k))
    d2_minus = np.empty((k, k))
    for j in range(k):
        for h in range(k):
            diff = a[:, j] - pivot[:, h]
            d2_plus[j, h] = float(diff @ diff)
            summ = a[:, j] + pivot[:, h]
            d2_minus[j, h] = float(summ @ summ)

    best_total = np.inf
    best_perm: tuple[int, ...] | None = None
    best_signs: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(k)):
        total = 0.0
        signs = []
        for h in range(k):
            dp = d2_plus[perm[h], h]
            dm = d2_minus[perm[h], h]
            if dp <= dm:
                total += dp
                signs.append(1)
            else:
                total += dm
                signs.append(-1)
        if total < best_total:
            best_total = total
            best_perm = perm
            best_signs = tuple(signs)
    assert best_perm is not None
    return SignedPermutation(np.array(best_perm, dtype=np.intp), np.array(best_signs, dtype=np.int64))


def noisy_signed_copy(pivot, rng, noise=0.01):
    sp = random_signed_permutation(pivot.shape[1], rng)
    return apply_signed_permutation(pivot, sp) + noise * rng.standard_normal(pivot.shape)


def test_match_loss_zero_for_identical():
    rng = np.random.default_rng(40)
    m = rng.standard_normal((6, 3))
    assert match_loss(m, SignedPermutation([0, 1, 2], [1, 1, 1]), m) == 0.0


def test_match_loss_hand_value():
    a = np.array([[1.0], [0.0]])
    p = np.array([[0.0], [1.0]])
    assert match_loss(a, SignedPermutation([0], [1]), p) == pytest.approx(np.sqrt(2.0))


def test_match_loss_sign_flip_recovers_pivot():
    rng = np.random.default_rng(41)
    p = rng.standard_normal((5, 3))
    sp = SignedPermutation(np.arange(3), -np.ones(3, dtype=np.int64))
    assert match_loss(-p, sp, p) == 0.0


def test_match_loss_shape_mismatch():
    with pytest.raises(ValueError):
        match_loss(np.ones((3, 2)), SignedPermutation([0, 1], [1, 1]), np.ones((4, 2)))


def test_greedy_identity_on_equal_inputs():
    rng = np.random.default_rng(42)
    p = rng.standard_normal((7, 4))
    sp = greedy_match(p, p)
    assert sp == SignedPermutation([0, 1, 2, 3], [1, 1, 1, 1])


def test_greedy_recovers_constructed_inverse():
    # pivot columns (c1, c2) with distinct norms; sample is (-c2, c1)
    c1 = np.array([1.0, 0.0, 0.0])
    c2 = np.array([0.0, 2.0, 1.0])
    pivot = np.column_stack([c1, c2])
    sample = np.column_stack([-c2, c1])
    sp = greedy_match(sample, pivot)
    np.testing.assert_array_equal(apply_signed_permutation(sample, sp), pivot)
    assert match_loss(sample, sp, pivot) == 0.0


def test_greedy_matches_exact_at_low_noise():
    rng = np.random.default_rng(43)
    for _ in range(25):
        pivot = rng.standard_normal((12, 4))
        sample = noisy_signed_copy(pivot, rng, noise=0.01)
        gl = match_loss(sample, greedy_match(sample, pivot), pivot)
        el = match_loss(sample, exact_match_assignment(sample, pivot), pivot)
        assert gl == pytest.approx(el, rel=1e-12)


def test_greedy_natural_column_order():
    rng = np.random.default_rng(44)
    pivot = rng.standard_normal((9, 3))
    sample = noisy_signed_copy(pivot, rng)
    order = MatchOrder.NATURAL_COLUMN_ORDER
    sp = greedy_match(sample, pivot, order)
    oracle_sp, n_dist, n_norm, _ = _greedy_match_stats(sample, pivot, order)
    assert sp == oracle_sp
    assert n_norm == 0
    assert n_dist == 3 * 4
    aligned = apply_signed_permutation(sample, sp)
    assert frobenius_norm(aligned - pivot) < 0.5


def test_greedy_tie_breaks_prefer_lower_index_and_plus_sign():
    # a zero sample column ties against every signed pivot column; the lowest
    # pivot index and the + sign must win
    pivot = np.column_stack([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    sample = np.zeros((2, 2))
    sp = greedy_match(sample, pivot)
    assert sp.perm.tolist() == [0, 1]
    assert sp.signs.tolist() == [1, 1]


def test_greedy_distance_evaluation_count():
    rng = np.random.default_rng(45)
    for k in (1, 2, 5, 8):
        pivot = rng.standard_normal((10, k))
        sample = noisy_signed_copy(pivot, rng)
        _, n_dist, n_norm, _ = _greedy_match_stats(sample, pivot, MatchOrder.BY_DESCENDING_NORM)
        assert n_dist == k * (k + 1)
        assert n_norm == k


def test_greedy_objective_invariant_under_source_relabeling():
    rng = np.random.default_rng(46)
    pivot = rng.standard_normal((10, 4)) * np.array([1.0, 1.5, 2.0, 2.5])
    sample = noisy_signed_copy(pivot, rng)
    base_loss = match_loss(sample, greedy_match(sample, pivot), pivot)
    for _ in range(5):
        shuffled = apply_signed_permutation(sample, random_signed_permutation(4, rng))
        loss = match_loss(shuffled, greedy_match(shuffled, pivot), pivot)
        assert loss == pytest.approx(base_loss, rel=1e-10)


def test_exact_identity_on_equal_inputs():
    rng = np.random.default_rng(47)
    p = rng.standard_normal((6, 5))
    sp = exact_match_assignment(p, p)
    assert match_loss(p, sp, p) == 0.0


def test_exact_equals_brute_force_small_k():
    rng = np.random.default_rng(48)
    # One case at the brute-force cap, k=8: it scans 8! permutations.
    for k, cases in ((1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (6, 8), (7, 8), (8, 1)):
        for _ in range(cases):
            pivot = rng.standard_normal((8, k))
            sample = noisy_signed_copy(pivot, rng, noise=0.5)
            el = match_loss(sample, exact_match_assignment(sample, pivot), pivot)
            bl = match_loss(sample, brute_force_match(sample, pivot), pivot)
            assert el == bl


def test_exact_handles_cost_ties_from_duplicate_columns():
    rng = np.random.default_rng(49)
    col = rng.standard_normal(7)
    pivot = np.column_stack([col, col, rng.standard_normal(7)])
    sample = noisy_signed_copy(pivot, rng, noise=0.05)
    sp = exact_match_assignment(sample, pivot)
    assert sorted(sp.perm.tolist()) == [0, 1, 2]
    el = match_loss(sample, sp, pivot)
    bl = match_loss(sample, brute_force_match(sample, pivot), pivot)
    assert el == pytest.approx(bl, rel=1e-12)


def test_assignment_attains_scipy_optimum():
    # scipy is the oracle here only; the package solves on its own.
    rng = np.random.default_rng(53)
    for k in range(1, 31):
        for trial in range(12):
            cost = rng.random((k, k))
            tied = trial % 3 == 0
            if tied:
                cost = np.round(4.0 * cost) / 4.0
            rows = _assignment(cost.tolist())
            ref_rows, ref_cols = linear_sum_assignment(cost)
            assert sorted(rows) == list(range(k))
            assert math.fsum(cost[rows, range(k)]) == math.fsum(cost[ref_rows, ref_cols])
            if not tied:
                assert rows == ref_rows[np.argsort(ref_cols)].tolist()


def test_exact_equals_scipy_assignment():
    rng = np.random.default_rng(54)
    for k in (1, 2, 3, 5, 8, 13, 21, 30):
        for _ in range(6):
            # The solve runs on the cost scaled to below 1, at any input scale.
            scale = 10.0 ** rng.integers(-150, 151)
            pivot = scale * rng.standard_normal((k + 4, k))
            sample = scale * rng.standard_normal((k + 4, k))
            d2 = _signed_d2(sample[None], pivot)[0]
            d2_plus, d2_minus = d2[:, 0::2], d2[:, 1::2]
            ref_rows, ref_cols = linear_sum_assignment(np.minimum(d2_plus, d2_minus))
            sp = exact_match_assignment(sample, pivot)
            np.testing.assert_array_equal(sp.perm, ref_rows[np.argsort(ref_cols)])
            np.testing.assert_array_equal(sp.signs, np.where(d2_plus <= d2_minus, 1, -1)[sp.perm, range(k)])


def test_exact_raises_on_non_finite_cost():
    # Finite loadings whose squared distances overflow.  The exhaustive
    # search once failed here on a bare AssertionError.
    rng = np.random.default_rng(55)
    pivot = rng.standard_normal((6, 3))
    sample = pivot.copy()
    sample[:, 1] *= 1e200
    for matcher in (exact_match_assignment, brute_force_match):
        with pytest.raises(NumericalError, match=_NON_FINITE_DISTANCE):
            matcher(sample, pivot)


def test_brute_force_k1_sign_flip():
    p = np.array([[1.0], [2.0]])
    sp = brute_force_match(-p, p)
    np.testing.assert_array_equal(sp.perm, [0])
    np.testing.assert_array_equal(sp.signs, [-1])


def test_brute_force_k2_hand_instance():
    # sample columns are (p2, -p1); aligning back needs output col 0 = -source 1
    rng = np.random.default_rng(50)
    pivot = rng.standard_normal((5, 2))
    sample = np.column_stack([pivot[:, 1], -pivot[:, 0]])
    sp = brute_force_match(sample, pivot)
    np.testing.assert_array_equal(apply_signed_permutation(sample, sp), pivot)
    np.testing.assert_array_equal(sp.perm, [1, 0])
    np.testing.assert_array_equal(sp.signs, [-1, 1])
    assert match_loss(sample, sp, pivot) == 0.0


def test_brute_force_dominates_greedy():
    rng = np.random.default_rng(51)
    for _ in range(10):
        pivot = rng.standard_normal((9, 5))
        sample = rng.standard_normal((9, 5))
        bl = match_loss(sample, brute_force_match(sample, pivot), pivot)
        gl = match_loss(sample, greedy_match(sample, pivot), pivot)
        assert bl <= gl + 1e-12


def _matching_case(rng, k: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """A noisy signed copy of a pivot, with repeated columns or tied costs by ``kind``."""
    pivot = rng.standard_normal((k + 2, k))
    if kind == "duplicated":
        pivot[:, -1] = pivot[:, 0]
    elif kind == "negated":
        pivot[:, -1] = -pivot[:, 0]
    sample = noisy_signed_copy(pivot, rng, noise=0.5)
    if kind == "negated":
        sample[:, 0] = -sample[:, -1]
    elif kind == "tied":
        # Half-integer entries give exactly tied costs, and a zero column
        # is equally far from each pivot column and its negative.
        pivot, sample = np.round(2 * pivot) / 2, np.round(2 * sample) / 2
        sample[:, 0] = 0.0
    return sample, pivot


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 7),
    kind=st.sampled_from(["random", "duplicated", "negated", "tied"]),
)
@example(seed=8, k=8, kind="tied")
def test_brute_force_equals_scalar_scan(seed, k, kind):
    sample, pivot = _matching_case(np.random.default_rng(seed), k, kind)
    sp = brute_force_match(sample, pivot)
    ref = _brute_force_reference(sample, pivot)
    np.testing.assert_array_equal(sp.perm, ref.perm)
    np.testing.assert_array_equal(sp.signs, ref.signs)


def test_brute_force_permutations_are_cached_read_only_and_lexicographic():
    # The (perm, signs) tie-break takes the first minimizer in this order.
    for k in range(1, 9):
        perms = _permutations(k)
        assert _permutations(k) is perms
        assert not perms.flags.writeable
        np.testing.assert_array_equal(perms, list(itertools.permutations(range(k))))


def test_brute_force_refuses_large_k():
    with pytest.raises(ValueError, match="k <= 8"):
        brute_force_match(np.ones((10, 9)), np.ones((10, 9)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 5))
def test_matchers_always_return_bijections(seed, k):
    rng = np.random.default_rng(seed)
    pivot = rng.standard_normal((6, k))
    sample = rng.standard_normal((6, k))
    for matcher in (greedy_match, exact_match_assignment, brute_force_match):
        sp = matcher(sample, pivot)
        assert sorted(sp.perm.tolist()) == list(range(k))
        assert set(sp.signs.tolist()) <= {-1, 1}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_exact_never_exceeds_greedy(seed):
    rng = np.random.default_rng(seed)
    pivot = rng.standard_normal((7, 4))
    sample = rng.standard_normal((7, 4))
    el = match_loss(sample, exact_match_assignment(sample, pivot), pivot)
    gl = match_loss(sample, greedy_match(sample, pivot), pivot)
    assert el <= gl + 1e-12


def test_align_chain_identical_copies_of_pivot():
    rng = np.random.default_rng(52)
    pivot = rng.standard_normal((8, 3))
    chain = Chain(np.stack([pivot] * 5))
    _, body, _ = align_posterior(chain)
    alignment = body["alignment"]
    assert alignment["total_loss"] == 0.0
    assert alignment["permutations"] == [{"perm": [0, 1, 2], "signs": [1, 1, 1]}] * 5


def test_align_chain_zero_loss_for_signed_permutations_of_one_matrix():
    rng = np.random.default_rng(53)
    base = rng.standard_normal((12, 4)) * np.array([1.0, 1.4, 1.9, 2.6])
    samples = np.stack(
        [apply_signed_permutation(base, random_signed_permutation(4, rng)) for _ in range(15)]
    )
    chain = Chain(samples)
    sel = select_pivot(chain.samples)
    aligned, report = align_chain(chain, unrotated(chain), sel.index)
    assert report.losses.max() <= 1e-10
    for t in range(chain.n_samples):
        np.testing.assert_allclose(aligned.samples[t], chain.samples[sel.index], atol=1e-12)


def test_align_chain_preserves_gram_matrices():
    rng = np.random.default_rng(54)
    chain = Chain(rng.standard_normal((6, 10, 3)))
    sel = select_pivot(chain.samples)
    aligned, _ = align_chain(chain, unrotated(chain), sel.index)
    for t in range(6):
        gram = chain.samples[t] @ chain.samples[t].T
        drift = frobenius_norm(aligned.samples[t] @ aligned.samples[t].T - gram)
        assert drift <= 1e-12 * frobenius_norm(gram)


def test_align_chain_report_invariants():
    rng = np.random.default_rng(55)
    chain = Chain(rng.standard_normal((7, 9, 4)))
    aligned, body, _ = align_posterior(chain)
    alignment = body["alignment"]
    index = alignment["pivot_index"]
    assert alignment["comparisons_per_sample"] == 4 * 5 + 4
    assert alignment["total_loss"] == pytest.approx(sum(alignment["losses"]))
    for t in range(7):
        direct = frobenius_norm(aligned.samples[t] - aligned.samples[index])
        assert alignment["losses"][t] == pytest.approx(direct, abs=1e-10)
    # pivot sample aligns to itself exactly
    assert alignment["losses"][index] == 0.0
    assert alignment["permutations"][index] == {"perm": [0, 1, 2, 3], "signs": [1, 1, 1, 1]}


def test_align_chain_rejects_a_pivot_index_outside_the_chain():
    rng = np.random.default_rng(57)
    chain = Chain(rng.standard_normal((4, 6, 2)))
    for index in (-1, 4):
        with pytest.raises(ValueError, match=rf"pivot_index {index} .* T=4"):
            align_chain(chain, unrotated(chain), index)
    for index in (1.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            align_chain(chain, unrotated(chain), index)


def test_align_chain_passes_residual_variances_through():
    rng = np.random.default_rng(58)
    variances = rng.uniform(0.1, 3.0, size=(5, 7))
    chain = Chain(rng.standard_normal((5, 7, 2)), residual_variances=variances)
    sel = select_pivot(chain.samples)
    aligned, _ = align_chain(chain, unrotated(chain), sel.index)
    np.testing.assert_array_equal(aligned.residual_variances, variances)


def _chain_with_ties(rng, t_len, p, k, scale):
    """A chain, and its pivot index, in which some samples carry exact or rounding-level ties.

    Exact ties come from zero columns, duplicated and negated columns, and
    samples that are the pivot or a signed permutation of it.  A column at
    the midpoint of two signed pivot columns is equidistant from both in
    exact arithmetic, so rounding decides its match.
    """
    samples = scale * rng.standard_normal((t_len, p, k))
    pivot_index = int(rng.integers(t_len))
    for t in range(t_len):
        kind = rng.integers(6)
        i, j = rng.integers(k, size=2)
        if kind == 1:
            samples[t, :, j] = 0.0
        elif kind == 2:
            samples[t, :, j] = samples[t, :, i]
        elif kind == 3:
            samples[t, :, j] = -samples[t, :, i]
    pivot = samples[pivot_index].copy()
    for t in range(t_len):
        kind = rng.integers(4)
        if t == pivot_index:
            continue
        if kind == 1:
            samples[t] = pivot
        elif kind == 2:
            samples[t] = apply_signed_permutation(pivot, random_signed_permutation(k, rng))
        elif kind == 3:
            for j in range(k):
                h1, h2 = rng.integers(k, size=2)
                samples[t, :, j] = 0.5 * (pivot[:, h1] + rng.choice([-1.0, 1.0]) * pivot[:, h2])
    return Chain(samples), pivot_index


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    seed=st.integers(0, 2**32 - 1),
    t_len=st.integers(1, 40),
    k=st.integers(1, 8),
    extra_rows=st.integers(0, 22),
    exponent=st.integers(-3, 3),
    order=st.sampled_from(list(MatchOrder)),
)
def test_align_chain_equals_per_sample_greedy(caplog, seed, t_len, k, extra_rows, exponent, order):
    p = min(k + extra_rows, 30)
    rng = np.random.default_rng(seed)
    chain, pivot_index = _chain_with_ties(rng, t_len, p, k, 10.0**exponent)
    pivot = chain.samples[pivot_index]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="factoralign.align"):
        aligned, report = align_chain(chain, unrotated(chain), pivot_index, order)
    records = list(caplog.records)

    assert report.perm.shape == report.signs.shape == (t_len, k)
    assert report.perm.dtype == np.intp and report.signs.dtype == np.int64
    unstable = 0
    for t in range(t_len):
        sp, n_dist, n_norm, n_unstable = _greedy_match_stats(chain.samples[t], pivot, order)
        expected = apply_signed_permutation(chain.samples[t], sp)
        assert np.array_equal(report.perm[t], sp.perm)
        assert np.array_equal(report.signs[t], sp.signs)
        assert np.array_equal(aligned.samples[t], expected)
        assert report.losses[t] == frobenius_norm(expected - pivot)
        unstable += n_unstable
        # The public single-sample call: same match, and one warning exactly
        # when the oracle counts unstable columns.
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="factoralign.align"):
            assert greedy_match(chain.samples[t], pivot, order) == sp
        assert [r.args[0] for r in caplog.records] == ([n_unstable] if n_unstable else [])
    if unstable:
        assert len(records) == 1 and records[0].args[0] == unstable
    else:
        assert records == []
    # The report body counts the rule's work as the oracle does.
    alignment = align_posterior(chain, order)[1]["alignment"]
    assert alignment["comparisons_per_sample"] == n_dist + n_norm
    assert alignment["total_loss"] == float(np.sum(alignment["losses"]))


def test_align_chain_report_arrays_are_read_only():
    rng = np.random.default_rng(59)
    chain = Chain(rng.standard_normal((4, 6, 3)))
    _, report = align_chain(chain, unrotated(chain), select_pivot(chain.samples).index)
    for arr in (report.perm, report.signs):
        with pytest.raises(ValueError):
            arr[0, 0] = 0


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e60])
@pytest.mark.parametrize("k", range(1, 9))
def test_aligned_chain_is_raw_times_transform(k, scale, normalize):
    # numpy does not promise that raw @ Q rounds as the rotated stack's
    # columns do, so these equalities are pinned bitwise.  The chain's
    # samples are views of a (T, k, p) array, as read_chain returns them.
    rng = np.random.default_rng([k, int(normalize), 62])
    for p in (k, 2 * k + 3, 40):
        raw = Chain((scale * rng.standard_normal((25, k, p))).transpose(0, 2, 1))
        rotation = orthogonalize_chain(raw, VarimaxConfig(normalize=normalize))
        pivot_index = select_pivot(rotation.rotated).index
        for order in MatchOrder:
            aligned, report = align_chain(raw, rotation, pivot_index, order)
            perm, signs, transform = report.perm, report.signs, report.transform
            # The gather over the rotated stack that align_chain once ran.
            gathered = np.take_along_axis(rotation.rotated, perm[:, None, :], axis=2)
            assert np.array_equal(aligned.samples, gathered * signs[:, None, :])
            assert np.array_equal(aligned.samples, raw.samples @ transform)
            assert transform.shape == (25, k, k) and not transform.flags.writeable
            for t in range(25):
                q = transform[t]
                assert np.array_equal(q, rotation.rotation[t][:, perm[t]] * signs[t])
                assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-12
            with pytest.raises(ValueError):
                transform[0, 0, 0] = 0.0


def test_align_chain_rejects_another_chains_rotation():
    rng = np.random.default_rng(63)
    chain = Chain(rng.standard_normal((6, 8, 3)))
    for other in ((5, 8, 3), (6, 9, 3), (6, 8, 2)):
        rotation = orthogonalize_chain(Chain(rng.standard_normal(other)))
        with pytest.raises(ValueError, match=r"^shape mismatch: rotated \("):
            align_chain(chain, rotation, 0)


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_overflowing_distances_raise_numerical_error(scale):
    # Every candidate distance overflows to +inf; the per-sample scan once
    # left its best index at -1 and failed on an unrelated list error.
    rng = np.random.default_rng(60)
    chain = Chain(scale * rng.standard_normal((20, 6, 2)))
    with pytest.raises(NumericalError, match="sample 0: matching distance"):
        align_chain(chain, unrotated(chain), select_pivot(chain.samples).index)
    with pytest.raises(NumericalError, match="matching distance"):
        greedy_match(chain.samples[3], chain.samples[0])


def test_overflowing_loss_names_the_first_bad_sample():
    # Each matched column distance of sample 2 is finite (about 1.4e308),
    # but their sum overflows.
    rng = np.random.default_rng(61)
    samples = rng.standard_normal((4, 1, 2))
    samples[2] = 1.2e154
    samples[3] = 1.3e154
    chain = Chain(samples)
    with pytest.raises(NumericalError, match="sample 2: matching distance"):
        align_chain(chain, unrotated(chain), 0)
