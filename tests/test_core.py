import importlib
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factoralign
from factoralign import (
    Chain,
    SignedPermutation,
    apply_signed_permutation,
    frobenius_norm,
    random_signed_permutation,
)
from factoralign.core import scale_exponent


# The package's public names: each submodule's __all__ republished.
PUBLIC_API = [
    "AlignmentReport", "Chain", "ChainFileManifest", "DegenerateSeriesWarning", "FileFormatError",
    "GeneratorConfig", "MatchOrder", "NumericalError", "PivotSelection", "PivotStatistic",
    "SamplerConfig", "Scenario", "SignedPermutation", "SyntheticDataset",
    "VarimaxConfig", "VarimaxResult", "align_chain", "align_posterior", "apply_signed_permutation",
    "brute_force_match", "build_report", "covariance_discrepancy", "effective_sample_size",
    "exact_match_assignment", "export_traces", "frobenius_norm", "generate_dataset",
    "generate_sparse", "gibbs_sample", "greedy_match", "match_loss", "mean_ess_ratio",
    "orthogonalize_chain", "per_entry_ess", "random_signed_permutation", "read_chain",
    "read_dataset", "select_pivot", "varimax_rotate", "write_chain", "write_dataset",
]


def test_package_all_pins_the_public_api():
    assert len(set(factoralign.__all__)) == len(factoralign.__all__)
    assert sorted(factoralign.__all__) == PUBLIC_API
    submodules = [
        importlib.import_module(f"factoralign.{info.name}")
        for info in pkgutil.iter_modules(factoralign.__path__)
        if info.name != "__main__"
    ]
    for name in factoralign.__all__:
        owners = [module for module in submodules if name in module.__all__]
        assert len(owners) == 1, (name, [module.__name__ for module in owners])
        assert getattr(factoralign, name) is getattr(owners[0], name), name


def test_scale_exponent_of_zeros_and_signed_zeros_is_zero():
    assert scale_exponent(np.zeros(3)).tolist() == [0]
    assert scale_exponent(np.array([-0.0, 0.0])).tolist() == [0]
    assert scale_exponent(np.array([-0.0])).tolist() == [0]


@pytest.mark.parametrize(
    "values, exponent",
    [
        ([1.0], 1),
        ([0.5], 0),
        ([0.75, -0.25], 0),
        ([-3.0, 1.0], 2),  # the largest magnitude comes from -min
        ([np.finfo(float).max], 1024),
        ([np.finfo(float).tiny], -1021),
        ([5e-324], -1073),  # the smallest subnormal
        ([-5e-324, 0.0, 2.5e-323], -1071),  # 5 * 2**-1074
    ],
)
def test_scale_exponent_puts_the_largest_magnitude_in_half_to_one(values, exponent):
    x = np.array(values)
    e = scale_exponent(x)
    assert e.shape == (1,) and e.tolist() == [exponent]
    assert 0.5 <= np.max(np.abs(np.ldexp(x, -e))) < 1.0


def test_scale_exponent_keeps_reduced_axes():
    x = np.zeros((3, 2, 4))
    x[0, 1, 2] = -6.0  # 0.75 * 2**3
    x[2, 0, 0] = 2.0**-1060  # subnormal
    assert scale_exponent(x).shape == (1, 1, 1)
    e = scale_exponent(x, axis=(1, 2))
    assert e.shape == (3, 1, 1) and e.ravel().tolist() == [3, 0, -1059]
    rows = scale_exponent(x.reshape(3, -1), axis=1)
    assert rows.shape == (3, 1) and rows.ravel().tolist() == [3, 0, -1059]
    assert scale_exponent(x, axis=0).shape == (1, 2, 4)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True), min_size=1, max_size=8
    )
)
def test_scale_exponent_matches_frexp_of_the_largest_magnitude(values):
    x = np.array(values)
    assert scale_exponent(x).tolist() == [math.frexp(max(abs(v) for v in values))[1]]


def test_scale_exponent_allocates_nothing_the_size_of_its_input():
    x = np.random.default_rng(2).standard_normal((200, 50, 5))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scale_exponent(x, axis=(1, 2))
        scale_exponent(x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 10, peak


def test_frobenius_norm_zero_matrix():
    assert frobenius_norm(np.zeros((2, 2))) == 0.0


def test_frobenius_norm_3_4_5():
    assert frobenius_norm([[3.0, 0.0], [0.0, 4.0]]) == 5.0


def test_frobenius_norm_matches_scalar_loop():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 3))
    total = 0.0
    for i in range(5):
        for j in range(3):
            total += m[i, j] * m[i, j]
    assert frobenius_norm(m) == pytest.approx(np.sqrt(total), rel=1e-14)


def test_apply_identity_is_noop():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 3))
    identity = SignedPermutation([0, 1, 2], [1, 1, 1])
    np.testing.assert_array_equal(apply_signed_permutation(m, identity), m)


def test_apply_hand_case():
    # source column 1 negated into output column 0, source column 0 into output column 1
    sp = SignedPermutation([1, 0], [-1, 1])
    out = apply_signed_permutation([[1.0, 2.0], [3.0, 4.0]], sp)
    np.testing.assert_array_equal(out, [[-2.0, 1.0], [-4.0, 3.0]])


def test_apply_preserves_gram_matrix():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 5))
    sp = random_signed_permutation(5, rng)
    out = apply_signed_permutation(m, sp)
    gram = m @ m.T
    assert frobenius_norm(out @ out.T - gram) <= 1e-12 * frobenius_norm(gram)


def test_apply_preserves_column_norm_multiset():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 4))
    sp = random_signed_permutation(4, rng)
    out = apply_signed_permutation(m, sp)
    np.testing.assert_array_equal(
        np.sort(np.linalg.norm(out, axis=0)), np.sort(np.linalg.norm(m, axis=0))
    )


def test_apply_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="must have at least one row and one column"):
        apply_signed_permutation(np.zeros((0, 3)), SignedPermutation([0, 1, 2], [1, 1, 1]))


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_signed_permutation(np.ones((3, 2)), SignedPermutation([0, 1, 2], [1, 1, 1]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 8), p=st.integers(1, 10))
def test_apply_gram_invariance_property(seed, k, p):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((p, k))
    sp = random_signed_permutation(k, rng)
    out = apply_signed_permutation(m, sp)
    gram = m @ m.T
    assert frobenius_norm(out @ out.T - gram) <= 1e-12 * max(frobenius_norm(gram), 1e-30)


def test_signed_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        SignedPermutation([0, 0], [1, 1])


def test_signed_permutation_rejects_bad_shapes():
    with pytest.raises(ValueError, match="^perm and signs must be 1-d vectors of equal length$"):
        SignedPermutation([[0]], [[1]])
    with pytest.raises(ValueError, match="^signed permutation must have length >= 1$"):
        SignedPermutation([], [])


def test_signed_permutation_rejects_bad_signs():
    with pytest.raises(ValueError):
        SignedPermutation([0, 1], [1, 2])


@pytest.mark.parametrize(
    "perm, signs",
    [
        ([0.5, 1.7], [1.0, -1.9]),  # once truncated to perm [0, 1], signs [1, -1]
        ([0.0, 1.0], [1.0, -1.9]),
        ([1.0, 0.5], [1, 1]),
        ([math.nan, 1.0], [1, 1]),
        ([0, 1], [math.nan, 1]),
        ([0, 1], [1, -math.inf]),
    ],
)
def test_signed_permutation_rejects_non_integral_values(perm, signs):
    # Checked before the cast, which would truncate and warn on NaN.
    with pytest.raises(ValueError):
        SignedPermutation(perm, signs)


def test_signed_permutation_accepts_whole_numbers_of_any_type():
    want = SignedPermutation([1, 0], [-1, 1])
    assert SignedPermutation(np.array([1, 0], dtype=np.int32), np.array([-1, 1])) == want
    assert SignedPermutation([1.0, 0.0], np.array([-1.0, 1.0])) == want
    assert want.perm.dtype == np.intp and want.signs.dtype == np.int64


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain(np.ones((2, 3)))  # not 3-d
    with pytest.raises(ValueError):
        Chain(np.full((2, 3, 2), np.nan))
    with pytest.raises(ValueError):
        Chain(np.ones((2, 3, 2)), residual_variances=np.zeros((2, 3)))  # not positive
    with pytest.raises(ValueError):
        Chain(np.ones((2, 3, 2)), residual_variances=np.ones((3, 3)))  # wrong shape


def test_chain_properties_and_immutability():
    chain = Chain(np.ones((4, 3, 2)), residual_variances=np.ones((4, 3)))
    assert (chain.n_samples, chain.n_variables, chain.n_factors) == (4, 3, 2)
    with pytest.raises(ValueError):
        chain.samples[0, 0, 0] = 2.0
