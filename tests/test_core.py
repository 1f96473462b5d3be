import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factoralign
from factoralign import (
    Chain,
    SignedPermutation,
    apply_signed_permutation,
    column_l2_norms,
    compose,
    frobenius_norm,
    random_signed_permutation,
)


def test_package_reexports_are_in_submodule_all():
    # every public name the package imports from a submodule is also public there
    tree = ast.parse(Path(factoralign.__file__).read_text())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name in factoralign.__all__
    ]
    assert len(reexports) == len(factoralign.__all__)
    missing = [
        (module, name)
        for module, name in reexports
        if name not in importlib.import_module(f"factoralign.{module}").__all__
    ]
    assert missing == []


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


def test_column_norms_identity():
    np.testing.assert_array_equal(column_l2_norms(np.eye(3)), np.ones(3))


def test_column_norms_hand_case():
    norms = column_l2_norms([[1.0, 2.0], [0.0, 2.0]])
    np.testing.assert_allclose(norms, [1.0, 2.0 * np.sqrt(2.0)], rtol=1e-15)


def test_column_norms_match_column_slices():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((7, 4))
    norms = column_l2_norms(m)
    for j in range(4):
        assert norms[j] == pytest.approx(frobenius_norm(m[:, [j]]), rel=1e-14)


def test_apply_identity_is_noop():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(apply_signed_permutation(m, SignedPermutation.identity(3)), m)


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
    np.testing.assert_array_equal(np.sort(column_l2_norms(out)), np.sort(column_l2_norms(m)))


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_signed_permutation(np.ones((3, 2)), SignedPermutation.identity(3))


def test_compose_identity_is_unit():
    rng = np.random.default_rng(6)
    sp = random_signed_permutation(5, rng)
    ident = SignedPermutation.identity(5)
    assert compose(ident, sp) == sp
    assert compose(sp, ident) == sp


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(7)
    sp = random_signed_permutation(6, rng)
    assert compose(sp, sp.inverse()) == SignedPermutation.identity(6)
    assert compose(sp.inverse(), sp) == SignedPermutation.identity(6)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((5, 4))
    sp1 = random_signed_permutation(4, rng)
    sp2 = random_signed_permutation(4, rng)
    sequential = apply_signed_permutation(apply_signed_permutation(m, sp1), sp2)
    np.testing.assert_array_equal(apply_signed_permutation(m, compose(sp1, sp2)), sequential)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(SignedPermutation.identity(2), SignedPermutation.identity(3))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 8))
def test_compose_is_associative(seed, k):
    rng = np.random.default_rng(seed)
    a, b, c = (random_signed_permutation(k, rng) for _ in range(3))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


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


def test_signed_permutation_rejects_bad_signs():
    with pytest.raises(ValueError):
        SignedPermutation([0, 1], [1, 2])


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
