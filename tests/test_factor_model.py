import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, eigh, solve_triangular

from factoralign import (
    Chain,
    GeneratorConfig,
    NumericalError,
    SamplerConfig,
    Scenario,
    frobenius_norm,
    generate_dataset,
    generate_sparse,
    gibbs_sample,
)
from factoralign import factor_model
from factoralign.factor_model import (
    _centered_r_factor,
    _draw_inverse_gamma,
    _factor_rows,
    _loading_rows,
    _residual_rates,
    block_sizes,
)


def inverse_root(precision: np.ndarray) -> np.ndarray:
    """The symmetric inverse square root Q^{-1/2}, from scipy's eigendecomposition of Q."""
    eigenvalues, basis = eigh(precision)
    return (basis / np.sqrt(eigenvalues)) @ basis.T


def loop_gibbs_sample(data, cfg: SamplerConfig, k: int) -> Chain:
    """Reference sampler on the full data, the loadings drawn one row at a time with scipy.

    Same conditionals, square roots and random stream as ``gibbs_sample``,
    but the factor step runs on all n centred rows X, with the n x k noise
    Z = Q_full z built from the sampler's draws z = [G; T]: Q_full is
    Q = X R^{-1}, from the sampler's R, followed by as many columns of an
    orthonormal completion as T has rows.  Then Z^T Z = z^T z and
    Z^T X = G^T R, so the reduction is checked and the two chains differ by
    rounding alone.  Each draw is Q^{-1} b + Q^{-1/2} z, the mean from a
    Cholesky solve and Q^{-1/2} from Q's own eigendecomposition.  Needs
    n > p, so that R is square.
    """
    data = np.asarray(data, dtype=np.float64)
    centered = data - data.mean(axis=0)
    n, p = centered.shape
    assert n > p
    _, r = _centered_r_factor(data)
    q = solve_triangular(r, centered.T, trans="T").T
    tail = min(n - p, k)
    q_full = np.hstack((q, np.linalg.qr(q, mode="complete")[0][:, p : p + tail]))
    rows = p + tail

    rng = np.random.default_rng(cfg.seed)
    loadings = rng.standard_normal((p, k))
    chi_squares = rng.chisquare(n - p - np.arange(tail), size=(cfg.iterations, tail))
    variances = np.ones(p)
    prior_precision = np.eye(k) / cfg.prior_loading_variance
    shape_post = cfg.prior_residual_shape + 0.5 * n
    loadings_draws, variance_draws = [], []
    for iteration in range(cfg.iterations):
        z = rng.standard_normal((rows + p, k))
        for i in range(tail):
            z[p + i, :i] = 0.0
            z[p + i, i] = np.sqrt(chi_squares[iteration, i])

        weighted = loadings / variances[:, None]
        precision = np.eye(k) + loadings.T @ weighted
        mean = cho_solve((cholesky(precision, lower=True), True), (centered @ weighted).T).T
        factors = mean + (q_full @ z[:rows]) @ inverse_root(precision)

        gram = factors.T @ factors
        projections = factors.T @ centered
        for j in range(p):
            row_precision = prior_precision + gram / variances[j]
            row_mean = cho_solve(
                (cholesky(row_precision, lower=True), True), projections[:, j] / variances[j]
            )
            loadings[j] = row_mean + inverse_root(row_precision) @ z[rows + j]

        residuals = centered - factors @ loadings.T
        rates = cfg.prior_residual_rate + 0.5 * np.sum(residuals * residuals, axis=0)
        variances = _draw_inverse_gamma(rng, shape_post, rates, size=p)
        if iteration >= cfg.burn_in:
            loadings_draws.append(loadings.copy())
            variance_draws.append(variances)
    return Chain(np.array(loadings_draws), np.array(variance_draws))


def _accepted_by_generator_and_sampler(p: int, k: int) -> None:
    """Build a generator config and run two sampler iterations at (p, k)."""
    GeneratorConfig(n=10, p=p, k=k, scenario=Scenario.INDEPENDENT, seed=0)
    data = np.random.default_rng(0).standard_normal((10, p))
    gibbs_sample(data, SamplerConfig(iterations=2, burn_in=0), k=k)


def test_identifiability_rule():
    _accepted_by_generator_and_sampler(50, 5)
    _accepted_by_generator_and_sampler(3, 1)  # boundary: (3-1)/2 = 1
    with pytest.raises(ValueError, match=r"k=2 with p=4 violates the identifiability rule"):
        GeneratorConfig(n=10, p=4, k=2, scenario=Scenario.INDEPENDENT, seed=0)
    with pytest.raises(ValueError, match=r"k=2 with p=4 violates the identifiability rule"):
        gibbs_sample(np.ones((10, 4)), SamplerConfig(iterations=2, burn_in=0), k=2)


def test_identifiability_rejects_nonpositive():
    with pytest.raises(ValueError, match="p and k must be >= 1"):
        GeneratorConfig(n=10, p=0, k=1, scenario=Scenario.INDEPENDENT, seed=0)
    with pytest.raises(ValueError, match="p and k must be >= 1"):
        gibbs_sample(np.ones((10, 0)), SamplerConfig(iterations=2, burn_in=0), k=1)


def test_generator_config_rejects_unidentifiable_k():
    with pytest.raises(ValueError, match=r"k <= \(p-1\)/2"):
        GeneratorConfig(n=10, p=50, k=30, scenario=Scenario.INDEPENDENT, seed=0)


def test_configs_reject_zero_counts():
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        GeneratorConfig(n=0, p=9, k=3, scenario=Scenario.SPARSE, seed=0)
    with pytest.raises(ValueError, match="^iterations must be >= 1$"):
        SamplerConfig(iterations=0, burn_in=0)


def test_generator_config_rejects_k_zero():
    with pytest.raises(ValueError):
        GeneratorConfig(n=10, p=10, k=0, scenario=Scenario.INDEPENDENT, seed=0)


# Each of these once passed construction and failed later with a TypeError
# from inside numpy ("'float' object cannot be interpreted as an integer").
@pytest.mark.parametrize(
    ("name", "value"),
    [("iterations", 5.5), ("iterations", 6.0), ("burn_in", 1.5), ("seed", 1.5), ("seed", "1")],
)
def test_sampler_config_rejects_non_integral_counts(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        SamplerConfig(**{"iterations": 6, "burn_in": 1, name: value})


@pytest.mark.parametrize(
    ("name", "value"), [("n", 20.5), ("p", 7.5), ("k", 2.0), ("seed", 1.5), ("n", np.nan)]
)
def test_generator_config_rejects_non_integral_counts(name, value):
    given = {"n": 20, "p": 7, "k": 2, "seed": 0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        GeneratorConfig(scenario=Scenario.SPARSE, **given)


def test_gibbs_rejects_a_non_integral_k():
    data = np.random.default_rng(0).standard_normal((20, 7))
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.0$"):
        gibbs_sample(data, SamplerConfig(iterations=5, burn_in=1), k=2.0)


# Each once passed construction and failed later inside numpy with
# "expected non-negative integer", which names no field.
@pytest.mark.parametrize("seed", [-1, np.int64(-3)])
def test_configs_reject_a_negative_seed(seed):
    with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
        SamplerConfig(iterations=5, burn_in=1, seed=seed)
    with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
        GeneratorConfig(n=20, p=7, k=2, scenario=Scenario.SPARSE, seed=seed)


# bool is a subclass of int, so True once passed as a count or seed of 1.
@pytest.mark.parametrize("value", [True, False])
def test_configs_reject_a_bool_count_or_seed(value):
    with pytest.raises(ValueError, match=f"^iterations must be an integer, got {value}$"):
        SamplerConfig(iterations=value, burn_in=0)
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {value}$"):
        SamplerConfig(iterations=5, burn_in=1, seed=value)
    with pytest.raises(ValueError, match=f"^k must be an integer, got {value}$"):
        GeneratorConfig(n=20, p=7, k=value, scenario=Scenario.SPARSE, seed=0)


def test_configs_accept_numpy_integers():
    cfg = GeneratorConfig(
        n=np.int64(20), p=np.int32(7), k=np.int64(2), scenario=Scenario.SPARSE, seed=np.uint8(3)
    )
    data = generate_dataset(cfg).X
    sampler = SamplerConfig(iterations=np.int64(6), burn_in=np.int32(1), seed=np.int64(4))
    assert gibbs_sample(data, sampler, k=np.int64(2)).samples.shape == (5, 7, 2)


def test_generate_independent_reproducible():
    cfg = GeneratorConfig(n=40, p=9, k=3, scenario=Scenario.INDEPENDENT, seed=123)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.true_loadings, b.true_loadings)
    np.testing.assert_array_equal(a.true_residual_variances, b.true_residual_variances)
    np.testing.assert_array_equal(a.true_factors, b.true_factors)


def test_generate_independent_covariance_law_of_large_numbers():
    cfg = GeneratorConfig(n=50_000, p=10, k=3, scenario=Scenario.INDEPENDENT, seed=12)
    ds = generate_dataset(cfg)
    population = ds.true_loadings @ ds.true_loadings.T + np.diag(ds.true_residual_variances)
    centered = ds.X - ds.X.mean(axis=0)
    empirical = (centered.T @ centered) / cfg.n
    rel = frobenius_norm(empirical - population) / frobenius_norm(population)
    assert rel <= 0.05


def test_generate_independent_consistency():
    cfg = GeneratorConfig(n=25, p=8, k=2, scenario=Scenario.INDEPENDENT, seed=5)
    ds = generate_dataset(cfg)
    residuals = ds.X - ds.true_factors @ ds.true_loadings.T
    assert ds.X.shape == (25, 8)
    assert np.all(ds.true_residual_variances > 0)
    assert np.all(np.isfinite(residuals))


def test_block_sizes_even_split():
    assert block_sizes(9, 3) == [3, 3, 3]


def test_block_sizes_ceiling_first():
    assert block_sizes(10, 3) == [4, 3, 3]


def test_generate_sparse_block_structure():
    cfg = GeneratorConfig(n=30, p=9, k=3, scenario=Scenario.SPARSE, seed=8)
    ds = generate_sparse(cfg)
    for factor, rows in enumerate((slice(0, 3), slice(3, 6), slice(6, 9))):
        off_block = np.delete(ds.true_loadings[rows], factor, axis=1)
        assert np.all(np.abs(off_block) <= 0.1)


def test_generate_sparse_reproducible():
    cfg = GeneratorConfig(n=20, p=10, k=3, scenario=Scenario.SPARSE, seed=77)
    np.testing.assert_array_equal(generate_sparse(cfg).X, generate_sparse(cfg).X)


def test_generate_dataset_dispatch():
    cfg = GeneratorConfig(n=15, p=7, k=2, scenario=Scenario.SPARSE, seed=1)
    np.testing.assert_array_equal(generate_dataset(cfg).X, generate_sparse(cfg).X)


def test_scenario_mismatch_rejected():
    cfg = GeneratorConfig(n=15, p=7, k=2, scenario=Scenario.INDEPENDENT, seed=1)
    with pytest.raises(ValueError, match="SPARSE"):
        generate_sparse(cfg)


def test_inverse_gamma_parameterization():
    # shape/rate convention: InvGamma(a, b) has mean b/(a-1) and variance
    # b^2 / ((a-1)^2 (a-2)); pin it so the (1/2, 1/2) defaults mean what the
    # generators and sampler assume
    rng = np.random.default_rng(61)
    draws = _draw_inverse_gamma(rng, 5.0, 8.0, size=200_000)
    assert draws.mean() == pytest.approx(8.0 / 4.0, rel=0.02)
    assert draws.var() == pytest.approx(64.0 / (16.0 * 3.0), rel=0.05)


def test_centered_r_factor_reproduces_the_centred_gram():
    # Two and a half row blocks take three QR steps, and n = 2 < p one; R^T R
    # is the centred gram either way.
    rng = np.random.default_rng(9)
    rows = factor_model._QR_BLOCK_BYTES // (8 * 3)
    for n in (5 * rows // 2, 2):
        x = rng.standard_normal((n, 3)) + 3.0
        means, r = _centered_r_factor(x)
        centered = x - x.mean(axis=0)
        np.testing.assert_allclose(means, x.mean(axis=0))
        assert r.shape == (min(n, 3), 3)
        np.testing.assert_allclose(r.T @ r, centered.T @ centered, rtol=1e-12, atol=1e-12 * n)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(iterations=100, burn_in=100)
    with pytest.raises(ValueError):
        SamplerConfig(prior_loading_variance=0.0)


@pytest.mark.parametrize(
    ("name", "value"),
    [
        ("prior_loading_variance", np.inf),  # once a silently flat prior
        ("prior_loading_variance", np.nan),
        ("prior_loading_variance", 1e-320),  # a finite variance whose precision overflows
        ("prior_residual_shape", np.inf),
        ("prior_residual_rate", np.inf),
        ("prior_residual_rate", -1.0),
    ],
)
def test_sampler_config_rejects_non_finite_priors(name, value):
    with pytest.raises(ValueError, match=name):
        SamplerConfig(**{name: value})


@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
def test_generator_config_rejects_non_finite_off_block_sd(value):
    with pytest.raises(ValueError, match="off_block_sd"):
        GeneratorConfig(n=10, p=7, k=2, scenario=Scenario.SPARSE, seed=0, off_block_sd=value)


def test_generate_dataset_raises_on_overflow():
    # A finite off_block_sd can still overflow the loadings, and the dataset
    # once came back holding -inf.
    cfg = GeneratorConfig(n=10, p=9, k=2, scenario=Scenario.SPARSE, seed=0, off_block_sd=1e308)
    with pytest.raises(NumericalError, match="^generated loadings are not finite$"):
        generate_dataset(cfg)


def test_gibbs_reproducible():
    cfg = GeneratorConfig(n=60, p=9, k=2, scenario=Scenario.INDEPENDENT, seed=2)
    ds = generate_dataset(cfg)
    scfg = SamplerConfig(iterations=50, burn_in=10, seed=99)
    a = gibbs_sample(ds.X, scfg, k=2)
    b = gibbs_sample(ds.X, scfg, k=2)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.residual_variances, b.residual_variances)


@pytest.mark.parametrize(
    ("n", "p", "k", "scenario"),
    [
        (40, 6, 1, Scenario.INDEPENDENT),  # k = 1
        (60, 7, 3, Scenario.SPARSE),  # boundary p = 2k + 1
        (500, 50, 5, Scenario.SPARSE),  # the paper's shape
        (8, 7, 3, Scenario.SPARSE),  # 0 < n - p < k: a one-row Bartlett factor
    ],
)
def test_gibbs_equals_per_row_loop(n, p, k, scenario):
    ds = generate_dataset(GeneratorConfig(n=n, p=p, k=k, scenario=scenario, seed=p + k))
    scfg = SamplerConfig(iterations=120, burn_in=20, prior_loading_variance=0.5, seed=7)
    batched = gibbs_sample(ds.X, scfg, k=k)
    oracle = loop_gibbs_sample(ds.X, scfg, k=k)
    # rounding only: the atol covers loadings near zero, whose relative error
    # is not bounded by that of the chain
    np.testing.assert_allclose(batched.samples, oracle.samples, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(batched.residual_variances, oracle.residual_variances, rtol=1e-10)


@pytest.mark.parametrize(
    ("scale", "message"),
    [
        # F^T F overflows in the first loading update
        (1e200, r"loading-row precision at iteration 0, row 0 is not finite"),
        # F^T F stays finite but the squared residuals overflow
        (10**151.5, r"residual-variance rate is not finite at iteration 0"),
    ],
)
def test_gibbs_overflow_raises_numerical_error(scale, message):
    ds = generate_sparse(GeneratorConfig(n=30, p=7, k=2, scenario=Scenario.SPARSE, seed=5))
    # No np.errstate here: the sampler silences its own overflow warnings,
    # which tier-1 would otherwise turn into errors.
    with pytest.raises(NumericalError, match=message):
        gibbs_sample(ds.X * scale, SamplerConfig(iterations=5, burn_in=1), k=2)


@pytest.mark.parametrize("k", [1, 2, 5, 8])
@pytest.mark.parametrize("prior_variance", [1e-3, 1.0, 1e3])
def test_loading_rows_equal_per_row_solves(k, prior_variance):
    # The eigenbasis draw against the per-row Q_j^{-1} b_j + Q_j^{-1/2} z_j, the
    # mean from an LU solve and Q_j^{-1/2} from numpy's eigendecomposition of
    # Q_j, with sigma_j from 1e-8 to 1e8 and factor columns from orthogonal-ish
    # to nearly collinear (cond(F^T F) up to about 1e12).  Both are backward
    # stable, and Q^{-1/2} moves by at most |dQ| / (2 low^{3/2}) when Q does,
    # so row j differs by at most 4 k eps cond(Q_j) (||Q_j^{-1}|| ||b_j|| +
    # ||Q_j^{-1/2}|| ||z_j||), the size of the larger term, not of a sum that
    # may cancel; in 300 random states of this kind the worst row used 0.67
    # of it.  (scipy's default eigh driver, LAPACK's syevr, is less accurate
    # on these spectra: its reference missed the bound by up to 45 times.)
    rng = np.random.default_rng(k)
    n, p = 60, 17
    variances = np.logspace(-8, 8, p)
    for spread in (1.0, 1e-3, 1e-6):
        factors = rng.standard_normal((n, 1)) + spread * rng.standard_normal((n, k))
        gram = factors.T @ factors
        if k > 1 and spread == 1e-6:
            assert np.linalg.cond(gram) > 1e11
        projections = (factors.T @ rng.standard_normal((n, p))).T
        z = rng.standard_normal((p, k))
        drawn = _loading_rows(gram, projections, variances, np.eye(k) / prior_variance, z, 0)
        for j in range(p):
            precision = np.eye(k) / prior_variance + gram / variances[j]
            b = projections[j] / variances[j]
            eigenvalues, basis = np.linalg.eigh(precision)
            expected = np.linalg.solve(precision, b) + (basis / np.sqrt(eigenvalues)) @ basis.T @ z[j]
            low, high = eigenvalues[[0, -1]]
            size = np.linalg.norm(b) / low + np.linalg.norm(z[j]) / np.sqrt(low)
            bound = 4 * k * np.finfo(float).eps * (high / low) * size
            assert np.linalg.norm(drawn[j] - expected) <= bound, (spread, j)


def test_loading_rows_scale_exactly_near_overflow():
    # With z = 0 the draw is Q_j^{-1} b_j, linear in b_j.  At 2^1024 times
    # these projections, b_j's coordinates in G's eigenbasis overflow unless
    # the quotient is rescaled, yet the draw is finite and exactly 2^1024
    # times the unscaled one.
    gram = np.array([[2.0, 1.0], [1.0, 2.0]])
    projections = np.array([[0.75, 0.75], [0.5, -0.25]])
    variances = np.ones(2)
    z = np.zeros((2, 2))
    small = _loading_rows(gram, projections, variances, np.eye(2), z, 0)
    large = _loading_rows(gram, np.ldexp(projections, 1024), variances, np.eye(2), z, 0)
    assert np.all(np.isfinite(large))
    np.testing.assert_array_equal(large, np.ldexp(small, 1024))


@pytest.mark.parametrize("seed", range(8))
def test_residual_rates_equal_direct_sums_of_squares(seed):
    # At a random (F, L) state the sufficient-statistic RSS equals the directly
    # summed squared residuals within eps * (x.x + 2|l.F^T x| + l^T G l) per
    # column, times n for the length-n sums; column 0 is constant (zero once
    # centred) and the factors fit column 1 exactly.
    rng = np.random.default_rng(seed)
    n, p, k = 200, 8, 3
    factors = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-2, 2)
    loadings = rng.standard_normal((p, k)) * 10.0 ** rng.uniform(-2, 2)
    centered = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2, 2, size=p)
    centered -= centered.mean(axis=0)
    centered[:, 0] = 0.0
    centered[:, 1] = factors @ loadings[1]
    column_squares = np.vecdot(centered.T, centered.T)
    projections = (factors.T @ centered).T
    gram = factors.T @ factors

    rss = 2.0 * _residual_rates(0.0, column_squares, projections, loadings, gram)
    direct = np.sum((centered - factors @ loadings.T) ** 2, axis=0)
    scale = (
        column_squares
        + 2.0 * np.abs(np.vecdot(loadings, projections))
        + np.vecdot(loadings @ gram, loadings)
    )
    assert np.all(np.abs(rss - direct) <= n * np.finfo(float).eps * scale)
    assert np.all(_residual_rates(0.5, column_squares, projections, loadings, gram) >= 0.5)


def test_gibbs_holds_no_per_iteration_residual_array():
    # The R factor comes from a blockwise QR and residual sums from sufficient
    # statistics, so the sampler holds no (n, p) array at all: beyond the
    # chain, only R's row blocks and (p + k, p), (p, k) and (k, k) arrays.
    # Any (n, p) array held with the chain, or while a QR factors it, breaks
    # the bound (one np.linalg.qr of the centred copy peaks at 448,644 bytes).
    n, p, k, iterations = 500, 50, 5, 50
    ds = generate_sparse(GeneratorConfig(n=n, p=p, k=k, scenario=Scenario.SPARSE, seed=6))
    centered_bytes = 8 * n * p
    chain_bytes = 8 * iterations * p * (k + 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gibbs_sample(ds.X, SamplerConfig(iterations=iterations, burn_in=0, seed=8), k=k)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < chain_bytes + centered_bytes / 2, peak


def test_non_finite_precision_is_named():
    # Every precision is a prior term plus a clamped Gram, so it can fail only
    # by being non-finite.  A subnormal sigma_j overflows G / sigma_j, and the
    # first such row is named; the last row is bad too.
    gram = np.array([[2.0, 1.0], [1.0, 2.0]])
    for bad in (0, 4, 8):
        variances = np.ones(9)
        variances[[bad, -1]] = 5e-324
        with (
            pytest.raises(NumericalError, match=rf"^loading-row precision at iteration 3, row {bad} is not finite$"),
            np.errstate(over="ignore"),
        ):
            _loading_rows(gram, np.ones((9, 2)), variances, np.eye(2), np.zeros((9, 2)), 3)
    with (
        pytest.raises(NumericalError, match=r"^factor-update precision at iteration 3 is not finite$"),
        np.errstate(over="ignore", invalid="ignore"),
    ):
        _factor_rows(np.ones((5, 9)), np.ones((9, 2)), variances, np.zeros((5, 2)), 3)


@pytest.mark.parametrize(
    ("n", "p"),
    [
        (40, 7),  # n > p + k: a full k x k Bartlett factor
        (9, 7),  # 0 < n - p < k: a two-row Bartlett factor
        (5, 7),  # n <= p: no Bartlett rows
    ],
)
def test_reduced_draw_has_the_full_data_moments(monkeypatch, n, p):
    # With L and Sigma held fixed, the full-data draw F = (X W + Z S) P^{-1},
    # W = Sigma^{-1} L, has E[F^T X] = P^{-1} W^T X^T X and
    # E[F^T F] = P^{-1} W^T X^T X W P^{-1} + n P^{-1}.  The sampler's F^T F and
    # F^T R, as handed to step (b), must have both means within five standard
    # errors, entry by entry.  Step (b) and (c) are replaced so that every
    # iteration after the first draws at the same L and Sigma.
    k, draws = 3, 20_000
    rng = np.random.default_rng(n)
    data = rng.standard_normal((n, p)) + 2.0
    loadings = 0.5 * rng.standard_normal((p, k))
    variances = rng.uniform(0.5, 1.5, size=p)
    recorded = []

    def record(gram, projections, *args):
        recorded.append(np.hstack((gram, projections.T)))
        return loadings

    monkeypatch.setattr(factor_model, "_loading_rows", record)
    monkeypatch.setattr(factor_model, "_draw_inverse_gamma", lambda *args, **kwargs: variances)
    gibbs_sample(data, SamplerConfig(iterations=draws + 1, burn_in=draws, seed=n), k=k)
    statistics = np.array(recorded[1:])

    centered = data - data.mean(axis=0)
    weighted = loadings / variances[:, None]
    covariance = np.linalg.inv(np.eye(k) + loadings.T @ weighted)
    cross = covariance @ weighted.T @ (centered.T @ centered)
    expected = np.hstack((cross @ weighted @ covariance + n * covariance, cross))
    errors = statistics.std(axis=0) / np.sqrt(draws)
    assert np.all(np.abs(statistics.mean(axis=0) - expected) <= 5.0 * errors)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 3),
    extra=st.integers(0, 3),
    offset=st.integers(-12, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=1, extra=0, offset=0, seed=0)  # n = p
@example(k=2, extra=0, offset=1, seed=1)  # n = p + 1
@example(k=3, extra=1, offset=-5, seed=2)  # n < p
def test_gibbs_small_shapes_are_finite_and_reproducible(k, extra, offset, seed):
    p = 2 * k + 1 + extra
    n = max(p + offset, 1)
    data = np.random.default_rng(seed).standard_normal((n, p))
    cfg = SamplerConfig(iterations=25, burn_in=5, seed=seed)
    chain = gibbs_sample(data, cfg, k=k)
    again = gibbs_sample(data, cfg, k=k)
    assert chain.samples.shape == (20, p, k)
    assert chain.residual_variances.shape == (20, p)
    assert np.all(np.isfinite(chain.samples)) and np.all(np.isfinite(chain.residual_variances))
    np.testing.assert_array_equal(chain.samples, again.samples)
    np.testing.assert_array_equal(chain.residual_variances, again.residual_variances)


def test_gibbs_output_shapes_and_positivity():
    cfg = GeneratorConfig(n=50, p=11, k=3, scenario=Scenario.SPARSE, seed=3)
    ds = generate_sparse(cfg)
    chain = gibbs_sample(ds.X, SamplerConfig(iterations=40, burn_in=15, seed=4), k=3)
    assert chain.samples.shape == (25, 11, 3)
    assert chain.residual_variances.shape == (25, 11)
    assert np.all(chain.residual_variances > 0)


def test_gibbs_rejects_unidentifiable_k():
    with pytest.raises(ValueError, match=r"k <= \(p-1\)/2"):
        gibbs_sample(np.random.default_rng(0).standard_normal((30, 6)), SamplerConfig(iterations=5, burn_in=1), k=3)


def test_gibbs_rejects_non_finite_data():
    x = np.ones((20, 7))
    x[3, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        gibbs_sample(x, SamplerConfig(iterations=5, burn_in=1), k=2)


def test_gibbs_rejects_data_that_is_not_a_matrix():
    with pytest.raises(ValueError, match=r"^data must be 2-dimensional, got shape \(5,\)$"):
        gibbs_sample(np.zeros(5), SamplerConfig(iterations=5, burn_in=1), 1)


def test_gibbs_rejects_data_without_rows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^data has no rows$"):
            gibbs_sample(np.empty((0, 7)), SamplerConfig(iterations=5, burn_in=1), k=2)


def test_gibbs_posterior_tracks_sample_covariance():
    # desk-scale posterior concentration: mean of (L L^T + Sigma) over the
    # chain stays close to the empirical covariance of the training data
    cfg = GeneratorConfig(n=500, p=20, k=3, scenario=Scenario.INDEPENDENT, seed=31)
    ds = generate_dataset(cfg)
    chain = gibbs_sample(ds.X, SamplerConfig(iterations=5000, burn_in=500, seed=32), k=3)
    centered = ds.X - ds.X.mean(axis=0)
    empirical = (centered.T @ centered) / cfg.n
    fitted = np.zeros((20, 20))
    for t in range(chain.n_samples):
        fitted += chain.samples[t] @ chain.samples[t].T + np.diag(chain.residual_variances[t])
    fitted /= chain.n_samples
    assert frobenius_norm(fitted - empirical) <= 0.15 * frobenius_norm(empirical)


def assert_zero_mean_with_covariance(residuals, cov):
    """Mean 0 and covariance ``cov`` within five standard errors, entry by entry."""
    n = len(residuals)
    variances = np.diag(cov)
    assert np.all(np.abs(residuals.mean(axis=0)) <= 5.0 * np.sqrt(variances / n))
    emp_cov = (residuals.T @ residuals) / n
    se = np.sqrt((np.outer(variances, variances) + cov**2) / n)
    assert np.all(np.abs(emp_cov - cov) <= 5.0 * se), (emp_cov, cov)


def test_gibbs_factor_draw_distribution():
    # With loadings fixed at truth, the package's conditional factor draw,
    # one per data row, must match the stated Gaussian within Monte Carlo error.
    # k = 3: a 2 x 2 eigenbasis can come back symmetric, and a draw that
    # swapped V and V^T would then pass.
    rng = np.random.default_rng(60)
    p, k, n = 6, 3, 4000
    loadings = rng.standard_normal((p, k))
    variances = rng.uniform(0.5, 1.5, size=p)
    factors = rng.standard_normal((n, k))
    data = factors @ loadings.T + rng.standard_normal((n, p)) * np.sqrt(variances)

    precision = np.eye(k) + loadings.T @ (loadings / variances[:, None])
    cov = np.linalg.inv(precision)
    mean = data @ (loadings / variances[:, None]) @ cov.T

    draws = _factor_rows(data, loadings, variances, rng.standard_normal((n, k)), 0)
    assert_zero_mean_with_covariance(draws - mean, cov)


def test_loading_row_draw_distribution():
    # 20000 draws of one loading row must have mean Q^{-1} b and covariance
    # Q^{-1} within Monte Carlo error.  G's eigenvalues are spread apart and
    # its eigenvectors are not symmetric, so a draw taken in the wrong basis
    # moves both moments.
    rng = np.random.default_rng(62)
    k, draws = 3, 20_000
    factors = rng.standard_normal((12, k)) * [0.5, 1.0, 3.0]
    gram = factors.T @ factors
    basis = np.linalg.eigh(gram)[1]
    assert not np.allclose(basis, basis.T)
    variance, projection = 2.0, rng.standard_normal(k) * 5.0
    precision = np.eye(k) + gram / variance
    cov = np.linalg.inv(precision)

    drawn = _loading_rows(
        gram,
        np.tile(projection, (draws, 1)),
        np.full(draws, variance),
        np.eye(k),
        rng.standard_normal((draws, k)),
        0,
    )
    assert_zero_mean_with_covariance(drawn - cov @ (projection / variance), cov)


def test_gibbs_sparse_chain_exhibits_sign_switching():
    cfg = GeneratorConfig(n=500, p=30, k=3, scenario=Scenario.SPARSE, seed=41)
    ds = generate_sparse(cfg)
    chain = gibbs_sample(ds.X, SamplerConfig(iterations=3000, burn_in=500, seed=42), k=3)
    share_positive = (chain.samples > 0).mean(axis=0)
    both_signs = (share_positive >= 0.10) & (share_positive <= 0.90)
    assert both_signs.any()
