import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from factoralign import (
    Chain,
    GeneratorConfig,
    NumericalError,
    SamplerConfig,
    Scenario,
    frobenius_norm,
    generate_dataset,
    generate_independent,
    generate_sparse,
    gibbs_sample,
    validate_identifiability,
)
from factoralign.factor_model import (
    _cholesky,
    _draw_inverse_gamma,
    _residual_rates,
    block_sizes,
    center_columns,
)


def loop_gibbs_sample(data, cfg: SamplerConfig, k: int) -> Chain:
    """Reference sampler: the loadings drawn one row at a time with scipy.

    Same conditionals and random stream as ``gibbs_sample``; only the
    factorizations and solves are per row, so the two chains differ by
    rounding alone.
    """
    centered, _ = center_columns(np.asarray(data, dtype=np.float64))
    n, p = centered.shape
    rng = np.random.default_rng(cfg.seed)
    loadings = rng.standard_normal((p, k))
    variances = np.ones(p)
    prior_precision = np.eye(k) / cfg.prior_loading_variance
    shape_post = cfg.prior_residual_shape + 0.5 * n
    loadings_draws, variance_draws = [], []
    for iteration in range(cfg.iterations):
        weighted = loadings / variances[:, None]
        chol = cholesky(np.eye(k) + loadings.T @ weighted, lower=True)
        mean = cho_solve((chol, True), (centered @ weighted).T).T
        z = rng.standard_normal((n, k))
        factors = mean + solve_triangular(chol.T, z.T, lower=False).T

        gram = factors.T @ factors
        projections = factors.T @ centered
        for j in range(p):
            row_chol = cholesky(prior_precision + gram / variances[j], lower=True)
            row_mean = cho_solve((row_chol, True), projections[:, j] / variances[j])
            loadings[j] = row_mean + solve_triangular(
                row_chol.T, rng.standard_normal(k), lower=False
            )

        residuals = centered - factors @ loadings.T
        rates = cfg.prior_residual_rate + 0.5 * np.sum(residuals * residuals, axis=0)
        variances = _draw_inverse_gamma(rng, shape_post, rates, size=p)
        if iteration >= cfg.burn_in:
            loadings_draws.append(loadings.copy())
            variance_draws.append(variances)
    return Chain(np.array(loadings_draws), np.array(variance_draws))


def test_identifiability_rule():
    assert validate_identifiability(50, 5)
    assert validate_identifiability(3, 1)  # boundary: (3-1)/2 = 1
    assert not validate_identifiability(4, 2)


def test_identifiability_rejects_nonpositive():
    with pytest.raises(ValueError):
        validate_identifiability(0, 1)


def test_generator_config_rejects_unidentifiable_k():
    with pytest.raises(ValueError, match=r"k <= \(p-1\)/2"):
        GeneratorConfig(n=10, p=50, k=30, scenario=Scenario.INDEPENDENT, seed=0)


def test_generator_config_rejects_k_zero():
    with pytest.raises(ValueError):
        GeneratorConfig(n=10, p=10, k=0, scenario=Scenario.INDEPENDENT, seed=0)


def test_generate_independent_reproducible():
    cfg = GeneratorConfig(n=40, p=9, k=3, scenario=Scenario.INDEPENDENT, seed=123)
    a = generate_independent(cfg)
    b = generate_independent(cfg)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.true_loadings, b.true_loadings)
    np.testing.assert_array_equal(a.true_residual_variances, b.true_residual_variances)
    np.testing.assert_array_equal(a.true_factors, b.true_factors)


def test_generate_independent_covariance_law_of_large_numbers():
    cfg = GeneratorConfig(n=50_000, p=10, k=3, scenario=Scenario.INDEPENDENT, seed=12)
    ds = generate_independent(cfg)
    population = ds.true_loadings @ ds.true_loadings.T + np.diag(ds.true_residual_variances)
    centered = ds.X - ds.X.mean(axis=0)
    empirical = (centered.T @ centered) / cfg.n
    rel = frobenius_norm(empirical - population) / frobenius_norm(population)
    assert rel <= 0.05


def test_generate_independent_consistency():
    cfg = GeneratorConfig(n=25, p=8, k=2, scenario=Scenario.INDEPENDENT, seed=5)
    ds = generate_independent(cfg)
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
    cfg = GeneratorConfig(n=15, p=7, k=2, scenario=Scenario.SPARSE, seed=1)
    with pytest.raises(ValueError):
        generate_independent(cfg)


def test_inverse_gamma_parameterization():
    # shape/rate convention: InvGamma(a, b) has mean b/(a-1) and variance
    # b^2 / ((a-1)^2 (a-2)); pin it so the (1/2, 1/2) defaults mean what the
    # generators and sampler assume
    rng = np.random.default_rng(61)
    draws = _draw_inverse_gamma(rng, 5.0, 8.0, size=200_000)
    assert draws.mean() == pytest.approx(8.0 / 4.0, rel=0.02)
    assert draws.var() == pytest.approx(64.0 / (16.0 * 3.0), rel=0.05)


def test_center_columns():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((20, 4)) + 3.0
    centered, means = center_columns(x)
    np.testing.assert_allclose(centered.mean(axis=0), np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(means, x.mean(axis=0))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(iterations=100, burn_in=100)
    with pytest.raises(ValueError):
        SamplerConfig(prior_loading_variance=0.0)


def test_gibbs_reproducible():
    cfg = GeneratorConfig(n=60, p=9, k=2, scenario=Scenario.INDEPENDENT, seed=2)
    ds = generate_independent(cfg)
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
    with pytest.raises(NumericalError, match=message), np.errstate(over="ignore"):
        gibbs_sample(ds.X * scale, SamplerConfig(iterations=5, burn_in=1), k=2)


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
    centered, _ = center_columns(rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2, 2, size=p))
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
    # Residual sums come from sufficient statistics, so beyond the centred
    # copy and the chain the sampler holds only (n, k) and (p, k, k) arrays.
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
    assert peak < centered_bytes + chain_bytes + centered_bytes / 2, peak


def test_lowest_failing_row_is_named():
    for bad in (0, 4, 8):
        broken = np.tile(np.eye(2), (9, 1, 1))
        broken[bad] = -np.eye(2)
        broken[-1] = -np.eye(2)
        with pytest.raises(NumericalError, match=rf"iteration 3, row {bad} is not positive definite"):
            _cholesky(broken, "loading-row", 3)
    with pytest.raises(NumericalError, match=r"iteration 3 is not positive definite"):
        _cholesky(-np.eye(2), "factor-update", 3)


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


def test_gibbs_posterior_tracks_sample_covariance():
    # desk-scale posterior concentration: mean of (L L^T + Sigma) over the
    # chain stays close to the empirical covariance of the training data
    cfg = GeneratorConfig(n=500, p=20, k=3, scenario=Scenario.INDEPENDENT, seed=31)
    ds = generate_independent(cfg)
    chain = gibbs_sample(ds.X, SamplerConfig(iterations=5000, burn_in=500, seed=32), k=3)
    centered, _ = center_columns(ds.X)
    empirical = (centered.T @ centered) / cfg.n
    fitted = np.zeros((20, 20))
    for t in range(chain.n_samples):
        fitted += chain.samples[t] @ chain.samples[t].T + np.diag(chain.residual_variances[t])
    fitted /= chain.n_samples
    assert frobenius_norm(fitted - empirical) <= 0.15 * frobenius_norm(empirical)


def test_gibbs_factor_draw_distribution():
    # With loadings fixed at truth, one conditional factor draw per replicate
    # must match the stated Gaussian within Monte Carlo error.
    rng = np.random.default_rng(60)
    p, k, n = 6, 2, 4000
    loadings = rng.standard_normal((p, k))
    variances = rng.uniform(0.5, 1.5, size=p)
    factors = rng.standard_normal((n, k))
    data = factors @ loadings.T + rng.standard_normal((n, p)) * np.sqrt(variances)

    precision = np.eye(k) + loadings.T @ (loadings / variances[:, None])
    cov = np.linalg.inv(precision)
    mean = data @ (loadings / variances[:, None]) @ cov.T

    chol = np.linalg.cholesky(precision)
    z = rng.standard_normal((n, k))
    draws = mean + np.linalg.solve(chol.T, z.T).T

    centered = draws - mean
    emp_cov = (centered.T @ centered) / n
    se = 3.0 * np.sqrt(2.0 / n)
    assert np.abs(emp_cov - cov).max() <= se * max(1.0, np.abs(cov).max())
    assert np.abs(centered.mean(axis=0)).max() <= 3.0 * np.sqrt(cov.max() / n)


def test_gibbs_sparse_chain_exhibits_sign_switching():
    cfg = GeneratorConfig(n=500, p=30, k=3, scenario=Scenario.SPARSE, seed=41)
    ds = generate_sparse(cfg)
    chain = gibbs_sample(ds.X, SamplerConfig(iterations=3000, burn_in=500, seed=42), k=3)
    share_positive = (chain.samples > 0).mean(axis=0)
    both_signs = (share_positive >= 0.10) & (share_positive <= 0.90)
    assert both_signs.any()
