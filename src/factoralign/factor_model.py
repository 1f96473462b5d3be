"""Synthetic data generation and a conjugate Gibbs sampler for the Gaussian factor model.

The model is x_i = L eta_i + eps_i with eta_i ~ N(0, I_k), eps_i ~ N(0, Sigma)
and Sigma diagonal.  The sampler places independent N(0, c0) priors on the
loadings and inverse-gamma(shape, rate) priors on the residual variances, and
deliberately imposes no identifiability constraints, so the sampled loadings
drift freely across rotations, labels, and signs.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import Chain, NumericalError

__all__ = [
    "GeneratorConfig",
    "NumericalError",
    "SamplerConfig",
    "Scenario",
    "SyntheticDataset",
    "center_columns",
    "generate_dataset",
    "generate_independent",
    "generate_sparse",
    "gibbs_sample",
    "validate_identifiability",
]

logger = logging.getLogger(__name__)


class Scenario(enum.Enum):
    INDEPENDENT = "independent"
    SPARSE = "sparse"


def validate_identifiability(p: int, k: int) -> bool:
    """True iff k <= (p - 1) / 2, the condition for an identifiable residual."""
    if p < 1 or k < 1:
        raise ValueError(f"p and k must be >= 1, got p={p}, k={k}")
    return 2 * k <= p - 1


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    p: int
    k: int
    scenario: Scenario
    seed: int
    off_block_sd: float = 0.01

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.k < 1 or self.p < 1:
            raise ValueError(f"p and k must be >= 1, got p={self.p}, k={self.k}")
        if not validate_identifiability(self.p, self.k):
            raise ValueError(
                f"k={self.k} with p={self.p} violates the identifiability rule k <= (p-1)/2"
            )
        if not (math.isfinite(self.off_block_sd) and self.off_block_sd > 0):
            raise ValueError(f"off_block_sd must be finite and > 0, got {self.off_block_sd}")


@dataclass(frozen=True)
class SyntheticDataset:
    """A generated data matrix together with the ground truth that produced it."""

    X: np.ndarray
    true_loadings: np.ndarray
    true_residual_variances: np.ndarray
    true_factors: np.ndarray


@dataclass(frozen=True)
class SamplerConfig:
    iterations: int = 11000
    burn_in: int = 1000
    prior_loading_variance: float = 1.0
    prior_residual_shape: float = 0.5
    prior_residual_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError(
                f"burn_in must satisfy 0 <= burn_in < iterations, got "
                f"burn_in={self.burn_in}, iterations={self.iterations}"
            )
        for name in ("prior_loading_variance", "prior_residual_shape", "prior_residual_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        # The prior precision is 1 / prior_loading_variance.
        if not math.isfinite(1.0 / float(self.prior_loading_variance)):
            raise ValueError(
                f"prior_loading_variance {self.prior_loading_variance} has no finite reciprocal"
            )


def _draw_inverse_gamma(rng: np.random.Generator, shape: float, rate, size=None) -> np.ndarray:
    # InvGamma(a, b) with density prop. to x^(-a-1) exp(-b/x): 1/Gamma(a, rate=b).
    return np.asarray(rate) / rng.gamma(shape, 1.0, size=size)


def _finish_dataset(
    rng: np.random.Generator, cfg: GeneratorConfig, loadings: np.ndarray
) -> SyntheticDataset:
    # Draw order after the loadings is fixed: residual variances, factors, noise.
    variances = _draw_inverse_gamma(rng, 0.5, 0.5, size=cfg.p)
    factors = rng.standard_normal((cfg.n, cfg.k))
    noise = rng.standard_normal((cfg.n, cfg.p)) * np.sqrt(variances)
    data = factors @ loadings.T + noise
    return SyntheticDataset(
        X=data,
        true_loadings=loadings,
        true_residual_variances=variances,
        true_factors=factors,
    )


def generate_independent(cfg: GeneratorConfig) -> SyntheticDataset:
    """Every loading drawn iid standard normal."""
    if cfg.scenario is not Scenario.INDEPENDENT:
        raise ValueError("config scenario must be INDEPENDENT")
    rng = np.random.default_rng(cfg.seed)
    loadings = rng.standard_normal((cfg.p, cfg.k))
    return _finish_dataset(rng, cfg, loadings)


def block_sizes(p: int, k: int) -> list[int]:
    """Contiguous near-equal block sizes: ceil(p/k) for the first p mod k blocks."""
    base, remainder = divmod(p, k)
    return [base + 1 if b < remainder else base for b in range(k)]


def generate_sparse(cfg: GeneratorConfig) -> SyntheticDataset:
    """Variables split into k contiguous blocks, each loading mainly on one factor.

    Within-block loadings on the block's factor are standard normal; every
    other loading is N(0, off_block_sd^2).
    """
    if cfg.scenario is not Scenario.SPARSE:
        raise ValueError("config scenario must be SPARSE")
    rng = np.random.default_rng(cfg.seed)
    loadings = cfg.off_block_sd * rng.standard_normal((cfg.p, cfg.k))
    start = 0
    for factor, size in enumerate(block_sizes(cfg.p, cfg.k)):
        loadings[start : start + size, factor] = rng.standard_normal(size)
        start += size
    return _finish_dataset(rng, cfg, loadings)


def generate_dataset(cfg: GeneratorConfig) -> SyntheticDataset:
    if cfg.scenario is Scenario.SPARSE:
        return generate_sparse(cfg)
    return generate_independent(cfg)


def center_columns(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtract column means; returns the centered matrix and the means."""
    means = data.mean(axis=0)
    return data - means, means


def _cholesky(precision: np.ndarray, what: str, iteration: int) -> np.ndarray:
    """Lower Cholesky factor of a (k, k) precision, or of every matrix in a (p, k, k) stack.

    ``np.linalg.cholesky`` returns NaN for non-finite input instead of
    raising, so finiteness is checked first.  Either failure raises
    NumericalError naming the iteration and, for a stack, the lowest failing
    row.
    """
    where = f"{what} precision at iteration {iteration}"
    if not np.isfinite(precision).all():
        finite = np.isfinite(precision).all(axis=(-2, -1))
        row = f", row {np.argmin(finite)}" if precision.ndim == 3 else ""
        raise NumericalError(f"{where}{row} is not finite")
    try:
        return np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        row = f", row {_lowest_failing_row(precision)}" if precision.ndim == 3 else ""
        raise NumericalError(f"{where}{row} is not positive definite") from exc


def _lowest_failing_row(stack: np.ndarray) -> int:
    """Index of the first matrix in a stack that Cholesky rejects, by bisecting over prefixes."""
    lo, hi = 0, len(stack) - 1  # the stack fails as a whole, so some row in [lo, hi] fails
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(stack[lo : mid + 1])
            lo = mid + 1
        except np.linalg.LinAlgError:
            hi = mid
    return lo


def _loading_rows(gram, projections, variances, prior_precision, z, iteration) -> np.ndarray:
    """The loading draw given the factors: row j is C_j^{-T}(C_j^{-1} b_j + z_j).

    C_j is the lower Cholesky factor of Q_j = I / c0 + G / sigma_j, where
    ``prior_precision`` is I / c0 and G = F^T F is ``gram``; b_j is
    F^T x_j / sigma_j, with F^T x_j row j of ``projections``, and z_j is row j
    of the standard normal ``z``.  The draw equals Q_j^{-1}(b_j + C_j z_j),
    and every Q_j has G's eigenvectors V, so
    Q_j^{-1} = V diag(1 / (1/c0 + lambda / sigma_j)) V^T: one k x k
    eigendecomposition and no per-row solve.  The Cholesky factors come from
    one stacked call, whose checks name a failing row.
    """
    row_chol = _cholesky(
        prior_precision + gram / variances[:, None, None], "loading-row", iteration
    )
    rhs = (row_chol @ z[:, :, None])[:, :, 0] + projections / variances[:, None]
    eigenvalues, basis = np.linalg.eigh(gram)
    # Row j holds Q_j's eigenvalues; the prior is isotropic, so its diagonal
    # is its eigenvalues in any basis.  G is a Gram matrix, so only rounding
    # takes its eigenvalues below 0.
    precisions = prior_precision.diagonal() + np.maximum(eigenvalues, 0.0) / variances[:, None]
    # Row j of rhs is Q_j l_j, at most max(precisions_j) |l_j| long.  Both
    # terms of the quotient are scaled by 2^-e <= 1, with 2^e the power of two
    # just above the largest precision, so rhs V stays finite unless l
    # overflows; the scaling is exact and leaves the quotient unchanged.  An
    # infinite F^T x_j still gives a NaN row, silently as a LAPACK solve does,
    # and step (c) reports it.
    scale = math.ldexp(1.0, -max(math.frexp(precisions.max())[1], 0))
    with np.errstate(over="ignore", invalid="ignore"):
        return ((rhs @ (basis * scale)) / (precisions * scale)) @ basis.T


def _residual_rates(prior_rate, column_squares, projections, loadings, gram) -> np.ndarray:
    """Inverse-gamma rates prior_rate + RSS_j / 2 from sufficient statistics.

    RSS_j = sum_i (x_ij - f_i . l_j)^2 = x_j . x_j - 2 l_j . (F^T x_j) + l_j^T (F^T F) l_j,
    with ``column_squares`` the (p,) x_j . x_j, ``projections`` the (p, k)
    rows F^T x_j, and ``gram`` F^T F, so no (n, p) residual is formed.
    """
    rss = (
        column_squares
        - 2.0 * np.vecdot(loadings, projections)
        + np.vecdot(loadings @ gram, loadings)
    )
    # The terms cancel where the factors explain most of a column: the
    # relative error of rss is about eps * (x.x + 2|l.F^T x| + l^T G l) / rss.
    # The true RSS is >= 0, so the clamp only absorbs rounding-level
    # negatives; np.maximum keeps a NaN, which the caller reports.
    return prior_rate + 0.5 * np.maximum(rss, 0.0)


def gibbs_sample(data, cfg: SamplerConfig, k: int) -> Chain:
    """Blocked conjugate Gibbs sampler returning the post-burn-in loadings chain.

    Per iteration: (a) factors given loadings and variances, (b) all loading
    rows at once given factors and variances, then (c) residual variances.
    Step (b) takes one stacked Cholesky factorization of the p row
    precisions and applies their inverses through F^T F's eigenbasis, one
    k x k eigendecomposition, with no per-row solve.  Step (c) reads its
    residual sums of squares from sufficient statistics: the column sums of
    squares, computed once, and step (b)'s F^T F and F^T x_j, so no (n, p)
    residual is formed and the per-iteration cost is dominated by the two
    (n, k) products with the data and the (n, k) normal draw.  Columns of ``data`` are centered internally.  The chain
    carries the residual-variance draws.  A non-finite or
    non-positive-definite posterior precision, or a non-finite
    residual-variance rate, raises NumericalError naming the iteration (and,
    for a loading row, the row).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-dimensional, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite entries")
    n, p = data.shape
    if not validate_identifiability(p, k):
        raise ValueError(f"k={k} with p={p} violates the identifiability rule k <= (p-1)/2")

    centered, means = center_columns(data)
    logger.debug("centered %d columns; mean magnitudes up to %.3g", p, np.max(np.abs(means)))
    column_squares = np.vecdot(centered.T, centered.T)

    rng = np.random.default_rng(cfg.seed)
    loadings = rng.standard_normal((p, k))
    variances = np.ones(p)
    eye_k = np.eye(k)
    prior_precision = eye_k / cfg.prior_loading_variance
    shape_post = cfg.prior_residual_shape + 0.5 * n

    kept = cfg.iterations - cfg.burn_in
    loadings_draws = np.empty((kept, p, k))
    variance_draws = np.empty((kept, p))

    for iteration in range(cfg.iterations):
        # (a) factors | loadings, variances.  Row i is C^{-T}(C^{-1} b_i + z_i)
        # with C C^T = I + Lambda^T Sigma^{-1} Lambda; for n rows, products
        # with C^{-1} are cheaper than LU solves.
        weighted = loadings / variances[:, None]
        chol = _cholesky(eye_k + loadings.T @ weighted, "factor-update", iteration)
        chol_inv = np.linalg.inv(chol)
        # The draw is added in place, so no third (n, k) array is live.
        factors = (centered @ weighted) @ chol_inv.T
        factors += rng.standard_normal((n, k))
        factors = factors @ chol_inv

        # (b) loadings | factors, variances, all p rows at once.
        gram = factors.T @ factors
        projections = (factors.T @ centered).T
        z = rng.standard_normal((p, k))
        loadings = _loading_rows(gram, projections, variances, prior_precision, z, iteration)

        # (c) residual variances | loadings, factors
        rates = _residual_rates(
            cfg.prior_residual_rate, column_squares, projections, loadings, gram
        )
        if not np.isfinite(rates).all():
            raise NumericalError(f"residual-variance rate is not finite at iteration {iteration}")
        variances = _draw_inverse_gamma(rng, shape_post, rates, size=p)

        if iteration >= cfg.burn_in:
            loadings_draws[iteration - cfg.burn_in] = loadings
            variance_draws[iteration - cfg.burn_in] = variances

    return Chain(loadings_draws, variance_draws)
