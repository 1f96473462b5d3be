"""Synthetic data generation and a conjugate Gibbs sampler for the Gaussian factor model.

The model is x_i = L eta_i + eps_i with eta_i ~ N(0, I_k), eps_i ~ N(0, Sigma)
and Sigma diagonal.  The sampler places independent N(0, c0) priors on the
loadings and inverse-gamma(shape, rate) priors on the residual variances, and
deliberately imposes no identifiability constraints, so the sampled loadings
drift freely across rotations, labels, and signs.  It reads the n x p data once,
through a blockwise QR of the centred columns; each iteration then works on
the min(n, p + k) rows of that R factor and a Bartlett-drawn noise block, at
O(p^2 k + k^3) whatever n is.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import Chain, NumericalError, check_integers, scale_exponent

__all__ = [
    "GeneratorConfig",
    "SamplerConfig",
    "Scenario",
    "SyntheticDataset",
    "generate_dataset",
    "generate_sparse",
    "gibbs_sample",
]

logger = logging.getLogger(__name__)


class Scenario(enum.Enum):
    INDEPENDENT = "independent"
    SPARSE = "sparse"


def _check_identifiable(p: int, k: int) -> None:
    """Raise ``ValueError`` unless k <= (p - 1) / 2, the condition for an identifiable residual."""
    check_integers(p=p, k=k)
    if p < 1 or k < 1:
        raise ValueError(f"p and k must be >= 1, got p={p}, k={k}")
    if 2 * k > p - 1:
        raise ValueError(f"k={k} with p={p} violates the identifiability rule k <= (p-1)/2")


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    p: int
    k: int
    scenario: Scenario
    seed: int
    off_block_sd: float = 0.01

    def __post_init__(self):
        check_integers(n=self.n, seed=self.seed)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        _check_identifiable(self.p, self.k)
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
        check_integers(iterations=self.iterations, burn_in=self.burn_in, seed=self.seed)
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


def block_sizes(p: int, k: int) -> list[int]:
    """Contiguous near-equal block sizes: ceil(p/k) for the first p mod k blocks."""
    base, remainder = divmod(p, k)
    return [base + 1 if b < remainder else base for b in range(k)]


def generate_dataset(cfg: GeneratorConfig) -> SyntheticDataset:
    """Draw a dataset of ``cfg``'s scenario from one generator seeded by ``cfg.seed``.

    The loadings come first.  INDEPENDENT draws every loading iid standard
    normal.  SPARSE splits the variables into k contiguous blocks, each
    loading mainly on one factor: within-block loadings on the block's factor
    are standard normal and every other loading is N(0, off_block_sd^2).  The
    residual variances, factors and noise follow, in that order.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.scenario is Scenario.SPARSE:
        loadings = cfg.off_block_sd * rng.standard_normal((cfg.p, cfg.k))
        start = 0
        for factor, size in enumerate(block_sizes(cfg.p, cfg.k)):
            loadings[start : start + size, factor] = rng.standard_normal(size)
            start += size
    else:
        loadings = rng.standard_normal((cfg.p, cfg.k))
    variances = _draw_inverse_gamma(rng, 0.5, 0.5, size=cfg.p)
    factors = rng.standard_normal((cfg.n, cfg.k))
    noise = rng.standard_normal((cfg.n, cfg.p)) * np.sqrt(variances)
    return SyntheticDataset(
        X=factors @ loadings.T + noise,
        true_loadings=loadings,
        true_residual_variances=variances,
        true_factors=factors,
    )


def generate_sparse(cfg: GeneratorConfig) -> SyntheticDataset:
    """:func:`generate_dataset` for a SPARSE config: block loadings, one main factor per block."""
    if cfg.scenario is not Scenario.SPARSE:
        raise ValueError("config scenario must be SPARSE")
    return generate_dataset(cfg)


# Each step of the blockwise QR factors the R so far stacked on the next block
# of centred rows.  A block holds at least p rows, so the steps cost at most
# about twice one QR of the whole matrix, and otherwise about this many bytes:
# on 2 vCPUs with OpenBLAS, five 102-row steps at (n, p) = (500, 50) took
# 0.64 ms against 1.3-1.7 ms for one QR of the whole matrix, and at p = 20 the
# 256-row blocks this gives were the fastest size timed.
_QR_BLOCK_BYTES = 40 * 1024


def _centered_r_factor(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column means and the min(n, p) x p R factor of the centred data.

    R^T R = X^T X for X = data - means, and R's rows span X's row space.  The
    QR runs over blocks of rows, centring each block as it goes, so no
    (n, p) centred copy is held.
    """
    n, p = data.shape
    means = data.mean(axis=0)
    rows = max(p, _QR_BLOCK_BYTES // (8 * p))
    r = np.empty((0, p))
    for start in range(0, n, rows):
        r = np.linalg.qr(np.concatenate((r, data[start : start + rows] - means)), mode="r")
    return means, r


def _factor_rows(x, loadings, variances, z, iteration) -> np.ndarray:
    """The factor draw given the loadings: row i is P^{-1} b_i + P^{-1/2} z_i.

    All rows share the precision P = I + L^T Sigma^{-1} L, and b_i is
    L^T Sigma^{-1} x_i, with x_i row i of ``x`` and z_i row i of
    ``z``.  One eigendecomposition P = U diag(d) U^T gives both
    S = U diag(sqrt(d)) U^T and P^{-1} = U diag(1 / d) U^T, and the draw is
    (X Sigma^{-1} L + Z S) P^{-1}: two (rows, k) @ (k, k) products.
    """
    weighted = loadings / variances[:, None]
    gram = loadings.T @ weighted
    if not np.isfinite(gram).all():
        raise NumericalError(f"factor-update precision at iteration {iteration} is not finite")
    eigenvalues, basis = np.linalg.eigh(gram)
    # The Gram part is positive semi-definite, so only rounding takes its
    # eigenvalues below 0, and every d is at least 1.
    d = 1.0 + np.maximum(eigenvalues, 0.0)
    factors = x @ weighted
    factors += z @ ((basis * np.sqrt(d)) @ basis.T)
    return factors @ ((basis / d) @ basis.T)


def _loading_rows(gram, projections, variances, prior_precision, z, iteration) -> np.ndarray:
    """The loading draw given the factors: row j is Q_j^{-1} b_j + Q_j^{-1/2} z_j.

    Q_j = I / c0 + G / sigma_j, where ``prior_precision`` is I / c0 and
    G = F^T F is ``gram``; b_j is F^T x_j / sigma_j, with F^T x_j row j of
    ``projections``, and z_j is row j of the standard normal ``z``.  Every
    Q_j has G's eigenvectors V, with eigenvalues prec_j = 1/c0 + lambda / sigma_j,
    so row j is ((b_j V) / prec_j + (z_j V) / sqrt(prec_j)) V^T: one k x k
    eigendecomposition, and no per-row solve or factorization.  Q_j^{-1/2} is
    the symmetric inverse square root, which does not depend on the basis.
    """
    where = f"loading-row precision at iteration {iteration}"
    # eigh cannot take non-finite input; a non-finite G spoils every row.
    if not np.isfinite(gram).all():
        raise NumericalError(f"{where}, row 0 is not finite")
    eigenvalues, basis = np.linalg.eigh(gram)
    # Row j holds Q_j's eigenvalues; the prior is isotropic, so its diagonal
    # is its eigenvalues in any basis.  G is a Gram matrix, so only rounding
    # takes its eigenvalues below 0, and every precision is at least 1/c0.
    precisions = prior_precision.diagonal() + np.maximum(eigenvalues, 0.0) / variances[:, None]
    finite = np.isfinite(precisions).all(axis=1)
    if not finite.all():
        raise NumericalError(f"{where}, row {np.argmin(finite)} is not finite")
    # b_j is Q_j times row j's conditional mean, at most max(precisions_j)
    # times as long.  Both terms of the quotient are scaled by 2^-e by the
    # package's one rule (core.scale_exponent), with e clamped at 0 so that
    # 2^-e <= 1: 2^e is the power of two just above the largest precision, so
    # b V stays finite unless the mean overflows; the scaling is exact and
    # leaves the quotient unchanged.  An infinite F^T x_j still gives a NaN
    # row, as a LAPACK solve does, and step (c) reports it.
    scale = np.ldexp(1.0, -np.maximum(scale_exponent(precisions), 0))
    coordinates = ((projections / variances[:, None]) @ (basis * scale)) / (precisions * scale)
    coordinates += (z @ basis) / np.sqrt(precisions)
    return coordinates @ basis.T


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
    Steps (a) and (b) each draw Q^{-1} b + Q^{-1/2} z from one k x k
    eigendecomposition: step (a) of the factor precision shared by all
    rows, step (b) of F^T F, whose eigenvectors every loading-row precision
    shares; neither takes a triangular factor, an inverse or a per-row solve.
    Step (c) reads its residual sums of squares from the column sums of
    squares and step (b)'s F^T F and F^T x_j, so no (n, p) residual is formed.

    The factors enter only through F^T F and F^T X, so the iterations run on
    the m = min(n, p) rows of R, with X = QR the centred data, computed once
    by a blockwise QR.  The noise Z = QG + Q_perp H splits into an m x k
    standard normal G and an (n - m) x k standard normal H, and
    (F^T F, F^T X) depends on H only through H^T H, a Wishart(n - m, I_k)
    matrix.  Bartlett's decomposition draws it as T^T T, with T upper
    trapezoidal, min(n - m, k) x k: T_ii^2 ~ chi-square(n - m - i) and N(0, 1)
    above the diagonal.  So step (a) runs on R padded with min(n - m, k) zero
    rows and z = [G; T], and F^T F and F^T X have exactly their full-data
    law.  An iteration costs O(p^2 k + k^3) whatever n is; the one-time QR
    costs O(n p^2).  Columns of ``data`` are centered internally.  The chain
    carries the residual-variance draws.  A non-finite posterior precision or
    residual-variance rate raises NumericalError naming the iteration (and,
    for a loading row, the row); numpy's overflow and invalid-value warnings
    are silenced, since those checks report the same failures.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-dimensional, got shape {data.shape}")
    if not len(data):
        raise ValueError("data has no rows")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite entries")
    n, p = data.shape
    _check_identifiable(p, k)

    with np.errstate(over="ignore", invalid="ignore"):
        means, reduced = _centered_r_factor(data)
        logger.debug("centered %d columns; mean magnitudes up to %.3g", p, np.max(np.abs(means)))
        m = len(reduced)
        tail = min(n - m, k)
        reduced = np.concatenate((reduced, np.zeros((tail, p))))
        rows = m + tail
        column_squares = np.vecdot(reduced.T, reduced.T)
        # Rows m to rows of z become the Bartlett factor T; its diagonal for
        # every iteration is drawn at once.
        upper = np.triu(np.ones((tail, k)))
        diagonal = (m + np.arange(tail), np.arange(tail))

        rng = np.random.default_rng(cfg.seed)
        loadings = rng.standard_normal((p, k))
        roots = np.sqrt(rng.chisquare(n - m - np.arange(tail), size=(cfg.iterations, tail)))
        variances = np.ones(p)
        prior_precision = np.eye(k) / cfg.prior_loading_variance
        shape_post = cfg.prior_residual_shape + 0.5 * n

        kept = cfg.iterations - cfg.burn_in
        loadings_draws = np.empty((kept, p, k))
        variance_draws = np.empty((kept, p))

        for iteration in range(cfg.iterations):
            # Rows up to ``rows`` are step (a)'s noise, the rest step (b)'s.
            z = rng.standard_normal((rows + p, k))
            z[m:rows] *= upper
            z[diagonal] = roots[iteration]

            # (a) factors | loadings, variances, on the reduced rows.
            factors = _factor_rows(reduced, loadings, variances, z[:rows], iteration)

            # (b) loadings | factors, variances, all p rows at once.
            gram = factors.T @ factors
            projections = reduced.T @ factors
            loadings = _loading_rows(
                gram, projections, variances, prior_precision, z[rows:], iteration
            )

            # (c) residual variances | loadings, factors
            rates = _residual_rates(
                cfg.prior_residual_rate, column_squares, projections, loadings, gram
            )
            if not np.isfinite(rates).all():
                raise NumericalError(
                    f"residual-variance rate is not finite at iteration {iteration}"
                )
            variances = _draw_inverse_gamma(rng, shape_post, rates, size=p)

            if iteration >= cfg.burn_in:
                loadings_draws[iteration - cfg.burn_in] = loadings
                variance_draws[iteration - cfg.burn_in] = variances

    return Chain(loadings_draws, variance_draws)
