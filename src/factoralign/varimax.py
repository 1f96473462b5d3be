"""Orthogonal varimax rotation of loadings samples via cyclic pairwise sweeps.

Each sweep visits every column pair once and applies the closed-form optimal
planar rotation for the raw varimax objective.  A rotation is applied only
when its predicted objective gain clears a tolerance-scaled gate, which makes
a converged matrix an exact fixed point of ``varimax_rotate`` (re-rotating it
is a bitwise no-op).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import Chain, SampleError, validate_loadings

__all__ = [
    "VarimaxConfig",
    "VarimaxResult",
    "orthogonalize_chain",
    "varimax_criterion",
    "varimax_rotate",
]

logger = logging.getLogger(__name__)

_TINY = 1e-300


@dataclass(frozen=True)
class VarimaxConfig:
    """Iteration controls for :func:`varimax_rotate`.

    ``tolerance`` bounds the relative objective improvement per full sweep
    below which iteration stops.  ``normalize`` enables Kaiser row
    normalization (rows scaled to unit length during rotation and rescaled
    afterwards).  ``debug`` asserts per-sweep monotonicity of the objective.
    """

    max_iterations: int = 1000
    tolerance: float = 1e-8
    normalize: bool = False
    debug: bool = False

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")


@dataclass(frozen=True)
class VarimaxResult:
    rotated: np.ndarray
    rotation: np.ndarray
    iterations: int
    criterion: float
    converged: bool


def varimax_criterion(m) -> float:
    """Raw varimax objective: sum over columns of p*sum(x^4) - (sum(x^2))^2."""
    arr = validate_loadings(m)
    p = arr.shape[0]
    sq = arr * arr
    return float(np.sum(p * np.sum(sq * sq, axis=0) - np.sum(sq, axis=0) ** 2))


def _pair_rotation(x: np.ndarray, y: np.ndarray, p: int) -> tuple[float, float]:
    """Optimal planar angle for one column pair and its predicted objective gain."""
    u = x * x - y * y
    v = 2.0 * x * y
    a = float(np.sum(u))
    b = float(np.sum(v))
    c = float(np.sum(u * u - v * v))
    d = 2.0 * float(np.sum(u * v))
    num = p * d - 2.0 * a * b
    den = p * c - (a * a - b * b)
    hyp = math.hypot(num, den)
    # hyp - den cancels catastrophically when num << den; use the stable form.
    if den > 0:
        gain = 0.25 * num * num / (hyp + den) if hyp + den > 0 else 0.0
    else:
        gain = 0.25 * (hyp - den)
    theta = 0.25 * math.atan2(num, den)
    return theta, gain


def varimax_rotate(m, config: VarimaxConfig | None = None) -> VarimaxResult:
    """Rotate ``m`` to a varimax optimum with an orthogonal k x k matrix.

    Returns the rotated matrix, the accumulated rotation ``R`` (so that
    ``rotated == m @ R`` up to round-off), the number of completed sweeps,
    the raw varimax objective of the rotated matrix, and a convergence flag.
    Non-convergence within ``max_iterations`` is reported, not raised.
    """
    arr = validate_loadings(m)
    cfg = config or VarimaxConfig()
    p, k = arr.shape
    if k == 1:
        return VarimaxResult(
            rotated=arr.copy(),
            rotation=np.eye(1),
            iterations=0,
            criterion=varimax_criterion(arr),
            converged=True,
        )

    if cfg.normalize:
        # Kaiser normalization; rotation preserves row norms, so returning
        # arr @ R below already undoes the scaling.
        row_norms = np.sqrt(np.sum(arr * arr, axis=1))
        work = arr / np.where(row_norms > 0, row_norms, 1.0)[:, None]
    else:
        work = arr.copy()

    rotation = np.eye(k)
    n_pairs = k * (k - 1) // 2
    crit = varimax_criterion(work)
    converged = False
    sweeps = 0
    for _ in range(cfg.max_iterations):
        # A rotation is skipped unless its predicted gain clears this gate, so
        # a no-op sweep bounds the relative criterion improvement by the
        # tolerance and leaves the matrix an exact fixed point.
        gate = cfg.tolerance * max(crit, _TINY) / n_pairs
        applied = False
        for a_col in range(k - 1):
            for b_col in range(a_col + 1, k):
                x = work[:, a_col]
                y = work[:, b_col]
                theta, gain = _pair_rotation(x, y, p)
                if not gain > gate:
                    continue
                applied = True
                cos_t = math.cos(theta)
                sin_t = math.sin(theta)
                new_a = cos_t * x + sin_t * y
                new_b = cos_t * y - sin_t * x
                work[:, a_col] = new_a
                work[:, b_col] = new_b
                ra = rotation[:, a_col].copy()
                rb = rotation[:, b_col].copy()
                rotation[:, a_col] = cos_t * ra + sin_t * rb
                rotation[:, b_col] = cos_t * rb - sin_t * ra
        sweeps += 1
        new_crit = varimax_criterion(work)
        if cfg.debug:
            assert new_crit >= crit - 1e-12 * max(1.0, crit), "criterion decreased within a sweep"
        crit = new_crit
        if not applied:
            converged = True
            break

    rotated = arr @ rotation
    return VarimaxResult(
        rotated=rotated,
        rotation=rotation,
        iterations=sweeps,
        criterion=varimax_criterion(rotated),
        converged=converged,
    )


def orthogonalize_chain(chain: Chain, config: VarimaxConfig | None = None) -> Chain:
    """Apply :func:`varimax_rotate` to every sample of ``chain``.

    Sample order is preserved and residual variances pass through untouched.
    Samples that hit ``max_iterations`` are kept and named in one warning.
    """
    cfg = config or VarimaxConfig()
    rotated = np.empty(chain.samples.shape)
    unconverged = []
    for t, sample in enumerate(chain.samples):
        try:
            result = varimax_rotate(sample, cfg)
        except ValueError as exc:
            raise SampleError(t, str(exc)) from exc
        rotated[t] = result.rotated
        if not result.converged:
            unconverged.append(t)
    if unconverged:
        logger.warning(
            "varimax did not converge within %d sweeps for %d of %d samples; first: %s",
            cfg.max_iterations,
            len(unconverged),
            chain.n_samples,
            unconverged[:5],
        )
    return Chain(rotated, chain.residual_variances)
