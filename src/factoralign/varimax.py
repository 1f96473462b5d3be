"""Orthogonal varimax rotation of loadings samples via cyclic pairwise sweeps.

Each sweep visits every column pair once and applies the closed-form optimal
planar rotation for the raw varimax objective.  A rotation is applied only
when its predicted objective gain clears a tolerance-scaled gate, which makes
a converged matrix an exact fixed point of ``varimax_rotate`` (re-rotating it
is a bitwise no-op).

Complex pair form.  For a column pair x, y of length p, let u = x*x - y*y,
v = 2*x*y and w = u + iv.  Then a + ib = sum(w) and c + id = sum(w*w)
(unconjugated), and q = p*(c + id) - (a + ib)^2 holds the numerator
(imaginary part) and denominator (real part) of the optimal angle,
theta = atan2(Im q, Re q) / 4.  An accepted rotation multiplies x + iy by
exp(-i*theta), for the working columns and the rotation's columns in one
buffer.  Each pair thus costs a handful of numpy calls whatever p is.  u and
v are formed by real products, as the closed form is written: squaring
z = x + iy instead would give a real part x*x - y*y fused into one rounding,
which leaves a residue where the real products cancel exactly (|x| = |y|).

Limits.  The fixed point holds for generic tall inputs.  With exactly
duplicated or negated columns a pair's angle sits on a tie of the objective,
and re-rotating a converged matrix can move it by about 1e-16.  With Kaiser
normalization, k = 2 and such columns, the normalized matrix has rank one
and entries of equal magnitude, so the objective is zero for every rotation:
rounding alone decides where a sweep stops and whether a re-rotation moves
the result.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import Chain, NumericalError, SampleError, validate_loadings

__all__ = [
    "VarimaxConfig",
    "VarimaxResult",
    "orthogonalize_chain",
    "varimax_criterion",
    "varimax_rotate",
]

logger = logging.getLogger(__name__)

_TINY = 1e-300
# Below this bound hyp +- den stays finite; nan and inf fail the comparison.
_HYP_LIMIT = 0.5 * sys.float_info.max


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
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")


@dataclass(frozen=True)
class VarimaxResult:
    rotated: np.ndarray
    rotation: np.ndarray
    iterations: int
    criterion: float
    converged: bool


def _criterion(sq: np.ndarray) -> float:
    """Raw varimax objective from the (p, k) squared loadings; no validation."""
    # np.add.reduce is the reduction np.sum runs, without its Python-level
    # wrappers, which cost more than the sums themselves at these sizes.
    p = sq.shape[0]
    return float(np.add.reduce(p * np.add.reduce(sq * sq) - np.add.reduce(sq) ** 2))


def _checked_criterion(sq: np.ndarray) -> float:
    crit = _criterion(sq)
    if not math.isfinite(crit):
        raise NumericalError(f"varimax objective is {crit}: fourth powers of the loadings overflow")
    return crit


def varimax_criterion(m) -> float:
    """Raw varimax objective: sum over columns of p*sum(x^4) - (sum(x^2))^2."""
    arr = validate_loadings(m)
    return _criterion(arr * arr)


def varimax_rotate(m, config: VarimaxConfig | None = None) -> VarimaxResult:
    """Rotate ``m`` to a varimax optimum with an orthogonal k x k matrix.

    Returns the rotated matrix, the accumulated rotation ``R`` (so that
    ``rotated == m @ R`` up to round-off), the number of completed sweeps,
    the raw varimax objective of the rotated matrix, and a convergence flag.
    Non-convergence within ``max_iterations`` is reported, not raised.
    Raises :class:`NumericalError` when the objective or a column pair's
    angle terms overflow, as they do once entries exceed about 1e76; a single
    column is returned as it is, with its criterion as computed.
    """
    arr = validate_loadings(m)
    cfg = config or VarimaxConfig()
    p, k = arr.shape
    if k == 1:
        return VarimaxResult(
            rotated=arr.copy(),
            rotation=np.eye(1),
            iterations=0,
            criterion=_criterion(arr * arr),
            converged=True,
        )

    # Row j of ``state`` holds column j of the working matrix (p entries)
    # followed by column j of the accumulated rotation (k entries), so one
    # complex multiply rotates a column pair of both.
    state = np.empty((k, p + k))
    work = state[:, :p]
    if cfg.normalize:
        # Kaiser normalization; rotation preserves row norms, so returning
        # arr @ R below already undoes the scaling.
        row_norms = np.sqrt(np.sum(arr * arr, axis=1))
        work[:] = (arr / np.where(row_norms > 0, row_norms, 1.0)[:, None]).T
    else:
        work[:] = arr.T
    state[:, p:] = np.eye(k)
    sq = work * work

    w = np.empty(p, dtype=np.complex128)
    u, v = w.real, w.imag
    z = np.empty(p + k, dtype=np.complex128)
    z_parts = z.view(np.float64).reshape(p + k, 2).T  # rows: z.real, z.imag
    # Per column pair, in cyclic order: views of its two working rows and
    # their squares, and the strided slice that selects both rows at once.
    pairs = [
        (work[a], work[b], sq[a], sq[b], slice(a, b + 1, b - a))
        for a in range(k - 1)
        for b in range(a + 1, k)
    ]

    crit = _checked_criterion(sq.T)
    converged = False
    sweeps = 0
    for _ in range(cfg.max_iterations):
        # A rotation is skipped unless its predicted gain clears this gate, so
        # a no-op sweep bounds the relative criterion improvement by the
        # tolerance and leaves the matrix an exact fixed point.
        gate = cfg.tolerance * max(crit, _TINY) / len(pairs)
        applied = False
        for x, y, x_sq, y_sq, ab in pairs:
            np.subtract(x_sq, y_sq, out=u)
            np.multiply(x, y, out=v)
            v *= 2.0
            s = complex(np.add.reduce(w))  # w.sum() without its Python wrapper
            q = p * complex(w.dot(w)) - s * s
            # + 0.0 maps -0.0 to +0.0, so a zero numerator over a negative
            # den turns by +pi/4, not -pi/4.
            num = q.imag + 0.0
            den = q.real
            hyp = math.hypot(num, den)
            if not hyp < _HYP_LIMIT:
                raise NumericalError(
                    f"varimax angle terms of columns {ab.start} and {ab.stop - 1} overflow"
                )
            # hyp - den cancels catastrophically when num << den; use the stable
            # form, dividing before multiplying so that num * num cannot overflow.
            if den > 0:
                gain = 0.25 * num * (num / (hyp + den))
            else:
                gain = 0.25 * (hyp - den)
            if not gain > gate:
                continue
            applied = True
            theta = 0.25 * math.atan2(num, den)
            np.copyto(z_parts, state[ab])
            z *= complex(math.cos(theta), -math.sin(theta))
            state[ab] = z_parts
            np.multiply(work[ab], work[ab], out=sq[ab])
        sweeps += 1
        new_crit = _checked_criterion(sq.T)
        if cfg.debug:
            assert new_crit >= crit - 1e-12 * max(1.0, crit), "criterion decreased within a sweep"
        crit = new_crit
        if not applied:
            converged = True
            break

    rotation = state[:, p:].T.copy()
    rotated = arr @ rotation
    return VarimaxResult(
        rotated=rotated,
        rotation=rotation,
        iterations=sweeps,
        criterion=_checked_criterion(rotated * rotated),
        converged=converged,
    )


def orthogonalize_chain(chain: Chain, config: VarimaxConfig | None = None) -> Chain:
    """Apply :func:`varimax_rotate` to every sample of ``chain``.

    Sample order is preserved and residual variances pass through untouched.
    Samples that hit ``max_iterations`` are kept and named in one warning.
    A :class:`NumericalError` is raised again naming the sample.
    """
    cfg = config or VarimaxConfig()
    rotated = np.empty(chain.samples.shape)
    unconverged = []
    for t, sample in enumerate(chain.samples):
        try:
            result = varimax_rotate(sample, cfg)
        except ValueError as exc:
            raise SampleError(t, str(exc)) from exc
        except NumericalError as exc:
            raise NumericalError(f"sample {t}: {exc}") from exc
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
