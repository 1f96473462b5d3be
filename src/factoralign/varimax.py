"""Orthogonal varimax rotation of loadings samples via cyclic pairwise sweeps.

Each sweep visits every column pair once and applies the closed-form optimal
planar rotation for the raw varimax objective.  A rotation is applied only
when its predicted objective gain clears a tolerance-scaled gate, which makes
a converged matrix an exact fixed point of ``varimax_rotate`` (re-rotating it
is a bitwise no-op).

Pair step.  For a column pair x, y of length p, let u = x*x - y*y and
v = 2*x*y.  With a = sum(u), b = sum(v), c = sum(u*u - v*v) and
d = 2*sum(u*v), the optimal angle is theta = atan2(num + 0.0, den) / 4 for
num = p*d - 2*a*b and den = p*c - (a*a - b*b), and the turn maps x, y to
cos(theta)*x + sin(theta)*y and cos(theta)*y - sin(theta)*x, for the working
columns and the rotation's columns alike.

Stacks.  ``varimax_rotate`` takes one (p, k) matrix or a (T, p, k) stack of
samples; a single matrix is rotated as a stack of one, by the same kernel.
The kernel holds the stack as one real (k, p + k, n + 1) state with the
sample axis innermost: block j holds column j of each of the n active
samples' working matrices over column j of its rotation, and the last
column is an all-zero sample whose gate is +inf, so it never turns.  Each
pair step works on every active sample at once, with real ufuncs over two
contiguous (p + k, n + 1) blocks, but the gain gate, the objective and the
stopping rule are each sample's own: one masked copy writes the turned
columns back for the samples whose gain clears their gate.  A sample leaves
the active set after its first sweep that applies no rotation (converged)
or once it has run ``max_iterations`` sweeps (not converged), so the kernel
runs as many sweeps as its slowest sample.  For a stack, ``iterations`` is
the number of sweeps the kernel ran, the largest per-sample count, and
``converged`` tells whether every sample converged; ``sample_iterations``
and ``sample_converged`` hold both per sample.

Each sample of a stack call equals the single-matrix call on it, bitwise,
by two invariants of the layout.  numpy sums a C-contiguous (p, m) array
along axis 0 one row at a time when m >= 2, but pairwise when m = 1; the
zero sample keeps m >= 2, so a sample's sums do not depend on how many
other samples are active.  And finished samples are compacted away with
``np.compress``, whose result is C-contiguous: boolean indexing would put p
innermost and make the sums pairwise again.

Scale.  The kernel rotates each sample at the power-of-two scale 2**-e that
puts its largest |entry| in [0.5, 1), before Kaiser normalization.  Scaling
by a power of two is exact, and every sweep term (u, v, num, den, the gain,
the gate and the angle) scales with it, so the rotation is the one the sample
would get at its own scale, barring underflow and overflow there.  The
working rows keep norm <= sqrt(k) under rotation, so |num| and |den| are at
most 2 p^2 k^2 and no sweep term can overflow; tiny loadings rotate as they
would at unit scale.  The rotated stack and its objective are computed at
the input's scale, and the objective is the one value checked for overflow:
the error names the first sample whose objective is not finite.

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
from dataclasses import dataclass

import numpy as np

from .core import Chain, NumericalError, validate_loadings, validate_stack

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
    afterwards).
    """

    max_iterations: int = 1000
    tolerance: float = 1e-8
    normalize: bool = False

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")


@dataclass(frozen=True)
class VarimaxResult:
    """What :func:`varimax_rotate` returns.

    For a (p, k) input ``rotated`` is (p, k), ``rotation`` (k, k) and
    ``criterion`` a float; for a (T, p, k) stack they are (T, p, k),
    (T, k, k) and (T,).  ``sample_iterations`` and ``sample_converged`` are
    (T,) arrays of sweep counts and convergence flags, with T = 1 for a
    single matrix.  ``iterations`` is their maximum, the sweeps the kernel
    ran, and ``converged`` whether every sample converged.
    """

    rotated: np.ndarray
    rotation: np.ndarray
    iterations: int
    criterion: float | np.ndarray
    converged: bool
    sample_iterations: np.ndarray
    sample_converged: np.ndarray


def _criteria(sq: np.ndarray, axis: int) -> np.ndarray:
    """Raw varimax objective per sample from squared loadings; no validation.

    ``sq`` holds the p axis at ``axis`` and the k axis just before it, as in
    (T, k, p) with ``axis=2`` or (k, p, T) with ``axis=1``.
    """
    # np.add.reduce is the reduction np.sum runs, without its Python-level
    # wrappers, which cost more than the sums themselves at these sizes.
    p = sq.shape[axis]
    return np.add.reduce(
        p * np.add.reduce(sq * sq, axis=axis) - np.add.reduce(sq, axis=axis) ** 2, axis=axis - 1
    )


def _finite_criteria(stack: np.ndarray, named: bool) -> np.ndarray:
    """Raw varimax objective per sample of a (T, p, k) stack.

    Raises :class:`NumericalError` for the first sample, in index order,
    whose objective is not finite; ``named`` puts its index in the message.
    """
    criterion = _criteria(np.square(np.ascontiguousarray(stack.transpose(0, 2, 1))), axis=2)
    finite = np.isfinite(criterion)
    if np.count_nonzero(finite) < len(finite):
        t = int(np.argmin(finite))
        message = f"varimax objective is {criterion[t]}: fourth powers of the loadings overflow"
        raise NumericalError(f"sample {t}: {message}" if named else message)
    return criterion


def varimax_criterion(m) -> float:
    """Raw varimax objective: sum over columns of p*sum(x^4) - (sum(x^2))^2.

    Raises :class:`NumericalError` when it overflows, as it does once
    entries exceed about 1e77.
    """
    return float(_finite_criteria(validate_loadings(m)[None], named=False)[0])


def _rotate_stack(arr: np.ndarray, cfg: VarimaxConfig):
    """Cyclic pair sweeps over a validated (T, p, k) stack with k >= 2.

    Returns ``rotation``, ``sweeps`` and ``converged``, each with a leading
    T axis.  Each sample is rotated at the power-of-two scale that puts its
    largest |entry| in [0.5, 1) (see the module docstring), so no step of
    the sweep can overflow.
    """
    t_len, p, k = arr.shape
    _, exponent = np.frexp(np.max(np.abs(arr), axis=(1, 2)))
    scaled = np.ldexp(arr, -exponent[:, None, None])
    if cfg.normalize:
        # Kaiser normalization; rotation preserves row norms, so returning
        # arr @ R already undoes the scaling.
        row_norms = np.sqrt(np.sum(scaled * scaled, axis=2))
        scaled = scaled / np.where(row_norms > 0, row_norms, 1.0)[:, :, None]
    # Block j holds column j of each active sample's working matrix over
    # column j of its rotation, one sample per column, and last the zero
    # sample.  numpy sums a C-contiguous (p, m) array along axis 0 one row
    # at a time when m >= 2, but pairwise when m = 1; the zero sample keeps
    # m >= 2, so a sample's sums do not depend on the other samples.
    state = np.zeros((k, p + k, t_len + 1))
    state[:, :p, :t_len] = scaled.transpose(2, 1, 0)
    state[:, p:, :t_len] = np.eye(k)[:, :, None]
    ids = np.arange(t_len)  # sample index of each active column but the last
    # Filled as samples finish.
    rotation = np.empty((t_len, k, k))
    sweeps = np.empty(t_len, dtype=np.int64)
    converged = np.empty(t_len, dtype=bool)

    pairs = [(a, b) for a in range(k - 1) for b in range(a + 1, k)]
    sweep = 0
    while ids.size:
        sweep += 1
        # A rotation is skipped unless its predicted gain clears this gate, so
        # a no-op sweep bounds the relative criterion improvement by the
        # tolerance and leaves the matrix an exact fixed point.  Four times
        # the gain is compared with four times the gate, which is exact.
        crit = _criteria(np.square(state[:, :p]), axis=1)
        gate4 = 4.0 * (cfg.tolerance * np.maximum(crit, _TINY) / len(pairs))
        gate4[-1] = np.inf  # the zero sample never turns
        applied = np.zeros(len(gate4), dtype=bool)
        for a, b in pairs:
            xy = state[a : b + 1 : b - a]  # blocks a and b
            x, y = xy[:, :p]
            u = x * x - y * y
            v = 2.0 * x * y
            sum_u = np.add.reduce(u, axis=0)
            sum_v = np.add.reduce(v, axis=0)
            num = p * (2.0 * np.add.reduce(u * v, axis=0)) - 2.0 * sum_u * sum_v
            den = p * np.add.reduce(u * u - v * v, axis=0) - (sum_u * sum_u - sum_v * sum_v)
            # hyp - den cancels catastrophically when num << den; use the stable
            # form, dividing before multiplying so that num * num cannot overflow.
            pos = den > 0
            gain4 = np.hypot(num, den) + np.abs(den)  # hyp - den where den <= 0
            ratio = np.divide(num, gain4, out=np.zeros_like(gain4), where=pos)
            np.multiply(num, ratio, out=gain4, where=pos)
            accept = gain4 > gate4
            if not np.count_nonzero(accept):
                continue
            applied |= accept
            # + 0.0 maps -0.0 to +0.0, so a zero numerator over a negative
            # den turns by +pi/4, not -pi/4.
            theta = np.arctan2(num + 0.0, den) / 4.0
            turned = np.cos(theta) * xy
            sin_xy = np.sin(theta) * xy
            turned[0] += sin_xy[1]  # cos x + sin y
            turned[1] -= sin_xy[0]  # cos y - sin x
            np.copyto(xy, turned, where=accept)

        done = ~applied if sweep < cfg.max_iterations else np.ones_like(applied)
        done[-1] = False  # the zero sample stays
        if np.count_nonzero(done):
            finished = ids[done[:-1]]
            rotation[finished] = state[:, p:, done].transpose(2, 1, 0)
            sweeps[finished] = sweep
            converged[finished] = ~applied[done]
            # np.compress returns the kept samples C-contiguous; the boolean
            # index state[:, :, ~done] would put p innermost and sum pairwise.
            state = np.compress(~done, state, axis=2)
            ids = ids[~done[:-1]]
    return rotation, sweeps, converged


def varimax_rotate(m, config: VarimaxConfig | None = None) -> VarimaxResult:
    """Rotate ``m`` to a varimax optimum with an orthogonal k x k matrix.

    ``m`` is one (p, k) matrix or a (T, p, k) stack of them, each rotated
    on its own (see the module docstring).  Returns the rotated matrix, the
    accumulated rotation ``R`` (so that ``rotated == m @ R`` up to
    round-off), the number of completed sweeps, the raw varimax objective of
    the rotated matrix, and a convergence flag.  Non-convergence within
    ``max_iterations`` is reported, not raised.  The rotation does not
    depend on the scale of ``m``: tiny loadings rotate as they would at unit
    scale.  ``criterion`` is ``varimax_criterion(rotated)``, computed at the
    input's scale, and grows as the fourth power of that scale: for loadings
    of about 2**-270 and below it underflows to 0.0, although the rotation
    is the unit-scale one.  A single column is returned as it is.  Raises
    :class:`NumericalError` when the objective of the rotated matrix
    overflows, as it does once entries exceed about 1e77.  For a stack,
    errors name the first bad sample: :class:`SampleError` for non-finite
    entries and ``NumericalError("sample t: ...")`` for overflow.
    """
    cfg = config or VarimaxConfig()
    arr = np.asarray(m, dtype=np.float64)
    named = arr.ndim == 3
    stack = validate_stack(arr, "loadings") if named else validate_loadings(arr)[None]
    t_len, _, k = stack.shape
    if k == 1:
        rotation = np.ones((t_len, 1, 1))
        sweeps = np.zeros(t_len, dtype=np.int64)
        converged = np.ones(t_len, dtype=bool)
    else:
        rotation, sweeps, converged = _rotate_stack(stack, cfg)
    rotated = stack @ rotation
    criterion = _finite_criteria(rotated, named)
    if not named:
        rotated, rotation, criterion = rotated[0], rotation[0], float(criterion[0])
    return VarimaxResult(
        rotated=rotated,
        rotation=rotation,
        iterations=int(sweeps.max()),
        criterion=criterion,
        converged=bool(converged.all()),
        sample_iterations=sweeps,
        sample_converged=converged,
    )


def orthogonalize_chain(chain: Chain, config: VarimaxConfig | None = None) -> Chain:
    """Varimax-rotate every sample of ``chain`` with one stack call of :func:`varimax_rotate`.

    Sample order is preserved and residual variances pass through untouched.
    Samples that hit ``max_iterations`` are kept and named in one warning.
    Errors name the first bad sample (see :func:`varimax_rotate`).
    """
    cfg = config or VarimaxConfig()
    result = varimax_rotate(chain.samples, cfg)
    unconverged = np.flatnonzero(~result.sample_converged)
    if unconverged.size:
        logger.warning(
            "varimax did not converge within %d sweeps for %d of %d samples; first: %s",
            cfg.max_iterations,
            unconverged.size,
            chain.n_samples,
            unconverged[:5].tolist(),
        )
    return Chain(result.rotated, chain.residual_variances)
