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

Stacks.  ``varimax_rotate`` takes a (T, p, k) stack of samples, and every
field of its result but ``iterations`` and ``converged`` keeps the sample
axis; a caller with one matrix passes ``m[None]`` and reads row 0.  The
kernel holds the stack as one real (k, p + k, n + 1) state with the
sample axis innermost: block j holds column j of each of the n active
samples' working matrices over column j of its rotation, and the last
column is an all-zero sample whose gate is +inf, so it never turns.  Each
pair step works on every active sample at once, with real ufuncs over two
contiguous (p + k, n + 1) blocks, but the gain gate, the objective and the
stopping rule are each sample's own: a sample whose gain misses its gate, or
whose pair is flat (below), turns by an angle of exactly 0, and every sample
is turned in place.  A zero angle has cos 1 and sin 0, so it can change an
entry only by adding a signed zero to it, which changes nothing but a
-0.0.  The rotation's rows never hold -0.0: they start as the identity, and
every turn has cos(theta) >= 1/sqrt(2).  So a zero angle leaves them
bitwise unchanged.  It can flip the sign of a working row's zeros, but
those signs reach only squares, products and num, where num + 0.0 erases
them, so no angle, gain or stopping decision changes.  A sample leaves
the active set after its first sweep that applies no rotation (converged)
or once it has run ``max_iterations`` sweeps (not converged), so the kernel
runs as many sweeps as its slowest sample.  ``iterations`` is the number
of sweeps the kernel ran, the largest per-sample count, and
``converged`` tells whether every sample converged; ``sample_iterations``
and ``sample_converged`` hold both per sample.

Each sample's result equals, bitwise, the result for a stack of that
sample alone, by two invariants of the layout.  numpy sums a C-contiguous
(p, m) array along axis 0 one row at a time when m >= 2, but pairwise when
m = 1; the zero sample keeps m >= 2, so a sample's sums do not depend on
how many other samples are active.  And finished samples are compacted away with
``np.compress``, whose result is C-contiguous: boolean indexing would put p
innermost and make the sums pairwise again.

Scale.  The kernel rotates each sample at the package's one power-of-two
scale (``core.scale_exponent``): 2**-e puts its largest |entry| in
[0.5, 1), before Kaiser normalization.  Scaling by a power of two is exact,
and every sweep term (u, v, num, den, the gain, the gate and the angle)
scales with it, so the rotation is the one the sample would get at its own
scale, barring underflow and overflow there.  The
working rows keep norm <= sqrt(k) under rotation, so |num| and |den| are at
most 2 p^2 k^2 and no sweep term can overflow; tiny loadings rotate as they
would at unit scale.  The rotated stack and its objective are computed at
the input's scale, and the objective is the one value checked for overflow:
the error names the first sample whose objective is not finite.

Flat pairs.  A pair's objective in the angle is a constant plus an amplitude
proportional to hyp = |num + i*den|, times cos(4*theta - phi), so a pair
with hyp at rounding level has a flat objective, and rounding alone would
decide whether and where it turns.  With Kaiser normalization and exactly
duplicated or negated columns this is exact: the normalized pair has rank
one and entries of equal magnitude, and its objective is the same at every
angle.  So a turn also needs hyp above 64 eps times the magnitudes of the
terms of num and den, p*|d| + p*|c| + 2*|a*b| + a*a + b*b.  The check runs
only on pair steps where some sample clears its gate.

Limits.  The fixed point holds for generic tall inputs.  With exactly
duplicated or negated columns it rests on the flat-pair check, and has held
in stress runs of 14,000 such inputs (k = 2 to 5, with and without Kaiser
normalization), but no proof covers it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Chain,
    NumericalError,
    check_integers,
    scale_exponent,
    validate_stack,
)

__all__ = [
    "VarimaxConfig",
    "VarimaxResult",
    "orthogonalize_chain",
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
        # A fractional cap would run one more sweep than its integer part.
        check_integers(max_iterations=self.max_iterations)
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")


@dataclass(frozen=True)
class VarimaxResult:
    """What :func:`varimax_rotate` returns for a (T, p, k) stack.

    ``rotated`` is (T, p, k), ``rotation`` (T, k, k), and ``criterion``,
    ``sample_iterations`` and ``sample_converged`` are (T,) arrays of
    objectives, sweep counts and convergence flags.  ``iterations`` is the
    largest sweep count, the sweeps the kernel ran, and ``converged``
    whether every sample converged.
    """

    rotated: np.ndarray
    rotation: np.ndarray
    iterations: int
    criterion: np.ndarray
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


@np.errstate(over="ignore", invalid="ignore")  # the check below reports overflow
def _finite_criteria(stack: np.ndarray) -> np.ndarray:
    """Raw varimax objective per sample of a (T, p, k) stack.

    Raises :class:`NumericalError` naming the first sample, in index order,
    whose objective is not finite.
    """
    # Squared into a C-ordered (T, k, p) array, so each column's sum over p
    # runs over contiguous memory whatever T is.
    criterion = _criteria(np.square(stack.transpose(0, 2, 1), order="C"), axis=2)
    finite = np.isfinite(criterion)
    if np.count_nonzero(finite) < len(finite):
        t = int(np.argmin(finite))
        message = f"varimax objective is {criterion[t]}: fourth powers of the loadings overflow"
        raise NumericalError(f"sample {t}: {message}")
    return criterion


def _rotate_stack(arr: np.ndarray, cfg: VarimaxConfig):
    """Cyclic pair sweeps over a validated (T, p, k) stack.

    Returns ``rotation``, ``sweeps`` and ``converged``, each with a leading
    T axis.  They start at the identity, 0 and True, so a single column,
    which has no pair to turn, keeps them.  Each sample is rotated at the
    power-of-two scale that puts its largest |entry| in [0.5, 1)
    (:func:`~factoralign.core.scale_exponent`, see the module docstring), so
    no step of the sweep can overflow.
    """
    t_len, p, k = arr.shape
    scaled = np.ldexp(arr, -scale_exponent(arr, axis=(1, 2)))
    if cfg.normalize:
        # Kaiser normalization; rotation preserves row norms, so returning
        # arr @ R already undoes the scaling.
        row_norms = np.sqrt(np.sum(scaled * scaled, axis=2))
        scaled /= np.where(row_norms > 0, row_norms, 1.0)[:, :, None]
    # Block j holds column j of each active sample's working matrix over
    # column j of its rotation, one sample per column, and last the zero
    # sample.  numpy sums a C-contiguous (p, m) array along axis 0 one row
    # at a time when m >= 2, but pairwise when m = 1; the zero sample keeps
    # m >= 2, so a sample's sums do not depend on the other samples.
    state = np.zeros((k, p + k, t_len + 1))
    state[:, :p, :t_len] = scaled.transpose(2, 1, 0)
    state[:, p:, :t_len] = np.eye(k)[:, :, None]
    ids = np.arange(t_len)  # sample index of each active column but the last
    # Overwritten as samples finish.
    rotation = np.tile(np.eye(k), (t_len, 1, 1))
    sweeps = np.zeros(t_len, dtype=np.int64)
    converged = np.ones(t_len, dtype=bool)

    pairs = [(a, b) for a in range(k - 1) for b in range(a + 1, k)]
    sweep = 0
    while ids.size and pairs:
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
            pd, ab2 = p * (2.0 * np.add.reduce(u * v, axis=0)), 2.0 * sum_u * sum_v
            pc, a2, b2 = p * np.add.reduce(u * u - v * v, axis=0), sum_u * sum_u, sum_v * sum_v
            num, den = pd - ab2, pc - (a2 - b2)
            # hyp - den cancels catastrophically when num << den; use the stable
            # form, dividing before multiplying so that num * num cannot overflow.
            pos = den > 0
            hyp = np.hypot(num, den)
            gain4 = hyp + np.abs(den)  # hyp - den where den <= 0
            ratio = np.divide(num, gain4, out=np.zeros_like(gain4), where=pos)
            np.multiply(num, ratio, out=gain4, where=pos)
            accept = gain4 > gate4
            if not np.count_nonzero(accept):
                continue
            # A flat pair (see the module docstring) turns by rounding alone.
            accept &= hyp > 2.0**-46 * (np.abs(pd) + np.abs(pc) + np.abs(ab2) + a2 + b2)
            applied |= accept
            # + 0.0 maps -0.0 to +0.0, so a zero numerator over a negative
            # den turns by +pi/4, not -pi/4.  The other samples turn by exactly
            # 0: their rotation rows hold no -0.0, since every turn has
            # cos(theta) >= 1/sqrt(2), so they stay bitwise as they are.
            theta = np.arctan2(num + 0.0, den, out=np.zeros_like(num), where=accept) / 4.0
            sin_xy = np.sin(theta) * xy
            np.multiply(np.cos(theta), xy, out=xy)
            np.add(xy[0], sin_xy[1], out=xy[0])  # cos x + sin y
            np.subtract(xy[1], sin_xy[0], out=xy[1])  # cos y - sin x

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
    """Rotate each sample of a (T, p, k) stack to a varimax optimum.

    Each sample is rotated on its own by an orthogonal k x k matrix (see the
    module docstring); a caller with one (p, k) matrix passes ``m[None]``
    and reads row 0 of each array field.  Returns the rotated samples, the
    accumulated rotations ``R`` (so that ``rotated == m @ R`` up to
    round-off), the sweep counts, the raw varimax objective of each rotated
    sample, and convergence flags (see :class:`VarimaxResult`).
    Non-convergence within ``max_iterations`` is reported, not raised.  The
    rotation does not depend on the scale of a sample: tiny loadings rotate
    as they would at unit scale.  ``criterion`` is the raw varimax objective
    of each rotated sample, the sum over its columns x of
    p*sum(x**4) - sum(x**2)**2, computed at the input's scale, and grows as
    the fourth power of that scale: for loadings of about 2**-270 and below
    it underflows to 0.0, although the rotation is the unit-scale one.
    Every column count runs the same kernel; a single column has no pair to
    turn, so it is returned as it is, after 0 sweeps.  Raises
    ``ValueError`` unless ``m`` has shape (T, p, k), and errors name the
    first bad sample in their message: ``ValueError("sample t: ...")`` for
    non-finite entries and ``NumericalError("sample t: ...")`` when the
    objective of the rotated sample overflows, as it does once entries
    exceed about 1e77.
    """
    cfg = config or VarimaxConfig()
    stack = validate_stack(m, "loadings")
    rotation, sweeps, converged = _rotate_stack(stack, cfg)
    rotated = stack @ rotation
    return VarimaxResult(
        rotated=rotated,
        rotation=rotation,
        iterations=int(sweeps.max()),
        criterion=_finite_criteria(rotated),
        converged=bool(converged.all()),
        sample_iterations=sweeps,
        sample_converged=converged,
    )


def orthogonalize_chain(chain: Chain, config: VarimaxConfig | None = None) -> VarimaxResult:
    """Varimax-rotate every sample of ``chain`` with one stack call of :func:`varimax_rotate`.

    Returns that call's :class:`VarimaxResult`, whose arrays keep the
    chain's sample order: the rotated stack, each sample's rotation and its
    sweep data.  No rotated chain is built:
    :func:`~factoralign.align.align_chain` takes the result with the raw
    chain.  Samples that hit
    ``max_iterations`` are kept and named in one warning.  Errors name the
    first bad sample (see :func:`varimax_rotate`).
    """
    result = varimax_rotate(chain.samples, config)
    unconverged = np.flatnonzero(~result.sample_converged)
    if unconverged.size:
        # A sample that did not converge ran max_iterations sweeps, the most any ran.
        logger.warning(
            "varimax did not converge within %d sweeps for %d of %d samples; first: %s",
            result.iterations,
            unconverged.size,
            chain.n_samples,
            unconverged[:5].tolist(),
        )
    return result
