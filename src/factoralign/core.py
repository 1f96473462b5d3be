"""Matrix value types, the Frobenius norm, signed permutations and the one rescaling rule.

Every stage that must stay finite at any scale of its input rescales by the
power of two that :func:`scale_exponent` gives: varimax per sample, the
sampler's loading-row quotient, the exact matchers' cost table, and the
diagnostics' covariance metric and ESS.  A :class:`Chain` holds its own mean
gram, mean(L L^T) at that chain-wide scale, computed once on first use
(:attr:`Chain.mean_gram`); the covariance metric reads it from there.

Conventions: a loadings matrix is a dense ``(p, k)`` float array whose rows
index observed variables and whose columns index latent factors.  All column
and sample indices are 0-based.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Chain",
    "NumericalError",
    "SignedPermutation",
    "apply_signed_permutation",
    "frobenius_norm",
    "random_signed_permutation",
]


class NumericalError(RuntimeError):
    """A floating-point failure that leaves a result meaningless.

    Raised for overflow and for an ill-conditioned sampler posterior, as
    opposed to input that is invalid on its face (``ValueError``).
    """


def validate_loadings(m, name: str = "loadings") -> np.ndarray:
    """Coerce ``m`` to a float64 (p, k) array and check the type invariants."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    p, k = arr.shape
    if p < 1 or k < 1:
        raise ValueError(f"{name} must have at least one row and one column, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def validate_stack(m, name: str) -> np.ndarray:
    """Coerce ``m`` to a float64 (T, p, k) stack and check the type invariants.

    Raises ``ValueError("sample t: ...")`` naming the first sample with a
    non-finite entry.
    """
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must have shape (T, p, k), got {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} must be non-empty in every dimension, got {arr.shape}")
    if not np.isfinite(arr).all():
        t = int(np.argmin(np.isfinite(arr).all(axis=(1, 2))))
        raise ValueError(f"sample {t}: {name} contain non-finite entries")
    return arr


def check_integers(**values) -> None:
    """Raise ``ValueError`` naming the first value that is not an integer.

    An integer is a ``numbers.Integral`` other than ``bool``: Python and numpy
    integers pass, while ``True``, 2.0, 2.5, NaN and ``"2"`` are rejected
    rather than truncated or left to fail later inside numpy.  The configs and
    ``gibbs_sample`` check their counts with it, :func:`check_seed` their
    seeds, ``align_chain`` its pivot index and ``export_traces`` each entry.
    """
    for name, value in values.items():
        # bool is a subclass of int, but True is not a count or an index.
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> None:
    """Raise ``ValueError`` naming ``seed`` unless it is an integer >= 0.

    That is what ``np.random.default_rng`` accepts.  The configs check their
    ``seed`` with it when they are constructed, and ``oracle-check`` its
    ``--seed`` before any work, so a bad seed never reaches numpy, whose own
    error names no field.
    """
    check_integers(seed=seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def scale_exponent(x: np.ndarray, axis=None) -> np.ndarray:
    """The exponent e for which max|x| * 2**-e lies in [0.5, 1), per slice along ``axis``.

    The reduced axes are kept with size 1, so ``np.ldexp(x, -e)`` rescales
    each slice, and e is 0 for a slice of zeros.  This is the package's one
    rescaling rule: a stage that must stay finite works on ``x`` scaled by
    2**-e, which is exact for normal entries, and maps its result back by
    the power of 2**e its result scales with.  The maximum is taken from
    ``max`` and ``-min``, so nothing the size of ``x`` is allocated.
    """
    peak = np.maximum(x.max(axis=axis, keepdims=True), -x.min(axis=axis, keepdims=True))
    return np.frexp(peak)[1]


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries of ``m``."""
    arr = np.asarray(m, dtype=np.float64)
    return float(np.sqrt(np.sum(arr * arr)))


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class SignedPermutation:
    """A column permutation combined with per-column sign flips.

    ``perm[j]`` is the source column placed at output column ``j`` and
    ``signs[j]`` is the sign applied to it, so applying the transform to a
    matrix ``M`` yields ``out[:, j] = signs[j] * M[:, perm[j]]``.
    """

    perm: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        # The values are checked as given and cast only once they are known
        # to be whole, so 1.7 or NaN is rejected rather than truncated.
        perm = np.asarray(self.perm)
        signs = np.asarray(self.signs)
        if perm.ndim != 1 or signs.shape != perm.shape:
            raise ValueError("perm and signs must be 1-d vectors of equal length")
        k = perm.shape[0]
        if k < 1:
            raise ValueError("signed permutation must have length >= 1")
        if not np.array_equal(np.sort(perm), np.arange(k)):
            raise ValueError("perm is not a bijection of 0..k-1")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "perm", _read_only(perm.astype(np.intp, copy=False)))
        object.__setattr__(self, "signs", _read_only(signs.astype(np.int64, copy=False)))

    @property
    def k(self) -> int:
        return int(self.perm.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return np.array_equal(self.perm, other.perm) and np.array_equal(self.signs, other.signs)

    def __repr__(self) -> str:
        return f"SignedPermutation(perm={self.perm.tolist()}, signs={self.signs.tolist()})"


def apply_signed_permutation(m, sp: SignedPermutation) -> np.ndarray:
    """Right-multiply ``m`` by the signed permutation, i.e. reorder and re-sign columns."""
    arr = validate_loadings(m)
    if sp.k != arr.shape[1]:
        raise ValueError(f"signed permutation length {sp.k} does not match {arr.shape[1]} columns")
    return arr[:, sp.perm] * sp.signs


def random_signed_permutation(k: int, rng: np.random.Generator) -> SignedPermutation:
    """Uniform random signed permutation drawn from ``rng``."""
    perm = rng.permutation(k)
    signs = rng.choice([-1, 1], size=k)
    return SignedPermutation(perm, signs)


@dataclass(frozen=True, eq=False)
class Chain:
    """An ordered collection of posterior loadings samples.

    ``samples`` has shape (T, p, k); ``residual_variances``, when present,
    has shape (T, p) with strictly positive entries.  Arrays are kept as
    read-only views, so a chain can be shared without being copied.  The
    arrays they view must not change after construction: the chain computes
    its :attr:`mean_gram` once, on first use, and keeps it.
    """

    samples: np.ndarray
    residual_variances: np.ndarray | None = None

    def __post_init__(self):
        samples = validate_stack(self.samples, "samples")
        t, p, _ = samples.shape
        object.__setattr__(self, "samples", _read_only(samples))
        if self.residual_variances is not None:
            rv = np.asarray(self.residual_variances, dtype=np.float64)
            if rv.shape != (t, p):
                raise ValueError(
                    f"residual_variances must have shape ({t}, {p}), got {rv.shape}"
                )
            if not np.isfinite(rv).all() or np.any(rv <= 0):
                raise ValueError("residual_variances must be finite and strictly positive")
            object.__setattr__(self, "residual_variances", _read_only(rv))

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])

    @property
    def n_variables(self) -> int:
        return int(self.samples.shape[1])

    @property
    def n_factors(self) -> int:
        return int(self.samples.shape[2])

    @functools.cached_property
    def mean_gram(self) -> tuple[np.ndarray, int]:
        """mean(L L^T) at the chain's scale, as ``(G, e)`` with G = mean(L L^T) * 2**-2e.

        e is the chain-wide :func:`scale_exponent`, so G is finite whatever
        the scale of the samples.  G is read-only, and computed once per
        chain: the first read computes it, later reads return the same pair.
        """
        e = scale_exponent(self.samples).item()
        # sum_t L_t L_t^T is one product of the (p, T*k) unfolding with itself,
        # scaled in the one C-order copy that the unfolding needs.
        unfolded = np.ldexp(self.samples.swapaxes(0, 1), -e, order="C")
        unfolded = unfolded.reshape(self.n_variables, -1)
        return _read_only(unfolded @ unfolded.T / self.n_samples), e
