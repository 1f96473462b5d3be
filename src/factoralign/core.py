"""Matrix value types, norms, and signed-permutation algebra shared by all modules.

Conventions: a loadings matrix is a dense ``(p, k)`` float array whose rows
index observed variables and whose columns index latent factors.  All column
and sample indices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Chain",
    "NumericalError",
    "SampleError",
    "SignedPermutation",
    "apply_signed_permutation",
    "column_l2_norms",
    "compose",
    "frobenius_norm",
    "random_signed_permutation",
    "validate_loadings",
    "validate_stack",
]


class NumericalError(RuntimeError):
    """A floating-point failure that leaves a result meaningless.

    Raised for overflow and for an ill-conditioned sampler posterior, as
    opposed to input that is invalid on its face (``ValueError``).
    """


class SampleError(ValueError):
    """A per-sample failure inside a chain-level operation.

    Carries the offending sample index so batch operations can report
    exactly which posterior draw was bad.
    """

    def __init__(self, index: int, message: str):
        super().__init__(f"sample {index}: {message}")
        self.index = index


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry is finite.

    A single non-finite entry makes the sum non-finite, so the fast path is
    one reduction; the exact elementwise scan only runs when the sum overflows
    or a non-finite value might be present.
    """
    if math.isfinite(float(np.sum(arr))):
        return True
    return bool(np.all(np.isfinite(arr)))


def validate_loadings(m, name: str = "loadings") -> np.ndarray:
    """Coerce ``m`` to a float64 (p, k) array and check the type invariants."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    p, k = arr.shape
    if p < 1 or k < 1:
        raise ValueError(f"{name} must have at least one row and one column, got {arr.shape}")
    if not all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def validate_stack(m, name: str) -> np.ndarray:
    """Coerce ``m`` to a float64 (T, p, k) stack and check the type invariants.

    Raises :class:`SampleError` naming the first sample with a non-finite entry.
    """
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must have shape (T, p, k), got {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} must be non-empty in every dimension, got {arr.shape}")
    if not all_finite(arr):
        t = int(np.argmin(np.isfinite(arr).all(axis=(1, 2))))
        raise SampleError(t, f"{name} contain non-finite entries")
    return arr


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries of ``m``."""
    arr = np.asarray(m, dtype=np.float64)
    return float(np.sqrt(np.sum(arr * arr)))


def column_l2_norms(m) -> np.ndarray:
    """L2 norm of each column of ``m`` as a length-k vector."""
    arr = validate_loadings(m)
    return np.sqrt(np.sum(arr * arr, axis=0))


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
        perm = np.asarray(self.perm, dtype=np.intp)
        signs = np.asarray(self.signs, dtype=np.int64)
        if perm.ndim != 1 or signs.shape != perm.shape:
            raise ValueError("perm and signs must be 1-d vectors of equal length")
        k = perm.shape[0]
        if k < 1:
            raise ValueError("signed permutation must have length >= 1")
        if not np.array_equal(np.sort(perm), np.arange(k)):
            raise ValueError("perm is not a bijection of 0..k-1")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "perm", _read_only(perm))
        object.__setattr__(self, "signs", _read_only(signs))

    @property
    def k(self) -> int:
        return int(self.perm.shape[0])

    @classmethod
    def identity(cls, k: int) -> "SignedPermutation":
        return cls(np.arange(k), np.ones(k, dtype=np.int64))

    def inverse(self) -> "SignedPermutation":
        inv = np.argsort(self.perm)
        return SignedPermutation(inv, self.signs[inv])

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


def compose(sp1: SignedPermutation, sp2: SignedPermutation) -> SignedPermutation:
    """The single transform equivalent to applying ``sp1`` then ``sp2``."""
    if sp1.k != sp2.k:
        raise ValueError(f"cannot compose signed permutations of length {sp1.k} and {sp2.k}")
    return SignedPermutation(sp1.perm[sp2.perm], sp2.signs * sp1.signs[sp2.perm])


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
    read-only views, so a chain can be shared without being copied.
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
            if not all_finite(rv) or np.any(rv <= 0):
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
