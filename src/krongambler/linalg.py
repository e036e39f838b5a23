"""Dense matrix helpers: Kronecker algebra, classification and sink augmentation.

Matrices are plain ``numpy.ndarray`` objects in row-major layout. Every
function returns a fresh array; inputs are never mutated. Every kernel is
built and validated densely here, and dense arithmetic doubles as the
correctness anchor. The power iteration in :mod:`krongambler.absorption`
is the one place that multiplies in sparse storage: it copies kernels of at
least ``SPARSE_MIN_STATES`` states into CSR form for its repeated products.
"""

from __future__ import annotations

import enum
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import SizeError, StochasticityError

#: Default slack for stochasticity checks; constructions are exact in exact
#: arithmetic, so the tolerance only has to cover floating-point rounding.
DEFAULT_TOL = 1e-12

#: Cap on the entry count any Kronecker construction may produce.
MAX_ENTRIES = 10**7


class StochKind(enum.Enum):
    """Classification of a real matrix by row sums and entry signs."""

    STOCHASTIC = "stochastic"
    SUBSTOCHASTIC = "substochastic"
    GENERAL = "general"


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product: block (i, j) of the result equals a[i, j] * b."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.size * b.size > MAX_ENTRIES:
        raise SizeError(
            f"Kronecker product would hold {a.size * b.size} entries "
            f"(cap {MAX_ENTRIES})"
        )
    return np.kron(a, b)


def kron_all(mats: Sequence) -> np.ndarray:
    """Left-associated Kronecker product of a nonempty sequence of matrices."""
    if len(mats) == 0:
        raise ValueError("need at least one factor")
    return reduce(kron, [as_matrix(m) for m in mats])


def kron_sum(a, b) -> np.ndarray:
    """Kronecker sum kron(a, I_b) + kron(I_a, b) of square matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    for m in (a, b):
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"Kronecker sum needs square factors, got {m.shape}")
    return kron(a, np.eye(b.shape[0])) + kron(np.eye(a.shape[0]), b)


def classify(m, tol: float = DEFAULT_TOL) -> StochKind:
    """Return the strictest row-sum classification that holds within tol."""
    m = as_matrix(m)
    if m.min(initial=0.0) < -tol:
        return StochKind.GENERAL
    sums = m.sum(axis=1)
    if np.all(np.abs(sums - 1.0) <= tol):
        return StochKind.STOCHASTIC
    if np.all(sums <= 1.0 + tol):
        return StochKind.SUBSTOCHASTIC
    return StochKind.GENERAL


def augment_sink(p_sub, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Extend a substochastic matrix with an absorbing sink at index 0.

    The sink collects each row's missing mass, so the result is stochastic;
    row and column 0 belong to the new absorbing state.
    """
    p_sub = as_matrix(p_sub)
    n = p_sub.shape[0]
    if p_sub.shape[1] != n:
        raise ValueError(f"square matrix required, got {p_sub.shape}")
    if p_sub.min(initial=0.0) < -tol:
        raise StochasticityError(
            f"entry {p_sub.min():.3e} below -tol; not substochastic"
        )
    leak = 1.0 - p_sub.sum(axis=1)
    if leak.min(initial=0.0) < -tol:
        raise StochasticityError(
            f"row sum exceeds 1 by {-leak.min():.3e}; not substochastic"
        )
    out = np.zeros((n + 1, n + 1))
    out[0, 0] = 1.0
    out[1:, 1:] = np.clip(p_sub, 0.0, None)
    out[1:, 0] = np.clip(leak, 0.0, None)
    return out
