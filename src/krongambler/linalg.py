"""Matrix helpers: Kronecker products, sink augmentation and absorption
probabilities.

Every function returns a fresh array; inputs are never mutated. The dense
helpers take plain ``numpy.ndarray`` objects in row-major layout: only the
spectral link is built with :func:`kron_all`, and ``MAX_ENTRIES`` caps
every dense Kronecker product and every dense copy of a kernel
(``game.AbsorbingChain.dense``). The game kernel and the pure-birth dual
are assembled in CSR form by :func:`krongambler.game.kron_mixture`,
straight from their tridiagonal and bidiagonal factors.
:func:`absorption_probabilities` is the one linear solve for absorption
probabilities, a sparse LU on dense or sparse kernels.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import SizeError, StochasticityError

#: Slack for stochasticity checks; constructions are exact in exact
#: arithmetic, so the tolerance only has to cover floating-point rounding.
DEFAULT_TOL = 1e-12

#: Cap on the entry count of any dense Kronecker product or dense kernel.
MAX_ENTRIES = 10**7

#: Cap on the (row, col, value) triplets a sparse game build assembles. A
#: triplet costs about 130 bytes at the build's peak against 8 for a dense
#: entry, and the sparse LU of a 2-D game adds about 100 entries of fill
#: per state (7 triplets), so at this cap a ``win-prob`` request peaks near
#: 360 MB, close to the 315 MB of a dense build at MAX_ENTRIES.
MAX_TRIPLETS = MAX_ENTRIES // 10


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


def augment_sink(p_sub) -> np.ndarray:
    """Extend a substochastic matrix with an absorbing sink at index 0.

    The sink collects each row's missing mass, so the result is stochastic;
    row and column 0 belong to the new absorbing state.
    """
    p_sub = as_matrix(p_sub)
    n = p_sub.shape[0]
    if p_sub.shape[1] != n:
        raise ValueError(f"square matrix required, got {p_sub.shape}")
    if p_sub.min(initial=0.0) < -DEFAULT_TOL:
        raise StochasticityError(
            f"entry {p_sub.min():.3e} below -{DEFAULT_TOL:g}; not substochastic"
        )
    leak = 1.0 - p_sub.sum(axis=1)
    if leak.min(initial=0.0) < -DEFAULT_TOL:
        raise StochasticityError(
            f"row sum exceeds 1 by {-leak.min():.3e}; not substochastic"
        )
    out = np.zeros((n + 1, n + 1))
    out[0, 0] = 1.0
    out[1:, 1:] = np.clip(p_sub, 0.0, None)
    out[1:, 0] = np.clip(leak, 0.0, None)
    return out


def absorption_probabilities(kernel, transient, target: int) -> np.ndarray:
    """Probability of absorption at ``target`` from every state of a chain.

    ``kernel`` is a dense or sparse substochastic matrix and ``transient``
    the indices of its transient states. On them the result h solves
    (I - Q) h = P[transient, target], Q the transient block, by one sparse
    LU factorization; h is 1 at ``target`` and 0 at every other state.
    """
    coo = sparse.coo_array(kernel)
    rows, cols, vals = coo.row, coo.col, coo.data
    h = np.zeros(kernel.shape[0])
    h[target] = 1.0
    m = len(transient)
    if m:
        # position of each state among the transient ones, -1 elsewhere
        pos = np.full(len(h), -1)
        pos[transient] = np.arange(m)
        r, c = pos[rows], pos[cols]
        inner = (r >= 0) & (c >= 0)
        hit = (r >= 0) & (cols == target)
        rhs = np.zeros(m)
        rhs[r[hit]] = vals[hit]
        r, c = r[inner], c[inner]
        diag = np.arange(m)
        # I - Q, built as CSC: splu warns on any other format
        system = sparse.csc_array(
            (np.concatenate([np.ones(m), -vals[inner]]),
             (np.concatenate([diag, r]), np.concatenate([diag, c]))),
            shape=(m, m),
        )
        h[transient] = splu(system).solve(rhs)
    return h
