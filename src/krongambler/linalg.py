"""Shared numerical constants, the ruin sink and the one absorption solve.

The game kernel and the pure-birth dual are assembled in CSR form by
:func:`krongambler.game.kron_mixture`, straight from their tridiagonal and
bidiagonal factors, and every command reads them in that form. Only
``verify`` makes a kernel dense (``game.AbsorbingChain.dense``), capped at
``MAX_ENTRIES``. :func:`prepend_ruin` makes ruin, a kernel's row deficit,
an explicit state where a law needs it, and :func:`absorption_system` is the
one assembly of the sparse LU behind absorption probabilities
(:func:`absorption_probabilities`) and the pgf and mean of a game
(:class:`krongambler.pgf.ResolventPgf`), on dense or sparse kernels.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

#: Slack for stochasticity checks; constructions are exact in exact
#: arithmetic, so the tolerance only has to cover floating-point rounding.
DEFAULT_TOL = 1e-12

#: Cap on the entry count of a dense kernel.
MAX_ENTRIES = 10**7

#: Cap on the (row, col, value) triplets a sparse game build assembles. A
#: triplet costs about 130 bytes at the build's peak against 8 for a dense
#: entry, and the sparse LU of a 2-D game adds about 100 entries of fill
#: per state (7 triplets), so at this cap a ``win-prob`` request peaks near
#: 360 MB, close to the 315 MB of a dense build at MAX_ENTRIES.
MAX_TRIPLETS = MAX_ENTRIES // 10


def prepend_ruin(kernel) -> sparse.csr_array:
    """CSR kernel with ruin prepended as the absorbing state 0.

    State 0 collects each row's deficit clip(1 - P 1, 0), and state k + 1
    is state k of the substochastic ``kernel``, dense or sparse.
    """
    kernel = sparse.csr_array(kernel)
    deficit = np.clip(1.0 - kernel @ np.ones(kernel.shape[0]), 0.0, None)
    return sparse.block_array(
        [[np.ones((1, 1)), None], [deficit[:, None], kernel]], format="csr"
    )


def absorption_system(kernel, transient, target: int) -> tuple:
    """LU factors of I - Q and the one-step hits P[transient, target].

    ``kernel`` is a dense or sparse substochastic matrix, ``transient`` the
    (nonempty) indices of its transient states and Q the transient block.
    Solving with the factors against the hits gives the absorption
    probabilities at ``target``; solving once more against those gives the
    partial expectations of the absorption time.
    """
    coo = sparse.coo_array(kernel)
    rows, cols, vals = coo.row, coo.col, coo.data
    m = len(transient)
    # position of each state among the transient ones, -1 elsewhere
    pos = np.full(kernel.shape[0], -1)
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
    return splu(system), rhs


def absorption_probabilities(kernel, transient, target: int) -> np.ndarray:
    """Probability of absorption at ``target`` from every state of a chain.

    ``kernel`` is a dense or sparse substochastic matrix and ``transient``
    the indices of its transient states. On them the result h solves
    (I - Q) h = P[transient, target], Q the transient block, by one sparse
    LU factorization (:func:`absorption_system`); h is 1 at ``target`` and
    0 at every other state.
    """
    h = np.zeros(kernel.shape[0])
    h[target] = 1.0
    if len(transient):
        lu, rhs = absorption_system(kernel, transient, target)
        h[transient] = lu.solve(rhs)
    return h
