"""Shared numerical constants and the one resolvent factorization.

The game kernel and the pure-birth dual are assembled in CSR form by
:func:`krongambler.game.kron_mixture`, straight from their tridiagonal and
bidiagonal factors, and every command reads them in that form. Only
``verify`` makes a kernel dense (``game.AbsorbingChain.dense``), capped at
``MAX_ENTRIES``. Every absorption quantity solves (I - sQ) x = b on a
chain's transient block Q, b one of its exit vectors (the win column or the
ruin deficit, ``game.AbsorbingChain.exit``): :func:`resolvent` is the one
sparse LU behind ``win-prob``'s ``rho_solve``, the power iteration's tail
and the pgf and mean of a game (:class:`krongambler.pgf.ResolventPgf`),
and it refuses a chain whose LU would be too large (:func:`check_lu_size`,
which the commands that factor also ask before they build the game).
"""

from __future__ import annotations

from math import prod

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import SizeError

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


def check_lu_size(shape) -> None:
    """Refuse, with SizeError, a lattice whose sparse LU would be too large.

    On lattices of three or more coordinates the LU's fill-in grows about
    as n^1.6, so such a lattice past the dense cap (about 3,162 states) is
    refused; what needs no LU, such as ``simulate``, is not.
    """
    n, d = prod(shape), len(shape)
    if d >= 3 and n * n > MAX_ENTRIES:
        raise SizeError(
            f"a game of {d} coordinates and {n} states is past the dense "
            f"cap ({MAX_ENTRIES} entries); its sparse LU fill-in grows about "
            f"as n^1.6"
        )


def resolvent(chain, s: float = 1.0):
    """Sparse LU factors (``splu``) of I - sQ on a chain's transient block Q.

    ``chain`` is a game or its dual (``game.AbsorbingChain``); a lattice
    :func:`check_lu_size` refuses raises SizeError here, before it factors.
    The matrix is assembled straight into CSC, the format ``splu`` takes
    without a warning; ``.solve(b)`` then gives (I - sQ)^-1 b.
    """
    check_lu_size(chain.dims)
    q = chain.transient
    m = q.shape[0]
    rows = np.repeat(np.arange(m), np.diff(q.indptr))
    diag = np.arange(m)
    system = sparse.csc_array(
        (np.concatenate([np.ones(m), -s * q.data]),
         (np.concatenate([diag, rows]), np.concatenate([diag, q.indices]))),
        shape=(m, m),
    )
    return splu(system)
