"""Shared numerical constants and the one resolvent factorization.

The game kernel and the pure-birth dual are assembled in CSR form by
:func:`krongambler.game.kron_mixture`, straight from their tridiagonal and
bidiagonal factors, and every command reads them in that form. Only
``verify`` makes a kernel dense (``verify.run_checks``), and it refuses a
game past ``MAX_ENTRIES`` entries before it builds it. Every absorption
quantity solves (I - sQ) x = b on a chain's transient block Q, b one of
its exit vectors (the win column or the ruin deficit,
``game.AbsorbingChain.exit``): :func:`resolvent` is the one sparse LU, and
it refuses a chain whose LU would be too large (:func:`check_lu_size`,
which the commands that factor also ask before they build the game). Two
owners factor it. At s = 1 a chain factors once per target, the first time
its absorption vector (I - Q)^-1 exit is asked for
(``game.AbsorbingChain.absorption``); it keeps the solved vector, not the
LU, and that one vector serves ``win-prob``'s ``rho_solve`` and the power
iteration's tail on the same chain. The pgf and mean of a game
(:class:`krongambler.pgf.ResolventPgf`) factor once per evaluation point.

The LU runs in SuperLU's symmetric mode: the columns are ordered by minimum
degree on the pattern of A^T + A, and each pivot is the diagonal entry.
Both fit the systems solved here. A lattice kernel's pattern is nearly
symmetric (a coordinate that moves up from a state below its top can move
back down from the next), so this ordering leaves less fill than
``splu``'s default, COLAMD, an approximate minimum degree on A^T A. And Q is
nonnegative and substochastic, so for |s| <= 1 the matrix I - sQ is
diagonally dominant by rows: elimination without row exchanges is stable,
its growth factor at most 2 (Wilkinson 1961; SuperLU Users' Guide, Li
2005). Default against symmetric mode, on one thread of a 2-vCPU Xeon (rates
``perfbench.workloads.rand_rates`` at ``game_safe_budget``, seed 0; LU time
best of 3; peak RSS of a process that builds the game and factors it; err is
the LU's win probability against ``siegmund.win_prob_product``):

    ============= ========== ================ ========== ==================
    game          LU (ms)    L + U            RSS (MB)   err
    ============= ========== ================ ========== ==================
    d=2 r=1 N=300 780 -> 577 8.95M -> 5.01M   314 -> 208 4.0e-11 -> 3.5e-11
    d=2 r=2 N=300 860 -> 637 12.8M -> 11.5M   404 -> 366 5.9e-12 -> 9.8e-13
    d=3 r=1 N=14  36 -> 17   642k -> 266k     80 -> 71   8.9e-15 -> 4.1e-15
    d=3 r=2 N=11  16 -> 15   278k -> 246k     72 -> 71   5.9e-15 -> 4.3e-15
    d=4 r=2 N=7   121 -> 99  1.011M -> 1.018M 96 -> 92   1.3e-14 -> 8.7e-15
    ============= ========== ================ ========== ==================
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

#: Cap on the (row, col, value) triplets of a kernel's Kronecker terms: the
#: nonzeros ``game.check_triplets`` counts before anything is allocated.
#: On the d = 2, r = 1, N = 378 game (998k triplets, just under the cap)
#: ``game.kron_mixture`` peaks at 71 MiB of numpy buffers, about 74 bytes
#: per triplet, which is also the peak of ``game.build_game``. The sparse
#: LU of a 2-D game adds about 60 entries of fill per state (8.4M on that
#: game), so ``win_prob_solve`` on it peaks near 270 MB of RSS (numpy 2.4,
#: scipy 1.17).
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

    ``chain`` is a game or its dual (``game.AbsorbingChain``), whose Q is
    nonnegative and substochastic, and |s| <= 1: then I - sQ is diagonally
    dominant by rows, which makes the factorization's diagonal pivots
    stable (see the module docstring). An s outside [-1, 1], NaN included,
    raises ValueError, and a lattice :func:`check_lu_size` refuses raises
    SizeError, both before it factors. The matrix is assembled straight into
    CSC, the format ``splu`` takes without a warning, and factored in
    SuperLU's symmetric mode: columns ordered by minimum degree on
    A^T + A, diagonal pivots. ``.solve(b)`` then gives (I - sQ)^-1 b.
    """
    if not abs(s) <= 1.0:  # NaN fails this test too
        raise ValueError("resolvent pgf is only evaluable for |s| <= 1")
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
    return splu(system, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})
