"""Absorption-time laws: exact pgf forms and power-iteration distributions.

A one-dimensional chain gets one exact pair of rational pgfs, the (win,
lose) laws from any start, built from eigenvalue factor lists
(:func:`pgf_two_sided`); a chain that cannot be ruined is its q(1) = 0
case. A game of any dimension gets its pgf from its own CSR kernel, as
:class:`krongambler.pgf.ResolventPgf` of the built chain: each evaluation
point is one sparse LU solve of the resolvent, so no series, horizon or
dual enters. The game's law through the pure-birth dual, mixed over the
(possibly signed) dual start weights nu_hat, is the independent route:
since that mixture is linear it is the law of one power iteration of the
dual started at nu_hat itself, which ``verify``'s ``distribution_equality``
compares with the game's own law.

Power iteration runs on a chain's transient block Q over lattice indices
0..n-2 (``game.AbsorbingChain.transient``): the chain leaves it through
one exit vector per target, the win column P[:-1, win] or the ruin
deficit (``AbsorbingChain.exit``), so ruin needs no state of its own and
no target needs a dense kernel.

One engine, ``_power_iteration``, iterates one start vector for
``absorb_dist``, on games and duals. Each step is one application of Q to
the transient iterate x; the transient mass sum|x| and the pmf entries
x_{t-1} . exit are read once per block of BLOCK_STEPS steps, and the exact
stop step is then located inside the block. A kernel row of a game or a
dual has at most 3^d nonzeros, so every step, at every size, is one call
of scipy's C kernel ``csr_matvec`` on a CSR copy of the transpose of Q:
the kernel that ``q_t @ x`` reaches behind its Python dispatch. Called
directly, a step (the block's reads included) takes about 0.9 us at 19
transient states, 1.8 us at 195, 3.7 us at 511 and 15 us at 2,499, where
``q_t @ x`` takes 7.5 and 19 us at the last two (one thread of a 2-vCPU
Xeon). The target mass behind the horizon is read off the last iterate
through the chain's absorption vector, one sparse LU solve per chain and
target (``AbsorbingChain.absorption``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from .birth_death import BirthDeathSpec, _sym_tridiag_eigs, bd_win_prob
from .errors import HorizonError, SpecError
from .game import AbsorbingChain, linear_index, start_vector
from .pgf import GeometricProductPgf
from .specfile import check_count, check_eps

MAX_HORIZON = 10**6

#: Steps per block of the power iteration.
BLOCK_STEPS = 64

#: Smallest normal double; iterate entries below it are flushed to zero.
TINY = np.finfo(float).tiny


def _block_rates(spec: BirthDeathSpec, lo: int, hi: int) -> tuple:
    """Eigenvalues of I - Q on the transient states {lo..hi}: the rates 1 - lam.

    The block has diagonal p + q and off-diagonals -p, -q, so it is
    similar to the symmetric one with off-diagonal sqrt(p q). Solved as
    such, a small rate keeps the digits that 1 - lam loses near lam = 1.
    An empty block (hi < lo) has none.
    """
    p, q = np.array(spec.p[lo - 1 : hi]), np.array(spec.q[lo - 1 : hi])
    return tuple(_sym_tridiag_eigs(p + q, p[:-1], q[1:]))


def pgf_two_sided(spec: BirthDeathSpec, start: int) -> tuple:
    """(win, lose) pgfs of the absorption time from a state 1..N.

    Each is a defective law: the win branch carries mass rho(start), the
    lose branch 1 - rho(start), each scaled by the ratio of the full factor
    product to the block below (win) or above (lose) the start. A chain
    with q(1) = 0 has rho = 1, so the lose law is 0 and the win law is
    Keilson's product of geometric factors at start 1 (no block below) and
    Fill's interior-start ratio elsewhere. At start N the factors cancel
    to the laws 1 and 0. Each factor's rate is an eigenvalue of a block of
    I - Q (``_block_rates``), never 1 minus an eigenvalue of Q.
    """
    try:
        linear_index((spec.N,), (start,))
    except IndexError:
        raise SpecError(f"start must be a state 1..{spec.N}, got {start!r}") from None
    rho = float(bd_win_prob(spec)[start - 1])
    full = _block_rates(spec, 1, spec.N - 1)
    lower = _block_rates(spec, 1, start - 1)
    upper = _block_rates(spec, start + 1, spec.N - 1)
    win = GeometricProductPgf(scale=rho, num=full, den=lower)
    lose = GeometricProductPgf(scale=1.0 - rho, num=full, den=upper)
    return win, lose


@dataclass(frozen=True, eq=False)
class AbsorptionDist:
    """Time-indexed absorption probabilities P(T = t, absorbed at target).

    ``tail`` is the target mass beyond the horizon, solved exactly from the
    last transient iterate, so pmf.sum() + tail equals the total absorption
    probability at the target, ``"win"`` or ``"ruin"``.
    """

    pmf: np.ndarray
    tail: float
    eps: float

    def mass(self) -> float:
        return float(self.pmf.sum() + self.tail)

    def mean(self) -> float:
        """Partial expectation sum(t * P(T = t, target)); needs a negligible tail."""
        if self.tail > self.eps:
            raise HorizonError(
                f"tail {self.tail:.3e} above eps {self.eps:.3e}; extend the horizon"
            )
        return float(np.dot(np.arange(len(self.pmf)), self.pmf))


def _power_iteration(q, exit, h, start: np.ndarray,
                     horizon: int | None, eps: float) -> tuple:
    """Absorption pmf through ``exit`` from one transient start, maybe signed.

    ``q`` is a chain's transient block in CSR form, ``exit`` its one-step
    exit probabilities to the target, and ``h`` = (I - Q)^-1 exit the
    target mass from each transient state. Iteration stops at the first step
    t < horizon at which the iterate's l1 mass is below eps, or after
    ``horizon`` steps; without a horizon, failing to converge within
    MAX_HORIZON steps raises. Returns the pmf, with pmf[0] = 0 and
    pmf[t] = x_{t-1} . exit, and the tail h . x_last, the target mass
    behind the last step.

    Steps are written in blocks into one buffer of iterates (see the module
    docstring); everything kept past a block is copied out of it. A step
    ``csr_matvec(..., x, y)`` adds Q^T x into y, so each block zeroes its
    output rows first; each step then rounds exactly as ``q.T.tocsr() @ x``
    does. The buffer's row views are taken once per call, which saves about
    0.2 us per step against indexing the buffer at every step.
    """
    m = q.shape[0]
    q_t = q.T.tocsr()
    cap = MAX_HORIZON if horizon is None else int(horizon)
    ones = np.ones(m)
    buf = np.empty((BLOCK_STEPS + 1, m))
    rows = list(buf)
    buf[0] = start
    pmf = [np.zeros(1)]
    t = 0
    last = None
    while last is None and t < cap:
        steps = min(BLOCK_STEPS, cap - t)
        buf[1:steps + 1] = 0.0
        for x, y in zip(rows, rows[1:steps + 1]):
            csr_matvec(m, m, q_t.indptr, q_t.indices, q_t.data, x, y)
        below = np.flatnonzero(np.abs(buf[:steps]) @ ones < eps)
        if below.size:
            steps = int(below[0])
            last = buf[steps].copy()
        pmf.append(buf[:steps] @ exit)
        t += steps
        if last is None:
            buf[0] = buf[steps]
            # Mass that decays into the subnormal range stays there and
            # slows every later step several-fold; flush it to zero.
            buf[0][np.abs(buf[0]) < TINY] = 0.0
    if last is None:
        last = buf[0].copy()
        if horizon is None:
            raise HorizonError(
                f"transient mass {np.abs(last) @ ones:.3e} after {cap} steps"
            )
    return np.concatenate(pmf), float(h @ last)


def absorb_dist(
    chain: AbsorbingChain,
    nu,
    target: str = "win",
    horizon: int | None = None,
    eps: float = 1e-12,
) -> AbsorptionDist:
    """Law of the absorption time at ``target`` by power iteration.

    ``chain`` is an AbsorbingChain (a game or its pure-birth dual) and
    ``nu`` a start vector over its states (``game.start_vector``). The law
    is linear in ``nu``, so its pmf scales with nu's mass and a signed
    ``nu`` (the dual's start weights) gives the mixture of the laws; a
    clearly negative pmf entry raises.
    ``target`` is ``"win"`` (the win corner; pmf[0] is nu's mass there) or
    ``"ruin"`` (the row deficits); anything else raises ValueError.
    Iteration stops once the transient mass drops below eps or the horizon
    is reached; without an explicit horizon, failing to converge within
    10^6 steps raises, before any step when the floor sum(x_0) * r^(10^6)
    of a nonnegative start, r the chain's ``least_row_sum``, is still at
    least eps. ``eps`` and ``horizon`` follow the spec file's rules
    (:func:`krongambler.specfile.check_eps`, ``check_count``) and are
    checked before any step. So is the tail's absorption vector
    (``chain.absorption(target)``), read first: on its first use for a chain
    and target it is one sparse LU solve (``linalg.resolvent``), which raises
    SizeError for a chain of three or more coordinates past the dense cap;
    afterwards it is the chain's cached vector, the one ``win_prob_solve``
    reads. The check that the dual mixture reproduces this law for a game is
    ``distribution_equality`` in :func:`krongambler.verify.run_checks`.
    """
    eps = check_eps(eps)
    if horizon is not None:
        horizon = check_count(horizon, "horizon", 0)
    exit = chain.exit(target)
    start = start_vector(chain.dims, nu)
    x0 = start[:-1]
    if horizon is None and x0.min(initial=0.0) >= 0.0:
        r = chain.least_row_sum
        floor = x0.sum() * r**MAX_HORIZON
        if floor >= eps:
            raise HorizonError(
                f"transient mass stays >= {floor:.3e} for {MAX_HORIZON} "
                f"steps (least row sum of Q {r!r}); pass a horizon"
            )
    h = chain.absorption(target)
    pmf, tail = _power_iteration(chain.transient, exit, h, x0, horizon, eps)
    if target == "win":
        pmf[0] = start[-1]
    low = float(pmf.min(initial=0.0))
    if low < -1e-12:
        raise SpecError(f"mixture pmf entry {low:.3e}; inconsistent weights")
    np.clip(pmf, 0.0, None, out=pmf)
    return AbsorptionDist(pmf=pmf, tail=tail, eps=eps)
