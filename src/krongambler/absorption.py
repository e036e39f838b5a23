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
no target needs ``AbsorbingChain.dense``.

One engine, ``_power_iteration``, iterates one start vector for
``absorb_dist``, on games and duals. Each step is one application of Q to
the transient iterate x; the transient mass sum|x| and the pmf entries
x_{t-1} . exit are read once per block of BLOCK_STEPS steps, and the exact
stop step is then located inside the block. A kernel row of a game or a
dual has at most 3^d nonzeros, so blocks with SPARSE_MIN_STATES transient
states or more are multiplied as a CSR copy of the transpose of Q; smaller
ones are multiplied as a dense array, made from Q by the engine. The cutoff
is the measured crossover (one thread of a 2-vCPU Xeon, OpenBLAS): dense
still wins by 1-2 us per step at 196 states, CSR wins from 216 states, and
a step takes about 7 us in CSR against 56 us dense at 512 states and 28 us
against 3.1 ms at 2,744 states. The target mass behind the horizon is read
off the last iterate by one sparse LU solve (``linalg.resolvent``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .birth_death import (
    BirthDeathSpec,
    bd_eigenvalues,
    bd_win_prob,
    tridiag_block_eigs,
)
from .errors import HorizonError, SpecError
from .game import AbsorbingChain
from .linalg import resolvent
from .pgf import GeometricProductPgf
from .specfile import check_count, check_eps

MAX_HORIZON = 10**6

#: Transient blocks of at least this many states iterate on a CSR copy of
#: their transpose, smaller ones on a dense block (see the module docstring).
SPARSE_MIN_STATES = 200

#: Steps per block of the power iteration.
BLOCK_STEPS = 64

#: Smallest normal double; iterate entries below it are flushed to zero.
TINY = np.finfo(float).tiny


def pgf_two_sided(spec: BirthDeathSpec, start: int) -> tuple:
    """(win, lose) pgfs of the absorption time from a state 1..N.

    Each is a defective law: the win branch carries mass rho(start), the
    lose branch 1 - rho(start), each scaled by the ratio of the full factor
    product to the block below (win) or above (lose) the start. A chain
    with q(1) = 0 has rho = 1, so the lose law is 0 and the win law is
    Keilson's product of geometric factors at start 1 (no block below) and
    Fill's interior-start ratio elsewhere. At start N the factors cancel
    to the laws 1 and 0.
    """
    if not 1 <= start <= spec.N:
        raise SpecError(f"start must be a state 1..{spec.N}")
    rho = float(bd_win_prob(spec)[start - 1])
    full = tuple(bd_eigenvalues(spec)[:-1])
    lower = tuple(tridiag_block_eigs(spec, 1, start - 1))
    upper = tuple(tridiag_block_eigs(spec, start + 1, spec.N - 1))
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


def _power_iteration(q, exit, start: np.ndarray,
                     horizon: int | None, eps: float) -> tuple:
    """Absorption pmf through ``exit`` from one transient start, maybe signed.

    ``q`` is a chain's transient block in CSR form, iterated as such from
    SPARSE_MIN_STATES states and densely below, and ``exit`` its one-step
    exit probabilities to the target. Iteration stops at the first step
    t < horizon at which the iterate's l1 mass is below eps, or after
    ``horizon`` steps; without a horizon, failing to converge within
    MAX_HORIZON steps raises. Returns the pmf, with pmf[0] = 0 and
    pmf[t] = x_{t-1} . exit, and the tail (I - Q)^-1 exit . x_last, the
    target mass behind the last step.

    Steps are written in blocks into one buffer of iterates (see the module
    docstring); everything kept past a block is copied out of it.
    """
    m = q.shape[0]
    if m >= SPARSE_MIN_STATES:
        q_t = q.T.tocsr()

        def step(x, out):
            out[...] = q_t @ x
    else:
        dense = q.toarray()

        def step(x, out):
            np.matmul(x, dense, out=out)

    cap = MAX_HORIZON if horizon is None else int(horizon)
    ones = np.ones(m)
    buf = np.empty((BLOCK_STEPS + 1, m))
    buf[0] = start
    pmf = [np.zeros(1)]
    t = 0
    last = None
    while last is None and t < cap:
        steps = min(BLOCK_STEPS, cap - t)
        for i in range(steps):
            step(buf[i], buf[i + 1])
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
    return np.concatenate(pmf), float(resolvent(q).solve(exit) @ last)


def absorb_dist(
    chain: AbsorbingChain,
    nu,
    target: str = "win",
    horizon: int | None = None,
    eps: float = 1e-12,
) -> AbsorptionDist:
    """Law of the absorption time at ``target`` by power iteration.

    ``chain`` is an AbsorbingChain (a game or its pure-birth dual) and
    ``nu`` a start vector over its states; it may be signed (mixtures of
    dual weights), in which case a clearly negative pmf entry raises.
    ``target`` is ``"win"`` (the win corner; pmf[0] is nu's mass there) or
    ``"ruin"`` (the row deficits); anything else raises ValueError.
    Iteration stops once the transient mass drops below eps or the horizon
    is reached; without an explicit horizon, failing to converge within
    10^6 steps raises, before any step when the floor sum(x_0) * r^(10^6)
    of a nonnegative start, r the chain's ``least_row_sum``, is still at
    least eps. ``eps`` and ``horizon`` follow the spec file's rules
    (:func:`krongambler.specfile.check_eps`, ``check_count``) and are
    checked before any step. The check that the dual mixture reproduces this
    law for a game is ``distribution_equality`` in
    :func:`krongambler.verify.run_checks`.
    """
    eps = check_eps(eps)
    if horizon is not None:
        horizon = check_count(horizon, "horizon", 0)
    exit = chain.exit(target)
    start = np.asarray(nu, dtype=float).reshape(chain.size)
    x0 = start[:-1]
    if horizon is None and x0.min(initial=0.0) >= 0.0:
        r = chain.least_row_sum
        floor = x0.sum() * r**MAX_HORIZON
        if floor >= eps:
            raise HorizonError(
                f"transient mass stays >= {floor:.3e} for {MAX_HORIZON} "
                f"steps (least row sum of Q {r!r}); pass a horizon"
            )
    pmf, tail = _power_iteration(chain.transient, exit, x0, horizon, eps)
    if target == "win":
        pmf[0] = start[-1]
    low = float(pmf.min(initial=0.0))
    if low < -1e-12:
        raise SpecError(f"mixture pmf entry {low:.3e}; inconsistent weights")
    np.clip(pmf, 0.0, None, out=pmf)
    return AbsorptionDist(pmf=pmf, tail=tail, eps=eps)
