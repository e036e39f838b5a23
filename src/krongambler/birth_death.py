"""One-dimensional gambler chains: matrices, spectra, winning probabilities.

Two chain flavours live here. :class:`BirthDeathSpec` describes the absorbing
game chain on ``{0, 1, .., N}`` (0 is ruin, N is the win); its sink-restricted
matrix on ``{1..N}`` is the building block of every multidimensional
construction. :class:`ErgodicBDSpec` describes an ergodic walk on ``{1..M}``
and is related to the absorbing flavour through Siegmund duality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import InternalCheckError, MonotonicityError, SpecError
from .linalg import DEFAULT_TOL

_EIG_TOL = 1e-10


@dataclass(frozen=True)
class BirthDeathSpec:
    """Absorbing gambler chain on {0..N}: up p(i), down q(i), 0 and N absorbing.

    ``p`` and ``q`` hold the rates for states 1..N-1. ``q[0]`` (the rate
    q(1) out of state 1) may be zero, in which case the ruin state is
    unreachable and the chain effectively lives on {1..N}.
    """

    N: int
    p: tuple
    q: tuple

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 1:
            raise SpecError(f"N must be a positive integer, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        p = tuple(float(x) for x in self.p)
        q = tuple(float(x) for x in self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if len(p) != self.N - 1 or len(q) != self.N - 1:
            raise SpecError(
                f"p and q must have length N-1={self.N - 1}, "
                f"got {len(p)} and {len(q)}"
            )
        if any(x <= 0.0 for x in p):
            raise SpecError("birth rates p(i) must be positive")
        if q and q[0] < 0.0:
            raise SpecError("q(1) must be nonnegative")
        if any(x <= 0.0 for x in q[1:]):
            raise SpecError("death rates q(i), i >= 2, must be positive")
        if any(a + b > 1.0 + DEFAULT_TOL for a, b in zip(p, q)):
            raise SpecError("p(i) + q(i) must not exceed 1")

    @property
    def sink_reachable(self) -> bool:
        return bool(self.q) and self.q[0] > 0.0


@dataclass(frozen=True)
class ErgodicBDSpec:
    """Ergodic walk on {1..M}: up p'(i) for i < M, down q'(i) for i >= 2.

    ``p`` holds p'(1..M-1) and ``q`` holds q'(2..M).
    """

    M: int
    p: tuple
    q: tuple

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 2:
            raise SpecError(f"M must be an integer >= 2, got {self.M}")
        object.__setattr__(self, "M", int(self.M))
        p = tuple(float(x) for x in self.p)
        q = tuple(float(x) for x in self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if len(p) != self.M - 1 or len(q) != self.M - 1:
            raise SpecError(
                f"p and q must have length M-1={self.M - 1}, "
                f"got {len(p)} and {len(q)}"
            )
        if any(x <= 0.0 for x in p) or any(x <= 0.0 for x in q):
            raise SpecError("ergodic rates must be positive")
        for i in range(1, self.M + 1):
            up = p[i - 1] if i < self.M else 0.0
            down = q[i - 2] if i >= 2 else 0.0
            if up + down > 1.0 + DEFAULT_TOL:
                raise SpecError(f"rates out of state {i} sum to more than 1")


def bd_matrix(spec: BirthDeathSpec) -> np.ndarray:
    """(N+1)x(N+1) transition matrix on {0..N} with 0 and N absorbing."""
    n = spec.N
    m = np.zeros((n + 1, n + 1))
    m[0, 0] = 1.0
    m[n, n] = 1.0
    for i in range(1, n):
        up, down = spec.p[i - 1], spec.q[i - 1]
        m[i, i + 1] = up
        m[i, i - 1] = down
        m[i, i] = 1.0 - up - down
    return m


def bd_restricted(spec: BirthDeathSpec) -> np.ndarray:
    """NxN sink-restricted matrix on {1..N}; row N is absorbing.

    Substochastic when q(1) > 0 (state 1 leaks to the removed ruin state).
    """
    return bd_matrix(spec)[1:, 1:].copy()


def _sym_tridiag_eigs(diag, upper, lower) -> np.ndarray:
    """Ascending eigenvalues of the tridiagonal matrix (lower, diag, upper).

    Positive products upper[i] * lower[i] make it similar, through a
    diagonal scaling, to the symmetric tridiagonal matrix with off-diagonal
    sqrt(upper * lower), so the spectrum is real.
    """
    return eigvalsh_tridiagonal(diag, np.sqrt(np.multiply(upper, lower)))


def tridiag_block_eigs(spec: BirthDeathSpec, lo: int, hi: int) -> np.ndarray:
    """Ascending eigenvalues of the strict transient block on states {lo..hi}.

    The block is symmetrizable because the interior products p(i)q(i+1) are
    positive.
    """
    if hi < lo:
        return np.empty(0)
    p = np.asarray(spec.p)
    q = np.asarray(spec.q)
    return _sym_tridiag_eigs(
        1.0 - p[lo - 1 : hi] - q[lo - 1 : hi], p[lo - 1 : hi - 1], q[lo:hi]
    )


def bd_eigenvalues(spec: BirthDeathSpec) -> np.ndarray:
    """Ascending eigenvalues of the sink-restricted NxN matrix; last is 1.

    The spectrum splits into the strict transient block on {1..N-1} plus the
    unit eigenvalue contributed by the absorbing win state.
    """
    interior = tridiag_block_eigs(spec, 1, spec.N - 1)
    return np.append(interior, 1.0)


def bd_win_prob(spec: BirthDeathSpec) -> np.ndarray:
    """P(hit N before ruin | start i) for i = 1..N, in closed form.

    Ratio of partial sums of the products q(1)/p(1) * .. * q(n-1)/p(n-1)
    (empty product = 1), accumulated as logarithms so that no product
    overflows: the result is finite, nondecreasing and ends at exactly 1.
    With q(1) = 0 every later term vanishes and the vector is identically 1.
    """
    if not spec.sink_reachable:
        return np.ones(spec.N)
    log_ratios = np.concatenate(
        ([0.0], np.cumsum(np.log(spec.q) - np.log(spec.p)))
    )
    log_sums = np.logaddexp.accumulate(log_ratios)
    return np.exp(log_sums - log_sums[-1])


def bd_win_prob_solve(spec: BirthDeathSpec) -> np.ndarray:
    """Winning probabilities via the fundamental-matrix linear solve.

    Independent of :func:`bd_win_prob`; kept as a cross-check oracle.
    """
    n = spec.N
    if n == 1:
        return np.ones(1)
    full = bd_matrix(spec)
    q_block = full[1:n, 1:n]
    rhs = full[1:n, n]
    h = np.linalg.solve(np.eye(n - 1) - q_block, rhs)
    return np.append(h, 1.0)


def ergodic_matrix(spec: ErgodicBDSpec) -> np.ndarray:
    """MxM transition matrix of the ergodic walk."""
    m = spec.M
    out = np.zeros((m, m))
    for i in range(1, m + 1):
        up = spec.p[i - 1] if i < m else 0.0
        down = spec.q[i - 2] if i >= 2 else 0.0
        if i < m:
            out[i - 1, i] = up
        if i >= 2:
            out[i - 1, i - 2] = down
        out[i - 1, i - 1] = 1.0 - up - down
    return out


def bd_stationary(spec: ErgodicBDSpec) -> np.ndarray:
    """Stationary distribution from detailed balance: pi(i+1)/pi(i) = p'(i)/q'(i+1)."""
    pi = np.ones(spec.M)
    for i in range(1, spec.M):
        pi[i] = pi[i - 1] * spec.p[i - 1] / spec.q[i - 1]
    return pi / pi.sum()


def _monotone_condition(spec) -> bool:
    if isinstance(spec, BirthDeathSpec):
        pairs = zip(spec.p[:-1], spec.q[1:])
    elif isinstance(spec, ErgodicBDSpec):
        pairs = zip(spec.p, spec.q)
    else:
        raise TypeError(f"unsupported spec type {type(spec)!r}")
    return all(a + b <= 1.0 + DEFAULT_TOL for a, b in pairs)


def _spectrum(spec) -> np.ndarray:
    if isinstance(spec, BirthDeathSpec):
        return bd_eigenvalues(spec)
    # detailed balance symmetrizes the ergodic matrix the same way
    up = np.append(spec.p, 0.0)
    down = np.append(0.0, spec.q)
    return _sym_tridiag_eigs(1.0 - up - down, spec.p, spec.q)


def bd_is_monotone(spec) -> bool:
    """Stochastic monotonicity: p(i-1) + q(i) <= 1 for every adjacent pair.

    A nonnegative spectrum always implies this condition (the converse can
    fail), so a chain reported non-monotone while its eigenvalues are clearly
    nonnegative indicates a bug and raises.
    """
    cond = _monotone_condition(spec)
    if not cond and _spectrum(spec)[0] >= 1e-9:
        raise InternalCheckError(
            "nonnegative spectrum with violated adjacent-pair condition"
        )
    return cond


def eigenvalues_nonneg(spec) -> bool:
    """Whether the chain's spectrum is nonnegative (the duality pipelines' gate).

    Strictly stronger than :func:`bd_is_monotone` for sink-reachable chains.
    """
    return bool(_spectrum(spec)[0] >= -_EIG_TOL)


def siegmund_dual_1d(spec: ErgodicBDSpec) -> BirthDeathSpec:
    """Siegmund dual of a monotone ergodic walk, as an absorbing gambler chain.

    The dual moves up from i with rate q'(i+1) and down with rate p'(i); its
    state 1 leaks to the added ruin state with rate p'(1) and M is the win.
    """
    if not bd_is_monotone(spec):
        raise MonotonicityError("Siegmund dual exists only for monotone chains")
    return BirthDeathSpec(N=spec.M, p=spec.q, q=spec.p)
