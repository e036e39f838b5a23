"""One-dimensional gambler chains: matrices, spectra, winning probabilities.

Two chain flavours live here. :class:`BirthDeathSpec` describes the absorbing
game chain on ``{0, 1, .., N}`` (0 is ruin, N is the win); its sink-restricted
matrix on ``{1..N}`` is the building block of every multidimensional
construction. :class:`ErgodicBDSpec` describes an ergodic walk on ``{1..M}``
and is related to the absorbing flavour through Siegmund duality.
Each flavour's ``band``, the (diag, upper, lower) arrays of its matrix, is
the one place its tridiagonal layout is written: the dense matrices, the
spectra, the monotonicity test and ``game.kron_mixture`` all read bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        # NaN and +-inf fail the range test before int() sees them
        if not 1 <= self.N < math.inf or int(self.N) != self.N:
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
        # each test is written so that NaN fails it
        if not all(x > 0.0 for x in p):
            raise SpecError("birth rates p(i) must be positive")
        if q and not q[0] >= 0.0:
            raise SpecError("q(1) must be nonnegative")
        if not all(x > 0.0 for x in q[1:]):
            raise SpecError("death rates q(i), i >= 2, must be positive")
        if not all(a + b <= 1.0 + DEFAULT_TOL for a, b in zip(p, q)):
            raise SpecError("p(i) + q(i) must not exceed 1")

    @property
    def sink_reachable(self) -> bool:
        return bool(self.q) and self.q[0] > 0.0

    @cached_property
    def band(self) -> tuple:
        """Read-only band of :func:`bd_restricted`: upper[i] at (i, i+1),
        lower[i] at (i+1, i); hold 1 - p - q and an absorbing last row."""
        p, q = np.array(self.p), np.array(self.q)
        return _read_only(np.append(1.0 - p - q, 1.0), p, np.append(q, 0.0)[1:])

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Read-only :func:`bd_eigenvalues`, solved once per spec.

        The strict transient block on {1..N-1} is symmetrizable because its
        products p(i) q(i+1) are positive; the win state adds the 1.
        """
        block = _sym_tridiag_eigs(*(a[:-1] for a in self.band))
        eigenvalues = np.append(block, 1.0)
        eigenvalues.flags.writeable = False
        return eigenvalues


@dataclass(frozen=True)
class ErgodicBDSpec:
    """Ergodic walk on {1..M}: up p'(i) for i < M, down q'(i) for i >= 2.

    ``p`` holds p'(1..M-1) and ``q`` holds q'(2..M).
    """

    M: int
    p: tuple
    q: tuple

    def __post_init__(self):
        if not 2 <= self.M < math.inf or int(self.M) != self.M:
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
        if not all(x > 0.0 for x in p + q):  # NaN fails each test
            raise SpecError("ergodic rates must be positive")
        for i in range(1, self.M + 1):
            up = p[i - 1] if i < self.M else 0.0
            down = q[i - 2] if i >= 2 else 0.0
            if not up + down <= 1.0 + DEFAULT_TOL:
                raise SpecError(f"rates out of state {i} sum to more than 1")

    @cached_property
    def band(self) -> tuple:
        """Read-only band of the MxM transition matrix: upper[i] = p'(i+1)
        at (i, i+1), lower[i] = q'(i+2) at (i+1, i), hold 1 - p' - q'."""
        p, q = np.array(self.p), np.array(self.q)
        return _read_only(1.0 - np.append(p, 0.0) - np.append(0.0, q), p, q)


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _band_dense(band) -> np.ndarray:
    """The square matrix of a (diag, upper, lower) band."""
    diag, upper, lower = band
    return np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)


def bd_matrix(spec: BirthDeathSpec) -> np.ndarray:
    """(N+1)x(N+1) transition matrix on {0..N} with 0 and N absorbing."""
    m = np.pad(bd_restricted(spec), ((1, 0), (1, 0)))
    m[0, 0] = 1.0
    m[1, 0] = spec.q[0] if spec.q else 0.0
    return m


def bd_restricted(spec: BirthDeathSpec) -> np.ndarray:
    """NxN sink-restricted matrix on {1..N}; row N is absorbing.

    Substochastic when q(1) > 0 (state 1 leaks to the removed ruin state).
    """
    return _band_dense(spec.band)


def _sym_tridiag_eigs(diag, upper, lower) -> np.ndarray:
    """Ascending eigenvalues of the tridiagonal matrix (lower, diag, upper).

    Positive products upper[i] * lower[i] make it similar, through a
    diagonal scaling, to the symmetric tridiagonal matrix with off-diagonal
    sqrt(upper * lower), so the spectrum is real. An empty matrix has none.
    """
    if len(diag) == 0:
        return np.empty(0)
    return eigvalsh_tridiagonal(diag, np.sqrt(np.multiply(upper, lower)))


def bd_eigenvalues(spec: BirthDeathSpec) -> np.ndarray:
    """Ascending eigenvalues of the sink-restricted NxN matrix; last is 1.

    The spectrum splits into the strict transient block on {1..N-1} plus the
    unit eigenvalue contributed by the absorbing win state. The array is
    the spec's cached ``eigenvalues``: one tridiagonal eigensolve per spec
    serves the link, the dual's band and ``verify``'s checks, and the
    array is read-only.
    """
    return spec.eigenvalues


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


def bd_stationary(spec: ErgodicBDSpec) -> np.ndarray:
    """Stationary distribution from detailed balance: pi(i+1)/pi(i) = p'(i)/q'(i+1)."""
    return np.exp(_log_stationary(spec))


def _log_stationary(spec: ErgodicBDSpec) -> np.ndarray:
    """log of :func:`bd_stationary`, summed as logs: no rate product overflows."""
    log_pi = np.concatenate(([0.0], np.cumsum(np.log(spec.p) - np.log(spec.q))))
    return log_pi - np.logaddexp.reduce(log_pi)


def bd_is_monotone(spec) -> bool:
    """Stochastic monotonicity: p(i-1) + q(i) <= 1 for every adjacent pair.

    That is upper + lower <= 1 on the band of either chain flavour. A
    nonnegative spectrum always implies this condition (the converse can
    fail), so a chain reported non-monotone while its eigenvalues are clearly
    nonnegative indicates a bug and raises.
    """
    if not isinstance(spec, (BirthDeathSpec, ErgodicBDSpec)):
        raise TypeError(f"unsupported spec type {type(spec)!r}")
    band = spec.band
    cond = bool(np.all(band[1] + band[2] <= 1.0 + DEFAULT_TOL))
    if not cond and _sym_tridiag_eigs(*band)[0] >= 1e-9:
        raise InternalCheckError(
            "nonnegative spectrum with violated adjacent-pair condition"
        )
    return cond


def siegmund_dual_1d(spec: ErgodicBDSpec) -> BirthDeathSpec:
    """Siegmund dual of a monotone ergodic walk, as an absorbing gambler chain.

    The dual moves up from i with rate q'(i+1) and down with rate p'(i); its
    state 1 leaks to the added ruin state with rate p'(1) and M is the win.
    """
    if not bd_is_monotone(spec):
        raise MonotonicityError("Siegmund dual exists only for monotone chains")
    return BirthDeathSpec(N=spec.M, p=spec.q, q=spec.p)
