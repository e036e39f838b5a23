"""Absorption-time laws: exact pgf forms and power-iteration distributions.

One-dimensional chains get exact rational pgfs built from eigenvalue factor
lists. Multidimensional games go through the pure-birth dual: the absorption
law of the dual is extracted by power iteration and mixed with the (possibly
signed) dual start weights.

Power iteration runs on a chain's kernel over lattice indices, whose last
state is the win corner. Ruin, the kernel's row deficit, is a state only
for the ``"ruin"`` target, which prepends it as a sink.

One engine, ``_power_iteration``, serves ``absorb_dist`` (one start) and
``pgf_from_dual`` (a batch of starts). Each step is one application of the
kernel to the n x k matrix of iterates; the transient-mass test and the
target column are read once per block of up to BLOCK_STEPS steps, and the
exact stop step is then located inside the block. A kernel row of a game
or a dual has at most 3^d nonzeros, so kernels with SPARSE_MIN_STATES
states or more are multiplied as a CSR copy of the transpose, made from
the chain's CSR kernel without a dense round trip; smaller ones are
multiplied as a dense array, made from the CSR kernel by the engine. The cutoff is the measured crossover for a single
start (one thread of a 2-vCPU Xeon, OpenBLAS): dense still wins by 1-2 us
per step at 196 states, CSR wins from 216 states, and a step takes about
7 us in CSR against 56 us dense at 512 states and 28 us against 3.1 ms at
2,744 states. Dual batches of 8 starts cross over earlier, at 144-169
states. The absorbed mass behind the horizon comes from one sparse LU
solve (``linalg.absorption_probabilities``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .birth_death import (
    BirthDeathSpec,
    bd_eigenvalues,
    bd_win_prob,
    tridiag_block_eigs,
)
from .errors import HorizonError, SpecError
from .game import AbsorbingChain, GameSpec, build_game
from .intertwine import PureBirthChain, SpectralLink, build_dual, dual_initial
from .linalg import absorption_probabilities, augment_sink
from .pgf import GeometricProductPgf, MixturePgf, SeriesPgf

MAX_HORIZON = 10**6

#: Kernels with at least this many states iterate on a CSR copy of their
#: transpose, smaller ones on a dense kernel (see the module docstring).
SPARSE_MIN_STATES = 200

#: Steps per block of the power iteration, and the byte cap on its block
#: buffer that shortens the block for wide batches of starts.
BLOCK_STEPS = 64
BLOCK_BYTES = 1 << 22

#: Smallest normal double; iterate entries below it are flushed to zero.
TINY = np.finfo(float).tiny


def _nonunit_eigenvalues(spec: BirthDeathSpec) -> np.ndarray:
    return bd_eigenvalues(spec)[:-1]


def pgf_keilson(spec: BirthDeathSpec) -> GeometricProductPgf:
    """pgf of the time from state 1 to N for a chain that cannot be ruined.

    A product of geometric factors, one per non-unit eigenvalue.
    """
    if spec.sink_reachable:
        raise SpecError("q(1) > 0; use pgf_two_sided for two-sided absorption")
    return GeometricProductPgf(scale=1.0, num=tuple(_nonunit_eigenvalues(spec)))


def pgf_interior(spec: BirthDeathSpec, start: int) -> GeometricProductPgf:
    """pgf of the time from an interior start to N when ruin is unreachable.

    The full-spectrum product divided by the factors of the leading block on
    the states below the start.
    """
    if spec.sink_reachable:
        raise SpecError("q(1) > 0; use pgf_two_sided for two-sided absorption")
    if not 1 <= start < spec.N:
        raise SpecError(f"start must lie in 1..{spec.N - 1}, got {start}")
    den = tridiag_block_eigs(spec, 1, start - 1)
    return GeometricProductPgf(
        scale=1.0,
        num=tuple(_nonunit_eigenvalues(spec)),
        den=tuple(den),
    )


def pgf_two_sided(spec: BirthDeathSpec, start: int) -> tuple:
    """(win, lose) pgfs for a chain with both ruin and win reachable.

    Each is a defective law: the win branch carries mass rho(start), scaled
    by the ratio of the full factor product to the block below (win) or
    above (lose) the start.
    """
    if not spec.sink_reachable:
        raise SpecError("q(1) = 0; the losing time is undefined")
    if not 1 <= start <= spec.N - 1:
        raise SpecError(f"start must be a transient state 1..{spec.N - 1}")
    rho = float(bd_win_prob(spec)[start - 1])
    full = tuple(_nonunit_eigenvalues(spec))
    lower = tuple(tridiag_block_eigs(spec, 1, start - 1))
    upper = tuple(tridiag_block_eigs(spec, start + 1, spec.N - 1))
    win = GeometricProductPgf(scale=rho, num=full, den=lower)
    lose = GeometricProductPgf(scale=1.0 - rho, num=full, den=upper)
    return win, lose


@dataclass(frozen=True, eq=False)
class AbsorptionDist:
    """Time-indexed absorption probabilities P(T = t, absorbed at target).

    ``tail`` is the target mass beyond the horizon, computed exactly from the
    fundamental matrix, so pmf.sum() + tail equals the total absorption
    probability at the target, a state index or ``"ruin"``.
    """

    pmf: np.ndarray
    tail: float
    target: int | str
    eps: float

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    def mass(self) -> float:
        return float(self.pmf.sum() + self.tail)

    def mean(self) -> float:
        """Partial expectation sum(t * P(T = t, target)); needs a negligible tail."""
        if self.tail > self.eps:
            raise HorizonError(
                f"tail {self.tail:.3e} above eps {self.eps:.3e}; extend the horizon"
            )
        return float(np.dot(np.arange(len(self.pmf)), self.pmf))


def _power_iteration(p, starts: np.ndarray, target: int,
                     horizon: int | None, eps: float) -> tuple:
    """Absorption pmfs at ``target`` for every row of ``starts`` at once.

    ``p`` is a dense or sparse kernel, iterated in CSR form from
    SPARSE_MIN_STATES states and densely below; rows of ``starts`` may be signed. Iteration stops at the first
    step t < horizon at which every row's transient mass is below eps, or
    after ``horizon`` steps; without a horizon, failing to converge within
    MAX_HORIZON steps raises. Returns the pmfs, one row per start, and each
    start's total absorption mass at the target, solved exactly from the
    fundamental matrix.

    Steps are written in blocks into one buffer of n x k iterates (see the
    module docstring); everything kept past a block is copied out of it.
    """
    n = p.shape[0]
    if n >= SPARSE_MIN_STATES:
        # one CSR copy serves the steps (as its transpose) and the tail solve
        p = sparse.csr_array(p)
        kernel_t = p.T.tocsr()

        def step(x, out):
            out[...] = kernel_t @ x
    else:
        if sparse.issparse(p):
            p = p.toarray()

        def step(x, out):
            np.matmul(x.T, p, out=out.T)

    absorbing = p.diagonal() >= 1.0 - 1e-12
    if not absorbing[target]:
        raise ValueError(f"state {target} is not absorbing")
    transient = np.flatnonzero(~absorbing)
    cap = MAX_HORIZON if horizon is None else int(horizon)
    width = starts.shape[0]

    step_bytes = 8 * n * max(width, 1)
    block = max(1, min(BLOCK_STEPS, BLOCK_BYTES // step_bytes - 1))
    buf = np.empty((block + 1, n, width))
    # A single start iterates as a vector: matrix-vector products cost less
    # than n x 1 matrix products on both storages.
    vecs = buf[..., 0] if width == 1 else buf
    buf[0] = starts.T
    in_transient = (~absorbing).astype(float)

    def transient_mass(x):
        return np.matmul(in_transient, np.abs(x)).max(axis=1, initial=0.0)

    reached = [buf[:1, target].copy()]
    t = 0
    last = None
    while last is None and t < cap:
        steps = min(block, cap - t)
        for i in range(steps):
            step(vecs[i], vecs[i + 1])
        below = np.flatnonzero(transient_mass(buf[:steps]) < eps)
        if below.size:
            steps = int(below[0])
            last = buf[steps].copy()
        reached.append(buf[1:steps + 1, target].copy())
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
                f"transient mass {transient_mass(last[None])[0]:.3e} "
                f"after {cap} steps"
            )
    pmf = np.ascontiguousarray(
        np.diff(np.concatenate(reached), axis=0, prepend=0.0).T
    )

    return pmf, absorption_probabilities(p, transient, target) @ last


def absorb_dist(
    chain,
    nu,
    target: int | str | None = None,
    horizon: int | None = None,
    eps: float = 1e-12,
) -> AbsorptionDist:
    """Law of the absorption time at ``target`` by power iteration.

    ``chain`` is a substochastic matrix or an AbsorbingChain (a game or its
    pure-birth dual), and ``nu`` a start vector over its states; it may be
    signed (mixtures of dual weights), in which case a clearly negative pmf
    entry raises. ``target`` defaults to the last state (the win corner of
    a chain); ``"ruin"`` targets the row deficits, collected in a sink
    prepended by :func:`krongambler.linalg.augment_sink`. Iteration stops
    once the transient mass drops below eps or the horizon is reached;
    without an explicit horizon, failing to converge within 10^6 steps
    raises. The check that the dual mixture reproduces this law for a game
    is ``distribution_equality`` in :func:`krongambler.verify.run_checks`.
    """
    if isinstance(chain, AbsorbingChain):
        p = chain.dense() if target == "ruin" else chain.matrix
    else:
        p = np.asarray(chain, dtype=float)
    start = np.asarray(nu, dtype=float).reshape(1, p.shape[0])
    if target == "ruin":
        p = augment_sink(p)
        start = np.pad(start, ((0, 0), (1, 0)))
        index = 0
    else:
        target = index = p.shape[0] - 1 if target is None else int(target)
    pmfs, absorbed = _power_iteration(p, start, index, horizon, eps)
    pmf = pmfs[0]
    low = float(pmf.min(initial=0.0))
    if low < -1e-12:
        raise SpecError(f"mixture pmf entry {low:.3e}; inconsistent weights")
    np.clip(pmf, 0.0, None, out=pmf)
    tail = float(absorbed[0] - pmf.sum())
    return AbsorptionDist(pmf=pmf, tail=tail, target=target, eps=eps)


def pgf_multidim(game: GameSpec, nu_star, eps: float = 1e-12) -> MixturePgf:
    """Pipeline pgf of the game's time to the win corner, start law nu_star.

    Validates the game by building it, builds the pure-birth dual, converts
    each charged dual start state into a series-backed pgf by power
    iteration, and scales the signed mixture by the product of the
    per-dimension winning probabilities from state 1.
    """
    build_game(game)
    link, dual = build_dual(game)
    weights = dual_initial(link, nu_star).values
    return pgf_from_dual(link, dual, weights, eps=eps)


def pgf_from_dual(
    link: SpectralLink, dual: PureBirthChain, weights, eps: float = 1e-12
) -> MixturePgf:
    """Mixture pgf from an already-built dual and start weights.

    All charged start states share one power iteration.
    """
    weights = np.asarray(weights, dtype=float)
    charged = np.nonzero(np.abs(weights) > 1e-14)[0]
    starts = np.zeros((len(charged), dual.size))
    starts[np.arange(len(charged)), charged] = 1.0
    pmfs, absorbed = _power_iteration(dual.matrix, starts, dual.win_index, None, eps)
    tails = absorbed - pmfs.sum(axis=1)
    parts = tuple(
        SeriesPgf(pmf=pmf, tail=float(tail), eps=eps)
        for pmf, tail in zip(pmfs, tails)
    )
    used = tuple(float(weights[i]) for i in charged)
    return MixturePgf(scale=link.iso_value, weights=used, parts=parts)

