"""Shared generators and oracles for the test suite."""

import itertools
from functools import reduce
from math import comb

import numpy as np

from scipy.sparse.csgraph import connected_components

from krongambler import (
    BirthDeathSpec,
    CouplingError,
    ErgodicBDSpec,
    HorizonError,
    absorption,
    bd_eigenvalues,
    preset_r_of_d,
)
from krongambler.birth_death import bd_restricted


def kron_all(mats):
    """Dense Kronecker product of a nonempty sequence, associated to the left.

    The dense oracle for the CSR Kronecker-mixture assembly and for the
    entries of the spectral link.
    """
    return reduce(np.kron, mats)


def product_order(dims):
    """Dense order matrix C and its Mobius inverse C^-1, as int64 arrays.

    The oracle for ``siegmund.order_rows``, ``order_cols`` and
    ``mobius_cols``: C is the Kronecker product of upper triangles of ones,
    and C^-1 that of the bidiagonal +1/-1 factors.
    """
    c = kron_all([np.triu(np.ones((n, n), dtype=np.int64)) for n in dims])
    mobius = kron_all([
        np.eye(n, dtype=np.int64) - np.eye(n, k=1, dtype=np.int64)
        for n in dims
    ])
    return c, mobius


def row_major_draw(values, dest, states, u):
    """Inverse-cdf draw from row-major (n, W) values and destinations.

    The oracle for ``simulate._sample_rows`` on the ``simulate._cum_rows``
    tables: each state's cumulative row, its last entry raised to at least
    1 (a sure bound for u < 1), and a draw that counts the entries with
    u >= entry.
    """
    cum = np.cumsum(values, axis=1)
    cum[:, -1] = np.maximum(cum[:, -1], 1.0)
    return dest[states, (u[:, None] >= cum[states]).sum(axis=1)]


def row_major_conditional_draw(rows, u):
    """Column per row drawn proportionally to (runs, W) nonnegative weights.

    The oracle for ``simulate._conditional_draw``: cumulative rows divided
    by the row totals, the last entry set to 1.
    """
    totals = rows.sum(axis=1)
    if np.any(totals <= 0.0):
        raise CouplingError("zero-probability dual step; link column vanished")
    cum = np.cumsum(rows, axis=1) / totals[:, None]
    cum[:, -1] = 1.0
    return (u[:, None] >= cum).sum(axis=1)


def rand_bd(rng, n, q1_zero=False, budget=0.9, min_rate=0.3):
    """Random valid chain spec with per-state move mass p(i)+q(i) <= budget.

    ``min_rate`` floors the raw draws before scaling, which keeps absorption
    times (and hence power-iteration horizons) moderate.
    """
    p = rng.uniform(min_rate, 1.0, n - 1)
    q = rng.uniform(min_rate, 1.0, n - 1)
    scale = budget / np.maximum(p + q, 1e-9).max()
    p, q = p * scale, q * scale
    if q1_zero and n > 1:
        q[0] = 0.0
    return BirthDeathSpec(N=n, p=tuple(p), q=tuple(q))


def rand_ergodic(rng, m, budget=0.9, min_rate=0.02):
    p = rng.uniform(min_rate, 1.0, m - 1)
    q = rng.uniform(min_rate, 1.0, m - 1)
    # out-of-state mass: p'(i) + q'(i) per interior state
    scale = budget / max(
        max(p[i] + (q[i - 1] if i else 0.0) for i in range(m - 1)), q[-1]
    )
    return ErgodicBDSpec(M=m, p=tuple(p * scale), q=tuple(q * scale))


def game_safe_budget(d, r):
    """Per-state move cap keeping the mixed game matrix entrywise nonnegative
    for the at-most-r-coordinates preset."""
    c = comb(d, r)
    if c == 1:
        return 0.45
    floor = (1.0 - 1.0 / c + 0.02) ** (1.0 / r)
    return min(1.0 - floor, 0.45)


def dual_safe_budget(d, r):
    """Tighter cap that also keeps the pure-birth dual nonnegative; the dual
    diagonal involves eigenvalues, bounded below by 1 - 2 * budget."""
    c = comb(d, r)
    if c == 1:
        return 0.45
    floor = (1.0 - 1.0 / c + 0.02) ** (1.0 / r)
    return (1.0 - floor) / 2.0


def rand_game(rng, d=None, r=None, n_max=4, q1_zero=False, dual_safe=True):
    """Random at-most-r-of-d preset game over random component chains."""
    d = int(rng.integers(1, 4)) if d is None else d
    r = int(rng.integers(1, d + 1)) if r is None else r
    budget = dual_safe_budget(d, r) if dual_safe else min(
        game_safe_budget(d, r), 0.9 / d
    )
    dims = [
        rand_bd(rng, int(rng.integers(2, n_max + 1)), q1_zero=q1_zero,
                budget=budget)
        for _ in range(d)
    ]
    return preset_r_of_d(dims, r)


def direct_game_matrix(dims):
    """Hand-coded kernel and ruin vector of the one-coordinate-at-a-time game.

    Independent of the Kronecker construction: iterates lattice states and
    applies the displayed move/ruin/hold rules directly. Returns the kernel
    over lattice indices and each state's one-step ruin probability.
    """
    shape = tuple(s.N for s in dims)
    size = int(np.prod(shape))
    out = np.zeros((size, size))
    ruin_of = np.zeros(size)

    def lin(multi):
        return int(np.ravel_multi_index([c - 1 for c in multi], shape))

    for multi0 in np.ndindex(*shape):
        multi = tuple(c + 1 for c in multi0)
        row = lin(multi)
        total_move = 0.0
        ruin = 0.0
        for j, (spec, c) in enumerate(zip(dims, multi)):
            up = spec.p[c - 1] if c < spec.N else 0.0
            down = spec.q[c - 1] if c < spec.N else 0.0
            total_move += up + down
            if up > 0.0:
                target = list(multi)
                target[j] += 1
                out[row, lin(target)] += up
            if down > 0.0:
                if c == 1:
                    ruin += down
                else:
                    target = list(multi)
                    target[j] -= 1
                    out[row, lin(target)] += down
        ruin_of[row] = ruin
        out[row, row] = 1.0 - total_move
    return out, ruin_of


def dense_mixture(game, factors=None):
    """A Kronecker mixture over the game's terms, assembled densely, unclipped.

    ``factors`` holds one dense factor per coordinate: the components'
    restricted kernels by default (the game), or their pure-birth kernels
    (the dual). The reference for the CSR assembly of ``build_game`` and
    ``build_dual``: the same factors, multiplied by ``kron_all`` and added
    term by term in mixture order.
    """
    if factors is None:
        factors = [bd_restricted(s) for s in game.dims]
    mixed = np.zeros((game.size, game.size))
    for subset, coeff in zip(game.subsets, game.coeffs):
        term = kron_all([
            f if (j + 1) in subset else np.eye(len(f))
            for j, f in enumerate(factors)
        ])
        mixed += coeff * term if game.scalar_coeffs else coeff @ term
    return mixed


def dense_communication(kernel):
    """Communication check on a dense kernel: the reference for the CSR one.

    The transient states must be weakly connected through positive entries,
    and each must reach, walking forward, a state that steps into ruin or
    the win corner (the last index).
    """
    sub = kernel[:-1, :-1] > 0.0
    if len(sub) > 1:
        n_comp, _ = connected_components(sub, directed=True, connection="weak")
        if n_comp != 1:
            return False
    ruin = 1.0 - kernel.sum(axis=1)
    exits = (ruin[:-1] > 0.0) | (kernel[:-1, -1] > 0.0)
    reach = exits.copy()
    frontier = exits.copy()
    while frontier.any():
        frontier = sub[:, frontier].any(axis=1) & ~reach
        reach |= frontier
    return bool(reach.all())


def direct_dual_kernel(game):
    """Pure-birth dual kernel filled in state by state from the mixture.

    Independent of the Kronecker assembly in ``build_dual``: a step raising
    exactly the coordinates in B has probability
    prod_{j in B} (1 - lam_j) * sum_{k: B subset A_k} b_k prod_{j in A_k - B} lam_j,
    and the holding probability is sum_k b_k prod_{j in A_k} lam_j, with the
    eigenvalues lam_j taken at the current lattice state. No clipping.
    """
    shape = game.shape
    eigs = [bd_eigenvalues(s) for s in game.dims]
    moves = set()
    for a in game.subsets:
        for r in range(1, len(a) + 1):
            moves.update(frozenset(b) for b in itertools.combinations(a, r))
    out = np.zeros((game.size, game.size))
    for lin, multi0 in enumerate(np.ndindex(*shape)):
        lam = {j + 1: eigs[j][multi0[j]] for j in range(game.d)}
        out[lin, lin] = sum(
            b_k * float(np.prod([lam[j] for j in a_k]))
            for b_k, a_k in zip(game.coeffs, game.subsets)
        )
        for bset in moves:
            if any(multi0[j - 1] + 1 >= shape[j - 1] for j in bset):
                continue
            up = float(np.prod([1.0 - lam[j] for j in bset]))
            mix = sum(
                b_k * float(np.prod([lam[j] for j in a_k - bset]))
                for b_k, a_k in zip(game.coeffs, game.subsets)
                if bset <= a_k
            )
            target = tuple(
                c + 1 if (j + 1) in bset else c for j, c in enumerate(multi0)
            )
            out[lin, int(np.ravel_multi_index(target, shape))] = up * mix
    return out


def chi_square_bins(observed_counts, probs, total):
    """Bin observed counts against expected ones, merging tiny-expectation bins."""
    horizon = max(len(observed_counts), len(probs))
    obs = np.zeros(horizon)
    obs[: len(observed_counts)] = observed_counts
    expected = np.zeros(horizon)
    expected[: len(probs)] = probs
    expected = expected / expected.sum() * total
    keep = expected >= 5.0
    obs_binned = np.append(obs[keep], obs[~keep].sum())
    exp_binned = np.append(expected[keep], expected[~keep].sum())
    if exp_binned[-1] == 0.0:
        obs_binned, exp_binned = obs_binned[:-1], exp_binned[:-1]
    return obs_binned, exp_binned


def power_iteration_pmf(matrix, start, target, horizon):
    """Independent absorption-law oracle: plain repeated multiplication."""
    n = matrix.shape[0]
    v = np.zeros(n)
    v[start] = 1.0
    pmf = [v[target]]
    prev = v[target]
    for _ in range(horizon):
        v = v @ matrix
        pmf.append(v[target] - prev)
        prev = v[target]
    return np.array(pmf)


def reference_power_iteration(p, starts, target, horizon, eps):
    """Step-by-step dense power iteration: the oracle for the blocked engine.

    Same contract as ``krongambler.absorption._power_iteration``: one
    vector-matrix product per step, the transient-mass test before every
    step, and the exact fundamental-matrix solve for the absorbed mass.
    """
    n = p.shape[0]
    absorbing = np.diag(p) >= 1.0 - 1e-12
    if not absorbing[target]:
        raise ValueError(f"state {target} is not absorbing")
    transient = np.flatnonzero(~absorbing)
    cap = absorption.MAX_HORIZON if horizon is None else int(horizon)

    def transient_mass(v):
        return np.abs(v[:, transient]).sum(axis=1).max(initial=0.0)

    v = starts
    reached = [v[:, target].copy()]
    for _ in range(cap):
        if transient_mass(v) < eps:
            break
        v = v @ p
        reached.append(v[:, target].copy())
    else:
        if horizon is None:
            raise HorizonError(
                f"transient mass {transient_mass(v):.3e} after {cap} steps"
            )
    pmf = np.diff(np.column_stack(reached), axis=1, prepend=0.0)

    h = np.zeros(n)
    h[target] = 1.0
    if len(transient):
        q = p[np.ix_(transient, transient)]
        h[transient] = np.linalg.solve(
            np.eye(len(transient)) - q, p[transient, target]
        )
    return pmf, v @ h


def link_cliff_doc():
    """A dual-safe 2-D r = 1 game with a 26-state component.

    The component's spectral link is past double-precision reach: its
    intertwining residual is about 1.7e-5, against a gate of 1e-10.
    """
    rng = np.random.default_rng(70)
    dims = []
    for n in (26, 3):
        p = rng.uniform(0.3, 1.0, n - 1)
        q = rng.uniform(0.3, 1.0, n - 1)
        scale = 0.24 / (p + q).max()
        dims.append({"N": n, "p": list(p * scale), "q": list(q * scale)})
    return {"version": 1, "dims": dims,
            "mixing": {"preset": {"type": "r_of_d", "r": 1}}, "runs": 10}


def signed_weights_doc():
    """A d = 2, r = 2 game of two 16-state components with ill-conditioned
    signed dual start weights at interior starts.

    ``np.random.default_rng(3)`` draws the components of (d, N) = (1, 12),
    (1, 16), (1, 20), (2, 12), (2, 16) in that order with ``rand_bd`` at
    budget 0.45; the last draw is the game. iso * sum|nu_hat|, the factor by
    which the dual's law amplifies the rounding of its start weights, is
    1.2e-2 at (2, 2), 1.4e5 at (6, 6), 3.3e7 at (8, 8) and 9.2e11 at
    (15, 15).
    """
    rng = np.random.default_rng(3)
    for d, n in [(1, 12), (1, 16), (1, 20), (2, 12), (2, 16)]:
        dims = [rand_bd(rng, n, budget=0.45) for _ in range(d)]
    return {
        "version": 1,
        "dims": [{"N": s.N, "p": list(s.p), "q": list(s.q)} for s in dims],
        "mixing": {"preset": {"type": "r_of_d", "r": 2}},
    }
