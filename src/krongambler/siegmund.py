"""Siegmund duality on products of total orders.

The coordinatewise order on the lattice has the 0/1 indicator matrix C (a
Kronecker product of one-dimensional "upper triangle of ones" factors),
whose inverse is the Mobius function of the order. C is never formed: it is
applied as cumulative sums along the lattice axes and C^-1 as differences,
which are exact on integers, one axis at a time by
:func:`krongambler.game.kron_apply`. Conjugating with C turns absorption
probabilities of the game chain into the stationary distribution of an
ergodic partner chain, which is what makes the product formula for winning
probabilities checkable by three independent routes: the product formula,
the fundamental-matrix solve and the partner's stationary law (the pi
route). ``verify`` runs the first two and checks the partner itself.
The partner routes take the game's kernel as a dense array.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .birth_death import bd_win_prob
from .game import AbsorbingChain, GameSpec, kron_apply


def _cumsum(z: np.ndarray) -> np.ndarray:
    # np.cumsum(z, axis=0) bit for bit, and several times faster on the
    # lattice's short axes: whole rows are added one after another
    out = np.array(z)
    for row in range(1, len(out)):
        out[row] += out[row - 1]
    return out


def _difference(z: np.ndarray) -> np.ndarray:
    # np.diff(z, axis=0, prepend=0) bit for bit
    out = np.array(z)
    out[1:] -= z[:-1]
    return out


def order_rows(x: np.ndarray, dims) -> np.ndarray:
    """C @ x: reversed cumulative sums of x's rows along each lattice axis."""
    ops = [lambda z: _cumsum(z[::-1])[::-1]] * len(dims)
    return kron_apply(x.T, dims, ops).T


def order_cols(x: np.ndarray, dims) -> np.ndarray:
    """x @ C: cumulative sums of x's columns along each lattice axis."""
    return kron_apply(x, dims, [_cumsum] * len(dims))


def mobius_cols(x: np.ndarray, dims) -> np.ndarray:
    """x @ C^-1: differences of x's columns along each lattice axis."""
    return kron_apply(x, dims, [_difference] * len(dims))


def reconstruct_primal(kernel: np.ndarray, dims) -> np.ndarray:
    """Ergodic partner C (P')^T C^-1 of a game's dense kernel P' on ``dims``.

    Row sums are exactly 1; entrywise nonnegativity is equivalent to the
    Mobius monotonicity of the partner and holds for valid games.
    """
    return mobius_cols(order_rows(kernel.T, dims), dims)


def win_prob_product(game: GameSpec) -> np.ndarray:
    """Winning probabilities as the product of per-dimension probabilities.

    Indexed over lattice states in linear order (coordinate d fastest).
    """
    return reduce(np.kron, [bd_win_prob(s) for s in game.dims])


def win_prob_solve(chain: AbsorbingChain) -> np.ndarray:
    """Winning probabilities from the fundamental-matrix solve on the built chain.

    The chain's cached ``absorption("win")``: one sparse LU of the CSR
    kernel's transient block per chain, shared with ``absorb_dist``'s tail;
    no dense copy.
    """
    return np.append(chain.absorption("win"), 1.0)


def stationary_of(p_x: np.ndarray) -> np.ndarray:
    """Stationary law of a reconstructed partner chain, by one linear solve.

    Solves (P_x^T - I) pi = 0 with its last equation replaced by
    sum(pi) = 1, which has a unique solution for an ergodic partner. Tiny
    negative entries of P_x from rounding do not matter to the solve.
    """
    system = p_x.T - np.eye(len(p_x))
    system[-1] = 1.0
    rhs = np.zeros(len(p_x))
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def win_prob_pi_route(kernel: np.ndarray, dims) -> np.ndarray:
    """Winning probabilities as cumulative stationary mass of the partner chain.

    Third, duality-based route on a game's dense kernel: reconstruct the
    ergodic partner, find its stationary vector, and accumulate it along
    the order.
    """
    return order_cols(stationary_of(reconstruct_primal(kernel, dims)), dims)
