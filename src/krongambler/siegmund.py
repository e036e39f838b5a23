"""Siegmund duality on products of total orders.

The coordinatewise order on the lattice is encoded by a 0/1 indicator matrix
C (a Kronecker product of one-dimensional "upper triangle of ones" factors)
whose inverse is the Mobius function of the order. Conjugating with C turns
absorption probabilities of the game chain into the stationary distribution
of an ergodic partner chain, which is what makes the product formula for
winning probabilities checkable by three independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .birth_death import bd_win_prob
from .game import AbsorbingChain, GameSpec
from .linalg import absorption_probabilities


@dataclass(frozen=True, eq=False)
class OrderMatrix:
    """Indicator of the product order and its exact integer inverse."""

    c: np.ndarray
    mobius: np.ndarray
    dims: tuple


def product_order(dims) -> OrderMatrix:
    """Order matrix C = kron of total-order indicators, with Mobius inverse.

    Each one-dimensional factor is upper triangular ones; its inverse is the
    bidiagonal +1/-1 matrix, and a Kronecker product of exact integer
    inverses is the exact inverse of the product.
    """
    dims = tuple(int(n) for n in dims)
    cs = [np.triu(np.ones((n, n), dtype=np.int64)) for n in dims]
    mus = [
        np.eye(n, dtype=np.int64) - np.eye(n, k=1, dtype=np.int64) for n in dims
    ]
    return OrderMatrix(c=reduce(np.kron, cs), mobius=reduce(np.kron, mus), dims=dims)


def reconstruct_primal(chain: AbsorbingChain, order: OrderMatrix) -> np.ndarray:
    """Ergodic partner C (P')^T C^-1 of a built game's kernel P'.

    Row sums are exactly 1; entrywise nonnegativity is equivalent to the
    Mobius monotonicity of the partner and holds for valid games.
    """
    c = order.c.astype(float)
    mobius = order.mobius.astype(float)
    return c @ chain.dense().T @ mobius


def win_prob_product(game: GameSpec) -> np.ndarray:
    """Winning probabilities as the product of per-dimension probabilities.

    Indexed over lattice states in linear order (coordinate d fastest).
    """
    return reduce(np.kron, [bd_win_prob(s) for s in game.dims])


def win_prob_solve(chain: AbsorbingChain) -> np.ndarray:
    """Winning probabilities from the fundamental-matrix solve on the built chain.

    One sparse LU of the CSR kernel's transient block; no dense copy.
    """
    n = chain.size
    return absorption_probabilities(chain.matrix, np.arange(n - 1), n - 1)


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


def win_prob_pi_route(chain: AbsorbingChain, order: OrderMatrix | None = None) -> np.ndarray:
    """Winning probabilities as cumulative stationary mass of the partner chain.

    Third, duality-based route: reconstruct the ergodic partner, find its
    stationary vector, and accumulate it through the order matrix.
    """
    if order is None:
        order = product_order(chain.dims)
    p_x = reconstruct_primal(chain, order)
    pi = stationary_of(p_x)
    return pi @ order.c.astype(float)
