"""Assembly of multidimensional game chains from one-dimensional components.

A game is a signed mixture of Kronecker products: each term picks a subset of
coordinates that move together in one step, the remaining coordinates are
frozen by identity factors, and the mixture weights sum to one. The mixture
is the game's kernel on the lattice: a substochastic matrix whose row
deficits are the one-step probabilities of the common ruin state.

States are lattice points indexed 0..n-1 in row-major order (coordinate d
varies fastest), so the win corner (N_1, ..., N_d) is the last index. Ruin
is not a state index; it becomes an explicit state only where a law needs
it as a category (``linalg.augment_sink``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod

import numpy as np
from scipy.sparse.csgraph import connected_components

from .birth_death import BirthDeathSpec, bd_restricted
from .errors import CommunicationError, SpecError, StochasticityError
from .linalg import DEFAULT_TOL, kron_all


def linear_index(dims: tuple, multi) -> int:
    """Lattice index 0..prod(dims)-1 of 1-based coordinates, coordinate d fastest."""
    multi = tuple(int(c) for c in multi)
    if len(multi) != len(dims):
        raise IndexError(f"multi-index {multi} has wrong length for dims {dims}")
    for c, n in zip(multi, dims):
        if not 1 <= c <= n:
            raise IndexError(f"coordinate {c} out of range 1..{n}")
    return int(np.ravel_multi_index([c - 1 for c in multi], dims))


def lattice_point_mass(dims: tuple, multi) -> np.ndarray:
    """Start vector over the lattice states charging ``multi``."""
    nu = np.zeros(prod(dims))
    nu[linear_index(dims, multi)] = 1.0
    return nu


def multi_index(dims: tuple, linear: int) -> tuple:
    """Inverse of :func:`linear_index`: 1-based coordinates of a lattice index."""
    size = prod(dims)
    if not 0 <= linear < size:
        raise IndexError(f"linear index {linear} out of range 0..{size - 1}")
    return tuple(int(c) + 1 for c in np.unravel_index(linear, dims))


@dataclass(frozen=True, eq=False)
class GameSpec:
    """d birth-death components, move subsets, and mixture coefficients.

    ``subsets`` holds 1-based coordinate sets; ``coeffs`` is either a tuple of
    reals summing to 1 or a tuple of square matrices (side prod(N_j)) summing
    to the identity. Matrix coefficients are accepted only by the
    winning-probability pipeline.
    """

    dims: tuple
    subsets: tuple
    coeffs: tuple

    def __post_init__(self):
        dims = tuple(self.dims)
        if not dims or not all(isinstance(s, BirthDeathSpec) for s in dims):
            raise SpecError("dims must be a nonempty tuple of BirthDeathSpec")
        object.__setattr__(self, "dims", dims)
        d = len(dims)
        subsets = tuple(frozenset(int(j) for j in a) for a in self.subsets)
        if not subsets:
            raise SpecError("at least one move subset is required")
        for a in subsets:
            if not a <= set(range(1, d + 1)):
                raise SpecError(f"subset {sorted(a)} not within 1..{d}")
        object.__setattr__(self, "subsets", subsets)
        coeffs = tuple(self.coeffs)
        if len(coeffs) != len(subsets):
            raise SpecError("coeffs and subsets must have equal length")
        if self.scalar_coeffs:
            coeffs = tuple(float(b) for b in coeffs)
            if abs(sum(coeffs) - 1.0) > DEFAULT_TOL:
                raise SpecError(f"coefficients sum to {sum(coeffs)!r}, not 1")
        else:
            size = self.size
            total = np.zeros((size, size))
            mats = []
            for b in coeffs:
                b = np.asarray(b, dtype=float)
                if b.shape != (size, size):
                    raise SpecError(
                        f"matrix coefficient has shape {b.shape}, expected "
                        f"({size}, {size})"
                    )
                total += b
                mats.append(b)
            if np.max(np.abs(total - np.eye(size))) > DEFAULT_TOL:
                raise SpecError("matrix coefficients must sum to the identity")
            coeffs = tuple(mats)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def scalar_coeffs(self) -> bool:
        return all(np.ndim(b) == 0 for b in self.coeffs)

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple:
        return tuple(s.N for s in self.dims)

    @property
    def size(self) -> int:
        return prod(self.shape)


@dataclass(frozen=True, eq=False)
class AbsorbingChain:
    """Built game chain: its kernel on the lattice, with index bookkeeping.

    ``matrix`` is the substochastic kernel over lattice indices 0..n-1; the
    last index is the absorbing win corner (N_1..N_d). Each row's deficit
    is its one-step probability of ruin.
    """

    matrix: np.ndarray
    dims: tuple

    @property
    def size(self) -> int:
        return prod(self.dims)

    @property
    def win_index(self) -> int:
        return self.size - 1

    @property
    def ruin(self) -> np.ndarray:
        """One-step ruin probability of every lattice state."""
        return np.clip(1.0 - self.matrix.sum(axis=1), 0.0, None)

    def to_linear(self, multi) -> int:
        return linear_index(self.dims, multi)

    def to_multi(self, linear: int) -> tuple:
        return multi_index(self.dims, linear)


def build_game(spec: GameSpec) -> AbsorbingChain:
    """Mix the Kronecker terms into the game's kernel and validate it.

    Cancellation in signed mixtures may leave entries in [-DEFAULT_TOL, 0);
    these are clamped to zero. Anything more negative, or a row summing above
    1 + DEFAULT_TOL, means the mixture is not a valid chain and raises. The
    transient lattice states must form one communication class.
    """
    shape = spec.shape
    eyes = {n: np.eye(n) for n in set(shape)}
    restricted = [bd_restricted(s) for s in spec.dims]
    mixed = np.zeros((spec.size, spec.size))
    for subset, coeff in zip(spec.subsets, spec.coeffs):
        factors = [
            restricted[j] if (j + 1) in subset else eyes[shape[j]]
            for j in range(spec.d)
        ]
        term = kron_all(factors)
        mixed += coeff * term if spec.scalar_coeffs else coeff @ term
    low = float(mixed.min())
    if low < -DEFAULT_TOL:
        i, j = np.unravel_index(int(mixed.argmin()), mixed.shape)
        raise StochasticityError(
            f"mixture entry {low:.3e} at states "
            f"{multi_index(shape, i)} -> {multi_index(shape, j)}"
        )
    np.clip(mixed, 0.0, None, out=mixed)
    excess = float(mixed.sum(axis=1).max()) - 1.0
    if excess > DEFAULT_TOL:
        raise StochasticityError(
            f"row sum exceeds 1 by {excess:.3e}; not substochastic"
        )
    chain = AbsorbingChain(matrix=mixed, dims=shape)
    if not check_communication(chain):
        raise CommunicationError("transient states split into several classes")
    return chain


def check_communication(chain: AbsorbingChain) -> bool:
    """Whether the transient states form one class that is surely absorbed.

    Two requirements, both on the positive-entry digraph restricted to
    transient states: the graph is connected (no state or block is isolated
    from the rest of the game), and every transient state can reach ruin or
    the win corner. States with a coordinate already at its top cannot move
    that coordinate back down, so strong connectivity is deliberately not
    required; it fails even for the plain one-coordinate-at-a-time game.
    """
    sub = chain.matrix[:-1, :-1] > 0.0
    if len(sub) > 1:
        n_comp, _ = connected_components(sub, directed=True, connection="weak")
        if n_comp != 1:
            return False
    # absorption reachable from everywhere: walk the digraph backwards from
    # the states that step straight into ruin or the win corner
    exits = (chain.ruin[:-1] > 0.0) | (chain.matrix[:-1, -1] > 0.0)
    reach = exits.copy()
    frontier = exits.copy()
    while frontier.any():
        frontier = sub[:, frontier].any(axis=1) & ~reach
        reach |= frontier
    return bool(reach.all())


def preset_r_of_d(dims, r: int) -> GameSpec:
    """Game in which at most r of the d coordinates move in one step.

    Takes every r-element subset with weight 1 plus the empty set carrying
    the balancing weight 1 - C(d, r); subsets are enumerated
    lexicographically. For r = d the balancing term vanishes and the game is
    the plain product of independent components.
    """
    dims = tuple(dims)
    d = len(dims)
    if not 1 <= r <= d:
        raise SpecError(f"r must lie in 1..{d}, got {r}")
    subsets = [frozenset(a) for a in itertools.combinations(range(1, d + 1), r)]
    coeffs = [1.0] * len(subsets)
    balance = 1.0 - comb(d, r)
    if balance != 0.0:
        subsets.append(frozenset())
        coeffs.append(balance)
    return GameSpec(dims=dims, subsets=tuple(subsets), coeffs=tuple(coeffs))
