"""Assembly of multidimensional game chains from one-dimensional components.

A game is a signed mixture of Kronecker products: each term picks a subset of
coordinates that move together in one step, the remaining coordinates are
frozen by identity factors, and the mixture weights sum to one. The mixture
is the game's kernel on the lattice: a substochastic matrix whose row
deficits are the one-step probabilities of the common ruin state. Every
factor is tridiagonal, so entry (x, y) of every term lies on the one step
y - x in {-1, 0, +1}^d and a term holds it at most once: the kernel has at
most 3^d nonzeros per row, and the terms add each entry in mixture order.
:func:`kron_mixture` assembles and validates it that way, as a CSR matrix
straight from the components' bands (``BirthDeathSpec.band``), and takes
the pure-birth dual's bidiagonal bands too (``intertwine.build_dual``).
Every command reads the CSR kernel; only ``verify`` makes a copy of it dense.
The assembly refuses, before it allocates, past ``linalg.MAX_TRIPLETS``
triplets (:func:`check_triplets`).

States are lattice points indexed 0..n-1 in row-major order (coordinate d
varies fastest), so the win corner (N_1, ..., N_d) is the last index and
the others are transient. Only this module knows the layout:
:func:`linear_index`, :func:`multi_index`, :func:`lattice_coords` and
:func:`state_labels` map indices to coordinates, :func:`kron_apply`
applies a Kronecker product one lattice axis at a time, and
:func:`start_vector` and :func:`start_law` are the one reading of a start
given over the lattice. Ruin is not a state
index: a chain leaves its transient states through ruin (the row deficit)
or the win corner, so every absorption solve reads the transient block and
one exit vector (``AbsorbingChain.transient`` and ``AbsorbingChain.exit``),
and a chain keeps each target's solved absorption vector
(``AbsorbingChain.absorption``).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from math import comb, prod

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .birth_death import BirthDeathSpec
from .errors import CommunicationError, SizeError, SpecError, StochasticityError
from .linalg import DEFAULT_TOL, MAX_TRIPLETS, resolvent


def linear_index(dims: tuple, multi) -> int:
    """Lattice index 0..prod(dims)-1 of 1-based coordinates, coordinate d fastest.

    ``multi`` is a sequence of integers (numpy integers too); anything else,
    a fraction or a bare index, raises IndexError, as an off-lattice point does.
    """
    try:
        multi = tuple(map(operator.index, multi))
    except TypeError:
        raise IndexError(f"{multi!r} is not a tuple of integer coordinates") from None
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
    """Inverse of :func:`linear_index`: 1-based coordinates of an integer index."""
    try:
        linear = operator.index(linear)
    except TypeError:
        raise IndexError(f"{linear!r} is not an integer lattice index") from None
    size = prod(dims)
    if not 0 <= linear < size:
        raise IndexError(f"linear index {linear} out of range 0..{size - 1}")
    return tuple(int(c) + 1 for c in np.unravel_index(linear, dims))


def start_vector(dims: tuple, nu) -> np.ndarray:
    """Flat float copy of a start vector over the lattice states.

    ``nu`` is flat or in lattice shape, and its entries may be signed (the
    pure-birth dual's start weights are). Raises SpecError when it does not
    hold prod(dims) entries or holds a NaN or infinite one.
    """
    vec = np.array(nu, dtype=float).ravel()
    size = prod(dims)
    if vec.size != size:
        raise SpecError(f"start vector has {vec.size} entries, expected {size}")
    finite = np.isfinite(vec)
    if not finite.all():
        at = int(np.argmin(finite))
        raise SpecError(f"start vector entry {vec[at]} at index {at} is not finite")
    return vec


def start_law(dims: tuple, nu) -> np.ndarray:
    """:func:`start_vector` of a start law: a distribution over the lattice.

    Also raises SpecError, naming the value, for a negative entry and for a
    mass that is not 1 within DEFAULT_TOL.
    """
    law = start_vector(dims, nu)
    low = law.min()
    if low < 0.0:
        raise SpecError(f"start law has a negative entry {low}")
    mass = law.sum()
    if not abs(mass - 1.0) <= DEFAULT_TOL:
        raise SpecError(f"start law has mass {mass}, not 1")
    return law


def lattice_coords(dims: tuple) -> np.ndarray:
    """(d, n) table of the 0-based coordinates of every lattice index."""
    return np.indices(dims).reshape(len(dims), -1)


def state_labels(dims: tuple) -> list:
    """The 1-based coordinates of every lattice index as "i_1,...,i_d", in order."""
    axes = [[str(c) for c in range(1, side + 1)] for side in dims]
    return list(map(",".join, itertools.product(*axes)))


def kron_apply(x, dims: tuple, ops) -> np.ndarray:
    """x @ (A_1 kron ... kron A_d) over x's last index, read as a lattice index.

    ``ops[j]`` is the dense factor A_{j+1}, or a callable applying A_{j+1}^T
    to an (N_{j+1}, m) array whose rows run along lattice axis j + 1. Axes
    are taken in order 1..d, each brought to the front and rotated to the
    back (the "shuffle" product); a dense factor's z^T A comes out rotated.
    """
    x = np.asarray(x)
    y = x.reshape(-1, prod(dims)).T
    for side, op in zip(dims, ops, strict=True):
        z = y.reshape(side, -1)
        y = z.T @ op if isinstance(op, np.ndarray) else op(z).T
    return y.reshape(x.shape)


def as_integer(value, name: str) -> int:
    """``operator.index(value)``; a bool or a non-integer raises SpecError."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise SpecError(f"{name} must be an integer, got {value!r}")


def _as_tuple(value, name: str) -> tuple:
    """``tuple(value)``; a value that is not iterable raises SpecError."""
    try:
        return tuple(value)
    except TypeError:
        raise SpecError(f"{name} must be a sequence, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class GameSpec:
    """d birth-death components, move subsets, and mixture coefficients.

    ``subsets`` holds 1-based coordinate sets; ``coeffs`` is either a tuple of
    reals summing to 1 or a tuple of state weights: vectors w_k over the
    prod(N_j) lattice states, kept as read-only float copies, that sum to 1
    at every state. Term k's row x is then scaled by w_k(x). State weights
    are accepted by ``build_game`` and all that runs on the built chain
    (``win_prob_solve``, ``absorb_dist``, ``ResolventPgf``, ``simulate``);
    only ``build_dual`` refuses them, so ``simulate_coupled`` and verify's
    dual checks do not apply.
    """

    dims: tuple
    subsets: tuple
    coeffs: tuple

    def __post_init__(self):
        dims = _as_tuple(self.dims, "dims")
        if not dims or not all(isinstance(s, BirthDeathSpec) for s in dims):
            raise SpecError("dims must be a nonempty tuple of BirthDeathSpec")
        object.__setattr__(self, "dims", dims)
        d = len(dims)
        subsets = tuple(
            frozenset(as_integer(j, "subset member") for j in _as_tuple(a, "subset"))
            for a in _as_tuple(self.subsets, "subsets")
        )
        if not subsets:
            raise SpecError("at least one move subset is required")
        for a in subsets:
            if not a <= set(range(1, d + 1)):
                raise SpecError(f"subset {sorted(a)} not within 1..{d}")
        object.__setattr__(self, "subsets", subsets)
        coeffs = _as_tuple(self.coeffs, "coeffs")
        if len(coeffs) != len(subsets):
            raise SpecError("coeffs and subsets must have equal length")
        if self.scalar_coeffs:
            coeffs = tuple(float(b) for b in coeffs)
            # a non-finite coefficient makes the sum inf or NaN: both fail
            if not abs(sum(coeffs) - 1.0) <= DEFAULT_TOL:
                raise SpecError(f"coefficients sum to {sum(coeffs)!r}, not 1")
        else:
            weights = tuple(np.array(w, dtype=float) for w in coeffs)
            for w in weights:
                if w.shape != (self.size,):
                    raise SpecError(f"state weight has shape {w.shape}, "
                                    f"expected ({self.size},)")
                w.flags.writeable = False
            with np.errstate(invalid="ignore"):  # inf + -inf sums to NaN
                total = sum(weights)
            # a non-finite weight makes its state's sum inf or NaN: both fail
            off = ~(np.abs(total - 1.0) <= DEFAULT_TOL)
            if off.any():
                at = int(off.argmax())
                raise SpecError(f"state weights must sum to 1, but sum to "
                                f"{float(total[at])!r} at state "
                                f"{multi_index(self.shape, at)}")
            coeffs = weights
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
    """Built chain, a game or its pure-birth dual, with index bookkeeping.

    ``matrix`` is the substochastic kernel over lattice indices 0..n-1 as a
    ``scipy.sparse.csr_array`` (a dense argument is converted); the last
    index is the absorbing win corner (N_1..N_d), the others are transient,
    and each row's deficit is its one-step probability of ruin.
    """

    matrix: sparse.csr_array
    dims: tuple

    def __post_init__(self):
        matrix = sparse.csr_array(self.matrix)
        n = prod(self.dims)
        if matrix.shape != (n, n):
            raise SpecError(
                f"kernel of shape {matrix.shape} does not fit the lattice "
                f"{tuple(self.dims)} of {n} states"
            )
        object.__setattr__(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return prod(self.dims)

    @property
    def win_index(self) -> int:
        return self.size - 1

    @cached_property
    def ruin(self) -> np.ndarray:
        """One-step ruin probability of every lattice state (cached, read-only)."""
        ruin = np.clip(1.0 - self.matrix @ np.ones(self.size), 0.0, None)
        ruin.flags.writeable = False
        return ruin

    @cached_property
    def transient(self) -> sparse.csr_array:
        """Transient block Q: the kernel on states 0..n-2, in CSR (cached)."""
        return self.matrix[:-1, :-1]

    @cached_property
    def least_row_sum(self) -> float:
        """Least row sum of the transient block Q, 1.0 if it is empty (cached)."""
        return float((self.transient @ np.ones(self.size - 1)).min(initial=1.0))

    @cached_property
    def _to_win(self) -> np.ndarray:
        to_win = self.matrix[:-1, [self.win_index]].toarray()[:, 0]
        to_win.flags.writeable = False
        return to_win

    def exit(self, target: str) -> np.ndarray:
        """Transient states' one-step exits: P[:-1, win] or ``ruin[:-1]``."""
        if target == "win":
            return self._to_win
        if target == "ruin":
            return self.ruin[:-1]
        raise ValueError(f"target must be 'win' or 'ruin', got {target!r}")

    @cached_property
    def _absorbed(self) -> dict:
        return {}

    def absorption(self, target: str) -> np.ndarray:
        """Absorption probabilities at ``target`` from the transient states.

        (I - Q)^-1 ``exit(target)`` by one sparse LU solve
        (``linalg.resolvent``, which may raise SizeError) per chain and
        target; the solved vector is cached read-only, the LU is not kept.
        """
        exit = self.exit(target)
        if target not in self._absorbed:
            mass = resolvent(self).solve(exit)
            mass.flags.writeable = False
            self._absorbed[target] = mass
        return self._absorbed[target]


def _band_nonzeros(band) -> tuple:
    """(rows, cols, values, side) of the nonzeros of a (diag, upper, lower) band."""
    diag, upper, lower = band
    i = np.arange(len(diag))
    rows = np.concatenate([i, i[:-1], i[1:]])
    cols = np.concatenate([i, i[1:], i[:-1]])
    vals = np.concatenate([diag, upper, lower])
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep], len(diag)


def _identity(side: int) -> tuple:
    diag = np.arange(side)
    return diag, diag, np.ones(side), side


def _kron_triplets(factors) -> tuple:
    """(rows, cols, values) of the nonzeros of a Kronecker product.

    ``factors`` holds one (rows, cols, values, side) per coordinate. The
    product is associated to the left like chained ``numpy.kron`` calls, so
    every value is rounded exactly as in the dense product.
    """
    rows = cols = np.zeros(1, dtype=np.int64)
    vals = np.ones(1)
    for r, c, v, side in factors:
        rows = (rows[:, None] * side + r).ravel()
        cols = (cols[:, None] * side + c).ravel()
        vals = (vals[:, None] * v).ravel()
    return rows, cols, vals


def check_triplets(bands, subsets) -> list:
    """The bands' nonzeros for :func:`kron_mixture`, once its triplets fit.

    Entry (x, y) of a term lies on the one step y - x, where it is one
    product of its factors' entries, so term k holds exactly one (row, col,
    value) triplet per product of nonzeros: the product over coordinates of
    the band's nonzero count for j + 1 in ``subsets[k]`` and the side
    otherwise. Past ``linalg.MAX_TRIPLETS`` triplets in all terms this
    raises SizeError, before anything is allocated.
    """
    factors = [_band_nonzeros(band) for band in bands]
    count = sum(
        prod(len(rows) if (j + 1) in subset else side
             for j, (rows, _, _, side) in enumerate(factors))
        for subset in subsets
    )
    if count > MAX_TRIPLETS:
        n = prod(f[3] for f in factors)
        raise SizeError(
            f"a kernel of {n} states would assemble {count} triplets "
            f"(cap {MAX_TRIPLETS})"
        )
    return factors


def kron_mixture(bands, subsets, coeffs, error, message) -> sparse.csr_array:
    """CSR kernel of the mixture sum_k coeffs[k] kron_j F_kj, clamped at zero.

    ``bands`` holds one (diag, upper, lower) band per coordinate; F_kj is
    band j for the coordinates j + 1 in ``subsets[k]`` and the identity
    otherwise. A coefficient is a real or a vector of state weights, which
    scales each row x of its term by coeffs[k][x]. Entry (x, y) lies on the
    one step y - x in {-1, 0, +1}^d, so a term holds it at most once, and
    the terms add it one at a time in mixture order, the order in which a
    dense mixture adds them: every entry equals the dense one. Entries in
    [-DEFAULT_TOL, 0) are clamped to zero and dropped; a more negative one
    raises ``error`` with ``message`` formatted with the entry ``low`` and
    its lattice states ``src`` and ``dst``. Past the triplet cap it raises
    SizeError before it allocates (:func:`check_triplets`).
    """
    factors = check_triplets(bands, subsets)
    shape = tuple(f[3] for f in factors)
    n = prod(shape)
    terms = []
    for subset, coeff in zip(subsets, coeffs):
        rows, cols, vals = _kron_triplets(
            factors[j] if (j + 1) in subset else _identity(side)
            for j, side in enumerate(shape)
        )
        weight = coeff[rows] if np.ndim(coeff) else coeff
        terms.append((rows * n + cols, weight * vals))
    # A term holds each entry at most once, so every entry takes its terms'
    # contributions one at a time, in mixture order.
    keys, slot = np.unique(
        np.concatenate([k for k, _ in terms]), return_inverse=True
    )
    data = np.zeros(len(keys))
    start = 0
    for k, v in terms:
        data[slot[start:start + len(k)]] += v
        start += len(k)
    rows, cols = np.divmod(keys, n)

    low = float(data.min(initial=0.0))
    if low < -DEFAULT_TOL:
        at = int(data.argmin())
        raise error(message.format(
            low=low,
            src=multi_index(shape, rows[at]),
            dst=multi_index(shape, cols[at]),
        ))
    keep = data > 0.0
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=n))))
    return sparse.csr_array((data[keep], cols[keep], indptr), shape=(n, n))


def build_game(spec: GameSpec) -> AbsorbingChain:
    """Mix the Kronecker terms into the game's CSR kernel and validate it.

    :func:`kron_mixture` assembles the kernel from the components'
    tridiagonal bands (``BirthDeathSpec.band``). Cancellation in signed
    mixtures may leave entries in [-DEFAULT_TOL, 0), which are clamped to
    zero; anything more negative, or a row summing above 1 + DEFAULT_TOL,
    means the mixture is not a valid chain and raises. The transient
    lattice states must form one communication class.
    """
    chain = AbsorbingChain(
        matrix=kron_mixture(
            [s.band for s in spec.dims], spec.subsets, spec.coeffs,
            StochasticityError,
            "mixture entry {low:.3e} at states {src} -> {dst}",
        ),
        dims=spec.shape,
    )
    excess = float((chain.matrix @ np.ones(chain.size)).max()) - 1.0
    if excess > DEFAULT_TOL:
        raise StochasticityError(
            f"row sum exceeds 1 by {excess:.3e}; not substochastic"
        )
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
    Reaching an exit is one breadth-first search of the reversed digraph,
    from an extra node m that leads to every state stepping straight into
    ruin or the win corner, so the check costs O(nnz).
    """
    edges = (chain.transient > 0.0).astype(float)
    m = chain.size - 1
    if m > 1:
        n_comp, _ = connected_components(edges, directed=True, connection="weak")
        if n_comp != 1:
            return False
    exits = np.flatnonzero((chain.exit("ruin") > 0.0) | (chain.exit("win") > 0.0))
    # the forward digraph's CSC arrays, read as CSR, are the reversed one
    back = edges.tocsc()
    nnz = back.nnz + len(exits)
    reverse = sparse.csr_array(
        (np.ones(nnz), np.append(back.indices, exits), np.append(back.indptr, nnz)),
        shape=(m + 1, m + 1),
    )
    return len(breadth_first_order(reverse, m, return_predecessors=False)) == m + 1


def preset_r_of_d(dims, r: int) -> GameSpec:
    """Game in which at most r of the d coordinates move in one step.

    Takes every r-element subset with weight 1 plus the empty set carrying
    the balancing weight 1 - C(d, r); subsets are enumerated
    lexicographically. For r = d the balancing term vanishes and the game is
    the plain product of independent components.
    """
    dims = _as_tuple(dims, "dims")
    d = len(dims)
    r = as_integer(r, "r")
    if not 1 <= r <= d:
        raise SpecError(f"r must lie in 1..{d}, got {r}")
    subsets = [frozenset(a) for a in itertools.combinations(range(1, d + 1), r)]
    coeffs = [1.0] * len(subsets)
    balance = 1.0 - comb(d, r)
    if balance != 0.0:
        subsets.append(frozenset())
        coeffs.append(balance)
    return GameSpec(dims=dims, subsets=tuple(subsets), coeffs=tuple(coeffs))
