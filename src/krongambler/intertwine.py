"""Spectral intertwining links and the pure-birth absorption-time dual.

For each one-dimensional component, stacking the first rows of normalized
spectral polynomials of its restricted matrix gives a lower-triangular link
whose Kronecker product intertwines the multidimensional game with a
pure-birth chain on the same lattice. Absorption of the game at the win
corner then has the same (suitably weighted) law as absorption of the
pure-birth chain, which is cheap to analyze.

:func:`build_dual` gates the per-dimension link identities, then
assembles the dual once, as a CSR Kronecker mixture of bidiagonal bands
by the game's own assembly (:func:`krongambler.game.kron_mixture`, which
takes bands as the game takes ``BirthDeathSpec.band``). The
link is kept as its per-dimension factors and no dense link is formed
anywhere: an entry is a product of factor entries
(:meth:`SpectralLink.entries`), and the link acts on vectors and matrices
one factor per lattice axis (:func:`krongambler.game.kron_apply`), as in
:func:`dual_initial` and the ``intertwining`` check of
:func:`krongambler.verify.run_checks`.

The module also carries the classical sharp-dual construction for ergodic
chains, and the closed forms of the lazy two-urn diffusion family, whose link
can be reached both spectrally and through the classical route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import comb, prod

import numpy as np
from scipy.linalg import solve_triangular

from .birth_death import (
    _EIG_TOL,
    _band_dense,
    BirthDeathSpec,
    ErgodicBDSpec,
    bd_eigenvalues,
    bd_is_monotone,
    bd_restricted,
    bd_stationary,
    bd_win_prob,
)
from .errors import (
    DegenerateSpectrumError,
    LinkPrecisionError,
    MonotonicityError,
    SpecError,
)
from .game import AbsorbingChain, GameSpec, kron_apply, kron_mixture, lattice_coords
from .pgf import GeometricProductPgf, MixturePgf

_DEGENERATE_TOL = 1e-12
_INTERTWINE_TOL = 1e-10
#: Start weights down to -_WEIGHT_TOL count as nonnegative.
_WEIGHT_TOL = 1e-12


def _checked_eigenvalues(spec: BirthDeathSpec) -> np.ndarray:
    lam = bd_eigenvalues(spec)
    if lam[0] < -_EIG_TOL:
        raise MonotonicityError(
            f"negative eigenvalue {lam[0]:.3e}; spectral link needs a "
            "nonnegative spectrum"
        )
    if np.any(1.0 - lam[:-1] < _DEGENERATE_TOL):
        raise DegenerateSpectrumError(
            "a non-top eigenvalue is within 1e-12 of 1"
        )
    return lam


def _spectral_recurrence(spec: BirthDeathSpec, q: np.ndarray) -> list:
    """[q Q_1, .., q Q_N] for Q_1 = I, Q_{k+1} = Q_k (P' - lam_k I) / (1 - lam_k).

    Eigenvalues are taken in ascending order; ``q`` is a row vector or a
    matrix multiplying from the left.
    """
    lam = _checked_eigenvalues(spec)
    p_res = bd_restricted(spec)
    eye = np.eye(spec.N)
    out = [q]
    for k in range(1, spec.N):
        q = q @ (p_res - lam[k - 1] * eye) / (1.0 - lam[k - 1])
        out.append(q)
    return out


def spectral_link_1d(spec: BirthDeathSpec) -> np.ndarray:
    """Lower-triangular link with rows Q_k(1, .) of the spectral polynomials.

    Only first rows are materialized. Row k is supported on columns 1..k,
    the (1,1) entry is 1, and the (N,N) entry is the winning probability
    from state 1.
    """
    return np.array(_spectral_recurrence(spec, np.eye(spec.N)[0]))


def spectral_polynomials(spec: BirthDeathSpec) -> list:
    """Full normalized spectral polynomial matrices Q_1 .. Q_N.

    Materialized only for verification; the link itself needs first rows.
    """
    return _spectral_recurrence(spec, np.eye(spec.N))


def _birth_band(lam: np.ndarray) -> tuple:
    """(diag, upper, lower) of the pure-birth kernel: hold lam_i, up 1 - lam_i."""
    return lam, 1.0 - lam[:-1], np.zeros(len(lam) - 1)


def pure_birth_1d(eigenvalues) -> np.ndarray:
    """One-dimensional pure-birth kernel: hold lam_i, move up 1 - lam_i."""
    return _band_dense(_birth_band(np.asarray(eigenvalues, dtype=float)))


@dataclass(frozen=True, eq=False)
class SpectralLink:
    """Kronecker link between a built game and its pure-birth dual.

    The link is the Kronecker product of the lower-triangular ``per_dim``
    factors and is never formed: :meth:`entries` reads any of its entries.
    Its last column is supported on the last row only, with value
    ``iso_value`` (the product of the per-dimension winning probabilities
    from state 1).
    """

    per_dim: tuple
    iso_value: float
    dims: tuple

    def entries(self, rows, cols) -> np.ndarray:
        """Link entries at lattice indices ``rows`` and ``cols``, broadcast.

        Each entry is the product of its factor entries, multiplied left to
        right like a dense Kronecker product, so it equals that product's
        entry bit for bit; coordinates come from the lattice's table.
        """
        out = 1.0
        for coord, factor in zip(self._coords, self.per_dim):
            out = out * factor[coord.take(rows), coord.take(cols)]
        return out

    @cached_property
    def _coords(self) -> np.ndarray:
        return lattice_coords(self.dims)


def build_dual(game: GameSpec) -> tuple:
    """Construct the link and the pure-birth dual of a scalar-coefficient game.

    The dual kernel is the Kronecker mixture sum_k b_k kron_j F_kj with
    F_kj the one-dimensional pure-birth kernel for j in A_k and the identity
    otherwise; a step raising exactly the coordinates in B then has
    probability prod_{j in B} (1 - lam_j) * sum_{k: B subset A_k} b_k
    prod_{j in A_k - B} lam_j. It is assembled in CSR form from the
    bidiagonal bands by :func:`krongambler.game.kron_mixture`, the
    assembly of the game's kernel. By the mixed-product rule the
    per-dimension identities L_j P_j = P_hat_j L_j imply the global
    intertwining, so only those, and each link's isolated win corner, are
    enforced here, before the assembly; a failure raises
    LinkPrecisionError. The global residual is left to ``verify``.
    """
    if not game.scalar_coeffs:
        raise SpecError(
            "absorption-time duality is defined for scalar coefficients only"
        )
    for s in game.dims:
        if not bd_is_monotone(s):
            raise MonotonicityError("every component must be monotone")
    links = [spectral_link_1d(s) for s in game.dims]
    bands = [_birth_band(_checked_eigenvalues(s)) for s in game.dims]
    rho1 = [bd_win_prob(s)[0] for s in game.dims]

    for j, (s, link, band, rho) in enumerate(zip(game.dims, links, bands, rho1)):
        birth = _band_dense(band)
        residual = np.max(np.abs(link @ bd_restricted(s) - birth @ link))
        if residual > _INTERTWINE_TOL:
            raise LinkPrecisionError(
                f"intertwining residual {residual:.3e} in dimension {j + 1} "
                f"(N={s.N})"
            )
        corner = abs(link[-1, -1] - rho)
        if np.any(link[:-1, -1]) or corner > 1e-10:
            raise LinkPrecisionError(
                f"link is not isolated at the win corner in dimension {j + 1} "
                f"(N={s.N}): corner residual {corner:.3e}"
            )

    dual = AbsorbingChain(
        matrix=kron_mixture(
            bands, game.subsets, game.coeffs, SpecError,
            "pure-birth dual entry {low:.3e} at lattice states {src} -> {dst}; "
            "the mixture violates the dual nonnegativity assumption",
        ),
        dims=game.shape,
    )
    link = SpectralLink(
        per_dim=tuple(links), iso_value=float(prod(rho1)), dims=game.shape
    )
    return link, dual


@dataclass(frozen=True, eq=False)
class DualInitial:
    """Start weights of the pure-birth dual; signed unless the start is minimal."""

    values: np.ndarray
    is_distribution: bool


def dual_initial(link: SpectralLink, nu_star) -> DualInitial:
    """Solve nu_hat (kron of links) = nu_star with per-dimension triangular solves.

    ``nu_star`` is a distribution over lattice states, flat or in lattice
    shape. The result can carry negative weights; ``is_distribution`` is set
    when it is entrywise nonnegative and sums to 1.
    """
    shape = link.dims
    size = prod(shape)
    nu = np.asarray(nu_star, dtype=float)
    if nu.size != size:
        raise ValueError(f"start vector has {nu.size} entries, expected {size}")
    values = kron_apply(nu.reshape(size), shape, [
        partial(solve_triangular, lam, trans="T", lower=True)
        for lam in link.per_dim
    ])
    ok = values.min() >= -_WEIGHT_TOL and abs(values.sum() - 1.0) <= 1e-9
    return DualInitial(values=values, is_distribution=bool(ok))


def classical_ssd_1d(x: ErgodicBDSpec) -> tuple:
    """Sharp classical dual of a monotone ergodic walk and its link.

    Returns ``(dual_spec, link)`` where the dual is an absorbing chain on the
    same states with the top state absorbing, moving down with rate
    H(i-1) p'(i) / H(i) and up with rate H(i+1) q'(i+1) / H(i) for the
    cumulative stationary mass H, and link(i, j) = 1{j <= i} pi(j) / H(i).
    """
    if not bd_is_monotone(x):
        raise MonotonicityError("classical dual needs a monotone chain")
    m = x.M
    pi = bd_stationary(x)
    h = np.cumsum(pi)
    up = np.empty(m - 1)
    down = np.empty(m - 1)
    for i in range(1, m):
        up[i - 1] = h[i] * x.q[i - 1] / h[i - 1]  # q'(i+1) = x.q[i-1]
        down[i - 1] = (h[i - 2] if i >= 2 else 0.0) * x.p[i - 1] / h[i - 1]
    spec = BirthDeathSpec(N=m, p=tuple(up), q=tuple(down))
    link = np.tril(np.tile(pi, (m, 1))) / h[:, None]
    return spec, link


# -- lazy two-urn diffusion family (closed forms) ---------------------------


def ehrenfest_ergodic(n: int) -> ErgodicBDSpec:
    """Lazy two-urn walk on {1..n}: binomial stationary law, spectrum i/(n-1)."""
    if n < 3:
        raise SpecError("need at least 3 states")
    denom = 2.0 * (n - 1)
    p = tuple((n - i) / denom for i in range(1, n))
    q = tuple((i - 1) / denom for i in range(2, n + 1))
    return ErgodicBDSpec(M=n, p=p, q=q)


def ehrenfest_binomial_link(n: int) -> np.ndarray:
    """Link with rows binom(i-1, j-1) / 2^(i-1)."""
    out = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            out[i - 1, j - 1] = comb(i - 1, j - 1) / 2.0 ** (i - 1)
    return out


def ehrenfest_dual_weights(n: int, m: int) -> np.ndarray:
    """Closed-form start weights of the pure-birth dual for start state m."""
    if not 1 <= m <= n:
        raise SpecError(f"start must lie in 1..{n}, got {m}")
    nu = np.zeros(n)
    if m == n:
        # already absorbed; the ratio form degenerates to 0/0 here but the
        # link route gives a point mass at the top
        nu[n - 1] = 1.0
        return nu
    denom = sum(comb(n - 1, k) for k in range(m))
    for j in range(1, m + 1):
        nu[j - 1] = (
            2.0 ** (j - 1)
            * (-1.0) ** (m + j)
            * (m - j + 1)
            * comb(n - 1, m)
            * comb(m, j - 1)
        ) / ((n - j) * denom)
    return nu


def ehrenfest_pgf(n: int, m: int) -> MixturePgf:
    """pgf of the absorption time from state m, as a signed mixture of
    geometric-factor products with parameters (k-1)/(n-1); its ``mean()``
    is the expected absorption time."""
    nu = ehrenfest_dual_weights(n, m)
    parts = []
    weights = []
    for j in range(1, m + 1):
        lam = tuple((k - 1.0) / (n - 1.0) for k in range(j, n))
        parts.append(GeometricProductPgf(scale=1.0, num=lam))
        weights.append(float(nu[j - 1]))
    return MixturePgf(weights=tuple(weights), parts=tuple(parts))
