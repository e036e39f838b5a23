"""Spectral intertwining links and the pure-birth absorption-time dual.

For each one-dimensional component, stacking the first rows of normalized
spectral polynomials of its restricted matrix gives a lower-triangular link
(:func:`spectral_link_1d`, one row recurrence; the full polynomial
matrices are never formed) whose Kronecker product intertwines the
multidimensional game with a pure-birth chain on the same lattice.
Absorption of the game at the win corner then has the same (suitably
weighted) law as absorption of the pure-birth chain, which is cheap to
analyze.

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
    _log_stationary,
    BirthDeathSpec,
    ErgodicBDSpec,
    bd_eigenvalues,
    bd_is_monotone,
    bd_restricted,
    bd_win_prob,
)
from .errors import (
    DegenerateSpectrumError,
    LinkPrecisionError,
    MonotonicityError,
    SpecError,
)
from .game import (
    AbsorbingChain,
    GameSpec,
    kron_apply,
    kron_mixture,
    lattice_coords,
    linear_index,
    start_law,
)

_DEGENERATE_TOL = 1e-12
_INTERTWINE_TOL = 1e-10


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


def spectral_link_1d(spec: BirthDeathSpec) -> np.ndarray:
    """Lower-triangular link with rows Q_k(1, .) of the spectral polynomials.

    Row 1 is e_1 and row k+1 is row k times (P' - lam_k I) / (1 - lam_k),
    the eigenvalues taken in ascending order: only first rows of the
    normalized polynomials Q_k are formed. Row k is supported on columns
    1..k, the (1,1) entry is 1, and the (N,N) entry is the winning
    probability from state 1.
    """
    lam = _checked_eigenvalues(spec)
    p_res = bd_restricted(spec)
    eye = np.eye(spec.N)
    rows = [eye[0]]
    for lam_k in lam[:-1]:
        rows.append(rows[-1] @ (p_res - lam_k * eye) / (1.0 - lam_k))
    return np.array(rows)


def _birth_band(lam: np.ndarray) -> tuple:
    """(diag, upper, lower) of the pure-birth kernel: hold lam_i, up 1 - lam_i."""
    return lam, 1.0 - lam[:-1], np.zeros(len(lam) - 1)


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


def dual_initial(link: SpectralLink, nu_star) -> np.ndarray:
    """Solve nu_hat (kron of links) = nu_star with per-dimension triangular solves.

    ``nu_star`` is a start law over the lattice states, flat or in lattice
    shape (``game.start_law``, which raises SpecError for anything else).
    Returns the flat array nu_hat. It can carry negative weights, and it
    sums to rho(nu_star) / ``link.iso_value``, the win probability from
    nu_star over that of the bottom corner: to 1 from the bottom corner or
    when no component can be ruined.
    """
    return kron_apply(start_law(link.dims, nu_star), link.dims, [
        partial(solve_triangular, lam, trans="T", lower=True)
        for lam in link.per_dim
    ])


def classical_ssd_1d(x: ErgodicBDSpec) -> tuple:
    """Sharp classical dual of a monotone ergodic walk and its link.

    Returns ``(dual_spec, link)`` where the dual is an absorbing chain on the
    same states with the top state absorbing, moving down with rate
    H(i-1) p'(i) / H(i) and up with rate H(i+1) q'(i+1) / H(i) for the
    cumulative stationary mass H, and link(i, j) = 1{j <= i} pi(j) / H(i).
    """
    if not bd_is_monotone(x):
        raise MonotonicityError("classical dual needs a monotone chain")
    # every ratio is a difference of logs, so neither pi nor H over- or
    # underflows on a long walk
    log_pi = _log_stationary(x)
    log_h = np.logaddexp.accumulate(log_pi)
    up = np.exp(log_h[1:] - log_h[:-1] + np.log(x.q))
    down = np.exp(np.append(-np.inf, log_h[:-2]) - log_h[:-1] + np.log(x.p))
    spec = BirthDeathSpec(N=x.M, p=tuple(up), q=tuple(down))
    log_link = np.where(np.tri(x.M, dtype=bool), log_pi - log_h[:, None], -np.inf)
    return spec, np.exp(log_link)


# -- lazy two-urn diffusion family (closed forms) ---------------------------


def ehrenfest_ergodic(n: int) -> ErgodicBDSpec:
    """Lazy two-urn walk on {1..n}: binomial stationary law, spectrum i/(n-1)."""
    if n < 3:
        raise SpecError("need at least 3 states")
    denom = 2.0 * (n - 1)
    p = tuple((n - i) / denom for i in range(1, n))
    q = tuple((i - 1) / denom for i in range(2, n + 1))
    return ErgodicBDSpec(M=n, p=p, q=q)


def ehrenfest_dual_weights(n: int, m: int) -> np.ndarray:
    """Closed-form start weights of the pure-birth dual for start state m.

    Weight j <= m is (-1)^(m+j) 2^(j-1) (m-j+1) C(n-1, m) C(m, j-1) over
    (n-j) sum_{k<m} C(n-1, k). Numerator and denominator are exact
    integers, divided once, so each weight is correctly rounded; a weight
    past the float range raises SpecError.
    """
    try:
        linear_index((n,), (m,))
    except IndexError:
        raise SpecError(f"start must lie in 1..{n}, got {m!r}") from None
    nu = np.zeros(n)
    if m == n:
        # already absorbed; the ratio form degenerates to 0/0 here but the
        # link route gives a point mass at the top
        nu[n - 1] = 1.0
        return nu
    denom = sum(comb(n - 1, k) for k in range(m))
    top = comb(n - 1, m)
    try:
        for j in range(1, m + 1):
            num = 2 ** (j - 1) * (m - j + 1) * top * comb(m, j - 1)
            nu[j - 1] = (-1) ** (m + j) * num / ((n - j) * denom)
    except OverflowError:
        raise SpecError(
            f"two-urn dual weights for n={n}, m={m} exceed the float range"
        ) from None
    return nu
