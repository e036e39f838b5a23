"""Spectral intertwining links and the pure-birth absorption-time dual.

For each one-dimensional component, stacking the first rows of normalized
spectral polynomials of its restricted matrix gives a lower-triangular link
whose Kronecker product intertwines the multidimensional game with a
pure-birth chain on the same lattice. Absorption of the game at the win
corner then has the same (suitably weighted) law as absorption of the
pure-birth chain, which is cheap to analyze.

:func:`build_dual` assembles the dual once, as a CSR Kronecker mixture of
bidiagonal factors by the game's own assembly
(:func:`krongambler.game.kron_mixture`), and gates it on the per-dimension
link identities. The global intertwining residual against the built game
is the ``intertwining`` check of :func:`krongambler.verify.run_checks`; the
entry-by-entry dual formula is a test oracle.

The module also carries the classical sharp-dual construction for ergodic
chains, and the closed forms of the lazy two-urn diffusion family, whose link
can be reached both spectrally and through the classical route.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

import numpy as np
from scipy.linalg import solve_triangular

from .birth_death import (
    _EIG_TOL,
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
from .game import AbsorbingChain, GameSpec, kron_mixture
from .linalg import kron_all
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


def pure_birth_1d(eigenvalues) -> np.ndarray:
    """One-dimensional pure-birth kernel: hold lam_i, move up 1 - lam_i."""
    lam = np.asarray(eigenvalues, dtype=float)
    n = len(lam)
    out = np.diag(lam)
    for i in range(n - 1):
        out[i, i + 1] = 1.0 - lam[i]
    return out


@dataclass(frozen=True, eq=False)
class SpectralLink:
    """Kronecker link between a built game and its pure-birth dual.

    ``matrix`` is lower triangular and nonsingular; its last column is
    supported on the last row only, with value ``iso_value`` (the product of
    the per-dimension winning probabilities from state 1).
    """

    matrix: np.ndarray
    per_dim: tuple
    eigen: tuple
    iso_value: float
    dims: tuple


class PureBirthChain(AbsorbingChain):
    """Pure-birth dual on the lattice: no coordinate ever decreases.

    ``diag`` holds the holding probabilities; the diagonal doubles as the
    spectrum of the game's kernel.
    """

    @property
    def diag(self) -> np.ndarray:
        return self.matrix.diagonal()


def _nonzeros(m: np.ndarray) -> tuple:
    """(rows, cols, values, side) of the nonzero entries of a square factor."""
    rows, cols = np.nonzero(m)
    return rows, cols, m[rows, cols], len(m)


def build_dual(game: GameSpec) -> tuple:
    """Construct the link and the pure-birth dual of a scalar-coefficient game.

    The dual kernel is the Kronecker mixture sum_k b_k kron_j F_kj with
    F_kj the one-dimensional pure-birth kernel for j in A_k and the identity
    otherwise; a step raising exactly the coordinates in B then has
    probability prod_{j in B} (1 - lam_j) * sum_{k: B subset A_k} b_k
    prod_{j in A_k - B} lam_j. It is assembled in CSR form from the
    bidiagonal factors by :func:`krongambler.game.kron_mixture`, the
    assembly of the game's kernel. By the mixed-product rule the
    per-dimension identities L_j P_j = P_hat_j L_j imply the global
    intertwining, so only those, and each link's isolated win corner, are
    enforced here; a failure raises LinkPrecisionError. The global residual
    is left to ``verify``. The link is a dense Kronecker product, so a game
    past the dense cap raises SizeError before anything is assembled.
    """
    if not game.scalar_coeffs:
        raise SpecError(
            "absorption-time duality is defined for scalar coefficients only"
        )
    for s in game.dims:
        if not bd_is_monotone(s):
            raise MonotonicityError("every component must be monotone")
    eigs = [_checked_eigenvalues(s) for s in game.dims]
    links = [spectral_link_1d(s) for s in game.dims]
    lam_big = kron_all(links)
    births = [pure_birth_1d(lam) for lam in eigs]
    rho1 = [bd_win_prob(s)[0] for s in game.dims]

    dual = PureBirthChain(
        matrix=kron_mixture(
            [_nonzeros(b) for b in births], game.subsets, game.coeffs, SpecError,
            "pure-birth dual entry {low:.3e} at lattice states {src} -> {dst}; "
            "the mixture violates the dual nonnegativity assumption",
        ),
        dims=game.shape,
    )

    for j, (s, link, birth, rho) in enumerate(zip(game.dims, links, births, rho1)):
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

    link = SpectralLink(
        matrix=lam_big,
        per_dim=tuple(links),
        eigen=tuple(eigs),
        iso_value=float(prod(rho1)),
        dims=game.shape,
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
    tensor = nu.reshape(shape).copy()
    for axis, lam in enumerate(link.per_dim):
        moved = np.moveaxis(tensor, axis, 0)
        flat = moved.reshape(lam.shape[0], -1)
        solved = solve_triangular(lam, flat, trans="T", lower=True)
        tensor = np.moveaxis(solved.reshape(moved.shape), 0, axis)
    values = tensor.reshape(size)
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


def ehrenfest_binomial_link_inv(n: int) -> np.ndarray:
    """Exact inverse: entries (-1)^(j-i) 2^(j-1) binom(i-1, j-1).

    Row i holds the coefficients of (2x - 1)^(i-1).
    """
    out = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            out[i - 1, j - 1] = (-1.0) ** (j - i) * 2.0 ** (j - 1) * comb(
                i - 1, j - 1
            )
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


def ehrenfest_dual_weights_link_route(n: int, m: int) -> np.ndarray:
    """Same weights through the two-link matrix route, for cross-checking."""
    if not 1 <= m <= n:
        raise SpecError(f"start must lie in 1..{n}, got {m}")
    _, link_classical = classical_ssd_1d(ehrenfest_ergodic(n))
    nu_star = np.zeros(n)
    nu_star[m - 1] = 1.0
    return nu_star @ link_classical @ ehrenfest_binomial_link_inv(n)


def ehrenfest_pgf(n: int, m: int) -> MixturePgf:
    """pgf of the absorption time from state m, as a signed mixture of
    geometric-factor products with parameters (k-1)/(n-1)."""
    nu = ehrenfest_dual_weights(n, m)
    parts = []
    weights = []
    for j in range(1, m + 1):
        lam = tuple((k - 1.0) / (n - 1.0) for k in range(j, n))
        parts.append(GeometricProductPgf(scale=1.0, num=lam))
        weights.append(float(nu[j - 1]))
    return MixturePgf(scale=1.0, weights=tuple(weights), parts=tuple(parts))


def ehrenfest_expected_time(n: int, m: int) -> float:
    """Expected absorption time: (n-1) sum_j nu(j) sum_{k=j}^{n-1} 1/(n-k)."""
    nu = ehrenfest_dual_weights(n, m)
    total = 0.0
    for j in range(1, m + 1):
        total += nu[j - 1] * sum(1.0 / (n - k) for k in range(j, n))
    return (n - 1) * total


@dataclass(frozen=True, eq=False)
class EhrenfestForms:
    """Bundle of the closed forms for one (n, m) instance."""

    nu: np.ndarray
    pgf: MixturePgf
    expected_time: float


def ehrenfest_closed_forms(n: int, m: int) -> EhrenfestForms:
    return EhrenfestForms(
        nu=ehrenfest_dual_weights(n, m),
        pgf=ehrenfest_pgf(n, m),
        expected_time=ehrenfest_expected_time(n, m),
    )
