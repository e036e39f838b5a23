"""One-shot verification suite: every identity the construction promises.

Each check returns a named result with its worst residual, so a single run
documents how tightly a given game satisfies the dualities it was built
from. Every check compares two routes to the same quantity and can fail on
a wrong answer; a residual at or below the tolerance passes.

==================================  ============================================  =====
check                               identity, against the independent route       tol
==================================  ============================================  =====
win_prob_product_vs_solve           product of 1-D closed forms =                 1e-9
                                    fundamental-matrix solve on the built kernel
mobius_monotone                     ergodic partner P_x = C P'^T C^-1 has no      1e-10
                                    entry below 0
stationary_product                  product of 1-D stationary laws diff(rho_j)    1e-10
                                    is stationary for P_x
intertwining                        global L P' = P_hat L on the built game (the  1e-10
                                    build checks each dimension)
pure_birth_rows                     every dual row sums to 1                      1e-12
diagonal_eigenvalues                sorted eigenvalues of P' (an eigensolve of    1e-9
                                    each strongly connected block of P') =
                                    sorted dual diagonal; imaginary parts count
distribution_equality               iso * dual pmf from the signed mixed start    1e-9
                                    nu_hat = power iteration on the game
keilson_factorization               1-D, no ruin: pmf from the bottom =           1e-10
                                    convolution of geometric(1 - lam_k)
==================================  ============================================  =====

Build-time invariants (substochastic kernel, one communication class, a
nonnegative dual, per-dimension links, the link's isolated win corner) are
enforced by ``build_game`` and ``build_dual``, which raise; they show up
here only as a failed ``build``, ``dual_nonnegative`` or ``dual_link``
entry (a built dual adds ``dual_nonnegative`` as passed):
``dual_nonnegative`` for a negative dual entry, ``dual_link`` for
a component outside the spectral link's reach (``MonotonicityError``,
``DegenerateSpectrumError``, or ``LinkPrecisionError`` past double
precision). ``verify`` is the one command that makes the kernel and the
dual dense (the link is applied one factor per lattice axis): one
``toarray`` copy of each. So a game too large to check raises SizeError
before it is built: past the triplet cap (``game.check_triplets``), then
past ``linalg.MAX_ENTRIES`` entries of a dense kernel. Checks that do not
apply to a spec (state weights, a game without a dual, games of more than
one dimension for the factorization) are skipped rather than failed. A
power iteration that raises (transient mass left at its step cap, or a
clearly negative mixture pmf) fails the entry that reads it, with the
message as its detail.

The spectral link's rows are checked only through what they intertwine,
the built game with its built dual: a wrong row fails the per-dimension
gate (``dual_link``) or ``intertwining``.

The Siegmund partner is checked by ``mobius_monotone`` and
``stationary_product``. Its accumulated stationary law equals the solve
for every kernel (``siegmund.win_prob_pi_route``), so it is not compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .absorption import absorb_dist
from .birth_death import bd_eigenvalues, bd_win_prob
from .errors import (
    DegenerateSpectrumError,
    HorizonError,
    LinkPrecisionError,
    MonotonicityError,
    SizeError,
    SpecError,
)
from .game import (
    GameSpec,
    build_game,
    check_triplets,
    kron_apply,
    lattice_point_mass,
)
from .intertwine import build_dual, dual_initial
from .linalg import MAX_ENTRIES
from .siegmund import reconstruct_primal, win_prob_product, win_prob_solve

#: Bound on the distance between the sorted spectrum of the game's kernel
#: and the sorted dual diagonal; honest games stay near 1e-14.
SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome; an entry that did not run has no residual."""

    name: str
    passed: bool
    residual: float | None
    detail: str = ""

    def as_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed, "residual": self.residual}
        if self.detail:
            out["detail"] = self.detail
        return out


def _result(name, residual, tol) -> CheckResult:
    return CheckResult(
        name=name, passed=bool(residual <= tol), residual=float(residual)
    )


def diagonal_eigenvalue_check(
    kernel: np.ndarray, diag: np.ndarray
) -> CheckResult:
    """Spectrum of the game's kernel vs the dual's diagonal.

    The residual is the largest gap between the sorted real parts of the
    kernel's eigenvalues and the sorted diagonal, or the largest imaginary
    part if that is bigger: the game's spectrum is real.

    The eigenvalues are solved one strongly connected component of the
    kernel's digraph at a time (Tarjan 1972). Ordering the components
    topologically is a symmetric permutation, a similarity, that makes the
    kernel block triangular with those components as its diagonal blocks,
    so the spectrum is the union of theirs. A coordinate at its top never
    moves down, so each component lies within one face of the lattice (the
    states with the same coordinates at their top), and the cubic cost
    falls from n^3 to the sum of the blocks' cubes.
    """
    # labelled on a CSR copy: csgraph's own reading of a dense graph is
    # several times slower
    _, labels = connected_components(sparse.csr_array(kernel), directed=True,
                                     connection="strong")
    blocks = np.split(np.argsort(labels, kind="stable"),
                      np.cumsum(np.bincount(labels))[:-1])
    eig = np.concatenate(
        [np.linalg.eigvals(kernel[np.ix_(b, b)]) for b in blocks]
    )
    residual = max(
        float(np.max(np.abs(np.sort(eig.real) - np.sort(diag)))),
        float(np.max(np.abs(eig.imag))),
    )
    return _result("diagonal_eigenvalues", residual, SPECTRUM_TOL)


def run_checks(
    game: GameSpec,
    start=None,
    eps: float = 1e-12,
) -> list:
    """Run every applicable identity check for one game spec."""
    checks = []
    dims = game.shape
    start = tuple(start) if start is not None else (1,) * game.d

    check_triplets([s.band for s in game.dims], game.subsets)
    n = game.size
    if n * n > MAX_ENTRIES:
        raise SizeError(
            f"a dense kernel of {n} states would hold {n * n} entries "
            f"(cap {MAX_ENTRIES})"
        )
    try:
        chain = build_game(game)
    except SpecError as exc:
        checks.append(CheckResult("build", False, None, str(exc)))
        return checks
    kernel = chain.matrix.toarray()

    rho_prod = win_prob_product(game)
    rho_solve = win_prob_solve(chain)
    checks.append(
        _result("win_prob_product_vs_solve",
                np.max(np.abs(rho_prod - rho_solve)), 1e-9)
    )

    primal = reconstruct_primal(kernel, dims)
    checks.append(
        _result("mobius_monotone", max(0.0, -float(primal.min())), 1e-10)
    )

    # the partner of a component with win probabilities rho has
    # stationary increments pi(i) = rho(i) - rho(i-1)
    pi_kron = reduce(
        np.kron, [np.diff(bd_win_prob(s), prepend=0.0) for s in game.dims]
    )
    checks.append(
        _result("stationary_product",
                np.max(np.abs(pi_kron @ primal - pi_kron)), 1e-10)
    )

    if not game.scalar_coeffs:
        return checks

    try:
        link, dual = build_dual(game)
    except SpecError as exc:
        link_fault = (MonotonicityError, DegenerateSpectrumError, LinkPrecisionError)
        name = "dual_link" if isinstance(exc, link_fault) else "dual_nonnegative"
        checks.append(CheckResult(name, False, None, str(exc)))
        return checks
    checks.append(CheckResult("dual_nonnegative", True, 0.0))

    p_hat = dual.matrix.toarray()
    # L P' - P_hat L, applying L = kron_j L_j one factor per lattice axis
    gap = (kron_apply(kernel.T, dims, [lam.T for lam in link.per_dim]).T
           - kron_apply(p_hat, dims, link.per_dim))
    checks.append(_result("intertwining", np.max(np.abs(gap)), 1e-10))
    checks.append(
        _result("pure_birth_rows", np.max(np.abs(p_hat.sum(axis=1) - 1.0)), 1e-12)
    )
    checks.append(diagonal_eigenvalue_check(kernel, dual.matrix.diagonal()))

    nu_star = lattice_point_mass(dims, start)
    weights = dual_initial(link, nu_star)

    def distribution_gap():
        direct = absorb_dist(chain, nu_star, eps=eps).pmf
        mixed = link.iso_value * absorb_dist(dual, weights, eps=eps).pmf
        # the dual law, cut or padded with zeros to the game's horizon
        mixed = np.pad(mixed, (0, len(direct)))[: len(direct)]
        return np.max(np.abs(mixed - direct))

    checks.append(_law_entry("distribution_equality", 1e-9, distribution_gap))

    if game.d == 1 and not game.dims[0].sink_reachable:
        def keilson_gap():
            # the factorization law concerns the time from the bottom state
            lam = bd_eigenvalues(game.dims[0])[:-1]
            dist = absorb_dist(chain, lattice_point_mass(dims, (1,)), eps=eps)
            conv = geometric_convolution_pmf(1.0 - lam, len(dist.pmf) - 1)
            return np.max(np.abs(conv - dist.pmf))

        checks.append(_law_entry("keilson_factorization", 1e-10, keilson_gap))
    return checks


def _law_entry(name: str, tol: float, gap) -> CheckResult:
    """The entry ``name`` for ``gap()``; an ``absorb_dist`` that raises fails it."""
    try:
        residual = gap()
    except (SpecError, HorizonError) as exc:
        return CheckResult(name, False, None, str(exc))
    return _result(name, residual, tol)


def geometric_convolution_pmf(rates, horizon: int) -> np.ndarray:
    """pmf of a sum of independent geometric times with the given success rates.

    Brute-force convolution; the oracle for the factorized pgf of one-sided
    chains.
    """
    pmf = np.zeros(horizon + 1)
    pmf[0] = 1.0
    for a in rates:
        g = np.zeros(horizon + 1)
        t = np.arange(1, horizon + 1)
        g[1:] = a * (1.0 - a) ** (t - 1)
        pmf = np.convolve(pmf, g)[: horizon + 1]
    return pmf
