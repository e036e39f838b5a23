"""One-shot verification suite: every identity the construction promises.

Each check returns a named result with its worst residual, so a single run
documents how tightly a given game satisfies the dualities it was built
from. Checks that do not apply to a spec (matrix coefficients, signed dual
weights, multi-dimensional games for the one-dimensional factorization) are
skipped rather than failed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .absorption import absorb_dist, geometric_convolution_pmf, pgf_from_dual
from .birth_death import bd_eigenvalues, bd_win_prob
from .errors import SpecError
from .game import GameSpec, build_game, check_communication, lattice_point_mass
from .intertwine import build_dual, dual_initial, spectral_polynomials
from .siegmund import (
    product_order,
    reconstruct_primal,
    stationary_of,
    win_prob_product,
    win_prob_solve,
)

_GAP_WARN = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""

    def as_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed, "residual": self.residual}
        if self.detail:
            out["detail"] = self.detail
        return out


def _result(name, residual, tol, detail="") -> CheckResult:
    return CheckResult(
        name=name, passed=bool(residual <= tol), residual=float(residual),
        detail=detail,
    )


def char_poly_residual(matrix: np.ndarray, values) -> float:
    """max |det(matrix - v I)| over the candidate eigenvalues v."""
    n = matrix.shape[0]
    return float(
        max(abs(np.linalg.det(matrix - v * np.eye(n))) for v in values)
    )


def diagonal_eigenvalue_check(
    kernel: np.ndarray, diag: np.ndarray, tol: float = 1e-7
) -> CheckResult:
    """Spectrum of the game's kernel vs the dual's diagonal.

    Uses the characteristic-polynomial residual, except for near-degenerate
    diagonals (min gap < 1e-9) where a sorted multiset comparison at 1e-6 is
    more meaningful.
    """
    gaps = np.diff(np.sort(diag))
    if len(gaps) and float(gaps.min()) < _GAP_WARN:
        warnings.warn(
            "near-degenerate dual diagonal; comparing spectra as multisets",
            stacklevel=2,
        )
        spectrum = np.sort(np.linalg.eigvals(kernel).real)
        residual = float(np.max(np.abs(spectrum - np.sort(diag))))
        return _result("diagonal_eigenvalues", residual, 1e-6, "multiset")
    return _result(
        "diagonal_eigenvalues", char_poly_residual(kernel, diag), tol
    )


def run_checks(
    game: GameSpec,
    start=None,
    eps: float = 1e-12,
) -> list:
    """Run every applicable identity check for one game spec."""
    checks = []
    dims = game.shape
    start = tuple(start) if start is not None else (1,) * game.d

    try:
        chain = build_game(game)
    except SpecError as exc:
        checks.append(CheckResult("build", False, float("nan"), str(exc)))
        return checks
    kernel = chain.matrix
    row_excess = float(kernel.sum(axis=1).max()) - 1.0
    checks.append(
        _result("build_stochastic",
                max(0.0, row_excess, -float(kernel.min())), 1e-12)
    )
    checks.append(
        CheckResult(
            "communication_class", check_communication(chain), 0.0
        )
    )

    rho_prod = win_prob_product(game)
    rho_solve = win_prob_solve(chain)
    checks.append(
        _result("win_prob_product_vs_solve",
                np.max(np.abs(rho_prod - rho_solve)), 1e-9)
    )

    order = product_order(dims)
    primal = reconstruct_primal(chain, order)
    checks.append(
        _result("mobius_monotone", max(0.0, -float(primal.min())), 1e-10)
    )
    c_float = order.c.astype(float)
    resid = 0.0
    lhs = np.eye(len(primal))
    rhs = np.eye(len(primal))
    for _ in range(4):
        lhs = lhs @ primal
        rhs = rhs @ kernel.T
        resid = max(resid, float(np.max(np.abs(lhs @ c_float - c_float @ rhs))))
    checks.append(_result("siegmund_identity_n1_4", resid, 1e-10))

    pi_parts = [bd_stationary_of_game_dim(game, j) for j in range(game.d)]
    pi_kron = pi_parts[0]
    for part in pi_parts[1:]:
        pi_kron = np.kron(pi_kron, part)
    checks.append(
        _result("stationary_product",
                np.max(np.abs(pi_kron @ primal - pi_kron)), 1e-10)
    )
    pi = stationary_of(primal)
    checks.append(
        _result("win_prob_pi_route",
                np.max(np.abs(pi @ c_float - rho_solve)), 1e-9)
    )

    if not game.scalar_coeffs:
        return checks

    try:
        link, dual = build_dual(game)
    except SpecError as exc:
        checks.append(
            CheckResult("dual_nonnegative", False, float("nan"), str(exc))
        )
        return checks
    checks.append(CheckResult("dual_nonnegative", True, 0.0))

    checks.append(
        _result(
            "intertwining",
            np.max(np.abs(link.matrix @ kernel - dual.matrix @ link.matrix)),
            1e-10,
        )
    )
    iso_resid = max(
        float(np.max(np.abs(link.matrix[:-1, -1]))),
        abs(float(link.matrix[-1, -1]) - link.iso_value),
    )
    checks.append(_result("link_isolation", iso_resid, 1e-10))
    checks.append(
        _result(
            "pure_birth_rows",
            np.max(np.abs(dual.matrix.sum(axis=1) - 1.0)),
            1e-12,
        )
    )
    qk_resid = 0.0
    for spec in game.dims:
        for qk in spectral_polynomials(spec):
            qk_resid = max(qk_resid, float(qk.sum(axis=1).max()) - 1.0)
            qk_resid = max(qk_resid, -float(qk.min()))
    checks.append(_result("spectral_polynomials_substochastic", qk_resid, 1e-10))

    checks.append(diagonal_eigenvalue_check(kernel, dual.diag))

    nu_star = lattice_point_mass(dims, start)
    weights = dual_initial(link, nu_star)
    mix = pgf_from_dual(link, dual, weights.values, eps=eps)
    direct = absorb_dist(chain, nu_star, eps=eps)
    horizon = len(direct.pmf)
    mixture_pmf = np.zeros(horizon)
    for w, part in zip(mix.weights, mix.parts):
        contrib = np.asarray(part.pmf)[:horizon]
        mixture_pmf[: len(contrib)] += mix.scale * w * contrib
    checks.append(
        _result(
            "distribution_equality",
            np.max(np.abs(mixture_pmf - direct.pmf)),
            1e-9,
        )
    )

    if game.d == 1 and not game.dims[0].sink_reachable:
        # the factorization law concerns the time from the bottom state
        spec = game.dims[0]
        lam = bd_eigenvalues(spec)[:-1]
        bottom = lattice_point_mass(dims, (1,))
        dist = absorb_dist(chain, bottom, eps=eps)
        conv = geometric_convolution_pmf(1.0 - lam, len(dist.pmf) - 1)
        checks.append(
            _result(
                "keilson_factorization",
                np.max(np.abs(conv - dist.pmf)),
                1e-10,
            )
        )
    return checks


def bd_stationary_of_game_dim(game: GameSpec, j: int) -> np.ndarray:
    """Stationary law of the ergodic partner of dimension j.

    The partner of a component with win probabilities rho has stationary
    increments pi(i) = rho(i) - rho(i-1); normalization is built in.
    """
    rho = bd_win_prob(game.dims[j])
    return np.diff(rho, prepend=0.0)


def all_passed(checks) -> bool:
    return all(c.passed for c in checks)
