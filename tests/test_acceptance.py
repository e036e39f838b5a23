"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import time

import numpy as np

from krongambler import (
    AbsorbingChain,
    BirthDeathSpec,
    GameSpec,
    SimConfig,
    absorb_dist,
    bd_eigenvalues,
    bd_win_prob,
    build_dual,
    build_game,
    dual_initial,
    linear_index,
    preset_r_of_d,
    simulate,
    simulate_coupled,
    win_prob_product,
    win_prob_solve,
)
from krongambler.absorption import pgf_two_sided
from krongambler.birth_death import bd_restricted
from krongambler.intertwine import (
    classical_ssd_1d,
    ehrenfest_dual_weights,
    ehrenfest_ergodic,
)
from krongambler.siegmund import win_prob_pi_route
from krongambler.verify import diagonal_eigenvalue_check, geometric_convolution_pmf

from conftest import (
    ehrenfest_dual_weights_link_route,
    kron_all,
    rand_bd,
    rand_game,
)


def report(number, passed, detail):
    label = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {label}: {detail}")
    assert passed, detail


def mixture_pmf_against(direct_pmf, link, dual, weights):
    """iso * the dual's pmf from the mixed start weights, cut or padded with
    zeros to the game's horizon."""
    mixed = link.iso_value * absorb_dist(dual, weights).pmf
    return np.pad(mixed, (0, len(direct_pmf)))[: len(direct_pmf)]


def test_criterion_1_golden_one_dim_pgf():
    t0 = time.perf_counter()
    worst = 0.0
    for p, q in [(0.3, 0.1), (0.25, 0.15)]:
        spec = BirthDeathSpec(N=3, p=(p, p), q=(q, q))
        game = GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
        link, dual = build_dual(game)
        weights = dual_initial(link, np.array([0.0, 1.0, 0.0]))
        expected_weights = np.array(
            [-np.sqrt(q / p), 1 + q / p + np.sqrt(q / p), 0.0]
        )
        assert np.max(np.abs(weights - expected_weights)) < 1e-12
        mixed = link.iso_value * absorb_dist(dual, weights).pmf
        ratio_win, _ = pgf_two_sided(spec, 2)
        assert ratio_win.den == (p + q,)
        root = np.sqrt(p * q)
        for s in np.arange(0.1, 0.95, 0.1):
            closed = (
                p * (q + p + root) * (-q - p + root) * s * (1 - s * (1 - q - p))
            ) / (
                (p * p + q * p + q * q)
                * (1 - s * (1 - q - p - root))
                * (-1 + s * (1 - q - p + root))
            )
            # the dual route: the series of its mixed pmf
            dual_value = np.polynomial.polynomial.polyval(s, mixed)
            worst = max(worst, abs(dual_value - closed))
            worst = max(worst, abs(dual_value - ratio_win.evaluate(s)))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-10 and elapsed < 1.0,
        f"one-dim golden pgf, max diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_win_probability_triple_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        game = rand_game(rng, n_max=4, dual_safe=False)
        chain = build_game(game)
        rho_prod = win_prob_product(game)
        rho_solve = win_prob_solve(chain)
        rho_pi = win_prob_pi_route(chain.matrix.toarray(), chain.dims)
        worst = max(worst, float(np.max(np.abs(rho_prod - rho_solve))))
        worst = max(worst, float(np.max(np.abs(rho_pi - rho_solve))))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst < 1e-9 and elapsed < 30.0,
        f"100 games, product vs solve vs duality route, max diff {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_distribution_equality():
    rng = np.random.default_rng(2025)
    worst_safe = 0.0
    for _ in range(25):
        game = rand_game(rng, q1_zero=True)
        chain = build_game(game)
        link, dual = build_dual(game)
        nu = np.zeros(game.size)
        nu[0] = 1.0
        direct = absorb_dist(chain, nu, eps=1e-12)
        dual_dist = absorb_dist(dual, nu, eps=1e-12)
        horizon = min(len(direct.pmf), len(dual_dist.pmf))
        worst_safe = max(
            worst_safe,
            float(np.max(np.abs(direct.pmf[:horizon] - dual_dist.pmf[:horizon]))),
        )
    worst_two_sided = 0.0
    for _ in range(10):
        game = rand_game(rng, q1_zero=False)
        chain = build_game(game)
        link, dual = build_dual(game)
        nu = np.zeros(game.size)
        nu[0] = 1.0
        direct = absorb_dist(chain, nu, eps=1e-12)
        mixture = mixture_pmf_against(direct.pmf, link, dual,
                                      dual_initial(link, nu))
        worst_two_sided = max(
            worst_two_sided, float(np.max(np.abs(mixture - direct.pmf)))
        )
    passed = worst_safe < 1e-9 and worst_two_sided < 1e-9
    report(
        3,
        passed,
        f"time-to-win law vs dual law, max diff {worst_safe:.2e} (one-sided), "
        f"{worst_two_sided:.2e} (two-sided)",
    )


def test_criterion_4_intertwining_and_isolation():
    rng = np.random.default_rng(2026)
    worst_resid = 0.0
    worst_iso = 0.0
    for _ in range(30):
        game = rand_game(rng)
        chain = build_game(game)
        link, dual = build_dual(game)
        lam = kron_all(link.per_dim)
        gap = lam @ chain.matrix.toarray() - dual.matrix.toarray() @ lam
        worst_resid = max(worst_resid, float(np.max(np.abs(gap))))
        expected_iso = float(np.prod([bd_win_prob(s)[0] for s in game.dims]))
        worst_iso = max(worst_iso, float(np.max(np.abs(lam[:-1, -1]))))
        worst_iso = max(worst_iso, abs(lam[-1, -1] - expected_iso))
    passed = worst_resid < 1e-10 and worst_iso < 1e-10
    report(
        4,
        passed,
        f"intertwining residual {worst_resid:.2e}, isolation defect "
        f"{worst_iso:.2e} over 30 games",
    )


def test_criterion_5_dual_diagonal_is_spectrum():
    rng = np.random.default_rng(2027)
    worst = 0.0
    cases = [rand_game(rng, d=1, n_max=4) for _ in range(10)]
    cases += [rand_game(rng, d=2, n_max=4) for _ in range(10)]
    cases += [rand_game(rng, d=3, n_max=2) for _ in range(5)]
    for game in cases:
        chain = build_game(game)
        _, dual = build_dual(game)
        check = diagonal_eigenvalue_check(
            chain.matrix.toarray(), dual.matrix.diagonal()
        )
        worst = max(worst, check.residual)
    report(
        5,
        worst < 1e-9,
        f"dual diagonal vs game spectrum, sorted-spectrum residual {worst:.2e}",
    )


def test_criterion_6_two_urn_closed_forms():
    worst_nu = 0.0
    worst_sum = 0.0
    worst_e = 0.0
    for n in range(3, 9):
        ssd, _ = classical_ssd_1d(ehrenfest_ergodic(n))
        restricted = bd_restricted(ssd)
        q_block = restricted[:-1, :-1]
        expected_fund = np.linalg.solve(
            np.eye(n - 1) - q_block, np.ones(n - 1)
        )
        for m in range(1, n + 1):
            nu = ehrenfest_dual_weights(n, m)
            route = ehrenfest_dual_weights_link_route(n, m)
            worst_nu = max(worst_nu, float(np.max(np.abs(nu - route))))
            worst_sum = max(worst_sum, abs(float(nu.sum()) - 1.0))
            fund = expected_fund[m - 1] if m < n else 0.0
            fill = pgf_two_sided(ssd, m)[0]
            worst_e = max(worst_e, abs(fill.mean() - fund))
    three_state, _ = classical_ssd_1d(ehrenfest_ergodic(3))
    exact3 = abs(pgf_two_sided(three_state, 1)[0].mean() - 3.0)
    passed = (
        worst_nu < 1e-9 and worst_sum < 1e-12 and worst_e < 1e-8
        and exact3 < 1e-10
    )
    report(
        6,
        passed,
        f"two-urn family: weights {worst_nu:.2e}, sum defect {worst_sum:.2e}, "
        f"E[T] defect {worst_e:.2e}, E(3,1)-3 = {exact3:.2e}",
    )


def test_criterion_7_monte_carlo_concordance():
    t0 = time.perf_counter()
    spec_a = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    spec_b = BirthDeathSpec(N=3, p=(0.25, 0.3), q=(0.15, 0.1))
    game = preset_r_of_d([spec_a, spec_b], 1)
    chain = build_game(game)
    cfg = SimConfig(runs=100_000, seed=20240901)
    rep = simulate(chain, (2, 2), cfg)
    exact = float(win_prob_product(game)[linear_index(chain.dims, (2, 2))])
    freq_ok = abs(rep.win_freq - exact) < 4 * rep.win_se
    identical = json.dumps(rep.as_dict()) == json.dumps(
        simulate(chain, (2, 2), cfg).as_dict()
    )

    lazy = BirthDeathSpec(N=3, p=(0.08, 0.07), q=(0.05, 0.06))
    lazy_game = preset_r_of_d([lazy, lazy], 1)
    nu = np.zeros(9)
    nu[0] = 1.0
    coupled = simulate_coupled(
        lazy_game, nu, SimConfig(runs=30_000, seed=7)
    )
    elapsed = time.perf_counter() - t0
    passed = (
        freq_ok
        and identical
        and coupled.coupling_violations == 0
        and elapsed < 60.0
    )
    report(
        7,
        passed,
        f"win freq {rep.win_freq:.5f} vs exact {exact:.5f} "
        f"(|z| = {abs(rep.win_freq - exact) / rep.win_se:.2f}), "
        f"bit-identical reports: {identical}, coupling violations: "
        f"{coupled.coupling_violations}, {elapsed:.1f}s",
    )


def test_criterion_8_geometric_factorization():
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(15):
        n = int(rng.integers(2, 11))
        spec = rand_bd(rng, n, q1_zero=True, budget=0.6)
        dist = absorb_dist(AbsorbingChain(bd_restricted(spec), (n,)),
                           np.eye(n)[0], eps=1e-12)
        lam = bd_eigenvalues(spec)[:-1]
        conv = geometric_convolution_pmf(1.0 - lam, len(dist.pmf) - 1)
        worst = max(worst, float(np.max(np.abs(conv - dist.pmf))))
    report(
        8,
        worst < 1e-10,
        f"time-from-bottom law vs geometric convolution, sup diff {worst:.2e}",
    )
