import numpy as np

from krongambler import AbsorbingChain, BirthDeathSpec, GameSpec, preset_r_of_d
from krongambler import verify
from krongambler.game import build_game
from krongambler.verify import all_passed, char_poly_residual, run_checks

from conftest import rand_bd


def test_full_suite_on_valid_game():
    rng = np.random.default_rng(60)
    dims = [rand_bd(rng, 3, budget=0.2), rand_bd(rng, 3, budget=0.2)]
    checks = run_checks(preset_r_of_d(dims, 1))
    assert all_passed(checks)
    names = [c.name for c in checks]
    assert "intertwining" in names
    assert "diagonal_eigenvalues" in names


def test_matrix_coefficient_games_skip_dual_checks():
    rng = np.random.default_rng(61)
    spec = rand_bd(rng, 4, budget=0.5)
    lazy = np.diag(rng.uniform(0.4, 1.0, 4))
    game = GameSpec(
        dims=(spec,),
        subsets=(frozenset({1}), frozenset()),
        coeffs=(lazy, np.eye(4) - lazy),
    )
    checks = run_checks(game)
    assert all_passed(checks)
    names = [c.name for c in checks]
    assert "win_prob_product_vs_solve" in names
    assert "intertwining" not in names


def test_dual_nonnegativity_failure_is_reported_not_raised():
    spec = BirthDeathSpec(N=3, p=(0.3, 0.3), q=(0.1, 0.1))
    checks = run_checks(preset_r_of_d([spec, spec], 1))
    by_name = {c.name: c for c in checks}
    assert not by_name["dual_nonnegative"].passed
    assert not all_passed(checks)
    # the winning-probability pipeline is unaffected
    assert by_name["win_prob_product_vs_solve"].passed


def test_keilson_check_uses_bottom_start_regardless_of_game_start():
    spec = BirthDeathSpec(N=4, p=(0.3, 0.25, 0.3), q=(0.0, 0.1, 0.1))
    game = GameSpec(dims=(spec,), subsets=(frozenset({1}),), coeffs=(1.0,))
    checks = run_checks(game, start=(3,))
    by_name = {c.name: c for c in checks}
    assert by_name["keilson_factorization"].passed
    assert all_passed(checks)


def test_build_stochastic_fails_on_overfull_kernel_row(monkeypatch):
    rng = np.random.default_rng(62)
    game = preset_r_of_d([rand_bd(rng, 3, budget=0.2) for _ in range(2)], 1)
    chain = build_game(game)
    kernel = chain.matrix.copy()
    kernel[0, 0] += 1.0 - kernel[0].sum() + 1e-9  # row 0 sums to 1 + 1e-9
    bad = AbsorbingChain(matrix=kernel, dims=chain.dims)
    monkeypatch.setattr(verify, "build_game", lambda _: bad)
    by_name = {c.name: c for c in run_checks(game)}
    assert not by_name["build_stochastic"].passed
    assert abs(by_name["build_stochastic"].residual - 1e-9) < 1e-12


def test_char_poly_residual_detects_wrong_values():
    m = np.diag([0.2, 0.5, 0.9])
    assert char_poly_residual(m, [0.2, 0.5, 0.9]) == 0.0
    assert char_poly_residual(m, [0.3]) > 1e-3
